// Decorators the benchmark puts around the program's public interfaces. Each one
// forwards every call unchanged; what it adds is counting (always) and spans (only
// while the Tracer is enabled).
//
//   ProbeFs / ProbeFile   Vfs and File over PosixFs: calls and bytes by file kind,
//                         and an optional null-sync device (Sync is counted and
//                         timed but never issued).
//   ProbeApp              Application: apply, capture, serialize, deserialize,
//                         replay (including the ReplayBatch it hands out), compose.
//   ProbeSink             rpc::UpdateSink: CommitMany, batch sizes, and a span
//                         around each prepare closure.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/database.h"
#include "src/rpc/server.h"
#include "src/storage/vfs.h"

namespace perfbench {

enum class FileKind : std::uint8_t { kLog, kCheckpoint, kDelta, kManifest, kVersion, kOther, kCount };

const char* FileKindLabel(FileKind kind);

// Classifies an engine file by its name (single engine and sharded ensemble).
FileKind KindOfPath(std::string_view path);

struct IoCounts {
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t writes = 0;  // WriteAt
  std::uint64_t write_bytes = 0;
  std::uint64_t syncs = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;

  std::uint64_t bytes_written() const { return append_bytes + write_bytes; }
};

struct IoSnapshot {
  std::array<IoCounts, static_cast<std::size_t>(FileKind::kCount)> by_kind{};
  std::uint64_t renames = 0;
  std::uint64_t sync_dirs = 0;

  const IoCounts& of(FileKind kind) const { return by_kind[static_cast<std::size_t>(kind)]; }
  std::uint64_t bytes_written() const;
  std::uint64_t bytes_read() const;
  IoSnapshot operator-(const IoSnapshot& earlier) const;
};

class ProbeFs final : public sdb::Vfs {
 public:
  ProbeFs(sdb::Vfs& inner, bool null_sync) : inner_(inner), null_sync_(null_sync) {}

  sdb::Result<std::unique_ptr<sdb::File>> Open(std::string_view path,
                                               sdb::OpenMode mode) override;
  sdb::Status Delete(std::string_view path) override;
  sdb::Status Rename(std::string_view from, std::string_view to) override;
  sdb::Result<bool> Exists(std::string_view path) override;
  sdb::Result<std::vector<std::string>> List(std::string_view dir) override;
  sdb::Status CreateDir(std::string_view path) override;
  sdb::Status SyncDir(std::string_view dir) override;

  IoSnapshot Snapshot() const;

 private:
  class ProbeFile;  // the File it hands out; updates counters_

  struct Counters {
    std::atomic<std::uint64_t> appends{0};
    std::atomic<std::uint64_t> append_bytes{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> write_bytes{0};
    std::atomic<std::uint64_t> syncs{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> read_bytes{0};
  };

  Counters& counters(FileKind kind) { return counters_[static_cast<std::size_t>(kind)]; }

  sdb::Vfs& inner_;
  const bool null_sync_;
  std::array<Counters, static_cast<std::size_t>(FileKind::kCount)> counters_;
  std::atomic<std::uint64_t> renames_{0};
  std::atomic<std::uint64_t> sync_dirs_{0};
};

class ProbeApp final : public sdb::Application {
 public:
  explicit ProbeApp(sdb::Application& inner) : inner_(inner) {}

  sdb::Status ResetState() override { return inner_.ResetState(); }
  sdb::Result<sdb::Bytes> SerializeState() override;
  sdb::Status DeserializeState(sdb::ByteSpan data) override;
  sdb::Status ApplyUpdate(sdb::ByteSpan record) override;
  bool ReplayKeyOf(sdb::ByteSpan record, std::string* key) override;
  std::unique_ptr<ReplayBatch> StartReplayBatch() override;
  sdb::Status MergeReplayBatch(ReplayBatch& batch) override;
  sdb::Result<std::function<sdb::Result<sdb::Bytes>()>> CaptureSnapshot() override;
  sdb::Result<std::function<sdb::Result<DeltaSnapshot>()>> CaptureDeltaSnapshot() override;
  void CommitDeltaCapture() override { inner_.CommitDeltaCapture(); }
  void AbandonDeltaCapture() override { inner_.AbandonDeltaCapture(); }
  sdb::Result<sdb::Bytes> ComposeCheckpoint(sdb::ByteSpan base,
                                            const std::vector<sdb::ByteSpan>& deltas) override;

 private:
  sdb::Application& inner_;
};

class ProbeSink final : public sdb::rpc::UpdateSink {
 public:
  explicit ProbeSink(std::shared_ptr<sdb::rpc::UpdateSink> inner) : inner_(std::move(inner)) {}

  std::vector<sdb::Status> CommitMany(
      std::span<const std::function<sdb::Result<sdb::Bytes>()>> prepares) override;

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t updates() const { return updates_.load(); }

 private:
  std::shared_ptr<sdb::rpc::UpdateSink> inner_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> updates_{0};
};

// Wraps one prepare closure in a pickle.prepare span.
std::function<sdb::Result<sdb::Bytes>()> TracedPrepare(
    std::function<sdb::Result<sdb::Bytes>()> prepare);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
