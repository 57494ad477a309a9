#include "perfbench/src/probes.h"

#include <string>
#include <utility>

#include "perfbench/src/trace.h"

namespace perfbench {

using sdb::ByteSpan;
using sdb::Bytes;
using sdb::Result;
using sdb::Status;

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

// Handles are not shared between threads (the engine serializes access), so only
// the counters, which all files of a kind share, need to be atomic.
class ProbeFs::ProbeFile final : public sdb::File {
 public:
  ProbeFile(std::unique_ptr<sdb::File> inner, ProbeFs& fs, FileKind kind)
      : inner_(std::move(inner)), fs_(fs), kind_(kind), counters_(fs.counters(kind)) {}

  Result<Bytes> ReadAt(std::uint64_t offset, std::size_t length) override {
    Tracer::Scope span(Span::kRead);
    Result<Bytes> data = inner_->ReadAt(offset, length);
    counters_.reads.fetch_add(1, std::memory_order_relaxed);
    if (data.ok()) {
      counters_.read_bytes.fetch_add(data->size(), std::memory_order_relaxed);
    }
    return data;
  }

  Status Append(ByteSpan data) override {
    Tracer::Scope span(kind_ == FileKind::kLog ? Span::kLogAppend : Span::kCkptWrite);
    counters_.appends.fetch_add(1, std::memory_order_relaxed);
    counters_.append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->Append(data);
  }

  Status WriteAt(std::uint64_t offset, ByteSpan data) override {
    Tracer::Scope span(kind_ == FileKind::kLog ? Span::kLogAppend : Span::kCkptWrite);
    counters_.writes.fetch_add(1, std::memory_order_relaxed);
    counters_.write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->WriteAt(offset, data);
  }

  Status Truncate(std::uint64_t new_size) override {
    Tracer::Scope span(Span::kMeta);
    return inner_->Truncate(new_size);
  }

  Status Sync() override {
    Tracer::Scope span(kind_ == FileKind::kLog ? Span::kLogSync : Span::kCkptSync);
    counters_.syncs.fetch_add(1, std::memory_order_relaxed);
    if (fs_.null_sync_) {
      return sdb::OkStatus();
    }
    return inner_->Sync();
  }

  Result<std::uint64_t> Size() override { return inner_->Size(); }

  Status Close() override {
    Tracer::Scope span(Span::kMeta);
    return inner_->Close();
  }

 private:
  std::unique_ptr<sdb::File> inner_;
  const ProbeFs& fs_;
  const FileKind kind_;
  Counters& counters_;
};

const char* FileKindLabel(FileKind kind) {
  switch (kind) {
    case FileKind::kLog:
      return "log";
    case FileKind::kCheckpoint:
      return "checkpoint";
    case FileKind::kDelta:
      return "delta";
    case FileKind::kManifest:
      return "manifest";
    case FileKind::kVersion:
      return "version";
    default:
      return "other";
  }
}

FileKind KindOfPath(std::string_view path) {
  std::size_t slash = path.rfind('/');
  std::string_view name = slash == std::string_view::npos ? path : path.substr(slash + 1);
  // Sharded files carry a "p<shard>." prefix: p3.checkpoint7, p0.delta9.
  if (StartsWith(name, "p")) {
    std::size_t dot = name.find('.');
    if (dot != std::string_view::npos && dot > 1) {
      name = name.substr(dot + 1);
    }
  }
  if (StartsWith(name, "logfile")) {
    return FileKind::kLog;
  }
  if (StartsWith(name, "checkpoint")) {
    return FileKind::kCheckpoint;
  }
  if (StartsWith(name, "delta")) {
    return FileKind::kDelta;
  }
  if (StartsWith(name, "manifest")) {
    return FileKind::kManifest;
  }
  if (StartsWith(name, "version") || StartsWith(name, "newversion") ||
      StartsWith(name, "pending")) {
    return FileKind::kVersion;
  }
  return FileKind::kOther;
}

std::uint64_t IoSnapshot::bytes_written() const {
  std::uint64_t total = 0;
  for (const IoCounts& counts : by_kind) {
    total += counts.bytes_written();
  }
  return total;
}

std::uint64_t IoSnapshot::bytes_read() const {
  std::uint64_t total = 0;
  for (const IoCounts& counts : by_kind) {
    total += counts.read_bytes;
  }
  return total;
}

IoSnapshot IoSnapshot::operator-(const IoSnapshot& earlier) const {
  IoSnapshot diff;
  for (std::size_t i = 0; i < by_kind.size(); ++i) {
    const IoCounts& a = by_kind[i];
    const IoCounts& b = earlier.by_kind[i];
    diff.by_kind[i] = IoCounts{a.appends - b.appends,     a.append_bytes - b.append_bytes,
                               a.writes - b.writes,       a.write_bytes - b.write_bytes,
                               a.syncs - b.syncs,         a.reads - b.reads,
                               a.read_bytes - b.read_bytes};
  }
  diff.renames = renames - earlier.renames;
  diff.sync_dirs = sync_dirs - earlier.sync_dirs;
  return diff;
}

Result<std::unique_ptr<sdb::File>> ProbeFs::Open(std::string_view path, sdb::OpenMode mode) {
  Tracer::Scope span(Span::kMeta);
  SDB_ASSIGN_OR_RETURN(std::unique_ptr<sdb::File> file, inner_.Open(path, mode));
  return std::unique_ptr<sdb::File>(new ProbeFile(std::move(file), *this, KindOfPath(path)));
}

Status ProbeFs::Delete(std::string_view path) {
  Tracer::Scope span(Span::kMeta);
  return inner_.Delete(path);
}

Status ProbeFs::Rename(std::string_view from, std::string_view to) {
  Tracer::Scope span(Span::kMeta);
  renames_.fetch_add(1, std::memory_order_relaxed);
  return inner_.Rename(from, to);
}

Result<bool> ProbeFs::Exists(std::string_view path) { return inner_.Exists(path); }

Result<std::vector<std::string>> ProbeFs::List(std::string_view dir) {
  Tracer::Scope span(Span::kMeta);
  return inner_.List(dir);
}

Status ProbeFs::CreateDir(std::string_view path) { return inner_.CreateDir(path); }

Status ProbeFs::SyncDir(std::string_view dir) {
  Tracer::Scope span(Span::kMeta);
  sync_dirs_.fetch_add(1, std::memory_order_relaxed);
  return inner_.SyncDir(dir);
}

IoSnapshot ProbeFs::Snapshot() const {
  IoSnapshot snapshot;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const Counters& c = counters_[i];
    snapshot.by_kind[i] = IoCounts{c.appends.load(), c.append_bytes.load(), c.writes.load(),
                                   c.write_bytes.load(), c.syncs.load(), c.reads.load(),
                                   c.read_bytes.load()};
  }
  snapshot.renames = renames_.load();
  snapshot.sync_dirs = sync_dirs_.load();
  return snapshot;
}

// --- ProbeApp ---

namespace {

class ProbeBatch final : public sdb::Application::ReplayBatch {
 public:
  explicit ProbeBatch(std::unique_ptr<ReplayBatch> batch) : inner(std::move(batch)) {}
  Status Apply(ByteSpan record) override {
    Tracer::Scope span(Span::kAppReplay);
    return inner->Apply(record);
  }
  std::unique_ptr<ReplayBatch> inner;
};

}  // namespace

Result<Bytes> ProbeApp::SerializeState() {
  Tracer::Scope span(Span::kAppSerialize);
  return inner_.SerializeState();
}

Status ProbeApp::DeserializeState(ByteSpan data) {
  Tracer::Scope span(Span::kAppDeserialize);
  return inner_.DeserializeState(data);
}

Status ProbeApp::ApplyUpdate(ByteSpan record) {
  Tracer::Scope span(Span::kAppApply);
  return inner_.ApplyUpdate(record);
}

bool ProbeApp::ReplayKeyOf(ByteSpan record, std::string* key) {
  Tracer::Scope span(Span::kAppReplay);
  return inner_.ReplayKeyOf(record, key);
}

std::unique_ptr<sdb::Application::ReplayBatch> ProbeApp::StartReplayBatch() {
  std::unique_ptr<ReplayBatch> inner = inner_.StartReplayBatch();
  if (inner == nullptr) {
    return nullptr;
  }
  return std::make_unique<ProbeBatch>(std::move(inner));
}

Status ProbeApp::MergeReplayBatch(ReplayBatch& batch) {
  Tracer::Scope span(Span::kAppReplay);
  return inner_.MergeReplayBatch(*static_cast<ProbeBatch&>(batch).inner);
}

Result<std::function<Result<Bytes>()>> ProbeApp::CaptureSnapshot() {
  Tracer::Scope span(Span::kAppCapture);
  SDB_ASSIGN_OR_RETURN(std::function<Result<Bytes>()> serialize, inner_.CaptureSnapshot());
  return std::function<Result<Bytes>()>(
      [serialize = std::move(serialize)]() -> Result<Bytes> {
        Tracer::Scope closure_span(Span::kAppSerialize);
        return serialize();
      });
}

Result<std::function<Result<sdb::Application::DeltaSnapshot>()>>
ProbeApp::CaptureDeltaSnapshot() {
  Tracer::Scope span(Span::kAppCapture);
  SDB_ASSIGN_OR_RETURN(std::function<Result<DeltaSnapshot>()> serialize,
                       inner_.CaptureDeltaSnapshot());
  if (!serialize) {
    return serialize;  // delta capture unsupported: keep the null function
  }
  return std::function<Result<DeltaSnapshot>()>(
      [serialize = std::move(serialize)]() -> Result<DeltaSnapshot> {
        Tracer::Scope closure_span(Span::kAppSerialize);
        return serialize();
      });
}

Result<Bytes> ProbeApp::ComposeCheckpoint(ByteSpan base, const std::vector<ByteSpan>& deltas) {
  Tracer::Scope span(Span::kAppCompose);
  return inner_.ComposeCheckpoint(base, deltas);
}

// --- ProbeSink ---

std::vector<Status> ProbeSink::CommitMany(
    std::span<const std::function<Result<Bytes>()>> prepares) {
  Tracer::Scope span(Span::kCommitMany);
  calls_.fetch_add(1, std::memory_order_relaxed);
  updates_.fetch_add(prepares.size(), std::memory_order_relaxed);
  std::vector<std::function<Result<Bytes>()>> wrapped;
  wrapped.reserve(prepares.size());
  for (const auto& prepare : prepares) {
    // The closures run inside the CommitMany call below, while `prepares` is alive.
    wrapped.emplace_back([&prepare]() -> Result<Bytes> {
      Tracer::Scope prepare_span(Span::kPrepare);
      return prepare();
    });
  }
  return inner_->CommitMany(wrapped);
}

std::function<Result<Bytes>()> TracedPrepare(std::function<Result<Bytes>()> prepare) {
  return [prepare = std::move(prepare)]() -> Result<Bytes> {
    Tracer::Scope span(Span::kPrepare);
    return prepare();
  };
}

}  // namespace perfbench
