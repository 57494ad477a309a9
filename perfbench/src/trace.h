// Outside-in spans for the end-to-end benchmark.
//
// Every span is opened by the benchmark's own code around a call into one layer's
// public interface (a decorator or a timed call site), never inside the program.
// A span records its name, start, end, parent (the span open below it on the same
// thread) and an operation id inherited from the root span of its thread's stack.
//
// Spans are kept in memory per thread. Closing a span folds its duration into the
// thread's per-name aggregate (count, total, self time = duration minus the time its
// children covered) and keeps its duration as a sample for percentiles. The first
// kRawSpanCap spans of each thread are also kept as raw records and written out
// when the run ends. With tracing disabled a Scope costs one relaxed load.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Span : std::uint8_t {
  kClientMarshal,    // rpc: pickling + framing a request on the client
  kNetSubmit,        // net: NetChannel::Submit
  kNetAwait,         // net: NetChannel::Await
  kClientUnmarshal,  // rpc: decoding + unpickling a response on the client
  kCommitMany,       // rpc: UpdateSink::CommitMany (the engine's batch ingest)
  kCoreUpdate,       // core: ShardedDatabase::UpdateKey
  kPrepare,          // pickle: one update's prepare closure
  kAppApply,         // app: Application::ApplyUpdate
  kAppCapture,       // app: CaptureSnapshot / CaptureDeltaSnapshot (under the lock)
  kAppSerialize,     // app: the snapshot closure (no lock)
  kAppDeserialize,   // app: DeserializeState
  kAppReplay,        // app: replay-batch Apply / Merge / ReplayKeyOf
  kAppCompose,       // app: ComposeCheckpoint
  kLogAppend,        // storage: File::Append on the log
  kLogSync,          // storage: File::Sync on the log
  kCkptWrite,        // storage: Append/WriteAt on checkpoint, delta, manifest, version
  kCkptSync,         // storage: File::Sync on those files
  kRead,             // storage: File::ReadAt
  kMeta,             // storage: Open, Rename, Delete, List, SyncDir, Truncate, Close
  kCoreCheckpoint,   // core: Database::Checkpoint / ShardedDatabase::CheckpointAll
  kCoreOpen,         // core: Database / NameServer / ShardedDatabase Open
  kCount,
};

const char* SpanLabel(Span span);

struct SpanStats {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<double> durations_us;  // one sample per closed span
};

using SpanTable = std::array<SpanStats, static_cast<std::size_t>(Span::kCount)>;

class Tracer {
 public:
  static constexpr std::size_t kRawSpanCap = 20000;

  static void SetEnabled(bool enabled);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Monotonic nanoseconds (steady_clock).
  static std::uint64_t NowNs();

  // Sets the operation id that root spans opened on this thread carry.
  static void SetThreadOp(std::uint64_t op);

  // Merges every thread's aggregates, then clears them (raw spans are kept for
  // WriteRaw). Call only when no traced call is in flight.
  static SpanTable Drain();

  // Writes the raw spans (tab-separated, one per line) and clears them.
  static bool WriteRaw(const std::string& path);

  class Scope {
   public:
    explicit Scope(Span span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_;
  };

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
