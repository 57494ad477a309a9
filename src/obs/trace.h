// Commit-pipeline stage tracing.
//
// Every committed batch produces one CommitTrace: a per-stage
// timing breakdown of the paper's update protocol as this engine executes it —
//
//   lock_wait   acquiring the update lock (paper: "An update lock is held...")
//   queue_wait  waiting in the group-commit queue for a leader (max over the batch)
//   prepare     precondition checks + record pickling, under the update lock
//   append      streaming the batch's records into the OS cache
//   fsync       padding + the Sync() that IS the commit point, no lock held
//   excl_wait   upgrading to exclusive (draining in-flight enquiries)
//   apply       the in-memory modification, exclusive mode
//   ack         from batch completion to a rider thread observing it (histogram
//               only; a trace event is recorded by the leader before riders wake)
//
// Traces aggregate into per-stage histograms in the owning Database's registry
// ("commit.stage.<name>_us") and, optionally, into a bounded ring buffer of raw
// per-commit events for inspection via Database::DumpTrace().
#ifndef SMALLDB_SRC_OBS_TRACE_H_
#define SMALLDB_SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace sdb::obs {

enum class CommitStage : int {
  kLockWait = 0,
  kQueueWait,
  kPrepare,
  kAppend,
  kFsync,
  kExclusiveWait,
  kApply,
  kAck,
};
constexpr std::size_t kCommitStageCount = 8;

// Short stage name as used in metric names ("lock_wait", "fsync", ...).
const char* CommitStageName(CommitStage stage);

struct CommitTrace {
  std::uint64_t epoch = 0;    // Database::commit_epoch() of the batch
  std::uint64_t records = 0;  // records committed by the batch
  std::int64_t start_micros = 0;  // clock timestamp when the batch started
  std::array<std::int64_t, kCommitStageCount> stage_micros{};
  std::int64_t total_micros = 0;  // lock acquire -> apply complete

  std::int64_t stage(CommitStage s) const { return stage_micros[static_cast<int>(s)]; }
  void set_stage(CommitStage s, std::int64_t v) { stage_micros[static_cast<int>(s)] = v; }

  // One line per trace: "epoch=5 records=3 total=812us lock_wait=0 ...".
  std::string ToString() const;
};

// Fixed-capacity ring of the most recent commit traces. Recording happens once per
// batch (not per record), so a mutex is fine; Dump() returns oldest-first.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void Record(const CommitTrace& trace);
  std::vector<CommitTrace> Dump() const;

  std::uint64_t total_recorded() const;  // including events already overwritten
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<CommitTrace> ring_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
};

// The per-stage aggregation targets the commit pipeline records into: one histogram
// per stage plus batch-level totals, all owned by the database's registry, and an
// optional raw-event ring. Cheap to copy (it is a bundle of stable pointers).
struct CommitStageMetrics {
  std::array<Histogram*, kCommitStageCount> stage{};
  Histogram* total = nullptr;          // commit.total_us
  Histogram* batch_records = nullptr;  // commit.batch_records (size of each batch)
  Counter* batches = nullptr;          // commit.batches
  Counter* fsyncs = nullptr;           // commit.fsyncs
  TraceRing* ring = nullptr;           // may be null (tracing disabled)

  // Registers the stage histograms in `registry` under "commit.stage.<name>_us".
  static CommitStageMetrics Register(Registry& registry, TraceRing* ring);

  // Records one completed batch: the per-batch stage histograms, the totals, and the
  // ring. Ack and queue wait are per-request stages, recorded by the pipeline itself;
  // the trace only carries the batch's worst queue wait for DumpTrace().
  void RecordBatch(const CommitTrace& trace);
};

}  // namespace sdb::obs

#endif  // SMALLDB_SRC_OBS_TRACE_H_
