// GroupCommitter: the automatic cross-thread group-commit pipeline.
//
// The paper's Section 5 observes that the only way past one-fsync-per-update
// throughput is "arranging to record multiple commit records in a single log entry".
// The engine's manual Database::UpdateBatch does that for updates a single caller
// already holds in hand; this subsystem does it for *concurrent* callers with no API
// change: N threads calling Database::Update() at once share one log disk write.
// It is the engine's only commit path — every writable Database and every shard of a
// ShardedDatabase commits through one. The paper's one-fsync-per-update protocol is
// this pipeline with max_batch_records = 1.
//
// Protocol (leader election among waiters; no background thread):
//   - Each caller enqueues its prepare callback(s) and blocks.
//   - When no batch is in flight, one waiter elects itself leader, seals the whole
//     queue as a batch, and drives the batch through three phases:
//       1. prepare  — under the UPDATE lock: run every request's prepare callbacks in
//          queue order, collecting the pickled records. A request whose prepare fails
//          is dropped from the batch (its caller gets the error); the rest proceed.
//       2. commit   — with NO lock held: append every surviving record to the log as
//          one contiguous write, pad once, fsync ONCE. This is the commit point for
//          the entire batch. Enquiries and new Update() arrivals run concurrently.
//       3. apply    — under the EXCLUSIVE lock: apply the records in log order.
//   - The leader completes every request in the batch and wakes its waiters; one of
//     the waiters that arrived during the flush leads the next batch.
//
// Invariants preserved from the paper's Section 3 discipline:
//   - A caller's Update() returns OK only after its record is durable (the batch
//     fsync precedes every acknowledgement).
//   - ApplyUpdate runs only for durable records, in exactly log order, so replay
//     after a crash reconstructs the same state.
//   - No disk transfer happens while the exclusive lock is held: enquiries are never
//     blocked during disk writes. (The fsync holds no lock at all.)
//   - Batches are strictly sequential: batch N+1's prepares run only after batch N's
//     applies, so a prepare always sees every earlier-logged update applied — the
//     same serializability as holding the update lock across each whole update.
//
// Within one batch, prepares run back-to-back before any of the batch's applies
// (exactly like the pre-existing manual UpdateBatch): a prepare does not see the
// effects of earlier records *of the same batch*. Applications whose records carry
// state derived from the in-memory database (e.g. the name server's replication
// sequence numbers) can detect batch boundaries via Database::commit_epoch() and
// reserve against in-flight records; see NameServer::SyncReservations.
#ifndef SMALLDB_SRC_CORE_GROUP_COMMIT_H_
#define SMALLDB_SRC_CORE_GROUP_COMMIT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/log_writer.h"
#include "src/core/sue_lock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sdb {

struct GroupCommitOptions {
  // Upper bound on records sealed into one batch (one fsync). 0 = unlimited. Bounds
  // both the single contiguous log write and the exclusive-mode apply span. 1 gives
  // the paper's base protocol, one fsync per update — the benchmarks' baseline —
  // except that a multi-record request (UpdateBatch) still seals whole.
  std::size_t max_batch_records = 1024;
};

struct GroupCommitStats {
  std::uint64_t batches = 0;             // batches that reached the disk phase
  // Physical fsyncs this pipeline issued. With the default LogWriterSink this equals
  // successful batches; behind a CrossShardCoalescer a batch whose durability was
  // covered by an fsync led on another shard's behalf contributes 0 here, so summing
  // `syncs` across shard pipelines yields exactly the coalescer's covering fsyncs —
  // never an overstatement.
  std::uint64_t syncs = 0;
  std::uint64_t records_committed = 0;   // records made durable
  std::uint64_t sync_waits = 0;          // requests completed by a batch they did not lead
  std::uint64_t max_records_per_sync = 0;
  // Histogram of records per sync: buckets 1, 2, 3-4, 5-8, 9-16, 17+.
  std::array<std::uint64_t, 6> records_per_sync_hist{};

  double records_per_sync() const {
    return syncs == 0 ? 0.0 : static_cast<double>(records_committed) / static_cast<double>(syncs);
  }
  double fsyncs_per_record() const {
    return records_committed == 0 ? 0.0
                                  : static_cast<double>(syncs) / static_cast<double>(records_committed);
  }
};

// Hot-path counters shared between the Database and the committer: lock-free
// registry-owned metrics (the Database registers them in its own obs::Registry, so
// DatabaseStats and MetricsReport read the same source of truth). These stay live
// even under SDB_OBS_DISABLED — the checkpoint policy depends on them.
struct UpdateCounters {
  obs::Counter* updates = nullptr;
  obs::Counter* precondition_failures = nullptr;
  obs::Counter* commit_failures = nullptr;
  obs::Gauge* log_entries_since_checkpoint = nullptr;
  // Mirror of the live log's size, refreshed after every batch commit, so
  // Database::log_bytes() needs no lock while a batch is streaming to disk.
  obs::Gauge* log_bytes = nullptr;
};

// Where a sealed batch's records go to become durable. The committer drives the
// disk phase through this interface so the same pipeline serves both a private log
// (LogWriterSink: append, pad, one fsync per batch) and a log shared across shards
// (ShardedDatabase's sink: tagged appends into one file, durability awaited from the
// CrossShardCoalescer so one fsync covers batches from many shards). Append and Sync
// are separate calls because they are separate trace stages (kAppend / kFsync).
// All calls are made by one batch leader at a time (batches are sequential within a
// pipeline) with no engine lock held.
class CommitSink {
 public:
  virtual ~CommitSink() = default;

  // Buffers the batch's records into the log (not yet durable).
  virtual Status AppendRecords(std::span<const ByteSpan> payloads) = 0;

  // Makes everything this sink appended so far durable. Returns the number of
  // physical fsyncs issued on behalf of this batch: 1 when the sink syncs its own
  // log, 0 when a covering fsync led for another batch already did the work. The
  // pipeline adds the result to its fsync counters, so aggregate fsync accounting
  // stays truthful under coalescing.
  virtual Result<std::uint64_t> SyncRecords() = 0;

  // Current byte size of the underlying log (mirrors into the log_bytes gauge).
  virtual std::uint64_t log_bytes() const = 0;
};

// The default sink: the database's own live LogWriter.
class LogWriterSink final : public CommitSink {
 public:
  explicit LogWriterSink(LogWriter* log = nullptr) : log_(log) {}

  // Only while the owning pipeline is paused (checkpoint rotation swaps the log).
  void set_log(LogWriter* log) { log_ = log; }

  Status AppendRecords(std::span<const ByteSpan> payloads) override {
    return log_->AppendBatch(payloads);
  }
  Result<std::uint64_t> SyncRecords() override {
    SDB_RETURN_IF_ERROR(log_->Commit());
    return std::uint64_t{1};
  }
  std::uint64_t log_bytes() const override { return log_->size(); }

 private:
  LogWriter* log_;
};

// CrossShardCoalescer: the global flush pipeline behind a sharded engine.
//
// N shards each run their own GroupCommitter (per-shard update lock, per-shard
// batches), but all of them append to ONE shared log. The coalescer extends the
// group-commit idea one level up: instead of each shard's batch paying its own
// fsync, batch leaders append (serialized, ticketed) and then await coverage; the
// first awaiting thread elects itself the flush leader and issues a single fsync
// that covers every batch appended before it — typically batches from several
// shards at once. Per-shard acks release as soon as the covering fsync returns, so
// N shards multiply throughput without multiplying disk syncs.
//
// Protocol (single mutex; the fsync itself runs with the mutex held, so at most one
// fsync is ever in flight and appends from other shards queue behind it exactly the
// way riders queue behind a group-commit leader):
//   - AppendBatch buffers the batch's (already shard-tagged) records as one
//     contiguous write and returns a monotone ticket.
//   - AwaitDurable(ticket) returns once some successful fsync started after that
//     ticket's append. If none has, the caller leads: it snapshots the newest
//     ticket (`cover`), fsyncs, and publishes durable_seq = cover.
//   - A failed fsync does not advance durable_seq and fails only its leader (whose
//     records may or may not have reached the medium — the same possibly-durable
//     verdict a failed single-database commit yields); every other batch retries
//     with a fresh fsync of its own, so each gets a definitive verdict.
//
// Freeze()/Unfreeze() quiesce the whole flush pipeline (no appends, no new fsyncs)
// so the shared log can be rotated; the caller must already know no batch is awaiting
// durability (the rotation rule guarantees it — see ShardedDatabase::MaybeRotateLog).
class CrossShardCoalescer {
 public:
  struct Stats {
    std::uint64_t covering_fsyncs = 0;   // successful fsyncs issued
    std::uint64_t failed_fsyncs = 0;
    std::uint64_t batches_appended = 0;
    std::uint64_t batches_coalesced = 0;  // batches made durable by a covering fsync
                                          // they did not lead
    std::uint64_t max_batches_per_fsync = 0;
  };

  // `coalesce_window`: how long a would-be flush leader lingers for more batches
  // before issuing its covering fsync. The window re-arms while traffic keeps
  // arriving and closes on the first quiet interval, so under load one sync commits
  // every pipeline's batch, while a solo committer pays at most one idle window.
  // Zero disables the linger (the leader still defers to mid-append batches).
  explicit CrossShardCoalescer(
      LogWriter* log,
      std::chrono::microseconds coalesce_window = std::chrono::microseconds(50))
      : log_(log), coalesce_window_(coalesce_window) {}
  CrossShardCoalescer(const CrossShardCoalescer&) = delete;
  CrossShardCoalescer& operator=(const CrossShardCoalescer&) = delete;

  // Appends the batch's framed records as one contiguous write and returns the
  // ticket AwaitDurable needs. Blocks while the log is frozen or an fsync is in
  // flight (the append itself is a buffered write — cheap next to the fsync).
  Result<std::uint64_t> AppendBatch(std::span<const ByteSpan> payloads);

  // Blocks until a covering fsync succeeds (returns the number of physical fsyncs
  // this caller issued: 1 if it led, 0 if it rode) or the covering attempt fails
  // (returns that error; the records are possibly durable).
  Result<std::uint64_t> AwaitDurable(std::uint64_t ticket);

  // Quiesces the pipeline for a log rotation: appends and fsyncs block until
  // Unfreeze. Returns with no fsync in flight. Not reentrant.
  void Freeze();
  void Unfreeze();

  // Fail-stops the pipeline: every subsequent AppendBatch (and any AwaitDurable not
  // already covered) returns kInternal. Used when an aborted log rotation leaves the
  // manifest and the live writer possibly naming different files — committing more
  // batches could acknowledge updates recovery would replay from the wrong log.
  void Poison();

  // Only meaningful between Freeze and Unfreeze.
  void set_log(LogWriter* log);

  std::uint64_t log_bytes() const;
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  LogWriter* log_;
  std::chrono::microseconds coalesce_window_;
  bool frozen_ = false;
  bool poisoned_ = false;
  // Shard pipelines that have entered AppendBatch but not yet appended. A would-be
  // flush leader defers its fsync while this doorway is occupied, so one covering
  // sync picks up every batch already racing toward the log instead of each batch
  // paying a private sync because the leader beat it to the mutex. Atomic because
  // it is incremented before mu_ is taken; every decrement happens under mu_ and
  // notifies, so a deferring leader always re-checks.
  std::atomic<std::uint64_t> arriving_{0};
  std::uint64_t appended_seq_ = 0;  // tickets issued (one per appended batch)
  std::uint64_t durable_seq_ = 0;   // highest ticket covered by a successful fsync
  Stats stats_;
};

// Per-batch phase timing (also the shape of DatabaseStats::last_update; with the
// pipeline enabled it describes the last *batch*).
struct UpdateBreakdown {
  Micros prepare_micros = 0;  // precondition checks + pickling, under the update lock
  Micros log_micros = 0;      // the batch disk write + fsync (the commit), no lock held
  Micros apply_micros = 0;    // exclusive-mode in-memory modification
  Micros total_micros = 0;
};

// What the committer needs from the Database. All methods are called on a leader
// thread under the locking regime stated for each.
class GroupCommitHost {
 public:
  virtual ~GroupCommitHost() = default;

  // Called under the update lock before a batch's prepares: bump the commit epoch and
  // return its new value (stamped into the batch's trace event), or refuse the batch
  // (poisoned database) by returning non-OK.
  virtual Result<std::uint64_t> BatchBegin() = 0;

  // Called under the exclusive lock for each durable record, in log order.
  virtual Status BatchApply(ByteSpan record) = 0;

  // Called under the exclusive lock when BatchApply failed: memory and log have
  // diverged; the database must fail closed until reopened.
  virtual void BatchPoisoned(const Status& cause) = 0;

  // Called with no lock held after a batch commits, with the phase breakdown.
  virtual void BatchCommitted(const UpdateBreakdown& breakdown) = 0;
};

class GroupCommitter {
 public:
  using PrepareFn = std::function<Result<Bytes>()>;

  // `sink` is where sealed batches go to become durable; the committer uses it only
  // inside a batch, so its underlying log may be swapped (LogWriterSink::set_log)
  // whenever the pipeline is paused (checkpoint switch). `stage_metrics` is the
  // owning database's per-stage aggregation (histograms + optional trace ring); the
  // committer records one CommitTrace per committed batch.
  GroupCommitter(SueLock& lock, Clock& clock, GroupCommitHost& host, CommitSink* sink,
                 UpdateCounters* counters, obs::CommitStageMetrics stage_metrics,
                 GroupCommitOptions options);

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Submits one request (one or more prepares, all-or-nothing at prepare time) and
  // blocks until it is durable and applied, or failed. Returns the request's outcome:
  // the prepare's own error, the disk error that aborted the commit, or kInternal if
  // the database was poisoned before/while applying.
  Status Submit(std::span<const PrepareFn> prepares);

  // The transport-side batch ingest hook: submits N *independent* single-prepare
  // requests — decoded updates from many client connections, carried by one server
  // thread — enqueued under one lock acquisition so a single seal catches them all
  // and one fsync covers every socket's request. Unlike Submit's all-or-nothing
  // span, each request succeeds or fails on its own; the returned statuses are in
  // input order. Blocks until every request is durable and applied, or failed.
  std::vector<Status> SubmitMany(std::span<const PrepareFn> prepares);

  // Quiesces the pipeline: returns once no batch is in flight, and prevents new
  // batches from starting until Resume(). Queued requests simply wait. Used by
  // checkpoint/state-replacement so the log is never switched under an in-flight
  // batch (records already fsynced into the old log must be applied and acknowledged
  // before the log is reset). Not reentrant.
  void Pause();
  void Resume();

  GroupCommitStats stats() const;

 private:
  struct Request {
    explicit Request(std::span<const PrepareFn> p) : prepares(p) {}
    std::span<const PrepareFn> prepares;
    std::vector<Bytes> records;  // filled by the leader's prepare phase
    Status status;
    bool prepared_ok = false;  // part of the batch write set
    bool done = false;
    bool rode_along = false;  // completed by a leader other than itself
    Micros enqueued_micros = 0;   // stamp at Submit (queue-wait stage), obs only
    Micros completed_micros = 0;  // stamp when the leader publishes done (ack stage)
  };

  // Seals `queue_` (up to max_batch_records) into a batch and runs it to completion.
  // Called with `lock` held; releases it for the batch's duration and reacquires it
  // to publish completion.
  void LeadBatch(std::unique_lock<std::mutex>& lock, Request& self);
  void RunBatch(const std::vector<Request*>& batch, Micros queue_wait_max);

  SueLock& lock_;
  Clock& clock_;
  GroupCommitHost& host_;
  UpdateCounters* counters_;
  obs::CommitStageMetrics stage_metrics_;
  const GroupCommitOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request*> queue_;
  CommitSink* sink_;
  bool batch_in_progress_ = false;
  bool paused_ = false;
  GroupCommitStats stats_;
};

// Pauses a pipeline for the guard's scope. Take it BEFORE the update lock: an
// in-flight batch needs that lock to finish, so pausing after acquiring it would
// deadlock.
class PipelinePause {
 public:
  explicit PipelinePause(GroupCommitter& committer) : committer_(committer) {
    committer_.Pause();
  }
  ~PipelinePause() { committer_.Resume(); }
  PipelinePause(const PipelinePause&) = delete;
  PipelinePause& operator=(const PipelinePause&) = delete;

 private:
  GroupCommitter& committer_;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_GROUP_COMMIT_H_
