// Database: the paper's design in one engine.
//
// "At all times the database is represented as an ordinary data structure in virtual
// memory. Its counterpart on disk has two components: a checkpoint of some previous
// (consistent) state of the entire database, and a log recording each subsequent
// update." (Section 3)
//
//   - A read access is purely a lookup in the virtual memory structure (Enquire).
//   - An update is made in three steps: verify preconditions against the in-memory
//     state, record the update's parameters as a log entry on disk (the commit point),
//     then apply the update to the in-memory state (Update).
//   - From time to time the entire state is checkpointed and the log reset
//     (Checkpoint; also automatic via CheckpointPolicy).
//   - Restart = load checkpoint, replay log (Open).
//
// Every update commits through the group-commit pipeline (GroupCommitter), the
// engine's one commit path: N simultaneous Update() callers share one log disk write
// and one fsync, and the fsync happens with no lock held — enquiries are never
// excluded during disk transfers (Section 3's rule), and updaters queue in the
// pipeline instead of on the update lock. group_commit.max_batch_records = 1 gives
// the paper's one fsync per update.
//
// The engine is application-agnostic: the Application interface (engine_unit.h)
// supplies state (de)serialization and update application. Everything per
// application — locking, the commit pipeline, checkpoint persist and compaction —
// is one EngineUnit; this class adds the paper's files: the log generations, the
// version-file switch and recovery.
#ifndef SMALLDB_SRC_CORE_DATABASE_H_
#define SMALLDB_SRC_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/cost_model.h"
#include "src/core/engine_unit.h"
#include "src/core/log_reader.h"
#include "src/core/log_writer.h"

namespace sdb {

// When to take an automatic checkpoint (checked after each update). All triggers are
// OR-ed; zero disables a trigger. Default: manual checkpoints only — the paper's
// recommendation for its target workloads is a single nightly checkpoint.
struct CheckpointPolicy {
  std::uint64_t every_n_updates = 0;
  std::uint64_t log_bytes_threshold = 0;
  Micros interval_micros = 0;
};

struct DatabaseOptions {
  Vfs* vfs = nullptr;
  std::string dir;

  // Clock used for phase timing and the interval checkpoint policy. If null, a
  // process-wide WallClock is used.
  Clock* clock = nullptr;

  // Simulated-cost charging (passed through to benchmark Applications via their own
  // construction; the engine itself charges nothing).
  CheckpointPolicy checkpoint_policy;

  // Retain one previous checkpoint generation for hard-error recovery (Section 4).
  bool keep_previous_checkpoint = false;

  // Keep superseded logs as an audit trail (renamed to audit<N>; Section 4). Read them
  // back with ReadAuditTrail (src/core/audit.h) via version_store().AuditPath(n).
  bool retain_logs_for_audit = false;

  // Recovery behaviour.
  bool skip_damaged_log_entries = false;   // hard-error mode: ignore damaged entries
  bool fallback_to_previous_checkpoint = false;  // hard-error mode: use version N-1

  // Cross-thread group commit (Section 5): every update commits through it.
  GroupCommitOptions group_commit;

  LogWriterOptions log_writer;
  std::size_t log_replay_page_size = 512;

  // Restart replay worker pool (src/core/parallel_replay.h). 1 = the paper's serial
  // replay, entry by entry in log order — also the deterministic mode the sim
  // harness's sharded runs require. > 1 partitions the log into key-disjoint
  // batches applied on up to this many threads; the recovered state is byte-
  // identical to serial replay (tests/parallel_recovery_test.cc proves it).
  // Applications that do not override the replay-batch hooks replay serially
  // regardless.
  int recovery_threads = 1;

  // Capacity of the per-commit trace ring buffer (DumpTrace). 0 disables raw trace
  // capture; per-stage histograms keep aggregating either way.
  std::size_t trace_ring_capacity = 256;

  // Concurrent checkpointing: the update lock is held only for the snapshot-and-log-
  // rotate step; the checkpoint bytes are produced and persisted with updates running
  // (automatic checkpoints persist on a background thread, Checkpoint() persists on
  // the calling thread but without the lock). When false, the paper's original
  // behaviour — the lock is held across the whole serialize + write + switch — which
  // is the benchmark baseline and an escape hatch.
  bool concurrent_checkpoint = true;

  // Incremental checkpoints (delta chains, compacted by the checkpoint that grows
  // them past a threshold).
  DeltaCheckpointOptions delta_checkpoint;
};

struct RestartBreakdown {
  Micros checkpoint_read_micros = 0;
  // Wall-clock elapsed across the whole replay phase (partition pass + batch apply
  // + merge). NOT a per-worker sum: under parallel replay, summed worker time would
  // overstate elapsed time by up to the thread count — that aggregate is
  // replay_cpu_micros below.
  Micros replay_micros = 0;
  // Aggregate replay work: the sequential partition pass plus apply time summed
  // across all workers. Equals replay_micros under serial replay; exceeds it when
  // parallel replay achieves real overlap (the ratio is the effective speedup).
  Micros replay_cpu_micros = 0;
  std::uint64_t replay_batches = 0;       // key-batches dispatched (0 = serial)
  std::uint64_t replay_threads_used = 0;  // workers the replay actually ran on
  Micros partition_pass_micros = 0;       // sequential pass: read + key partition
  Micros batch_apply_micros = 0;          // worker apply time, summed (CPU aggregate)
  std::uint64_t entries_replayed = 0;
  bool partial_tail_discarded = false;
  std::uint64_t entries_skipped = 0;
  bool used_previous_checkpoint = false;
  bool finished_interrupted_switch = false;
  // Rotated logs beyond the checkpoint's generation replayed because a concurrent
  // checkpoint was still pending at crash time (dual-log resolution).
  std::uint64_t pending_logs_replayed = 0;
};

// Compatibility view over the database's metrics registry: every counter below is
// backed by a registry metric (see Database::metrics()); stats() snapshots them into
// this struct so existing callers keep working. New code should prefer the registry.
struct DatabaseStats {
  std::uint64_t enquiries = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_precondition_failures = 0;
  std::uint64_t update_commit_failures = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t auto_checkpoints = 0;
  std::uint64_t log_entries_since_checkpoint = 0;

  UpdateBreakdown last_update;
  CheckpointBreakdown last_checkpoint;
  RestartBreakdown restart;
  GroupCommitStats group_commit;
};

class Database : private ChainLayout {
 public:
  // Opens (or creates) the database in options.dir, recovering state into `app`:
  // determine the current version, load its checkpoint, replay its log. The
  // application must outlive the database.
  static Result<std::unique_ptr<Database>> Open(Application& app, DatabaseOptions options);

  // Opens an existing database for reading only: the current state is recovered into
  // `app` with zero side effects on the directory (no fresh-init, no cleanup, no log
  // writer, interrupted switches left for the next writable open). Update, Checkpoint
  // and ReplaceState fail with kFailedPrecondition. Useful for inspection, reporting
  // and backups of a quiescent database.
  static Result<std::unique_ptr<Database>> OpenReadOnly(Application& app,
                                                        DatabaseOptions options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Runs `enquiry` under the shared lock. The callback reads the in-memory state
  // through the application; the disk is never involved.
  Status Enquire(const std::function<Status()>& enquiry);

  // Executes one update. `prepare` runs under the update lock: it verifies the
  // update's preconditions against the in-memory state and, if they hold, returns the
  // pickled update record (gathering "all the parameters of the update"). The engine
  // then appends the record to the log and forces it to disk — the commit point —
  // upgrades to exclusive, and applies the record through the application.
  //
  // Concurrent callers' records share one log write and one fsync; this never
  // weakens the contract below — Update returns OK only after this update's record
  // is durable and applied, in log order.
  //
  // If `prepare` fails, nothing is logged and the state is untouched. If the disk
  // write fails, the update is not applied (and will not be visible after restart).
  // If ApplyUpdate fails after a successful commit, the in-memory state can no longer
  // be trusted to match the log: the database becomes poisoned and every subsequent
  // operation fails with kInternal until reopened.
  Status Update(const std::function<Result<Bytes>()>& prepare);

  // Group commit (Section 5): several updates share one log disk write. Prepares run
  // in order under the update lock; if any fails, the whole batch aborts unlogged.
  Status UpdateBatch(const std::vector<std::function<Result<Bytes>()>>& prepares);

  // Batch ingest: N *independent* updates — decoded requests from many client
  // connections, carried into the engine by one transport thread — entering the
  // commit pipeline together so one fsync covers all of them. Unlike UpdateBatch,
  // each update succeeds or fails on its own (statuses returned in input order): a
  // precondition failure drops only that update from the sealed batch.
  std::vector<Status> UpdateMany(
      const std::vector<std::function<Result<Bytes>()>>& prepares);

  // Writes a checkpoint of the current state and resets the log. With
  // concurrent_checkpoint (the default) the update lock is held only while a
  // consistent snapshot is captured and the log is rotated to the next generation;
  // the checkpoint bytes are produced and persisted afterwards with updates
  // committing to the already-rotated log (a durable `pending` marker makes the
  // rotated log recoverable before the checkpoint exists). With it off, the paper's
  // rule applies verbatim: "An update lock is held while writing a checkpoint" —
  // enquiries proceed, updates wait for the whole write. Either way the commit
  // pipeline is quiesced around the rotation so the log is never switched under an
  // in-flight batch, and this call returns only after the checkpoint is durable (or
  // failed) — and, when the delta it wrote grew the chain past a compaction
  // threshold, after the chain is compacted. At most one checkpoint runs at a time;
  // callers queue.
  Status Checkpoint();

  // Replaces the entire in-memory state and immediately checkpoints it, discarding the
  // old log. This is the hard-error recovery path ("We respond to a hard error on a
  // particular name server replica by restoring its data from another replica") and it
  // also heals a poisoned database.
  Status ReplaceState(ByteSpan state);

  std::uint64_t current_version() const;
  // The log generation updates are committing to: current_version() normally, one
  // (or more, after failed persists) ahead while a checkpoint rotation is pending.
  std::uint64_t live_log_version() const;
  // Snapshot of the live delta chain: base == current_version() with no deltas
  // when the current checkpoint is self-contained.
  DeltaChain delta_chain() const;
  std::uint64_t log_bytes() const;
  DatabaseStats stats() const;

  // --- observability ---

  // This database's metrics registry: commit-stage histograms
  // ("commit.stage.<lock_wait|queue_wait|prepare|append|fsync|excl_wait|apply|ack>_us"),
  // commit totals, checkpoint phase histograms, and the db.* counters DatabaseStats
  // mirrors. Process-wide subsystem metrics (vfs.*, rpc.*, heap.*, pickle.*) live in
  // obs::GlobalRegistry().
  obs::Registry& metrics() { return unit_->registry(); }

  // Human-readable report: every metric in this database's registry, one line each,
  // histograms as count/mean/p50/p95/p99/max. The per-stage commit breakdown is the
  // reproduction's answer to the paper's measured-cost table.
  std::string MetricsReport() const;

  // The same data as JSON: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string MetricsReportJson() const;

  // The most recent per-commit trace events (oldest first), each a full per-stage
  // timing breakdown of one commit batch.
  std::vector<obs::CommitTrace> DumpTrace() const;

  // Monotone counter bumped at the start of every commit batch (and every checkpoint
  // rotation). Applications whose prepares derive values from in-memory
  // state that the same batch will modify (e.g. replication sequence numbers) compare
  // this across prepares to detect "the state I read has pending, not-yet-applied
  // records in front of it"; see NameServer::SyncReservations.
  std::uint64_t commit_epoch() const { return unit_->commit_epoch(); }

  // Snapshot of the live log writer's counters (entries, fsyncs, bytes). Meaningful
  // only while no update is in flight; benchmarks read it after joining workers.
  LogWriterStats log_writer_stats() const;

  const std::string& dir() const { return options_.dir; }
  VersionStore& version_store() { return version_store_; }

 private:
  Database(Application& app, DatabaseOptions options);

  Status Recover();
  Status InitFreshDatabase();
  Status LoadCheckpointAndReplay(const VersionState& state);
  void MaybeAutoCheckpoint();
  bool AutoCheckpointDue() const;

  // ChainLayout: the paper's files. The rotate step durably creates log generation
  // `target` with a `pending` marker and swaps the live writer; the publish step is
  // the version switch, with a delta's manifest published before it and rolled back
  // before the unit deletes the delta file.
  std::string CheckpointPath(std::uint64_t version) const override;
  std::string DeltaPath(std::uint64_t version) const override;
  Status RotateForCheckpoint(CheckpointRotation& rotation) override;
  PublishOutcome Publish(const CheckpointRotation* rotation, const ChainState& prev,
                         const ChainState& next, Status& error) override;

  DatabaseOptions options_;
  WallClock wall_clock_;
  Clock* clock_;  // options_.clock or &wall_clock_
  VersionStore version_store_;

  // The following are mutated only while holding the update lock (or in Open), with
  // the pipeline paused where the live log is swapped.
  std::unique_ptr<LogWriter> log_;
  // The committer's durability sink: a private fsync per batch over log_. Retargeted
  // (set_log) alongside log_ swaps, under the same pipeline pause.
  LogWriterSink log_sink_;
  std::atomic<std::uint64_t> version_{0};  // atomic: read lock-free by observers
  // The log generation updates commit to. Equals version_ except between a
  // checkpoint's rotation (Phase A) and its switch commit (Phase B).
  std::atomic<std::uint64_t> live_log_version_{0};
  bool read_only_ = false;
  std::atomic<Micros> last_checkpoint_time_{0};
  RestartBreakdown restart_;  // written only during Open

  // The application's unit: lock, pipeline, registry, chain and checkpoint slot.
  std::unique_ptr<EngineUnit> unit_;
  obs::Counter* auto_checkpoints_ = nullptr;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_DATABASE_H_
