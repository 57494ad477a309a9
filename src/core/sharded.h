// ShardedDatabase: the engine that composes the paper's two Section 7 sketches.
//
// "It seems likely that many larger databases ... could be handled by considering them
// as multiple separate databases for the purpose of writing checkpoints. In that case,
// we could either use multiple log files or a single log file with more complicated
// rules for flushing the log."
//
// PartitionedDatabase is the first option (independent engines, per-partition
// logs). This engine is the second — one log, with the flushing rule below — at full
// concurrency:
//
//   - N shards, each an EngineUnit (engine_unit.h) — application state, SueLock,
//     group-commit pipeline, metrics registry, commit epoch, poison flag, checkpoint
//     chain and slot — the same unit a Database is built on. A key router
//     (consistent hashing; shard count fixed at open) assigns every key a home
//     shard, so shard-local operations never touch another shard's lock.
//   - ONE shared physical log. Each shard's batches are framed with a varint shard
//     id and appended through the CrossShardCoalescer (group_commit.h): batch
//     leaders from many shards append concurrently, and a single elected flush
//     leader issues one fsync covering all of them. N shards multiply throughput
//     without multiplying disk syncs — aggregate fsyncs/update stays well below 1.
//   - Each shard checkpoints independently (its checkpoint records the shared-log
//     offset it is current to), CheckpointAll staggers the per-shard snapshot stalls
//     so at most one shard is stalled at an instant, and the shared log rotates only
//     when every shard has checkpointed past its end — the paper's "more complicated
//     rules for flushing the log". The slowest-checkpointing shard gates reclamation.
//   - A `manifest` file, replaced by atomic rename, binds the ensemble together: the
//     live log generation and, per shard, its checkpoint chain and replay-from
//     offset. Its rename is every checkpoint's, compaction's and rotation's commit
//     point. A shard's checkpoints, delta chain and compaction run in its unit
//     exactly as Database's do; only the rotate step (reading the (generation,
//     offset) instant) and this publish step are the ensemble's own.
//   - Restart opens shards in parallel on a small thread pool: per-shard checkpoint
//     loads, then one pass over the shared log bucketing entries per shard, then
//     per-shard replay — shards are independent recovery units.
//
// Cross-shard reads: EnquireAll holds every shard's shared lock at once (acquired in
// index order), giving callers a consistent multi-shard snapshot to merge-iterate
// over; ShardedNameServer builds its globally-ordered Enumerate on top of it.
// Cross-shard transactions are out of scope, exactly as multi-step transactions are
// out of scope for the paper.
#ifndef SMALLDB_SRC_CORE_SHARDED_H_
#define SMALLDB_SRC_CORE_SHARDED_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine_unit.h"
#include "src/core/log_writer.h"

namespace sdb {

// Consistent-hash key router: each shard owns `vnodes_per_shard` pseudo-random
// points on a 64-bit ring; a key routes to the shard owning the first point at or
// after the key's hash. The shard count is fixed at open, so plain modulo would
// work today — the ring exists so a future elastic engine can move vnode spans
// between shards without rehashing every key, and so that related keys spread
// instead of clustering by insertion order. Deterministic across processes (FNV-1a,
// no seeding): the same key routes to the same shard on every open.
class ShardRouter {
 public:
  ShardRouter(std::size_t shards, std::size_t vnodes_per_shard);

  std::size_t shard_count() const { return shards_; }
  std::size_t Route(std::string_view key) const;

  static std::uint64_t HashKey(std::string_view key);  // FNV-1a 64 + fmix64 finalizer

 private:
  std::size_t shards_;
  // Sorted ring points: (hash, shard).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

struct ShardedOptions {
  Vfs* vfs = nullptr;
  std::string dir;
  Clock* clock = nullptr;

  LogWriterOptions log_writer;
  std::size_t log_replay_page_size = 512;

  // Per-shard commit pipelines (always on: the sharded engine IS the group-commit
  // composition). max_batch_records applies per shard.
  GroupCommitOptions group_commit;

  // Rotate the shared log automatically inside Checkpoint() when the rotation rule
  // allows and the log exceeds this size (0 = only rotate explicitly).
  std::uint64_t rotate_log_bytes = 0;

  // Restart worker-pool bound, used twice: checkpoint loads run per-shard on it,
  // and shared-log replay dispatches (shard, key-batch) apply tasks onto ONE pool
  // of this size (src/core/parallel_replay.h) — so within-shard parallelism
  // composes with across-shard parallelism instead of competing for threads, and
  // one hot shard no longer bounds recovery time. 1 = fully sequential — required
  // under the deterministic sim harness, where parallel disk reads would permute
  // SimDisk op ordinals.
  int recovery_threads = 4;

  // Ring points per shard for the consistent-hash router.
  std::size_t vnodes_per_shard = 64;

  // Incremental (delta) checkpoints, per shard: when the shard app supports
  // CaptureDeltaSnapshot, Checkpoint(p) writes p<p>.delta<v> composing over the
  // shard's base checkpoint, and the chain is recorded in the ensemble manifest.
  // As in Database, the checkpoint that crosses a threshold compacts the chain
  // before it returns.
  DeltaCheckpointOptions delta_checkpoint;
};

struct ShardedStats {
  std::uint64_t updates = 0;
  std::uint64_t enquiries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t delta_checkpoints = 0;  // checkpoints written as delta levels
  std::uint64_t compactions = 0;        // chains collapsed back into full bases
  std::uint64_t log_rotations = 0;
  std::uint64_t replayed_entries = 0;
  std::uint64_t replay_skipped_entries = 0;
  std::uint64_t replay_batches = 0;       // (shard, key-batch) tasks last restart
  std::uint64_t replay_threads_used = 0;  // pool width the replay actually used

  // The coalescer's truth, not a per-shard sum (satellite of ISSUE 6: summing
  // per-shard fsync counters would overstate physical syncs under coalescing —
  // though with SyncRecords() accounting the sum now matches this exactly).
  std::uint64_t covering_fsyncs = 0;
  std::uint64_t batches_coalesced = 0;
  std::uint64_t max_batches_per_fsync = 0;

  // Physical fsyncs per acknowledged update: the headline number. « 1 under
  // concurrent writers (one covering fsync serves batches from many shards).
  double fsyncs_per_update() const {
    return updates == 0 ? 0.0
                        : static_cast<double>(covering_fsyncs) / static_cast<double>(updates);
  }
};

class ShardedDatabase {
 public:
  // Opens the ensemble: `apps[p]` is shard p's application (not owned; must outlive
  // the database). The shard count is fixed at creation and must match on reopen.
  static Result<std::unique_ptr<ShardedDatabase>> Open(std::vector<Application*> apps,
                                                       ShardedOptions options);

  ~ShardedDatabase();
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }
  std::size_t ShardForKey(std::string_view key) const { return router_.Route(key); }

  // The paper's three-step update against shard p, through p's group-commit
  // pipeline; the commit point is a coalescer fsync covering p's batch.
  Status Update(std::size_t p, const std::function<Result<Bytes>()>& prepare);
  Status UpdateKey(std::string_view key, const std::function<Result<Bytes>()>& prepare);

  // Enquiry under shard p's shared lock (never blocked by other shards).
  Status Enquire(std::size_t p, const std::function<Status()>& enquiry);
  Status EnquireKey(std::string_view key, const std::function<Status()>& enquiry);

  // Runs `enquiry` with EVERY shard's shared lock held (acquired in index order):
  // a consistent cross-shard read instant for merge-iteration (Enumerate/Export).
  Status EnquireAll(const std::function<Status()>& enquiry);

  // Checkpoints shard p only. Phase A (the stall): p's pipeline paused + update
  // lock held just long enough to capture a consistent snapshot and record the
  // shared-log offset p is current to. Phase B (no engine lock): serialize, write
  // the checkpoint file, commit via the manifest rename, and compact the chain when
  // the new delta crossed a threshold. Other shards' updates proceed throughout.
  // Afterwards applies the rotation rule if rotate_log_bytes is configured.
  Status Checkpoint(std::size_t p);

  // Checkpoints every shard with the stalls staggered: shard p+1's Phase A runs
  // while shard p's Phase B persists on p's background thread, so at most one shard
  // is snapshotting (stalled) at any instant but the disk work still overlaps. The
  // persists reach the disk one at a time, in shard order.
  Status CheckpointAll();

  // Rotates the shared log iff every shard has checkpointed past its end (the
  // flushing rule). Freezes the coalescer for the swap. Returns true on rotation.
  Result<bool> MaybeRotateLog();

  std::uint64_t log_bytes() const;
  std::uint64_t log_generation() const;
  // Bytes below the slowest shard's replay-from offset — reclaimed by rotation.
  std::uint64_t reclaimable_log_bytes() const;

  ShardedStats stats() const;
  GroupCommitStats shard_commit_stats(std::size_t p) const;
  CrossShardCoalescer::Stats coalescer_stats() const;

  // --- observability ---

  // The ensemble registry: roll-up target for per-shard metrics. RollUpMetrics
  // refreshes `shard.<p>.*` gauges plus the aggregated commit.* gauges (notably
  // commit.fsyncs_per_update_ppm: parts-per-million so the « 1 ratio survives the
  // integer gauge). MetricsReportJson = RollUpMetrics + dump.
  obs::Registry& metrics() { return registry_; }
  obs::Registry& shard_metrics(std::size_t p);
  void RollUpMetrics();
  std::string MetricsReportJson();

 private:
  // Frames a shard's batch with its varint shard id and makes it durable through
  // the coalescer. One instance per shard, used only by that shard's (sequential)
  // batch leaders, so the ticket handoff between AppendRecords and SyncRecords
  // needs no synchronization.
  class ShardSink final : public CommitSink {
   public:
    void Init(CrossShardCoalescer* coalescer, std::size_t shard) {
      coalescer_ = coalescer;
      shard_ = shard;
    }

    Status AppendRecords(std::span<const ByteSpan> payloads) override;
    Result<std::uint64_t> SyncRecords() override;
    std::uint64_t log_bytes() const override { return coalescer_->log_bytes(); }

   private:
    CrossShardCoalescer* coalescer_ = nullptr;
    std::size_t shard_ = 0;
    std::uint64_t ticket_ = 0;
    std::vector<Bytes> framed_;      // reused batch scratch
    std::vector<ByteSpan> spans_;
  };

  // The ensemble's part of one shard: its slice of the shared log and the two
  // checkpoint steps its EngineUnit asks of it. Everything else is the unit.
  struct Shard final : ChainLayout {
    ShardedDatabase* db = nullptr;
    std::size_t index = 0;
    ShardSink sink;
    // Guarded by the ensemble's manifest_mu_ (except during single-threaded Open):
    // what the manifest records for this shard. `published` leads the unit's chain
    // only while a publish is returning to the unit.
    std::uint64_t replay_from = 0;  // shared-log offset this shard is current to
    DeltaChain published;           // p<p>.checkpoint<base> + p<p>.delta<v>...
    std::unique_ptr<EngineUnit> unit;

    std::string CheckpointPath(std::uint64_t version) const override;
    std::string DeltaPath(std::uint64_t version) const override;
    // Records the (generation, offset) instant the snapshot is current to.
    Status RotateForCheckpoint(CheckpointRotation& rotation) override;
    // The manifest rename, raising replay_from to the snapshot's offset unless a
    // log rotation reset it in between.
    PublishOutcome Publish(const CheckpointRotation* rotation, const ChainState& prev,
                           const ChainState& next, Status& error) override;
  };

  struct Manifest;  // defined in the .cc: the pickled on-disk record

  ShardedDatabase(std::size_t shards, ShardedOptions options);

  std::string LogPath(std::uint64_t generation) const;
  std::string ManifestPath() const;

  Status Recover(std::vector<Application*>& apps);
  Status ReplayShardedLog();
  // Runs fn(p) for every shard on up to options_.recovery_threads threads
  // (sequential when 1); returns the first failure by shard index.
  Status ForEachShardParallel(const std::function<Status(std::size_t)>& fn);
  Status WriteManifestLocked();  // caller holds manifest_mu_
  // The rotation rule, applied after a checkpoint when rotate_log_bytes is set.
  Status MaybeRotateFullLog();

  ShardedOptions options_;
  WallClock wall_clock_;
  Clock* clock_;
  ShardRouter router_;

  // Ensemble registry (roll-up target).
  obs::Registry registry_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<LogWriter> log_;
  std::unique_ptr<CrossShardCoalescer> coalescer_;

  // Guards the manifest (generation, each shard's replay_from and published chain)
  // and its on-disk commit. Lock order: manifest_mu_ THEN coalescer Freeze — never the
  // reverse (AwaitDurable holds the coalescer mutex and never takes manifest_mu_).
  mutable std::mutex manifest_mu_;
  std::uint64_t log_generation_ = 1;

  // Serializes CheckpointAll runs (individual Checkpoint(p) calls only contend on
  // their shard's checkpoint slot).
  std::mutex checkpoint_all_mu_;

  mutable std::mutex stats_mutex_;
  ShardedStats stats_;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_SHARDED_H_
