// EngineUnit: one application's share of an engine. A Database is one unit over the
// paper's files; a ShardedDatabase holds one unit per shard over the ensemble's files.
//
// The unit owns the per-application machinery both engines need: the application,
// its SueLock, the group-commit pipeline and the GroupCommitHost callbacks it drives,
// the metrics registry, the commit epoch, the poison flag, the checkpoint chain, and
// the single-flight checkpoint slot with its background persist thread. It runs every
// checkpoint through one skeleton:
//
//   acquire the slot -> pause the pipeline -> take the update lock -> capture the
//   snapshot -> the engine's rotate step -> release the lock -> persist the full or
//   delta file -> the engine's publish step -> (compact) -> release the slot.
//
// Compaction (compose, write, sync, publish, reclaim) runs right after the delta
// persist that crossed the threshold, on the thread that ran that persist, holding
// the slot but never the update lock.
//
// An engine supplies only a ChainLayout: where the files live, its rotate step and
// its publish step. Everything that differs between the paper's version-file switch
// and the ensemble's manifest rename lives there; the unit never asks which engine
// owns it.
#ifndef SMALLDB_SRC_CORE_ENGINE_UNIT_H_
#define SMALLDB_SRC_CORE_ENGINE_UNIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/group_commit.h"
#include "src/core/sue_lock.h"
#include "src/core/version_store.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/vfs.h"

namespace sdb {

// What the application supplies. All calls are made with appropriate engine locking:
// SerializeState under at least update mode (state cannot change underneath it),
// ApplyUpdate under exclusive mode (or during single-threaded recovery), the rest
// during Open only.
class Application {
 public:
  virtual ~Application() = default;

  // Resets the in-memory state to the initial (empty) database.
  virtual Status ResetState() = 0;

  // Converts the entire in-memory state to checkpoint bytes (PickleWrite of the root).
  virtual Result<Bytes> SerializeState() = 0;

  // Replaces the in-memory state from checkpoint bytes (PickleRead).
  virtual Status DeserializeState(ByteSpan data) = 0;

  // Applies one logged update record to the in-memory state. Called both for live
  // updates (after their log entry committed) and during restart replay. Must be
  // deterministic and must succeed for any record that passed its precondition check;
  // a failure here poisons the database (see Database::Update).
  virtual Status ApplyUpdate(ByteSpan record) = 0;

  // --- parallel replay (optional; see src/core/parallel_replay.h) ---
  //
  // A REDO-only log admits key-partitioned parallel replay: entries touching
  // different keys commute, so restart can apply key-disjoint batches on multiple
  // cores and still land on the exact serial-replay state. An application opts in
  // by overriding the three hooks below; the defaults keep replay fully serial.

  // A private apply context for one key-batch. Workers call Apply concurrently on
  // DIFFERENT contexts (never the live state); each context sees its batch's
  // records in log order. Implementations accumulate effects locally — typically a
  // key -> last-effect map — for MergeReplayBatch to fold in later.
  class ReplayBatch {
   public:
    virtual ~ReplayBatch() = default;
    virtual Status Apply(ByteSpan record) = 0;
  };

  // Extracts the logged update's target key into *key. Returning false declares
  // the record's footprint unknown; the replayer then applies this application's
  // whole stream in log order (correct for any record mix, just not parallel).
  virtual bool ReplayKeyOf(ByteSpan record, std::string* key) {
    (void)record;
    (void)key;
    return false;
  }

  // Creates an empty per-batch context. Null (the default) means the application
  // does not support batched replay.
  virtual std::unique_ptr<ReplayBatch> StartReplayBatch() { return nullptr; }

  // Folds one batch's effects into the live state. Called single-threaded, only
  // after every batch of the replay applied cleanly (fail-stop: a failed replay
  // merges nothing). Batches are key-disjoint, so merge order cannot matter.
  virtual Status MergeReplayBatch(ReplayBatch& batch) {
    (void)batch;
    return UnimplementedError("application does not support batched replay");
  }

  // Captures a consistent snapshot under the update lock and returns a closure that
  // produces the checkpoint bytes later, with no engine lock held (the concurrent
  // checkpoint's background phase). The default captures eagerly: it serializes the
  // whole state up front — a memory-speed stall with no disk I/O under the lock — and
  // the closure just hands the bytes over. Applications with cheaper consistent-
  // snapshot machinery (copy-on-write structures, frozen delta layers) override this
  // so the stall is O(recent changes) instead of O(database). The closure is invoked
  // at most once, possibly from a background thread; it must not touch engine state.
  virtual Result<std::function<Result<Bytes>()>> CaptureSnapshot() {
    SDB_ASSIGN_OR_RETURN(Bytes snapshot, SerializeState());
    auto holder = std::make_shared<Bytes>(std::move(snapshot));
    return std::function<Result<Bytes>()>(
        [holder]() -> Result<Bytes> { return std::move(*holder); });
  }

  // --- incremental (delta) checkpoints (optional; see DESIGN.md delta chains) ---
  //
  // An application that tracks which objects changed since the last capture can make
  // checkpoints O(churn): CaptureDeltaSnapshot stages just the dirty window and the
  // engine writes it as a delta composing over the previous checkpoint chain. The
  // dirty-tracking contract:
  //   - ApplyUpdate AND MergeReplayBatch mark touched objects dirty (replay at
  //     recovery must repopulate the window: the first post-restart delta covers
  //     exactly the log entries replayed on top of the chain).
  //   - DeserializeState clears the tracking (the loaded state is chain-covered).
  //   - A full CaptureSnapshot leaves the window untouched — a later delta may then
  //     be a superset of the churn, which is harmless (re-captured objects carry
  //     their current values; deletions are idempotent tombstones).
  // Commit/Abandon may run on a background persist thread concurrently with
  // ApplyUpdate, so implementations guard their dirty structures with a small mutex.

  struct DeltaSnapshot {
    Bytes bytes;
    std::uint64_t objects = 0;  // dirty objects captured (metrics only)
  };

  // Stages the dirty window under the update lock and returns a closure producing
  // the delta bytes later with no engine lock held (same shape as CaptureSnapshot —
  // the closure must copy values at capture time, never read live state). Clears the
  // dirty tracking: the staged window is now the engine's to persist. Returning a
  // null function (the default) declares delta capture unsupported; the engine falls
  // back to a full CaptureSnapshot.
  virtual Result<std::function<Result<DeltaSnapshot>()>> CaptureDeltaSnapshot() {
    return std::function<Result<DeltaSnapshot>()>{};
  }

  // The staged delta is durable and referenced by the chain; drop the staged window.
  virtual void CommitDeltaCapture() {}

  // The persist failed or aborted: fold the staged window back into the dirty set so
  // the next capture re-covers it.
  virtual void AbandonDeltaCapture() {}

  // Pure composition: applies each delta (in order) over the base checkpoint bytes
  // and returns the equivalent full-checkpoint bytes. Must not touch live state —
  // both compaction and restart use it, and the result must be byte-identical to
  // what SerializeState would have produced for the composed state. Required once
  // CaptureDeltaSnapshot returns a closure.
  virtual Result<Bytes> ComposeCheckpoint(ByteSpan base,
                                          const std::vector<ByteSpan>& deltas) {
    (void)base;
    (void)deltas;
    return UnimplementedError("application does not support delta checkpoints");
  }
};

// Incremental (delta) checkpointing: when the application supports
// CaptureDeltaSnapshot, checkpoints write only the dirty window as a delta composing
// over the previous base (see version_store.h for the on-disk chain protocol), and
// the checkpoint that grows the chain past the thresholds below compacts it into a
// new full base before it returns.
struct DeltaCheckpointOptions {
  // Master switch. Even when true, delta mode only engages if the application
  // supports delta capture AND neither keep_previous_checkpoint nor
  // fallback_to_previous_checkpoint is set (the previous-generation hard-error
  // fallback assumes self-contained checkpoints).
  bool enabled = true;

  // Compact once the chain holds this many deltas...
  std::uint64_t compact_after_deltas = 8;
  // ...or once accumulated delta bytes reach this fraction of the base's bytes.
  double compact_delta_base_ratio = 0.5;

  // Hard ceiling: if a chain somehow reaches this length (compaction kept
  // failing), the next checkpoint is forced full, collapsing the chain through
  // the ordinary full-publish path.
  std::uint64_t force_full_at_chain_length = 32;
};

// A unit's checkpoint chain with the byte counts the compaction thresholds read.
struct ChainState : DeltaChain {
  std::uint64_t base_bytes = 0;   // size of checkpoint(base)
  std::uint64_t delta_bytes = 0;  // summed size of the deltas

  // A self-contained checkpoint at `version`: after a fresh init, a full checkpoint
  // or a compaction.
  static ChainState Full(std::uint64_t version, std::uint64_t bytes) {
    return ChainState{DeltaChain{version, {}}, bytes, 0};
  }

  // True once the chain crossed compact_after_deltas or compact_delta_base_ratio.
  bool CompactionDue(const DeltaCheckpointOptions& options) const;
};

// Maps a version to the engine's checkpoint or delta file for it.
using ChainPathFn = std::function<std::string(std::uint64_t version)>;

// Reads checkpoint(chain.base) and each delta in manifest order, and composes them
// through Application::ComposeCheckpoint into the equivalent full-checkpoint bytes.
// A chain without deltas is its base, returned as read. On success `*loaded` (when
// given) holds the chain with its byte counts.
Result<Bytes> ReadChain(Vfs& vfs, Application& app, const DeltaChain& chain,
                        const ChainPathFn& checkpoint_path, const ChainPathFn& delta_path,
                        ChainState* loaded = nullptr);

// A checkpoint's snapshot closure, captured under the update lock: `delta` when the
// checkpoint extends the chain, otherwise `full`.
struct CheckpointCapture {
  std::function<Result<Bytes>()> full;
  std::function<Result<Application::DeltaSnapshot>()> delta;
  bool is_delta() const { return static_cast<bool>(delta); }
};

struct CheckpointBreakdown {
  Micros stall_micros = 0;      // update-lock hold: snapshot capture + log rotation
  Micros serialize_micros = 0;  // PickleWrite of the whole state (capture + closure)
  Micros disk_micros = 0;       // checkpoint file write and the publish
  Micros total_micros = 0;
};

// Phase A's output, handed to the persist: the capture (filled by the unit) and the
// new file's version plus the log position the snapshot is current to (filled by the
// engine's rotate step).
struct CheckpointRotation {
  CheckpointCapture capture;
  std::uint64_t target = 0;  // version of the checkpoint or delta file to write
  // The ensemble's (generation, offset) instant in the shared log. Database's
  // snapshot is current to the start of log generation `target`.
  std::uint64_t log_generation = 0;
  std::uint64_t log_offset = 0;
  Micros start_micros = 0;
  Micros stall_micros = 0;
  Micros capture_micros = 0;
};

// What an engine's publish step reports to the unit.
enum class PublishOutcome {
  // `next` is durable; the files only `prev` named are garbage the unit reclaims.
  kCommitted,
  // `next` is durable and the publish's own cleanup already removed what only
  // `prev` named (the version switch sweeps superseded generations).
  kCommittedAndSwept,
  // `prev` stays authoritative and nothing durable names the new file: the unit
  // removes it.
  kAborted,
  // Either chain may be the durable one, so every file of both stays on disk and
  // the unit carries on with `next`. An engine that cannot run on with that doubt
  // poisons the unit before returning.
  kAmbiguous,
};

// The per-engine part of a unit: file names, the rotate step and the publish step.
class ChainLayout {
 public:
  virtual ~ChainLayout() = default;

  virtual std::string CheckpointPath(std::uint64_t version) const = 0;
  virtual std::string DeltaPath(std::uint64_t version) const = 0;

  // Phase A's last step, under the update lock with the pipeline paused and the
  // snapshot captured: set rotation.target and the log position the snapshot is
  // current to. On failure the unit abandons a staged delta window.
  virtual Status RotateForCheckpoint(CheckpointRotation& rotation) = 0;

  // Makes `next` the durable chain. `rotation` is the checkpoint that wrote the new
  // file (already on disk and synced), or null for a compaction, which rewrote the
  // chain's state as checkpoint(next.base) and synced the directory. On any outcome
  // but kCommitted*, `error` says what failed.
  virtual PublishOutcome Publish(const CheckpointRotation* rotation, const ChainState& prev,
                                 const ChainState& next, Status& error) = 0;
};

struct EngineUnitOptions {
  Vfs* vfs = nullptr;
  std::string dir;  // the directory the layout's files live in
  Clock* clock = nullptr;
  GroupCommitOptions group_commit;
  DeltaCheckpointOptions delta_checkpoint;
  // Write deltas when the application grants them (the engine has ruled out
  // previous-generation retention).
  bool delta_mode = false;
  std::size_t trace_ring_capacity = 0;  // 0: no raw commit traces
};

class EngineUnit final : private GroupCommitHost {
 public:
  // `layout` and `sink` must outlive the unit; `sink` may be pointed at its log
  // after construction, before the first update.
  EngineUnit(Application& app, ChainLayout& layout, CommitSink* sink,
             EngineUnitOptions options);
  // Waits for a handed-off persist (and its compaction) to finish.
  ~EngineUnit() override;
  EngineUnit(const EngineUnit&) = delete;
  EngineUnit& operator=(const EngineUnit&) = delete;

  Application& app() { return app_; }
  SueLock& lock() { return lock_; }
  GroupCommitter& committer() { return *committer_; }
  obs::Registry& registry() { return registry_; }
  const UpdateCounters& counters() const { return counters_; }
  std::uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_relaxed);
  }

  // Runs `enquiry` under the shared lock, unless the unit is poisoned.
  Status Enquire(const std::function<Status()>& enquiry);

  // Fail-stop: every later batch, enquiry and checkpoint fails with kInternal naming
  // `reason` (a string literal) until the unit is reopened or its state replaced.
  void Poison(const char* reason);
  Status CheckPoisoned() const;

  ChainState chain() const;
  void set_chain(ChainState chain);  // recovery only

  struct CheckpointRun {
    // Skips the checkpoint unless this still holds once the slot is held.
    std::function<bool()> still_due;
    // Keeps the update lock across the persist (the paper's original protocol).
    bool persist_under_lock = false;
    // Persists on the unit's background thread and returns after Phase A. The
    // persist's status lands in *result (when given) before the slot is released.
    bool hand_off = false;
    Status* result = nullptr;
    // Hand-off only: after Phase A, wait until `after` has no checkpoint in flight
    // before handing off, so a staggered run's persists reach the disk one at a time.
    EngineUnit* after = nullptr;
    // Installs this state under the exclusive lock (healing a poisoned unit) and
    // checkpoints it in full: it shares no ancestry with the old chain.
    const ByteSpan* replacement = nullptr;
  };
  Status Checkpoint(const CheckpointRun& run);

  // Returns once no checkpoint holds the slot and a handed-off persist's thread
  // has exited. Never called from that thread.
  void AwaitCheckpoint();

  UpdateBreakdown last_update() const;
  CheckpointBreakdown last_checkpoint() const;
  std::vector<obs::CommitTrace> DumpTrace() const;

 private:
  // Phase A under the paused pipeline and the update lock. The delta-or-full
  // decision: a delta in delta mode while the chain is shorter than
  // force_full_at_chain_length (0 = no ceiling; a chain that long means compaction
  // kept failing) and the application grants a delta closure; otherwise a full
  // snapshot, which collapses the chain.
  Status CaptureAndRotate(CheckpointRotation* rotation, bool force_full);
  Status Persist(CheckpointRotation rotation);
  Status Compact();
  // Writes `bytes` to `path` (and syncs the directory when asked); on failure removes
  // whatever part of the file reached the disk.
  Status WriteChainFile(const std::string& path, const Bytes& bytes, bool sync_dir);
  void RemoveFile(const std::string& path);
  // Deletes the files `prev` named that `next` does not, then syncs the directory.
  void Reclaim(const DeltaChain& prev, const DeltaChain& next);
  void AcquireSlot();
  void ReleaseSlot();
  void AwaitCheckpointLocked(std::unique_lock<std::mutex>& gate);  // holds slot_mu_

  // GroupCommitHost (called by committer_ on a leader thread; see group_commit.h).
  Result<std::uint64_t> BatchBegin() override;
  Status BatchApply(ByteSpan record) override;
  void BatchPoisoned(const Status& cause) override;
  void BatchCommitted(const UpdateBreakdown& breakdown) override;

  Application& app_;
  ChainLayout& layout_;
  const EngineUnitOptions options_;
  Clock& clock_;
  SueLock lock_;

  // Declared before everything that holds pointers into it.
  obs::Registry registry_;
  std::unique_ptr<obs::TraceRing> trace_ring_;
  obs::CommitStageMetrics stage_metrics_;
  // Hot-path counters: registry-owned lock-free metrics so overlapping commits never
  // serialize on a mutex.
  UpdateCounters counters_;
  obs::Counter* enquiries_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* delta_checkpoints_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
  obs::Counter* compaction_runs_ = nullptr;
  obs::Counter* compaction_bytes_ = nullptr;
  obs::Counter* compaction_failures_ = nullptr;
  obs::Gauge* checkpoint_in_progress_ = nullptr;

  std::atomic<std::uint64_t> commit_epoch_{0};
  // Null while healthy. Set under the exclusive lock (apply divergence) or by a
  // publish step while enquiries, which hold only shared mode, read it.
  std::atomic<const char*> poison_reason_{nullptr};

  // The live chain (mirrors what the engine last published) with its byte counts.
  // chain_mu_ is a leaf lock: held only around reads and writes of chain_.
  mutable std::mutex chain_mu_;
  ChainState chain_;

  // Guards only the cold breakdown structs.
  mutable std::mutex stats_mu_;
  UpdateBreakdown last_update_;
  CheckpointBreakdown last_checkpoint_;

  // The single-flight checkpoint slot. A cv-guarded flag, not a mutex, because a
  // handed-off persist releases it on its own thread; persist_thread_ is assigned
  // and joined only under slot_mu_ by whoever holds or next acquires the slot.
  mutable std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  bool slot_held_ = false;
  std::thread persist_thread_;

  // The commit pipeline. Declared last so it is destroyed first.
  std::unique_ptr<GroupCommitter> committer_;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_ENGINE_UNIT_H_
