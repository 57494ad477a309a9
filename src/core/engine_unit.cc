#include "src/core/engine_unit.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sdb {

bool ChainState::CompactionDue(const DeltaCheckpointOptions& options) const {
  if (!has_deltas()) {
    return false;
  }
  if (options.compact_after_deltas > 0 && deltas.size() >= options.compact_after_deltas) {
    return true;
  }
  return options.compact_delta_base_ratio > 0 && base_bytes > 0 &&
         static_cast<double>(delta_bytes) >=
             options.compact_delta_base_ratio * static_cast<double>(base_bytes);
}

Result<Bytes> ReadChain(Vfs& vfs, Application& app, const DeltaChain& chain,
                        const ChainPathFn& checkpoint_path, const ChainPathFn& delta_path,
                        ChainState* loaded) {
  SDB_ASSIGN_OR_RETURN(Bytes base, ReadWholeFile(vfs, checkpoint_path(chain.base)));
  ChainState state = ChainState::Full(chain.base, base.size());
  if (chain.has_deltas()) {
    std::vector<Bytes> deltas;
    std::vector<ByteSpan> delta_spans;
    deltas.reserve(chain.deltas.size());
    delta_spans.reserve(chain.deltas.size());
    for (std::uint64_t version : chain.deltas) {
      SDB_ASSIGN_OR_RETURN(Bytes delta, ReadWholeFile(vfs, delta_path(version)));
      state.delta_bytes += delta.size();
      deltas.push_back(std::move(delta));
      delta_spans.push_back(AsSpan(deltas.back()));
    }
    state.deltas = chain.deltas;
    Result<Bytes> composed = app.ComposeCheckpoint(AsSpan(base), delta_spans);
    if (!composed.ok()) {
      return composed.status().WithContext("composing delta checkpoint chain");
    }
    base = std::move(*composed);
  }
  if (loaded != nullptr) {
    *loaded = std::move(state);
  }
  return base;
}

EngineUnit::EngineUnit(Application& app, ChainLayout& layout, CommitSink* sink,
                       EngineUnitOptions options)
    : app_(app), layout_(layout), options_(std::move(options)), clock_(*options_.clock) {
  if (options_.trace_ring_capacity > 0) {
    trace_ring_ = std::make_unique<obs::TraceRing>(options_.trace_ring_capacity);
  }
  stage_metrics_ = obs::CommitStageMetrics::Register(registry_, trace_ring_.get());
  counters_.updates = &registry_.GetCounter("db.updates");
  counters_.precondition_failures = &registry_.GetCounter("db.update_precondition_failures");
  counters_.commit_failures = &registry_.GetCounter("db.update_commit_failures");
  counters_.log_entries_since_checkpoint =
      &registry_.GetGauge("db.log_entries_since_checkpoint");
  counters_.log_bytes = &registry_.GetGauge("db.log_bytes");
  enquiries_ = &registry_.GetCounter("db.enquiries");
  checkpoints_ = &registry_.GetCounter("db.checkpoints");
  delta_checkpoints_ = &registry_.GetCounter("db.delta_checkpoints");
  checkpoint_failures_ = &registry_.GetCounter("db.checkpoint_failures");
  compaction_runs_ = &registry_.GetCounter("compaction.runs");
  compaction_bytes_ = &registry_.GetCounter("compaction.bytes");
  compaction_failures_ = &registry_.GetCounter("db.compaction_failures");
  checkpoint_in_progress_ = &registry_.GetGauge("checkpoint.in_progress");
  GroupCommitHost& host = *this;  // the private-base upcast must happen in a member
  committer_ = std::make_unique<GroupCommitter>(lock_, clock_, host, sink, &counters_,
                                                stage_metrics_, options_.group_commit);
}

EngineUnit::~EngineUnit() {
  // A handed-off persist may still be streaming its file or compacting: it must
  // finish (and be joined) before the pipeline and the layout go.
  AwaitCheckpoint();
}

// --- poisoning, enquiries and the commit pipeline's callbacks ---

void EngineUnit::Poison(const char* reason) {
  poison_reason_.store(reason, std::memory_order_relaxed);
}

Status EngineUnit::CheckPoisoned() const {
  const char* reason = poison_reason_.load(std::memory_order_relaxed);
  if (reason != nullptr) {
    return InternalError(std::string("poisoned: ") + reason + "; reopen to recover");
  }
  return OkStatus();
}

Status EngineUnit::Enquire(const std::function<Status()>& enquiry) {
  SueLock::SharedGuard guard(lock_);
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  Status status = enquiry();
  enquiries_->Increment();
  return status;
}

Result<std::uint64_t> EngineUnit::BatchBegin() {
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  return commit_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
}

Status EngineUnit::BatchApply(ByteSpan record) { return app_.ApplyUpdate(record); }

void EngineUnit::BatchPoisoned(const Status& cause) {
  // Called under the exclusive lock; readers check under at least the shared lock,
  // so the lock's ordering publishes the flag.
  (void)cause;
  Poison("an applied update diverged from the log");
}

void EngineUnit::BatchCommitted(const UpdateBreakdown& breakdown) {
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  last_update_ = breakdown;
}

ChainState EngineUnit::chain() const {
  std::lock_guard<std::mutex> chain_lock(chain_mu_);
  return chain_;
}

void EngineUnit::set_chain(ChainState chain) {
  std::lock_guard<std::mutex> chain_lock(chain_mu_);
  chain_ = std::move(chain);
}

UpdateBreakdown EngineUnit::last_update() const {
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  return last_update_;
}

CheckpointBreakdown EngineUnit::last_checkpoint() const {
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  return last_checkpoint_;
}

std::vector<obs::CommitTrace> EngineUnit::DumpTrace() const {
  return trace_ring_ != nullptr ? trace_ring_->Dump() : std::vector<obs::CommitTrace>{};
}

// --- the checkpoint slot and skeleton ---

void EngineUnit::AcquireSlot() {
  std::unique_lock<std::mutex> gate(slot_mu_);
  AwaitCheckpointLocked(gate);
  slot_held_ = true;
  checkpoint_in_progress_->Set(1);
}

void EngineUnit::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> gate(slot_mu_);
    slot_held_ = false;
    checkpoint_in_progress_->Set(0);
  }
  slot_cv_.notify_all();
}

void EngineUnit::AwaitCheckpoint() {
  std::unique_lock<std::mutex> gate(slot_mu_);
  AwaitCheckpointLocked(gate);
}

void EngineUnit::AwaitCheckpointLocked(std::unique_lock<std::mutex>& gate) {
  slot_cv_.wait(gate, [this] { return !slot_held_; });
  if (persist_thread_.joinable()) {
    persist_thread_.join();  // it released the slot as its last act; reap it
  }
}

Status EngineUnit::Checkpoint(const CheckpointRun& run) {
  AcquireSlot();
  if (run.still_due && !run.still_due()) {
    ReleaseSlot();
    return OkStatus();
  }
  CheckpointRotation rotation;
  Status status;
  bool persist_unlocked = false;
  {
    // Pause BEFORE the update lock: an in-flight batch needs the lock to finish, so
    // pausing after acquiring it would deadlock. With the pipeline paused, every
    // committed record is already applied, so the snapshot and the log position the
    // rotate step reads describe the same instant.
    PipelinePause pause(*committer_);
    SueLock::UpdateGuard guard(lock_);
    if (run.replacement != nullptr) {
      guard.Upgrade();
      status = app_.ResetState();
      if (status.ok()) {
        status = app_.DeserializeState(*run.replacement)
                     .WithContext("installing replacement state");
      }
      guard.Downgrade();
      if (status.ok()) {
        poison_reason_.store(nullptr, std::memory_order_relaxed);
      }
    } else {
      status = CheckPoisoned();
    }
    if (status.ok()) {
      status = CaptureAndRotate(&rotation, run.replacement != nullptr);
    }
    if (status.ok() && run.persist_under_lock) {
      status = Persist(std::move(rotation));
    } else {
      persist_unlocked = status.ok();
    }
  }
  if (persist_unlocked && run.hand_off) {
    if (run.after != nullptr) {
      run.after->AwaitCheckpoint();
    }
    // The caller returns while the snapshot streams to disk; the thread releases the
    // slot and is reaped by the next acquirer (or the destructor).
    std::lock_guard<std::mutex> gate(slot_mu_);
    persist_thread_ = std::thread(
        [this, result = run.result, r = std::move(rotation)]() mutable {
          Status persisted = Persist(std::move(r));
          if (!persisted.ok()) {
            SDB_LOG(kWarning) << "background checkpoint persist failed: " << persisted;
          }
          if (result != nullptr) {
            *result = persisted;
          }
          ReleaseSlot();
        });
    return OkStatus();
  }
  if (persist_unlocked) {
    status = Persist(std::move(rotation));
  }
  ReleaseSlot();
  return status;
}

Status EngineUnit::CaptureAndRotate(CheckpointRotation* rotation, bool force_full) {
  Stopwatch stall_watch(clock_);
  rotation->start_micros = clock_.NowMicros();
  // Capture a consistent snapshot — the only O(state) work updates must wait for
  // (O(churn) for a delta). The application has the final say: a null delta closure
  // means it cannot produce deltas.
  const std::uint64_t ceiling = options_.delta_checkpoint.force_full_at_chain_length;
  if (options_.delta_mode && !force_full && (ceiling == 0 || chain().length() < ceiling)) {
    SDB_ASSIGN_OR_RETURN(rotation->capture.delta, app_.CaptureDeltaSnapshot());
  }
  if (!rotation->capture.is_delta()) {
    SDB_ASSIGN_OR_RETURN(rotation->capture.full, app_.CaptureSnapshot());
  }
  rotation->capture_micros = stall_watch.ElapsedMicros();

  // If the rotate step fails the checkpoint aborts with the old log position still
  // live, and a staged delta window must go back into the application's dirty set,
  // or the keys it covers would vanish from every future delta (found by the
  // simulation harness: a transient marker-write error during a delta rotation
  // silently lost acknowledged updates from later chains).
  Status rotated = layout_.RotateForCheckpoint(*rotation);
  if (!rotated.ok()) {
    if (rotation->capture.is_delta()) {
      app_.AbandonDeltaCapture();
    }
    return rotated;
  }
  commit_epoch_.fetch_add(1, std::memory_order_relaxed);
  counters_.log_entries_since_checkpoint->Set(0);
  rotation->stall_micros = stall_watch.ElapsedMicros();
  if (obs::Enabled()) {
    registry_.GetHistogram("checkpoint.stall_us").Record(rotation->stall_micros);
    registry_.GetHistogram("checkpoint.snapshot_us").Record(rotation->capture_micros);
  }
  return OkStatus();
}

// Phase B. Needs no engine lock: it touches only the vfs, the layout's publish step
// and the unit's chain, counters and registry. The staged delta window is committed
// once a publish may have made the delta part of the chain, and abandoned on every
// other failure.
Status EngineUnit::Persist(CheckpointRotation rotation) {
  const bool is_delta = rotation.capture.is_delta();
  auto fail = [&](Status status) {
    checkpoint_failures_->Increment();
    if (is_delta) {
      app_.AbandonDeltaCapture();
    }
    return status;
  };
  CheckpointBreakdown breakdown;
  breakdown.stall_micros = rotation.stall_micros;

  Stopwatch serialize_watch(clock_);
  Bytes bytes;
  std::uint64_t objects = 0;
  if (is_delta) {
    Result<Application::DeltaSnapshot> delta = rotation.capture.delta();
    if (!delta.ok()) {
      return fail(delta.status().WithContext("serializing delta snapshot"));
    }
    bytes = std::move(delta->bytes);
    objects = delta->objects;
  } else {
    Result<Bytes> snapshot = rotation.capture.full();
    if (!snapshot.ok()) {
      return fail(snapshot.status().WithContext("serializing checkpoint snapshot"));
    }
    bytes = std::move(*snapshot);
  }
  breakdown.serialize_micros = rotation.capture_micros + serialize_watch.ElapsedMicros();

  Stopwatch disk_watch(clock_);
  const std::string path = is_delta ? layout_.DeltaPath(rotation.target)
                                    : layout_.CheckpointPath(rotation.target);
  Status written = WriteChainFile(path, bytes, /*sync_dir=*/false);
  Micros write_micros = disk_watch.ElapsedMicros();
  if (!written.ok()) {
    return fail(written.WithContext("writing checkpoint file"));
  }

  const ChainState prev = chain();
  ChainState next = ChainState::Full(rotation.target, bytes.size());
  if (is_delta) {
    next = prev;
    next.deltas.push_back(rotation.target);
    next.delta_bytes += bytes.size();
  }
  Stopwatch switch_watch(clock_);
  Status error;
  PublishOutcome outcome = layout_.Publish(&rotation, prev, next, error);
  Micros switch_micros = switch_watch.ElapsedMicros();
  if (outcome == PublishOutcome::kAborted) {
    RemoveFile(path);
    return fail(error);
  }
  set_chain(next);
  if (is_delta) {
    // From here the delta may be part of the durable chain: the next capture must
    // not re-cover the keys it holds.
    app_.CommitDeltaCapture();
  }
  if (outcome == PublishOutcome::kAmbiguous) {
    checkpoint_failures_->Increment();
    return error;
  }
  if (outcome == PublishOutcome::kCommitted) {
    Reclaim(prev, next);
  }
  breakdown.disk_micros = disk_watch.ElapsedMicros();
  breakdown.total_micros = clock_.NowMicros() - rotation.start_micros;

  checkpoints_->Increment();
  if (is_delta) {
    delta_checkpoints_->Increment();
  }
  if (obs::Enabled()) {
    registry_.GetHistogram("checkpoint.serialize_us").Record(breakdown.serialize_micros);
    registry_.GetHistogram("checkpoint.write_us").Record(write_micros);
    registry_.GetHistogram("checkpoint.switch_us").Record(switch_micros);
    registry_.GetHistogram("checkpoint.disk_us").Record(breakdown.disk_micros);
    registry_.GetHistogram("checkpoint.total_us").Record(breakdown.total_micros);
    if (is_delta) {
      registry_.GetHistogram("checkpoint.delta.bytes")
          .Record(static_cast<Micros>(bytes.size()));
      registry_.GetHistogram("checkpoint.delta.objects").Record(static_cast<Micros>(objects));
    }
    registry_.GetGauge("checkpoint.delta.chain_len")
        .Set(static_cast<std::int64_t>(next.length()));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    last_checkpoint_ = breakdown;
  }

  if (is_delta && next.CompactionDue(options_.delta_checkpoint)) {
    // Compaction never fails the checkpoint that triggered it: the chain stays
    // authoritative and the next delta persist retries.
    Status compacted = Compact();
    if (!compacted.ok()) {
      compaction_failures_->Increment();
      SDB_LOG(kWarning) << "chain compaction failed: " << compacted;
    }
  }
  return OkStatus();
}

// Collapses base + deltas into a self-contained checkpoint(top). The caller holds the
// slot, so the chain cannot move underneath. Durable ordering:
//   1. checkpoint(top) written from the ON-DISK chain (ComposeCheckpoint is pure —
//      the live state has moved on) + directory sync;
//   2. the engine's publish names it as the chain — the commit point (before this it
//      is an orphan the next open sweeps);
//   3. reclaim the old base and delta files (failures just leave swept-later garbage).
// No step poisons: until 2 the chain stays authoritative, after 2 the collapsed base
// is, and both describe the same state.
Status EngineUnit::Compact() {
  const ChainState prev = chain();
  if (!prev.has_deltas()) {
    return OkStatus();
  }
  Stopwatch compact_watch(clock_);
  Result<Bytes> composed = ReadChain(
      *options_.vfs, app_, prev, [this](std::uint64_t v) { return layout_.CheckpointPath(v); },
      [this](std::uint64_t v) { return layout_.DeltaPath(v); });
  if (!composed.ok()) {
    return composed.status().WithContext("compacting delta chain");
  }
  const std::string path = layout_.CheckpointPath(prev.top());
  SDB_RETURN_IF_ERROR(WriteChainFile(path, *composed, /*sync_dir=*/true)
                          .WithContext("writing compacted checkpoint"));

  const ChainState next = ChainState::Full(prev.top(), composed->size());
  Status error;
  PublishOutcome outcome = layout_.Publish(nullptr, prev, next, error);
  if (outcome == PublishOutcome::kAborted) {
    RemoveFile(path);
    return error;
  }
  set_chain(next);
  if (outcome == PublishOutcome::kAmbiguous) {
    return error;  // both resolutions hold the same state; the chain files stay
  }
  Reclaim(prev, next);
  compaction_runs_->Increment();
  compaction_bytes_->Add(composed->size());
  if (obs::Enabled()) {
    registry_.GetHistogram("compaction.duration_us").Record(compact_watch.ElapsedMicros());
    registry_.GetGauge("checkpoint.delta.chain_len").Set(1);
  }
  SDB_LOG(kDebug) << "compacted delta chain of " << prev.length() << " levels into "
                  << path;
  return OkStatus();
}

Status EngineUnit::WriteChainFile(const std::string& path, const Bytes& bytes,
                                  bool sync_dir) {
  Status written = WriteWholeFile(*options_.vfs, path, AsSpan(bytes));
  if (written.ok() && sync_dir) {
    written = options_.vfs->SyncDir(options_.dir);
  }
  if (!written.ok()) {
    RemoveFile(path);  // don't leak a partial file; nothing names it yet
  }
  return written;
}

void EngineUnit::RemoveFile(const std::string& path) {
  Result<bool> exists = options_.vfs->Exists(path);
  if (exists.ok() && *exists) {
    Status removed = options_.vfs->Delete(path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "removing " << path << ": " << removed;
    }
  }
}

void EngineUnit::Reclaim(const DeltaChain& prev, const DeltaChain& next) {
  std::vector<std::string> garbage;
  for (std::uint64_t v : prev.deltas) {
    if (std::find(next.deltas.begin(), next.deltas.end(), v) == next.deltas.end()) {
      garbage.push_back(layout_.DeltaPath(v));
    }
  }
  if (prev.base != next.base) {
    garbage.push_back(layout_.CheckpointPath(prev.base));
  }
  if (garbage.empty()) {
    return;
  }
  for (const std::string& path : garbage) {
    Status removed = options_.vfs->Delete(path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "reclaiming superseded chain file: " << removed;
    }
  }
  Status synced = options_.vfs->SyncDir(options_.dir);
  if (!synced.ok()) {
    SDB_LOG(kWarning) << "syncing chain reclamation: " << synced;
  }
}

}  // namespace sdb
