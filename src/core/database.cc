#include "src/core/database.h"

#include "src/common/logging.h"
#include "src/core/parallel_replay.h"

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

Result<CheckpointCapture> CaptureCheckpoint(Application& app, bool delta_mode,
                                            std::uint64_t chain_length,
                                            const DeltaCheckpointOptions& options) {
  CheckpointCapture capture;
  const std::uint64_t ceiling = options.force_full_at_chain_length;
  if (delta_mode && (ceiling == 0 || chain_length < ceiling)) {
    // The application has the final say: a null closure means it cannot produce
    // deltas.
    SDB_ASSIGN_OR_RETURN(capture.delta, app.CaptureDeltaSnapshot());
  }
  if (!capture.is_delta()) {
    SDB_ASSIGN_OR_RETURN(capture.full, app.CaptureSnapshot());
  }
  return capture;
}

Database::Database(Application& app, DatabaseOptions options)
    : app_(app),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &wall_clock_),
      version_store_(*options_.vfs, options_.dir,
                     VersionStoreOptions{options_.keep_previous_checkpoint,
                                         options_.retain_logs_for_audit}) {
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
  auto_checkpoints_ = &registry_.GetCounter("db.auto_checkpoints");
  checkpoint_in_progress_ = &registry_.GetGauge("checkpoint.in_progress");
  checkpoint_failures_ = &registry_.GetCounter("db.checkpoint_failures");
  delta_checkpoints_ = &registry_.GetCounter("db.delta_checkpoints");
  compaction_runs_ = &registry_.GetCounter("compaction.runs");
  compaction_bytes_ = &registry_.GetCounter("compaction.bytes");
  compaction_failures_ = &registry_.GetCounter("db.compaction_failures");
  // Delta mode needs self-contained-checkpoint retention OFF: the previous-
  // generation hard-error fallback reloads checkpoint(N-1) directly, which a delta
  // file is not. Application support is probed per rotation (a null capture closure
  // falls back to a full snapshot).
  delta_effective_ = options_.delta_checkpoint.enabled &&
                     !options_.keep_previous_checkpoint &&
                     !options_.fallback_to_previous_checkpoint;
  GroupCommitHost& host = *this;  // the private-base upcast must happen in a member
  committer_ = std::make_unique<GroupCommitter>(lock_, *clock_, host, &log_sink_,
                                                &counters_, stage_metrics_,
                                                options_.group_commit);
}

Database::~Database() {
  shutting_down_.store(true, std::memory_order_relaxed);
  // Join the compactor before draining the checkpoint slot: the compaction thread
  // acquires the slot itself, so it must be gone before the slot can drain for good.
  // If it is still waiting on the slot it will acquire it, see shutting_down_, and
  // exit without compacting.
  {
    std::lock_guard<std::mutex> gate(compaction_mu_);
    if (compaction_thread_.joinable()) {
      compaction_thread_.join();
    }
  }
  // Drain the checkpoint slot next: a background persist may still be streaming the
  // snapshot, and it must finish (and be joined) before the log and committer go.
  {
    std::unique_lock<std::mutex> gate(checkpoint_mu_);
    checkpoint_cv_.wait(gate, [this] { return !checkpoint_in_flight_; });
    if (checkpoint_thread_.joinable()) {
      checkpoint_thread_.join();
    }
  }
  committer_.reset();  // no batch may outlive the log writer
  if (log_ != nullptr) {
    Status status = log_->Close();
    if (!status.ok()) {
      SDB_LOG(kWarning) << "closing log: " << status;
    }
  }
}

Result<std::unique_ptr<Database>> Database::Open(Application& app, DatabaseOptions options) {
  if (options.vfs == nullptr || options.dir.empty()) {
    return InvalidArgumentError("DatabaseOptions requires vfs and dir");
  }
  std::unique_ptr<Database> db(new Database(app, std::move(options)));
  SDB_RETURN_IF_ERROR(db->Recover().WithContext("opening database in " + db->options_.dir));
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenReadOnly(Application& app,
                                                         DatabaseOptions options) {
  if (options.vfs == nullptr || options.dir.empty()) {
    return InvalidArgumentError("DatabaseOptions requires vfs and dir");
  }
  std::unique_ptr<Database> db(new Database(app, std::move(options)));
  db->read_only_ = true;
  SDB_ASSIGN_OR_RETURN(VersionState state, db->version_store_.PeekCurrent());
  db->version_.store(state.version, std::memory_order_relaxed);
  db->live_log_version_.store(state.live_log_version, std::memory_order_relaxed);
  SDB_RETURN_IF_ERROR(db->LoadCheckpointAndReplay(state).WithContext(
      "opening database read-only in " + db->options_.dir));
  return db;
}

Status Database::Recover() {
  SDB_RETURN_IF_ERROR(options_.vfs->CreateDir(options_.dir));
  SDB_ASSIGN_OR_RETURN(bool fresh, version_store_.IsFresh());
  if (fresh) {
    SDB_RETURN_IF_ERROR(InitFreshDatabase());
    live_log_version_.store(1, std::memory_order_relaxed);
  } else {
    SDB_ASSIGN_OR_RETURN(VersionState state, version_store_.Recover());
    version_.store(state.version, std::memory_order_relaxed);
    // A pending rotation is adopted as-is: updates keep committing to the rotated
    // log (its `pending` marker stays) and the next checkpoint collapses the chain.
    live_log_version_.store(state.live_log_version, std::memory_order_relaxed);
    stats_.restart.finished_interrupted_switch = state.finished_interrupted_switch;
    SDB_RETURN_IF_ERROR(LoadCheckpointAndReplay(state));
  }
  SDB_ASSIGN_OR_RETURN(
      log_, OpenLogForAppend(*options_.vfs,
                             version_store_.LogPath(
                                 live_log_version_.load(std::memory_order_relaxed)),
                             options_.log_writer));
  log_sink_.set_log(log_.get());
  counters_.log_bytes->Set(static_cast<std::int64_t>(log_->size()));
  last_checkpoint_time_.store(clock_->NowMicros(), std::memory_order_relaxed);
  return OkStatus();
}

Status Database::InitFreshDatabase() {
  version_.store(1, std::memory_order_relaxed);
  SDB_RETURN_IF_ERROR(app_.ResetState());
  SDB_ASSIGN_OR_RETURN(Bytes snapshot, app_.SerializeState());
  SDB_RETURN_IF_ERROR(
      WriteWholeFile(*options_.vfs, version_store_.CheckpointPath(1), AsSpan(snapshot)));
  SDB_RETURN_IF_ERROR(WriteWholeFile(*options_.vfs, version_store_.LogPath(1), ByteSpan{}));
  SDB_RETURN_IF_ERROR(options_.vfs->SyncDir(options_.dir));
  {
    std::lock_guard<std::mutex> chain_lock(chain_mu_);
    chain_ = ChainState::Full(1, snapshot.size());
  }
  return version_store_.InitFresh();
}

Status Database::LoadCheckpointAndReplay(const VersionState& state) {
  Stopwatch restart_watch(*clock_);

  LogReplayOptions replay_options;
  replay_options.skip_damaged_entries = options_.skip_damaged_log_entries;
  replay_options.page_size = options_.log_replay_page_size;

  // Every replayed entry — hard-error previous log, current log, pending chain —
  // funnels through one replayer in chain order, so per-key ordering holds across
  // log generations. With recovery_threads = 1 this is exactly the old serial
  // apply; with > 1 the entries buffer during the sequential read pass and apply
  // on the worker pool at Finish.
  ParallelReplayOptions parallel_options;
  parallel_options.threads = options_.recovery_threads;
  parallel_options.clock = clock_;
  ParallelReplayer replayer(parallel_options);
  const std::size_t replay_app = replayer.AddApplication(app_);
  auto apply = [&replayer, replay_app](ByteSpan record) {
    return replayer.Add(replay_app, record);
  };

  // Step 1+2 of the paper's restart: read the current checkpoint to obtain an old
  // version of the virtual memory structure. With a delta chain, "the checkpoint"
  // is checkpoint(base) composed with each delta in manifest order — the
  // application's ComposeCheckpoint must land on bytes identical to the full
  // checkpoint it replaces, so everything downstream (replay, parallel or serial)
  // is oblivious to how the state got here.
  ChainState loaded;
  Result<Bytes> checkpoint = ReadChain(
      *options_.vfs, app_, state.chain,
      [this](std::uint64_t v) { return version_store_.CheckpointPath(v); },
      [this](std::uint64_t v) { return version_store_.DeltaPath(v); }, &loaded);
  if (!checkpoint.ok() && state.chain.has_deltas()) {
    // A broken chain fails the open: the previous-generation fallback below serves
    // only self-contained checkpoints.
    return checkpoint.status();
  }
  Status load_status = checkpoint.status();
  if (checkpoint.ok()) {
    SDB_RETURN_IF_ERROR(app_.ResetState());
    load_status = app_.DeserializeState(AsSpan(*checkpoint));
    std::lock_guard<std::mutex> chain_lock(chain_mu_);
    chain_ = std::move(loaded);
  }
  registry_.GetGauge("restart.chain_deltas_composed")
      .Set(static_cast<std::int64_t>(state.chain.deltas.size()));

  bool used_previous = false;
  if (!load_status.ok()) {
    bool hard_error = load_status.Is(ErrorCode::kUnreadable) ||
                      load_status.Is(ErrorCode::kCorruption);
    if (!hard_error || !options_.fallback_to_previous_checkpoint ||
        !state.previous_version.has_value()) {
      return load_status.WithContext("loading checkpoint " + state.checkpoint_path);
    }
    // Hard-error recovery (Section 4): reload the previous checkpoint, replay the
    // previous log, then fall through to replaying the current log.
    std::uint64_t prev = *state.previous_version;
    SDB_ASSIGN_OR_RETURN(Bytes snapshot,
                         ReadWholeFile(*options_.vfs, version_store_.CheckpointPath(prev)));
    SDB_RETURN_IF_ERROR(app_.ResetState());
    SDB_RETURN_IF_ERROR(app_.DeserializeState(AsSpan(snapshot))
                            .WithContext("loading previous checkpoint"));
    SDB_ASSIGN_OR_RETURN(LogReplayStats prev_replay,
                         ReplayLogFile(*options_.vfs, version_store_.LogPath(prev),
                                       replay_options, apply));
    stats_.restart.entries_replayed += prev_replay.entries_replayed;
    stats_.restart.entries_skipped += prev_replay.entries_skipped;
    used_previous = true;
  }
  stats_.restart.checkpoint_read_micros = restart_watch.ElapsedMicros();
  stats_.restart.used_previous_checkpoint = used_previous;

  // Step 3: replay the updates from the log — then any rotated-but-unswitched logs a
  // pending concurrent checkpoint left behind, in generation order (dual-log
  // resolution: acknowledged updates kept committing to the rotated log while the
  // checkpoint that would have covered them was still in flight at the crash).
  Stopwatch replay_watch(*clock_);
  SDB_ASSIGN_OR_RETURN(LogReplayStats replay,
                       ReplayLogFile(*options_.vfs, state.log_path, replay_options, apply));
  std::uint64_t entries_since_checkpoint = replay.entries_replayed;
  stats_.restart.entries_replayed += replay.entries_replayed;
  stats_.restart.entries_skipped += replay.entries_skipped;
  stats_.restart.partial_tail_discarded = replay.partial_tail_discarded;
  for (std::uint64_t pending_version : state.pending_log_versions) {
    SDB_ASSIGN_OR_RETURN(
        LogReplayStats pending_replay,
        ReplayLogFile(*options_.vfs, version_store_.LogPath(pending_version),
                      replay_options, apply));
    entries_since_checkpoint += pending_replay.entries_replayed;
    stats_.restart.entries_replayed += pending_replay.entries_replayed;
    stats_.restart.entries_skipped += pending_replay.entries_skipped;
    stats_.restart.partial_tail_discarded |= pending_replay.partial_tail_discarded;
    ++stats_.restart.pending_logs_replayed;
  }
  SDB_RETURN_IF_ERROR(replayer.Finish().WithContext("parallel log replay"));
  // Wall-clock elapsed for the whole phase (the stopwatch spans reads, batch
  // apply and merge); the CPU aggregate is reported separately so parallel
  // replay never inflates the elapsed number.
  stats_.restart.replay_micros = replay_watch.ElapsedMicros();
  const ParallelReplayStats& parallel = replayer.stats();
  stats_.restart.replay_batches = parallel.batches;
  stats_.restart.replay_threads_used = parallel.threads_used;
  stats_.restart.partition_pass_micros = parallel.partition_pass_micros;
  stats_.restart.batch_apply_micros = parallel.batch_apply_micros;
  stats_.restart.replay_cpu_micros =
      parallel.batches > 0
          ? parallel.partition_pass_micros + parallel.batch_apply_micros
          : stats_.restart.replay_micros;  // serial: one thread, CPU == wall
  counters_.log_entries_since_checkpoint->Set(
      static_cast<std::int64_t>(entries_since_checkpoint));
  // Restart timings, mirrored into the registry for MetricsReport.
  registry_.GetGauge("restart.checkpoint_read_us")
      .Set(stats_.restart.checkpoint_read_micros);
  registry_.GetGauge("restart.replay_us").Set(stats_.restart.replay_micros);
  registry_.GetGauge("restart.replay_cpu_us").Set(stats_.restart.replay_cpu_micros);
  registry_.GetGauge("restart.replay.batches")
      .Set(static_cast<std::int64_t>(stats_.restart.replay_batches));
  registry_.GetGauge("restart.replay.threads_used")
      .Set(static_cast<std::int64_t>(stats_.restart.replay_threads_used));
  registry_.GetGauge("restart.replay.partition_pass_us")
      .Set(stats_.restart.partition_pass_micros);
  registry_.GetGauge("restart.replay.batch_apply_us")
      .Set(stats_.restart.batch_apply_micros);
  registry_.GetGauge("restart.entries_replayed")
      .Set(static_cast<std::int64_t>(stats_.restart.entries_replayed));
  registry_.GetGauge("restart.pending_logs_replayed")
      .Set(static_cast<std::int64_t>(stats_.restart.pending_logs_replayed));
  SDB_LOG(kDebug) << "recovered " << options_.dir << ": checkpoint read in "
                  << stats_.restart.checkpoint_read_micros << " us, "
                  << stats_.restart.entries_replayed << " log entries replayed in "
                  << stats_.restart.replay_micros << " us";
  return OkStatus();
}

Status Database::CheckPoisoned() const {
  if (poisoned_) {
    return InternalError(
        "database is poisoned: an applied update diverged from the log; reopen to recover");
  }
  return OkStatus();
}

namespace {

Status ReadOnlyError() {
  return FailedPreconditionError("database was opened read-only");
}

}  // namespace

Status Database::Enquire(const std::function<Status()>& enquiry) {
  SueLock::SharedGuard guard(lock_);
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  Status status = enquiry();
  enquiries_->Increment();
  return status;
}

Status Database::Update(const std::function<Result<Bytes>()>& prepare) {
  std::vector<std::function<Result<Bytes>()>> one{prepare};
  return UpdateBatch(one);
}

Status Database::UpdateBatch(const std::vector<std::function<Result<Bytes>()>>& prepares) {
  if (prepares.empty()) {
    return InvalidArgumentError("empty update batch");
  }
  if (read_only_) {
    return ReadOnlyError();
  }
  SDB_RETURN_IF_ERROR(committer_->Submit({prepares.data(), prepares.size()}));
  MaybeAutoCheckpoint();
  return OkStatus();
}

std::vector<Status> Database::UpdateMany(
    const std::vector<std::function<Result<Bytes>()>>& prepares) {
  std::vector<Status> out;
  if (prepares.empty()) {
    return out;
  }
  if (read_only_) {
    out.assign(prepares.size(), ReadOnlyError());
    return out;
  }
  out = committer_->SubmitMany({prepares.data(), prepares.size()});
  MaybeAutoCheckpoint();
  return out;
}

Result<std::uint64_t> Database::BatchBegin() {
  std::uint64_t epoch = commit_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  return epoch;
}

Status Database::BatchApply(ByteSpan record) { return app_.ApplyUpdate(record); }

void Database::BatchPoisoned(const Status& cause) {
  // Called under the exclusive lock; readers check via CheckPoisoned under at least
  // the shared lock, so the lock's ordering publishes the flag.
  (void)cause;
  poisoned_ = true;
}

void Database::BatchCommitted(const UpdateBreakdown& breakdown) {
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.last_update = breakdown;
}

Status Database::ReplaceState(ByteSpan state) {
  if (read_only_) {
    return ReadOnlyError();
  }
  AcquireCheckpointSlot();
  Status status = [&]() -> Status {
    PipelinePause pause(*committer_);
    SueLock::UpdateGuard guard(lock_);
    guard.Upgrade();
    SDB_RETURN_IF_ERROR(app_.ResetState());
    SDB_RETURN_IF_ERROR(
        app_.DeserializeState(state).WithContext("installing replacement state"));
    guard.Downgrade();
    poisoned_ = false;
    CheckpointRotation rotation;
    // Forced full: the replacement state shares no ancestry with the old chain, so
    // a delta over it would compose garbage.
    SDB_RETURN_IF_ERROR(RotateForCheckpointLocked(&rotation, /*force_full=*/true));
    // Persist while still holding the update lock, even with concurrent_checkpoint:
    // an update committed against the replacement state must never land in a log
    // that a pre-switch recovery would replay on top of the OLD state.
    return PersistCheckpoint(std::move(rotation));
  }();
  ReleaseCheckpointSlot();
  return status;
}

Status Database::Checkpoint() {
  if (read_only_) {
    return ReadOnlyError();
  }
  AcquireCheckpointSlot();
  CheckpointRotation rotation;
  Status status;
  bool persist_unlocked = false;
  {
    PipelinePause pause(*committer_);
    SueLock::UpdateGuard guard(lock_);
    status = CheckPoisoned();
    if (status.ok()) {
      status = RotateForCheckpointLocked(&rotation);
    }
    if (status.ok() && !options_.concurrent_checkpoint) {
      // Paper-original behaviour: the whole write happens under the update lock.
      status = PersistCheckpoint(std::move(rotation));
    } else if (status.ok()) {
      persist_unlocked = true;
    }
  }
  if (persist_unlocked) {
    status = PersistCheckpoint(std::move(rotation));
  }
  ReleaseCheckpointSlot();
  return status;
}

// Phase A. Caller holds the update lock with the pipeline paused. On success the
// live log is generation rotation->target and the durable `pending` marker makes it
// recoverable; on failure the engine keeps running on whatever log was live (a
// durable marker with an aborted rotation is harmless: it only extends the replay
// chain with logs that already exist).
Status Database::RotateForCheckpointLocked(CheckpointRotation* rotation, bool force_full) {
  Stopwatch stall_watch(*clock_);
  rotation->start_micros = clock_->NowMicros();

  // Capture a consistent snapshot — the only O(state) work updates must wait for
  // (O(churn) in delta mode). ReplaceState forces full: the replacement state shares
  // no ancestry with the old chain.
  Stopwatch capture_watch(*clock_);
  SDB_ASSIGN_OR_RETURN(rotation->capture,
                       CaptureCheckpoint(app_, delta_effective_ && !force_full,
                                         chain_state().length(),
                                         options_.delta_checkpoint));
  rotation->capture_micros = capture_watch.ElapsedMicros();

  rotation->base = version_.load(std::memory_order_relaxed);
  rotation->target = live_log_version_.load(std::memory_order_relaxed) + 1;

  // Durably create the next log generation and record it as live before any update
  // can commit to it: recovery must know to replay it on top of the base generation
  // while checkpoint `target` does not exist yet. The marker's directory sync also
  // makes the new log's name durable. On any failure from here the rotation aborts
  // with the old log still live — a staged delta window must be abandoned back into
  // the application's dirty set, or the keys it covers would vanish from every
  // future delta (found by the simulation harness: a transient marker-write error
  // during a delta rotation silently lost acknowledged updates from later chains).
  auto abort_rotation = [&](Status status) {
    if (rotation->capture.is_delta()) {
      app_.AbandonDeltaCapture();
      rotation->capture.delta = nullptr;
    }
    return status;
  };
  Status rotated_log =
      WriteWholeFile(*options_.vfs, version_store_.LogPath(rotation->target), ByteSpan{})
          .WithContext("creating rotated log");
  if (!rotated_log.ok()) {
    return abort_rotation(std::move(rotated_log));
  }
  Status marked = version_store_.WritePendingMarker(rotation->target)
                      .WithContext("recording pending checkpoint rotation");
  if (!marked.ok()) {
    return abort_rotation(std::move(marked));
  }

  // Swap the live writer. The pipeline is paused, so no batch holds the old one.
  Result<std::unique_ptr<LogWriter>> new_log_result = OpenLogForAppend(
      *options_.vfs, version_store_.LogPath(rotation->target), options_.log_writer);
  if (!new_log_result.ok()) {
    return abort_rotation(new_log_result.status());
  }
  std::unique_ptr<LogWriter> new_log = std::move(*new_log_result);
  Status closed = log_->Close();
  if (!closed.ok()) {
    SDB_LOG(kWarning) << "closing rotated-out log: " << closed;
  }
  log_ = std::move(new_log);
  log_sink_.set_log(log_.get());
  live_log_version_.store(rotation->target, std::memory_order_relaxed);
  commit_epoch_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_time_.store(clock_->NowMicros(), std::memory_order_relaxed);
  counters_.log_bytes->Set(static_cast<std::int64_t>(log_->size()));
  counters_.log_entries_since_checkpoint->Set(0);

  rotation->stall_micros = stall_watch.ElapsedMicros();
  if (obs::Enabled()) {
    registry_.GetHistogram("checkpoint.stall_us").Record(rotation->stall_micros);
    registry_.GetHistogram("checkpoint.snapshot_us").Record(rotation->capture_micros);
  }
  return OkStatus();
}

// Phase B. Needs no engine lock: it touches only the vfs, the version store, and
// atomics/registry. May run on the calling thread (manual checkpoints), under the
// update lock (legacy mode, ReplaceState), or on the background thread (automatic
// checkpoints).
Status Database::PersistCheckpoint(CheckpointRotation rotation) {
  if (rotation.capture.is_delta()) {
    return PersistDeltaCheckpoint(std::move(rotation));
  }
  CheckpointBreakdown breakdown;
  breakdown.stall_micros = rotation.stall_micros;

  Stopwatch serialize_watch(*clock_);
  Result<Bytes> snapshot = rotation.capture.full();
  if (!snapshot.ok()) {
    checkpoint_failures_->Increment();
    return snapshot.status().WithContext("serializing checkpoint snapshot");
  }
  breakdown.serialize_micros = rotation.capture_micros + serialize_watch.ElapsedMicros();

  Stopwatch disk_watch(*clock_);
  std::string checkpoint_path = version_store_.CheckpointPath(rotation.target);
  Stopwatch write_watch(*clock_);
  Status written = WriteWholeFile(*options_.vfs, checkpoint_path, AsSpan(*snapshot));
  Micros write_micros = write_watch.ElapsedMicros();
  if (!written.ok()) {
    checkpoint_failures_->Increment();
    // Don't leak a partial checkpoint; the rotated log is live and stays.
    Result<bool> partial = options_.vfs->Exists(checkpoint_path);
    if (partial.ok() && *partial) {
      Status removed = options_.vfs->Delete(checkpoint_path);
      if (!removed.ok()) {
        SDB_LOG(kWarning) << "removing partial checkpoint: " << removed;
      }
    }
    return written.WithContext("writing checkpoint");
  }

  bool switch_ambiguous = false;
  Stopwatch switch_watch(*clock_);
  Status switched =
      version_store_.CommitSwitch(rotation.base, rotation.target, &switch_ambiguous);
  Micros switch_micros = switch_watch.ElapsedMicros();
  if (!switched.ok()) {
    checkpoint_failures_->Increment();
    if (switch_ambiguous) {
      // The switch may have committed (or may still commit once pending metadata is
      // flushed): a restart could resolve to the new generation and ignore the old
      // log. Committing further updates to it would lose them, so fail-stop until a
      // reopen re-resolves the version. (Found by the simulation harness: a transient
      // fsync error here, followed by acknowledged updates, is a lost-update bug.)
      poisoned_ = true;
      return switched.WithContext(
          "checkpoint switch outcome ambiguous; database fail-stops until reopened");
    }
    // Clean abort: the base generation plus the pending log chain stays
    // authoritative. Remove the orphaned checkpoint so aborted switches don't leak a
    // generation; the next checkpoint re-targets past it.
    Status removed = options_.vfs->Delete(checkpoint_path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "removing checkpoint after aborted switch: " << removed;
    }
    return switched.WithContext("checkpoint switch aborted");
  }

  version_.store(rotation.target, std::memory_order_relaxed);
  // A full switch collapses any delta chain: CommitSwitch already deleted the
  // manifest and the superseded chain files before this point.
  {
    std::lock_guard<std::mutex> chain_lock(chain_mu_);
    chain_ = ChainState::Full(rotation.target, snapshot->size());
  }
  breakdown.disk_micros = disk_watch.ElapsedMicros();
  breakdown.total_micros = clock_->NowMicros() - rotation.start_micros;

  checkpoints_->Increment();
  if (obs::Enabled()) {
    registry_.GetHistogram("checkpoint.serialize_us").Record(breakdown.serialize_micros);
    registry_.GetHistogram("checkpoint.write_us").Record(write_micros);
    registry_.GetHistogram("checkpoint.switch_us").Record(switch_micros);
    registry_.GetHistogram("checkpoint.disk_us").Record(breakdown.disk_micros);
    registry_.GetHistogram("checkpoint.total_us").Record(breakdown.total_micros);
    registry_.GetGauge("checkpoint.delta.chain_len").Set(1);
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.last_checkpoint = breakdown;
  }
  return OkStatus();
}

// Phase B, delta flavour: writes delta<target> extending the current chain instead
// of a self-contained checkpoint. Durable ordering is what makes it crash-safe:
//   1. delta<target> written + synced (content durable, unreferenced);
//   2. manifest republished naming chain + target (atomic rename, durable) — from
//      here any resolution of the switch has its composition recipe on disk;
//   3. CommitSwitch(base, target) — the ordinary commit point.
// A crash after 2 but before 3 leaves target as a manifest orphan, truncated and
// swept by the next open. The staged dirty window is committed only after 3
// succeeds; every failure path abandons it back into the application's dirty set.
Status Database::PersistDeltaCheckpoint(CheckpointRotation rotation) {
  CheckpointBreakdown breakdown;
  breakdown.stall_micros = rotation.stall_micros;

  Stopwatch serialize_watch(*clock_);
  Result<Application::DeltaSnapshot> delta = rotation.capture.delta();
  if (!delta.ok()) {
    checkpoint_failures_->Increment();
    app_.AbandonDeltaCapture();
    return delta.status().WithContext("serializing delta snapshot");
  }
  breakdown.serialize_micros = rotation.capture_micros + serialize_watch.ElapsedMicros();

  Stopwatch disk_watch(*clock_);
  const std::string delta_path = version_store_.DeltaPath(rotation.target);
  Stopwatch write_watch(*clock_);
  Status written = WriteWholeFile(*options_.vfs, delta_path, AsSpan(delta->bytes));
  Micros write_micros = write_watch.ElapsedMicros();
  if (!written.ok()) {
    checkpoint_failures_->Increment();
    Result<bool> partial = options_.vfs->Exists(delta_path);
    if (partial.ok() && *partial) {
      Status removed = options_.vfs->Delete(delta_path);
      if (!removed.ok()) {
        SDB_LOG(kWarning) << "removing partial delta checkpoint: " << removed;
      }
    }
    app_.AbandonDeltaCapture();
    return written.WithContext("writing delta checkpoint");
  }

  DeltaChain extended = chain_state();
  extended.deltas.push_back(rotation.target);
  Status published = version_store_.PublishManifest(extended);
  if (!published.ok()) {
    checkpoint_failures_->Increment();
    // The manifest may or may not name target now, but either way the switch never
    // happened, so target is at worst an orphan delta entry — truncated by the next
    // open, never corruption. Deleting the delta file under it is therefore safe.
    Status removed = options_.vfs->Delete(delta_path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "removing delta after failed manifest publish: " << removed;
    }
    app_.AbandonDeltaCapture();
    return published.WithContext("publishing delta chain manifest");
  }

  bool switch_ambiguous = false;
  Stopwatch switch_watch(*clock_);
  Status switched =
      version_store_.CommitSwitch(rotation.base, rotation.target, &switch_ambiguous);
  Micros switch_micros = switch_watch.ElapsedMicros();
  if (!switched.ok()) {
    checkpoint_failures_->Increment();
    if (switch_ambiguous) {
      // Same fail-stop as the full path. Both resolutions stay consistent: the
      // manifest names target, so a restart that resolves to the new generation
      // composes through the delta, and one that resolves to the old generation
      // truncates it as an orphan. Abandon so a post-reopen capture re-covers the
      // window (replay re-marks it dirty anyway).
      poisoned_ = true;
      app_.AbandonDeltaCapture();
      return switched.WithContext(
          "delta checkpoint switch outcome ambiguous; database fail-stops until reopened");
    }
    // Clean abort: roll the manifest back BEFORE deleting the delta file — the
    // durable manifest must never reference a file we already deleted. A crash in
    // between leaves an orphan manifest entry (truncated), never a broken chain.
    DeltaChain rollback = chain_state();
    Status unpublished = OkStatus();
    if (rollback.has_deltas()) {
      unpublished = version_store_.PublishManifest(rollback);
    } else {
      // First delta over a bare base: canonical rollback is "no manifest".
      Result<bool> manifest_exists = options_.vfs->Exists(version_store_.ManifestPath());
      if (manifest_exists.ok() && *manifest_exists) {
        unpublished = options_.vfs->Delete(version_store_.ManifestPath());
      }
    }
    if (!unpublished.ok()) {
      SDB_LOG(kWarning) << "rolling back delta manifest after aborted switch: "
                        << unpublished;
    }
    Status removed = options_.vfs->Delete(delta_path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "removing delta after aborted switch: " << removed;
    }
    app_.AbandonDeltaCapture();
    return switched.WithContext("delta checkpoint switch aborted");
  }

  version_.store(rotation.target, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> chain_lock(chain_mu_);
    chain_.deltas.push_back(rotation.target);  // == extended: the slot is held
    chain_.delta_bytes += delta->bytes.size();
  }
  app_.CommitDeltaCapture();
  breakdown.disk_micros = disk_watch.ElapsedMicros();
  breakdown.total_micros = clock_->NowMicros() - rotation.start_micros;

  checkpoints_->Increment();
  delta_checkpoints_->Increment();
  if (obs::Enabled()) {
    registry_.GetHistogram("checkpoint.serialize_us").Record(breakdown.serialize_micros);
    registry_.GetHistogram("checkpoint.write_us").Record(write_micros);
    registry_.GetHistogram("checkpoint.switch_us").Record(switch_micros);
    registry_.GetHistogram("checkpoint.disk_us").Record(breakdown.disk_micros);
    registry_.GetHistogram("checkpoint.total_us").Record(breakdown.total_micros);
    registry_.GetHistogram("checkpoint.delta.bytes")
        .Record(static_cast<Micros>(delta->bytes.size()));
    registry_.GetHistogram("checkpoint.delta.objects")
        .Record(static_cast<Micros>(delta->objects));
    registry_.GetGauge("checkpoint.delta.chain_len")
        .Set(static_cast<std::int64_t>(extended.length()));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.last_checkpoint = breakdown;
  }

  if (options_.delta_checkpoint.background_compaction) {
    MaybeScheduleCompaction();
  } else if (chain_state().CompactionDue(options_.delta_checkpoint)) {
    // Inline (deterministic) mode: compact right here, while the checkpoint slot —
    // which the compactor needs exclusively — is still held by this persist.
    Status compacted = CompactChain();
    if (!compacted.ok()) {
      compaction_failures_->Increment();
      SDB_LOG(kWarning) << "inline chain compaction failed: " << compacted;
    }
  }
  return OkStatus();
}

ChainState Database::chain_state() const {
  std::lock_guard<std::mutex> chain_lock(chain_mu_);
  return chain_;
}

// Collapses base + deltas into a self-contained checkpoint(top). Caller holds the
// checkpoint slot, so the chain cannot move underneath. Durable ordering:
//   1. checkpoint(top) written from the ON-DISK chain (ComposeCheckpoint is pure —
//      the live state has moved on) + directory sync;
//   2. delete the manifest — the commit point: checkpoint(top) is now the
//      generation's authority (before this, it is an orphan the next open sweeps);
//   3. reclaim the old base and delta files (failures just leave swept-later
//      garbage).
// No step poisons: until 2 the chain stays authoritative, after 2 the collapsed
// base is, and both describe the same state.
Status Database::CompactChain() {
  const DeltaChain chain = chain_state();
  if (!chain.has_deltas()) {
    return OkStatus();
  }

  Stopwatch compact_watch(*clock_);
  Result<Bytes> composed = ReadChain(
      *options_.vfs, app_, chain,
      [this](std::uint64_t v) { return version_store_.CheckpointPath(v); },
      [this](std::uint64_t v) { return version_store_.DeltaPath(v); });
  if (!composed.ok()) {
    return composed.status().WithContext("compacting delta chain");
  }

  const std::string new_base_path = version_store_.CheckpointPath(chain.top());
  auto remove_partial = [&] {
    Status removed = options_.vfs->Delete(new_base_path);
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "removing partial compacted checkpoint: " << removed;
    }
  };
  Status written = WriteWholeFile(*options_.vfs, new_base_path, AsSpan(*composed));
  if (!written.ok()) {
    Result<bool> partial = options_.vfs->Exists(new_base_path);
    if (partial.ok() && *partial) {
      remove_partial();
    }
    return written.WithContext("writing compacted checkpoint");
  }
  Status synced = options_.vfs->SyncDir(options_.dir);
  if (!synced.ok()) {
    remove_partial();
    return synced.WithContext("syncing compacted checkpoint");
  }

  // The commit point. On failure the manifest — and with it the chain — simply
  // stays authoritative; checkpoint(top) is an orphan the next open sweeps.
  Status committed = options_.vfs->Delete(version_store_.ManifestPath());
  if (!committed.ok()) {
    remove_partial();
    return committed.WithContext("retiring delta manifest after compaction");
  }
  Status commit_synced = options_.vfs->SyncDir(options_.dir);
  if (!commit_synced.ok()) {
    // The deletion may or may not be durable, but BOTH resolutions now describe the
    // same state (chain composition == checkpoint(top)), so don't fail the engine —
    // just skip reclamation: the chain files must survive in case the manifest does.
    SDB_LOG(kWarning) << "syncing manifest retirement: " << commit_synced
                      << " (chain files retained)";
  } else {
    for (std::uint64_t delta_version : chain.deltas) {
      Status removed = options_.vfs->Delete(version_store_.DeltaPath(delta_version));
      if (!removed.ok()) {
        SDB_LOG(kWarning) << "reclaiming chain delta: " << removed;
      }
    }
    Status removed = options_.vfs->Delete(version_store_.CheckpointPath(chain.base));
    if (!removed.ok()) {
      SDB_LOG(kWarning) << "reclaiming chain base: " << removed;
    }
    Status reclaim_synced = options_.vfs->SyncDir(options_.dir);
    if (!reclaim_synced.ok()) {
      SDB_LOG(kWarning) << "syncing chain reclamation: " << reclaim_synced;
    }
  }

  {
    std::lock_guard<std::mutex> chain_lock(chain_mu_);
    chain_ = ChainState::Full(chain.top(), composed->size());
  }
  compaction_runs_->Increment();
  compaction_bytes_->Add(composed->size());
  if (obs::Enabled()) {
    registry_.GetHistogram("compaction.duration_us").Record(compact_watch.ElapsedMicros());
    registry_.GetGauge("checkpoint.delta.chain_len").Set(1);
  }
  SDB_LOG(kDebug) << "compacted delta chain of " << chain.length() << " levels into "
                  << new_base_path;
  return OkStatus();
}

void Database::MaybeScheduleCompaction() {
  if (read_only_ || shutting_down_.load(std::memory_order_relaxed) ||
      !chain_state().CompactionDue(options_.delta_checkpoint)) {
    return;
  }
  // Single-flight: the flag is cleared as the compaction thread's LAST action, after
  // it released the checkpoint slot — so winning the exchange proves the previous
  // thread is past everything that could block, and joining it here (possibly while
  // this caller holds the slot) cannot deadlock.
  if (compaction_in_flight_.exchange(true, std::memory_order_acq_rel)) {
    return;  // one already running; the next delta persist re-checks
  }
  std::lock_guard<std::mutex> gate(compaction_mu_);
  if (compaction_thread_.joinable()) {
    compaction_thread_.join();
  }
  compaction_thread_ = std::thread([this] {
    AcquireCheckpointSlot();
    if (!shutting_down_.load(std::memory_order_relaxed) &&
        chain_state().CompactionDue(options_.delta_checkpoint)) {
      Status compacted = CompactChain();
      if (!compacted.ok()) {
        compaction_failures_->Increment();
        SDB_LOG(kWarning) << "background chain compaction failed: " << compacted;
      }
    }
    ReleaseCheckpointSlot();
    compaction_in_flight_.store(false, std::memory_order_release);
  });
}

bool Database::AutoCheckpointDue() const {
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  if (policy.every_n_updates != 0 &&
      static_cast<std::uint64_t>(counters_.log_entries_since_checkpoint->value()) >=
          policy.every_n_updates) {
    return true;
  }
  if (policy.log_bytes_threshold != 0 && log_bytes() >= policy.log_bytes_threshold) {
    return true;
  }
  if (policy.interval_micros != 0 &&
      clock_->NowMicros() - last_checkpoint_time_.load(std::memory_order_relaxed) >=
          policy.interval_micros) {
    return true;
  }
  return false;
}

void Database::AcquireCheckpointSlot() {
  std::unique_lock<std::mutex> gate(checkpoint_mu_);
  checkpoint_cv_.wait(gate, [this] { return !checkpoint_in_flight_; });
  if (checkpoint_thread_.joinable()) {
    checkpoint_thread_.join();  // already released the slot; reap it
  }
  checkpoint_in_flight_ = true;
  checkpoint_in_progress_->Set(1);
}

void Database::ReleaseCheckpointSlot() {
  {
    std::lock_guard<std::mutex> gate(checkpoint_mu_);
    checkpoint_in_flight_ = false;
    checkpoint_in_progress_->Set(0);
  }
  checkpoint_cv_.notify_all();
}

void Database::MaybeAutoCheckpoint() {
  if (!AutoCheckpointDue()) {
    return;
  }
  // One checkpoint at a time: with concurrent updaters, every waiter of the
  // triggering batch would otherwise pile in back-to-back. Waiting (rather than
  // skipping) keeps the policy exact — and the wait is for the previous
  // checkpoint's background persist, not for a lock-holding stall.
  AcquireCheckpointSlot();
  if (!AutoCheckpointDue()) {  // the checkpoint we waited on reset the trigger
    ReleaseCheckpointSlot();
    return;
  }
  CheckpointRotation rotation;
  Status status;
  {
    PipelinePause pause(*committer_);
    SueLock::UpdateGuard guard(lock_);
    status = CheckPoisoned();
    if (status.ok()) {
      status = RotateForCheckpointLocked(&rotation);
    }
  }
  if (!status.ok()) {
    ReleaseCheckpointSlot();
    SDB_LOG(kWarning) << "automatic checkpoint failed: " << status;
    return;
  }
  auto_checkpoints_->Increment();
  if (!options_.concurrent_checkpoint) {
    Status persisted = PersistCheckpoint(std::move(rotation));
    ReleaseCheckpointSlot();
    if (!persisted.ok()) {
      SDB_LOG(kWarning) << "automatic checkpoint failed: " << persisted;
    }
    return;
  }
  // Hand the slot to a background thread: the triggering updater returns while the
  // snapshot streams to disk. The thread is reaped by the next slot acquirer (or the
  // destructor).
  std::lock_guard<std::mutex> gate(checkpoint_mu_);
  checkpoint_thread_ = std::thread([this, r = std::move(rotation)]() mutable {
    Status persisted = PersistCheckpoint(std::move(r));
    if (!persisted.ok()) {
      SDB_LOG(kWarning) << "background checkpoint persist failed: " << persisted;
    }
    ReleaseCheckpointSlot();
  });
}

std::uint64_t Database::current_version() const {
  return version_.load(std::memory_order_relaxed);
}

std::uint64_t Database::live_log_version() const {
  return live_log_version_.load(std::memory_order_relaxed);
}

DeltaChain Database::delta_chain() const { return chain_state(); }

std::uint64_t Database::log_bytes() const {
  return static_cast<std::uint64_t>(counters_.log_bytes->value());
}

LogWriterStats Database::log_writer_stats() const {
  return log_ != nullptr ? log_->stats() : LogWriterStats{};
}

DatabaseStats Database::stats() const {
  DatabaseStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.enquiries = enquiries_->value();
  snapshot.updates = counters_.updates->value();
  snapshot.update_precondition_failures = counters_.precondition_failures->value();
  snapshot.update_commit_failures = counters_.commit_failures->value();
  snapshot.checkpoints = checkpoints_->value();
  snapshot.auto_checkpoints = auto_checkpoints_->value();
  snapshot.log_entries_since_checkpoint =
      static_cast<std::uint64_t>(counters_.log_entries_since_checkpoint->value());
  snapshot.group_commit = committer_->stats();
  return snapshot;
}

std::string Database::MetricsReport() const {
  std::string out = "== database metrics: " + options_.dir + " ==\n";
  out += registry_.DumpText();
  return out;
}

std::string Database::MetricsReportJson() const { return registry_.DumpJson(); }

std::vector<obs::CommitTrace> Database::DumpTrace() const {
  if (trace_ring_ == nullptr) {
    return {};
  }
  return trace_ring_->Dump();
}

}  // namespace sdb
