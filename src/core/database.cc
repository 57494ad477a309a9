#include "src/core/database.h"

#include "src/common/logging.h"
#include "src/core/parallel_replay.h"

namespace sdb {

Database::Database(Application& app, DatabaseOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &wall_clock_),
      version_store_(*options_.vfs, options_.dir,
                     VersionStoreOptions{options_.keep_previous_checkpoint,
                                         options_.retain_logs_for_audit}) {
  EngineUnitOptions unit_options;
  unit_options.vfs = options_.vfs;
  unit_options.dir = options_.dir;
  unit_options.clock = clock_;
  unit_options.group_commit = options_.group_commit;
  unit_options.delta_checkpoint = options_.delta_checkpoint;
  // Delta mode needs self-contained-checkpoint retention OFF: the previous-
  // generation hard-error fallback reloads checkpoint(N-1) directly, which a delta
  // file is not. Application support is probed per checkpoint (a null capture
  // closure falls back to a full snapshot).
  unit_options.delta_mode = options_.delta_checkpoint.enabled &&
                            !options_.keep_previous_checkpoint &&
                            !options_.fallback_to_previous_checkpoint;
  unit_options.trace_ring_capacity = options_.trace_ring_capacity;
  ChainLayout& layout = *this;  // the private-base upcast must happen in a member
  unit_ = std::make_unique<EngineUnit>(app, layout, &log_sink_, std::move(unit_options));
  auto_checkpoints_ = &unit_->registry().GetCounter("db.auto_checkpoints");
}

Database::~Database() {
  // A background persist calls back into this layout (and may poison the unit): let
  // it finish while both are whole. Then no batch may outlive the log writer.
  unit_->AwaitCheckpoint();
  unit_.reset();
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
    restart_.finished_interrupted_switch = state.finished_interrupted_switch;
    SDB_RETURN_IF_ERROR(LoadCheckpointAndReplay(state));
  }
  SDB_ASSIGN_OR_RETURN(
      log_, OpenLogForAppend(*options_.vfs,
                             version_store_.LogPath(
                                 live_log_version_.load(std::memory_order_relaxed)),
                             options_.log_writer));
  log_sink_.set_log(log_.get());
  unit_->counters().log_bytes->Set(static_cast<std::int64_t>(log_->size()));
  last_checkpoint_time_.store(clock_->NowMicros(), std::memory_order_relaxed);
  return OkStatus();
}

Status Database::InitFreshDatabase() {
  version_.store(1, std::memory_order_relaxed);
  SDB_RETURN_IF_ERROR(unit_->app().ResetState());
  SDB_ASSIGN_OR_RETURN(Bytes snapshot, unit_->app().SerializeState());
  SDB_RETURN_IF_ERROR(
      WriteWholeFile(*options_.vfs, version_store_.CheckpointPath(1), AsSpan(snapshot)));
  SDB_RETURN_IF_ERROR(WriteWholeFile(*options_.vfs, version_store_.LogPath(1), ByteSpan{}));
  SDB_RETURN_IF_ERROR(options_.vfs->SyncDir(options_.dir));
  unit_->set_chain(ChainState::Full(1, snapshot.size()));
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
  const std::size_t replay_app = replayer.AddApplication(unit_->app());
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
      *options_.vfs, unit_->app(), state.chain,
      [this](std::uint64_t v) { return version_store_.CheckpointPath(v); },
      [this](std::uint64_t v) { return version_store_.DeltaPath(v); }, &loaded);
  if (!checkpoint.ok() && state.chain.has_deltas()) {
    // A broken chain fails the open: the previous-generation fallback below serves
    // only self-contained checkpoints.
    return checkpoint.status();
  }
  Status load_status = checkpoint.status();
  if (checkpoint.ok()) {
    SDB_RETURN_IF_ERROR(unit_->app().ResetState());
    load_status = unit_->app().DeserializeState(AsSpan(*checkpoint));
    unit_->set_chain(std::move(loaded));
  }
  unit_->registry().GetGauge("restart.chain_deltas_composed")
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
    SDB_RETURN_IF_ERROR(unit_->app().ResetState());
    SDB_RETURN_IF_ERROR(unit_->app().DeserializeState(AsSpan(snapshot))
                            .WithContext("loading previous checkpoint"));
    SDB_ASSIGN_OR_RETURN(LogReplayStats prev_replay,
                         ReplayLogFile(*options_.vfs, version_store_.LogPath(prev),
                                       replay_options, apply));
    restart_.entries_replayed += prev_replay.entries_replayed;
    restart_.entries_skipped += prev_replay.entries_skipped;
    used_previous = true;
  }
  restart_.checkpoint_read_micros = restart_watch.ElapsedMicros();
  restart_.used_previous_checkpoint = used_previous;

  // Step 3: replay the updates from the log — then any rotated-but-unswitched logs a
  // pending concurrent checkpoint left behind, in generation order (dual-log
  // resolution: acknowledged updates kept committing to the rotated log while the
  // checkpoint that would have covered them was still in flight at the crash).
  Stopwatch replay_watch(*clock_);
  SDB_ASSIGN_OR_RETURN(LogReplayStats replay,
                       ReplayLogFile(*options_.vfs, state.log_path, replay_options, apply));
  std::uint64_t entries_since_checkpoint = replay.entries_replayed;
  restart_.entries_replayed += replay.entries_replayed;
  restart_.entries_skipped += replay.entries_skipped;
  restart_.partial_tail_discarded = replay.partial_tail_discarded;
  for (std::uint64_t pending_version : state.pending_log_versions) {
    SDB_ASSIGN_OR_RETURN(
        LogReplayStats pending_replay,
        ReplayLogFile(*options_.vfs, version_store_.LogPath(pending_version),
                      replay_options, apply));
    entries_since_checkpoint += pending_replay.entries_replayed;
    restart_.entries_replayed += pending_replay.entries_replayed;
    restart_.entries_skipped += pending_replay.entries_skipped;
    restart_.partial_tail_discarded |= pending_replay.partial_tail_discarded;
    ++restart_.pending_logs_replayed;
  }
  SDB_RETURN_IF_ERROR(replayer.Finish().WithContext("parallel log replay"));
  // Wall-clock elapsed for the whole phase (the stopwatch spans reads, batch
  // apply and merge); the CPU aggregate is reported separately so parallel
  // replay never inflates the elapsed number.
  restart_.replay_micros = replay_watch.ElapsedMicros();
  const ParallelReplayStats& parallel = replayer.stats();
  restart_.replay_batches = parallel.batches;
  restart_.replay_threads_used = parallel.threads_used;
  restart_.partition_pass_micros = parallel.partition_pass_micros;
  restart_.batch_apply_micros = parallel.batch_apply_micros;
  restart_.replay_cpu_micros =
      parallel.batches > 0
          ? parallel.partition_pass_micros + parallel.batch_apply_micros
          : restart_.replay_micros;  // serial: one thread, CPU == wall
  unit_->counters().log_entries_since_checkpoint->Set(
      static_cast<std::int64_t>(entries_since_checkpoint));
  // Restart timings, mirrored into the registry for MetricsReport.
  unit_->registry().GetGauge("restart.checkpoint_read_us")
      .Set(restart_.checkpoint_read_micros);
  unit_->registry().GetGauge("restart.replay_us").Set(restart_.replay_micros);
  unit_->registry().GetGauge("restart.replay_cpu_us").Set(restart_.replay_cpu_micros);
  unit_->registry().GetGauge("restart.replay.batches")
      .Set(static_cast<std::int64_t>(restart_.replay_batches));
  unit_->registry().GetGauge("restart.replay.threads_used")
      .Set(static_cast<std::int64_t>(restart_.replay_threads_used));
  unit_->registry().GetGauge("restart.replay.partition_pass_us")
      .Set(restart_.partition_pass_micros);
  unit_->registry().GetGauge("restart.replay.batch_apply_us")
      .Set(restart_.batch_apply_micros);
  unit_->registry().GetGauge("restart.entries_replayed")
      .Set(static_cast<std::int64_t>(restart_.entries_replayed));
  unit_->registry().GetGauge("restart.pending_logs_replayed")
      .Set(static_cast<std::int64_t>(restart_.pending_logs_replayed));
  SDB_LOG(kDebug) << "recovered " << options_.dir << ": checkpoint read in "
                  << restart_.checkpoint_read_micros << " us, "
                  << restart_.entries_replayed << " log entries replayed in "
                  << restart_.replay_micros << " us";
  return OkStatus();
}

namespace {

Status ReadOnlyError() {
  return FailedPreconditionError("database was opened read-only");
}

}  // namespace

Status Database::Enquire(const std::function<Status()>& enquiry) {
  return unit_->Enquire(enquiry);
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
  SDB_RETURN_IF_ERROR(unit_->committer().Submit({prepares.data(), prepares.size()}));
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
  out = unit_->committer().SubmitMany({prepares.data(), prepares.size()});
  MaybeAutoCheckpoint();
  return out;
}

Status Database::ReplaceState(ByteSpan state) {
  if (read_only_) {
    return ReadOnlyError();
  }
  EngineUnit::CheckpointRun run;
  run.replacement = &state;
  // Persist while still holding the update lock, even with concurrent_checkpoint:
  // an update committed against the replacement state must never land in a log
  // that a pre-switch recovery would replay on top of the OLD state.
  run.persist_under_lock = true;
  return unit_->Checkpoint(run);
}

Status Database::Checkpoint() {
  if (read_only_) {
    return ReadOnlyError();
  }
  EngineUnit::CheckpointRun run;
  // Paper-original behaviour when concurrent checkpoints are off: the whole write
  // happens under the update lock.
  run.persist_under_lock = !options_.concurrent_checkpoint;
  return unit_->Checkpoint(run);
}

void Database::MaybeAutoCheckpoint() {
  if (!AutoCheckpointDue()) {
    return;
  }
  // One checkpoint at a time: with concurrent updaters, every waiter of the
  // triggering batch would otherwise pile in back-to-back. Waiting for the slot
  // (rather than skipping) keeps the policy exact — and the wait is for the previous
  // checkpoint's background persist, not for a lock-holding stall. The triggering
  // updater returns while the snapshot streams to disk on the unit's thread.
  EngineUnit::CheckpointRun run;
  run.still_due = [this] {
    if (!AutoCheckpointDue()) {
      return false;  // the checkpoint we waited on reset the trigger
    }
    auto_checkpoints_->Increment();
    return true;
  };
  run.persist_under_lock = !options_.concurrent_checkpoint;
  run.hand_off = options_.concurrent_checkpoint;
  Status status = unit_->Checkpoint(run);
  if (!status.ok()) {
    SDB_LOG(kWarning) << "automatic checkpoint failed: " << status;
  }
}

bool Database::AutoCheckpointDue() const {
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  if (policy.every_n_updates != 0 &&
      static_cast<std::uint64_t>(unit_->counters().log_entries_since_checkpoint->value()) >=
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

std::string Database::CheckpointPath(std::uint64_t version) const {
  return version_store_.CheckpointPath(version);
}

std::string Database::DeltaPath(std::uint64_t version) const {
  return version_store_.DeltaPath(version);
}

// The rotate step. On success the live log is generation rotation.target and the
// durable `pending` marker makes it recoverable; on failure the engine keeps running
// on whatever log was live (a durable marker with an aborted rotation is harmless: it
// only extends the replay chain with logs that already exist).
Status Database::RotateForCheckpoint(CheckpointRotation& rotation) {
  rotation.target = live_log_version_.load(std::memory_order_relaxed) + 1;
  // Durably create the next log generation and record it as live before any update
  // can commit to it: recovery must know to replay it on top of the base generation
  // while checkpoint `target` does not exist yet. The marker's directory sync also
  // makes the new log's name durable.
  SDB_RETURN_IF_ERROR(
      WriteWholeFile(*options_.vfs, version_store_.LogPath(rotation.target), ByteSpan{})
          .WithContext("creating rotated log"));
  SDB_RETURN_IF_ERROR(version_store_.WritePendingMarker(rotation.target)
                          .WithContext("recording pending checkpoint rotation"));

  // Swap the live writer. The pipeline is paused, so no batch holds the old one.
  SDB_ASSIGN_OR_RETURN(
      std::unique_ptr<LogWriter> new_log,
      OpenLogForAppend(*options_.vfs, version_store_.LogPath(rotation.target),
                       options_.log_writer));
  Status closed = log_->Close();
  if (!closed.ok()) {
    SDB_LOG(kWarning) << "closing rotated-out log: " << closed;
  }
  log_ = std::move(new_log);
  log_sink_.set_log(log_.get());
  live_log_version_.store(rotation.target, std::memory_order_relaxed);
  last_checkpoint_time_.store(clock_->NowMicros(), std::memory_order_relaxed);
  unit_->counters().log_bytes->Set(static_cast<std::int64_t>(log_->size()));
  return OkStatus();
}

// The publish step: the paper's version switch. A delta's durable ordering is what
// makes it crash-safe:
//   1. delta<target> written + synced (content durable, unreferenced; the unit);
//   2. manifest republished naming chain + target (atomic rename, durable) — from
//      here any resolution of the switch has its composition recipe on disk;
//   3. CommitSwitch(base, target) — the ordinary commit point.
// A crash after 2 but before 3 leaves target as a manifest orphan, truncated and
// swept by the next open. A compaction's commit point is the manifest's deletion.
PublishOutcome Database::Publish(const CheckpointRotation* rotation, const ChainState& prev,
                                 const ChainState& next, Status& error) {
  if (rotation == nullptr) {
    // Compaction. On a failed delete the manifest — and with it the chain — simply
    // stays authoritative.
    error = options_.vfs->Delete(version_store_.ManifestPath())
                .WithContext("retiring delta manifest after compaction");
    if (!error.ok()) {
      return PublishOutcome::kAborted;
    }
    // The deletion may or may not be durable, but BOTH resolutions describe the same
    // state (chain composition == checkpoint(top)), so the engine runs on; the chain
    // files must survive in case the manifest does.
    error = options_.vfs->SyncDir(options_.dir).WithContext("syncing manifest retirement");
    return error.ok() ? PublishOutcome::kCommitted : PublishOutcome::kAmbiguous;
  }
  if (next.has_deltas()) {
    // On failure the manifest may or may not name target, but the switch never
    // happened, so target is at worst an orphan entry — truncated by the next open,
    // never corruption — and the unit may delete the delta file under it.
    error = version_store_.PublishManifest(next).WithContext(
        "publishing delta chain manifest");
    if (!error.ok()) {
      return PublishOutcome::kAborted;
    }
  }
  bool ambiguous = false;
  error = version_store_.CommitSwitch(version_.load(std::memory_order_relaxed),
                                      rotation->target, &ambiguous);
  if (error.ok()) {
    // CommitSwitch deleted the superseded generation — and, for a full switch, the
    // manifest and the old chain files — after its commit point.
    version_.store(rotation->target, std::memory_order_relaxed);
    return PublishOutcome::kCommittedAndSwept;
  }
  if (ambiguous) {
    // The switch may have committed (or may still commit once pending metadata is
    // flushed): a restart could resolve to the new generation and ignore the old
    // log. Committing further updates to it would lose them, so fail-stop until a
    // reopen re-resolves the version. (Found by the simulation harness: a transient
    // fsync error here, followed by acknowledged updates, is a lost-update bug.) A
    // delta stays consistent either way: the manifest names target, so a restart
    // that resolves to the new generation composes through it, and one that
    // resolves to the old generation truncates it as an orphan.
    unit_->Poison("a checkpoint switch outcome is ambiguous");
    error = error.WithContext(
        "checkpoint switch outcome ambiguous; database fail-stops until reopened");
    return PublishOutcome::kAmbiguous;
  }
  // Clean abort: the base generation plus the pending log chain stays authoritative.
  // Roll the manifest back BEFORE the unit deletes the delta file — the durable
  // manifest must never reference a file already deleted. A crash in between leaves
  // an orphan manifest entry (truncated), never a broken chain.
  if (next.has_deltas()) {
    Status unpublished = OkStatus();
    if (prev.has_deltas()) {
      unpublished = version_store_.PublishManifest(prev);
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
  }
  error = error.WithContext("checkpoint switch aborted");
  return PublishOutcome::kAborted;
}

std::uint64_t Database::current_version() const {
  return version_.load(std::memory_order_relaxed);
}

std::uint64_t Database::live_log_version() const {
  return live_log_version_.load(std::memory_order_relaxed);
}

DeltaChain Database::delta_chain() const { return unit_->chain(); }

std::uint64_t Database::log_bytes() const {
  return static_cast<std::uint64_t>(unit_->counters().log_bytes->value());
}

LogWriterStats Database::log_writer_stats() const {
  return log_ != nullptr ? log_->stats() : LogWriterStats{};
}

DatabaseStats Database::stats() const {
  const obs::Registry& registry = unit_->registry();
  DatabaseStats snapshot;
  snapshot.enquiries = registry.FindCounter("db.enquiries")->value();
  snapshot.updates = unit_->counters().updates->value();
  snapshot.update_precondition_failures = unit_->counters().precondition_failures->value();
  snapshot.update_commit_failures = unit_->counters().commit_failures->value();
  snapshot.checkpoints = registry.FindCounter("db.checkpoints")->value();
  snapshot.auto_checkpoints = auto_checkpoints_->value();
  snapshot.log_entries_since_checkpoint =
      static_cast<std::uint64_t>(unit_->counters().log_entries_since_checkpoint->value());
  snapshot.last_update = unit_->last_update();
  snapshot.last_checkpoint = unit_->last_checkpoint();
  snapshot.restart = restart_;
  snapshot.group_commit = unit_->committer().stats();
  return snapshot;
}

std::string Database::MetricsReport() const {
  std::string out = "== database metrics: " + options_.dir + " ==\n";
  out += unit_->registry().DumpText();
  return out;
}

std::string Database::MetricsReportJson() const { return unit_->registry().DumpJson(); }

std::vector<obs::CommitTrace> Database::DumpTrace() const { return unit_->DumpTrace(); }

}  // namespace sdb
