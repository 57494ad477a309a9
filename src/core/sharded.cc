#include "src/core/sharded.h"

#include <algorithm>
#include <charconv>
#include <thread>

#include "src/common/logging.h"
#include "src/core/log_reader.h"
#include "src/core/parallel_replay.h"
#include "src/pickle/pickle.h"
#include "src/pickle/traits.h"

namespace sdb {
namespace {

struct ShardMeta {
  std::uint64_t checkpoint_version = 0;
  std::uint64_t replay_from = 0;
  // The shard's checkpoint chain. chain_deltas empty means the checkpoint is
  // self-contained (chain_base == checkpoint_version); otherwise the state is
  // p.checkpoint<chain_base> composed with each p.delta<v> in order, and the
  // last delta version equals checkpoint_version.
  std::uint64_t chain_base = 0;
  std::vector<std::uint64_t> chain_deltas;
  SDB_PICKLE_FIELDS(ShardMeta, checkpoint_version, replay_from, chain_base, chain_deltas)
};

std::optional<std::uint64_t> ParseDecimal(std::string_view text) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

// --- ShardRouter ---

std::uint64_t ShardRouter::HashKey(std::string_view key) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Avalanche finalizer (MurmurHash3 fmix64). Raw FNV-1a runs only one multiply
  // after the final byte, so keys differing in trailing characters land within a
  // tiny arc of the ring and lower_bound routes them to the same shard; mixing the
  // low bits back into the high bits restores uniform dispersion.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

ShardRouter::ShardRouter(std::size_t shards, std::size_t vnodes_per_shard)
    : shards_(shards) {
  std::size_t vnodes = std::max<std::size_t>(vnodes_per_shard, 1);
  ring_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      std::string label = "shard:" + std::to_string(s) + ":" + std::to_string(v);
      ring_.emplace_back(HashKey(label), static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::Route(std::string_view key) const {
  if (shards_ <= 1) {
    return 0;
  }
  std::uint64_t h = HashKey(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& point, std::uint64_t hash) {
        return point.first < hash;
      });
  if (it == ring_.end()) {
    it = ring_.begin();  // the ring wraps
  }
  return it->second;
}

// --- ShardSink ---

Status ShardedDatabase::ShardSink::AppendRecords(std::span<const ByteSpan> payloads) {
  framed_.clear();
  spans_.clear();
  framed_.reserve(payloads.size());
  spans_.reserve(payloads.size());
  for (ByteSpan payload : payloads) {
    ByteWriter framed;
    framed.PutVarint(shard_);
    framed.PutBytes(payload);
    framed_.push_back(std::move(framed).Take());
    spans_.push_back(AsSpan(framed_.back()));
  }
  SDB_ASSIGN_OR_RETURN(ticket_, coalescer_->AppendBatch(spans_));
  return OkStatus();
}

Result<std::uint64_t> ShardedDatabase::ShardSink::SyncRecords() {
  return coalescer_->AwaitDurable(ticket_);
}

// --- ShardUnit ---

Result<std::uint64_t> ShardedDatabase::ShardUnit::BatchBegin() {
  if (ensemble_poisoned->load(std::memory_order_relaxed)) {
    return InternalError(
        "sharded ensemble fail-stopped by an aborted log rotation; reopen to recover");
  }
  if (poisoned.load(std::memory_order_relaxed)) {
    return InternalError("shard poisoned by an earlier apply failure; reopen to recover");
  }
  return commit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

Status ShardedDatabase::ShardUnit::BatchApply(ByteSpan record) {
  return app->ApplyUpdate(record);
}

void ShardedDatabase::ShardUnit::BatchPoisoned(const Status& cause) {
  (void)cause;
  poisoned.store(true, std::memory_order_relaxed);
}

void ShardedDatabase::ShardUnit::BatchCommitted(const UpdateBreakdown& breakdown) {
  (void)breakdown;  // per-stage histograms already aggregated via stage_metrics
}

void ShardedDatabase::ShardUnit::AcquireCheckpointSlot() {
  std::unique_lock<std::mutex> gate(ckpt_mu);
  ckpt_cv.wait(gate, [this] { return !ckpt_in_flight; });
  ckpt_in_flight = true;
}

void ShardedDatabase::ShardUnit::ReleaseCheckpointSlot() {
  {
    std::lock_guard<std::mutex> gate(ckpt_mu);
    ckpt_in_flight = false;
  }
  ckpt_cv.notify_all();
}

// --- ShardedDatabase ---

// The atomic-rename-committed record binding the ensemble together: the live log
// generation plus, per shard, the checkpoint version and the shared-log offset the
// checkpoint is current to. Its rename is every checkpoint's and rotation's commit
// point.
struct ShardedDatabase::Manifest {
  std::uint64_t log_generation = 1;
  std::vector<ShardMeta> shards;
  SDB_PICKLE_FIELDS(Manifest, log_generation, shards)
};

ShardedDatabase::ShardedDatabase(std::size_t shards, ShardedOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &wall_clock_),
      router_(shards, options_.vnodes_per_shard) {}

ShardedDatabase::~ShardedDatabase() {
  // Pipelines first (batches reference the sinks and coalescer), then the
  // coalescer, then the log they all wrote to.
  for (auto& unit : units_) {
    unit->committer.reset();
  }
  coalescer_.reset();
  if (log_ != nullptr) {
    Status closed = log_->Close();
    if (!closed.ok()) {
      SDB_LOG(kWarning) << "closing shared log: " << closed;
    }
  }
}

std::string ShardedDatabase::LogPath(std::uint64_t generation) const {
  return JoinPath(options_.dir, "logfile" + std::to_string(generation));
}

std::string ShardedDatabase::CheckpointPath(std::size_t p, std::uint64_t version) const {
  return JoinPath(options_.dir,
                  "p" + std::to_string(p) + ".checkpoint" + std::to_string(version));
}

std::string ShardedDatabase::DeltaPath(std::size_t p, std::uint64_t version) const {
  return JoinPath(options_.dir,
                  "p" + std::to_string(p) + ".delta" + std::to_string(version));
}

std::string ShardedDatabase::ManifestPath() const {
  return JoinPath(options_.dir, "manifest");
}

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    std::vector<Application*> apps, ShardedOptions options) {
  if (options.vfs == nullptr || options.dir.empty() || apps.empty()) {
    return InvalidArgumentError("ShardedOptions requires vfs, dir and >= 1 shard app");
  }
  std::unique_ptr<ShardedDatabase> db(
      new ShardedDatabase(apps.size(), std::move(options)));
  SDB_RETURN_IF_ERROR(
      db->Recover(apps).WithContext("opening sharded ensemble in " + db->options_.dir));
  return db;
}

Status ShardedDatabase::WriteManifestLocked() {
  Manifest manifest;
  manifest.log_generation = log_generation_;
  manifest.shards.reserve(units_.size());
  for (const auto& unit : units_) {
    manifest.shards.push_back(ShardMeta{unit->chain.top(), unit->replay_from,
                                        unit->chain.base, unit->chain.deltas});
  }
  Bytes bytes = PickleWrite(manifest);
  return AtomicWriteFile(*options_.vfs, options_.dir, ManifestPath(), AsSpan(bytes));
}

Status ShardedDatabase::ForEachShardParallel(
    const std::function<Status(std::size_t)>& fn) {
  const std::size_t n = units_.size();
  if (options_.recovery_threads <= 1 || n <= 1) {
    for (std::size_t p = 0; p < n; ++p) {
      SDB_RETURN_IF_ERROR(fn(p));
    }
    return OkStatus();
  }
  std::vector<Status> results(n, OkStatus());
  std::atomic<std::size_t> next{0};
  std::size_t workers =
      std::min(static_cast<std::size_t>(options_.recovery_threads), n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t p = next.fetch_add(1); p < n; p = next.fetch_add(1)) {
        results[p] = fn(p);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  for (std::size_t p = 0; p < n; ++p) {
    SDB_RETURN_IF_ERROR(results[p]);
  }
  return OkStatus();
}

Status ShardedDatabase::Recover(std::vector<Application*>& apps) {
  Vfs& vfs = *options_.vfs;
  SDB_RETURN_IF_ERROR(vfs.CreateDir(options_.dir));

  units_.reserve(apps.size());
  for (std::size_t p = 0; p < apps.size(); ++p) {
    auto unit = std::make_unique<ShardUnit>();
    unit->app = apps[p];
    unit->ensemble_poisoned = &poisoned_;
    unit->stage_metrics = obs::CommitStageMetrics::Register(unit->registry, nullptr);
    unit->counters.updates = &unit->registry.GetCounter("db.updates");
    unit->counters.precondition_failures =
        &unit->registry.GetCounter("db.update_precondition_failures");
    unit->counters.commit_failures = &unit->registry.GetCounter("db.update_commit_failures");
    unit->counters.log_entries_since_checkpoint =
        &unit->registry.GetGauge("db.log_entries_since_checkpoint");
    unit->counters.log_bytes = &unit->registry.GetGauge("db.log_bytes");
    unit->enquiries = &unit->registry.GetCounter("db.enquiries");
    unit->checkpoints = &unit->registry.GetCounter("db.checkpoints");
    unit->delta_checkpoints = &unit->registry.GetCounter("db.delta_checkpoints");
    unit->compaction_runs = &unit->registry.GetCounter("compaction.runs");
    unit->compaction_bytes = &unit->registry.GetCounter("compaction.bytes");
    units_.push_back(std::move(unit));
  }

  SDB_ASSIGN_OR_RETURN(bool has_manifest, vfs.Exists(ManifestPath()));
  if (!has_manifest) {
    // Fresh ensemble: version-1 checkpoints of the empty states, empty log, then
    // the manifest commit.
    for (std::size_t p = 0; p < units_.size(); ++p) {
      SDB_RETURN_IF_ERROR(units_[p]->app->ResetState());
      SDB_ASSIGN_OR_RETURN(Bytes snapshot, units_[p]->app->SerializeState());
      SDB_RETURN_IF_ERROR(WriteWholeFile(vfs, CheckpointPath(p, 1), AsSpan(snapshot)));
      units_[p]->replay_from = 0;
      units_[p]->chain = ChainState::Full(1, snapshot.size());
    }
    SDB_RETURN_IF_ERROR(WriteWholeFile(vfs, LogPath(1), ByteSpan{}));
    SDB_RETURN_IF_ERROR(vfs.SyncDir(options_.dir));
    SDB_RETURN_IF_ERROR(WriteManifestLocked());
  } else {
    SDB_ASSIGN_OR_RETURN(Bytes manifest_bytes, ReadWholeFile(vfs, ManifestPath()));
    SDB_ASSIGN_OR_RETURN(Manifest manifest, PickleRead<Manifest>(AsSpan(manifest_bytes)));
    if (manifest.shards.size() != units_.size()) {
      return InvalidArgumentError("shard count mismatch: directory has " +
                                  std::to_string(manifest.shards.size()) +
                                  ", caller supplied " + std::to_string(units_.size()));
    }
    log_generation_ = manifest.log_generation;
    for (std::size_t p = 0; p < units_.size(); ++p) {
      const ShardMeta& meta = manifest.shards[p];
      units_[p]->replay_from = meta.replay_from;
      if (meta.chain_deltas.empty()) {
        units_[p]->chain = ChainState::Full(meta.checkpoint_version, 0);
      } else {
        // A chained shard: the manifest must name a well-formed chain whose top
        // IS the shard's checkpoint version — anything else is corruption, not
        // something to guess around.
        std::uint64_t prev = meta.chain_base;
        for (std::uint64_t v : meta.chain_deltas) {
          if (v <= prev) {
            return CorruptionError("shard " + std::to_string(p) +
                                   " manifest chain is not ascending");
          }
          prev = v;
        }
        if (meta.chain_deltas.back() != meta.checkpoint_version) {
          return CorruptionError("shard " + std::to_string(p) +
                                 " manifest chain does not end at the checkpoint version");
        }
        units_[p]->chain.base = meta.chain_base;
        units_[p]->chain.deltas = meta.chain_deltas;
      }
    }

    // Shards are independent recovery units: checkpoint loads run in parallel on
    // the recovery pool (each touches only its own files and its own application).
    // A chained shard composes base + deltas through the application before
    // deserializing.
    Status loaded = ForEachShardParallel([&](std::size_t p) -> Status {
      ShardUnit& unit = *units_[p];
      const DeltaChain chain = unit.chain;
      Result<Bytes> checkpoint = ReadChain(
          vfs, *unit.app, chain, [&](std::uint64_t v) { return CheckpointPath(p, v); },
          [&](std::uint64_t v) { return DeltaPath(p, v); }, &unit.chain);
      if (!checkpoint.ok()) {
        return checkpoint.status().WithContext("shard " + std::to_string(p));
      }
      SDB_RETURN_IF_ERROR(unit.app->ResetState());
      return unit.app->DeserializeState(AsSpan(*checkpoint))
          .WithContext("shard " + std::to_string(p));
    });
    SDB_RETURN_IF_ERROR(loaded);

    SDB_RETURN_IF_ERROR(ReplayShardedLog());
  }

  // Delete stray files from interrupted checkpoints/rotations (anything versioned
  // but not referenced by the manifest).
  SDB_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs.List(options_.dir));
  for (const std::string& name : names) {
    bool stale = false;
    if (name.rfind("logfile", 0) == 0) {
      std::optional<std::uint64_t> generation = ParseDecimal(name.substr(7));
      stale = generation.has_value() && *generation != log_generation_;
    } else if (name[0] == 'p') {
      std::size_t dot = name.find(".checkpoint");
      if (dot != std::string::npos) {
        // A checkpoint file is live only as its shard's chain base (== the
        // checkpoint version when the chain has no deltas). An orphan at the
        // chain top is the residue of an interrupted compaction.
        std::optional<std::uint64_t> pid = ParseDecimal(name.substr(1, dot - 1));
        std::optional<std::uint64_t> version = ParseDecimal(name.substr(dot + 11));
        stale = pid.has_value() && version.has_value() &&
                (*pid >= units_.size() || *version != units_[*pid]->chain.base);
      } else {
        std::size_t delta_dot = name.find(".delta");
        if (delta_dot != std::string::npos) {
          std::optional<std::uint64_t> pid = ParseDecimal(name.substr(1, delta_dot - 1));
          std::optional<std::uint64_t> version = ParseDecimal(name.substr(delta_dot + 6));
          if (pid.has_value() && version.has_value()) {
            stale = *pid >= units_.size() ||
                    std::find(units_[*pid]->chain.deltas.begin(),
                              units_[*pid]->chain.deltas.end(),
                              *version) == units_[*pid]->chain.deltas.end();
          }
        }
      }
    } else if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale = true;
    }
    if (stale) {
      SDB_RETURN_IF_ERROR(vfs.Delete(JoinPath(options_.dir, name)));
    }
  }
  SDB_RETURN_IF_ERROR(vfs.SyncDir(options_.dir));

  SDB_ASSIGN_OR_RETURN(
      log_, OpenLogForAppend(vfs, LogPath(log_generation_), options_.log_writer));

  // A checkpoint records replay_from = the in-memory log size, which can run
  // ahead of the durable log end when an append's covering fsync failed (the
  // failed batch was never acknowledged or applied, so the checkpoint holds
  // nothing from that region and the manifest's claim is vacuous). After a crash
  // the log rewinds to its durable end; without a clamp the writer would refill
  // [durable end, replay_from) with NEW acknowledged entries that every later
  // replay then skips as "checkpoint-covered" — losing them. Clamp and republish
  // the manifest before any append can land in the reclaimed region.
  bool replay_from_clamped = false;
  for (auto& unit : units_) {
    if (unit->replay_from > log_->size()) {
      unit->replay_from = log_->size();
      replay_from_clamped = true;
    }
  }
  if (replay_from_clamped) {
    SDB_RETURN_IF_ERROR(WriteManifestLocked());
  }

  coalescer_ = std::make_unique<CrossShardCoalescer>(log_.get());
  for (std::size_t p = 0; p < units_.size(); ++p) {
    ShardUnit& unit = *units_[p];
    unit.sink.Init(coalescer_.get(), p);
    unit.counters.log_bytes->Set(static_cast<std::int64_t>(log_->size()));
    unit.committer = std::make_unique<GroupCommitter>(
        unit.lock, *clock_, unit, &unit.sink, &unit.counters, unit.stage_metrics,
        options_.group_commit);
  }
  return OkStatus();
}

Status ShardedDatabase::ReplayShardedLog() {
  LogReplayOptions replay_options;
  replay_options.page_size = options_.log_replay_page_size;
  SDB_ASSIGN_OR_RETURN(std::unique_ptr<File> log_file,
                       options_.vfs->Open(LogPath(log_generation_), OpenMode::kRead));

  // One sequential pass routes entries into the replayer (the disk read order is
  // fixed — and deterministic under the sim harness). The replayer partitions each
  // shard's stream into key-disjoint batches and applies every (shard, key-batch)
  // task on ONE pool of recovery_threads workers: within-shard parallelism composes
  // with across-shard parallelism instead of competing, so a hot shard no longer
  // bounds recovery. Shard apps without batch support replay as one in-order task
  // per shard — the previous per-shard behaviour.
  ParallelReplayOptions parallel_options;
  parallel_options.threads = options_.recovery_threads;
  parallel_options.clock = clock_;
  ParallelReplayer replayer(parallel_options);
  for (auto& unit : units_) {
    (void)replayer.AddApplication(*unit->app);
  }
  std::uint64_t skipped = 0;
  SDB_ASSIGN_OR_RETURN(
      LogReplayStats replay_stats,
      ReplayLogWithOffsets(
          *log_file, replay_options,
          [&](std::uint64_t offset, ByteSpan payload) -> Status {
            ByteReader in(payload);
            SDB_ASSIGN_OR_RETURN(std::uint64_t pid, in.ReadVarint());
            if (pid >= units_.size()) {
              return CorruptionError("log entry for unknown shard " + std::to_string(pid));
            }
            SDB_ASSIGN_OR_RETURN(ByteSpan record, in.ReadBytes(in.remaining()));
            if (offset < units_[pid]->replay_from) {
              ++skipped;  // the shard's checkpoint already covers this entry
              return OkStatus();
            }
            return replayer.Add(pid, record);
          }));
  (void)replay_stats;
  SDB_RETURN_IF_ERROR(log_file->Close());
  SDB_RETURN_IF_ERROR(replayer.Finish().WithContext("replaying sharded log"));

  const ParallelReplayStats& parallel = replayer.stats();
  stats_.replayed_entries = parallel.entries;
  stats_.replay_skipped_entries = skipped;
  stats_.replay_batches = parallel.batches;
  stats_.replay_threads_used = parallel.threads_used;
  registry_.GetGauge("restart.replay.batches")
      .Set(static_cast<std::int64_t>(parallel.batches));
  registry_.GetGauge("restart.replay.threads_used")
      .Set(static_cast<std::int64_t>(parallel.threads_used));
  registry_.GetGauge("restart.replay.partition_pass_us")
      .Set(parallel.partition_pass_micros);
  registry_.GetGauge("restart.replay.batch_apply_us").Set(parallel.batch_apply_micros);
  return OkStatus();
}

Status ShardedDatabase::CheckPoisoned() const {
  if (poisoned_.load(std::memory_order_relaxed)) {
    return InternalError(
        "sharded ensemble fail-stopped by an aborted log rotation; reopen to recover");
  }
  return OkStatus();
}

Status ShardedDatabase::Update(std::size_t p,
                               const std::function<Result<Bytes>()>& prepare) {
  if (p >= units_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  GroupCommitter::PrepareFn fn = prepare;
  return units_[p]->committer->Submit({&fn, 1});
}

Status ShardedDatabase::UpdateKey(std::string_view key,
                                  const std::function<Result<Bytes>()>& prepare) {
  return Update(router_.Route(key), prepare);
}

Status ShardedDatabase::Enquire(std::size_t p, const std::function<Status()>& enquiry) {
  if (p >= units_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  ShardUnit& unit = *units_[p];
  SueLock::SharedGuard guard(unit.lock);
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  if (unit.poisoned.load(std::memory_order_relaxed)) {
    return InternalError("shard poisoned by an earlier apply failure; reopen to recover");
  }
  Status status = enquiry();
  unit.enquiries->Increment();
  return status;
}

Status ShardedDatabase::EnquireKey(std::string_view key,
                                   const std::function<Status()>& enquiry) {
  return Enquire(router_.Route(key), enquiry);
}

Status ShardedDatabase::EnquireAll(const std::function<Status()>& enquiry) {
  for (auto& unit : units_) {
    unit->lock.AcquireShared();
  }
  Status status = CheckPoisoned();
  for (auto& unit : units_) {
    if (status.ok() && unit->poisoned.load(std::memory_order_relaxed)) {
      status = InternalError("shard poisoned by an earlier apply failure; reopen to recover");
    }
  }
  if (status.ok()) {
    status = enquiry();
  }
  for (auto it = units_.rbegin(); it != units_.rend(); ++it) {
    (*it)->enquiries->Increment();
    (*it)->lock.ReleaseShared();
  }
  return status;
}

Status ShardedDatabase::CheckpointPhaseA(std::size_t p, ShardRotation* rotation) {
  ShardUnit& unit = *units_[p];
  // Pause BEFORE the update lock: an in-flight batch needs the lock to finish, so
  // pausing after acquiring it would deadlock. With the pipeline paused, every
  // committed record of shard p is already applied (or belongs to a failed,
  // unacknowledged batch — which replay is allowed to skip), so the log size read
  // below is a safe replay-from offset for the snapshot.
  PipelinePause pause(*unit.committer);
  SueLock::UpdateGuard guard(unit.lock);
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  if (unit.poisoned.load(std::memory_order_relaxed)) {
    return InternalError("shard poisoned by an earlier apply failure; reopen to recover");
  }
  std::uint64_t chain_length;
  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    chain_length = unit.chain.length();
  }
  SDB_ASSIGN_OR_RETURN(rotation->capture,
                       CaptureCheckpoint(*unit.app, options_.delta_checkpoint.enabled,
                                         chain_length, options_.delta_checkpoint));
  {
    // (generation, offset) must be one instant: a rotation swaps both together
    // under manifest_mu_.
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    rotation->generation = log_generation_;
    rotation->replay_from = log_->size();
  }
  unit.commit_epoch.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status ShardedDatabase::CheckpointPhaseB(std::size_t p, ShardRotation rotation) {
  ShardUnit& unit = *units_[p];
  if (rotation.capture.is_delta()) {
    SDB_RETURN_IF_ERROR(PersistShardDelta(p, std::move(rotation)));
  } else {
    SDB_ASSIGN_OR_RETURN(Bytes snapshot, rotation.capture.full());

    std::uint64_t new_version;
    {
      std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
      new_version = unit.chain.top() + 1;
    }
    SDB_RETURN_IF_ERROR(
        WriteWholeFile(*options_.vfs, CheckpointPath(p, new_version), AsSpan(snapshot)));
    SDB_RETURN_IF_ERROR(options_.vfs->SyncDir(options_.dir));

    DeltaChain old_chain;
    {
      std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
      old_chain = unit.chain;
      unit.chain = ChainState::Full(new_version, snapshot.size());
      if (log_generation_ == rotation.generation) {
        unit.replay_from = std::max(unit.replay_from, rotation.replay_from);
      }
      // A failed manifest write leaves the rename ambiguous, but either outcome
      // is consistent: the old chain is only deleted below, after a confirmed
      // commit, so whichever state the manifest names still exists on disk.
      SDB_RETURN_IF_ERROR(WriteManifestLocked());
    }
    // A full checkpoint supersedes the shard's whole previous chain.
    SDB_RETURN_IF_ERROR(options_.vfs->Delete(CheckpointPath(p, old_chain.base))
                            .WithContext("removing superseded checkpoint"));
    for (std::uint64_t v : old_chain.deltas) {
      SDB_RETURN_IF_ERROR(options_.vfs->Delete(DeltaPath(p, v))
                              .WithContext("removing superseded chain delta"));
    }
    unit.checkpoints->Increment();
  }
  unit.counters.log_entries_since_checkpoint->Set(0);

  if (options_.rotate_log_bytes != 0 && log_bytes() >= options_.rotate_log_bytes) {
    SDB_RETURN_IF_ERROR(MaybeRotateLog().status());
  }
  return OkStatus();
}

Status ShardedDatabase::PersistShardDelta(std::size_t p, ShardRotation rotation) {
  ShardUnit& unit = *units_[p];
  Result<Application::DeltaSnapshot> delta = rotation.capture.delta();
  if (!delta.ok()) {
    unit.app->AbandonDeltaCapture();
    return delta.status();
  }

  std::uint64_t new_version;
  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    new_version = unit.chain.top() + 1;
  }
  Status written =
      WriteWholeFile(*options_.vfs, DeltaPath(p, new_version), AsSpan(delta->bytes));
  if (written.ok()) {
    written = options_.vfs->SyncDir(options_.dir);
  }
  if (!written.ok()) {
    // Unambiguous failure: nothing references the (possibly partial) delta file
    // yet, so reclaim it and put the dirty window back for the next capture.
    (void)options_.vfs->Delete(DeltaPath(p, new_version));
    unit.app->AbandonDeltaCapture();
    return written;
  }

  Status committed;
  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    unit.chain.deltas.push_back(new_version);
    unit.chain.delta_bytes += delta->bytes.size();
    if (log_generation_ == rotation.generation) {
      unit.replay_from = std::max(unit.replay_from, rotation.replay_from);
    }
    // Same ambiguity stance as the full path: the delta file is durable and the
    // in-memory chain now includes it, so EITHER manifest outcome is consistent
    // — if the rename landed recovery composes the delta; if it did not, the
    // entries it covers are still above the manifest's replay_from and replay
    // re-derives them from the log (the delta file is swept as an orphan).
    committed = WriteManifestLocked();
  }
  // The in-memory chain includes the delta on every path past the file write, so
  // the capture is committed even when the manifest rename is ambiguous — the
  // next capture's window must NOT re-cover keys this delta already holds.
  unit.app->CommitDeltaCapture();
  SDB_RETURN_IF_ERROR(committed);

  unit.checkpoints->Increment();
  unit.delta_checkpoints->Increment();

  bool compaction_due;
  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    compaction_due = unit.chain.CompactionDue(options_.delta_checkpoint);
  }
  if (compaction_due) {
    // Inline, while this shard's checkpoint slot is still held (our caller
    // releases it). Compaction failure never fails the checkpoint: the chain is
    // intact and simply compacts later.
    Status compacted = CompactShardChain(p);
    if (!compacted.ok()) {
      SDB_LOG(kWarning) << "shard " << p << " chain compaction failed (will retry): "
                        << compacted;
    }
  }
  return OkStatus();
}

Status ShardedDatabase::CompactShardChain(std::size_t p) {
  ShardUnit& unit = *units_[p];
  DeltaChain chain;
  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    chain = unit.chain;
  }
  if (!chain.has_deltas()) {
    return OkStatus();
  }

  // Compose from the on-disk chain (not live state): ComposeCheckpoint is pure,
  // so no shard lock is needed and updates proceed throughout.
  SDB_ASSIGN_OR_RETURN(
      Bytes composed,
      ReadChain(*options_.vfs, *unit.app, chain,
                [&](std::uint64_t v) { return CheckpointPath(p, v); },
                [&](std::uint64_t v) { return DeltaPath(p, v); }));

  std::uint64_t top = chain.top();
  Status written =
      WriteWholeFile(*options_.vfs, CheckpointPath(p, top), AsSpan(composed));
  if (written.ok()) {
    written = options_.vfs->SyncDir(options_.dir);
  }
  if (!written.ok()) {
    (void)options_.vfs->Delete(CheckpointPath(p, top));
    return written;
  }

  {
    std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
    // The chain cannot have changed (the shard's checkpoint slot is held), so
    // collapse it and publish. A failed rename is ambiguous but consistent
    // either way — checkpoint(top) and the full old chain both exist on disk —
    // so keep the collapsed view and just skip reclaiming the old files (the
    // reopen sweep finishes the job).
    unit.chain = ChainState::Full(top, composed.size());
    SDB_RETURN_IF_ERROR(WriteManifestLocked());
  }

  Status reclaimed = options_.vfs->Delete(CheckpointPath(p, chain.base));
  for (std::uint64_t v : chain.deltas) {
    Status deleted = options_.vfs->Delete(DeltaPath(p, v));
    if (reclaimed.ok()) {
      reclaimed = deleted;
    }
  }
  if (!reclaimed.ok()) {
    SDB_LOG(kWarning) << "reclaiming compacted chain files for shard " << p << ": "
                      << reclaimed;
  }
  unit.compaction_runs->Increment();
  unit.compaction_bytes->Add(composed.size());
  return OkStatus();
}

Status ShardedDatabase::Checkpoint(std::size_t p) {
  if (p >= units_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  ShardUnit& unit = *units_[p];
  unit.AcquireCheckpointSlot();
  ShardRotation rotation;
  Status status = CheckpointPhaseA(p, &rotation);
  if (status.ok()) {
    status = CheckpointPhaseB(p, std::move(rotation));
  }
  unit.ReleaseCheckpointSlot();
  return status;
}

Status ShardedDatabase::CheckpointAll() {
  std::lock_guard<std::mutex> all(checkpoint_all_mu_);
  std::vector<Status> results(units_.size(), OkStatus());
  std::thread persist;
  for (std::size_t p = 0; p < units_.size(); ++p) {
    units_[p]->AcquireCheckpointSlot();
    ShardRotation rotation;
    Status phase_a = CheckpointPhaseA(p, &rotation);
    // Shard p's stall (Phase A) overlapped shard p-1's background persist; join it
    // before spawning p's so at most one persist thread is alive.
    if (persist.joinable()) {
      persist.join();
    }
    if (!phase_a.ok()) {
      units_[p]->ReleaseCheckpointSlot();
      results[p] = phase_a;
      continue;
    }
    persist = std::thread([this, p, &results, rot = std::move(rotation)]() mutable {
      results[p] = CheckpointPhaseB(p, std::move(rot));
      units_[p]->ReleaseCheckpointSlot();
    });
  }
  if (persist.joinable()) {
    persist.join();
  }
  for (std::size_t p = 0; p < units_.size(); ++p) {
    SDB_RETURN_IF_ERROR(
        results[p].WithContext("checkpointing shard " + std::to_string(p)));
  }
  return OkStatus();
}

Result<bool> ShardedDatabase::MaybeRotateLog() {
  // Lock order: manifest_mu_ THEN Freeze (AwaitDurable never takes manifest_mu_).
  std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
  SDB_RETURN_IF_ERROR(CheckPoisoned());
  coalescer_->Freeze();
  // Under the freeze no appends can land, so the size is stable; if every shard
  // has checkpointed past it, no batch is awaiting durability either (a shard's
  // Phase A pauses its pipeline, so replay_from never covers an in-flight batch) —
  // the freeze blocks nobody mid-commit and the swap is safe.
  std::uint64_t log_size = log_->size();
  for (const auto& unit : units_) {
    if (unit->replay_from < log_size) {
      coalescer_->Unfreeze();
      return false;  // someone still needs the log's tail: the flushing rule says no
    }
  }

  std::uint64_t new_generation = log_generation_ + 1;
  Status prepared = WriteWholeFile(*options_.vfs, LogPath(new_generation), ByteSpan{});
  if (prepared.ok()) {
    prepared = options_.vfs->SyncDir(options_.dir);
  }
  if (!prepared.ok()) {
    coalescer_->Unfreeze();  // nothing committed; the stray file is swept at reopen
    return prepared;
  }

  std::uint64_t old_generation = log_generation_;
  log_generation_ = new_generation;
  for (auto& unit : units_) {
    unit->replay_from = 0;  // the fresh log starts empty; everyone is current
  }
  Status committed = WriteManifestLocked();  // commit point of the rotation
  if (!committed.ok()) {
    // The rename is ambiguous: the manifest may name the new generation while the
    // writer is still on the old one. Fail-stop rather than acknowledge updates
    // recovery might replay from the wrong file.
    poisoned_.store(true, std::memory_order_relaxed);
    coalescer_->Poison();
    coalescer_->Unfreeze();
    return committed.WithContext(
        "log rotation commit ambiguous; ensemble fail-stops until reopened");
  }

  Status closed = log_->Close();
  if (!closed.ok()) {
    SDB_LOG(kWarning) << "closing rotated-out shared log: " << closed;
  }
  Result<std::unique_ptr<LogWriter>> new_log =
      OpenLogForAppend(*options_.vfs, LogPath(new_generation), options_.log_writer);
  if (!new_log.ok()) {
    // Manifest already names the (empty, durable) new generation but nothing can
    // append to it. Everything acknowledged is safe in the checkpoints; fail-stop.
    poisoned_.store(true, std::memory_order_relaxed);
    coalescer_->Poison();
    coalescer_->Unfreeze();
    return new_log.status().WithContext(
        "opening rotated shared log; ensemble fail-stops until reopened");
  }
  log_ = std::move(*new_log);
  coalescer_->set_log(log_.get());
  coalescer_->Unfreeze();

  Status deleted = options_.vfs->Delete(LogPath(old_generation));
  if (!deleted.ok()) {
    // Rotation is committed; the orphaned file is swept at the next reopen.
    SDB_LOG(kWarning) << "deleting rotated-out shared log: " << deleted;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.log_rotations;
  }
  return true;
}

std::uint64_t ShardedDatabase::log_bytes() const { return coalescer_->log_bytes(); }

std::uint64_t ShardedDatabase::log_generation() const {
  std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
  return log_generation_;
}

std::uint64_t ShardedDatabase::reclaimable_log_bytes() const {
  std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
  std::uint64_t min_offset = log_->size();
  for (const auto& unit : units_) {
    min_offset = std::min(min_offset, unit->replay_from);
  }
  return min_offset;
}

ShardedStats ShardedDatabase::stats() const {
  ShardedStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    snapshot = stats_;
  }
  for (const auto& unit : units_) {
    snapshot.updates += unit->counters.updates->value();
    snapshot.enquiries += unit->enquiries->value();
    snapshot.checkpoints += unit->checkpoints->value();
    snapshot.delta_checkpoints += unit->delta_checkpoints->value();
    snapshot.compactions += unit->compaction_runs->value();
  }
  CrossShardCoalescer::Stats coalescer = coalescer_->stats();
  snapshot.covering_fsyncs = coalescer.covering_fsyncs;
  snapshot.batches_coalesced = coalescer.batches_coalesced;
  snapshot.max_batches_per_fsync = coalescer.max_batches_per_fsync;
  return snapshot;
}

GroupCommitStats ShardedDatabase::shard_commit_stats(std::size_t p) const {
  return units_[p]->committer->stats();
}

CrossShardCoalescer::Stats ShardedDatabase::coalescer_stats() const {
  return coalescer_->stats();
}

obs::Registry& ShardedDatabase::shard_metrics(std::size_t p) {
  return units_[p]->registry;
}

void ShardedDatabase::RollUpMetrics() {
  ShardedStats aggregate = stats();
  for (std::size_t p = 0; p < units_.size(); ++p) {
    const ShardUnit& unit = *units_[p];
    std::string prefix = "shard." + std::to_string(p) + ".";
    registry_.GetGauge(prefix + "updates")
        .Set(static_cast<std::int64_t>(unit.counters.updates->value()));
    registry_.GetGauge(prefix + "enquiries")
        .Set(static_cast<std::int64_t>(unit.enquiries->value()));
    registry_.GetGauge(prefix + "checkpoints")
        .Set(static_cast<std::int64_t>(unit.checkpoints->value()));
    GroupCommitStats commit = unit.committer->stats();
    registry_.GetGauge(prefix + "batches").Set(static_cast<std::int64_t>(commit.batches));
    registry_.GetGauge(prefix + "fsyncs").Set(static_cast<std::int64_t>(commit.syncs));
  }
  registry_.GetGauge("db.updates").Set(static_cast<std::int64_t>(aggregate.updates));
  registry_.GetGauge("db.enquiries").Set(static_cast<std::int64_t>(aggregate.enquiries));
  registry_.GetGauge("db.checkpoints")
      .Set(static_cast<std::int64_t>(aggregate.checkpoints));
  registry_.GetGauge("db.delta_checkpoints")
      .Set(static_cast<std::int64_t>(aggregate.delta_checkpoints));
  registry_.GetGauge("compaction.runs")
      .Set(static_cast<std::int64_t>(aggregate.compactions));
  registry_.GetGauge("commit.covering_fsyncs")
      .Set(static_cast<std::int64_t>(aggregate.covering_fsyncs));
  registry_.GetGauge("commit.batches_coalesced")
      .Set(static_cast<std::int64_t>(aggregate.batches_coalesced));
  registry_.GetGauge("commit.max_batches_per_fsync")
      .Set(static_cast<std::int64_t>(aggregate.max_batches_per_fsync));
  // Parts-per-million: the « 1 ratio survives the integer gauge (125000 = 0.125).
  registry_.GetGauge("commit.fsyncs_per_update_ppm")
      .Set(static_cast<std::int64_t>(aggregate.fsyncs_per_update() * 1e6));
  registry_.GetGauge("log.bytes").Set(static_cast<std::int64_t>(log_bytes()));
  registry_.GetGauge("log.generation").Set(static_cast<std::int64_t>(log_generation()));
}

std::string ShardedDatabase::MetricsReportJson() {
  RollUpMetrics();
  return registry_.DumpJson();
}

}  // namespace sdb
