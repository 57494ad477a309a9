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
  // Units first (their pipelines' batches reference the sinks and coalescer, and a
  // handed-off persist publishes through the manifest), then the coalescer, then
  // the log they all wrote to.
  for (auto& shard : shards_) {
    shard->unit.reset();
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

std::string ShardedDatabase::Shard::CheckpointPath(std::uint64_t version) const {
  return JoinPath(db->options_.dir,
                  "p" + std::to_string(index) + ".checkpoint" + std::to_string(version));
}

std::string ShardedDatabase::Shard::DeltaPath(std::uint64_t version) const {
  return JoinPath(db->options_.dir,
                  "p" + std::to_string(index) + ".delta" + std::to_string(version));
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
  manifest.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    manifest.shards.push_back(ShardMeta{shard->published.top(), shard->replay_from,
                                        shard->published.base, shard->published.deltas});
  }
  Bytes bytes = PickleWrite(manifest);
  return AtomicWriteFile(*options_.vfs, options_.dir, ManifestPath(), AsSpan(bytes));
}

Status ShardedDatabase::ForEachShardParallel(
    const std::function<Status(std::size_t)>& fn) {
  const std::size_t n = shards_.size();
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

  EngineUnitOptions unit_options;
  unit_options.vfs = options_.vfs;
  unit_options.dir = options_.dir;
  unit_options.clock = clock_;
  unit_options.group_commit = options_.group_commit;
  unit_options.delta_checkpoint = options_.delta_checkpoint;
  unit_options.delta_mode = options_.delta_checkpoint.enabled;
  shards_.reserve(apps.size());
  for (std::size_t p = 0; p < apps.size(); ++p) {
    auto shard = std::make_unique<Shard>();
    shard->db = this;
    shard->index = p;
    // The sink reaches the coalescer once the shared log is open, before any update.
    shard->unit = std::make_unique<EngineUnit>(*apps[p], *shard, &shard->sink, unit_options);
    shards_.push_back(std::move(shard));
  }

  SDB_ASSIGN_OR_RETURN(bool has_manifest, vfs.Exists(ManifestPath()));
  if (!has_manifest) {
    // Fresh ensemble: version-1 checkpoints of the empty states, empty log, then
    // the manifest commit.
    for (auto& shard : shards_) {
      Application& app = shard->unit->app();
      SDB_RETURN_IF_ERROR(app.ResetState());
      SDB_ASSIGN_OR_RETURN(Bytes snapshot, app.SerializeState());
      SDB_RETURN_IF_ERROR(WriteWholeFile(vfs, shard->CheckpointPath(1), AsSpan(snapshot)));
      shard->published = DeltaChain{1, {}};
      shard->unit->set_chain(ChainState::Full(1, snapshot.size()));
    }
    SDB_RETURN_IF_ERROR(WriteWholeFile(vfs, LogPath(1), ByteSpan{}));
    SDB_RETURN_IF_ERROR(vfs.SyncDir(options_.dir));
    SDB_RETURN_IF_ERROR(WriteManifestLocked());
  } else {
    SDB_ASSIGN_OR_RETURN(Bytes manifest_bytes, ReadWholeFile(vfs, ManifestPath()));
    SDB_ASSIGN_OR_RETURN(Manifest manifest, PickleRead<Manifest>(AsSpan(manifest_bytes)));
    if (manifest.shards.size() != shards_.size()) {
      return InvalidArgumentError("shard count mismatch: directory has " +
                                  std::to_string(manifest.shards.size()) +
                                  ", caller supplied " + std::to_string(shards_.size()));
    }
    log_generation_ = manifest.log_generation;
    for (std::size_t p = 0; p < shards_.size(); ++p) {
      const ShardMeta& meta = manifest.shards[p];
      shards_[p]->replay_from = meta.replay_from;
      shards_[p]->published = DeltaChain{meta.checkpoint_version, {}};
      if (!meta.chain_deltas.empty()) {
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
        shards_[p]->published = DeltaChain{meta.chain_base, meta.chain_deltas};
      }
    }

    // Shards are independent recovery units: checkpoint loads run in parallel on
    // the recovery pool (each touches only its own files and its own application).
    // A chained shard composes base + deltas through the application before
    // deserializing.
    Status loaded = ForEachShardParallel([&](std::size_t p) -> Status {
      Shard& shard = *shards_[p];
      Application& app = shard.unit->app();
      ChainState chain;
      Result<Bytes> checkpoint = ReadChain(
          vfs, app, shard.published, [&](std::uint64_t v) { return shard.CheckpointPath(v); },
          [&](std::uint64_t v) { return shard.DeltaPath(v); }, &chain);
      if (!checkpoint.ok()) {
        return checkpoint.status().WithContext("shard " + std::to_string(p));
      }
      shard.unit->set_chain(std::move(chain));
      SDB_RETURN_IF_ERROR(app.ResetState());
      return app.DeserializeState(AsSpan(*checkpoint))
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
                (*pid >= shards_.size() || *version != shards_[*pid]->published.base);
      } else {
        std::size_t delta_dot = name.find(".delta");
        if (delta_dot != std::string::npos) {
          std::optional<std::uint64_t> pid = ParseDecimal(name.substr(1, delta_dot - 1));
          std::optional<std::uint64_t> version = ParseDecimal(name.substr(delta_dot + 6));
          if (pid.has_value() && version.has_value()) {
            stale = *pid >= shards_.size() ||
                    std::find(shards_[*pid]->published.deltas.begin(),
                              shards_[*pid]->published.deltas.end(),
                              *version) == shards_[*pid]->published.deltas.end();
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
  for (auto& shard : shards_) {
    if (shard->replay_from > log_->size()) {
      shard->replay_from = log_->size();
      replay_from_clamped = true;
    }
  }
  if (replay_from_clamped) {
    SDB_RETURN_IF_ERROR(WriteManifestLocked());
  }

  coalescer_ = std::make_unique<CrossShardCoalescer>(log_.get());
  for (auto& shard : shards_) {
    shard->sink.Init(coalescer_.get(), shard->index);
    shard->unit->counters().log_bytes->Set(static_cast<std::int64_t>(log_->size()));
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
  for (auto& shard : shards_) {
    (void)replayer.AddApplication(shard->unit->app());
  }
  std::uint64_t skipped = 0;
  SDB_ASSIGN_OR_RETURN(
      LogReplayStats replay_stats,
      ReplayLogWithOffsets(
          *log_file, replay_options,
          [&](std::uint64_t offset, ByteSpan payload) -> Status {
            ByteReader in(payload);
            SDB_ASSIGN_OR_RETURN(std::uint64_t pid, in.ReadVarint());
            if (pid >= shards_.size()) {
              return CorruptionError("log entry for unknown shard " + std::to_string(pid));
            }
            SDB_ASSIGN_OR_RETURN(ByteSpan record, in.ReadBytes(in.remaining()));
            if (offset < shards_[pid]->replay_from) {
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

Status ShardedDatabase::Update(std::size_t p,
                               const std::function<Result<Bytes>()>& prepare) {
  if (p >= shards_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  GroupCommitter::PrepareFn fn = prepare;
  return shards_[p]->unit->committer().Submit({&fn, 1});
}

Status ShardedDatabase::UpdateKey(std::string_view key,
                                  const std::function<Result<Bytes>()>& prepare) {
  return Update(router_.Route(key), prepare);
}

Status ShardedDatabase::Enquire(std::size_t p, const std::function<Status()>& enquiry) {
  if (p >= shards_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  return shards_[p]->unit->Enquire(enquiry);
}

Status ShardedDatabase::EnquireKey(std::string_view key,
                                   const std::function<Status()>& enquiry) {
  return Enquire(router_.Route(key), enquiry);
}

Status ShardedDatabase::EnquireAll(const std::function<Status()>& enquiry) {
  for (auto& shard : shards_) {
    shard->unit->lock().AcquireShared();
  }
  Status status = OkStatus();
  for (auto& shard : shards_) {
    if (status.ok()) {
      status = shard->unit->CheckPoisoned();
    }
  }
  if (status.ok()) {
    status = enquiry();
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    (*it)->unit->registry().GetCounter("db.enquiries").Increment();
    (*it)->unit->lock().ReleaseShared();
  }
  return status;
}

Status ShardedDatabase::Shard::RotateForCheckpoint(CheckpointRotation& rotation) {
  // The unit paused this shard's pipeline before its update lock, so every committed
  // record of the shard is already applied (or belongs to a failed, unacknowledged
  // batch — which replay is allowed to skip), and the log size read below is a safe
  // replay-from offset for the snapshot. (generation, offset) must be one instant: a
  // rotation swaps both together under manifest_mu_.
  std::lock_guard<std::mutex> manifest_lock(db->manifest_mu_);
  rotation.target = published.top() + 1;
  rotation.log_generation = db->log_generation_;
  rotation.log_offset = db->log_->size();
  return OkStatus();
}

PublishOutcome ShardedDatabase::Shard::Publish(const CheckpointRotation* rotation,
                                               const ChainState& prev,
                                               const ChainState& next, Status& error) {
  (void)prev;
  if (rotation != nullptr) {
    // The new file's name must be durable before the manifest names it (a
    // compaction synced its own).
    error = db->options_.vfs->SyncDir(db->options_.dir);
    if (!error.ok()) {
      return PublishOutcome::kAborted;
    }
  }
  std::lock_guard<std::mutex> manifest_lock(db->manifest_mu_);
  published = next;
  if (rotation != nullptr && rotation->log_generation == db->log_generation_) {
    replay_from = std::max(replay_from, rotation->log_offset);
  }
  // A failed rename is ambiguous, but either outcome is consistent: the files of
  // the old chain are reclaimed only after a confirmed commit, so whichever chain
  // the manifest names still exists on disk. If the rename did not land, the
  // entries a new delta covers are still above the manifest's replay_from and
  // replay re-derives them from the log (the delta file is swept as an orphan).
  error = db->WriteManifestLocked();
  return error.ok() ? PublishOutcome::kCommitted : PublishOutcome::kAmbiguous;
}

Status ShardedDatabase::Checkpoint(std::size_t p) {
  if (p >= shards_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  SDB_RETURN_IF_ERROR(shards_[p]->unit->Checkpoint({}));
  return MaybeRotateFullLog();
}

Status ShardedDatabase::CheckpointAll() {
  std::lock_guard<std::mutex> all(checkpoint_all_mu_);
  std::vector<Status> results(shards_.size(), OkStatus());
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    // Shard p's stall (Phase A) overlaps shard p-1's persist; p's persist starts
    // once p-1's is done, so at most two shards' snapshots are in memory at once.
    EngineUnit::CheckpointRun run;
    run.hand_off = true;
    run.result = &results[p];
    run.after = p > 0 ? shards_[p - 1]->unit.get() : nullptr;
    Status phase_a = shards_[p]->unit->Checkpoint(run);
    if (!phase_a.ok()) {
      results[p] = phase_a;
    }
  }
  for (auto& shard : shards_) {
    shard->unit->AwaitCheckpoint();
  }
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    SDB_RETURN_IF_ERROR(
        results[p].WithContext("checkpointing shard " + std::to_string(p)));
  }
  return MaybeRotateFullLog();
}

Status ShardedDatabase::MaybeRotateFullLog() {
  if (options_.rotate_log_bytes != 0 && log_bytes() >= options_.rotate_log_bytes) {
    return MaybeRotateLog().status();
  }
  return OkStatus();
}

Result<bool> ShardedDatabase::MaybeRotateLog() {
  // Lock order: manifest_mu_ THEN Freeze (AwaitDurable never takes manifest_mu_).
  std::lock_guard<std::mutex> manifest_lock(manifest_mu_);
  for (const auto& shard : shards_) {
    SDB_RETURN_IF_ERROR(shard->unit->CheckPoisoned());
  }
  coalescer_->Freeze();
  // Under the freeze no appends can land, so the size is stable; if every shard
  // has checkpointed past it, no batch is awaiting durability either (a shard's
  // Phase A pauses its pipeline, so replay_from never covers an in-flight batch) —
  // the freeze blocks nobody mid-commit and the swap is safe.
  std::uint64_t log_size = log_->size();
  for (const auto& shard : shards_) {
    if (shard->replay_from < log_size) {
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
  for (auto& shard : shards_) {
    shard->replay_from = 0;  // the fresh log starts empty; everyone is current
  }
  // A failed rotation can leave the manifest naming a log the writer is not on: the
  // ensemble fail-stops rather than risk committing updates recovery replays from
  // the wrong file.
  auto fail_stop = [this] {
    for (auto& shard : shards_) {
      shard->unit->Poison("the sharded ensemble fail-stopped on an aborted log rotation");
    }
    coalescer_->Poison();
    coalescer_->Unfreeze();
  };
  Status committed = WriteManifestLocked();  // commit point of the rotation
  if (!committed.ok()) {
    // The rename is ambiguous: the manifest may name the new generation while the
    // writer is still on the old one.
    fail_stop();
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
    fail_stop();
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
  for (const auto& shard : shards_) {
    min_offset = std::min(min_offset, shard->replay_from);
  }
  return min_offset;
}

ShardedStats ShardedDatabase::stats() const {
  ShardedStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    snapshot = stats_;
  }
  for (const auto& shard : shards_) {
    const obs::Registry& registry = shard->unit->registry();
    snapshot.updates += registry.FindCounter("db.updates")->value();
    snapshot.enquiries += registry.FindCounter("db.enquiries")->value();
    snapshot.checkpoints += registry.FindCounter("db.checkpoints")->value();
    snapshot.delta_checkpoints += registry.FindCounter("db.delta_checkpoints")->value();
    snapshot.compactions += registry.FindCounter("compaction.runs")->value();
  }
  CrossShardCoalescer::Stats coalescer = coalescer_->stats();
  snapshot.covering_fsyncs = coalescer.covering_fsyncs;
  snapshot.batches_coalesced = coalescer.batches_coalesced;
  snapshot.max_batches_per_fsync = coalescer.max_batches_per_fsync;
  return snapshot;
}

GroupCommitStats ShardedDatabase::shard_commit_stats(std::size_t p) const {
  return shards_[p]->unit->committer().stats();
}

CrossShardCoalescer::Stats ShardedDatabase::coalescer_stats() const {
  return coalescer_->stats();
}

obs::Registry& ShardedDatabase::shard_metrics(std::size_t p) {
  return shards_[p]->unit->registry();
}

void ShardedDatabase::RollUpMetrics() {
  ShardedStats aggregate = stats();
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    EngineUnit& unit = *shards_[p]->unit;
    std::string prefix = "shard." + std::to_string(p) + ".";
    for (const char* name : {"updates", "enquiries", "checkpoints"}) {
      registry_.GetGauge(prefix + name)
          .Set(static_cast<std::int64_t>(
              unit.registry().FindCounter(std::string("db.") + name)->value()));
    }
    GroupCommitStats commit = unit.committer().stats();
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
