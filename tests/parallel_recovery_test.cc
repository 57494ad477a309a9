// Differential replay: parallel recovery must be *equivalent* to serial replay —
// not approximately, byte-for-byte. A seeded workload builds a directory; the same
// directory is then recovered with recovery_threads in {1, 2, 4, 8} and the pickled
// application snapshot after each recovery is asserted identical to the serial
// baseline. The matrix covers every log layout the engine can leave behind: a plain
// checkpoint+log, a pending dual-log chain (rotation survived, persist did not), and
// the sharded engine (per-shard replay_from offsets, across-shard x within-shard
// parallelism through one pool).
//
// The suite name contains "Concurrent" on the batch-dispatch tests so the CI
// thread-sanitizer job (filter *Concurrent*:*Parallel*) exercises the pool.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/parallel_replay.h"
#include "src/core/sharded.h"
#include "src/pickle/pickle.h"
#include "src/sim/kv_app.h"
#include "src/sim/workload.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::sim::GenerateWorkload;
using ::sdb::sim::KvApp;
using ::sdb::sim::StepKind;
using ::sdb::sim::WorkloadOptions;
using ::sdb::sim::WorkloadStep;
using ::sdb::testing::TestApp;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// A replay-heavy mix: no reads, no restarts — just puts, deletes, and the odd
// checkpoint so recovery sees a checkpoint base plus a long log tail.
WorkloadOptions ReplayMix(int steps) {
  WorkloadOptions options;
  options.steps = steps;
  options.clients = 3;
  options.keyspace = 24;  // few keys over many steps: same-key entries collide
  options.put_weight = 0.62;
  options.delete_weight = 0.28;
  options.checkpoint_weight = 0.10;
  options.lookup_weight = 0;
  options.enumerate_weight = 0;
  options.backup_weight = 0;
  options.restart_weight = 0;
  return options;
}

DatabaseOptions BaseOptions(SimEnv& env) {
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();
  return options;
}

// Drives the seeded steps into one Database. Checkpoint steps are executed too, so
// some runs recover from checkpoint N + log tail rather than log-only.
void BuildDatabaseDir(SimEnv& env, std::uint64_t seed, int steps) {
  KvApp app;
  auto db = Database::Open(app, BaseOptions(env));
  ASSERT_TRUE(db.ok()) << db.status();
  for (const WorkloadStep& step : GenerateWorkload(seed, ReplayMix(steps))) {
    switch (step.kind) {
      case StepKind::kPut:
        ASSERT_TRUE((*db)->Update(app.PreparePut(step.key, step.value)).ok());
        break;
      case StepKind::kDelete:
        ASSERT_TRUE((*db)->Update(app.PrepareDelete(step.key)).ok());
        break;
      case StepKind::kCheckpoint:
        ASSERT_TRUE((*db)->Checkpoint().ok());
        break;
      default:
        break;
    }
  }
}

// Recovers `dir` read-only (zero directory side effects, so the same directory can
// be recovered any number of times) and returns the pickled snapshot.
Bytes RecoverSnapshot(SimEnv& env, int threads, RestartBreakdown* breakdown = nullptr) {
  KvApp app;
  DatabaseOptions options = BaseOptions(env);
  options.recovery_threads = threads;
  auto db = Database::OpenReadOnly(app, options);
  EXPECT_TRUE(db.ok()) << "recovery_threads=" << threads << ": " << db.status();
  if (!db.ok()) {
    return {};
  }
  if (breakdown != nullptr) {
    *breakdown = (*db)->stats().restart;
  }
  auto snapshot = app.SerializeState();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return snapshot.ok() ? *snapshot : Bytes{};
}

TEST(ParallelRecoveryTest, EveryThreadCountRecoversByteIdenticalState) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    BuildDatabaseDir(env, seed, /*steps=*/400);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    RestartBreakdown serial;
    Bytes baseline = RecoverSnapshot(env, /*threads=*/1, &serial);
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(serial.replay_batches, 0u);        // serial mode dispatches no batches
    EXPECT_EQ(serial.replay_threads_used, 1u);
    EXPECT_EQ(serial.replay_cpu_micros, serial.replay_micros);

    for (int threads : kThreadCounts) {
      SCOPED_TRACE("recovery_threads " + std::to_string(threads));
      RestartBreakdown breakdown;
      Bytes snapshot = RecoverSnapshot(env, threads, &breakdown);
      EXPECT_EQ(snapshot, baseline);
      EXPECT_EQ(breakdown.entries_replayed, serial.entries_replayed);
      if (threads > 1 && breakdown.entries_replayed > 0) {
        EXPECT_GT(breakdown.replay_batches, 0u);
        EXPECT_GE(breakdown.replay_threads_used, 1u);
        EXPECT_LE(breakdown.replay_threads_used, static_cast<std::uint64_t>(threads));
        // The accounting split (satellite of ISSUE 8): wall-clock elapsed and
        // aggregate CPU are separate numbers, and the CPU figure is exactly the
        // sequential pass plus the summed worker apply time.
        EXPECT_EQ(breakdown.replay_cpu_micros,
                  breakdown.partition_pass_micros + breakdown.batch_apply_micros);
        EXPECT_GE(breakdown.replay_micros, 0);
      }
    }
  }
}

// Forwarding Vfs that fails Open of one exact path while set — the idiom that leaves
// a pending dual-log chain behind (rotation succeeded, background persist did not).
class FailingVfs : public Vfs {
 public:
  explicit FailingVfs(Vfs& base) : base_(base) {}

  std::string fail_open_path;

  Result<std::unique_ptr<File>> Open(std::string_view path, OpenMode mode) override {
    if (!fail_open_path.empty() && path == fail_open_path) {
      return IoError("injected open failure");
    }
    return base_.Open(path, mode);
  }
  Status Delete(std::string_view path) override { return base_.Delete(path); }
  Status Rename(std::string_view from, std::string_view to) override {
    return base_.Rename(from, to);
  }
  Result<bool> Exists(std::string_view path) override { return base_.Exists(path); }
  Result<std::vector<std::string>> List(std::string_view dir) override {
    return base_.List(dir);
  }
  Status CreateDir(std::string_view path) override { return base_.CreateDir(path); }
  Status SyncDir(std::string_view dir) override { return base_.SyncDir(dir); }

 private:
  Vfs& base_;
};

TEST(ParallelRecoveryTest, PendingChainRecoversByteIdenticalAtEveryThreadCount) {
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  SimEnv env(env_options);
  FailingVfs vfs(env.fs());
  {
    KvApp app;
    DatabaseOptions options = BaseOptions(env);
    options.vfs = &vfs;
    auto db = Database::Open(app, options);
    ASSERT_TRUE(db.ok()) << db.status();
    // Entries in log 1, then a failed persist strands log 2 behind the pending
    // marker, then more entries (same keys again: cross-log per-key ordering is
    // exactly what the chain replay must preserve).
    for (int i = 0; i < 60; ++i) {
      std::string key = "k" + std::to_string(i % 12);
      ASSERT_TRUE((*db)->Update(app.PreparePut(key, "gen1-" + std::to_string(i))).ok());
    }
    // Checkpoint 2 is a delta (KvApp supports delta capture), so fail its file.
    vfs.fail_open_path = "db/delta2";
    EXPECT_FALSE((*db)->Checkpoint().ok());
    vfs.fail_open_path.clear();
    for (int i = 0; i < 60; ++i) {
      std::string key = "k" + std::to_string(i % 12);
      if (i % 3 == 0) {
        ASSERT_TRUE((*db)->Update(app.PrepareDelete(key)).ok());
      } else {
        ASSERT_TRUE((*db)->Update(app.PreparePut(key, "gen2-" + std::to_string(i))).ok());
      }
    }
  }
  ASSERT_TRUE(*env.fs().Exists("db/pending"));

  RestartBreakdown serial;
  Bytes baseline = RecoverSnapshot(env, /*threads=*/1, &serial);
  ASSERT_FALSE(baseline.empty());
  ASSERT_EQ(serial.pending_logs_replayed, 1u);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("recovery_threads " + std::to_string(threads));
    RestartBreakdown breakdown;
    Bytes snapshot = RecoverSnapshot(env, threads, &breakdown);
    EXPECT_EQ(snapshot, baseline);
    EXPECT_EQ(breakdown.pending_logs_replayed, 1u);
    EXPECT_EQ(breakdown.entries_replayed, serial.entries_replayed);
  }
}

// Sharded engine: across-shard parallelism composes with within-shard key batches
// through the single shared pool. The directory is rebuilt identically per thread
// count (the simulated environment is deterministic), then recovered once. Shard 0
// checkpoints midway so the replay must honour its replay_from offset — skipped
// entries must never reach the replayer's batches.
TEST(ParallelRecoveryConcurrentTest, ShardedEnsembleRecoversIdenticallyAtEveryThreadCount) {
  constexpr int kShards = 4;
  auto build_and_recover = [&](int threads, std::vector<Bytes>* snapshots,
                               ShardedStats* stats) {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    std::vector<std::unique_ptr<TestApp>> apps;
    std::vector<Application*> raw;
    for (int i = 0; i < kShards; ++i) {
      apps.push_back(std::make_unique<TestApp>());
      raw.push_back(apps.back().get());
    }
    ShardedOptions options;
    options.vfs = &env.fs();
    options.dir = "ensemble";
    options.clock = &env.clock();
    {
      auto db = ShardedDatabase::Open(raw, options);
      ASSERT_TRUE(db.ok()) << db.status();
      for (int i = 0; i < 120; ++i) {
        std::string key = "k" + std::to_string(i % 17);
        std::size_t shard = (*db)->ShardForKey(key);
        ASSERT_TRUE(
            (*db)->UpdateKey(key, apps[shard]->PreparePut(key, "v" + std::to_string(i)))
                .ok());
        if (i == 60) {
          ASSERT_TRUE((*db)->Checkpoint(0).ok());
        }
      }
    }
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());
    for (auto& app : apps) {
      app->state.clear();
    }
    options.recovery_threads = threads;
    auto db = ShardedDatabase::Open(raw, options);
    ASSERT_TRUE(db.ok()) << "recovery_threads=" << threads << ": " << db.status();
    *stats = (*db)->stats();
    snapshots->clear();
    for (auto& app : apps) {
      auto snapshot = app->SerializeState();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();
      snapshots->push_back(*snapshot);
    }
  };

  std::vector<Bytes> baseline;
  ShardedStats serial;
  build_and_recover(1, &baseline, &serial);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(serial.replay_batches, 0u);
  ASSERT_GT(serial.replay_skipped_entries, 0u);  // the offset path is exercised

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("recovery_threads " + std::to_string(threads));
    std::vector<Bytes> snapshots;
    ShardedStats stats;
    build_and_recover(threads, &snapshots, &stats);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    EXPECT_EQ(snapshots, baseline);
    EXPECT_EQ(stats.replayed_entries, serial.replayed_entries);
    EXPECT_EQ(stats.replay_skipped_entries, serial.replay_skipped_entries);
    if (threads > 1) {
      EXPECT_GT(stats.replay_batches, 0u);
      EXPECT_GE(stats.replay_threads_used, 1u);
      EXPECT_LE(stats.replay_threads_used, static_cast<std::uint64_t>(threads));
    }
  }
}

// --- direct ParallelReplayer unit tests (these also run under TSan) ---

Bytes PutRecord(const std::string& key, const std::string& value) {
  return PickleWrite(sim::KvRecord{KvApp::kPut, key, value});
}

TEST(ParallelRecoveryConcurrentTest, ReplayerMatchesSerialAcrossApplications) {
  // Two applications fed interleaved through one pool must each end up exactly as
  // if replayed serially.
  KvApp serial_a, serial_b;
  KvApp parallel_a, parallel_b;

  ParallelReplayOptions options;
  options.threads = 4;
  ParallelReplayer replayer(options);
  std::size_t a = replayer.AddApplication(parallel_a);
  std::size_t b = replayer.AddApplication(parallel_b);

  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(i % 13);
    std::string value = "v" + std::to_string(i);
    Bytes record = PutRecord(key, value);
    ASSERT_TRUE(serial_a.ApplyUpdate(record).ok());
    ASSERT_TRUE(replayer.Add(a, record).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(serial_b.ApplyUpdate(record).ok());
      ASSERT_TRUE(replayer.Add(b, record).ok());
    }
  }
  ASSERT_TRUE(replayer.Finish().ok());

  EXPECT_EQ(parallel_a.state, serial_a.state);
  EXPECT_EQ(parallel_b.state, serial_b.state);
  EXPECT_GT(replayer.stats().batches, 0u);
  EXPECT_GE(replayer.stats().threads_used, 1u);
  EXPECT_EQ(replayer.stats().entries, 500u + 250u);
}

// An application without batch support rides the same pool as one with it: the
// unbatchable one becomes a single in-order task (a serial fallback), and both end
// up correct.
class UnbatchableApp : public Application {
 public:
  Status ResetState() override {
    applied.clear();
    return OkStatus();
  }
  Result<Bytes> SerializeState() override { return Bytes{}; }
  Status DeserializeState(ByteSpan) override { return OkStatus(); }
  Status ApplyUpdate(ByteSpan record) override {
    applied.emplace_back(reinterpret_cast<const char*>(record.data()), record.size());
    return OkStatus();
  }
  std::vector<std::string> applied;
};

TEST(ParallelRecoveryConcurrentTest, UnbatchableApplicationFallsBackToInOrderApply) {
  UnbatchableApp app;
  KvApp kv;
  ParallelReplayOptions options;
  options.threads = 4;
  ParallelReplayer replayer(options);
  std::size_t plain = replayer.AddApplication(app);
  std::size_t batched = replayer.AddApplication(kv);

  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    std::string payload = "record-" + std::to_string(i);
    expected.push_back(payload);
    ASSERT_TRUE(replayer.Add(plain, AsSpan(payload)).ok());
    Bytes record = PutRecord("k" + std::to_string(i % 5), payload);
    ASSERT_TRUE(replayer.Add(batched, record).ok());
  }
  ASSERT_TRUE(replayer.Finish().ok());
  EXPECT_EQ(app.applied, expected);  // in log order, exactly once
  EXPECT_EQ(kv.state.size(), 5u);
  EXPECT_GE(replayer.stats().serial_fallbacks, 1u);
}

// Fail-stop: a worker failure must abort the whole replay with NOTHING merged into
// the batched application's live state. The app poisons records whose value is
// "poison" at batch-apply time.
class PoisonedApp : public Application {
 public:
  class PoisonBatch final : public ReplayBatch {
   public:
    Status Apply(ByteSpan record) override {
      SDB_ASSIGN_OR_RETURN(sim::KvRecord update, PickleRead<sim::KvRecord>(record));
      if (update.value == "poison") {
        return CorruptionError("injected batch apply failure");
      }
      effects.insert_or_assign(std::move(update.key), std::move(update.value));
      return OkStatus();
    }
    std::map<std::string, std::string> effects;
  };

  Status ResetState() override {
    state.clear();
    return OkStatus();
  }
  Result<Bytes> SerializeState() override { return Bytes{}; }
  Status DeserializeState(ByteSpan) override { return OkStatus(); }
  Status ApplyUpdate(ByteSpan record) override {
    SDB_ASSIGN_OR_RETURN(sim::KvRecord update, PickleRead<sim::KvRecord>(record));
    state.insert_or_assign(std::move(update.key), std::move(update.value));
    return OkStatus();
  }
  bool ReplayKeyOf(ByteSpan record, std::string* key) override {
    Result<sim::KvRecord> update = PickleRead<sim::KvRecord>(record);
    if (!update.ok()) {
      return false;
    }
    *key = std::move(update->key);
    return true;
  }
  std::unique_ptr<ReplayBatch> StartReplayBatch() override {
    return std::make_unique<PoisonBatch>();
  }
  Status MergeReplayBatch(ReplayBatch& batch) override {
    for (auto& [key, value] : static_cast<PoisonBatch&>(batch).effects) {
      state.insert_or_assign(key, std::move(value));
    }
    return OkStatus();
  }

  std::map<std::string, std::string> state;
};

TEST(ParallelRecoveryConcurrentTest, WorkerFailureFailsStopWithoutMerging) {
  PoisonedApp app;
  ParallelReplayOptions options;
  options.threads = 4;
  ParallelReplayer replayer(options);
  std::size_t index = replayer.AddApplication(app);
  for (int i = 0; i < 200; ++i) {
    Bytes record = PutRecord("k" + std::to_string(i % 11),
                             i == 137 ? std::string("poison") : "v");
    ASSERT_TRUE(replayer.Add(index, record).ok());
  }
  Status status = replayer.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.Is(ErrorCode::kCorruption)) << status;
  EXPECT_TRUE(app.state.empty()) << "a failed replay merged a partial batch";
}

}  // namespace
}  // namespace sdb
