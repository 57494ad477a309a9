// Tests for O(changes) incremental checkpoints (ISSUE 9): delta chains published
// over a base checkpoint, background / inline compaction collapsing them, and
// recovery composing base ∘ deltas + log replay — byte-identical to full-checkpoint
// recovery at every recovery_threads count, single-DB and sharded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/integrity.h"
#include "src/core/sharded.h"
#include "src/sim/kv_app.h"
#include "src/storage/sim_env.h"

namespace sdb {
namespace {

// Forwarding Vfs that shows every successful Open to `on_open`: tests use it to see
// which file a checkpoint persist is writing, and when.
class OpenHookVfs final : public Vfs {
 public:
  explicit OpenHookVfs(Vfs& base) : base_(base) {}

  std::function<void(std::string_view path, OpenMode mode)> on_open;

  Result<std::unique_ptr<File>> Open(std::string_view path, OpenMode mode) override {
    Result<std::unique_ptr<File>> file = base_.Open(path, mode);
    if (file.ok() && on_open) {
      on_open(path, mode);
    }
    return file;
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

class DeltaCheckpointTest : public ::testing::Test {
 protected:
  DeltaCheckpointTest() {
    SimEnvOptions options;
    options.microvax_cost_model = false;
    env_ = std::make_unique<SimEnv>(options);
  }

  // Delta mode on, compaction triggers off unless a test dials them in.
  DatabaseOptions Options(std::string dir = "db") {
    DatabaseOptions options;
    options.vfs = &env_->fs();
    options.dir = std::move(dir);
    options.clock = &env_->clock();
    options.delta_checkpoint.enabled = true;
    options.delta_checkpoint.compact_after_deltas = 1000;
    options.delta_checkpoint.compact_delta_base_ratio = 0;
    return options;
  }

  bool Exists(std::string_view path) { return *env_->fs().Exists(path); }

  Status Put(Database& db, sim::KvApp& app, const std::string& key,
             const std::string& value) {
    return db.Update(app.PreparePut(key, value));
  }

  std::unique_ptr<SimEnv> env_;
};

TEST_F(DeltaCheckpointTest, DeltaChainSurvivesRestart) {
  std::map<std::string, std::string> expected;
  {
    sim::KvApp app;
    auto db = *Database::Open(app, Options());
    ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
    ASSERT_TRUE(Put(*db, app, "b", "b-v1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // delta2 on base checkpoint1
    ASSERT_TRUE(Put(*db, app, "a", "a-v2").ok());
    ASSERT_TRUE(db->Update(app.PrepareDelete("b")).ok());
    ASSERT_TRUE(Put(*db, app, "c", "c-v1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // delta3
    ASSERT_TRUE(Put(*db, app, "d", "d-v1").ok());  // log tail on top of the chain
    expected = app.state;
  }
  // The chain is the persistent representation: no full checkpoint beyond the base.
  EXPECT_TRUE(Exists("db/checkpoint1"));
  EXPECT_TRUE(Exists("db/delta2"));
  EXPECT_TRUE(Exists("db/delta3"));
  EXPECT_TRUE(Exists("db/manifest"));
  EXPECT_FALSE(Exists("db/checkpoint2"));
  EXPECT_FALSE(Exists("db/checkpoint3"));

  sim::KvApp recovered;
  auto db = Database::Open(recovered, Options());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(recovered.state, expected);
}

TEST_F(DeltaCheckpointTest, InlineCompactionCollapsesChainAtThreshold) {
  DatabaseOptions options = Options();
  options.delta_checkpoint.compact_after_deltas = 2;

  sim::KvApp app;
  auto db = *Database::Open(app, options);
  ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // chain: 1 + [2]
  ASSERT_TRUE(Put(*db, app, "a", "a-v2").ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // chain: 1 + [2, 3] -> compacts inline

  EXPECT_TRUE(Exists("db/checkpoint3"));
  EXPECT_FALSE(Exists("db/manifest"));
  EXPECT_FALSE(Exists("db/checkpoint1"));
  EXPECT_FALSE(Exists("db/delta2"));
  EXPECT_FALSE(Exists("db/delta3"));
  EXPECT_EQ(db->metrics().GetCounter("compaction.runs").value(), 1u);

  // The collapsed checkpoint is self-contained: recovery needs no chain.
  db.reset();
  sim::KvApp recovered;
  auto reopened = Database::Open(recovered, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovered.state["a"], "a-v2");
}

TEST_F(DeltaCheckpointTest, DeltaBytesRatioAlsoTriggersCompaction) {
  DatabaseOptions options = Options();
  // A tiny base with deltas quickly outgrowing it: the byte-ratio trigger fires
  // even though the chain-length trigger never would.
  options.delta_checkpoint.compact_after_deltas = 1000;
  options.delta_checkpoint.compact_delta_base_ratio = 0.01;

  sim::KvApp app;
  auto db = *Database::Open(app, options);
  ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(Put(*db, app, "b", std::string(512, 'x')).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  EXPECT_FALSE(Exists("db/manifest"));
  EXPECT_GE(db->metrics().GetCounter("compaction.runs").value(), 1u);
}

TEST_F(DeltaCheckpointTest, BackgroundCompactionCollapsesChainByClose) {
  DatabaseOptions options = Options();
  // Every update triggers an automatic checkpoint, whose persist — and the
  // compaction a crossing delta runs — happens on the background thread.
  options.checkpoint_policy.every_n_updates = 1;
  options.delta_checkpoint.compact_after_deltas = 2;

  {
    sim::KvApp app;
    auto db = *Database::Open(app, options);
    ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
    ASSERT_TRUE(Put(*db, app, "a", "a-v2").ok());  // its delta crosses the threshold
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(Put(*db, app, "k" + std::to_string(i), "v").ok());
    }
    // The chain crossed the threshold more than once; wait for a background persist
    // to land at least one compaction.
    obs::Counter& runs = db->metrics().GetCounter("compaction.runs");
    for (int i = 0; i < 5000 && runs.value() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(runs.value(), 1u);
    // Destruction waits for an in-flight persist and its compaction.
  }
  sim::KvApp recovered;
  auto db = Database::Open(recovered, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(recovered.state["a"], "a-v2");
  EXPECT_EQ(recovered.state["k3"], "v");
  auto report = VerifyDatabaseDir(env_->fs(), "db");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->healthy());
}

TEST_F(DeltaCheckpointTest, ForceFullCeilingCollapsesThroughFullSwitch) {
  DatabaseOptions options = Options();
  options.delta_checkpoint.compact_after_deltas = 1000;  // compaction never fires
  options.delta_checkpoint.force_full_at_chain_length = 3;

  sim::KvApp app;
  auto db = *Database::Open(app, options);
  ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // delta2: chain length 2
  ASSERT_TRUE(Put(*db, app, "a", "a-v2").ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // delta3: chain length 3 == ceiling
  ASSERT_TRUE(Put(*db, app, "a", "a-v3").ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // forced full: ordinary switch to checkpoint4

  EXPECT_TRUE(Exists("db/checkpoint4"));
  EXPECT_FALSE(Exists("db/delta4"));
  // The full switch superseded the chain; its files are reclaimed.
  EXPECT_FALSE(Exists("db/manifest"));
  EXPECT_FALSE(Exists("db/checkpoint1"));
  EXPECT_FALSE(Exists("db/delta2"));
  EXPECT_FALSE(Exists("db/delta3"));
}

TEST_F(DeltaCheckpointTest, KeepPreviousCheckpointDisablesDeltaMode) {
  DatabaseOptions options = Options();
  options.keep_previous_checkpoint = true;  // hard-error fallback wants full files

  sim::KvApp app;
  auto db = *Database::Open(app, options);
  ASSERT_TRUE(Put(*db, app, "a", "a-v1").ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  EXPECT_TRUE(Exists("db/checkpoint2"));
  EXPECT_FALSE(Exists("db/delta2"));
  EXPECT_FALSE(Exists("db/manifest"));
}

TEST_F(DeltaCheckpointTest, ChainRecoveryByteIdenticalToFullAtEveryThreadCount) {
  // The same update/checkpoint sequence lands in a delta-chained directory and a
  // full-checkpoint twin. Recovery from the chain must serialize byte-identically
  // to recovery from the full checkpoints, at every recovery_threads count.
  auto run_script = [&](Database& db, sim::KvApp& app) {
    for (int i = 0; i < 24; ++i) {
      std::string key = "k" + std::to_string(i % 7);
      ASSERT_TRUE(Put(db, app, key, "v" + std::to_string(i)).ok());
      if (i == 9 || i == 17) {
        ASSERT_TRUE(db.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(db.Update(app.PrepareDelete("k2")).ok());
  };

  {
    sim::KvApp app;
    auto db = *Database::Open(app, Options("chain"));
    run_script(*db, app);
  }
  {
    DatabaseOptions full_options = Options("full");
    full_options.delta_checkpoint.enabled = false;
    sim::KvApp app;
    auto db = *Database::Open(app, full_options);
    run_script(*db, app);
  }
  ASSERT_TRUE(Exists("chain/manifest"));  // the chain really is the representation
  ASSERT_FALSE(Exists("full/manifest"));

  Bytes full_snapshot;
  {
    sim::KvApp app;
    DatabaseOptions options = Options("full");
    auto db = Database::OpenReadOnly(app, options);
    ASSERT_TRUE(db.ok()) << db.status();
    full_snapshot = *app.SerializeState();
  }
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("recovery_threads " + std::to_string(threads));
    sim::KvApp app;
    DatabaseOptions options = Options("chain");
    options.recovery_threads = threads;
    auto db = Database::OpenReadOnly(app, options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(*app.SerializeState(), full_snapshot)
        << "chain recovery diverged from full-checkpoint recovery";
  }
}

// Named *Concurrent* so CI's TSan gtest filter runs it: writer threads race the
// checkpoint/compaction pipeline — automatic checkpoints persisting and compacting
// on the background thread, manual ones on this thread — then a reopen proves no
// acknowledged update was lost by a delta capture or a chain collapse.
TEST_F(DeltaCheckpointTest, ConcurrentWritersWithBackgroundCompaction) {
  DatabaseOptions options = Options();
  options.checkpoint_policy.every_n_updates = 8;
  options.delta_checkpoint.compact_after_deltas = 2;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::string> acknowledged;
  std::mutex mu;
  {
    sim::KvApp app;
    auto db = *Database::Open(app, options);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
          if (db->Update(app.PreparePut(key, "value-of-" + key)).ok()) {
            std::lock_guard<std::mutex> lock(mu);
            acknowledged.push_back(key);
          }
        }
      });
    }
    // Checkpoints race the writers: every one publishes a delta of whatever churn
    // it caught, and every second one crosses the compaction threshold.
    for (int c = 0; c < 6; ++c) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    for (std::thread& w : writers) {
      w.join();
    }
    ASSERT_TRUE(db->Checkpoint().ok());  // final delta covers the stragglers
  }

  sim::KvApp recovered;
  auto db = Database::Open(recovered, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(acknowledged.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const std::string& key : acknowledged) {
    ASSERT_EQ(recovered.state.count(key), 1u) << "acknowledged update " << key << " lost";
    EXPECT_EQ(recovered.state[key], "value-of-" + key);
  }
  // And the survivor directory verifies healthy, chain or no chain.
  auto report = VerifyDatabaseDir(env_->fs(), "db");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->healthy());
}

// Named *Concurrent* for CI's TSan filter: destroying a Database while its
// handed-off automatic checkpoint is still writing a delta and compacting must wait
// for that persist, never cut it short or race it. Every round's reopen recovers
// every acknowledged update from a healthy directory.
TEST_F(DeltaCheckpointTest, ConcurrentDestroyWhileAutoCheckpointPersists) {
  OpenHookVfs vfs(env_->fs());
  // Slow every delta and checkpoint file write so each destroy lands mid-persist.
  vfs.on_open = [](std::string_view path, OpenMode mode) {
    if (mode != OpenMode::kRead && (path.find("delta") != std::string_view::npos ||
                                    path.find("checkpoint") != std::string_view::npos)) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  };
  DatabaseOptions options = Options();
  options.vfs = &vfs;
  options.checkpoint_policy.every_n_updates = 2;
  options.delta_checkpoint.compact_after_deltas = 1;  // every delta compacts

  std::map<std::string, std::string> acknowledged;
  int destroyed_mid_persist = 0;
  for (int round = 0; round < 20; ++round) {
    {
      sim::KvApp app;
      auto db = *Database::Open(app, options);
      for (int i = 0; i < 2; ++i) {  // the second update triggers the checkpoint
        std::string key = "r" + std::to_string(round) + "-k" + std::to_string(i);
        ASSERT_TRUE(Put(*db, app, key, "v-" + key).ok());
        acknowledged[key] = "v-" + key;
      }
      destroyed_mid_persist += db->metrics().GetGauge("checkpoint.in_progress").value();
    }
    sim::KvApp recovered;
    auto db = Database::Open(recovered, options);
    ASSERT_TRUE(db.ok()) << "round " << round << ": " << db.status();
    for (const auto& [key, value] : acknowledged) {
      ASSERT_EQ(recovered.state[key], value) << "round " << round << ": " << key << " lost";
    }
    db->reset();
    auto report = VerifyDatabaseDir(env_->fs(), "db");
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->healthy()) << "round " << round;
  }
  EXPECT_GT(destroyed_mid_persist, 0);
}

// --- sharded: per-shard chains behind the shared log ---

class ShardedDeltaTest : public DeltaCheckpointTest {
 protected:
  ShardedOptions Options() {
    ShardedOptions options;
    options.vfs = &env_->fs();
    options.dir = "ensemble";
    options.clock = &env_->clock();
    options.delta_checkpoint.enabled = true;
    options.delta_checkpoint.compact_after_deltas = 1000;
    options.delta_checkpoint.compact_delta_base_ratio = 0;
    return options;
  }

  Result<std::unique_ptr<ShardedDatabase>> OpenEnsemble(int k, ShardedOptions options) {
    apps_.clear();
    std::vector<Application*> raw;
    for (int i = 0; i < k; ++i) {
      apps_.push_back(std::make_unique<sim::KvApp>());
      raw.push_back(apps_.back().get());
    }
    return ShardedDatabase::Open(raw, std::move(options));
  }

  std::map<std::string, std::string> MergedState() const {
    std::map<std::string, std::string> merged;
    for (const auto& app : apps_) {
      merged.insert(app->state.begin(), app->state.end());
    }
    return merged;
  }

  std::vector<std::unique_ptr<sim::KvApp>> apps_;
};

TEST_F(ShardedDeltaTest, PerShardChainsSurviveRestart) {
  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(2, Options());
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 8; ++i) {
        std::string key = "k" + std::to_string(i);
        std::string value = "r" + std::to_string(round) + "-v" + std::to_string(i);
        ASSERT_TRUE(
            db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, value)).ok());
        expected[key] = value;
      }
      ASSERT_TRUE(db->CheckpointAll().ok());  // each shard publishes a delta
    }
    EXPECT_GE(db->stats().delta_checkpoints, 2u);
  }
  auto db = OpenEnsemble(2, Options());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(MergedState(), expected);
}

TEST_F(ShardedDeltaTest, ShardCompactionCollapsesAndStaleSweepKeepsLiveChains) {
  ShardedOptions options = Options();
  options.delta_checkpoint.compact_after_deltas = 2;

  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(2, options);
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 8; ++i) {
        std::string key = "k" + std::to_string(i);
        std::string value = "r" + std::to_string(round) + "-v" + std::to_string(i);
        ASSERT_TRUE(
            db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, value)).ok());
        expected[key] = value;
      }
      ASSERT_TRUE(db->CheckpointAll().ok());
    }
    // Two compaction rounds per shard: deltas accumulate to 2, collapse, repeat.
    EXPECT_GE(db->stats().compactions, 2u);
  }
  // Reopen twice: the first recover sweeps anything an interrupted compaction might
  // have left, the second proves the sweep never reclaimed a live chain file.
  {
    auto db = OpenEnsemble(2, options);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(MergedState(), expected);
  }
  auto db = OpenEnsemble(2, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(MergedState(), expected);
}

// force_full_at_chain_length means what it means for Database: 0 is no ceiling, so
// a shard keeps writing deltas; N forces a full checkpoint once the chain is N long.
TEST_F(ShardedDeltaTest, ForceFullCeilingMatchesSingleDatabase) {
  auto checkpoint_three_times = [&](ShardedDatabase& db) {
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(db.Update(0, apps_[0]->PreparePut("a", "v" + std::to_string(round))).ok());
      ASSERT_TRUE(db.Checkpoint(0).ok());
    }
  };
  {
    ShardedOptions options = Options();
    options.dir = "ceiling0";
    options.delta_checkpoint.force_full_at_chain_length = 0;
    auto db = *OpenEnsemble(1, options);
    checkpoint_three_times(*db);
    EXPECT_TRUE(Exists("ceiling0/p0.delta2"));
    EXPECT_TRUE(Exists("ceiling0/p0.delta3"));
    EXPECT_TRUE(Exists("ceiling0/p0.delta4"));
    EXPECT_TRUE(Exists("ceiling0/p0.checkpoint1"));
    EXPECT_EQ(db->stats().delta_checkpoints, 3u);
  }
  ShardedOptions ceiling3 = Options();
  ceiling3.dir = "ceiling3";
  ceiling3.delta_checkpoint.force_full_at_chain_length = 3;
  {
    auto db = *OpenEnsemble(1, ceiling3);
    checkpoint_three_times(*db);  // delta2, delta3 (chain length 3), then full
    EXPECT_TRUE(Exists("ceiling3/p0.checkpoint4"));
    EXPECT_FALSE(Exists("ceiling3/p0.delta4"));
    // The full checkpoint superseded the chain; its files are reclaimed.
    EXPECT_FALSE(Exists("ceiling3/p0.checkpoint1"));
    EXPECT_FALSE(Exists("ceiling3/p0.delta2"));
    EXPECT_FALSE(Exists("ceiling3/p0.delta3"));
    EXPECT_EQ(db->stats().delta_checkpoints, 2u);
  }
  auto db = OpenEnsemble(1, ceiling3);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(apps_[0]->state["a"], "v2");
}

TEST_F(ShardedDeltaTest, ShardedConcurrentUpdatesDeltaCheckpointsAndCompaction) {
  // TSan target (matches the *Concurrent* filter): writers on every shard race
  // CheckpointAll's per-shard delta captures and inline compactions.
  ShardedOptions options = Options();
  options.delta_checkpoint.compact_after_deltas = 2;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::string> acknowledged;
  std::mutex mu;
  std::map<std::string, std::string> final_state;
  {
    auto db = *OpenEnsemble(4, options);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
          std::size_t p = db->ShardForKey(key);
          if (db->UpdateKey(key, apps_[p]->PreparePut(key, "value-of-" + key)).ok()) {
            std::lock_guard<std::mutex> lock(mu);
            acknowledged.push_back(key);
          }
        }
      });
    }
    for (int c = 0; c < 4; ++c) {
      ASSERT_TRUE(db->CheckpointAll().ok());
    }
    for (std::thread& w : writers) {
      w.join();
    }
    final_state = MergedState();
  }

  auto db = OpenEnsemble(4, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(MergedState(), final_state);
  for (const std::string& key : acknowledged) {
    ASSERT_EQ(MergedState().count(key), 1u) << "acknowledged update " << key << " lost";
  }
}

// Named *Concurrent* for CI's TSan filter: CheckpointAll hands each shard's persist
// (and the compaction its delta triggers) to that shard's background thread while
// the next shard stalls, yet the persists reach the disk one shard at a time, in
// shard order, with writers racing throughout.
TEST_F(ShardedDeltaTest, ShardedConcurrentCheckpointAllHandsOffInShardOrder) {
  OpenHookVfs vfs(env_->fs());
  std::mutex order_mu;
  std::vector<int> shard_order;  // the shard of every p<i>.* file a persist opens
  vfs.on_open = [&](std::string_view path, OpenMode mode) {
    std::size_t name = path.rfind("/p");
    if (mode != OpenMode::kRead && name != std::string_view::npos) {
      std::lock_guard<std::mutex> lock(order_mu);
      shard_order.push_back(path[name + 2] - '0');
    }
  };
  ShardedOptions options = Options();
  options.vfs = &vfs;
  options.delta_checkpoint.compact_after_deltas = 2;

  auto db = *OpenEnsemble(4, options);
  std::atomic<bool> stop{false};
  std::atomic<int> writer_failures{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load(); ++i) {
      std::string key = "w" + std::to_string(i % 64);
      std::size_t p = db->ShardForKey(key);
      if (!db->UpdateKey(key, apps_[p]->PreparePut(key, std::to_string(i))).ok()) {
        ++writer_failures;
      }
    }
  });
  for (int round = 0; round < 4; ++round) {
    for (int p = 0; p < 4; ++p) {  // every shard has churn to write as a delta
      EXPECT_TRUE(db->Update(p, apps_[p]->PreparePut("s" + std::to_string(p),
                                                     std::to_string(round)))
                      .ok());
    }
    {
      std::lock_guard<std::mutex> lock(order_mu);
      shard_order.clear();
    }
    EXPECT_TRUE(db->CheckpointAll().ok());
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_EQ(shard_order.front(), 0);
    EXPECT_EQ(shard_order.back(), 3);
    EXPECT_TRUE(std::is_sorted(shard_order.begin(), shard_order.end()))
        << "round " << round << ": shard persists interleaved on disk";
  }
  stop = true;
  writer.join();
  EXPECT_EQ(writer_failures.load(), 0);
  for (int p = 0; p < 4; ++p) {
    // Two deltas per shard crossed compact_after_deltas twice: the hand-off
    // threads compacted before CheckpointAll returned.
    EXPECT_EQ(db->shard_metrics(p).GetCounter("compaction.runs").value(), 2u) << p;
  }
  std::map<std::string, std::string> final_state = MergedState();
  db.reset();
  auto reopened = OpenEnsemble(4, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(MergedState(), final_state);
}

// A unit's checkpoint metrics: every checkpoint.* and compaction.* name plus the two
// failure counters, with counter and gauge values and histogram sample counts.
std::map<std::string, std::int64_t> CheckpointMetrics(const obs::Registry& registry) {
  std::map<std::string, std::int64_t> out;
  std::istringstream lines(registry.DumpText());
  std::string name;
  std::string rest;
  while (lines >> name && std::getline(lines, rest)) {
    if (name.rfind("checkpoint.", 0) != 0 && name.rfind("compaction.", 0) != 0 &&
        name != "db.checkpoint_failures" && name != "db.compaction_failures") {
      continue;
    }
    if (const obs::Histogram* histogram = registry.FindHistogram(name)) {
      out[name] = static_cast<std::int64_t>(histogram->count());
    } else if (const obs::Counter* counter = registry.FindCounter(name)) {
      out[name] = static_cast<std::int64_t>(counter->value());
    } else {
      out[name] = registry.FindGauge(name)->value();
    }
  }
  return out;
}

// One script through a Database and through a one-shard ensemble: two delta
// checkpoints (the second compacts the chain) and a third whose delta file write
// hits a transient disk error. Both engines run the same unit, so they must report
// the same checkpoint metrics and clean up the failed file alike.
TEST_F(ShardedDeltaTest, BothEnginesReportTheSameCheckpointMetricsAndFailures) {
  OpenHookVfs vfs(env_->fs());
  std::string failing_path;
  vfs.on_open = [&](std::string_view path, OpenMode mode) {
    if (mode == OpenMode::kRead || path != failing_path) {
      return;
    }
    // The next page to reach the disk is this file's: fail it without crashing.
    auto fired = std::make_shared<bool>(false);
    env_->disk().SetFaultInjector([fired](const DurableOp& op) {
      if (op.kind != DurableOp::Kind::kPageWrite || *fired) {
        return FaultAction::kNone;
      }
      *fired = true;
      return FaultAction::kTransientError;
    });
  };
  auto script = [&](const std::function<Status(std::string, std::string)>& put,
                    const std::function<Status()>& checkpoint, const std::string& delta4) {
    ASSERT_TRUE(put("a", "a-v1").ok());
    ASSERT_TRUE(put("b", "b-v1").ok());
    ASSERT_TRUE(checkpoint().ok());  // delta2
    ASSERT_TRUE(put("a", "a-v2").ok());
    ASSERT_TRUE(put("c", "c-v1").ok());
    ASSERT_TRUE(checkpoint().ok());  // delta3, then compaction into checkpoint3
    ASSERT_TRUE(put("d", "d-v1").ok());
    failing_path = delta4;
    EXPECT_FALSE(checkpoint().ok());
    failing_path.clear();
    env_->disk().SetFaultInjector(nullptr);
    EXPECT_FALSE(Exists(delta4)) << "failed checkpoint file left behind";
  };

  DatabaseOptions db_options = DeltaCheckpointTest::Options("db");
  db_options.vfs = &vfs;
  db_options.delta_checkpoint.compact_after_deltas = 2;
  sim::KvApp app;
  auto db = *Database::Open(app, db_options);
  script([&](std::string key, std::string value) { return Put(*db, app, key, value); },
         [&] { return db->Checkpoint(); }, "db/delta4");

  ShardedOptions ensemble_options = Options();
  ensemble_options.vfs = &vfs;
  ensemble_options.recovery_threads = 1;
  ensemble_options.delta_checkpoint.compact_after_deltas = 2;
  auto ensemble = *OpenEnsemble(1, ensemble_options);
  script(
      [&](std::string key, std::string value) {
        return ensemble->Update(0, apps_[0]->PreparePut(key, value));
      },
      [&] { return ensemble->Checkpoint(0); }, "ensemble/p0.delta4");

  std::map<std::string, std::int64_t> single = CheckpointMetrics(db->metrics());
  EXPECT_EQ(single, CheckpointMetrics(ensemble->shard_metrics(0)));
  EXPECT_EQ(single["db.checkpoint_failures"], 1);
  EXPECT_EQ(single["db.compaction_failures"], 0);
  EXPECT_EQ(single["compaction.runs"], 1);
  EXPECT_EQ(single["checkpoint.stall_us"], 3);
  EXPECT_EQ(single["checkpoint.total_us"], 2);
}

}  // namespace
}  // namespace sdb
