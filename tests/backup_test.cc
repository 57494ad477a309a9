// Tests for offline backup/restore and the page-size robustness sweep.
#include <gtest/gtest.h>

#include <map>

#include "src/core/backup.h"
#include "src/core/integrity.h"
#include "src/sim/kv_app.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::testing::TestApp;

class BackupTest : public ::testing::Test {
 protected:
  BackupTest() {
    SimEnvOptions options;
    options.microvax_cost_model = false;
    env_ = std::make_unique<SimEnv>(options);
  }

  DatabaseOptions Options(std::string dir) {
    DatabaseOptions options;
    options.vfs = &env_->fs();
    options.dir = std::move(dir);
    return options;
  }

  std::unique_ptr<SimEnv> env_;
};

TEST_F(BackupTest, BackupAndRestoreRoundTrip) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options("live"));
    ASSERT_TRUE(db->Update(app.PreparePut("base", "1")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Update(app.PreparePut("tail", "2")).ok());
  }

  BackupInfo info = *BackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  EXPECT_EQ(info.version, 2u);
  EXPECT_GT(info.checkpoint_bytes, 0u);
  EXPECT_GT(info.log_bytes, 0u);

  // A backup is a valid database directory in its own right.
  auto report = *VerifyDatabaseDir(env_->fs(), "backup");
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.log_entries, 1u);

  // Restore to a third directory and open: full state recovered.
  ASSERT_TRUE(RestoreDatabaseDir(env_->fs(), "backup", env_->fs(), "restored").ok());
  TestApp restored;
  auto db = *Database::Open(restored, Options("restored"));
  EXPECT_EQ(restored.state["base"], "1");
  EXPECT_EQ(restored.state["tail"], "2");
  (void)db;
}

TEST_F(BackupTest, BackupRefusesNonEmptyDestination) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options("live"));
    ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
  }
  TestApp other;
  { auto db = *Database::Open(other, Options("occupied")); }
  EXPECT_TRUE(BackupDatabaseDir(env_->fs(), "live", env_->fs(), "occupied")
                  .status()
                  .Is(ErrorCode::kFailedPrecondition));
}

TEST_F(BackupTest, BackupOfMissingSourceFails) {
  EXPECT_TRUE(BackupDatabaseDir(env_->fs(), "nowhere", env_->fs(), "backup")
                  .status()
                  .Is(ErrorCode::kNotFound));
}

TEST_F(BackupTest, BackupSurvivesSourceDestruction) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options("live"));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Update(app.PreparePut("key" + std::to_string(i), "v")).ok());
    }
  }
  ASSERT_TRUE(BackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup").ok());
  // The source burns down (hard error on its checkpoint).
  ASSERT_TRUE(env_->fs().InjectBadFilePage("live/checkpoint1", 0).ok());
  env_->fs().Crash();
  ASSERT_TRUE(env_->fs().Recover().ok());
  TestApp dead;
  EXPECT_FALSE(Database::Open(dead, Options("live")).ok());
  // The backup opens fine.
  TestApp saved;
  auto db = Database::Open(saved, Options("backup"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(saved.state.size(), 10u);
}

TEST_F(BackupTest, BackupCopiesLiveDeltaChainWhole) {
  // ISSUE 9 regression: a generation whose checkpoint is a delta chain must travel
  // as base + every delta + manifest — copying only checkpoint(version) (which does
  // not even exist) or only the base would quietly drop committed churn.
  DatabaseOptions live_options = Options("live");
  live_options.delta_checkpoint.enabled = true;
  live_options.delta_checkpoint.compact_after_deltas = 1000;  // keep the chain live
  live_options.delta_checkpoint.compact_delta_base_ratio = 0;

  std::map<std::string, std::string> expected;
  sim::KvApp app;
  {
    auto db = *Database::Open(app, live_options);
    ASSERT_TRUE(db->Update(app.PreparePut("a", "a-v1")).ok());
    ASSERT_TRUE(db->Update(app.PreparePut("b", "b-v1")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // delta2
    ASSERT_TRUE(db->Update(app.PreparePut("a", "a-v2")).ok());
    ASSERT_TRUE(db->Update(app.PrepareDelete("b")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // delta3
    ASSERT_TRUE(db->Update(app.PreparePut("tail", "t-v1")).ok());
    expected = app.state;
  }
  ASSERT_TRUE(*env_->fs().Exists("live/manifest"));

  BackupInfo info = *BackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  EXPECT_EQ(info.version, 3u);

  // The whole chain travelled.
  EXPECT_TRUE(*env_->fs().Exists("backup/checkpoint1"));
  EXPECT_TRUE(*env_->fs().Exists("backup/delta2"));
  EXPECT_TRUE(*env_->fs().Exists("backup/delta3"));
  EXPECT_TRUE(*env_->fs().Exists("backup/manifest"));

  // The backup verifies healthy as a chained directory in its own right...
  auto report = *VerifyDatabaseDir(env_->fs(), "backup");
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.chain_base, 1u);
  EXPECT_EQ(report.chain_deltas, (std::vector<std::uint64_t>{2, 3}));

  // ...and restores to the exact source state, log tail included.
  ASSERT_TRUE(RestoreDatabaseDir(env_->fs(), "backup", env_->fs(), "restored").ok());
  sim::KvApp restored;
  DatabaseOptions restored_options = Options("restored");
  restored_options.delta_checkpoint.enabled = true;
  auto db = Database::Open(restored, restored_options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(restored.state, expected);
}

// A crash after the switch to generation 2 committed, where the cleanup's unlinks of
// generation 1 reached the disk but the unlink of `version` did not, leaves
// version=1 next to newversion=2. The restart rule reads `newversion` first, and both
// backups must resolve the generation Open recovers. (A real file system can commit
// unlinks one at a time; SimFs makes them durable together at the next directory
// sync, so the test writes the two version files by hand.)
TEST_F(BackupTest, BackupFollowsRestartRuleAfterPartialSwitchCleanup) {
  DatabaseOptions options = Options("live");
  options.delta_checkpoint.compact_after_deltas = 1000;  // keep the chain live
  options.delta_checkpoint.compact_delta_base_ratio = 0;
  std::map<std::string, std::string> expected;
  {
    sim::KvApp app;
    auto db = *Database::Open(app, options);
    ASSERT_TRUE(db->Update(app.PreparePut("a", "a-v1")).ok());
    ASSERT_TRUE(db->Update(app.PreparePut("b", "b-v1")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // delta2 over checkpoint1; switch to 2
    ASSERT_TRUE(db->Update(app.PreparePut("tail", "t-v1")).ok());  // in logfile2
    expected = app.state;
  }
  ASSERT_TRUE(WriteWholeFile(env_->fs(), "live/version", AsSpan(std::string_view("1"))).ok());
  ASSERT_TRUE(
      WriteWholeFile(env_->fs(), "live/newversion", AsSpan(std::string_view("2"))).ok());
  ASSERT_TRUE(env_->fs().SyncDir("live").ok());
  for (const char* path : {"live/checkpoint1", "live/delta2", "live/manifest", "live/logfile2"}) {
    ASSERT_TRUE(*env_->fs().Exists(path)) << path;
  }
  ASSERT_FALSE(*env_->fs().Exists("live/logfile1"));

  auto backup = BackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  ASSERT_TRUE(backup.ok()) << backup.status();
  EXPECT_EQ(backup->version, 2u);
  auto incremental = IncrementalBackupDatabaseDir(env_->fs(), "live", env_->fs(), "refresh");
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  EXPECT_EQ(incremental->info.version, 2u);

  for (std::string dir : {"backup", "refresh"}) {
    ASSERT_TRUE(RestoreDatabaseDir(env_->fs(), dir, env_->fs(), dir + "-restored").ok());
    sim::KvApp restored;
    auto db = Database::Open(restored, Options(dir + "-restored"));
    ASSERT_TRUE(db.ok()) << dir << ": " << db.status();
    EXPECT_EQ(restored.state, expected) << dir;
  }
  sim::KvApp recovered;
  auto db = Database::Open(recovered, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(recovered.state, expected);
}

TEST_F(BackupTest, IncrementalBackupCopiesOnlyTheLog) {
  TestApp app;
  auto db = *Database::Open(app, Options("live"));
  ASSERT_TRUE(db->Update(app.PreparePut("first", "1")).ok());

  // Initial full backup.
  auto initial = *IncrementalBackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  EXPECT_FALSE(initial.incremental);
  EXPECT_EQ(initial.info.version, 1u);

  // More updates, same generation: the refresh is incremental.
  ASSERT_TRUE(db->Update(app.PreparePut("second", "2")).ok());
  SimDiskStats before = env_->disk().stats();
  auto refresh = *IncrementalBackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  SimDiskStats after = env_->disk().stats();
  EXPECT_TRUE(refresh.incremental);
  // Only log pages were written to the backup, not the checkpoint.
  EXPECT_LT(after.bytes_written - before.bytes_written, initial.info.checkpoint_bytes + 4096);

  // A checkpoint bumps the generation: the next refresh is full again.
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Update(app.PreparePut("third", "3")).ok());
  auto full = *IncrementalBackupDatabaseDir(env_->fs(), "live", env_->fs(), "backup");
  EXPECT_FALSE(full.incremental);
  EXPECT_EQ(full.info.version, 2u);
  EXPECT_FALSE(*env_->fs().Exists("backup/checkpoint1"));

  // The refreshed backup opens with all three updates.
  TestApp restored;
  auto opened = Database::Open(restored, Options("backup"));
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(restored.state.size(), 3u);
}

// --- page-size robustness sweep: the whole engine stack on unusual disk geometries ---

class PageSizeSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageSizeSweepTest, EngineRoundTripAndTornCommit) {
  std::size_t page_size = GetParam();
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  env_options.disk.page_size = page_size;
  SimEnv env(env_options);

  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.log_writer.page_size = page_size;
  options.log_replay_page_size = page_size;

  TestApp app;
  {
    auto db = *Database::Open(app, options);
    ASSERT_TRUE(db->Update(app.PreparePut("a", std::string(page_size * 2, 'x'))).ok());
    ASSERT_TRUE(db->Update(app.PreparePut("b", "small")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Update(app.PreparePut("c", std::string(page_size / 2, 'y'))).ok());

    // Torn final commit.
    CrashPlan plan(env.disk().next_durable_op_sequence(), FaultAction::kCrashTorn);
    env.disk().SetFaultInjector(plan.AsInjector());
    EXPECT_FALSE(db->Update(app.PreparePut("torn", "z")).ok());
    env.disk().SetFaultInjector(nullptr);
  }
  env.fs().Crash();
  ASSERT_TRUE(env.fs().Recover().ok());
  TestApp recovered;
  auto db = Database::Open(recovered, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(recovered.state["a"], std::string(page_size * 2, 'x'));
  EXPECT_EQ(recovered.state["b"], "small");
  EXPECT_EQ(recovered.state["c"], std::string(page_size / 2, 'y'));
  EXPECT_EQ(recovered.state.count("torn"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, PageSizeSweepTest,
                         ::testing::Values(64, 128, 256, 512, 1024, 4096));

}  // namespace
}  // namespace sdb
