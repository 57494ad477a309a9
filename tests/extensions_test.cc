// Tests for the extension features: audit-log retention, offline integrity
// verification, name-server export and compare-and-set, heap validation.
#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/core/integrity.h"
#include "src/core/log_format.h"
#include "src/core/version_store.h"
#include "src/nameserver/name_server.h"
#include "src/nameserver/updates.h"
#include "src/sim/kv_app.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::testing::TestApp;

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() {
    SimEnvOptions options;
    options.microvax_cost_model = false;
    env_ = std::make_unique<SimEnv>(options);
  }

  DatabaseOptions Options() {
    DatabaseOptions options;
    options.vfs = &env_->fs();
    options.dir = "db";
    options.clock = &env_->clock();
    return options;
  }

  std::unique_ptr<SimEnv> env_;
};

// --- audit-log retention ---

TEST_F(ExtensionsTest, AuditLogsRetainedAcrossCheckpoints) {
  TestApp app;
  DatabaseOptions options = Options();
  options.retain_logs_for_audit = true;
  auto db = *Database::Open(app, options);

  ASSERT_TRUE(db->Update(app.PreparePut("gen1", "a")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // logfile1 -> audit1
  ASSERT_TRUE(db->Update(app.PreparePut("gen2", "b")).ok());
  ASSERT_TRUE(db->Update(app.PreparePut("gen2b", "c")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // logfile2 -> audit2

  auto audits = *db->version_store().ListAuditLogs();
  EXPECT_EQ(audits, (std::vector<std::uint64_t>{1, 2}));

  // The audit trail is replayable history.
  auto trail1 = *ReadAuditTrail(env_->fs(), db->version_store().AuditPath(1));
  auto trail2 = *ReadAuditTrail(env_->fs(), db->version_store().AuditPath(2));
  EXPECT_EQ(trail1.size(), 1u);
  EXPECT_EQ(trail2.size(), 2u);
}

TEST_F(ExtensionsTest, AuditLogsSurviveCrashDuringSwitch) {
  TestApp app;
  DatabaseOptions options = Options();
  options.retain_logs_for_audit = true;
  {
    auto db = *Database::Open(app, options);
    ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  env_->fs().Crash();
  ASSERT_TRUE(env_->fs().Recover().ok());
  TestApp app2;
  auto db = *Database::Open(app2, options);
  auto audits = *db->version_store().ListAuditLogs();
  EXPECT_EQ(audits, (std::vector<std::uint64_t>{1}));
}

TEST_F(ExtensionsTest, AuditFilesNotTreatedAsStale) {
  TestApp app;
  DatabaseOptions options = Options();
  options.retain_logs_for_audit = true;
  {
    auto db = *Database::Open(app, options);
    ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Reopen (recovery runs cleanup); audit1 must survive.
  env_->fs().Crash();
  ASSERT_TRUE(env_->fs().Recover().ok());
  TestApp app2;
  auto db2 = *Database::Open(app2, options);
  (void)db2;
  EXPECT_TRUE(*env_->fs().Exists("db/audit1"));
}

// --- offline integrity ---

TEST_F(ExtensionsTest, IntegrityHealthyDatabase) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options());
    ASSERT_TRUE(db->Update(app.PreparePut("a", "1")).ok());
    ASSERT_TRUE(db->Update(app.PreparePut("b", "2")).ok());
  }
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.version, 1u);
  EXPECT_TRUE(report.checkpoint_ok);
  EXPECT_EQ(report.checkpoint_type, "TestApp.state");
  EXPECT_EQ(report.log_entries, 2u);
  EXPECT_FALSE(report.pending_switch);
  EXPECT_TRUE(report.problems.empty());
}

TEST_F(ExtensionsTest, IntegrityDetectsDamagedCheckpoint) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options());
    ASSERT_TRUE(db->Update(app.PreparePut("a", "1")).ok());
  }
  ASSERT_TRUE(env_->fs().InjectBadFilePage("db/checkpoint1", 0).ok());
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_FALSE(report.healthy());
  EXPECT_FALSE(report.checkpoint_ok);
  EXPECT_FALSE(report.problems.empty());
}

TEST_F(ExtensionsTest, IntegrityDetectsDamagedLogEntry) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Update(app.PreparePut("k" + std::to_string(i), "v")).ok());
    }
  }
  ASSERT_TRUE(env_->fs().InjectBadFilePage("db/logfile1", 2).ok());
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_FALSE(report.healthy());
  EXPECT_EQ(report.log_damaged_entries, 1u);
  EXPECT_EQ(report.log_entries, 4u);
}

TEST_F(ExtensionsTest, IntegrityReportsPartialTailAsHarmless) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options());
    ASSERT_TRUE(db->Update(app.PreparePut("ok", "1")).ok());
  }
  // Fabricate a partial tail: the first bytes of a valid entry, durably on disk but
  // cut short — the state a file system that persists size before data can leave.
  {
    ByteWriter entry;
    EncodeLogEntry(AsSpan(std::string_view("half-written update record")), entry);
    ByteSpan half = AsSpan(entry.buffer()).subspan(0, entry.size() / 2);
    auto log = *env_->fs().Open("db/logfile1", OpenMode::kReadWrite);
    ASSERT_TRUE(log->Append(half).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_TRUE(report.healthy());  // a torn tail is the normal transient case
  EXPECT_TRUE(report.log_has_partial_tail);
  EXPECT_EQ(report.log_entries, 1u);
}

TEST_F(ExtensionsTest, IntegrityDetectsPendingSwitch) {
  TestApp app;
  {
    auto db = *Database::Open(app, Options());
    ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
  }
  // Fabricate a committed-but-uncleaned switch.
  ASSERT_TRUE(WriteWholeFile(env_->fs(), "db/checkpoint2",
                             AsSpan(*ReadWholeFile(env_->fs(), "db/checkpoint1")))
                  .ok());
  ASSERT_TRUE(WriteWholeFile(env_->fs(), "db/logfile2", ByteSpan{}).ok());
  ASSERT_TRUE(WriteWholeFile(env_->fs(), "db/newversion", AsSpan(std::string_view("2"))).ok());
  ASSERT_TRUE(env_->fs().SyncDir("db").ok());

  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_EQ(report.version, 2u);
  EXPECT_TRUE(report.pending_switch);
  // Inspection is read-only: the switch is still pending afterwards.
  EXPECT_TRUE(*env_->fs().Exists("db/newversion"));
  EXPECT_TRUE(*env_->fs().Exists("db/checkpoint1"));
}

TEST_F(ExtensionsTest, IntegrityEmptyDirFails) {
  ASSERT_TRUE(env_->fs().CreateDir("db").ok());
  EXPECT_TRUE(VerifyDatabaseDir(env_->fs(), "db").status().Is(ErrorCode::kNotFound));
}

// --- offline integrity: delta chains ---

class IntegrityChainTest : public ExtensionsTest {
 protected:
  // Two delta checkpoints on top of the fresh base, compaction disabled, so the
  // directory holds checkpoint1 + delta2 + delta3 + a manifest.
  void BuildChain() {
    DatabaseOptions options = Options();
    options.delta_checkpoint.compact_after_deltas = 100;
    options.delta_checkpoint.compact_delta_base_ratio = 0;
    auto db = *Database::Open(app_, options);
    ASSERT_TRUE(db->Update(app_.PreparePut("a", "1")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Update(app_.PreparePut("b", "2")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  sim::KvApp app_;
};

TEST_F(IntegrityChainTest, VerifiesHealthyDeltaChain) {
  BuildChain();
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.chain_ok);
  EXPECT_EQ(report.version, 3u);
  EXPECT_EQ(report.chain_base, 1u);
  EXPECT_EQ(report.chain_deltas, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_GT(report.chain_delta_bytes, 0u);
  EXPECT_EQ(report.checkpoint_type, "sim.KvApp.state");
  EXPECT_TRUE(report.problems.empty());
}

TEST_F(IntegrityChainTest, DetectsMissingChainDelta) {
  BuildChain();
  ASSERT_TRUE(env_->fs().Delete("db/delta2").ok());
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_FALSE(report.healthy());
  EXPECT_FALSE(report.chain_ok);
  EXPECT_FALSE(report.problems.empty());
}

TEST_F(IntegrityChainTest, DetectsDamagedChainDelta) {
  BuildChain();
  ASSERT_TRUE(env_->fs().InjectBadFilePage("db/delta3", 0).ok());
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_FALSE(report.healthy());
  EXPECT_FALSE(report.chain_ok);
}

TEST_F(IntegrityChainTest, DetectsManifestSkippingCurrentVersion) {
  BuildChain();
  // Fabricate a manifest whose chain jumps past the committed version: base 1
  // with a single delta at 5 cannot compose version 3.
  VersionStore names(env_->fs(), "db");
  ASSERT_TRUE(names.PublishManifest(DeltaChain{1, {2, 5}}).ok());
  auto report = *VerifyDatabaseDir(env_->fs(), "db");
  EXPECT_FALSE(report.healthy());
  EXPECT_FALSE(report.chain_ok);
}

// --- name-server export and compare-and-set ---

class NsExtensionsTest : public ExtensionsTest {
 protected:
  std::unique_ptr<ns::NameServer> OpenNs() {
    ns::NameServerOptions options;
    options.db.vfs = &env_->fs();
    options.db.dir = "ns";
    options.db.clock = &env_->clock();
    options.replica_id = "ext";
    return *ns::NameServer::Open(options);
  }
};

TEST_F(NsExtensionsTest, ExportEnumeratesSubtreeSorted) {
  auto server = OpenNs();
  ASSERT_TRUE(server->Set("b/y", "2").ok());
  ASSERT_TRUE(server->Set("a", "1").ok());
  ASSERT_TRUE(server->Set("b/x/deep", "3").ok());
  ASSERT_TRUE(server->Set("b/x", "4").ok());

  auto all = *server->Export("");
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(all[1], (std::pair<std::string, std::string>{"b/x", "4"}));
  EXPECT_EQ(all[2], (std::pair<std::string, std::string>{"b/x/deep", "3"}));
  EXPECT_EQ(all[3], (std::pair<std::string, std::string>{"b/y", "2"}));

  auto subtree = *server->Export("b/x");
  ASSERT_EQ(subtree.size(), 2u);
  EXPECT_EQ(subtree[0].first, "b/x");
  EXPECT_EQ(subtree[1].first, "b/x/deep");

  EXPECT_TRUE(server->Export("nope").status().Is(ErrorCode::kNotFound));
}

TEST_F(NsExtensionsTest, ExportSkipsValuelessIntermediates) {
  auto server = OpenNs();
  ASSERT_TRUE(server->Set("a/b/c", "leaf").ok());
  auto all = *server->Export("");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "a/b/c");
}

TEST_F(NsExtensionsTest, CompareAndSetHonoursPrecondition) {
  auto server = OpenNs();
  ASSERT_TRUE(server->Set("cfg", "v1").ok());
  std::uint64_t log_before = server->database().log_bytes();

  EXPECT_TRUE(server->CompareAndSet("cfg", "WRONG", "v2").Is(ErrorCode::kFailedPrecondition));
  EXPECT_EQ(server->database().log_bytes(), log_before);  // nothing logged
  EXPECT_EQ(*server->Lookup("cfg"), "v1");

  ASSERT_TRUE(server->CompareAndSet("cfg", "v1", "v2").ok());
  EXPECT_EQ(*server->Lookup("cfg"), "v2");

  EXPECT_TRUE(server->CompareAndSet("missing", "x", "y").Is(ErrorCode::kNotFound));
}

TEST_F(NsExtensionsTest, CompareAndSetSurvivesRestart) {
  {
    auto server = OpenNs();
    ASSERT_TRUE(server->Set("counter", "1").ok());
    ASSERT_TRUE(server->CompareAndSet("counter", "1", "2").ok());
  }
  env_->fs().Crash();
  ASSERT_TRUE(env_->fs().Recover().ok());
  auto server = OpenNs();
  EXPECT_EQ(*server->Lookup("counter"), "2");
}

// --- heap validation ---

TEST(HeapValidateTest, CleanHeapValidates) {
  th::TypeRegistry registry;
  const th::TypeDesc* type =
      registry.Register("v.node", {{"next", th::FieldKind::kRef}}).value();
  th::Heap heap;
  th::Object* a = heap.Allocate(type);
  th::Object* b = heap.Allocate(type);
  ASSERT_TRUE(a->SetRef(0, b).ok());
  heap.AddRoot(a);
  EXPECT_TRUE(heap.Validate().ok());
}

TEST(HeapValidateTest, CrossHeapReferenceDetected) {
  th::TypeRegistry registry;
  const th::TypeDesc* type =
      registry.Register("v.node", {{"next", th::FieldKind::kRef}}).value();
  th::Heap heap_a;
  th::Heap heap_b;
  th::Object* a = heap_a.Allocate(type);
  th::Object* foreign = heap_b.Allocate(type);
  ASSERT_TRUE(a->SetRef(0, foreign).ok());
  EXPECT_TRUE(heap_a.Validate().Is(ErrorCode::kInternal));
}

TEST(HeapValidateTest, DanglingRootDetected) {
  th::TypeRegistry registry;
  const th::TypeDesc* type =
      registry.Register("v.node", {{"next", th::FieldKind::kRef}}).value();
  th::Heap heap;
  th::Object* a = heap.Allocate(type);
  heap.AddRoot(a);
  heap.RemoveRoot(a);
  heap.Collect();   // frees a
  heap.AddRoot(a);  // misuse: re-rooting a freed object
  EXPECT_TRUE(heap.Validate().Is(ErrorCode::kInternal));
  heap.RemoveRoot(a);
}

TEST(HeapValidateTest, NameTreeAlwaysValidates) {
  ns::NameTree tree;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Set("x/y" + std::to_string(i), "v",
                         ns::VersionStamp{static_cast<std::uint64_t>(i + 1), "r"})
                    .ok());
  }
  ASSERT_TRUE(*tree.Remove("x", ns::VersionStamp{1000, "r"}));
  tree.CollectGarbage();
  EXPECT_TRUE(tree.heap().Validate().ok());
}

}  // namespace
}  // namespace sdb
