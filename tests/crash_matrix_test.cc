// Systematic crash-point enumeration (the test twin of experiment E8).
//
// A scripted workload runs against the engine while a CrashPlan injects a power
// failure at the Nth durable disk operation, for every N and for each failure flavour
// (before / torn / after). After each crash the database is reopened and the paper's
// Section 4 guarantees are checked:
//   - every update whose Update() call returned OK is present (committed stays);
//   - every update whose Update() call failed is absent-or-present-consistently
//     (an uncommitted update may never be partially applied — here: the value is
//     either the old one or the new one, and the database opens cleanly);
//   - the database always recovers without manual intervention.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

#include "src/core/integrity.h"
#include "src/core/sharded.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/kv_app.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::testing::TestApp;

struct ScriptResult {
  std::vector<std::string> acknowledged;  // keys whose update returned OK
  std::vector<std::string> failed;        // keys whose update failed (crash)
  std::uint64_t total_durable_ops = 0;
  bool crashed = false;
};

// Runs the scripted workload: 6 updates with a checkpoint in the middle. Returns which
// updates were acknowledged before the crash (if any).
ScriptResult RunScript(SimEnv& env) {
  ScriptResult result;
  TestApp app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();

  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    result.crashed = true;
    return result;
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  auto do_update = [&](const std::string& key) {
    Status status = db->Update(app.PreparePut(key, "value-of-" + key));
    if (status.ok()) {
      result.acknowledged.push_back(key);
    } else {
      result.failed.push_back(key);
      result.crashed = true;
    }
    return status.ok();
  };

  for (const char* key : {"u1", "u2", "u3"}) {
    if (!do_update(key)) {
      return result;
    }
  }
  if (!db->Checkpoint().ok()) {
    result.crashed = true;
    return result;
  }
  for (const char* key : {"u4", "u5", "u6"}) {
    if (!do_update(key)) {
      return result;
    }
  }
  result.total_durable_ops = env.disk().next_durable_op_sequence() - 1;
  return result;
}

class CrashMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashMatrixTest, RecoveryInvariantsHoldAtEveryCrashPoint) {
  FaultAction action = static_cast<FaultAction>(GetParam());

  // Dry run to learn the number of durable operations in the script.
  std::uint64_t total_ops = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    ScriptResult dry = RunScript(dry_env);
    ASSERT_FALSE(dry.crashed);
    ASSERT_EQ(dry.acknowledged.size(), 6u);
    total_ops = dry.total_durable_ops;
    ASSERT_GT(total_ops, 10u);
  }

  for (std::uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at durable op " + std::to_string(crash_at));
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    CrashPlan plan(crash_at, action);
    env.disk().SetFaultInjector(plan.AsInjector());

    ScriptResult script = RunScript(env);
    EXPECT_TRUE(plan.fired());
    EXPECT_TRUE(script.crashed);

    // Power comes back.
    env.disk().SetFaultInjector(nullptr);
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    TestApp recovered;
    DatabaseOptions options;
    options.vfs = &env.fs();
    options.dir = "db";
    options.clock = &env.clock();
    auto db = Database::Open(recovered, options);
    ASSERT_TRUE(db.ok()) << "recovery failed after crash at op " << crash_at << ": "
                         << db.status();

    // Invariant 1: every acknowledged update is present with its exact value.
    for (const std::string& key : script.acknowledged) {
      ASSERT_EQ(recovered.state.count(key), 1u)
          << "acknowledged update " << key << " lost (crash at op " << crash_at << ")";
      EXPECT_EQ(recovered.state[key], "value-of-" + key);
    }
    // Invariant 2: an unacknowledged update is either fully present (the crash hit
    // after its commit point) or fully absent — never mangled.
    for (const std::string& key : script.failed) {
      if (recovered.state.count(key) != 0) {
        EXPECT_EQ(recovered.state[key], "value-of-" + key);
      }
    }
    // Invariant 3: nothing else crept in.
    EXPECT_LE(recovered.state.size(), script.acknowledged.size() + script.failed.size());

    // And the recovered database remains usable.
    TestApp post = recovered;
    ASSERT_TRUE((*db)->Update(recovered.PreparePut("post-recovery", "works")).ok());
    EXPECT_EQ(recovered.state["post-recovery"], "works");
    (void)post;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaultFlavours, CrashMatrixTest,
                         ::testing::Values(static_cast<int>(FaultAction::kCrashBefore),
                                           static_cast<int>(FaultAction::kCrashTorn),
                                           static_cast<int>(FaultAction::kCrashAfter)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           switch (static_cast<FaultAction>(param_info.param)) {
                             case FaultAction::kCrashBefore:
                               return std::string("Before");
                             case FaultAction::kCrashTorn:
                               return std::string("Torn");
                             case FaultAction::kCrashAfter:
                               return std::string("After");
                             default:
                               return std::string("None");
                           }
                         });

// --- group-commit crash matrix ---
//
// Concurrent updaters share commit batches; the crash is injected at an arbitrary
// durable disk operation, which lands it before, inside, or — the interesting case —
// between a batch's fsync and its in-memory applies (records durable, nobody
// acknowledged, process dies). After "reboot" the Section 4 invariants must hold for
// every interleaving the scheduler produced.

struct ConcurrentScriptResult {
  std::vector<std::string> acknowledged;  // keys whose Update() returned OK
  std::vector<std::string> failed;        // keys whose Update() returned an error
};

ConcurrentScriptResult RunConcurrentScript(SimEnv& env, int threads, int per_thread) {
  ConcurrentScriptResult result;
  TestApp app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();

  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    return result;
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  std::mutex mu;
  std::vector<std::thread> writers;
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        Status status = db->Update(app.PreparePut(key, "value-of-" + key));
        std::lock_guard<std::mutex> lock(mu);
        if (status.ok()) {
          result.acknowledged.push_back(key);
        } else {
          result.failed.push_back(key);
        }
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  return result;
}

class GroupCommitCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupCommitCrashTest, AcknowledgedBatchedUpdatesSurviveEveryCrashPoint) {
  FaultAction action = static_cast<FaultAction>(GetParam());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;

  // Batch composition varies run to run, so there is no fixed op count to enumerate;
  // sweep a generous range and skip points the run never reached.
  for (std::uint64_t crash_at = 1; crash_at <= 40; ++crash_at) {
    SCOPED_TRACE("crash at durable op " + std::to_string(crash_at));
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    CrashPlan plan(crash_at, action);
    env.disk().SetFaultInjector(plan.AsInjector());

    ConcurrentScriptResult script = RunConcurrentScript(env, kThreads, kPerThread);
    if (!plan.fired()) {
      continue;  // this run coalesced enough to finish before the crash point
    }

    env.disk().SetFaultInjector(nullptr);
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    TestApp recovered;
    DatabaseOptions options;
    options.vfs = &env.fs();
    options.dir = "db";
    options.clock = &env.clock();
    auto db = Database::Open(recovered, options);
    ASSERT_TRUE(db.ok()) << "recovery failed after crash at op " << crash_at << ": "
                         << db.status();

    // Invariant 1: an acknowledged update was fsynced before its Update() returned,
    // whatever batch it rode in — it must be present with its exact value.
    for (const std::string& key : script.acknowledged) {
      ASSERT_EQ(recovered.state.count(key), 1u)
          << "acknowledged update " << key << " lost (crash at op " << crash_at << ")";
      EXPECT_EQ(recovered.state[key], "value-of-" + key);
    }
    // Invariant 2: unacknowledged updates are all-or-nothing. This includes records
    // whose batch fsync completed but whose waiters never got the OK back — the
    // "killed between batch-fsync and apply" window.
    for (const std::string& key : script.failed) {
      if (recovered.state.count(key) != 0) {
        EXPECT_EQ(recovered.state[key], "value-of-" + key);
      }
    }
    EXPECT_LE(recovered.state.size(),
              script.acknowledged.size() + script.failed.size());

    // And the recovered database takes new updates.
    ASSERT_TRUE((*db)->Update(recovered.PreparePut("post-recovery", "works")).ok());
    EXPECT_EQ(recovered.state["post-recovery"], "works");
  }
}

INSTANTIATE_TEST_SUITE_P(BatchFaultFlavours, GroupCommitCrashTest,
                         ::testing::Values(static_cast<int>(FaultAction::kCrashTorn),
                                           static_cast<int>(FaultAction::kCrashAfter)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return static_cast<FaultAction>(param_info.param) ==
                                          FaultAction::kCrashTorn
                                      ? std::string("Torn")
                                      : std::string("After");
                         });

// --- checkpoint switch-window matrix ---
//
// The version-file switch (Section 3: write checkpoint<N+1>, create logfile<N+1>,
// write `newversion` — the commit point — then clean up and rename) is the most
// delicate durable-op sequence in the engine. This matrix brackets Checkpoint()'s
// durable-op window with a dry run, then crashes at EVERY op inside it, crossed with
// every failure flavour, plus a metadata-sync-only kCrashTorn pass that concentrates
// torn writes on the directory syncs the protocol's commit point depends on.

struct SwitchWindowResult {
  std::vector<std::string> acknowledged;
  std::vector<std::string> failed;
  std::uint64_t window_first = 0;  // first durable op issued by Checkpoint()
  std::uint64_t window_last = 0;   // last durable op issued by Checkpoint()
  bool checkpoint_ok = false;
};

// Three updates, a checkpoint (with its durable-op window recorded), three more
// updates. Update failures are tolerated — after a crash or a poisoned switch the
// engine reports errors by design; the matrix only cares who was acknowledged.
SwitchWindowResult RunSwitchScript(SimEnv& env) {
  SwitchWindowResult result;
  TestApp app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();

  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    return result;
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  auto do_update = [&](const std::string& key) {
    if (db->Update(app.PreparePut(key, "value-of-" + key)).ok()) {
      result.acknowledged.push_back(key);
    } else {
      result.failed.push_back(key);
    }
  };

  for (const char* key : {"s1", "s2", "s3"}) {
    do_update(key);
  }
  result.window_first = env.disk().next_durable_op_sequence();
  result.checkpoint_ok = db->Checkpoint().ok();
  result.window_last = env.disk().next_durable_op_sequence() - 1;
  for (const char* key : {"s4", "s5", "s6"}) {
    do_update(key);
  }
  return result;
}

// Reopens after a power cut and asserts the Section 4 invariants against the script's
// acknowledgement record.
void CheckSwitchRecovery(SimEnv& env, const SwitchWindowResult& script,
                         std::uint64_t crash_at) {
  env.disk().SetFaultInjector(nullptr);
  env.fs().Crash();
  ASSERT_TRUE(env.fs().Recover().ok());

  TestApp recovered;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();
  auto db = Database::Open(recovered, options);
  ASSERT_TRUE(db.ok()) << "recovery failed after crash at op " << crash_at << ": "
                       << db.status();

  for (const std::string& key : script.acknowledged) {
    ASSERT_EQ(recovered.state.count(key), 1u)
        << "acknowledged update " << key << " lost (crash at op " << crash_at << ")";
    EXPECT_EQ(recovered.state[key], "value-of-" + key);
  }
  for (const std::string& key : script.failed) {
    if (recovered.state.count(key) != 0) {
      EXPECT_EQ(recovered.state[key], "value-of-" + key);
    }
  }
  EXPECT_LE(recovered.state.size(), script.acknowledged.size() + script.failed.size());

  ASSERT_TRUE((*db)->Update(recovered.PreparePut("post-recovery", "works")).ok());
  EXPECT_EQ(recovered.state["post-recovery"], "works");
}

class SwitchWindowCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(SwitchWindowCrashTest, EveryDurableOpOfTheSwitchIsCrashSafe) {
  FaultAction action = static_cast<FaultAction>(GetParam());

  // Dry run: bracket the durable-op window Checkpoint() occupies.
  std::uint64_t window_first = 0;
  std::uint64_t window_last = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    SwitchWindowResult dry = RunSwitchScript(dry_env);
    ASSERT_TRUE(dry.checkpoint_ok);
    ASSERT_EQ(dry.acknowledged.size(), 6u);
    window_first = dry.window_first;
    window_last = dry.window_last;
    // The switch protocol issues at least: checkpoint write+sync, log create+sync,
    // dir sync, newversion write (commit point), final dir sync.
    ASSERT_GE(window_last - window_first + 1, 5u);
  }

  for (std::uint64_t crash_at = window_first; crash_at <= window_last; ++crash_at) {
    SCOPED_TRACE("crash at switch op " + std::to_string(crash_at) + " (window " +
                 std::to_string(window_first) + ".." + std::to_string(window_last) +
                 ")");
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    CrashPlan plan(crash_at, action);
    env.disk().SetFaultInjector(plan.AsInjector());

    SwitchWindowResult script = RunSwitchScript(env);
    EXPECT_TRUE(plan.fired());
    EXPECT_FALSE(script.checkpoint_ok);

    CheckSwitchRecovery(env, script, crash_at);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SwitchFaultFlavours, SwitchWindowCrashTest,
                         ::testing::Values(static_cast<int>(FaultAction::kCrashBefore),
                                           static_cast<int>(FaultAction::kCrashTorn),
                                           static_cast<int>(FaultAction::kCrashAfter)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           switch (static_cast<FaultAction>(param_info.param)) {
                             case FaultAction::kCrashBefore:
                               return std::string("Before");
                             case FaultAction::kCrashTorn:
                               return std::string("Torn");
                             case FaultAction::kCrashAfter:
                               return std::string("After");
                             default:
                               return std::string("None");
                           }
                         });

TEST(SwitchWindowCrashTest, TornMetadataSyncAtEverySwitchSyncIsCrashSafe) {
  // The commit point of the switch is a directory sync making `newversion` durable.
  // Target kCrashTorn at each metadata sync inside the window specifically, via
  // metadata-only scripted fault points (page writes at the same sequence are let
  // through untouched, so only the syncs are enumerated).
  std::uint64_t window_first = 0;
  std::uint64_t window_last = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    SwitchWindowResult dry = RunSwitchScript(dry_env);
    ASSERT_TRUE(dry.checkpoint_ok);
    window_first = dry.window_first;
    window_last = dry.window_last;
  }

  int syncs_hit = 0;
  for (std::uint64_t crash_at = window_first; crash_at <= window_last; ++crash_at) {
    SCOPED_TRACE("torn metadata sync at switch op " + std::to_string(crash_at));
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    sim::ScriptedFaultSchedule schedule(
        {sim::FaultPoint{crash_at, FaultAction::kCrashTorn, /*read_op=*/false,
                         /*metadata_only=*/true}});
    env.disk().SetFaultInjector(schedule.AsInjector());

    SwitchWindowResult script = RunSwitchScript(env);
    if (schedule.fired_count() == 0) {
      // Op crash_at was a page write, not a metadata sync; the run completed clean.
      EXPECT_TRUE(script.checkpoint_ok);
      continue;
    }
    ++syncs_hit;
    CheckSwitchRecovery(env, script, crash_at);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The switch performs several directory syncs; the metadata-only pass must have
  // actually exercised them.
  EXPECT_GE(syncs_hit, 3);
}

// --- pending-rotation matrix ---
//
// Concurrent checkpointing splits the protocol in two: the rotation (snapshot, empty
// logfile<N+1>, `pending` marker — all inside the update-lock window) and the
// background persist (checkpoint write, switch commit). A fault between the two
// leaves the engine acknowledging updates into the rotated log while the version
// files still name the old generation. This matrix injects a TRANSIENT fault at
// every durable op of the checkpoint window — the process survives and keeps
// committing — and then cuts power. Dual-log recovery (checkpoint N + log N + log
// N+1) must preserve every acknowledged update, at every fault point.
TEST(PendingRotationCrashTest, TransientFaultThenPowerCutIsSafeAtEveryCheckpointOp) {
  std::uint64_t window_first = 0;
  std::uint64_t window_last = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    SwitchWindowResult dry = RunSwitchScript(dry_env);
    ASSERT_TRUE(dry.checkpoint_ok);
    ASSERT_EQ(dry.acknowledged.size(), 6u);
    window_first = dry.window_first;
    window_last = dry.window_last;
  }

  int chain_runs = 0;  // runs that power-cut with a live pending chain
  for (std::uint64_t crash_at = window_first; crash_at <= window_last; ++crash_at) {
    SCOPED_TRACE("transient fault at checkpoint op " + std::to_string(crash_at) +
                 " (window " + std::to_string(window_first) + ".." +
                 std::to_string(window_last) + ")");
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    sim::ScriptedFaultSchedule schedule(
        {sim::FaultPoint{crash_at, FaultAction::kTransientError, /*read_op=*/false,
                         /*metadata_only=*/false}});
    env.disk().SetFaultInjector(schedule.AsInjector());

    SwitchWindowResult script = RunSwitchScript(env);
    EXPECT_EQ(schedule.fired_count(), 1);
    EXPECT_FALSE(script.checkpoint_ok);
    EXPECT_EQ(script.acknowledged.size() + script.failed.size(), 6u);

    // A fault past the switch's commit point poisons the engine (ambiguity
    // fail-stop) and s4..s6 are rejected; any earlier fault aborts cleanly and
    // s4..s6 are acknowledged into whichever log is live. On the clean-abort path
    // the aborted generation must not survive as an orphan (the abort deletes it,
    // and CommitSwitch's later cleanup loop would also collapse it).
    if (script.failed.empty()) {
      auto orphan = env.fs().Exists("db/checkpoint2");
      ASSERT_TRUE(orphan.ok());
      EXPECT_FALSE(*orphan) << "clean persist abort left an orphaned checkpoint";
      auto chain = env.fs().Exists("db/pending");
      ASSERT_TRUE(chain.ok());
      if (*chain) {
        ++chain_runs;  // rotation finished before the fault: the dual-log path
      }
    }

    CheckSwitchRecovery(env, script, crash_at);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The sweep must actually have produced runs where acknowledged updates sat in a
  // rotated log with no checkpoint behind it — the scenario this PR introduces.
  EXPECT_GE(chain_runs, 2);
}

// --- parallel-recovery matrix ---
//
// ISSUE 8: recovery itself can be interrupted. For every crash point of the scripted
// workload, the first reopen (running with recovery_threads = P) is cut down by a
// second power failure, and only the reopen after THAT must land the Section 4
// invariants. Because batched replay merges nothing until every batch succeeded, an
// interrupted parallel recovery leaves the directory exactly as the first crash did —
// re-running it is idempotent at every thread count, and the final state is
// byte-identical to what a serial (threads = 1) recovery of the same directory sees.
class ParallelRecoveryCrashMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRecoveryCrashMatrixTest, InterruptedRecoveryRerunsIdempotently) {
  const int threads = GetParam();

  std::uint64_t total_ops = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    ScriptResult dry = RunScript(dry_env);
    ASSERT_FALSE(dry.crashed);
    total_ops = dry.total_durable_ops;
  }

  for (std::uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at durable op " + std::to_string(crash_at) +
                 ", recovery_threads " + std::to_string(threads));
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    CrashPlan plan(crash_at, FaultAction::kCrashTorn);
    env.disk().SetFaultInjector(plan.AsInjector());

    ScriptResult script = RunScript(env);
    EXPECT_TRUE(plan.fired());

    env.disk().SetFaultInjector(nullptr);
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    DatabaseOptions options;
    options.vfs = &env.fs();
    options.dir = "db";
    options.clock = &env.clock();
    options.recovery_threads = threads;

    // First recovery attempt: a parallel replay is in progress when the power fails
    // again (the crash lands on one of the reopen's own durable ops).
    {
      CrashPlan recovery_plan(2, FaultAction::kCrashTorn);
      env.disk().SetFaultInjector(recovery_plan.AsInjector());
      TestApp interrupted;
      Database::Open(interrupted, options).status();  // may fail; that's the point
      env.disk().SetFaultInjector(nullptr);
    }
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    // Serial baseline of the directory as it now stands (read-only: no side
    // effects). The earliest crash points can leave a directory with no valid
    // version at all — read-only open cannot bootstrap one, so the baseline is
    // simply "empty state" there (the read-write reopen below starts fresh).
    Bytes serial_snapshot;
    bool have_serial_baseline = false;
    {
      TestApp serial;
      DatabaseOptions serial_options = options;
      serial_options.recovery_threads = 1;
      auto ro = Database::OpenReadOnly(serial, serial_options);
      if (ro.ok()) {
        auto snapshot = serial.SerializeState();
        ASSERT_TRUE(snapshot.ok());
        serial_snapshot = *snapshot;
        have_serial_baseline = true;
      } else {
        ASSERT_TRUE(ro.status().Is(ErrorCode::kNotFound))
            << "serial recovery failed after crash at op " << crash_at << ": "
            << ro.status();
      }
    }

    // The re-run recovery at the parametrized thread count.
    TestApp recovered;
    auto db = Database::Open(recovered, options);
    ASSERT_TRUE(db.ok()) << "recovery failed after crash at op " << crash_at << ": "
                         << db.status();
    if (have_serial_baseline) {
      auto snapshot = recovered.SerializeState();
      ASSERT_TRUE(snapshot.ok());
      EXPECT_EQ(*snapshot, serial_snapshot)
          << "parallel re-run recovery diverged from serial replay (crash at op "
          << crash_at << ")";
    } else {
      EXPECT_TRUE(recovered.state.empty());
    }

    for (const std::string& key : script.acknowledged) {
      ASSERT_EQ(recovered.state.count(key), 1u)
          << "acknowledged update " << key << " lost (crash at op " << crash_at << ")";
      EXPECT_EQ(recovered.state[key], "value-of-" + key);
    }
    for (const std::string& key : script.failed) {
      if (recovered.state.count(key) != 0) {
        EXPECT_EQ(recovered.state[key], "value-of-" + key);
      }
    }
    EXPECT_LE(recovered.state.size(), script.acknowledged.size() + script.failed.size());

    ASSERT_TRUE((*db)->Update(recovered.PreparePut("post-recovery", "works")).ok());
    EXPECT_EQ(recovered.state["post-recovery"], "works");
  }
}

INSTANTIATE_TEST_SUITE_P(AllThreadCounts, ParallelRecoveryCrashMatrixTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "Threads" + std::to_string(param_info.param);
                         });

// --- delta-chain compaction matrix ---
//
// ISSUE 9: with delta checkpoints enabled, a checkpoint publishes a delta on top of
// the chain, and the checkpoint that crosses the compaction threshold additionally
// rewrites the chain before returning: compose(base ∘ deltas) -> write a full
// checkpoint at the chain top -> publish it (the commit point) -> reclaim the old
// base and deltas. This matrix brackets that compacting checkpoint's durable-op
// window with a dry run, then crashes at EVERY op inside it, for every failure
// flavour, plus a transient pass (the process survives the fault, keeps committing,
// and only then loses power). After each reopen the acknowledged state must be exact.
//
// Both engines run it: a Database (the version switch; its directory must then
// verify healthy) and a one-shard ensemble driven through Update(0, ...) and
// Checkpoint(0) (the manifest rename; VerifyDatabaseDir does not read ensembles, so
// it is reopened a second time instead).

// The ensemble flavours of the parameter: a FaultAction plus this bit, so the
// Database flavours keep their parameter values.
constexpr int kEnsembleChain = 16;

// The engine under test: a Database, or a one-shard ensemble's shard 0.
struct ChainEngine {
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardedDatabase> ensemble;

  static Result<ChainEngine> Open(SimEnv& env, bool ensemble, sim::KvApp& app) {
    DeltaCheckpointOptions delta;
    delta.enabled = true;
    delta.compact_after_deltas = 2;
    delta.compact_delta_base_ratio = 0;  // size trigger off
    ChainEngine engine;
    if (ensemble) {
      ShardedOptions options;
      options.vfs = &env.fs();
      options.dir = "db";
      options.clock = &env.clock();
      options.recovery_threads = 1;
      options.delta_checkpoint = delta;
      SDB_ASSIGN_OR_RETURN(engine.ensemble, ShardedDatabase::Open({&app}, options));
    } else {
      DatabaseOptions options;
      options.vfs = &env.fs();
      options.dir = "db";
      options.clock = &env.clock();
      options.delta_checkpoint = delta;
      SDB_ASSIGN_OR_RETURN(engine.db, Database::Open(app, options));
    }
    return engine;
  }

  // Where the engine keeps a chain file: "checkpoint3" -> db/checkpoint3 or
  // db/p0.checkpoint3.
  static std::string File(bool ensemble, const std::string& name) {
    return (ensemble ? "db/p0." : "db/") + name;
  }

  Status Update(const std::function<Result<Bytes>()>& prepare) {
    return db != nullptr ? db->Update(prepare) : ensemble->Update(0, prepare);
  }
  Status Checkpoint() { return db != nullptr ? db->Checkpoint() : ensemble->Checkpoint(0); }
};

struct DeltaFailedOp {
  std::string key;
  std::string new_value;  // a failed put is all-or-nothing: absent or exactly this
};

struct DeltaWindowResult {
  std::map<std::string, std::string> model;  // acknowledged state, exact values
  std::vector<DeltaFailedOp> failed;
  std::uint64_t window_first = 0;  // durable-op window of the compacting checkpoint
  std::uint64_t window_last = 0;
  bool checkpoint2_ok = false;
};

// Two generations of churn with a checkpoint between them (chain = checkpoint1 ∘
// delta2 ∘ delta3 the moment the bracketed call crosses the threshold), then more
// updates after the window. Overwrites, a blind delete and fresh keys make the
// composed state differ from every individual chain level.
DeltaWindowResult RunDeltaChainScript(SimEnv& env, bool ensemble) {
  DeltaWindowResult result;
  sim::KvApp app;
  Result<ChainEngine> engine = ChainEngine::Open(env, ensemble, app);
  if (!engine.ok()) {
    return result;
  }

  auto put = [&](const std::string& key, const std::string& value) {
    if (engine->Update(app.PreparePut(key, value)).ok()) {
      result.model.insert_or_assign(key, value);
    } else {
      result.failed.push_back({key, value});
    }
  };

  put("a", "a-v1");
  put("b", "b-v1");
  put("hot", "hot-v1");
  if (!engine->Checkpoint().ok()) {  // publishes delta2; before the bracketed window
    return result;
  }
  put("a", "a-v2");
  if (engine->Update(app.PrepareDelete("b")).ok()) {
    result.model.erase("b");
  } else {
    // Unreachable in this matrix (every fault fires inside the window below); if it
    // ever trips, the mismatched empty value fails the recovery check loudly.
    result.failed.push_back({"b", ""});
  }
  put("c", "c-v1");
  put("hot", "hot-v2");

  // The bracketed call: publishes delta3 (chain length 2) and, having crossed
  // compact_after_deltas = 2, compacts the chain before returning.
  result.window_first = env.disk().next_durable_op_sequence();
  result.checkpoint2_ok = engine->Checkpoint().ok();
  result.window_last = env.disk().next_durable_op_sequence() - 1;

  put("post1", "post1-v1");
  put("post2", "post2-v1");
  return result;
}

void CheckDeltaChainRecovery(SimEnv& env, const DeltaWindowResult& script,
                             std::uint64_t crash_at, bool ensemble) {
  env.disk().SetFaultInjector(nullptr);
  env.fs().Crash();
  ASSERT_TRUE(env.fs().Recover().ok());

  // An ensemble reopens twice: the second open proves the first one's sweep kept
  // every live chain file (the Database's directory is verified instead).
  for (int open = 0; open < (ensemble ? 2 : 1); ++open) {
    sim::KvApp recovered;
    Result<ChainEngine> engine = ChainEngine::Open(env, ensemble, recovered);
    ASSERT_TRUE(engine.ok()) << "recovery " << open << " failed after crash at op "
                             << crash_at << ": " << engine.status();

    // Invariant 1: the acknowledged state is reproduced exactly — base ∘ deltas +
    // log replay must compose to the model, whichever chain files the crash left.
    for (const auto& [key, value] : script.model) {
      auto it = recovered.state.find(key);
      ASSERT_NE(it, recovered.state.end())
          << "acknowledged update " << key << " lost (crash at op " << crash_at << ")";
      EXPECT_EQ(it->second, value) << "key " << key << " (crash at op " << crash_at << ")";
    }
    // Invariant 2: a failed put (all on fresh keys in this script) is all-or-nothing.
    for (const DeltaFailedOp& op : script.failed) {
      auto it = recovered.state.find(op.key);
      if (it != recovered.state.end()) {
        EXPECT_EQ(it->second, op.new_value)
            << "unacknowledged update " << op.key << " mangled (crash at op " << crash_at
            << ")";
      }
    }
    // Invariant 3: nothing else crept in.
    for (const auto& [key, value] : recovered.state) {
      bool known = script.model.count(key) != 0;
      for (const DeltaFailedOp& op : script.failed) {
        known = known || op.key == key;
      }
      EXPECT_TRUE(known) << "stray key " << key << " (crash at op " << crash_at << ")";
    }
  }

  // Invariant 4: whatever mix of chain files survived, the reopened directory
  // verifies healthy — recovery either kept a coherent chain or swept it.
  if (!ensemble) {
    auto report = VerifyDatabaseDir(env.fs(), "db");
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->healthy()) << "unhealthy directory after crash at op " << crash_at;
  }

  // And the recovered engine takes new updates.
  sim::KvApp recovered;
  Result<ChainEngine> engine = ChainEngine::Open(env, ensemble, recovered);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->Update(recovered.PreparePut("post-recovery", "works")).ok());
  EXPECT_EQ(recovered.state["post-recovery"], "works");
}

class DeltaCompactionCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaCompactionCrashTest, EveryDurableOpOfPublishAndCompactionIsCrashSafe) {
  const bool ensemble = (GetParam() & kEnsembleChain) != 0;
  FaultAction action = static_cast<FaultAction>(GetParam() & ~kEnsembleChain);

  // Dry run: bracket the window and prove it really contains a full compaction.
  std::uint64_t window_first = 0;
  std::uint64_t window_last = 0;
  {
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv dry_env(env_options);
    DeltaWindowResult dry = RunDeltaChainScript(dry_env, ensemble);
    ASSERT_TRUE(dry.checkpoint2_ok);
    ASSERT_TRUE(dry.failed.empty());
    // Compaction completed inside the bracketed call: the composed checkpoint sits
    // at the chain top and the old levels are reclaimed (and a Database retired its
    // manifest; an ensemble's manifest also binds its log).
    ASSERT_TRUE(*dry_env.fs().Exists(ChainEngine::File(ensemble, "checkpoint3")));
    ASSERT_FALSE(*dry_env.fs().Exists(ChainEngine::File(ensemble, "checkpoint1")));
    ASSERT_FALSE(*dry_env.fs().Exists(ChainEngine::File(ensemble, "delta2")));
    ASSERT_FALSE(*dry_env.fs().Exists(ChainEngine::File(ensemble, "delta3")));
    ASSERT_EQ(*dry_env.fs().Exists("db/manifest"), ensemble);
    window_first = dry.window_first;
    window_last = dry.window_last;
    // Delta write+sync, the publish, the compaction rewrite, its publish and the
    // reclaim all sit inside the window.
    ASSERT_GE(window_last - window_first + 1, 8u);
  }

  for (std::uint64_t crash_at = window_first; crash_at <= window_last; ++crash_at) {
    SCOPED_TRACE("crash at chain op " + std::to_string(crash_at) + " (window " +
                 std::to_string(window_first) + ".." + std::to_string(window_last) +
                 ")");
    SimEnvOptions env_options;
    env_options.microvax_cost_model = false;
    SimEnv env(env_options);
    CrashPlan plan(crash_at, action);
    env.disk().SetFaultInjector(plan.AsInjector());

    DeltaWindowResult script = RunDeltaChainScript(env, ensemble);
    EXPECT_TRUE(plan.fired());

    CheckDeltaChainRecovery(env, script, crash_at, ensemble);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChainFaultFlavours, DeltaCompactionCrashTest,
    ::testing::Values(static_cast<int>(FaultAction::kCrashBefore),
                      static_cast<int>(FaultAction::kCrashTorn),
                      static_cast<int>(FaultAction::kCrashAfter),
                      kEnsembleChain | static_cast<int>(FaultAction::kCrashBefore),
                      kEnsembleChain | static_cast<int>(FaultAction::kCrashTorn),
                      kEnsembleChain | static_cast<int>(FaultAction::kCrashAfter)),
    [](const ::testing::TestParamInfo<int>& param_info) {
      std::string engine = (param_info.param & kEnsembleChain) != 0 ? "Ensemble" : "";
      switch (static_cast<FaultAction>(param_info.param & ~kEnsembleChain)) {
        case FaultAction::kCrashBefore:
          return engine + "Before";
        case FaultAction::kCrashTorn:
          return engine + "Torn";
        case FaultAction::kCrashAfter:
          return engine + "After";
        default:
          return engine + "None";
      }
    });

TEST(DeltaCompactionCrashTest, TransientFaultThenPowerCutIsSafeAtEveryChainOp) {
  // The process survives a transient write fault at each durable op of the window —
  // a failed delta publication aborts cleanly, a failed compaction only logs (the
  // checkpoint that triggered it still commits) — keeps committing, then loses
  // power. Recovery must land the same invariants at every fault point, on both
  // engines.
  for (bool ensemble : {false, true}) {
    SCOPED_TRACE(ensemble ? "one-shard ensemble" : "database");
    std::uint64_t window_first = 0;
    std::uint64_t window_last = 0;
    {
      SimEnvOptions env_options;
      env_options.microvax_cost_model = false;
      SimEnv dry_env(env_options);
      DeltaWindowResult dry = RunDeltaChainScript(dry_env, ensemble);
      ASSERT_TRUE(dry.checkpoint2_ok);
      window_first = dry.window_first;
      window_last = dry.window_last;
    }

    int compaction_faults = 0;  // faults the checkpoint survived (landed in compaction)
    for (std::uint64_t crash_at = window_first; crash_at <= window_last; ++crash_at) {
      SCOPED_TRACE("transient fault at chain op " + std::to_string(crash_at) +
                   " (window " + std::to_string(window_first) + ".." +
                   std::to_string(window_last) + ")");
      SimEnvOptions env_options;
      env_options.microvax_cost_model = false;
      SimEnv env(env_options);
      sim::ScriptedFaultSchedule schedule(
          {sim::FaultPoint{crash_at, FaultAction::kTransientError, /*read_op=*/false,
                           /*metadata_only=*/false}});
      env.disk().SetFaultInjector(schedule.AsInjector());

      DeltaWindowResult script = RunDeltaChainScript(env, ensemble);
      EXPECT_EQ(schedule.fired_count(), 1);
      if (script.checkpoint2_ok) {
        // The fault landed inside the compaction, which must never fail the
        // checkpoint that triggered it — the chain stays live until a later attempt.
        ++compaction_faults;
      }

      CheckDeltaChainRecovery(env, script, crash_at, ensemble);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    // The sweep must actually have hit compaction's own durable ops, not only the
    // delta publication in front of them.
    EXPECT_GE(compaction_faults, 3);
  }
}

TEST(CrashMatrixDoubleFailureTest, CrashDuringRecoveryIsAlsoSafe) {
  // Crash once mid-script, then crash AGAIN during the recovery-time cleanup, then
  // recover fully. The protocol must tolerate repeated failures.
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  SimEnv env(env_options);

  {
    CrashPlan plan(25, FaultAction::kCrashTorn);
    env.disk().SetFaultInjector(plan.AsInjector());
    RunScript(env);
    env.disk().SetFaultInjector(nullptr);
  }
  env.fs().Crash();
  ASSERT_TRUE(env.fs().Recover().ok());

  // Second crash: during the first reopen.
  {
    CrashPlan plan(3, FaultAction::kCrashBefore);
    env.disk().SetFaultInjector(plan.AsInjector());
    TestApp app;
    DatabaseOptions options;
    options.vfs = &env.fs();
    options.dir = "db";
    Database::Open(app, options).status();  // may fail; that's the point
    env.disk().SetFaultInjector(nullptr);
  }
  env.fs().Crash();
  ASSERT_TRUE(env.fs().Recover().ok());

  TestApp final_app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  auto db = Database::Open(final_app, options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->Update(final_app.PreparePut("alive", "yes")).ok());
  EXPECT_EQ(final_app.state["alive"], "yes");
}

}  // namespace
}  // namespace sdb
