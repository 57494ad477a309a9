// The simulation harness: runs a seeded workload against a Database on SimFs under a
// fault schedule, checking every observable state against the ModelOracle.
//
// The loop is the FoundationDB recipe scaled to this engine: generate a workload from
// the seed, execute it step by step, and whenever a fault cuts power, recover, verify
// the recovered state against the model, adopt it, and continue — many crash/recover
// cycles per run. The run is a pure function of (seed, options): the disk clock is
// simulated, fault decisions are stateless hashes of op ordinals, and the workload is
// seeded, so two runs of the same seed produce the identical trace hash. A failing
// seed therefore reproduces with `sim_fuzz --seed=N`, and the (steps, fired fault
// points) pair is replayable — and shrinkable — via RunScript.
#ifndef SMALLDB_SRC_SIM_HARNESS_H_
#define SMALLDB_SRC_SIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/fault_schedule.h"
#include "src/sim/net_sim.h"
#include "src/sim/workload.h"

namespace sdb::sim {

// FNV-1a over everything deterministic a run observes: step outcomes, fault firings,
// and the full recovered state after every reboot. Asserting equal hashes across two
// runs of one seed is the reproducibility check.
class TraceHasher {
 public:
  void Mix(std::string_view text) {
    for (char c : text) {
      MixByte(static_cast<unsigned char>(c));
    }
    MixByte(0xFF);  // delimiter so Mix("ab"),Mix("c") != Mix("a"),Mix("bc")
  }
  void Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>(value >> (i * 8)));
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  void MixByte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

// Named fault-probability presets — the vocabulary `sim_fuzz --schedule=` accepts.
enum class ScheduleKind {
  kNone,        // no faults: workload + final reboot only
  kMultiCrash,  // repeated power failures, including crash-during-recovery
  kTransient,   // non-crashing I/O errors on writes and reads
  kTornSwitch,  // torn metadata syncs concentrated on the checkpoint switch
  kMixed,       // everything at once
};

std::string ScheduleKindName(ScheduleKind kind);
bool ParseScheduleKind(std::string_view name, ScheduleKind* out);
RandomFaultOptions FaultOptionsFor(ScheduleKind kind);

// The network-fault preset each schedule maps to when options.network is set (the
// disk-fault preset above still applies — network runs fuzz both at once).
NetFaultOptions NetFaultOptionsFor(ScheduleKind kind);

struct HarnessOptions {
  WorkloadOptions workload;
  ScheduleKind schedule = ScheduleKind::kMixed;
  std::size_t disk_page_size = 512;

  // > 1 runs the workload against ShardedDatabase: keys hash across `shards`
  // key-routed shards over one shared log and the cross-shard coalescer. The
  // oracle checks the MERGED per-shard state after every crash/recover, plus the
  // routing invariant (every recovered key lives on its home shard). Checkpoint
  // steps rotate through shards; backup steps become log-rotation attempts (the
  // sharded flushing rule under fault fire). Everything stays deterministic:
  // recovery is forced sequential and rotation attempts checkpoint shards in
  // index order on the harness thread.
  int shards = 1;
  // Routes the KV workload's puts/deletes/lookups/enumerates through a SimNetChannel
  // + RpcServer pair instead of direct engine calls: every op crosses the real wire
  // codec and the batch-ingest registration (RegisterUpdate -> Database::UpdateMany)
  // under the schedule's NetFaultOptionsFor() preset — drops, half-open connections
  // (executed but unacknowledged, the oracle's pending state), corrupt and truncated
  // frames (decoder-rejection canaries), partitions, slow peers. Checkpoint, backup
  // and restart steps stay local. Database mode only (shards must be 1).
  bool network = false;
  // Database-mode replay thread count. Parallel replay is deterministic under the
  // simulation: the log (and its faultable page reads) is consumed sequentially on
  // the recovery thread, workers only apply already-read records in memory, and the
  // recovered state is equivalent to serial replay by construction — so the trace
  // hash is a pure function of the seed at ANY thread count. Sharded mode ignores
  // this and stays sequential (parallel checkpoint loads would permute SimDisk op
  // ordinals).
  int recovery_threads = 1;
  // Delta-checkpoint thresholds forwarded to the engine (Database mode only). Every
  // harness checkpoint is a synchronous Checkpoint() call on the harness thread, and
  // the engine compacts on the thread that ran the crossing checkpoint, so
  // compaction runs at deterministic points and the trace hash stays a pure
  // function of the seed. The compaction-heavy mix shrinks these so chains grow and
  // collapse many times per run.
  std::uint64_t compact_after_deltas = 8;
  double compact_delta_base_ratio = 0.5;

  // Safety rails; fault budgets make runs terminate long before these.
  int max_reboots = 64;
  int max_recovery_attempts = 64;
  // Forced reboot after this many consecutive non-crash step failures (a transient
  // error can wedge an in-flight log switch; power-cycling restores a known state).
  int max_soft_failures = 8;
};

struct RunReport {
  bool ok = false;
  std::string failure;  // oracle violation or non-convergence, empty when ok

  std::uint64_t seed = 0;
  ScheduleKind schedule = ScheduleKind::kNone;
  int shards = 1;  // engine the run drove: 1 = Database, > 1 = ShardedDatabase
  bool network = false;  // KV steps crossed the simulated wire
  std::uint64_t trace_hash = 0;

  std::uint64_t reboots = 0;             // power cycles, incl. the boot and final verify
  std::uint64_t recovery_attempts = 0;   // recover+reopen tries (faults retry them)
  std::uint64_t transient_errors = 0;    // delivered by the disk
  std::size_t steps_executed = 0;

  // Replay material: RunScript(steps, fired_points, ...) reproduces this run.
  std::vector<WorkloadStep> steps;
  std::vector<FaultPoint> fired_points;
};

// One-line repro plus the shrunk script, printable by drivers and CI logs.
std::string ReportToString(const RunReport& report);

// Executes seed-derived workload + schedule. Pure function of (seed, options).
RunReport RunSeed(std::uint64_t seed, const HarnessOptions& options);

// Replays an explicit step list under an explicit fault script (shrinker vehicle).
// `seed` and `schedule` label the report only; options.schedule is ignored.
RunReport RunScript(const std::vector<WorkloadStep>& steps,
                    const std::vector<FaultPoint>& points, const HarnessOptions& options,
                    std::uint64_t seed = 0);

}  // namespace sdb::sim

#endif  // SMALLDB_SRC_SIM_HARNESS_H_
