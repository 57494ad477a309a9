// E10 — Scaling with database size, and the Section 7 partitioning suggestion.
//
// Paper (Section 7): "As [the database] becomes larger, checkpoints take longer
// (thereby restricting the acceptable frequency of updates) and restarts take longer.
// However, it seems likely that many larger databases ... could be handled by
// considering them as multiple separate databases for the purpose of writing
// checkpoints."
#include "bench/bench_common.h"
#include "src/core/partitioned.h"
#include "src/core/sharded.h"

namespace sdb::bench {
namespace {

void SizeSweep() {
  Table table({"db size", "checkpoint (sim)", "cold restart (sim)", "checkpoint bytes"});
  for (std::size_t kb : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    NameServerFixture fixture = BuildNameServer(kb * 1024);
    SimClock& clock = fixture.env->clock();

    Micros start = clock.NowMicros();
    if (!fixture.server->Checkpoint().ok()) {
      return;
    }
    Micros checkpoint = clock.NowMicros() - start;
    std::string checkpoint_path =
        "ns/checkpoint" + std::to_string(fixture.server->database().current_version());
    auto file = *fixture.env->fs().Open(checkpoint_path, OpenMode::kRead);
    std::uint64_t checkpoint_bytes = *file->Size();

    fixture.server.reset();
    fixture.env->fs().Crash();
    start = clock.NowMicros();
    if (!fixture.env->fs().Recover().ok()) {
      return;
    }
    ns::NameServerOptions options;
    options.db.vfs = &fixture.env->fs();
    options.db.dir = "ns";
    options.db.clock = &clock;
    options.cost = &fixture.env->cost_model();
    options.replica_id = "bench";
    auto reopened = ns::NameServer::Open(options);
    if (!reopened.ok()) {
      return;
    }
    Micros restart = clock.NowMicros() - start;

    table.AddRow({std::to_string(kb) + " KB", Secs(static_cast<double>(checkpoint)),
                  Secs(static_cast<double>(restart)),
                  std::to_string(checkpoint_bytes / 1024) + " KB"});
  }
  table.Print();
}

// The longest update stall a unit's checkpoints caused: its checkpoint.stall_us
// histogram holds the update-lock hold of each snapshot capture and log rotation.
// With concurrent checkpoints that is all updates wait for; the file write and the
// publish run with updates flowing.
Micros LongestStall(obs::Registry& registry) {
  return static_cast<Micros>(registry.GetHistogram("checkpoint.stall_us").Snapshot().max);
}

void PartitioningComparison() {
  std::printf("\nSection 7 extension: one 2 MB database vs 4 partitions of 512 KB\n");
  Table table({"configuration", "total checkpoint work (sim)",
               "longest Checkpoint() call (sim)", "longest update stall (sim)", "notes"});

  // Monolithic.
  {
    NameServerFixture fixture = BuildNameServer(2 << 20);
    SimClock& clock = fixture.env->clock();
    Micros start = clock.NowMicros();
    if (!fixture.server->Checkpoint().ok()) {
      return;
    }
    Micros elapsed = clock.NowMicros() - start;
    Micros stall = LongestStall(fixture.server->database().metrics());
    table.AddRow({"monolithic 2 MB", Secs(static_cast<double>(elapsed)),
                  Secs(static_cast<double>(elapsed)), Secs(static_cast<double>(stall)),
                  "updates wait only for the capture (a full serialize here); the write runs unlocked"});
  }

  // Partitioned: four engine instances, checkpointed one at a time.
  {
    SimEnvOptions env_options;
    SimEnv env(env_options);
    std::vector<std::unique_ptr<BenchKvApp>> apps;
    std::vector<PartitionedDatabase::PartitionSpec> specs;
    for (int i = 0; i < 4; ++i) {
      apps.push_back(std::make_unique<BenchKvApp>(&env.cost_model()));
      specs.push_back({apps.back().get(), "part" + std::to_string(i)});
    }
    DatabaseOptions base;
    base.vfs = &env.fs();
    base.clock = &env.clock();
    auto db_or = PartitionedDatabase::Open(std::move(specs), base);
    if (!db_or.ok()) {
      return;
    }
    auto db = std::move(*db_or);
    // ~512 KB of 100-byte values per partition.
    Rng rng(29);
    for (int p = 0; p < 4; ++p) {
      for (int i = 0; i < 2600; ++i) {
        if (!db->Update(p, apps[p]->PreparePut("key" + std::to_string(i),
                                               rng.NextString(100)))
                 .ok()) {
          return;
        }
      }
    }
    Micros total = 0;
    Micros max_call = 0;
    Micros max_stall = 0;
    for (std::size_t p = 0; p < 4; ++p) {
      Micros start = env.clock().NowMicros();
      if (!db->partition(p).Checkpoint().ok()) {
        return;
      }
      Micros call = env.clock().NowMicros() - start;
      total += call;
      max_call = std::max(max_call, call);
      max_stall = std::max(max_stall, LongestStall(db->partition(p).metrics()));
    }
    table.AddRow({"4 partitions x ~512 KB", Secs(static_cast<double>(total)),
                  Secs(static_cast<double>(max_call)), Secs(static_cast<double>(max_stall)),
                  "only one partition's updates wait, for its capture"});
  }

  // The paper's other option: "a single log file with more complicated rules for
  // flushing the log" — the sharded engine, four shards addressed by index.
  {
    SimEnvOptions env_options;
    SimEnv env(env_options);
    std::vector<std::unique_ptr<BenchKvApp>> apps;
    std::vector<Application*> raw;
    for (int i = 0; i < 4; ++i) {
      apps.push_back(std::make_unique<BenchKvApp>(&env.cost_model()));
      raw.push_back(apps.back().get());
    }
    ShardedOptions options;
    options.vfs = &env.fs();
    options.dir = "shared";
    options.clock = &env.clock();
    auto db_or = ShardedDatabase::Open(raw, options);
    if (!db_or.ok()) {
      return;
    }
    auto db = std::move(*db_or);
    Rng rng(29);
    for (int p = 0; p < 4; ++p) {
      for (int i = 0; i < 2600; ++i) {
        if (!db->Update(static_cast<std::size_t>(p),
                        apps[static_cast<std::size_t>(p)]->PreparePut(
                            "key" + std::to_string(i), rng.NextString(100)))
                 .ok()) {
          return;
        }
      }
    }
    Micros total = 0;
    Micros max_call = 0;
    Micros max_stall = 0;
    for (std::size_t p = 0; p < 4; ++p) {
      Micros start = env.clock().NowMicros();
      if (!db->Checkpoint(p).ok()) {
        return;
      }
      Micros call = env.clock().NowMicros() - start;
      total += call;
      max_call = std::max(max_call, call);
      max_stall = std::max(max_stall, LongestStall(db->shard_metrics(p)));
    }
    std::uint64_t before_rotation = db->log_bytes();
    bool rotated = *db->MaybeRotateLog();
    char note[128];
    std::snprintf(note, sizeof(note),
                  "one fsync stream; %s %zu KB of shared log after all 4 checkpointed",
                  rotated ? "rotation reclaimed" : "could not reclaim",
                  static_cast<std::size_t>(before_rotation) / 1024);
    table.AddRow({"4 shards, ONE shared log", Secs(static_cast<double>(total)),
                  Secs(static_cast<double>(max_call)), Secs(static_cast<double>(max_stall)),
                  note});
  }
  table.Print();
}

void Run() {
  Banner("E10: scaling with database size + partitioning",
         "checkpoint and restart times grow with size; splitting into sub-databases "
         "bounds the per-checkpoint stall");
  SizeSweep();
  PartitioningComparison();
}

}  // namespace
}  // namespace sdb::bench

int main() {
  sdb::bench::Run();
  return 0;
}
