// E3 — Checkpoint cost, and the concurrent-checkpoint update stall.
//
// Paper (Section 5): "A checkpoint operation takes about one minute. This involves
// converting the entire virtual memory structure ... (55 seconds), and the disk
// writes (5 seconds)" for the 1 MB database — and the update lock is held throughout.
//
// The second section measures what concurrent checkpointing buys back: wall-clock
// update latency while a checkpoint is in flight, for the paper-original full-stall
// mode (concurrent_checkpoint=false) vs the snapshot-and-rotate mode, against a
// quiesced baseline. `--enforce` fails the run unless the max in-checkpoint update
// latency drops by at least 10x.
// The third section measures what delta checkpoints buy: with a large heap and a
// small churn window, checkpoint bytes written must track the churn, not the
// database. `--section=churn --enforce` fails the run unless delta bytes stay
// within 2x of the churned bytes and at least 10x below a full checkpoint at 1%
// churn.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/sim/kv_app.h"

namespace sdb::bench {
namespace {

void RunCheckpointCostTable() {
  Banner("E3: checkpoint cost vs database size",
         "1 MB database: ~55 s pickling + ~5 s disk = ~1 minute");

  Table table({"db size", "serialize (sim)", "disk (sim)", "total (sim)",
               "paper @1MB", "checkpoint bytes"});

  for (std::size_t kb : {128u, 512u, 1024u, 2048u}) {
    NameServerFixture fixture = BuildNameServer(kb * 1024);
    Status status = fixture.server->Checkpoint();
    if (!status.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", status.ToString().c_str());
      return;
    }
    CheckpointBreakdown breakdown = fixture.server->database().stats().last_checkpoint;
    std::string checkpoint_path =
        "ns/checkpoint" + std::to_string(fixture.server->database().current_version());
    auto file = *fixture.env->fs().Open(checkpoint_path, OpenMode::kRead);
    std::uint64_t bytes = *file->Size();

    table.AddRow({std::to_string(kb) + " KB",
                  Secs(static_cast<double>(breakdown.serialize_micros)),
                  Secs(static_cast<double>(breakdown.disk_micros)),
                  Secs(static_cast<double>(breakdown.total_micros)),
                  kb == 1024 ? "55 s + 5 s = 60 s" : "-",
                  std::to_string(bytes / 1024) + " KB"});
  }
  table.Print();
  std::printf("\n(with concurrent_checkpoint=false these durations are the update-"
              "unavailability window; the stall section below measures the "
              "concurrent mode)\n");
}

// --- update-stall measurement ---

// Layered key-value Application exercising the CaptureSnapshot override: updates go
// to a live delta map, and a snapshot is an O(1) freeze of that delta. The returned
// closure merges the immutable layers off-thread — the shape an application built
// for concurrent checkpointing would use, so the stall we measure is the protocol's,
// not the serializer's.
class BenchStallApp final : public Application {
 public:
  Status ResetState() override {
    stable_ = std::make_shared<std::map<std::string, std::string>>();
    frozen_.clear();
    live_ = std::make_shared<std::map<std::string, std::string>>();
    return OkStatus();
  }

  Result<Bytes> SerializeState() override { return SerializeLayers(AllLayers()); }

  Status DeserializeState(ByteSpan data) override {
    SDB_ASSIGN_OR_RETURN(PickleReader reader,
                         PickleReader::FromEnvelope(data, "BenchStallApp.state"));
    auto loaded = std::make_shared<std::map<std::string, std::string>>();
    SDB_RETURN_IF_ERROR(reader.Read(*loaded));
    stable_ = std::move(loaded);
    frozen_.clear();
    live_ = std::make_shared<std::map<std::string, std::string>>();
    return OkStatus();
  }

  Status ApplyUpdate(ByteSpan record) override {
    SDB_ASSIGN_OR_RETURN(BenchKvRecord update, PickleRead<BenchKvRecord>(record));
    live_->insert_or_assign(std::move(update.key), std::move(update.value));
    return OkStatus();
  }

  // Under the update lock: freeze the live delta (pointer swap) and hand back a
  // closure over the now-immutable layers. No byte is copied while the lock is held.
  Result<std::function<Result<Bytes>()>> CaptureSnapshot() override {
    if (!live_->empty()) {
      frozen_.push_back(live_);
      live_ = std::make_shared<std::map<std::string, std::string>>();
    }
    std::vector<std::shared_ptr<const std::map<std::string, std::string>>> layers =
        AllLayers(/*include_live=*/false);
    return std::function<Result<Bytes>()>(
        [layers = std::move(layers)]() { return SerializeLayers(layers); });
  }

  std::function<Result<Bytes>()> PreparePut(std::string key, std::string value) {
    return [key = std::move(key), value = std::move(value)]() -> Result<Bytes> {
      return PickleWrite(BenchKvRecord{key, value});
    };
  }

 private:
  std::vector<std::shared_ptr<const std::map<std::string, std::string>>> AllLayers(
      bool include_live = true) const {
    std::vector<std::shared_ptr<const std::map<std::string, std::string>>> layers;
    layers.push_back(stable_);
    layers.insert(layers.end(), frozen_.begin(), frozen_.end());
    if (include_live) {
      layers.push_back(live_);
    }
    return layers;
  }

  static Result<Bytes> SerializeLayers(
      const std::vector<std::shared_ptr<const std::map<std::string, std::string>>>&
          layers) {
    std::map<std::string, std::string> merged;
    for (const auto& layer : layers) {
      for (const auto& [key, value] : *layer) {
        merged.insert_or_assign(key, value);
      }
    }
    PickleWriter writer;
    writer.Write(merged);
    return std::move(writer).FinishEnvelope("BenchStallApp.state");
  }

  std::shared_ptr<std::map<std::string, std::string>> stable_ =
      std::make_shared<std::map<std::string, std::string>>();
  std::vector<std::shared_ptr<const std::map<std::string, std::string>>> frozen_;
  std::shared_ptr<std::map<std::string, std::string>> live_ =
      std::make_shared<std::map<std::string, std::string>>();
};

struct LatencySample {
  Micros start = 0;
  Micros latency = 0;
};

struct StallNumbers {
  double max_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
  double checkpoint_us = 0;  // wall duration of the Checkpoint() call
};

StallNumbers Summarize(const std::vector<LatencySample>& samples, Micros from,
                       Micros to) {
  std::vector<double> window;
  for (const LatencySample& s : samples) {
    // Overlap, not containment: an update blocked by the checkpoint may have
    // STARTED just before the bracket — it is exactly the sample that matters.
    if (s.start <= to && s.start + s.latency >= from) {
      window.push_back(static_cast<double>(s.latency));
    }
  }
  StallNumbers out;
  out.samples = window.size();
  if (window.empty()) {
    return out;
  }
  std::sort(window.begin(), window.end());
  out.max_us = window.back();
  out.p99_us = window[(window.size() * 99) / 100];
  return out;
}

// One measured run: populate, spin an updater thread, bracket a Checkpoint() call
// with wall timestamps, then bracket an equally long quiesced window. Returns the
// in-checkpoint numbers plus the quiesced baseline.
//
// Two stall views are produced. `lock_held_us` is the engine's own measurement of
// the update-unavailability window (the update lock's hold time: the whole persist
// in full-stall mode, the snapshot-and-rotate instant in concurrent mode), taken on
// the checkpointing thread — deterministic enough to enforce a ratio on, even on a
// single-core host where an updater thread's observed latency is dominated by
// scheduler preemption. The updater-observed numbers are reported alongside.
struct StallRun {
  StallNumbers during;
  StallNumbers quiesced;
  double lock_held_us = 0;  // min over windows of the engine-reported stall
};

StallRun MeasureStall(bool concurrent, std::size_t initial_keys) {
  WallClock wall;
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;  // wall-clock run: no simulated charging
  SimEnv env(env_options);

  BenchStallApp app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &wall;  // engine-reported breakdowns in wall micros
  options.concurrent_checkpoint = concurrent;
  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db_or.status().ToString().c_str());
    std::abort();
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  Rng rng(7);
  for (std::size_t i = 0; i < initial_keys; ++i) {
    Status status =
        db->Update(app.PreparePut("key" + std::to_string(i), rng.NextString(100)));
    if (!status.ok()) {
      std::fprintf(stderr, "populate failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }

  std::atomic<bool> stop{false};
  std::vector<LatencySample> samples;
  samples.reserve(1 << 20);
  std::thread updater([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      LatencySample sample;
      sample.start = wall.NowMicros();
      Status status = db->Update(
          app.PreparePut("hot" + std::to_string(i % 512), "v" + std::to_string(i)));
      sample.latency = wall.NowMicros() - sample.start;
      if (status.ok()) {
        samples.push_back(sample);
      }
      ++i;
    }
  });

  // Bracket several checkpoint windows. The protocol stall shows up in EVERY
  // window; ambient jitter (scheduler hiccups, allocator growth) does not — so the
  // per-mode headline is the min over windows of the per-window max latency.
  constexpr int kWindows = 3;
  Micros t0[kWindows];
  Micros t1[kWindows];
  double lock_held[kWindows];
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int w = 0; w < kWindows; ++w) {
    t0[w] = wall.NowMicros();
    Status checkpoint = db->Checkpoint();
    t1[w] = wall.NowMicros();
    if (!checkpoint.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", checkpoint.ToString().c_str());
      std::abort();
    }
    CheckpointBreakdown breakdown = db->stats().last_checkpoint;
    // Full-stall mode holds the update lock through the whole persist; concurrent
    // mode only through the snapshot-and-rotate step.
    lock_held[w] = static_cast<double>(concurrent ? breakdown.stall_micros
                                                  : breakdown.total_micros);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Quiesced baseline: an equally long checkpoint-free window.
  Micros q0 = wall.NowMicros();
  auto window = std::chrono::microseconds(std::max<Micros>(t1[0] - t0[0], 2000));
  std::this_thread::sleep_for(window);
  Micros q1 = wall.NowMicros();

  stop.store(true);
  updater.join();

  StallRun run;
  run.during.max_us = 0;
  for (int w = 0; w < kWindows; ++w) {
    StallNumbers numbers = Summarize(samples, t0[w], t1[w]);
    if (w == 0 || numbers.max_us < run.during.max_us) {
      run.during.max_us = numbers.max_us;  // min over windows of per-window max
    }
    run.during.p99_us = std::max(run.during.p99_us, numbers.p99_us);
    run.during.samples += numbers.samples;
    run.during.checkpoint_us +=
        static_cast<double>(t1[w] - t0[w]) / static_cast<double>(kWindows);
    if (w == 0 || lock_held[w] < run.lock_held_us) {
      run.lock_held_us = lock_held[w];
    }
  }
  run.quiesced = Summarize(samples, q0, q1);
  run.quiesced.checkpoint_us = 0;
  return run;
}

int RunStallSection(bool enforce) {
  Banner("Update stall during an in-flight checkpoint",
         "the original protocol holds the update lock for the whole checkpoint; "
         "concurrent checkpointing bounds the stall to the snapshot instant");

  // Sized so the full-stall serialize dwarfs ambient scheduler jitter (~5 ms): the
  // ratio being enforced compares a ~100 ms lock-held serialize against the
  // rotation-only stall, which sits at the noise floor.
  const std::size_t initial_keys = QuickMode() ? 100'000 : 300'000;

  StallRun legacy = MeasureStall(/*concurrent=*/false, initial_keys);
  StallRun concurrent = MeasureStall(/*concurrent=*/true, initial_keys);

  Table table({"mode", "checkpoint (wall)", "lock held (min of 3)",
               "updates in window", "observed max", "observed p99"});
  table.AddRow({"full-stall (paper)", Ms(legacy.during.checkpoint_us),
                Ms(legacy.lock_held_us), Count(legacy.during.samples),
                Ms(legacy.during.max_us), Ms(legacy.during.p99_us)});
  table.AddRow({"concurrent", Ms(concurrent.during.checkpoint_us),
                Ms(concurrent.lock_held_us), Count(concurrent.during.samples),
                Ms(concurrent.during.max_us), Ms(concurrent.during.p99_us)});
  table.AddRow({"quiesced baseline", "-", "-", Count(concurrent.quiesced.samples),
                Ms(concurrent.quiesced.max_us), Ms(concurrent.quiesced.p99_us)});
  table.Print();

  // The enforced ratio compares update-unavailability windows (update-lock hold
  // time during a checkpoint), measured by the engine on the checkpointing thread.
  // The updater-observed columns corroborate it but include scheduler preemption —
  // on a single-core host the observed floor is the OS timeslice, not the protocol.
  double ratio =
      concurrent.lock_held_us > 0 ? legacy.lock_held_us / concurrent.lock_held_us : 0;
  std::printf("\nupdate-stall reduction: %.1fx (full-stall holds the lock %.1f ms, "
              "concurrent %.2f ms)\n",
              ratio, legacy.lock_held_us / 1000.0, concurrent.lock_held_us / 1000.0);

  std::string json = "{\n";
  json += "  \"bench\": \"checkpoint_cost\",\n";
  json += "  \"initial_keys\": " + std::to_string(initial_keys) + ",\n";
  json += "  \"legacy_checkpoint_us\": " + Num(legacy.during.checkpoint_us) + ",\n";
  json += "  \"legacy_lock_held_us\": " + Num(legacy.lock_held_us) + ",\n";
  json += "  \"legacy_observed_max_us\": " + Num(legacy.during.max_us) + ",\n";
  json += "  \"concurrent_checkpoint_us\": " + Num(concurrent.during.checkpoint_us) + ",\n";
  json += "  \"concurrent_lock_held_us\": " + Num(concurrent.lock_held_us) + ",\n";
  json += "  \"concurrent_observed_max_us\": " + Num(concurrent.during.max_us) + ",\n";
  json += "  \"quiesced_observed_max_us\": " + Num(concurrent.quiesced.max_us) + ",\n";
  json += "  \"updates_during_legacy_checkpoint\": " +
          std::to_string(legacy.during.samples) + ",\n";
  json += "  \"updates_during_concurrent_checkpoint\": " +
          std::to_string(concurrent.during.samples) + ",\n";
  json += "  \"stall_reduction\": " + Num(ratio) + "\n";
  json += "}";
  MaybeWriteBenchJson("checkpoint_cost", json);

  if (enforce) {
    // The acceptance bar: the update stall during an in-flight checkpoint must drop
    // by at least 10x vs the full-stall protocol.
    if (ratio < 10.0) {
      std::fprintf(stderr,
                   "FAIL: stall reduction %.1fx < 10x (legacy lock-held %.1f us, "
                   "concurrent %.1f us)\n",
                   ratio, legacy.lock_held_us, concurrent.lock_held_us);
      return 1;
    }
    // In concurrent mode, updates must actually flow while the checkpoint persists.
    if (concurrent.during.samples == 0) {
      std::fprintf(stderr, "FAIL: no updates completed during concurrent checkpoint\n");
      return 1;
    }
    std::printf("enforce: OK (reduction %.1fx >= 10x)\n", ratio);
  }
  return 0;
}

// --- delta-checkpoint churn sweep ---

struct ChurnPoint {
  double pct = 0;
  std::uint64_t dirtied = 0;
  std::uint64_t churn_bytes = 0;  // raw key+value bytes rewritten between checkpoints
  std::uint64_t delta_bytes = 0;  // the delta checkpoint file those rewrites cost
  std::uint64_t full_bytes = 0;   // what a full checkpoint of the same heap costs
};

// One churn fraction: build a fresh heap of `total_keys`, checkpoint it (the first
// delta swallows the whole populate window), rewrite `pct` percent of the keys, and
// measure the next delta checkpoint's file size against a full serialization.
ChurnPoint MeasureChurn(double pct, std::size_t total_keys, std::size_t value_size) {
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  SimEnv env(env_options);

  sim::KvApp app;
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();
  // No compaction mid-measurement: the point under test is one delta's size.
  options.delta_checkpoint.compact_after_deltas = 1000;
  options.delta_checkpoint.compact_delta_base_ratio = 0;
  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db_or.status().ToString().c_str());
    std::abort();
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  Rng rng(11);
  for (std::size_t i = 0; i < total_keys; ++i) {
    Status status =
        db->Update(app.PreparePut("key" + std::to_string(i), rng.NextString(value_size)));
    if (!status.ok()) {
      std::fprintf(stderr, "populate failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
  if (Status status = db->Checkpoint(); !status.ok()) {
    std::fprintf(stderr, "baseline checkpoint failed: %s\n", status.ToString().c_str());
    std::abort();
  }

  ChurnPoint point;
  point.pct = pct;
  point.dirtied = static_cast<std::uint64_t>(
      static_cast<double>(total_keys) * pct / 100.0);
  std::size_t stride = std::max<std::size_t>(total_keys / std::max<std::uint64_t>(point.dirtied, 1), 1);
  for (std::uint64_t i = 0; i < point.dirtied; ++i) {
    std::string key = "key" + std::to_string((i * stride) % total_keys);
    std::string value = rng.NextString(value_size);
    point.churn_bytes += key.size() + value.size();
    Status status = db->Update(app.PreparePut(std::move(key), std::move(value)));
    if (!status.ok()) {
      std::fprintf(stderr, "churn failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
  if (Status status = db->Checkpoint(); !status.ok()) {
    std::fprintf(stderr, "churn checkpoint failed: %s\n", status.ToString().c_str());
    std::abort();
  }

  std::string delta_path = "db/delta" + std::to_string(db->current_version());
  auto delta_file = env.fs().Open(delta_path, OpenMode::kRead);
  if (!delta_file.ok()) {
    std::fprintf(stderr, "expected a delta checkpoint at %s: %s\n", delta_path.c_str(),
                 delta_file.status().ToString().c_str());
    std::abort();
  }
  point.delta_bytes = *(*delta_file)->Size();
  point.full_bytes = (*app.SerializeState()).size();
  return point;
}

int RunDeltaChurnSection(bool enforce) {
  Banner("Delta checkpoints: cost tracks the churn, not the database",
         "a checkpoint 'converts the entire virtual memory structure' — the delta "
         "extension writes only what changed since the previous checkpoint");

  const std::size_t total_keys = QuickMode() ? 20'000 : 100'000;
  const std::size_t value_size = 100;

  Table table({"churn", "keys dirtied", "churn bytes", "delta checkpoint",
               "full checkpoint", "full/delta"});
  std::vector<ChurnPoint> points;
  for (double pct : {1.0, 10.0, 50.0}) {
    ChurnPoint point = MeasureChurn(pct, total_keys, value_size);
    double reduction = point.delta_bytes > 0
                           ? static_cast<double>(point.full_bytes) /
                                 static_cast<double>(point.delta_bytes)
                           : 0;
    table.AddRow({Num(point.pct, "%"), Count(point.dirtied), Count(point.churn_bytes),
                  Count(point.delta_bytes) + " B", Count(point.full_bytes) + " B",
                  Num(reduction, "x")});
    points.push_back(point);
  }
  table.Print();

  const ChurnPoint& low = points.front();  // the 1% point carries the headline claim
  double delta_vs_churn = low.churn_bytes > 0
                              ? static_cast<double>(low.delta_bytes) /
                                    static_cast<double>(low.churn_bytes)
                              : 0;
  double full_vs_delta = low.delta_bytes > 0
                             ? static_cast<double>(low.full_bytes) /
                                   static_cast<double>(low.delta_bytes)
                             : 0;
  std::printf("\nat 1%% churn: delta writes %.2fx the churned bytes and 1/%.0fth of a "
              "full checkpoint\n",
              delta_vs_churn, full_vs_delta);

  std::string json = "{\n";
  json += "  \"bench\": \"checkpoint_delta\",\n";
  json += "  \"total_keys\": " + std::to_string(total_keys) + ",\n";
  json += "  \"churn\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ChurnPoint& p = points[i];
    json += "    {\"pct\": " + Num(p.pct) + ", \"dirtied\": " + std::to_string(p.dirtied) +
            ", \"churn_bytes\": " + std::to_string(p.churn_bytes) +
            ", \"delta_bytes\": " + std::to_string(p.delta_bytes) +
            ", \"full_bytes\": " + std::to_string(p.full_bytes) + "}";
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"delta_vs_churn_at_1pct\": " + Num(delta_vs_churn) + ",\n";
  json += "  \"full_vs_delta_at_1pct\": " + Num(full_vs_delta) + "\n";
  json += "}";
  MaybeWriteBenchJson("checkpoint_delta", json);

  if (enforce) {
    // The acceptance bars: delta bytes track churn (within pickle + tombstone
    // overhead), and at 1% churn a delta beats a full checkpoint by >= 10x.
    if (delta_vs_churn > 2.0) {
      std::fprintf(stderr,
                   "FAIL: delta checkpoint wrote %.2fx the churned bytes (want <= 2x: "
                   "%llu delta bytes vs %llu churned)\n",
                   delta_vs_churn, static_cast<unsigned long long>(low.delta_bytes),
                   static_cast<unsigned long long>(low.churn_bytes));
      return 1;
    }
    if (full_vs_delta < 10.0) {
      std::fprintf(stderr,
                   "FAIL: at 1%% churn the delta is only %.1fx below a full checkpoint "
                   "(want >= 10x)\n",
                   full_vs_delta);
      return 1;
    }
    std::printf("enforce: OK (delta/churn %.2fx <= 2x, full/delta %.0fx >= 10x)\n",
                delta_vs_churn, full_vs_delta);
  }
  return 0;
}

}  // namespace
}  // namespace sdb::bench

int main(int argc, char** argv) {
  bool enforce = false;
  std::string section = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    } else if (std::strncmp(argv[i], "--section=", 10) == 0) {
      section = argv[i] + 10;
    }
  }
  int rc = 0;
  if (section == "all" || section == "cost") {
    sdb::bench::RunCheckpointCostTable();
  }
  if (section == "all" || section == "stall") {
    rc |= sdb::bench::RunStallSection(enforce);
  }
  if (section == "all" || section == "churn") {
    rc |= sdb::bench::RunDeltaChurnSection(enforce);
  }
  return rc;
}
