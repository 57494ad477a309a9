// sharded_put: an in-process ShardedDatabase of four KvApp shards (delta
// checkpoints, batched replay) on one shared log behind the CrossShardCoalescer.
// Four callers run a closed loop of UpdateKey; caller c owns the keys whose index
// is c mod 4, so every key has one writer. Caller 0 also calls CheckpointAll at
// fixed offsets into the timed phase. Net and rpc are not involved.
//
// Set-up preloads every key by bulk import: the shard apps apply the preload
// records directly, and CheckpointAll makes them durable. Loading 65,536 keys one
// UpdateKey at a time would spend seconds in fsyncs.
#include <thread>

#include "perfbench/src/harness.h"
#include "src/core/sharded.h"
#include "src/sim/kv_app.h"
#include "src/storage/posix_fs.h"

namespace perfbench {
namespace {

using sdb::Bytes;
using sdb::Result;
using sdb::Status;

constexpr std::size_t kShards = 4;
constexpr int kCallers = 4;
constexpr int kCheckpoints = 3;
constexpr int kRecoveryThreads = 4;
constexpr std::size_t kGetSample = 65536;
// Updates each caller keeps as intervals, touched up front (see Reservoir).
constexpr std::size_t kPutIntervals = 1 << 18;

struct ShardedServer {
  std::string root;
  std::unique_ptr<sdb::PosixFs> posix;
  std::unique_ptr<ProbeFs> fs;
  std::vector<std::unique_ptr<sdb::sim::KvApp>> apps;
  std::vector<std::unique_ptr<ProbeApp>> probe_apps;  // traced passes only
  std::unique_ptr<sdb::ShardedDatabase> db;

  void Open(bool traced) {
    apps.clear();
    probe_apps.clear();
    std::vector<sdb::Application*> shards;
    for (std::size_t p = 0; p < kShards; ++p) {
      apps.push_back(std::make_unique<sdb::sim::KvApp>());
      if (traced) {
        probe_apps.push_back(std::make_unique<ProbeApp>(*apps.back()));
        shards.push_back(probe_apps.back().get());
      } else {
        shards.push_back(apps.back().get());
      }
    }
    sdb::ShardedOptions options;
    options.vfs = fs.get();
    options.dir = "db";
    options.recovery_threads = kRecoveryThreads;
    db = Must(sdb::ShardedDatabase::Open(std::move(shards), std::move(options)),
              "open sharded database");
  }
};

std::unique_ptr<ShardedServer> SetUp(const Config& config, bool traced,
                                     const std::vector<std::string>& values) {
  auto s = std::make_unique<ShardedServer>();
  s->root = MakeFreshDir(config.work_dir, "sharded_put");
  s->posix = std::make_unique<sdb::PosixFs>(s->root);
  s->fs = std::make_unique<ProbeFs>(*s->posix, false);
  s->Open(traced);
  // No other thread holds the database yet, so the apps can take the records
  // directly; ApplyUpdate marks every key dirty, and CheckpointAll persists them.
  for (std::uint32_t i = 0; i < values.size(); ++i) {
    std::string key = KvKey(i);
    Bytes record =
        sdb::PickleWrite(sdb::sim::KvRecord{sdb::sim::KvApp::kPut, key, values[i]});
    MustOk(s->apps[s->db->ShardForKey(key)]->ApplyUpdate(sdb::AsSpan(record)), "bulk import");
  }
  MustOk(s->db->CheckpointAll(), "preload checkpoint");
  return s;
}

struct CallerResult {
  std::vector<Interval> puts;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
};

void Caller(int caller, const Config& config, ShardedServer& s, bool traced,
            std::vector<std::string>& model, std::uint64_t start, std::uint64_t deadline,
            std::vector<Interval>* checkpoints, CallerResult& out) {
  sdb::Rng keys(config.seed * 0x9E3779B97F4A7C15ull + 60 + static_cast<std::uint64_t>(caller));
  ValueSource values(config.seed * 0x9E3779B97F4A7C15ull + 70 + static_cast<std::uint64_t>(caller));
  out.puts.resize(kPutIntervals);
  out.puts.clear();
  int next_checkpoint = 0;
  std::uint64_t op = static_cast<std::uint64_t>(caller) << 48;
  while (true) {
    std::uint64_t now = NowNs();
    if (now >= deadline) {
      break;
    }
    if (checkpoints != nullptr && next_checkpoint < kCheckpoints &&
        now >= start + static_cast<std::uint64_t>(
                           CheckpointDueS(config.seconds, next_checkpoint, kCheckpoints) * 1e9)) {
      Interval interval{now, 0};
      {
        Tracer::Scope span(Span::kCoreCheckpoint);
        MustOk(s.db->CheckpointAll(), "checkpoint all");
      }
      interval.end_ns = NowNs();
      checkpoints->push_back(interval);
      next_checkpoint++;
      continue;
    }
    std::uint32_t index = static_cast<std::uint32_t>(
        keys.NextBelow(kKvKeys / kCallers) * kCallers + static_cast<std::uint32_t>(caller));
    std::string key = KvKey(index);
    std::string value = values.Next();
    std::function<Result<Bytes>()> prepare = s.apps[s.db->ShardForKey(key)]->PreparePut(key, value);
    if (traced) {
      prepare = TracedPrepare(std::move(prepare));
    }
    Tracer::SetThreadOp(++op);
    std::uint64_t put_start = NowNs();
    Status status;
    {
      Tracer::Scope span(Span::kCoreUpdate);
      status = s.db->UpdateKey(key, prepare);
    }
    out.puts.push_back(Interval{put_start, NowNs()});
    if (!status.ok()) {
      out.failed++;
      out.mismatches.push_back("put " + key + " failed: " + status.ToString());
      continue;
    }
    out.acked++;
    model[index] = std::move(value);
  }
}

// Reads key `index` under its shard's shared lock; empty when absent.
Result<std::string> Get(ShardedServer& s, std::uint32_t index) {
  std::string key = KvKey(index);
  std::string value;
  sdb::sim::KvApp& app = *s.apps[s.db->ShardForKey(key)];
  SDB_RETURN_IF_ERROR(s.db->EnquireKey(key, [&] {
    auto it = app.state.find(key);
    if (it != app.state.end()) {
      value = it->second;
    }
    return sdb::OkStatus();
  }));
  return value;
}

void CheckAll(ShardedServer& s, const std::vector<std::string>& model, const char* when,
              PassResult& result) {
  for (std::uint32_t index = 0; index < kKvKeys; ++index) {
    result.attempted++;
    Result<std::string> got = Get(s, index);
    if (!got.ok()) {
      result.failed++;
    }
    if (!got.ok() || *got != model[index]) {
      result.Mismatch(std::string(when) + " " + KvKey(index) +
                      " does not hold its last acknowledged value");
    }
  }
}

std::vector<std::uint64_t> StateHashes(ShardedServer& s) {
  std::vector<std::uint64_t> hashes;
  for (std::size_t p = 0; p < kShards; ++p) {
    MustOk(s.db->Enquire(p, [&] {
      SDB_ASSIGN_OR_RETURN(Bytes state, s.apps[p]->SerializeState());
      hashes.push_back(Fnv64(sdb::AsSpan(state)));
      return sdb::OkStatus();
    }),
           "hash shard state");
  }
  return hashes;
}

}  // namespace

PassResult RunShardedPut(const Config& config, bool traced, bool repeat_setup) {
  Tracer::SetEnabled(traced);
  PassResult result;
  std::vector<std::string> model;
  {
    ValueSource source(config.seed * 0x9E3779B97F4A7C15ull + 10);
    model.reserve(kKvKeys);
    for (std::uint32_t i = 0; i < kKvKeys; ++i) {
      model.push_back(source.Next());
    }
  }
  std::unique_ptr<ShardedServer> s;
  do {
    if (s != nullptr) {
      s->db.reset();
      RemoveTree(s->root);
      s.reset();
      TrimHeap();
    }
    std::uint64_t start = NowNs();
    s = SetUp(config, traced, model);
    result.setup_s.push_back(SecondsSince(start));
  } while (repeat_setup && MoreSetups(result.setup_s));

  Tracer::Drain();
  const IoSnapshot io_before = s->fs->Snapshot();
  const std::uint64_t fsyncs_before = s->db->coalescer_stats().covering_fsyncs;
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(config.seconds * 1e9);
  result.slices = SliceCounter(start);
  std::vector<CallerResult> callers(kCallers);
  std::vector<Interval> checkpoints;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back(Caller, c, std::cref(config), std::ref(*s), traced, std::ref(model),
                           start, deadline, c == 0 ? &checkpoints : nullptr,
                           std::ref(callers[c]));
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  result.timed_s = SecondsSince(start);
  result.timed_io = s->fs->Snapshot() - io_before;
  result.covering_fsyncs = s->db->coalescer_stats().covering_fsyncs - fsyncs_before;
  result.timed_spans = Tracer::Drain();
  TrimHeap();
  result.rss_mb = RssMb();
  std::vector<std::vector<Interval>> puts_by_caller;
  for (CallerResult& caller : callers) {
    result.attempted += caller.puts.size();
    result.failed += caller.failed;
    result.puts += caller.acked;
    for (const Interval& put : caller.puts) {
      result.put_us.push_back(static_cast<double>(put.end_ns - put.start_ns) / 1000.0);
      result.slices.Count(put.end_ns);
    }
    for (std::string& m : caller.mismatches) {
      result.Mismatch(std::move(m));
    }
    puts_by_caller.push_back(std::move(caller.puts));
  }
  result.user_bytes = static_cast<double>(result.puts) * static_cast<double>(kKeyBytes + kValueBytes);
  ComputeStalls(checkpoints, puts_by_caller, &result);
  result.live_bytes = static_cast<double>(kKvKeys) * static_cast<double>(kKeyBytes + kValueBytes);

  // Before close: a sample of single reads (the get latency), then every key.
  sdb::Rng sample(config.seed * 0x9E3779B97F4A7C15ull + 80);
  for (std::size_t i = 0; i < kGetSample; ++i) {
    std::uint32_t index = static_cast<std::uint32_t>(sample.NextBelow(kKvKeys));
    result.attempted++;
    std::uint64_t get_start = NowNs();
    Result<std::string> got = Get(*s, index);
    result.get_us.push_back(static_cast<double>(NowNs() - get_start) / 1000.0);
    if (!got.ok() || *got != model[index]) {
      result.Mismatch("read of " + KvKey(index) + " does not return its last acknowledged value");
    }
  }
  CheckAll(*s, model, "before close", result);
  const std::vector<std::uint64_t> hashes_before = StateHashes(*s);
  result.disk_bytes = DirBytes(s->root);

  while (MoreRestarts(result.restart_s)) {
    s->db.reset();
    Tracer::Drain();
    const IoSnapshot io_restart = s->fs->Snapshot();
    std::uint64_t restart_start = NowNs();
    {
      Tracer::Scope span(Span::kCoreOpen);
      s->Open(traced);
    }
    result.restart_s.push_back(SecondsSince(restart_start));
    result.restart_io = s->fs->Snapshot() - io_restart;
    result.restart_spans = Tracer::Drain();
    result.entries_replayed = s->db->stats().replayed_entries;
    if (StateHashes(*s) != hashes_before) {
      result.Mismatch("recovered state differs from the state before close");
    }
  }
  CheckAll(*s, model, "after restart", result);
  s->db.reset();
  RemoveTree(s->root);
  Tracer::SetEnabled(false);
  return result;
}

}  // namespace perfbench
