// ns_lookup_mostly: the paper's name server over TCP. RegisterNameService with a
// DatabaseUpdateSink serves it; three callers on their own connections use the
// NameServiceClient stubs in a closed loop (95% Lookup uniform over every name, 5%
// Set with Zipf 0.99 popularity); a control thread checkpoints at fixed offsets.
//
// Callers own disjoint thirds of the names for Sets, so each name has one writer
// and the last acknowledged value is well defined. A Lookup may overlap a Set of
// the same name from another caller; it must return a value the name held at some
// instant of the Lookup: the acknowledged or in-flight value seen before or after.
#include <array>
#include <chrono>
#include <mutex>
#include <thread>

#include "perfbench/src/harness.h"
#include "src/nameserver/name_server.h"
#include "src/nameserver/name_service_rpc.h"
#include "src/net/client.h"
#include "src/net/ingest.h"
#include "src/net/server.h"
#include "src/storage/posix_fs.h"

namespace perfbench {
namespace {

using sdb::Bytes;
using sdb::Result;
using sdb::Status;

constexpr std::size_t kNames = 300000;
constexpr int kCallers = 3;
constexpr double kSetShare = 0.05;
constexpr double kZipfTheta = 0.99;
constexpr int kCheckpoints = 2;
constexpr std::size_t kPreloadChunk = 1024;

std::string NamePath(std::size_t i) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "org%03zu/unit%02zu/host%02zu", i / 3000,
                (i / 50) % 60, i % 50);
  return buffer;
}

// The seeded expected state. Guarded per stripe; each name has one writer.
class NameModel {
 public:
  explicit NameModel(std::vector<std::string> initial)
      : acked_(std::move(initial)), pending_(acked_.size()) {}

  void BeginSet(std::size_t i, const std::string& value) {
    std::lock_guard<std::mutex> lock(stripe(i));
    pending_[i] = value;
  }
  void EndSet(std::size_t i, bool acked) {
    std::lock_guard<std::mutex> lock(stripe(i));
    if (acked) {
      acked_[i] = std::move(pending_[i]);
      pending_[i].clear();
    }
    // A failed Set's effect is unknown: its value stays acceptable.
  }
  // The values name i may be seen holding right now.
  std::pair<std::string, std::string> Acceptable(std::size_t i) {
    std::lock_guard<std::mutex> lock(stripe(i));
    return {acked_[i], pending_[i]};
  }
  const std::string& acked(std::size_t i) const { return acked_[i]; }
  std::size_t size() const { return acked_.size(); }

 private:
  std::mutex& stripe(std::size_t i) { return stripes_[i % stripes_.size()]; }

  std::array<std::mutex, 1024> stripes_;
  std::vector<std::string> acked_;
  std::vector<std::string> pending_;
};

struct NsServer {
  std::string root;
  std::unique_ptr<sdb::PosixFs> posix;
  std::unique_ptr<ProbeFs> fs;
  std::unique_ptr<sdb::ns::NameServer> ns;
  sdb::WallClock clock;
  std::unique_ptr<sdb::rpc::RpcServer> rpc;
  std::shared_ptr<ProbeSink> sink;  // traced passes only
  std::unique_ptr<sdb::net::NetServer> server;
  std::vector<std::unique_ptr<sdb::net::NetChannel>> channels;

  NsServer() = default;
  NsServer(const NsServer&) = delete;
  NsServer& operator=(const NsServer&) = delete;
  ~NsServer() { Stop(); }

  void Stop() {
    channels.clear();
    server.reset();
    rpc.reset();
    sink.reset();
    ns.reset();
  }
};

sdb::ns::NameServerOptions NsOptions(NsServer& s) {
  sdb::ns::NameServerOptions options;
  options.db.vfs = s.fs.get();
  options.db.dir = "db";
  return options;
}

std::unique_ptr<NsServer> SetUp(const Config& config, bool traced,
                                const std::vector<std::string>& values) {
  auto s = std::make_unique<NsServer>();
  s->root = MakeFreshDir(config.work_dir, "ns_lookup_mostly");
  s->posix = std::make_unique<sdb::PosixFs>(s->root);
  s->fs = std::make_unique<ProbeFs>(*s->posix, false);
  s->ns = Must(sdb::ns::NameServer::Open(NsOptions(*s)), "open name server");
  for (std::size_t first = 0; first < values.size(); first += kPreloadChunk) {
    std::vector<std::function<Result<Bytes>()>> prepares;
    for (std::size_t i = first; i < std::min(values.size(), first + kPreloadChunk); ++i) {
      prepares.push_back(s->ns->PlanSet(NamePath(i), values[i]));
    }
    for (const Status& status : s->ns->database().UpdateMany(prepares)) {
      MustOk(status, "preload");
    }
  }
  MustOk(s->ns->Checkpoint(), "preload checkpoint");

  s->rpc = std::make_unique<sdb::rpc::RpcServer>(traced ? &s->clock : nullptr);
  std::shared_ptr<sdb::rpc::UpdateSink> sink =
      std::make_shared<sdb::net::DatabaseUpdateSink>(s->ns->database());
  if (traced) {
    s->sink = std::make_shared<ProbeSink>(std::move(sink));
    sink = s->sink;
  }
  sdb::ns::RegisterNameService(*s->rpc, *s->ns, sink);
  s->server = Must(sdb::net::NetServer::Start(*s->rpc), "start server");
  for (int c = 0; c < kCallers; ++c) {
    s->channels.push_back(
        Must(sdb::net::NetChannel::Connect("127.0.0.1", s->server->port()), "connect"));
  }
  return s;
}

constexpr std::size_t kGetSamples = 1 << 18;  // Lookup latencies kept per caller

struct CallerResult {
  SliceCounter slices;  // acknowledged ops
  std::vector<double> get_us;
  std::vector<Interval> sets;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  std::uint64_t acked_sets = 0;
  double user_bytes = 0;
  std::vector<std::string> mismatches;
};

void Caller(int caller, const Config& config, sdb::net::NetChannel& channel,
            const std::vector<std::size_t>& order, const ZipfSampler& zipf, NameModel& model,
            std::uint64_t start, std::uint64_t deadline, CallerResult& out) {
  sdb::ns::NameServiceClient client(channel);
  const std::uint64_t seed = config.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(caller);
  sdb::Rng rng(seed + 40);
  ValueSource values(seed + 50);
  Reservoir get_us(kGetSamples, seed + 55);
  out.slices = SliceCounter(start);
  while (NowNs() < deadline) {
    out.attempted++;
    if (rng.NextDouble() < kSetShare) {
      // This caller's names are order[caller], order[caller + kCallers], ...
      std::size_t rank = zipf.Sample(rng);
      std::size_t name = order[rank * kCallers + static_cast<std::size_t>(caller)];
      std::string value = values.Next().substr(0, 24);
      std::string path = NamePath(name);
      model.BeginSet(name, value);
      std::uint64_t set_start = NowNs();
      Status status = client.Set(path, value);
      out.sets.push_back(Interval{set_start, NowNs()});
      model.EndSet(name, status.ok());
      if (!status.ok()) {
        out.failed++;
        out.mismatches.push_back("set " + path + " failed: " + status.ToString());
      } else {
        out.slices.Count(out.sets.back().end_ns);
        out.acked_sets++;
        out.user_bytes += static_cast<double>(path.size() + value.size());
      }
    } else {
      std::size_t name = rng.NextBelow(model.size());
      std::string path = NamePath(name);
      auto before = model.Acceptable(name);
      std::uint64_t lookup_start = NowNs();
      Result<std::string> got = client.Lookup(path);
      const std::uint64_t done = NowNs();
      get_us.Add(static_cast<double>(done - lookup_start) / 1000.0);
      if (!got.ok()) {
        out.failed++;
        out.mismatches.push_back("lookup " + path + " failed: " + got.status().ToString());
        continue;
      }
      out.gets++;
      out.slices.Count(done);
      if (*got != before.first && *got != before.second) {
        auto after = model.Acceptable(name);
        if (*got != after.first && *got != after.second) {
          out.mismatches.push_back("lookup " + path + " returned a value it never held");
        }
      }
    }
  }
  out.get_us = std::move(get_us).Take();
}

std::uint64_t StateHash(sdb::ns::NameServer& ns) {
  Bytes state = Must(ns.FullState(), "full state");
  return Fnv64(sdb::AsSpan(state));
}

void CheckAll(sdb::ns::NameServer& ns, const NameModel& model, const char* when,
              PassResult& result) {
  for (std::size_t i = 0; i < model.size(); ++i) {
    Result<std::string> got = ns.Lookup(NamePath(i));
    if (!got.ok() || *got != model.acked(i)) {
      result.Mismatch(std::string(when) + " " + NamePath(i) +
                      " does not hold its last acknowledged value");
    }
  }
}

}  // namespace

PassResult RunNsLookupMostly(const Config& config, bool traced, bool repeat_setup) {
  Tracer::SetEnabled(traced);
  PassResult result;
  std::vector<std::string> initial;
  std::vector<std::size_t> order(kNames);
  {
    sdb::Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 30);
    initial.reserve(kNames);
    for (std::size_t i = 0; i < kNames; ++i) {
      initial.push_back(rng.NextString(24));
      order[i] = i;
    }
    for (std::size_t i = kNames - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
  }
  const ZipfSampler zipf(kNames / kCallers, kZipfTheta);

  std::unique_ptr<NsServer> s;
  do {
    if (s != nullptr) {
      s->Stop();
      RemoveTree(s->root);
      s.reset();
      TrimHeap();
    }
    std::uint64_t start = NowNs();
    s = SetUp(config, traced, initial);
    result.setup_s.push_back(SecondsSince(start));
  } while (repeat_setup && MoreSetups(result.setup_s));
  NameModel model(initial);
  initial.clear();
  initial.shrink_to_fit();

  Tracer::Drain();
  const IoSnapshot io_before = s->fs->Snapshot();
  const sdb::net::NetServer::Stats net_before = s->server->stats();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(config.seconds * 1e9);
  result.slices = SliceCounter(start);
  std::vector<CallerResult> callers(kCallers);
  std::vector<Interval> checkpoints;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back(Caller, c, std::cref(config), std::ref(*s->channels[c]),
                           std::cref(order), std::cref(zipf), std::ref(model), start, deadline,
                           std::ref(callers[c]));
    }
    // The control thread: checkpoints at fixed offsets into the timed phase.
    threads.emplace_back([&] {
      for (int k = 0; k < kCheckpoints; ++k) {
        std::uint64_t due =
            start + static_cast<std::uint64_t>(CheckpointDueS(config.seconds, k, kCheckpoints) * 1e9);
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - std::min(due, NowNs())));
        Interval interval{NowNs(), 0};
        {
          Tracer::Scope span(Span::kCoreCheckpoint);
          MustOk(s->ns->Checkpoint(), "checkpoint");
        }
        interval.end_ns = NowNs();
        checkpoints.push_back(interval);
      }
    });
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  result.timed_s = SecondsSince(start);
  result.timed_io = s->fs->Snapshot() - io_before;
  const sdb::net::NetServer::Stats net_after = s->server->stats();
  result.ingest_batches = net_after.ingest_batches - net_before.ingest_batches;
  result.ingest_updates = net_after.ingest_updates - net_before.ingest_updates;
  result.read_pauses = net_after.read_pauses - net_before.read_pauses;
  if (s->sink != nullptr) {
    result.sink_calls = s->sink->calls();
    result.sink_updates = s->sink->updates();
  }
  result.timed_spans = Tracer::Drain();
  TrimHeap();
  result.rss_mb = RssMb();
  for (const sdb::rpc::MethodMetrics& method : s->rpc->metrics()) {
    if (method.method == "Lookup" && method.calls > 0) {
      result.lookup_handler_us =
          static_cast<double>(method.handler_micros) / static_cast<double>(method.calls);
    }
  }
  std::vector<std::vector<Interval>> sets_by_caller;
  for (CallerResult& caller : callers) {
    result.attempted += caller.attempted;
    result.failed += caller.failed;
    result.gets += caller.gets;
    result.user_bytes += caller.user_bytes;
    result.get_us.insert(result.get_us.end(), caller.get_us.begin(), caller.get_us.end());
    result.slices.Merge(caller.slices);
    for (const Interval& set : caller.sets) {
      result.put_us.push_back(static_cast<double>(set.end_ns - set.start_ns) / 1000.0);
    }
    result.puts += caller.acked_sets;
    for (std::string& m : caller.mismatches) {
      result.Mismatch(std::move(m));
    }
    sets_by_caller.push_back(std::move(caller.sets));
  }
  ComputeStalls(checkpoints, sets_by_caller, &result);
  for (std::size_t i = 0; i < model.size(); ++i) {
    result.live_bytes += static_cast<double>(NamePath(i).size() + model.acked(i).size());
  }

  CheckAll(*s->ns, model, "before close", result);
  const std::uint64_t hash_before = StateHash(*s->ns);
  result.disk_bytes = DirBytes(s->root);

  while (MoreRestarts(result.restart_s)) {
    s->Stop();
    Tracer::Drain();
    const IoSnapshot io_restart = s->fs->Snapshot();
    std::uint64_t restart_start = NowNs();
    {
      Tracer::Scope span(Span::kCoreOpen);
      s->ns = Must(sdb::ns::NameServer::Open(NsOptions(*s)), "reopen name server");
    }
    result.restart_s.push_back(SecondsSince(restart_start));
    result.restart_io = s->fs->Snapshot() - io_restart;
    result.restart_spans = Tracer::Drain();
    result.entries_replayed = s->ns->database().stats().restart.entries_replayed;
    if (StateHash(*s->ns) != hash_before) {
      result.Mismatch("recovered state differs from the state before close");
    }
  }
  CheckAll(*s->ns, model, "after restart", result);
  s->Stop();
  RemoveTree(s->root);
  Tracer::SetEnabled(false);
  return result;
}

}  // namespace perfbench
