// put_serial and put_pipelined: a KV database (sim::KvApp) behind the real TCP
// server. Kv.Put is a batchable update (RpcServer::RegisterUpdate), so the
// NetServer carries puts into Database::UpdateMany through the UpdateSink; Kv.Lookup
// is an ordinary handler reading the map under the shared lock.
//
// Both workloads preload every key during set-up and checkpoint, so the timed
// phase starts from a full keyspace and an empty log. No checkpoint runs during
// the timed phase; one runs after the read-back, before the restart.
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/core/database.h"
#include "src/net/client.h"
#include "src/net/ingest.h"
#include "src/net/server.h"
#include "src/pickle/pickle.h"
#include "src/rpc/client.h"
#include "src/sim/kv_app.h"
#include "src/storage/posix_fs.h"

namespace perfbench {
namespace {

using sdb::Bytes;
using sdb::Result;
using sdb::Status;

struct PutRequest {
  std::string key;
  std::string value;
  SDB_PICKLE_FIELDS(PutRequest, key, value)
};
struct PutAck {
  std::uint8_t applied = 0;
  SDB_PICKLE_FIELDS(PutAck, applied)
};
struct LookupRequest {
  std::string key;
  SDB_PICKLE_FIELDS(LookupRequest, key)
};
struct LookupResponse {
  std::uint8_t found = 0;
  std::string value;
  SDB_PICKLE_FIELDS(LookupResponse, found, value)
};

struct KvShape {
  const char* tag;
  int connections;
  std::size_t window;  // requests in flight per connection
  bool null_sync;
};

constexpr KvShape kSerial{"put_serial", 1, 1, false};
constexpr KvShape kPipelined{"put_pipelined", 4, 32, true};

constexpr std::size_t kPreloadChunk = 1024;
constexpr std::size_t kGetSample = 16384;  // depth-1 Lookups timed after the run
constexpr std::size_t kReadBackWindow = 32;
constexpr std::size_t kPutSamples = 1 << 20;  // update latencies kept from the timed phase

// One database directory with the whole server stack over it.
struct KvServer {
  std::string root;  // the PosixFs root; the database lives in root/db
  std::unique_ptr<sdb::PosixFs> posix;
  std::unique_ptr<ProbeFs> fs;
  std::unique_ptr<sdb::sim::KvApp> app;
  std::unique_ptr<ProbeApp> probe_app;  // traced passes only
  std::unique_ptr<sdb::Database> db;
  sdb::WallClock clock;
  std::unique_ptr<sdb::rpc::RpcServer> rpc;
  std::shared_ptr<ProbeSink> sink;  // traced passes only
  std::unique_ptr<sdb::net::NetServer> server;
  std::vector<std::unique_ptr<sdb::net::NetChannel>> channels;

  KvServer() = default;
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;
  ~KvServer() { Stop(); }

  // Closes the connections, the server and the database, in that order.
  void Stop() {
    channels.clear();
    server.reset();
    rpc.reset();
    sink.reset();
    db.reset();
  }

  sdb::Application& application() {
    return probe_app != nullptr ? static_cast<sdb::Application&>(*probe_app) : *app;
  }
};

sdb::DatabaseOptions DbOptions(KvServer& s) {
  sdb::DatabaseOptions options;
  options.vfs = s.fs.get();
  options.dir = "db";
  // Full checkpoints: these workloads checkpoint only outside the timed phase, and
  // a delta checkpoint would start a background compaction that could run into it.
  // sharded_put is the workload for delta checkpoints.
  options.delta_checkpoint.enabled = false;
  return options;
}

void OpenApp(KvServer& s, bool traced) {
  s.app = std::make_unique<sdb::sim::KvApp>();
  s.probe_app = traced ? std::make_unique<ProbeApp>(*s.app) : nullptr;
}

std::unique_ptr<KvServer> SetUp(const Config& config, const KvShape& shape, bool traced,
                                const std::vector<std::string>& values) {
  auto s = std::make_unique<KvServer>();
  s->root = MakeFreshDir(config.work_dir, shape.tag);
  s->posix = std::make_unique<sdb::PosixFs>(s->root);
  s->fs = std::make_unique<ProbeFs>(*s->posix, shape.null_sync);
  OpenApp(*s, traced);
  s->db = Must(sdb::Database::Open(s->application(), DbOptions(*s)), "open database");

  for (std::size_t first = 0; first < values.size(); first += kPreloadChunk) {
    std::vector<std::function<Result<Bytes>()>> prepares;
    for (std::size_t i = first; i < std::min(values.size(), first + kPreloadChunk); ++i) {
      prepares.push_back(s->app->PreparePut(KvKey(static_cast<std::uint32_t>(i)), values[i]));
    }
    for (const Status& status : s->db->UpdateMany(prepares)) {
      MustOk(status, "preload");
    }
  }
  MustOk(s->db->Checkpoint(), "preload checkpoint");

  s->rpc = std::make_unique<sdb::rpc::RpcServer>(traced ? &s->clock : nullptr);
  std::shared_ptr<sdb::rpc::UpdateSink> sink =
      std::make_shared<sdb::net::DatabaseUpdateSink>(*s->db);
  if (traced) {
    s->sink = std::make_shared<ProbeSink>(std::move(sink));
    sink = s->sink;
  }
  sdb::sim::KvApp* app = s->app.get();
  sdb::Database* db = s->db.get();
  sdb::rpc::RegisterUpdateMethod<PutRequest, PutAck>(
      *s->rpc, "Kv", "Put", sink,
      [app](const PutRequest& request) -> Result<sdb::rpc::TypedUpdatePlan<PutAck>> {
        return sdb::rpc::TypedUpdatePlan<PutAck>{app->PreparePut(request.key, request.value),
                                                 PutAck{1}};
      });
  sdb::rpc::RegisterMethod<LookupRequest, LookupResponse>(
      *s->rpc, "Kv", "Lookup",
      [app, db](const LookupRequest& request) -> Result<LookupResponse> {
        LookupResponse response;
        SDB_RETURN_IF_ERROR(db->Enquire([&] {
          auto it = app->state.find(request.key);
          if (it != app->state.end()) {
            response.found = 1;
            response.value = it->second;
          }
          return sdb::OkStatus();
        }));
        return response;
      });
  s->server = Must(sdb::net::NetServer::Start(*s->rpc), "start server");
  for (int c = 0; c < shape.connections; ++c) {
    s->channels.push_back(
        Must(sdb::net::NetChannel::Connect("127.0.0.1", s->server->port()), "connect"));
  }
  return s;
}

template <typename Req>
Result<std::uint64_t> Submit(sdb::net::NetChannel& channel, const char* method,
                             const Req& request) {
  Bytes encoded;
  {
    Tracer::Scope span(Span::kClientMarshal);
    sdb::rpc::Request wire;
    wire.service = "Kv";
    wire.method = method;
    sdb::PickleWriter writer;
    writer.Write(request);
    wire.payload = std::move(writer).TakeRaw();
    encoded = sdb::rpc::EncodeRequest(wire);
  }
  Tracer::Scope span(Span::kNetSubmit);
  return channel.Submit(sdb::AsSpan(encoded));
}

template <typename Resp>
Result<Resp> Await(sdb::net::NetChannel& channel, std::uint64_t id) {
  Result<Bytes> encoded = [&] {
    Tracer::Scope span(Span::kNetAwait);
    return channel.Await(id);
  }();
  SDB_RETURN_IF_ERROR(encoded.status());
  Tracer::Scope span(Span::kClientUnmarshal);
  SDB_ASSIGN_OR_RETURN(sdb::rpc::Response response,
                       sdb::rpc::DecodeResponse(sdb::AsSpan(*encoded)));
  SDB_RETURN_IF_ERROR(response.status);
  sdb::PickleReader reader = sdb::PickleReader::Raw(sdb::AsSpan(response.payload));
  Resp result{};
  SDB_RETURN_IF_ERROR(reader.Read(result));
  return result;
}

struct PendingPut {
  std::uint64_t id = 0;
  std::uint32_t key = 0;
  std::string value;
  std::uint64_t start_ns = 0;
};

// The timed phase: a closed loop over the connections, each with `window` puts in
// flight. One generator thread submits round-robin and, when a connection's window
// is full, awaits its oldest put first. A key already in flight is redrawn, so the
// last acknowledged value of every key is well defined.
void RunPuts(const Config& config, const KvShape& shape, KvServer& s,
             std::vector<std::string>& model, PassResult& result) {
  sdb::Rng keys(config.seed * 0x9E3779B97F4A7C15ull + 11);
  ValueSource values(config.seed * 0x9E3779B97F4A7C15ull + 12);
  std::vector<std::uint8_t> busy(kKvKeys, 0);
  std::vector<std::deque<PendingPut>> windows(s.channels.size());
  Reservoir put_us(kPutSamples, config.seed * 0x9E3779B97F4A7C15ull + 14);
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(config.seconds * 1e9);
  result.slices = SliceCounter(start);

  auto complete = [&](std::size_t c) {
    PendingPut put = std::move(windows[c].front());
    windows[c].pop_front();
    Result<PutAck> ack = Await<PutAck>(*s.channels[c], put.id);
    busy[put.key] = 0;
    if (!ack.ok() || ack->applied != 1) {
      result.failed++;
      result.Mismatch("put " + KvKey(put.key) + " failed: " + ack.status().ToString());
      return;
    }
    const std::uint64_t done = NowNs();
    result.slices.Count(done);
    put_us.Add(static_cast<double>(done - put.start_ns) / 1000.0);
    model[put.key] = std::move(put.value);
    result.puts++;
    result.user_bytes += static_cast<double>(kKeyBytes + kValueBytes);
  };

  std::uint64_t op = 0;
  for (std::size_t c = 0;; c = (c + 1) % windows.size()) {
    if (windows[c].size() >= shape.window) {
      complete(c);
    }
    std::uint64_t now = NowNs();
    if (now >= deadline) {
      break;
    }
    PendingPut put;
    do {
      put.key = static_cast<std::uint32_t>(keys.NextBelow(kKvKeys));
    } while (busy[put.key] != 0);
    busy[put.key] = 1;
    put.value = values.Next();
    put.start_ns = now;
    Tracer::SetThreadOp(++op);
    result.attempted++;
    Result<std::uint64_t> id =
        Submit(*s.channels[c], "Put", PutRequest{KvKey(put.key), put.value});
    if (!id.ok()) {
      Fail("submit put", id.status());
    }
    put.id = *id;
    windows[c].push_back(std::move(put));
  }
  for (std::size_t c = 0; c < windows.size(); ++c) {
    while (!windows[c].empty()) {
      complete(c);
    }
  }
  result.timed_s = SecondsSince(start);
  result.put_us = std::move(put_us).Take();
}

void CheckLookup(const Result<LookupResponse>& got, std::uint32_t key,
                 const std::vector<std::string>& model, PassResult& result) {
  if (!got.ok()) {
    result.failed++;
    result.Mismatch("lookup " + KvKey(key) + " failed: " + got.status().ToString());
  } else if (got->found != 1 || got->value != model[key]) {
    result.Mismatch("lookup " + KvKey(key) + " returned a value other than its last ack");
  }
}

// Before close: a depth-1 sample of Lookups (the get latency), then every key read
// back over the wire with a pipelined window.
void ReadBack(const Config& config, KvServer& s, const std::vector<std::string>& model,
              PassResult& result) {
  sdb::Rng sample(config.seed * 0x9E3779B97F4A7C15ull + 13);
  sdb::net::NetChannel& first = *s.channels[0];
  for (std::size_t i = 0; i < kGetSample; ++i) {
    std::uint32_t key = static_cast<std::uint32_t>(sample.NextBelow(kKvKeys));
    std::uint64_t start = NowNs();
    result.attempted++;
    Result<std::uint64_t> id = Submit(first, "Lookup", LookupRequest{KvKey(key)});
    if (!id.ok()) {
      Fail("submit lookup", id.status());
    }
    Result<LookupResponse> got = Await<LookupResponse>(first, *id);
    result.get_us.push_back(static_cast<double>(NowNs() - start) / 1000.0);
    CheckLookup(got, key, model, result);
  }

  std::vector<std::deque<std::pair<std::uint64_t, std::uint32_t>>> windows(s.channels.size());
  auto complete = [&](std::size_t c) {
    auto [id, key] = windows[c].front();
    windows[c].pop_front();
    CheckLookup(Await<LookupResponse>(*s.channels[c], id), key, model, result);
  };
  for (std::uint32_t key = 0; key < kKvKeys; ++key) {
    std::size_t c = key % windows.size();
    if (windows[c].size() >= kReadBackWindow) {
      complete(c);
    }
    result.attempted++;
    Result<std::uint64_t> id = Submit(*s.channels[c], "Lookup", LookupRequest{KvKey(key)});
    if (!id.ok()) {
      Fail("submit lookup", id.status());
    }
    windows[c].emplace_back(*id, key);
  }
  for (std::size_t c = 0; c < windows.size(); ++c) {
    while (!windows[c].empty()) {
      complete(c);
    }
  }
}

std::uint64_t StateHash(sdb::Database& db, sdb::sim::KvApp& app) {
  std::uint64_t hash = 0;
  MustOk(db.Enquire([&] {
    SDB_ASSIGN_OR_RETURN(Bytes state, app.SerializeState());
    hash = Fnv64(sdb::AsSpan(state));
    return sdb::OkStatus();
  }),
         "hash state");
  return hash;
}

PassResult RunKv(const Config& config, const KvShape& shape, bool traced, bool repeat_setup) {
  Tracer::SetEnabled(traced);
  PassResult result;
  std::vector<std::string> initial;
  {
    ValueSource source(config.seed * 0x9E3779B97F4A7C15ull + 10);
    initial.reserve(kKvKeys);
    for (std::uint32_t i = 0; i < kKvKeys; ++i) {
      initial.push_back(source.Next());
    }
  }

  std::unique_ptr<KvServer> s;
  do {
    if (s != nullptr) {
      s->Stop();
      RemoveTree(s->root);
      s.reset();
      TrimHeap();
    }
    std::uint64_t start = NowNs();
    s = SetUp(config, shape, traced, initial);
    result.setup_s.push_back(SecondsSince(start));
  } while (repeat_setup && MoreSetups(result.setup_s));
  std::vector<std::string> model = initial;

  Tracer::Drain();  // set-up spans are not part of any phase
  const IoSnapshot io_before = s->fs->Snapshot();
  const sdb::net::NetServer::Stats net_before = s->server->stats();
  RunPuts(config, shape, *s, model, result);
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
  result.live_bytes = static_cast<double>(kKvKeys) * static_cast<double>(kKeyBytes + kValueBytes);

  ReadBack(config, *s, model, result);
  for (const sdb::rpc::MethodMetrics& method : s->rpc->metrics()) {
    if (method.method == "Lookup" && method.calls > 0) {
      result.lookup_handler_us =
          static_cast<double>(method.handler_micros) / static_cast<double>(method.calls);
    }
  }
  const std::uint64_t hash_before = StateHash(*s->db, *s->app);
  // The restart recovers the whole keyspace from a checkpoint. Replaying the timed
  // phase's log instead would make restart_s scale with that phase's throughput;
  // log replay is measured by ns_lookup_mostly and sharded_put.
  MustOk(s->db->Checkpoint(), "final checkpoint");
  result.disk_bytes = DirBytes(s->root);

  // Close, then time restarts of the final directory; each must recover the state
  // as it was before close.
  while (MoreRestarts(result.restart_s)) {
    s->Stop();
    Tracer::Drain();
    const IoSnapshot io_restart = s->fs->Snapshot();
    OpenApp(*s, traced);
    std::uint64_t start = NowNs();
    {
      Tracer::Scope span(Span::kCoreOpen);
      s->db = Must(sdb::Database::Open(s->application(), DbOptions(*s)), "reopen database");
    }
    result.restart_s.push_back(SecondsSince(start));
    result.restart_io = s->fs->Snapshot() - io_restart;
    result.restart_spans = Tracer::Drain();
    result.entries_replayed = s->db->stats().restart.entries_replayed;
    if (StateHash(*s->db, *s->app) != hash_before) {
      result.Mismatch("recovered state differs from the state before close");
    }
  }
  for (std::uint32_t key = 0; key < kKvKeys; ++key) {
    auto it = s->app->state.find(KvKey(key));
    if (it == s->app->state.end() || it->second != model[key]) {
      result.Mismatch("after restart " + KvKey(key) + " lost its last acknowledged value");
    }
  }
  s->Stop();
  RemoveTree(s->root);
  Tracer::SetEnabled(false);
  return result;
}

}  // namespace

PassResult RunPutSerial(const Config& config, bool traced, bool repeat_setup) {
  return RunKv(config, kSerial, traced, repeat_setup);
}

PassResult RunPutPipelined(const Config& config, bool traced, bool repeat_setup) {
  return RunKv(config, kPipelined, traced, repeat_setup);
}

}  // namespace perfbench
