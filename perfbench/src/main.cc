// perfbench: the end-to-end benchmark of the real stack (NetChannel -> NetServer ->
// UpdateSink -> GroupCommitter / CrossShardCoalescer -> LogWriter -> PosixFs).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 measures with spans off and reports the end-to-end metrics.
// --trace 1 runs the workload twice, spans off and then on, and reports the
// per-layer metrics, the self-time table and the tracing overhead.
// The last line of standard output is one JSON object; a correctness mismatch
// still prints it (with "correct": false) and exits 1.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

// The metrics BENCHMARK.json declares, in the order it lists them.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "put_p50_us", "puts_per_s", "ops_per_s", "write_amp", "space_amp", "rss_mb",
};
const std::vector<std::string> kPerLayer = {
    "get_p50_us",
    "restart_s",
    "put_p99_us",
    "get_p99_us",
    "checkpoint_stall_ms",
    "storage.sync_us.p50",
    "storage.sync_us.p99",
    "storage.syncs_per_put",
    "storage.append_us",
    "storage.log_bytes_per_put",
    "storage.checkpoint_bytes",
    "storage.restart_read_us",
    "storage.restart_read_bytes",
    "storage.raw_fsync_us.p50",
    "storage.raw_fsync_us.p99",
    "net.loopback_rtt_us",
    "net.submit_us",
    "net.overhead_us",
    "net.get_overhead_us",
    "net.updates_per_ingest_batch",
    "net.read_pauses",
    "rpc.commit_many_us.p50",
    "rpc.commit_many_us.p99",
    "rpc.commit_many_size",
    "rpc.handler_us.Lookup",
    "pickle.prepare_us",
    "core.commit_self_us",
    "core.checkpoint_us",
    "core.checkpoints",
    "core.restart.entries_replayed",
    "core.sharded.puts_per_covering_fsync",
    "core.sharded.nondevice_us",
    "app.apply_us",
    "app.capture_us",
    "app.deserialize_us",
    "app.replay_us",
    "trace.unattributed_us",
    "trace.attributed_frac",
    "trace.overhead_frac",
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Probes {
  std::vector<double> fsync_us;
  std::vector<double> rtt_us;
};

// A bare 512-byte append + fsync in the same file system the workloads use.
std::vector<double> ProbeRawFsync(const std::string& dir) {
  constexpr int kSamples = 200;
  std::filesystem::create_directories(dir);
  std::string path = dir + "/raw-fsync-probe";
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    Fail("open " + path, sdb::IoError(std::strerror(errno)));
  }
  std::vector<char> block(512, 'x');
  std::vector<double> samples;
  for (int i = 0; i < kSamples; ++i) {
    std::uint64_t start = NowNs();
    if (::write(fd, block.data(), block.size()) != static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      Fail("raw fsync probe", sdb::IoError(std::strerror(errno)));
    }
    samples.push_back(static_cast<double>(NowNs() - start) / 1000.0);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return samples;
}

bool WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, std::size_t size) {
  while (size > 0) {
    ssize_t n = ::recv(fd, data, size, 0);
    if (n <= 0) {
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Round trips of a 64-byte message through a bare loopback TCP echo thread.
std::vector<double> ProbeLoopbackRtt() {
  constexpr int kSamples = 2000;
  constexpr std::size_t kMessage = 64;
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Fail("loopback probe listen", sdb::IoError(std::strerror(errno)));
  }
  std::thread echo([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buffer[kMessage];
    while (ReadAll(fd, buffer, kMessage) && WriteAll(fd, buffer, kMessage)) {
    }
    ::close(fd);
  });
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  bool connected =
      fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  std::vector<double> samples;
  if (connected) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buffer[kMessage] = {};
    for (int i = 0; i < kSamples; ++i) {
      std::uint64_t start = NowNs();
      if (!WriteAll(fd, buffer, kMessage) || !ReadAll(fd, buffer, kMessage)) {
        break;
      }
      samples.push_back(static_cast<double>(NowNs() - start) / 1000.0);
    }
  }
  if (fd >= 0) {
    ::close(fd);  // ends the echo loop
  }
  if (!connected) {
    // Unblock accept so the echo thread can be joined.
    ::shutdown(listener, SHUT_RDWR);
  }
  echo.join();
  ::close(listener);
  if (samples.size() != static_cast<std::size_t>(kSamples)) {
    Fail("loopback probe", sdb::IoError("echo round trip failed"));
  }
  return samples;
}

// The highest percentile with at least ten samples beyond it.
double TailQuantile(std::size_t n) {
  for (double q : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
      return q;
    }
  }
  return 0.5;
}

std::string Describe(const std::vector<double>& samples, const char* unit) {
  if (samples.empty()) {
    return "n/a";
  }
  double q = TailQuantile(samples.size());
  char buffer[160];
  if (q == 0.5) {
    std::snprintf(buffer, sizeof(buffer), "p50 %.2f %s (n=%zu)", Median(samples), unit,
                  samples.size());
  } else {
    std::snprintf(buffer, sizeof(buffer), "p50 %.2f %s, p%g %.2f %s (n=%zu)", Median(samples),
                  unit, q * 100, Percentile(samples, q), unit, samples.size());
  }
  return buffer;
}

double PerOp(double total, std::uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

const SpanStats& At(const SpanTable& table, Span span) {
  return table[static_cast<std::size_t>(span)];
}

double MeanDuration(const SpanTable& table, Span span) {
  const SpanStats& stats = At(table, span);
  return PerOp(stats.total_us, stats.count);
}

Metrics EndToEnd(const PassResult& r) {
  Metrics m;
  m["setup_s"] = {Median(r.setup_s), "s"};
  m["put_p50_us"] = {Median(r.put_us), "us"};
  m["put_p99_us"] = {Percentile(r.put_us, 0.99), "us"};
  m["get_p50_us"] = {Median(r.get_us), "us"};
  m["get_p99_us"] = {Percentile(r.get_us, 0.99), "us"};
  // Throughput is the median over the timed phase's slices, so a burst of host
  // noise moves one slice rather than the whole figure.
  const double op_rate = Median(r.slices.Rates(r.timed_s));
  const double put_share = r.puts + r.gets == 0 ? 0 : static_cast<double>(r.puts) /
                                                         static_cast<double>(r.puts + r.gets);
  m["puts_per_s"] = {op_rate * put_share, "1/s"};
  m["ops_per_s"] = {op_rate, "1/s"};
  m["ops_per_s_mean"] = {static_cast<double>(r.puts + r.gets) / r.timed_s, "1/s"};
  m["restart_s"] = {Median(r.restart_s), "s"};
  m["checkpoint_stall_ms"] = {Median(r.checkpoint_stall_ms), "ms"};
  m["write_amp"] = {static_cast<double>(r.timed_io.bytes_written()) / r.user_bytes, "ratio"};
  m["space_amp"] = {r.disk_bytes / r.live_bytes, "ratio"};
  m["rss_mb"] = {r.rss_mb, "MB"};
  m["ops_failed_frac"] = {PerOp(static_cast<double>(r.failed), r.attempted), "frac"};
  return m;
}

Metrics PerLayer(const std::string& workload, const PassResult& r, const PassResult& untimed,
                 const Probes& probes) {
  Metrics m = EndToEnd(r);
  const SpanTable& t = r.timed_spans;
  const SpanTable& rs = r.restart_spans;
  const std::uint64_t puts = r.puts;
  const IoCounts& log = r.timed_io.of(FileKind::kLog);
  const double put_mean = Mean(r.put_us);

  m["storage.sync_us.p50"] = {Median(At(t, Span::kLogSync).durations_us), "us"};
  m["storage.sync_us.p99"] = {Percentile(At(t, Span::kLogSync).durations_us, 0.99), "us"};
  m["storage.syncs_per_put"] = {PerOp(static_cast<double>(log.syncs), puts), "count/put"};
  m["storage.append_us"] = {PerOp(At(t, Span::kLogAppend).total_us, puts), "us/put"};
  m["storage.log_bytes_per_put"] = {PerOp(static_cast<double>(log.bytes_written()), puts),
                                    "bytes/put"};
  m["storage.checkpoint_bytes"] = {
      static_cast<double>(r.timed_io.bytes_written() - log.bytes_written()), "bytes"};
  m["storage.restart_read_us"] = {At(rs, Span::kRead).total_us, "us"};
  m["storage.restart_read_bytes"] = {static_cast<double>(r.restart_io.bytes_read()), "bytes"};
  m["storage.raw_fsync_us.p50"] = {Median(probes.fsync_us), "us"};
  m["storage.raw_fsync_us.p99"] = {Percentile(probes.fsync_us, 0.99), "us"};
  m["net.loopback_rtt_us"] = {Median(probes.rtt_us), "us"};

  const bool networked = workload != "sharded_put";
  const double commit_mean = MeanDuration(t, Span::kCommitMany);
  m["net.submit_us"] = {MeanDuration(t, Span::kNetSubmit), "us"};
  m["net.overhead_us"] = {networked ? put_mean - commit_mean : 0, "us"};
  m["net.get_overhead_us"] = {networked ? Mean(r.get_us) - r.lookup_handler_us : 0, "us"};
  m["net.updates_per_ingest_batch"] = {
      PerOp(static_cast<double>(r.ingest_updates), r.ingest_batches), "count"};
  m["net.read_pauses"] = {static_cast<double>(r.read_pauses), "count"};
  m["rpc.commit_many_us.p50"] = {Median(At(t, Span::kCommitMany).durations_us), "us"};
  m["rpc.commit_many_us.p99"] = {Percentile(At(t, Span::kCommitMany).durations_us, 0.99), "us"};
  m["rpc.commit_many_size"] = {PerOp(static_cast<double>(r.sink_updates), r.sink_calls), "count"};
  m["rpc.handler_us.Lookup"] = {r.lookup_handler_us, "us"};
  m["pickle.prepare_us"] = {PerOp(At(t, Span::kPrepare).total_us, puts), "us/put"};
  m["core.commit_self_us"] = {
      PerOp(At(t, Span::kCommitMany).self_us + At(t, Span::kCoreUpdate).self_us, puts), "us/put"};
  m["core.checkpoint_us"] = {MeanDuration(t, Span::kCoreCheckpoint), "us"};
  m["core.checkpoints"] = {static_cast<double>(At(t, Span::kCoreCheckpoint).count), "count"};
  m["core.restart.entries_replayed"] = {static_cast<double>(r.entries_replayed), "count"};
  const bool sharded = workload == "sharded_put";
  m["core.sharded.puts_per_covering_fsync"] = {
      sharded ? PerOp(static_cast<double>(puts), r.covering_fsyncs) : 0, "count"};
  m["core.sharded.nondevice_us"] = {
      sharded ? Median(r.put_us) - m["storage.sync_us.p50"].value : 0, "us"};
  m["app.apply_us"] = {PerOp(At(t, Span::kAppApply).total_us, puts), "us/put"};
  m["app.capture_us"] = {MeanDuration(t, Span::kAppCapture), "us"};
  m["app.deserialize_us"] = {At(rs, Span::kAppDeserialize).total_us, "us"};
  m["app.replay_us"] = {At(rs, Span::kAppReplay).total_us + At(rs, Span::kAppApply).total_us,
                        "us"};

  // Attribution of the mean update latency: the named spans on the update's path,
  // per update; what they leave over is time no named layer accounts for (on the
  // TCP workloads: the server's event loop and dispatch queue and the loopback hops).
  double named = PerOp(At(t, Span::kClientMarshal).total_us + At(t, Span::kNetSubmit).total_us +
                           At(t, Span::kClientUnmarshal).total_us +
                           At(t, Span::kCommitMany).total_us + At(t, Span::kCoreUpdate).total_us,
                       puts);
  m["trace.unattributed_us"] = {put_mean - named, "us"};
  m["trace.attributed_frac"] = {put_mean > 0 ? named / put_mean : 0, "frac"};
  // Tracing overhead: the median latency of every client operation, traced against
  // the untraced pass of the same run.
  auto median_op = [](const PassResult& p) {
    std::vector<double> all = p.put_us;
    all.insert(all.end(), p.get_us.begin(), p.get_us.end());
    return Median(std::move(all));
  };
  double base = median_op(untimed);
  m["trace.overhead_frac"] = {base > 0 ? median_op(r) / base - 1 : 0, "frac"};
  return m;
}

void PrintSelfTimeTable(const PassResult& r) {
  std::printf("\nself-time table, timed phase (%llu updates, %llu reads):\n",
              static_cast<unsigned long long>(r.puts), static_cast<unsigned long long>(r.gets));
  std::printf("  %-22s %10s %12s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms",
              "self_us/upd", "p50_us");
  for (std::size_t i = 0; i < r.timed_spans.size(); ++i) {
    const SpanStats& s = r.timed_spans[i];
    if (s.count == 0) {
      continue;
    }
    std::printf("  %-22s %10llu %12.2f %12.2f %12.3f %10.2f\n", SpanLabel(static_cast<Span>(i)),
                static_cast<unsigned long long>(s.count), s.total_us / 1000, s.self_us / 1000,
                PerOp(s.self_us, r.puts), Median(s.durations_us));
  }
  std::printf("restart phase:\n");
  for (std::size_t i = 0; i < r.restart_spans.size(); ++i) {
    const SpanStats& s = r.restart_spans[i];
    if (s.count == 0) {
      continue;
    }
    std::printf("  %-22s %10llu %12.2f %12.2f\n", SpanLabel(static_cast<Span>(i)),
                static_cast<unsigned long long>(s.count), s.total_us / 1000, s.self_us / 1000);
  }
}

// Splits the mean update latency into the client's spans, the engine-entry span
// (CommitMany or UpdateKey: its self time plus the spans inside it) and the
// unattributed rest; the rows add up to the measured latency. On put_serial every
// update is alone on the wire, so the split is exact.
void PrintAttribution(const PassResult& r, const Metrics& m) {
  const SpanTable& t = r.timed_spans;
  auto per_put = [&](Span span) { return PerOp(At(t, span).total_us, r.puts); };
  const double put_mean = Mean(r.put_us);
  const double engine = per_put(Span::kCommitMany) + per_put(Span::kCoreUpdate);
  const double self = m.at("core.commit_self_us").value;
  std::vector<std::pair<std::string, double>> rows;
  for (Span span : {Span::kClientMarshal, Span::kNetSubmit, Span::kClientUnmarshal}) {
    rows.emplace_back(SpanLabel(span), per_put(span));
  }
  rows.emplace_back("core.commit_self", self);
  double inside = 0;
  for (Span span : {Span::kPrepare, Span::kLogAppend, Span::kLogSync, Span::kAppApply}) {
    rows.emplace_back(SpanLabel(span), per_put(span));
    inside += per_put(span);
  }
  rows.emplace_back("other spans in the engine call", engine - self - inside);
  rows.emplace_back("trace.unattributed", m.at("trace.unattributed_us").value);

  std::printf("\nattribution of the mean update latency, per update:\n");
  double sum = 0;
  for (const auto& [name, us] : rows) {
    std::printf("  %-32s %10.2f us\n", name.c_str(), us);
    sum += us;
  }
  std::printf("  %-32s %10.2f us (measured %.2f us; named spans %.1f%%)\n", "sum", sum,
              put_mean, 100 * m.at("trace.attributed_frac").value);
}

void PrintIo(const char* phase, const IoSnapshot& io) {
  std::printf("\nstorage calls by file kind, %s (renames %llu, directory syncs %llu):\n", phase,
              static_cast<unsigned long long>(io.renames),
              static_cast<unsigned long long>(io.sync_dirs));
  std::printf("  %-11s %9s %13s %9s %13s %9s %9s %13s\n", "kind", "appends", "append_bytes",
              "writes", "write_bytes", "syncs", "reads", "read_bytes");
  for (std::size_t i = 0; i < io.by_kind.size(); ++i) {
    const IoCounts& c = io.by_kind[i];
    std::printf("  %-11s %9llu %13llu %9llu %13llu %9llu %9llu %13llu\n",
                FileKindLabel(static_cast<FileKind>(i)), static_cast<unsigned long long>(c.appends),
                static_cast<unsigned long long>(c.append_bytes),
                static_cast<unsigned long long>(c.writes),
                static_cast<unsigned long long>(c.write_bytes),
                static_cast<unsigned long long>(c.syncs), static_cast<unsigned long long>(c.reads),
                static_cast<unsigned long long>(c.read_bytes));
  }
}

void PrintJson(const PassResult& r, const Metrics& m, const std::vector<std::string>& names) {
  std::string json = "{\"correct\": ";
  json += r.mismatches.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& metric = m.at(names[i]);
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    json += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Config config;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  using Runner = PassResult (*)(const Config&, bool, bool);
  const std::map<std::string, Runner> runners = {
      {"put_serial", RunPutSerial},
      {"put_pipelined", RunPutPipelined},
      {"ns_lookup_mostly", RunNsLookupMostly},
      {"sharded_put", RunShardedPut},
  };
  auto runner = runners.find(config.workload);
  if (runner == runners.end() || config.work_dir.empty() || config.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <put_serial|put_pipelined|ns_lookup_mostly|"
                 "sharded_put> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--out-dir <dir>]\n");
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  Probes probes;
  probes.fsync_us = ProbeRawFsync(config.work_dir);
  probes.rtt_us = ProbeLoopbackRtt();
  std::printf("reference probes: storage.raw_fsync_us %s; net.loopback_rtt_us %s\n",
              Describe(probes.fsync_us, "us").c_str(), Describe(probes.rtt_us, "us").c_str());

  PassResult result;
  Metrics metrics;
  if (!config.trace) {
    result = runner->second(config, false, true);
    metrics = EndToEnd(result);
  } else {
    PassResult untimed = runner->second(config, false, false);
    result = runner->second(config, true, false);
    metrics = PerLayer(config.workload, result, untimed, probes);
    result.attempted += untimed.attempted;
    result.failed += untimed.failed;
    for (std::string& m : untimed.mismatches) {
      result.Mismatch(std::move(m));
    }
  }

  std::printf("\nend-to-end (%s pass):\n", config.trace ? "traced" : "untraced");
  std::printf("  setup_s                %.4f s (median of %zu)\n", metrics["setup_s"].value,
              result.setup_s.size());
  std::printf("  restart_s              %.4f s (median of %zu)\n", metrics["restart_s"].value,
              result.restart_s.size());
  std::printf("  update latency         %s\n", Describe(result.put_us, "us").c_str());
  std::printf("  read latency           %s\n", Describe(result.get_us, "us").c_str());
  for (const char* name : {"puts_per_s", "ops_per_s", "ops_per_s_mean", "checkpoint_stall_ms",
                           "write_amp", "space_amp", "rss_mb", "ops_failed_frac"}) {
    std::printf("  %-22s %.4f %s\n", name, metrics[name].value, metrics[name].unit.c_str());
  }
  std::printf("  timeline (ops/s per %.1f s):", kSliceS);
  for (double rate : result.slices.Rates(result.timed_s)) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
  if (!result.checkpoint_ms.empty()) {
    std::printf("  checkpoints            %zu, %s; stalled updates: %llu of %llu\n",
                result.checkpoint_ms.size(), Describe(result.checkpoint_ms, "ms").c_str(),
                static_cast<unsigned long long>(result.stalled_puts),
                static_cast<unsigned long long>(result.put_us.size()));
  }
  if (config.trace) {
    std::printf("\nper-layer:\n");
    for (const std::string& name : kPerLayer) {
      std::printf("  %-38s %.4f %s\n", name.c_str(), metrics[name].value,
                  metrics[name].unit.c_str());
    }
    PrintSelfTimeTable(result);
    PrintAttribution(result, metrics);
    PrintIo("timed phase", result.timed_io);
    PrintIo("last restart", result.restart_io);
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      std::string path = out_dir + "/spans-" + config.workload + ".tsv";
      if (Tracer::WriteRaw(path)) {
        std::printf("raw spans written to %s\n", path.c_str());
      }
    }
  }
  for (const std::string& m : result.mismatches) {
    std::printf("MISMATCH: %s\n", m.c_str());
  }
  PrintJson(result, metrics, config.trace ? kPerLayer : kEndToEnd);
  std::fflush(stdout);
  return result.mismatches.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
