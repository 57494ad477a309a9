// Shared pieces of the end-to-end benchmark: run configuration, what one pass of
// a workload measures, input generators, and small host helpers.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // fresh database directories are made under it
};

// Acknowledged ops of the timed phase, counted in slices of kSliceS seconds. Each
// slice keeps its first and last completion instant, so its rate is measured
// rather than a count divided by the slice length. Memory stays fixed however
// many ops complete.
constexpr double kSliceS = 0.5;
class SliceCounter {
 public:
  explicit SliceCounter(std::uint64_t start_ns = 0) : start_ns_(start_ns) {}
  void Count(std::uint64_t done_ns);
  void Merge(const SliceCounter& other);
  // Ops per second of each slice that lies wholly inside the first `seconds`.
  std::vector<double> Rates(double seconds) const;

 private:
  struct Slice {
    std::uint64_t ops = 0;
    std::uint64_t first_ns = ~std::uint64_t{0};
    std::uint64_t last_ns = 0;
  };
  std::uint64_t start_ns_;
  std::vector<Slice> slices_;
};

// Latency samples in memory of fixed size, touched up front, so the benchmark's
// own share of rss_mb does not grow with throughput. Past capacity it keeps a
// uniform random sample of everything added (reservoir sampling).
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void Add(double value);
  std::vector<double> Take() &&;

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  sdb::Rng rng_;
};

// Everything one pass of a workload measured. Timed-phase figures cover only the
// measured window; set-up, read-back and restart are separate phases.
struct PassResult {
  std::vector<double> setup_s;  // one per set-up performed

  double timed_s = 0;
  SliceCounter slices;     // acknowledged timed ops
  std::uint64_t puts = 0;  // acknowledged updates in the timed phase
  std::uint64_t gets = 0;  // acknowledged reads in the timed phase
  std::vector<double> put_us;  // client-observed update latency
  std::vector<double> get_us;  // client-observed read latency (timed phase or read-back)
  double user_bytes = 0;       // key + value bytes of acknowledged updates
  IoSnapshot timed_io;
  double disk_bytes = 0;  // bytes on disk just before close
  double live_bytes = 0;  // live user key + value bytes then
  double rss_mb = 0;
  std::vector<double> checkpoint_stall_ms;  // per benchmark-issued checkpoint
  std::vector<double> checkpoint_ms;
  std::uint64_t stalled_puts = 0;  // slow updates overlapping a checkpoint

  std::vector<double> restart_s;  // one per timed reopen of the final directory
  IoSnapshot restart_io;
  std::uint64_t entries_replayed = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;

  // Filled only by a traced pass (zero otherwise).
  SpanTable timed_spans;
  SpanTable restart_spans;
  std::uint64_t ingest_batches = 0;
  std::uint64_t ingest_updates = 0;
  std::uint64_t read_pauses = 0;
  std::uint64_t sink_calls = 0;
  std::uint64_t sink_updates = 0;
  double lookup_handler_us = 0;  // RpcServer's mean Lookup handler time
  std::uint64_t covering_fsyncs = 0;

  void Mismatch(std::string what);
};

// The workloads. `traced` turns on spans and the decorators; `repeat_setup` runs
// set-up as often as MoreSetups asks (all but the last are torn down again).
PassResult RunPutSerial(const Config& config, bool traced, bool repeat_setup);
PassResult RunPutPipelined(const Config& config, bool traced, bool repeat_setup);
PassResult RunNsLookupMostly(const Config& config, bool traced, bool repeat_setup);
PassResult RunShardedPut(const Config& config, bool traced, bool repeat_setup);

// --- inputs ---

// Whether a repeated timed phase runs once more, given the durations of its runs
// so far: at least `least` runs, and past that up to `most`, until they have
// taken `budget_s` seconds in all. Its metric is the median of the runs.
inline bool RunAgain(const std::vector<double>& seconds, std::size_t least, std::size_t most,
                     double budget_s) {
  double total = 0;
  for (double s : seconds) {
    total += s;
  }
  return seconds.size() < least || (seconds.size() < most && total < budget_s);
}
inline bool MoreSetups(const std::vector<double>& setup_s) { return RunAgain(setup_s, 3, 7, 3.0); }
// Timed reopens of the final directory.
inline bool MoreRestarts(const std::vector<double>& restart_s) {
  return RunAgain(restart_s, 1, 11, 2.5);
}

constexpr std::uint32_t kKvKeys = 65536;
constexpr std::size_t kKeyBytes = 16;
constexpr std::size_t kValueBytes = 100;

// Key i of the KV keyspace: exactly kKeyBytes bytes.
std::string KvKey(std::uint32_t index);

// Seeded 100-byte values; every call returns a value no earlier call returned
// (the first 16 bytes carry a sequence number).
class ValueSource {
 public:
  explicit ValueSource(std::uint64_t seed);
  std::string Next();

 private:
  sdb::Rng rng_;
  std::vector<std::string> pool_;
  std::uint64_t sequence_ = 0;
};

// Zipf(theta) over ranks [0, n): rank 0 is the most popular.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);
  std::size_t Sample(sdb::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- host helpers ---

std::uint64_t NowNs();
double SecondsSince(std::uint64_t start_ns);

// Creates a fresh, empty directory under `parent`.
std::string MakeFreshDir(const std::string& parent, std::string_view tag);
void RemoveTree(const std::string& path);
double DirBytes(const std::string& path);
// Resident set size; callers TrimHeap first, so it counts live memory only.
double RssMb();
// Returns freed heap to the OS.
void TrimHeap();
std::uint64_t Fnv64(sdb::ByteSpan data);

double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Aborts the pass (the benchmark exits non-zero without a result).
[[noreturn]] void Fail(const std::string& what, const sdb::Status& status);

template <typename T>
T Must(sdb::Result<T> result, const char* what) {
  if (!result.ok()) {
    Fail(what, result.status());
  }
  return std::move(*result);
}

inline void MustOk(const sdb::Status& status, const char* what) {
  if (!status.ok()) {
    Fail(what, status);
  }
}

// Checkpoint k of `count` is due at this offset into the timed phase: evenly
// spaced, so every run issues the same number of checkpoints.
inline double CheckpointDueS(double seconds, int k, int count) {
  return seconds * static_cast<double>(k + 1) / static_cast<double>(count + 1);
}

// For each checkpoint interval: its duration and the longest update overlapping it.
struct Interval {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};
void ComputeStalls(const std::vector<Interval>& checkpoints,
                   const std::vector<std::vector<Interval>>& puts_by_caller,
                   PassResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
