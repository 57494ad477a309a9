#include "perfbench/src/harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

namespace perfbench {

void PassResult::Mismatch(std::string what) {
  // Keep the report readable when something is systematically wrong.
  if (mismatches.size() < 20) {
    mismatches.push_back(std::move(what));
  }
  if (mismatches.size() == 20) {
    mismatches.push_back("(further mismatches omitted)");
  }
}

std::string KvKey(std::uint32_t index) {
  char buffer[kKeyBytes + 1];
  std::snprintf(buffer, sizeof(buffer), "key%013u", index);
  return std::string(buffer, kKeyBytes);
}

ValueSource::ValueSource(std::uint64_t seed) : rng_(seed) {
  pool_.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    pool_.push_back(rng_.NextString(kValueBytes));
  }
}

std::string ValueSource::Next() {
  std::string value = pool_[rng_.NextBelow(pool_.size())];
  char stamp[17];
  std::snprintf(stamp, sizeof(stamp), "%016llx", static_cast<unsigned long long>(++sequence_));
  value.replace(0, 16, stamp, 16);
  return value;
}

ZipfSampler::ZipfSampler(std::size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

std::size_t ZipfSampler::Sample(sdb::Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::uint64_t NowNs() { return Tracer::NowNs(); }

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::string MakeFreshDir(const std::string& parent, std::string_view tag) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/" + std::string(tag) + "-XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (mkdtemp(buffer.data()) == nullptr) {
    Fail("mkdtemp " + pattern, sdb::IoError("cannot create directory"));
  }
  return std::string(buffer.data());
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double DirBytes(const std::string& path) {
  double total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<double>(entry.file_size(ec));
    }
  }
  return total;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void TrimHeap() { malloc_trim(0); }

std::uint64_t Fnv64(sdb::ByteSpan data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::size_t index = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void SliceCounter::Count(std::uint64_t done_ns) {
  std::size_t index =
      static_cast<std::size_t>(static_cast<double>(done_ns - start_ns_) / 1e9 / kSliceS);
  if (index >= slices_.size()) {
    slices_.resize(index + 1);
  }
  Slice& slice = slices_[index];
  slice.ops++;
  slice.first_ns = std::min(slice.first_ns, done_ns);
  slice.last_ns = std::max(slice.last_ns, done_ns);
}

void SliceCounter::Merge(const SliceCounter& other) {
  if (slices_.size() < other.slices_.size()) {
    slices_.resize(other.slices_.size());
  }
  for (std::size_t i = 0; i < other.slices_.size(); ++i) {
    const Slice& from = other.slices_[i];
    Slice& to = slices_[i];
    to.ops += from.ops;
    to.first_ns = std::min(to.first_ns, from.first_ns);
    to.last_ns = std::max(to.last_ns, from.last_ns);
  }
}

std::vector<double> SliceCounter::Rates(double seconds) const {
  std::vector<double> rates;
  const std::size_t whole = static_cast<std::size_t>(seconds / kSliceS);
  for (std::size_t i = 0; i < whole && i < slices_.size(); ++i) {
    const Slice& slice = slices_[i];
    // ops completions span ops - 1 intervals between the first and the last.
    rates.push_back(slice.ops < 2 ? 0
                                  : static_cast<double>(slice.ops - 1) * 1e9 /
                                        static_cast<double>(slice.last_ns - slice.first_ns));
  }
  return rates;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : values_(capacity, 0.0), rng_(seed) {}

void Reservoir::Add(double value) {
  seen_++;
  if (size_ < values_.size()) {
    values_[size_++] = value;
    return;
  }
  std::uint64_t slot = rng_.NextBelow(seen_);
  if (slot < values_.size()) {
    values_[slot] = value;
  }
}

std::vector<double> Reservoir::Take() && {
  values_.resize(size_);
  return std::move(values_);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

void Fail(const std::string& what, const sdb::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), status.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void ComputeStalls(const std::vector<Interval>& checkpoints,
                   const std::vector<std::vector<Interval>>& puts_by_caller,
                   PassResult* result) {
  std::vector<double> latencies;
  for (const auto& puts : puts_by_caller) {
    for (const Interval& put : puts) {
      latencies.push_back(static_cast<double>(put.end_ns - put.start_ns));
    }
  }
  // An update is stalled when it overlaps a checkpoint and takes over ten times
  // the median update.
  const double stalled_ns = 10 * Median(latencies);
  for (const Interval& checkpoint : checkpoints) {
    result->checkpoint_ms.push_back(
        static_cast<double>(checkpoint.end_ns - checkpoint.start_ns) / 1e6);
    std::uint64_t longest = 0;
    for (const auto& puts : puts_by_caller) {
      for (const Interval& put : puts) {
        if (put.start_ns < checkpoint.end_ns && put.end_ns > checkpoint.start_ns) {
          longest = std::max(longest, put.end_ns - put.start_ns);
          if (static_cast<double>(put.end_ns - put.start_ns) > stalled_ns) {
            result->stalled_puts++;
          }
        }
      }
    }
    result->checkpoint_stall_ms.push_back(static_cast<double>(longest) / 1e6);
  }
}

}  // namespace perfbench
