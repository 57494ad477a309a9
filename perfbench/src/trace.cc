#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

std::atomic<bool> Tracer::enabled_{false};

namespace {

constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);

constexpr std::array<const char*, kSpans> kLabels = {
    "rpc.client_marshal", "net.submit",         "net.await",
    "rpc.client_unmarshal", "rpc.commit_many",  "core.update",
    "pickle.prepare",     "app.apply",          "app.capture",
    "app.serialize",      "app.deserialize",    "app.replay",
    "app.compose",        "storage.log_append", "storage.log_sync",
    "storage.ckpt_write", "storage.ckpt_sync",  "storage.read",
    "storage.meta",       "core.checkpoint",    "core.open",
};

struct RawSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Span name = Span::kCount;
};

struct Frame {
  Span name;
  std::uint64_t id;
  std::uint64_t op;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
};

// One per thread that ever opened a span. Owned by the registry, so the data
// outlives threads that exit before the run reports (server and replay workers).
struct ThreadBuf {
  std::size_t thread = 0;
  // Touched only by the owning thread.
  std::vector<Frame> stack;
  std::uint64_t next_id = 1;
  std::uint64_t op = 0;
  // Read by Drain/WriteRaw from the reporting thread.
  std::mutex mu;
  SpanTable table;
  std::vector<RawSpan> raw;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_buffers;

ThreadBuf& LocalBuf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    owned->thread = g_buffers.size();
    buf = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

const char* SpanLabel(Span span) { return kLabels[static_cast<std::size_t>(span)]; }

void Tracer::SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

std::uint64_t Tracer::NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void Tracer::SetThreadOp(std::uint64_t op) {
  if (enabled()) {
    LocalBuf().op = op;
  }
}

Tracer::Scope::Scope(Span span) : active_(Tracer::enabled()) {
  if (!active_) {
    return;
  }
  ThreadBuf& buf = LocalBuf();
  std::uint64_t op = buf.stack.empty() ? buf.op : buf.stack.back().op;
  buf.stack.push_back(Frame{span, buf.next_id++, op, NowNs(), 0});
}

Tracer::Scope::~Scope() {
  if (!active_) {
    return;
  }
  std::uint64_t end = NowNs();
  ThreadBuf& buf = LocalBuf();
  Frame frame = buf.stack.back();
  buf.stack.pop_back();
  std::uint64_t duration = end - frame.start_ns;
  std::uint64_t parent = 0;
  if (!buf.stack.empty()) {
    buf.stack.back().child_ns += duration;
    parent = buf.stack.back().id;
  }
  std::uint64_t self = duration > frame.child_ns ? duration - frame.child_ns : 0;
  std::lock_guard<std::mutex> lock(buf.mu);
  SpanStats& stats = buf.table[static_cast<std::size_t>(frame.name)];
  stats.count++;
  stats.total_us += static_cast<double>(duration) / 1000.0;
  stats.self_us += static_cast<double>(self) / 1000.0;
  stats.durations_us.push_back(static_cast<double>(duration) / 1000.0);
  if (buf.raw.size() < kRawSpanCap) {
    buf.raw.push_back(RawSpan{frame.id, parent, frame.op, frame.start_ns, end, frame.name});
  }
}

SpanTable Tracer::Drain() {
  SpanTable merged;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& buf : g_buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (std::size_t i = 0; i < kSpans; ++i) {
      SpanStats& from = buf->table[i];
      SpanStats& to = merged[i];
      to.count += from.count;
      to.total_us += from.total_us;
      to.self_us += from.self_us;
      to.durations_us.insert(to.durations_us.end(), from.durations_us.begin(),
                             from.durations_us.end());
      from = SpanStats{};
    }
  }
  return merged;
}

bool Tracer::WriteRaw(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "thread\tid\tparent\top\tname\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& buf : g_buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (const RawSpan& span : buf->raw) {
      std::fprintf(out, "%zu\t%llu\t%llu\t%llu\t%s\t%llu\t%llu\n", buf->thread,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.op), SpanLabel(span.name),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
    buf->raw.clear();
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
