#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <set>

// ---------------------------------------------------------------------------
// Counted global operator new, the pattern of bench/perf_micro.cc, with
// per-thread counters so a span reads only its own thread's allocations.
// The hook flag is flipped only while no worker threads run.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_hook{false};
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* counted_alloc(std::size_t n) {
  if (g_hook.load(std::memory_order_relaxed)) {
    ++t_allocs;
    t_alloc_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

constexpr std::array<const char*, kNumSpanIds> kNames = {
    "bench.rep",          "workload.derive_flow_seeds",
    "workload.draw_scenario", "sim.run_flow",
    "tapo.analyze",       "workload.sink",
    "bench.digest",       "pcap.next_chunk",
    "tapo.live.add_chunk", "tapo.live.flush",
    "fleet.encode",       "fleet.decode",
    "fleet.ingest",
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* span_name(SpanId id) { return kNames[static_cast<std::size_t>(id)]; }

std::string span_layer(SpanId id) {
  const std::string name = span_name(id);
  return name.substr(0, name.find('.'));
}

void set_alloc_hook(bool on) { g_hook.store(on, std::memory_order_relaxed); }

SpanRecorder::SpanRecorder() {
  stack_.reserve(16);
  kept_.reserve(kKeptSpans);
}

void SpanRecorder::open(SpanId id, std::uint64_t flow) {
  Open o{id, 0};
  o.flow = flow;
  o.parent = stack_.empty() ? -1 : stack_.back().record;
  if (kept_.size() < kKeptSpans) {
    o.record = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Record{id, o.parent, flow, 0, 0});
  }
  o.allocs_at_open = t_allocs;
  o.bytes_at_open = t_alloc_bytes;
  stack_.push_back(o);
  // Read the clock last so the bookkeeping above is not billed to the span.
  stack_.back().start_ns = now_ns();
}

void SpanRecorder::close() {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  const std::uint64_t allocs = t_allocs - o.allocs_at_open;
  const std::uint64_t bytes = t_alloc_bytes - o.bytes_at_open;

  SpanAgg& a = aggs_[static_cast<std::size_t>(o.id)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  a.self_allocs += allocs - o.child_allocs;
  a.self_alloc_bytes += bytes - o.child_bytes;
  if (o.id == SpanId::kAnalyze) analyze_ns_.push_back(static_cast<double>(dur));
  if (o.record >= 0) {
    kept_[static_cast<std::size_t>(o.record)].start_ns = o.start_ns;
    kept_[static_cast<std::size_t>(o.record)].end_ns = end;
  }
  if (!stack_.empty()) {
    Open& parent = stack_.back();
    parent.child_ns += dur;
    parent.child_allocs += allocs;
    parent.child_bytes += bytes;
  }
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"flow\":%llu}}\n",
                 i ? "," : "", span_name(r.id), span_layer(r.id).c_str(),
                 static_cast<double>(r.start_ns - t0) / 1000.0,
                 static_cast<double>(r.end_ns - r.start_ns) / 1000.0, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.flow));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void add_self_time_metrics(Metrics& m, const SpanRecorder& spans,
                           double traced_wall_s) {
  const std::set<std::string> layers = {"bench", "workload", "sim",
                                        "tapo",  "pcap",     "fleet"};
  std::map<std::string, double> self_s;
  double attributed_s = 0.0;
  for (std::size_t i = 0; i < kNumSpanIds; ++i) {
    const auto id = static_cast<SpanId>(i);
    const double s = static_cast<double>(spans.agg(id).self_ns) * 1e-9;
    self_s[span_layer(id)] += s;
    if (id != SpanId::kRep) attributed_s += s;
  }
  for (const std::string& layer : layers) {
    m.emplace_back(layer + ".self_frac",
                   traced_wall_s > 0.0 ? self_s[layer] / traced_wall_s : 0.0);
  }
  m.emplace_back("trace.unattributed_frac",
                 traced_wall_s > 0.0 ? 1.0 - attributed_s / traced_wall_s : 0.0);
}

double overhead_frac(double untraced_pkts_per_s, double traced_pkts_per_s) {
  return untraced_pkts_per_s > 0.0
             ? 1.0 - traced_pkts_per_s / untraced_pkts_per_s
             : 0.0;
}

}  // namespace perfbench
