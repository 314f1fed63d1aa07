// Benchmark-side tracing: spans around the calls the benchmark makes into
// each layer, plus an allocation hook attributed to the innermost open
// span. Both are active only in the traced run; the untraced run pays one
// predictable branch per allocation and nothing per span.
//
// A span records name, start, end, parent and the flow id shared by one
// flow's spans. Aggregates (count, inclusive and self time, self
// allocations) are kept per span name for every span; raw spans are kept
// in memory up to a cap and written once, at exit, as Chrome trace_event
// JSON (open it in chrome://tracing or ui.perfetto.dev).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum class SpanId : std::uint8_t {
  kRep,             // bench.rep: one pass over the workload's input
  kDeriveSeeds,     // workload.derive_flow_seeds
  kDrawScenario,    // workload.draw_scenario
  kRunFlow,         // sim.run_flow (simulator + TCP stack)
  kAnalyze,         // tapo.analyze (Analyzer::analyze of one flow)
  kSink,            // workload.sink (BreakdownSink::consume)
  kDigest,          // bench.digest (verdict digest of one flow)
  kNextChunk,       // pcap.next_chunk
  kLiveAddChunk,    // tapo.live.add_chunk
  kLiveFlush,       // tapo.live.flush
  kEncode,          // fleet.encode (RecordSink::consume)
  kDecode,          // fleet.decode (read_records)
  kIngest,          // fleet.ingest (WindowAggregator::ingest)
  kCount,
};
inline constexpr std::size_t kNumSpanIds = static_cast<std::size_t>(SpanId::kCount);

const char* span_name(SpanId id);
/// The layer a span belongs to: its name up to the first '.'.
std::string span_layer(SpanId id);

/// Turns the allocation hook on or off for every thread.
void set_alloc_hook(bool on);

struct SpanAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // inclusive
  std::int64_t self_ns = 0;   // minus the part covered by child spans
  std::uint64_t self_allocs = 0;
  std::uint64_t self_alloc_bytes = 0;
};

class SpanRecorder {
 public:
  /// Raw spans kept for the trace file; aggregates cover every span.
  static constexpr std::size_t kKeptSpans = 60000;

  SpanRecorder();

  void open(SpanId id, std::uint64_t flow);
  void close();

  const SpanAgg& agg(SpanId id) const { return aggs_[static_cast<std::size_t>(id)]; }
  /// Inclusive duration (ns) of every closed tapo.analyze span, for the
  /// per-flow percentiles.
  const std::vector<double>& analyze_durations() const { return analyze_ns_; }

  /// Writes the kept spans as Chrome trace_event JSON. Returns false on an
  /// I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    SpanId id;
    std::int64_t start_ns;
    std::int64_t child_ns = 0;
    std::uint64_t allocs_at_open = 0;
    std::uint64_t bytes_at_open = 0;
    std::uint64_t child_allocs = 0;
    std::uint64_t child_bytes = 0;
    std::int64_t record = -1;  // index into kept_, or -1 past the cap
    std::int64_t parent = -1;
    std::uint64_t flow = 0;
  };
  struct Record {
    SpanId id;
    std::int64_t parent;
    std::uint64_t flow;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::vector<Open> stack_;
  std::vector<Record> kept_;
  std::array<SpanAgg, kNumSpanIds> aggs_{};
  std::vector<double> analyze_ns_;
};

/// RAII span; a null recorder (the untraced run) makes it free.
class Span {
 public:
  Span(SpanRecorder* rec, SpanId id, std::uint64_t flow = 0) : rec_(rec) {
    if (rec_) rec_->open(id, flow);
  }
  ~Span() {
    if (rec_) rec_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Per-layer self time as a share of `traced_wall_s` (<layer>.self_frac)
/// and the remainder no layer span covers (trace.unattributed_frac).
void add_self_time_metrics(Metrics& m, const SpanRecorder& spans,
                           double traced_wall_s);

/// 1 - traced/untraced throughput of the same code path.
double overhead_frac(double untraced_pkts_per_s, double traced_pkts_per_s);

}  // namespace perfbench
