// pcap_stream: the operator path over a server capture.
//
// gen (set-up, its own process): simulates flows from the three service
// profiles round-robin, starts them on a seeded Poisson arrival schedule,
// writes one headers-only classic pcap, and records each flow's reference
// verdict from Analyzer::analyze of that flow's own trace.
//
// measure (timed): pcap::StreamingReader -> LiveAnalyzer (default linger
// and idle timeout) under a fixed-byte util::MemoryBudget ->
// fleet::RecordSink into memory -> fleet::read_records ->
// WindowAggregator::ingest. No simulation runs here.
#include <algorithm>
#include <cstdio>
#include <streambuf>
#include <string>
#include <unordered_map>

#include "fleet/record.h"
#include "fleet/record_sink.h"
#include "fleet/window.h"
#include "pcap/pcap.h"
#include "tapo/live.h"
#include "util/worker_pool.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace workload = tapo::workload;
namespace analysis = tapo::analysis;
using tapo::Duration;

constexpr std::size_t kFlows = 3000;
/// Mean gap between flow starts (Poisson arrivals).
constexpr double kMeanArrivalGapUs = 4000.0;
/// The fixed ledger limit. Unbudgeted, the open flows of such a capture
/// peak above 80 MiB in the ledger (seed 1); this cap, which evicts from
/// half of it, sits well below that, so LRU budget eviction is part of the
/// workload.
constexpr std::size_t kBudgetBytes = 48u << 20;
/// IPv4 (20) + the largest TCP header (60): headers only, options intact.
constexpr std::uint32_t kSnaplen = 80;

std::string capture_path(const Options& opts) {
  return opts.data_dir + "/pcap_stream.pcap";
}
std::string reference_path(const Options& opts) {
  return opts.data_dir + "/pcap_stream.ref";
}

std::size_t flow_count(const Options& opts) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(static_cast<double>(kFlows) * opts.scale));
}

std::uint64_t key_id(const tapo::net::FlowKey& k) {
  const tapo::net::FlowKey c = k.canonical();
  Hasher h;
  h.add(c.src_ip);
  h.add(c.dst_ip);
  h.add(c.src_port);
  h.add(c.dst_port);
  return h.value();
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// std::ostream target that appends into a byte vector (the in-memory
/// record file).
class VectorBuf : public std::streambuf {
 public:
  explicit VectorBuf(std::vector<std::uint8_t>& out) : out_(out) {}

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) out_.push_back(static_cast<std::uint8_t>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.insert(out_.end(), s, s + n);
    return n;
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Live-side sink: digests each finalized segment's verdict, then hands
/// the flow to the fleet RecordSink.
class TeeSink : public tapo::FlowSink {
 public:
  TeeSink(tapo::fleet::RecordSink& records, SpanRecorder* spans)
      : records_(records), spans_(spans) {}

  void consume(tapo::FlowResult&& r) override {
    const std::uint64_t fid = r.index + 1;
    {
      const Span s(spans_, SpanId::kDigest, fid);
      for (const auto& fa : r.analyses) {
        segments_.emplace_back(key_id(fa.key), verdict_digest(fa));
        stalls_.add(fa);
      }
    }
    const Span s(spans_, SpanId::kEncode, fid);
    records_.consume(std::move(r));
  }
  void finish(const tapo::RunStats& stats) override { records_.finish(stats); }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> segments_;
  StallCounts stalls_;

 private:
  tapo::fleet::RecordSink& records_;
  SpanRecorder* spans_;
};

struct PcapPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  tapo::pcap::ReadStats read;
  tapo::analysis::LiveStats live;
  std::size_t high_water = 0;
  std::size_t resident_after_flush = 0;
  std::size_t record_bytes = 0;
  std::size_t records_emitted = 0;
  std::size_t records_decoded = 0;
  std::size_t records_ingested = 0;
  bool decode_ok = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;
  StallCounts stalls;
};

PcapPass pcap_pass(const std::string& path, SpanRecorder* spans) {
  PcapPass p;
  const double c0 = process_cpu_now();
  const double t0 = wall_now();
  {
    const Span rep(spans, SpanId::kRep);
    tapo::util::MemoryBudget budget(kBudgetBytes);
    std::vector<std::uint8_t> bytes;
    VectorBuf buf(bytes);
    std::ostream os(&buf);
    tapo::fleet::RecordWriter writer(os);
    tapo::fleet::RecordSink records(writer, tapo::fleet::RecordSinkConfig{});
    TeeSink tee(records, spans);
    {
      tapo::pcap::StreamingOptions so;
      so.budget = &budget;
      tapo::pcap::StreamingReader reader(path, so);
      analysis::LiveAnalyzer live(analysis::LiveConfig{}.with_mem_budget(&budget),
                                  tee);
      while (true) {
        std::optional<tapo::net::TraceChunk> chunk;
        {
          const Span s(spans, SpanId::kNextChunk);
          chunk = reader.next_chunk();
        }
        if (!chunk) break;
        const Span s(spans, SpanId::kLiveAddChunk);
        live.add_chunk(*chunk);
        chunk.reset();  // drop it right away: holding it doubles residency
      }
      {
        const Span s(spans, SpanId::kLiveFlush);
        live.flush();
      }
      p.read = reader.stats();
      p.live = live.stats();
    }
    p.high_water = budget.high_water();
    p.resident_after_flush = budget.resident();
    p.records_emitted = records.records();
    p.record_bytes = bytes.size();
    tapo::fleet::ReadResult decoded;
    {
      const Span s(spans, SpanId::kDecode);
      decoded = tapo::fleet::read_records(bytes);
    }
    tapo::fleet::WindowAggregator agg;
    {
      const Span s(spans, SpanId::kIngest);
      agg.ingest(decoded.records);
    }
    p.decode_ok = decoded.ok();
    p.records_decoded = decoded.records.size();
    p.records_ingested = agg.snapshot().records;
    p.segments = std::move(tee.segments_);
    p.stalls = tee.stalls_;
  }
  p.wall_s = wall_now() - t0;
  p.cpu_s = process_cpu_now() - c0;
  return p;
}

struct Reference {
  std::uint64_t packets = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> verdict_by_key;
};

/// Per-pass output checks; returns the flows whose verdict matched.
std::uint64_t verify_pass(const PcapPass& p, const Reference& ref,
                          const std::string& what, Checks& checks) {
  checks.check(p.read.tcp_packets == ref.packets, "packets fed equal packets written",
               what + ", " + std::to_string(p.read.tcp_packets) + " fed, " +
                   std::to_string(ref.packets) + " written");
  checks.check(p.read.skipped == 0, "reader skips no record",
               what + ", " + std::to_string(p.read.skipped) + " skipped");
  checks.check(p.high_water <= kBudgetBytes, "ledger high-water within the limit", what);
  checks.check(p.resident_after_flush == 0, "ledger empty after flush()", what);
  checks.check(p.decode_ok, "fleet records decode without error", what);
  checks.check(p.records_decoded == p.live.flows_finalized &&
                   p.records_emitted == p.live.flows_finalized,
               "record count equals finalized segments", what);
  checks.check(p.records_ingested == p.records_decoded,
               "window aggregator ingests every record", what);

  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> seen;
  std::uint64_t unknown = 0;
  for (const auto& [key, digest] : p.segments) {
    if (ref.verdict_by_key.count(key) == 0) {
      ++unknown;
      continue;
    }
    auto& s = seen[key];
    ++s.first;
    s.second = digest;
  }
  checks.check(unknown == 0, "every segment belongs to a flow of the capture", what);
  std::uint64_t matched = 0;
  std::uint64_t missing = 0;
  for (const auto& [key, digest] : ref.verdict_by_key) {
    const auto it = seen.find(key);
    if (it == seen.end()) {
      ++missing;
    } else if (it->second.first == 1 && it->second.second == digest) {
      ++matched;
    }
  }
  checks.check(missing == 0, "every flow produces an analysis",
               what + ", " + std::to_string(missing) + " flows missing");
  return matched;
}

}  // namespace

Report pcap_gen(const Options& opts) {
  const std::size_t flows = flow_count(opts);
  const std::vector<std::uint64_t> seeds =
      workload::derive_flow_seeds(opts.seed, flows);
  const std::array<workload::ServiceProfile, 3> profiles = {
      workload::cloud_storage_profile(), workload::software_download_profile(),
      workload::web_search_profile()};

  std::vector<std::int64_t> start_us(flows);
  tapo::Rng arrivals(opts.seed ^ 0x9e3779b97f4a7c15ull);
  double t = 0.0;
  for (std::size_t i = 0; i < flows; ++i) {
    start_us[i] = static_cast<std::int64_t>(t);
    t += arrivals.exponential(kMeanArrivalGapUs);
  }

  struct FlowOut {
    tapo::net::PacketTrace trace;
    std::uint64_t key = 0;
    std::uint64_t verdict = 0;
    bool diverged = false;
  };
  std::vector<FlowOut> out(flows);
  const analysis::Analyzer analyzer;
  {
    tapo::util::WorkerPool pool(worker_threads());
    pool.for_each(flows, [&](std::size_t i, std::size_t) {
      tapo::Rng rng(seeds[i]);
      const auto scenario = workload::draw_scenario(profiles[i % 3], rng, i + 1);
      auto outcome = workload::run_flow(scenario, rng.split(), Duration::seconds(600.0),
                                        workload::TraceCapture::kServerNic);
      FlowOut& f = out[i];
      f.diverged = outcome.status == tapo::FlowStatus::kSimDiverged;
      const Duration shift = Duration::micros(start_us[i]);
      f.trace.reserve(outcome.trace->size());
      for (const auto& pkt : outcome.trace->packets()) {
        tapo::net::CapturedPacket& q = f.trace.append();
        q = pkt;
        q.timestamp = pkt.timestamp + shift;
      }
      if (!f.trace.empty()) {
        const auto result = analyzer.analyze(f.trace);
        f.key = key_id(f.trace[0].key);
        f.verdict = result.flows.size() == 1 ? verdict_digest(result.flows[0])
                                             : verdict_digest(result.flows);
      }
    });
  }

  Checks checks;
  std::size_t total = 0;
  for (const FlowOut& f : out) total += f.trace.size();
  tapo::net::PacketTrace merged;
  merged.reserve(total);
  std::vector<std::pair<std::string, std::uint64_t>> kv;
  std::uint64_t diverged = 0;
  for (std::size_t i = 0; i < flows; ++i) {
    FlowOut& f = out[i];
    diverged += f.diverged ? 1 : 0;
    if (f.trace.empty()) continue;
    for (const auto& pkt : f.trace.packets()) merged.add(pkt);
    kv.emplace_back("key." + std::to_string(i), f.key);
    kv.emplace_back("verdict." + std::to_string(i), f.verdict);
    f.trace = tapo::net::PacketTrace();
  }
  merged.sort_by_time();
  tapo::pcap::WriteOptions wo;
  wo.snaplen = kSnaplen;
  tapo::pcap::write_file(capture_path(opts), merged, wo);
  kv.insert(kv.begin(), {{"flows", flows}, {"packets", merged.size()}});
  write_kv_file(reference_path(opts), kv);

  checks.check(diverged == 0, "no flow trips the sim watchdog", "reference simulation");
  return Report{checks, {{"flows", static_cast<double>(flows)},
                        {"packets", static_cast<double>(merged.size())}}};
}

Report pcap_measure(const Options& opts) {
  Reference ref;
  {
    const auto kv = read_kv_file(reference_path(opts));
    ref.packets = kv.at("packets");
    for (std::size_t i = 0; i < kv.at("flows"); ++i) {
      const auto k = kv.find("key." + std::to_string(i));
      if (k == kv.end()) continue;
      ref.verdict_by_key[k->second] = kv.at("verdict." + std::to_string(i));
    }
  }
  const std::string path = capture_path(opts);
  Checks checks;
  std::uint64_t verified = 0;
  std::uint64_t matched = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> first_segments;
  auto verify = [&](const PcapPass& p, const std::string& what) {
    matched += verify_pass(p, ref, what, checks);
    verified += ref.verdict_by_key.size();
    if (first_segments.empty()) {
      first_segments = p.segments;
    } else {
      checks.check(p.segments == first_segments, "every pass gives the same output", what);
    }
  };

  const PcapPass warm = pcap_pass(path, nullptr);
  verify(warm, "warm-up pass");
  const auto packets = static_cast<double>(warm.read.tcp_packets);

  if (!opts.trace) {
    const auto passes = timed_passes(opts.seconds, 3, 1, [&] {
      const PcapPass p = pcap_pass(path, nullptr);
      verify(p, "pass");
      return PassSample{static_cast<double>(p.read.tcp_packets), p.wall_s, p.cpu_s};
    });
    return Report{checks,
                  {{"pkts_per_s", calibrated_pkts_per_s(passes)},
                   {"cpu_ns_per_pkt", calibrated_cpu_ns_per_pkt(passes)},
                   {"peak_rss_mib", peak_rss_mib()},
                   {"verdict_match_frac",
                    per(static_cast<double>(matched), static_cast<double>(verified))}},
                  raw_pass_metrics(passes)};
  }

  const double start = wall_now();
  SpanRecorder spans;
  std::vector<PassSample> plain;
  std::vector<PassSample> traced;
  double traced_wall = 0.0;
  std::uint64_t passes = 0;
  PcapPass last;
  PassCalibrator cal(1);
  while (traced.empty() || wall_now() - start < opts.seconds) {
    const PcapPass p = pcap_pass(path, nullptr);
    plain.push_back(cal.stamp({packets, p.wall_s}));
    verify(p, "untraced pass");
    set_alloc_hook(true);
    last = pcap_pass(path, &spans);
    set_alloc_hook(false);
    traced.push_back(cal.stamp({packets, last.wall_s}));
    verify(last, "traced pass");
    traced_wall += last.wall_s;
    ++passes;
  }
  const auto n = static_cast<double>(passes);
  // Span times are rescaled like the timed passes (common.h).
  const double k = calibration_scale(traced);
  const double pkts = packets * n;
  const SpanAgg& next = spans.agg(SpanId::kNextChunk);
  const SpanAgg& add = spans.agg(SpanId::kLiveAddChunk);
  const SpanAgg& flush = spans.agg(SpanId::kLiveFlush);
  const SpanAgg& enc = spans.agg(SpanId::kEncode);
  const SpanAgg& dec = spans.agg(SpanId::kDecode);
  const SpanAgg& ing = spans.agg(SpanId::kIngest);
  const auto records = static_cast<double>(last.records_decoded) * n;
  const auto live_ns = static_cast<double>(add.self_ns + flush.self_ns);
  const auto live_allocs = static_cast<double>(add.self_allocs + flush.self_allocs);
  Metrics m = {
      {"pcap.next_chunk.ns_per_pkt", k * per(static_cast<double>(next.total_ns), pkts)},
      {"pcap.next_chunk.allocs_per_chunk",
       per(static_cast<double>(next.self_allocs), static_cast<double>(next.count))},
      {"pcap.skipped_frac", per(static_cast<double>(last.read.skipped),
                                static_cast<double>(last.read.records))},
      {"tapo.live.ns_per_pkt", k * per(live_ns, pkts)},
      {"tapo.live.allocs_per_pkt", per(live_allocs, pkts)},
      {"tapo.live.flush_ms", k * per(static_cast<double>(flush.self_ns) / 1e6, n)},
      {"tapo.live.budget_high_water_mib",
       static_cast<double>(last.high_water) / (1024.0 * 1024.0)},
      {"tapo.live.budget_evictions", static_cast<double>(last.live.budget_evictions)},
      {"tapo.live.segments_per_flow",
       per(static_cast<double>(last.live.flows_finalized),
           static_cast<double>(ref.verdict_by_key.size()))},
      {"fleet.encode.ns_per_record", k * per(static_cast<double>(enc.total_ns), records)},
      {"fleet.bytes_per_record", per(static_cast<double>(last.record_bytes),
                                     static_cast<double>(last.records_decoded))},
      {"fleet.decode.ns_per_record", k * per(static_cast<double>(dec.total_ns), records)},
      {"fleet.ingest.ns_per_record", k * per(static_cast<double>(ing.total_ns), records)},
      {"fleet.record_errors", last.decode_ok ? 0.0 : 1.0},
      {"telemetry.overhead_frac", overhead_frac(calibrated_pkts_per_s(plain), calibrated_pkts_per_s(traced))},
  };
  add_stall_metrics(m, last.stalls);
  add_self_time_metrics(m, spans, traced_wall);
  if (!opts.trace_out.empty()) {
    checks.check(spans.write_chrome_trace(opts.trace_out), "trace file written", opts.trace_out);
  }
  return Report{checks, m};
}

}  // namespace perfbench
