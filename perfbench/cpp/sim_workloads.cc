// sim_elephant and sim_mice: the simulator A/B path (simulate -> capture ->
// analyze -> BreakdownSink) through workload::ParallelRunner.
//
// gen replays every flow serially exactly as runner.cc does and writes the
// per-flow reference verdicts plus the breakdown digest. measure times
// ParallelRunner::run over the same flows and checks each flow's verdict
// and the breakdown against that reference (parallel == serial). The
// traced run replays the flows serially with a span around every call.
#include <algorithm>
#include <cstdio>
#include <string>

#include "telemetry/telemetry.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tapo::FlowResult;
using tapo::FlowStatus;
namespace workload = tapo::workload;
namespace analysis = tapo::analysis;

struct SimWorkload {
  workload::ExperimentConfig config;
  std::size_t threads = 1;
};

SimWorkload make_workload(const Options& opts) {
  SimWorkload w;
  std::size_t flows = 0;
  if (opts.workload == "sim_elephant") {
    w.config.with_profile(workload::cloud_storage_profile())
        .with_recovery(tapo::tcp::RecoveryMechanism::kSrto);
    flows = 160;
    w.threads = 1;
  } else {
    w.config.with_profile(workload::web_search_profile())
        .with_recovery(tapo::tcp::RecoveryMechanism::kNative);
    flows = 24000;
    w.threads = worker_threads();
  }
  flows = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(flows) * opts.scale));
  w.config.with_flows(flows).with_seed(opts.seed);
  return w;
}

std::string reference_path(const Options& opts) {
  return opts.data_dir + "/" + opts.workload + ".ref";
}

std::uint64_t breakdown_digest(const workload::BreakdownSink& s) {
  Hasher h;
  h.add(s.flows());
  h.add(s.total_packets());
  h.add(s.data_segments_sent());
  h.add(s.retransmissions());
  for (const auto& c : s.stalls().by_cause) {
    h.add(c.count);
    h.add(static_cast<std::uint64_t>(c.time.us()));
  }
  for (const auto& c : s.retrans().by_cause) {
    h.add(c.count);
    h.add(static_cast<std::uint64_t>(c.time.us()));
  }
  h.add(static_cast<std::uint64_t>(s.retrans().f_double_time.us()));
  h.add(static_cast<std::uint64_t>(s.retrans().t_double_time.us()));
  h.add(static_cast<std::uint64_t>(s.retrans().tail_open_time.us()));
  h.add(static_cast<std::uint64_t>(s.retrans().tail_recovery_time.us()));
  h.add(s.stall_ratio_cdf().count());
  if (!s.stall_ratio_cdf().empty()) h.add_double(s.stall_ratio_cdf().mean());
  return h.value();
}

/// One flow, through the same calls and guards as runner.cc's task.
FlowResult replay_flow(const workload::ExperimentConfig& cfg,
                       const std::vector<std::uint64_t>& seeds,
                       const analysis::Analyzer& analyzer, std::size_t i,
                       SpanRecorder* spans) {
  const std::uint64_t fid = i + 1;
  tapo::Rng flow_rng(seeds[i]);
  workload::FlowScenario scenario;
  {
    const Span s(spans, SpanId::kDrawScenario, fid);
    scenario = workload::draw_scenario(cfg.profile, flow_rng, i + 1);
    if (cfg.recovery) scenario.connection.sender.recovery = *cfg.recovery;
    if (cfg.srto) scenario.connection.sender.srto = *cfg.srto;
  }
  workload::FlowGuards guards;
  guards.chaos = cfg.chaos;
  guards.chaos.seed ^= seeds[i];
  guards.verify_delivery = cfg.verify_delivery;
  guards.event_budget = cfg.event_budget;
  guards.flow_id = i;
  tapo::FlowOutcome outcome;
  {
    const Span s(spans, SpanId::kRunFlow, fid);
    outcome = workload::run_flow(scenario, flow_rng.split(), cfg.max_flow_time,
                                 workload::TraceCapture::kServerNic, guards);
  }
  FlowResult result;
  result.index = i;
  result.packets = outcome.trace ? outcome.trace->size() : 0;
  if (outcome.trace && !outcome.trace->empty()) {
    const Span s(spans, SpanId::kAnalyze, fid);
    result.analyses = analyzer.analyze(*outcome.trace).flows;
  }
  outcome.trace.reset();
  result.outcome = std::move(outcome);
  return result;
}

/// Work counts of one pass over the flow set; identical for every pass.
struct PassTotals {
  std::uint64_t packets = 0;
  std::uint64_t segments = 0;
  std::uint64_t retrans = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t srto_probes = 0;
  std::uint64_t diverged = 0;
  StallCounts stalls;
  std::uint64_t breakdown = 0;
  std::vector<std::uint64_t> verdicts;

  void add(const FlowResult& r) {
    packets += r.packets;
    segments += r.outcome.sender_stats.segments_sent;
    retrans += r.outcome.sender_stats.retransmissions;
    rto_fires += r.outcome.sender_stats.rto_fires;
    srto_probes += r.outcome.sender_stats.srto_probes;
    if (r.outcome.status == FlowStatus::kSimDiverged) ++diverged;
    for (const auto& fa : r.analyses) stalls.add(fa);
  }
};

/// Serial replay of every flow: derive_flow_seeds -> (draw_scenario ->
/// run_flow -> Analyzer::analyze -> BreakdownSink::consume) per flow.
PassTotals serial_pass(const workload::ExperimentConfig& cfg, SpanRecorder* spans) {
  const Span rep(spans, SpanId::kRep);
  PassTotals t;
  std::vector<std::uint64_t> seeds;
  {
    const Span s(spans, SpanId::kDeriveSeeds);
    seeds = workload::derive_flow_seeds(cfg.seed, cfg.flows);
  }
  const analysis::Analyzer analyzer(cfg.analyzer);
  workload::BreakdownSink sink;
  t.verdicts.resize(cfg.flows);
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    FlowResult r = replay_flow(cfg, seeds, analyzer, i, spans);
    {
      const Span s(spans, SpanId::kDigest, i + 1);
      t.verdicts[i] = verdict_digest(r.analyses);
      t.add(r);
    }
    const Span s(spans, SpanId::kSink, i + 1);
    sink.consume(std::move(r));
  }
  t.breakdown = breakdown_digest(sink);
  return t;
}

/// Runner-side sink: records each flow's verdict, then hands the flow to
/// the BreakdownSink the workload is defined with.
class VerdictSink : public tapo::FlowSink {
 public:
  explicit VerdictSink(std::size_t flows) { totals_.verdicts.resize(flows); }

  void consume(FlowResult&& r) override {
    totals_.verdicts[r.index] = verdict_digest(r.analyses);
    totals_.add(r);
    breakdown_.consume(std::move(r));
  }
  void finish(const tapo::RunStats& stats) override { breakdown_.finish(stats); }

  PassTotals take() {
    totals_.breakdown = breakdown_digest(breakdown_);
    return std::move(totals_);
  }

 private:
  PassTotals totals_;
  workload::BreakdownSink breakdown_;
};

struct Reference {
  std::uint64_t packets = 0;
  std::uint64_t breakdown = 0;
  std::vector<std::uint64_t> verdicts;
};

Reference load_reference(const Options& opts, std::size_t flows) {
  const auto kv = read_kv_file(reference_path(opts));
  Reference ref;
  if (kv.count("flows") == 0 || kv.at("flows") != flows) {
    throw std::runtime_error("reference does not match the workload size");
  }
  ref.packets = kv.at("packets");
  ref.breakdown = kv.at("breakdown");
  ref.verdicts.resize(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    ref.verdicts[i] = kv.at("verdict." + std::to_string(i));
  }
  return ref;
}

/// Checks one pass against the reference; returns flows whose verdict
/// matched.
std::uint64_t verify_pass(const PassTotals& t, const Reference& ref,
                          const std::string& what, Checks& checks) {
  std::uint64_t matched = 0;
  std::size_t first_mismatch = ref.verdicts.size();
  for (std::size_t i = 0; i < ref.verdicts.size(); ++i) {
    if (t.verdicts[i] == ref.verdicts[i]) {
      ++matched;
    } else if (first_mismatch == ref.verdicts.size()) {
      first_mismatch = i;
    }
  }
  checks.check(matched == ref.verdicts.size(), "flow verdicts equal the serial reference",
               what + ", first at flow " + std::to_string(first_mismatch));
  checks.check(t.diverged == 0, "no flow trips the sim watchdog",
               what + ", " + std::to_string(t.diverged) + " flows");
  checks.check(t.packets == ref.packets, "packet count equals the reference", what);
  checks.check(t.breakdown == ref.breakdown,
               "breakdown digest equals the serial replay's", what);
  return matched;
}

struct RunnerRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  tapo::RunStats stats;
  PassTotals totals;
};

RunnerRep runner_rep(const SimWorkload& w) {
  VerdictSink sink(w.config.flows);
  workload::RunOptions ro;
  ro.threads = w.threads;
  workload::ParallelRunner runner(w.config, ro);
  RunnerRep r;
  const double c0 = process_cpu_now();
  const double t0 = wall_now();
  r.stats = runner.run(sink);
  r.wall_s = wall_now() - t0;
  r.cpu_s = process_cpu_now() - c0;
  r.totals = sink.take();
  return r;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Report sim_gen(const Options& opts) {
  const SimWorkload w = make_workload(opts);
  const PassTotals t = serial_pass(w.config, nullptr);
  std::vector<std::pair<std::string, std::uint64_t>> kv = {
      {"flows", w.config.flows},
      {"packets", t.packets},
      {"breakdown", t.breakdown},
  };
  for (std::size_t i = 0; i < t.verdicts.size(); ++i) {
    kv.emplace_back("verdict." + std::to_string(i), t.verdicts[i]);
  }
  write_kv_file(reference_path(opts), kv);
  Checks checks;
  checks.check(t.diverged == 0, "no flow trips the sim watchdog", "reference replay");
  return Report{checks, {{"flows", static_cast<double>(w.config.flows)},
                        {"packets", static_cast<double>(t.packets)}}};
}

Report sim_measure(const Options& opts) {
  const SimWorkload w = make_workload(opts);
  const Reference ref = load_reference(opts, w.config.flows);
  Checks checks;
  Metrics m;
  std::uint64_t verified = 0;
  std::uint64_t matched = 0;
  auto verify = [&](const PassTotals& t, const std::string& what) {
    matched += verify_pass(t, ref, what, checks);
    verified += ref.verdicts.size();
  };

  // Warm-up pass: fills caches and the allocator, and is verified too.
  const RunnerRep warm = runner_rep(w);
  verify(warm.totals, "warm-up runner pass");

  if (!opts.trace) {
    const auto passes = timed_passes(opts.seconds, 3, w.threads, [&] {
      const RunnerRep r = runner_rep(w);
      verify(r.totals, "runner pass");
      return PassSample{static_cast<double>(r.totals.packets), r.wall_s, r.cpu_s};
    });
    m = {{"pkts_per_s", calibrated_pkts_per_s(passes)},
         {"cpu_ns_per_pkt", calibrated_cpu_ns_per_pkt(passes)},
         {"peak_rss_mib", peak_rss_mib()},
         {"verdict_match_frac", per(static_cast<double>(matched),
                                    static_cast<double>(verified))}};
    return Report{checks, m, raw_pass_metrics(passes)};
  }

  const double start = wall_now();
  // Traced run: the runner's own utilization, then serial replays of the
  // same flows alternating untraced / traced, so the tracing overhead is
  // measured on one code path.
  const RunnerRep timed = runner_rep(w);
  verify(timed.totals, "runner pass");
  SpanRecorder spans;
  auto& events_counter =
      tapo::telemetry::Registry::instance().counter("tapo_sim_events_total");
  std::vector<PassSample> plain;
  std::vector<PassSample> traced;
  std::uint64_t events = 0;
  std::uint64_t traced_packets = 0;
  double traced_wall = 0.0;
  PassTotals last;
  PassCalibrator cal(1);  // the traced passes are serial
  while (traced.empty() || wall_now() - start < opts.seconds) {
    {
      const double t0 = wall_now();
      const PassTotals t = serial_pass(w.config, nullptr);
      plain.push_back(cal.stamp({static_cast<double>(t.packets), wall_now() - t0}));
      verify(t, "serial replay");
    }
    tapo::telemetry::set_metrics_enabled(true);
    set_alloc_hook(true);
    const std::uint64_t ev0 = events_counter.value();
    const double t0 = wall_now();
    last = serial_pass(w.config, &spans);
    const double dt = wall_now() - t0;
    set_alloc_hook(false);
    tapo::telemetry::set_metrics_enabled(false);
    traced.push_back(cal.stamp({static_cast<double>(last.packets), dt}));
    events += events_counter.value() - ev0;
    traced_wall += dt;
    traced_packets += last.packets;
    verify(last, "traced serial replay");
    checks.check(last.breakdown == timed.totals.breakdown,
                 "traced serial replay's breakdown equals the runner's");
  }

  const auto pkts = static_cast<double>(traced_packets);
  const auto ev = static_cast<double>(events);
  // Span times are rescaled like the timed passes (common.h).
  const double k = calibration_scale(traced);
  const SpanAgg& draw = spans.agg(SpanId::kDrawScenario);
  const SpanAgg& sink = spans.agg(SpanId::kSink);
  const SpanAgg& run = spans.agg(SpanId::kRunFlow);
  const SpanAgg& an = spans.agg(SpanId::kAnalyze);
  const auto flows_per_pass = static_cast<double>(w.config.flows);
  const auto packets_per_pass = static_cast<double>(last.packets);
  m = {
      {"workload.draw_scenario.ns_per_flow",
       k * per(static_cast<double>(draw.total_ns), static_cast<double>(draw.count))},
      {"workload.sink.ns_per_flow",
       k * per(static_cast<double>(sink.total_ns), static_cast<double>(sink.count))},
      {"workload.runner.utilization", timed.stats.worker_utilization},
      {"sim.run_flow.ns_per_pkt", k * per(static_cast<double>(run.total_ns), pkts)},
      {"sim.ns_per_event", k * per(static_cast<double>(run.total_ns), ev)},
      {"sim.allocs_per_event", per(static_cast<double>(run.self_allocs), ev)},
      {"sim.events_per_pkt", per(ev, pkts)},
      {"sim.watchdog_trips", static_cast<double>(last.diverged)},
      {"tcp.segments_per_flow", per(static_cast<double>(last.segments), flows_per_pass)},
      {"tcp.retrans_frac", per(static_cast<double>(last.retrans),
                               static_cast<double>(last.segments))},
      {"tcp.rto_fires_per_kpkt",
       per(1000.0 * static_cast<double>(last.rto_fires), packets_per_pass)},
      {"tcp.srto_probes_per_kpkt",
       per(1000.0 * static_cast<double>(last.srto_probes), packets_per_pass)},
      {"tapo.analyze.ns_per_pkt", k * per(static_cast<double>(an.total_ns), pkts)},
      {"tapo.analyze.allocs_per_pkt", per(static_cast<double>(an.self_allocs), pkts)},
      {"tapo.analyze.alloc_bytes_per_pkt",
       per(static_cast<double>(an.self_alloc_bytes), pkts)},
      {"tapo.analyze.us_per_flow.p50",
       k * percentile(spans.analyze_durations(), 0.50) / 1000.0},
      {"tapo.analyze.us_per_flow.p99",
       k * percentile(spans.analyze_durations(), 0.99) / 1000.0},
      {"tapo.analyze.samples", static_cast<double>(an.count)},
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
