#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <stdexcept>

namespace perfbench {

std::size_t worker_threads() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One calibration thread's working memory. It is allocated and first
/// touched once, so later kernel runs neither fault pages in nor grow the
/// heap, and the few hundred KiB it holds stay a constant part of the
/// process's resident set.
struct CalibrationBuffers {
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(1 << 14);
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(1 << 15);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks =
      std::vector<std::unique_ptr<std::uint64_t[]>>(256);
  CalibrationBuffers() { heap.reserve(4096); }
};

void calibration_kernel(CalibrationBuffers& s) {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t fired = 0;
  const std::function<void(std::uint64_t)> fire = [&fired](std::uint64_t e) { fired += e; };
  for (int round = 0; round < 3; ++round) {
    for (auto& k : s.keys) k = next();
    std::sort(s.keys.begin(), s.keys.end());
    // Open-addressing hash inserts: dependent, cache-missing probes.
    std::fill(s.table.begin(), s.table.end(), 0);
    const std::size_t mask = s.table.size() - 1;
    for (const std::uint64_t k : s.keys) {
      std::size_t h = static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> 40) & mask;
      while (s.table[h] != 0) h = (h + 1) & mask;
      s.table[h] = k | 1;
    }
    // Small-allocation churn.
    for (int i = 0; i < 4096; ++i) {
      s.blocks[next() & 255] = std::make_unique<std::uint64_t[]>(1 + (next() & 63));
    }
    // An event-queue-like phase: timestamped pushes and pops through a
    // heap, each event dispatched through a std::function.
    s.heap.clear();
    for (std::uint64_t i = 0; i < 8192; ++i) {
      s.heap.emplace_back(next() >> 20, i);
      std::push_heap(s.heap.begin(), s.heap.end());
      if (s.heap.size() > 2000) {
        std::pop_heap(s.heap.begin(), s.heap.end());
        fire(s.heap.back().second);
        s.heap.pop_back();
      }
    }
  }
  volatile std::uint64_t sink = fired + s.keys[s.keys.size() / 2];
  (void)sink;
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

KernelTime timed_kernel(CalibrationBuffers& buffers) {
  const double c0 = thread_cpu_now();
  const double t0 = wall_now();
  calibration_kernel(buffers);
  return {wall_now() - t0, thread_cpu_now() - c0};
}

/// Runs the kernel once on each of `threads` threads at once and returns
/// the mean per-thread time. One thread runs inline, on the CPU the
/// single-threaded pass just used; more are spawned, like the runner's pool.
KernelTime run_kernel(std::vector<CalibrationBuffers>& buffers, std::size_t threads) {
  if (threads == 1) return timed_kernel(buffers[0]);
  std::vector<KernelTime> times(threads);
  {
    // jthreads join on scope exit, also if a later emplace_back throws.
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&times, &buffers, i] { times[i] = timed_kernel(buffers[i]); });
    }
  }
  KernelTime mean;
  for (const KernelTime& t : times) {
    mean.wall_s += t.wall_s / static_cast<double>(threads);
    mean.cpu_s += t.cpu_s / static_cast<double>(threads);
  }
  return mean;
}

/// Interquartile mean: the mean of the middle half of the sorted values.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

}  // namespace

KernelTime calibration_time(std::size_t threads) {
  // Only the calling thread exists whenever this runs (the runner's pool
  // has joined), so the lazily built buffers need no lock.
  static std::vector<CalibrationBuffers> buffers(worker_threads());
  static std::vector<bool> warm(worker_threads());
  threads = std::clamp<std::size_t>(threads, 1, buffers.size());
  if (!warm[threads - 1]) {
    run_kernel(buffers, threads);  // untimed: first touch of the buffers
    warm[threads - 1] = true;
  }
  return run_kernel(buffers, threads);
}

PassSample PassCalibrator::stamp(PassSample s) {
  const KernelTime after = calibration_time(threads_);
  s.cal = {0.5 * (before_.wall_s + after.wall_s), 0.5 * (before_.cpu_s + after.cpu_s)};
  before_ = after;
  return s;
}

double calibrated_pkts_per_s(const std::vector<PassSample>& passes) {
  std::vector<double> v;
  for (const auto& p : passes) {
    v.push_back(p.packets / p.wall_s * p.cal.wall_s / kNominalCalibrationSeconds);
  }
  return interquartile_mean(v);
}

double calibrated_cpu_ns_per_pkt(const std::vector<PassSample>& passes) {
  std::vector<double> v;
  for (const auto& p : passes) {
    v.push_back(p.cpu_s * 1e9 / p.packets * kNominalCalibrationSeconds / p.cal.cpu_s);
  }
  return interquartile_mean(v);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void Hasher::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Hasher::add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t verdict_digest(const tapo::analysis::FlowAnalysis& fa) {
  Hasher h;
  h.add(fa.key.src_ip);
  h.add(fa.key.dst_ip);
  h.add(fa.key.src_port);
  h.add(fa.key.dst_port);
  h.add(fa.data_segments);
  h.add(fa.retrans_segments);
  h.add(fa.timeout_retrans);
  h.add(fa.fast_retrans);
  h.add(fa.stalls.size());
  for (const auto& s : fa.stalls) {
    h.add(static_cast<std::uint64_t>(s.cause));
    h.add(static_cast<std::uint64_t>(s.retrans_cause));
    h.add(static_cast<std::uint64_t>(s.duration.us()));
    h.add(s.in_flight);
  }
  return h.value();
}

std::uint64_t verdict_digest(const std::vector<tapo::analysis::FlowAnalysis>& v) {
  Hasher h;
  h.add(v.size());
  for (const auto& fa : v) h.add(verdict_digest(fa));
  return h.value();
}

void StallCounts::add(const tapo::analysis::FlowAnalysis& fa) {
  for (const auto& s : fa.stalls) {
    ++by_cause[static_cast<std::size_t>(s.cause)];
    ++total;
  }
}

void Checks::check(bool ok, const std::string& name, const std::string& detail) {
  auto [it, inserted] = results_.emplace(name, ok);
  if (ok) return;
  it->second = false;
  if (messages_.size() < 20) messages_.push_back(detail.empty() ? name : name + ": " + detail);
}

std::uint64_t Checks::failed() const {
  std::uint64_t n = 0;
  for (const auto& [name, ok] : results_) n += ok ? 0 : 1;
  return n;
}

double calibration_scale(const std::vector<PassSample>& passes) {
  if (passes.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& p : passes) sum += kNominalCalibrationSeconds / p.cal.wall_s;
  return sum / static_cast<double>(passes.size());
}

Metrics raw_pass_metrics(const std::vector<PassSample>& passes) {
  std::vector<double> rate, cpu, cal_wall, cal_cpu;
  for (const auto& p : passes) {
    rate.push_back(p.packets / p.wall_s);
    cpu.push_back(p.cpu_s * 1e9 / p.packets);
    cal_wall.push_back(p.cal.wall_s * 1e3);
    cal_cpu.push_back(p.cal.cpu_s * 1e3);
  }
  return {{"pkts_per_s", median(rate)},
          {"cpu_ns_per_pkt", median(cpu)},
          {"kernel_wall_ms", median(cal_wall)},
          {"kernel_cpu_ms", median(cal_cpu)}};
}

void add_stall_metrics(Metrics& m, const StallCounts& counts) {
  m.emplace_back("tapo.stalls_total", static_cast<double>(counts.total));
  for (const auto& [cause, name] : kStallCauseNames) {
    m.emplace_back(std::string("tapo.stalls.") + name,
                   static_cast<double>(counts.by_cause[static_cast<std::size_t>(cause)]));
  }
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}
}  // namespace

namespace {
void append_metrics(std::string& out, const Metrics& metrics) {
  out += '{';
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ",";
    out += '"';
    out += metrics[i].first;
    out += "\":";
    out += buf;
  }
  out += '}';
}
}  // namespace

void print_report(const Report& report) {
  const Checks& checks = report.checks;
  std::string out = "{\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : checks.results()) {
    if (!first) out += ",";
    first = false;
    out += '"' + json_escape(name) + "\":" + (ok ? "true" : "false");
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < checks.messages().size(); ++i) {
    if (i) out += ",";
    out += '"' + json_escape(checks.messages()[i]) + '"';
  }
  out += "],\"metrics\":";
  append_metrics(out, report.metrics);
  out += ",\"raw\":";
  append_metrics(out, report.raw);
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void write_kv_file(const std::string& path,
                   const std::vector<std::pair<std::string, std::uint64_t>>& kv) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [k, v] : kv) out << k << ' ' << v << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, std::uint64_t> read_kv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::uint64_t> kv;
  std::string k;
  std::uint64_t v = 0;
  while (in >> k >> v) kv[k] = v;
  return kv;
}

}  // namespace perfbench
