// Shared plumbing for perfbench_bin: command-line options, clocks,
// verdict digests, check accounting and the one-line JSON report.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tapo/analyzer.h"

namespace perfbench {

struct Options {
  std::string mode;      // "gen" or "measure"
  std::string workload;  // sim_elephant | sim_mice | pcap_stream
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every workload's size (flows). 1.0 is the benchmark.
  double scale = 1.0;
  /// Directory holding the reference files (and the capture) that `gen`
  /// writes and `measure` reads.
  std::string data_dir;
  /// Chrome trace_event JSON written by a traced run (empty = none).
  std::string trace_out;
};

/// Threads a multi-threaded step uses: min(4, hardware threads).
std::size_t worker_threads();

/// Wall clock in seconds (monotonic).
double wall_now();
/// CPU time of the whole process (all threads), in seconds.
double process_cpu_now();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Host-speed calibration. On a shared VM host, wall and CPU time of the
/// same work swing by +-30% over seconds as neighbours load the machine.
/// Each timed pass is therefore bracketed by a fixed kernel (sort, hash
/// probes, small allocations, an event heap) that uses none of the library,
/// run on as many threads as the pass uses: inline for a single-threaded
/// pass, so it samples the same CPU, and on fresh threads for the parallel
/// runner. A pass's wall times are rescaled by kNominalCalibrationSeconds /
/// (mean kernel wall time around the pass), its CPU times by the same
/// nominal over the kernel's thread CPU time, so the reported figures read
/// as on a host where the kernel takes that long.
inline constexpr double kNominalCalibrationSeconds = 0.0055;

/// Mean time of one kernel run: wall, and CPU time of the running thread.
struct KernelTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
/// Mean kernel time over `threads` concurrent runs (clamped to
/// [1, worker_threads()]).
KernelTime calibration_time(std::size_t threads);

/// One timed pass: packets carried, wall and process CPU seconds, and the
/// mean kernel time around it.
struct PassSample {
  double packets = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  KernelTime cal{};
};

/// Calibration between consecutive passes: construction runs the kernel
/// once, and each stamp() runs it again and sets the pass's cal to the
/// mean of the runs just before and just after it.
class PassCalibrator {
 public:
  explicit PassCalibrator(std::size_t threads)
      : threads_(threads), before_(calibration_time(threads)) {}
  PassSample stamp(PassSample s);

 private:
  std::size_t threads_;
  KernelTime before_;
};

/// Runs `pass` (returning a PassSample without cal) until `seconds` have
/// elapsed and at least `min_passes` ran, calibrating on `threads` threads
/// between passes.
template <class Pass>
std::vector<PassSample> timed_passes(double seconds, std::size_t min_passes,
                                     std::size_t threads, Pass&& pass);

/// Calibrated pkts/s and CPU ns/pkt: the interquartile mean over passes
/// of each pass's rescaled value.
double calibrated_pkts_per_s(const std::vector<PassSample>& passes);
double calibrated_cpu_ns_per_pkt(const std::vector<PassSample>& passes);
/// Mean of kNominalCalibrationSeconds / cal.wall_s over passes: the factor
/// that rescales a wall time measured inside them (the traced run's span
/// times).
double calibration_scale(const std::vector<PassSample>& passes);

/// Median of `v` (mean of the middle pair when even); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// 64-bit FNV-1a style mixer used for every digest.
class Hasher {
 public:
  void add(std::uint64_t v);
  void add_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The verdict of one analyzed flow: its key, segment counts and the stall
/// list with cause, retransmission cause, duration and in-flight.
std::uint64_t verdict_digest(const tapo::analysis::FlowAnalysis& fa);
/// Verdict of every analysis a producer delivered for one flow.
std::uint64_t verdict_digest(const std::vector<tapo::analysis::FlowAnalysis>& v);

/// Stable metric names for analysis::StallCause, in enum order.
inline constexpr std::array<std::pair<tapo::analysis::StallCause, const char*>,
                            tapo::analysis::kNumStallCauses>
    kStallCauseNames = {{
        {tapo::analysis::StallCause::kDataUnavailable, "data_unavailable"},
        {tapo::analysis::StallCause::kResourceConstraint, "resource_constraint"},
        {tapo::analysis::StallCause::kClientIdle, "client_idle"},
        {tapo::analysis::StallCause::kZeroWindow, "zero_window"},
        {tapo::analysis::StallCause::kPacketDelay, "packet_delay"},
        {tapo::analysis::StallCause::kRetransmission, "retransmission"},
        {tapo::analysis::StallCause::kUndetermined, "undetermined"},
    }};

/// Stall counts per cause plus the total, accumulated from analyses.
struct StallCounts {
  std::array<std::uint64_t, tapo::analysis::kNumStallCauses> by_cause{};
  std::uint64_t total = 0;
  void add(const tapo::analysis::FlowAnalysis& fa);
};

/// Pass/fail accounting by check name: each distinct check is one attempt,
/// however often it runs, and fails if any run of it failed. The first few
/// failures keep a message.
class Checks {
 public:
  void check(bool ok, const std::string& name, const std::string& detail = "");
  std::uint64_t attempted() const { return results_.size(); }
  std::uint64_t failed() const;
  const std::map<std::string, bool>& results() const { return results_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::map<std::string, bool> results_;
  std::vector<std::string> messages_;
};

/// Named metric values in insertion order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// The uncalibrated medians over passes: pkts/s, CPU ns/pkt and the
/// kernel's wall and CPU ms, so a results file can audit the calibration.
Metrics raw_pass_metrics(const std::vector<PassSample>& passes);

/// Adds the seven tapo.stalls.<cause> counts and tapo.stalls_total.
void add_stall_metrics(Metrics& m, const StallCounts& counts);

/// What one gen or measure step found.
struct Report {
  Checks checks;
  Metrics metrics;
  Metrics raw{};  // raw_pass_metrics() of the timed passes, when there are any
};

/// Prints {"checks":{name:ok},"failures":[..],"metrics":{..},"raw":{..}}
/// as one line on stdout.
void print_report(const Report& report);

/// Reference file: "key value" text lines, one entry per line.
void write_kv_file(const std::string& path,
                   const std::vector<std::pair<std::string, std::uint64_t>>& kv);
std::map<std::string, std::uint64_t> read_kv_file(const std::string& path);

template <class Pass>
std::vector<PassSample> timed_passes(double seconds, std::size_t min_passes,
                                     std::size_t threads, Pass&& pass) {
  std::vector<PassSample> out;
  const double start = wall_now();
  PassCalibrator cal(threads);
  while (out.size() < min_passes || wall_now() - start < seconds) {
    out.push_back(cal.stamp(pass()));
  }
  return out;
}

}  // namespace perfbench
