// perfbench_bin: the compiled half of the repository benchmark (run.py is
// the entry point and explains the workloads).
//
//   perfbench_bin gen     --workload W --seed N --data DIR [--scale X]
//   perfbench_bin measure --workload W --seed N --data DIR --seconds S
//                         --trace 0|1 [--scale X] [--trace-out FILE]
//
// Each invocation prints one JSON report line on stdout and exits 0 only
// when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin gen|measure --workload W --seed N --data DIR "
               "[--seconds S] [--trace 0|1] [--scale X] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  Options opts;
  opts.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--scale") {
      opts.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--data") {
      opts.data_dir = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return usage();
    }
  }
  if (opts.data_dir.empty() || !(opts.scale > 0.0)) return usage();
  const bool sim = opts.workload == "sim_elephant" || opts.workload == "sim_mice";
  const bool pcap = opts.workload == "pcap_stream";
  if (!sim && !pcap) return usage();
  if (opts.mode != "gen" && opts.mode != "measure") return usage();
  try {
    Report report;
    if (opts.mode == "gen") {
      // The set-up time is rescaled like the timed passes (common.h); its
      // serial merge, sort and write dominate, hence one thread.
      PassCalibrator cal(1);
      const double t0 = wall_now();
      report = sim ? sim_gen(opts) : pcap_gen(opts);
      const PassSample s = cal.stamp({1.0, wall_now() - t0});
      report.metrics.emplace_back("setup_s",
                                  s.wall_s * kNominalCalibrationSeconds / s.cal.wall_s);
    } else {
      report = sim ? sim_measure(opts) : pcap_measure(opts);
    }
    print_report(report);
    return report.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
