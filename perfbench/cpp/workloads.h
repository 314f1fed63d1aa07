// The benchmark's workloads. Each has a `gen` step (the set-up: inputs and
// per-flow reference verdicts, written under Options::data_dir) and a
// `measure` step (the timed region, its output checks, and with
// Options::trace the per-layer traced run). Both return their checks and
// metrics; main() prints them as the one JSON report line.
#pragma once

#include "common.h"
#include "spans.h"

namespace perfbench {

Report sim_gen(const Options& opts);
Report sim_measure(const Options& opts);
Report pcap_gen(const Options& opts);
Report pcap_measure(const Options& opts);

}  // namespace perfbench
