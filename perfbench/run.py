#!/usr/bin/env python3
"""Repository benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload sim_elephant|sim_mice|pcap_stream \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench_bin (and the library
sources under src/) into .bench_build/perfbench, sets the workload up three
times in separate processes (setup_s is the median), then runs the timed
region in one more process and checks its outputs. Times are rescaled by a
host-speed calibration kernel (see cpp/common.h). The last stdout line is

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

with the end-to-end metrics for --trace 0 and the per-layer metrics (from
the traced run) for --trace 1, as BENCHMARK.json lists them. attempted and
failed count distinct checks. An untraced run prints, on the line before,
{"raw": {...}}: the uncalibrated pass medians and the calibration kernel's
times. The exit code is 0 only when every check passed. perfbench/README.md
explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"

# BENCHMARK.json is the one place the workloads and metrics are defined.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_RUNS = 3
# The whole invocation must finish within 180 s; leave margin for exit.
DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (tests use a tiny one)")
    p.add_argument("--truncate-capture", type=int, default=0, metavar="BYTES",
                   help="cut BYTES off the end of the pcap_stream capture "
                        "after set-up (tests the output checks)")
    return p.parse_args(argv)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}; "
            "run from a full checkout")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_bin", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log("build failed")
            return None
    return BUILD_DIR / "perfbench_bin"


def run_bin(cmd, timeout):
    """Runs one perfbench_bin step; returns (rc, report dict or None)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd[1:4])}")
        return 124, None
    if r.stderr:
        sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return r.returncode, report


def digest_dir(path):
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        return 2
    deadline = time.monotonic() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", repr(args.scale)]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Distinct checks by name: each is one attempt, failed if any run of it
    # failed, so a single failing check moves pass_frac by 1/attempted.
    checks = {}
    failures = []

    def check(ok, name, detail=""):
        checks[name] = checks.get(name, True) and ok
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    def merge(rep):
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
        failures.extend(rep["failures"])

    try:
        # Set-up, several times, each in its own process so input generation
        # never touches the measured process's memory.
        setup_times = []
        digests = []
        for i in range(SETUP_RUNS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            rc, rep = run_bin([str(binary), "gen", *common, "--data", str(work)],
                              deadline - time.monotonic())
            check(rc == 0 and rep is not None, "set-up succeeds",
                  f"set-up {i} exit {rc}")
            if rep is None:
                break
            setup_times.append(rep["metrics"]["setup_s"])
            merge(rep)
            digests.append(digest_dir(work))
        check(len(set(digests)) == 1, "set-ups are byte-identical")

        if args.truncate_capture and args.workload == "pcap_stream":
            cap = work / "pcap_stream.pcap"
            size = cap.stat().st_size
            with open(cap, "r+b") as fh:
                fh.truncate(max(0, size - args.truncate_capture))

        cmd = [str(binary), "measure", *common, "--data", str(work),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
            cmd += ["--trace-out", str(trace_file)]
        rc, rep = run_bin(cmd, deadline - time.monotonic())
        check(rc in (0, 1) and rep is not None, "measure produces a report",
              f"exit {rc}")
        values, raw = {}, {}
        if rep is not None:
            merge(rep)
            values, raw = rep["metrics"], rep["raw"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures[:10]:
        log(f"check failed: {f}")

    attempted = len(checks)
    failed = sum(1 for ok in checks.values() if not ok)
    metrics = {}
    if args.trace:
        for m in SPEC["per_layer"]:
            metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
    else:
        values["pass_frac"] = 1.0 - failed / attempted
        values["setup_s"] = statistics.median(setup_times) if setup_times else 0.0
        for m in SPEC["end_to_end"]:
            metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
        if raw:
            log("raw pass medians: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            print(json.dumps({"raw": raw}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
