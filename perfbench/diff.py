#!/usr/bin/env python3
"""Collects benchmark results and compares two results files.

A results file holds one JSON object per line:
    {"workload": W, "seed": N, "trace": 0|1, "result": <run.py's last line>,
     "raw": <run.py's raw pass medians, untraced runs only>}

    # every workload for ten seeds, end-to-end metrics, into base.jsonl
    python3 perfbench/diff.py collect --seeds 1-10 --trace 0 --out base.jsonl
    # ... change the code, collect new.jsonl the same way, then
    python3 perfbench/diff.py compare base.jsonl new.jsonl

collect runs every workload of BENCHMARK.json for its run_seconds, so both
sides are measured alike. compare prints, per (metric, workload), each
side's median and quartiles and the change of the medians, marking a change
worse than the metric's bound in BENCHMARK.json as REGRESSION and a spread
wider than the bound as UNRESOLVED. The raw.* rows (uncalibrated pass rates
and the calibration kernel's times) have no bound; they show whether a
calibrated change is the program's or the kernel's. The behaviour counts
(tcp.*, tapo.stalls*, sim.events_per_pkt) must be equal seed for seed; any
difference is reported as BEHAVIOUR DRIFT. A new-side run whose checks
failed is reported as FAILED RUN. The exit code is 1 when a failed run,
drift or a regression was found.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (BENCHMARK.json, workloads)

EXACT_PREFIXES = ("tcp.", "tapo.stalls", "sim.events_per_pkt")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args):
    seconds = run.SPEC["run_seconds"]
    with open(args.out, "a") as out:
        for w in run.WORKLOADS:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(Path(run.__file__)), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   cwd=run.ROOT)
                lines = r.stdout.strip().splitlines()
                if not lines:
                    print(f"{w} seed {seed}: no result (exit {r.returncode})",
                          file=sys.stderr)
                    continue
                row = {"workload": w, "seed": seed, "trace": args.trace,
                       "result": json.loads(lines[-1])}
                if len(lines) > 1 and lines[-2].startswith('{"raw"'):
                    row["raw"] = json.loads(lines[-2])["raw"]
                out.write(json.dumps(row) + "\n")
                out.flush()
                res = row["result"]
                status = "ok" if res["correct"] else \
                    f"CHECKS FAILED ({res['failed']} of {res['attempted']})"
                print(f"{w} seed {seed}: {status}", file=sys.stderr)
    return 0


def load(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(args):
    base, new = load(args.base), load(args.new)
    meta = {m["name"]: (m["better"], m["bound"]) for m in run.SPEC["end_to_end"]}
    meta.update({m["name"]: (m["better"], None) for m in run.SPEC["per_layer"]})

    def by_key(rows):
        vals = defaultdict(list)
        per_seed = {}
        for row in rows:
            named = [(n, m["value"]) for n, m in row["result"]["metrics"].items()]
            named += [("raw." + n, v) for n, v in row.get("raw", {}).items()]
            for name, value in named:
                vals[(name, row["workload"])].append(value)
                per_seed[(name, row["workload"], row["seed"])] = value
        return vals, per_seed

    bvals, bseed = by_key(base)
    nvals, nseed = by_key(new)
    bad = False
    for row in new:
        res = row["result"]
        if not res["correct"] or res["failed"] > 0:
            bad = True
            print(f"FAILED RUN {row['workload']} seed {row['seed']}: "
                  f"{res['failed']} of {res['attempted']} checks failed")
    print(f"{'metric':38s} {'workload':13s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'change':>8s}")
    for key in sorted(set(bvals) & set(nvals)):
        name, workload = key
        bq, nq = quartiles(bvals[key]), quartiles(nvals[key])
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        better, bound = meta.get(name, ("lower", None))
        flag = ""
        if bound is not None:
            worse = change < -bound if better == "higher" else change > bound
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            if worse:
                flag, bad = "REGRESSION", True
            elif spread > bound:
                flag = "UNRESOLVED"
        print(f"{name:38s} {workload:13s} "
              f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
              f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g} {change:+8.2%} {flag}")
    for key in sorted(set(bseed) & set(nseed)):
        name, workload, seed = key
        if name.startswith(EXACT_PREFIXES) and bseed[key] != nseed[key]:
            bad = True
            print(f"BEHAVIOUR DRIFT {name} {workload} seed {seed}: "
                  f"{bseed[key]!r} -> {nseed[key]!r}")
    return 1 if bad else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    d = sub.add_parser("compare", help="compare two results files")
    d.add_argument("base")
    d.add_argument("new")
    args = p.parse_args(argv)
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
