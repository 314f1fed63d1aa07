#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- a tiny-size run of every workload, untraced and traced, passes all of
  its output checks and reports every metric;
- a deliberately truncated capture makes the pcap_stream checks fail
  (pass_frac < 1, i.e. fail_frac > 0, and a non-zero exit);
- diff.py flags a change in an exact behaviour count as drift, and a run
  whose checks failed as a failed run.

The first test run builds the benchmark (a minute or so).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Small enough for seconds per run, large enough that every layer works.
TINY_SCALE = {"sim_elephant": 0.05, "sim_mice": 0.01, "pcap_stream": 0.02}


def bench(workload, trace=0, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--scale", str(TINY_SCALE[workload]), *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=run.ROOT, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stderr


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        rc, result, err = bench(workload, trace)
        self.assertIsNotNone(result, err)
        self.assertEqual(rc, 0, err)
        self.assertTrue(result["correct"], err)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in run.SPEC["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check_run(workload, 0)
                self.assertGreater(m["pkts_per_s"]["value"], 0)
                self.assertGreater(m["setup_s"]["value"], 0)
                self.assertEqual(m["pass_frac"]["value"], 1.0)
                if workload.startswith("sim_"):
                    self.assertEqual(m["verdict_match_frac"]["value"], 1.0)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check_run(workload, 1)
                layer = "sim.self_frac" if workload.startswith("sim_") else "pcap.self_frac"
                self.assertGreater(m[layer]["value"], 0)
                self.assertGreater(m["tapo.self_frac"]["value"], 0)
                self.assertLess(m["trace.unattributed_frac"]["value"], 0.2)

    def test_truncated_capture_fails(self):
        rc, result, err = bench("pcap_stream", 0, ["--truncate-capture", "1000"])
        self.assertIsNotNone(result, err)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["pass_frac"]["value"], 1.0)


def result_row(stalls=10, failed=0):
    metrics = {"tapo.stalls_total": {"value": stalls, "unit": "count"},
               "tapo.live.ns_per_pkt": {"value": 100.0, "unit": "ns"}}
    return json.dumps({"workload": "pcap_stream", "seed": 1, "trace": 1,
                       "result": {"correct": failed == 0, "attempted": 12,
                                  "failed": failed, "metrics": metrics}}) + "\n"


class Diff(unittest.TestCase):
    def compare(self, base_row, new_row):
        with tempfile.TemporaryDirectory() as d:
            base, new = Path(d) / "base", Path(d) / "new"
            base.write_text(base_row)
            new.write_text(new_row)
            return subprocess.run([sys.executable, str(HERE / "diff.py"), "compare",
                                   str(base), str(new)], capture_output=True, text=True)

    def test_same_results_pass(self):
        r = self.compare(result_row(), result_row())
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_behaviour_drift_is_flagged(self):
        r = self.compare(result_row(stalls=10), result_row(stalls=11))
        self.assertEqual(r.returncode, 1)
        self.assertIn("BEHAVIOUR DRIFT tapo.stalls_total", r.stdout)

    def test_failed_run_is_flagged(self):
        r = self.compare(result_row(), result_row(failed=1))
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAILED RUN pcap_stream seed 1", r.stdout)


if __name__ == "__main__":
    unittest.main()
