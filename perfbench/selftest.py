"""The benchmark's own tests.

    python3 perfbench/selftest.py

Smoke runs of every workload at reduced degrees, tampered answers and a
wrong reference counted as failures, every metric printed with its unit and
matching BENCHMARK.json, and the references checked against brute force.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, layer_seconds, self_times  # noqa: E402
from speed import SpeedClock  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--workload", workload, "--seed", "5",
                           "--seconds", "0.5", "--trace", str(trace), "--scale", "small"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def small_inputs(name, seed=5):
    spec, inp = workloads.WORKLOADS[name].make_inputs(seed, "small")
    inp["spec"] = spec
    return inp


class Smoke(unittest.TestCase):
    def test_each_workload_both_modes(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[group]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = bench(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stderr)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric, unit in want.items():
                        self.assertTrue(any(ln.split()[:1] == [metric] and ln.split()[-1] == unit
                                            for ln in lines), metric)
                    self.assertTrue(any(ln.startswith("error_rate") for ln in lines))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = bench("hh0_wild", 0, cwd=tmp, script=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Inputs(unittest.TestCase):
    def test_seed_decides_inputs(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, _ = w.make_inputs(7, "small")
                b, _ = w.make_inputs(7, "small")
                c, _ = w.make_inputs(8, "small")
                self.assertEqual(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))
                self.assertNotEqual(json.dumps(a, sort_keys=True), json.dumps(c, sort_keys=True))


class Tampering(unittest.TestCase):
    def failures(self, name, tamper=None, ref=None):
        w = workloads.WORKLOADS[name]
        inp = small_inputs(name)
        ans = w.run_pass(inp, NullTracer(), [])
        if tamper:
            tamper(ans)
        return [n for n, ok in w.check(inp, ans, ref if ref is not None else {}) if not ok]

    def test_untampered_passes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.failures(name), [])

    def test_wrong_torsion_table(self):
        def tamper(ans):
            ans["torsion"][4] = (3,)
        self.assertEqual(self.failures("hh0_wild", tamper), ["torsion"])

    def test_wrong_order(self):
        def tamper(ans):
            ans["orders"][2, 1] = 1
            ans["queries"][0] += 1
        self.assertEqual(self.failures("hh0_wild", tamper), ["orders", "query"])

    def test_wrong_lattice_answer(self):
        def tamper(ans):
            ans["queries"][-1] = 3 - ans["queries"][-1]
        self.assertEqual(self.failures("lattice_orders", tamper), ["query"])

    def test_wrong_dynkin_table(self):
        def tamper(ans):
            ans["dynkin"][1]["torsion"] = {4: (2,)}
        self.assertEqual(self.failures("identity_sweep", tamper), ["E6.torsion"])

    def test_wrong_reference(self):
        ref = {}
        self.failures("hh0_wild", ref=ref)
        ref["torsion"] = {4: (2,), 6: (3,), 8: (2,)}   # degree 8 is beyond the small run
        self.assertEqual(self.failures("hh0_wild", ref=ref), ["torsion"])

    def test_tally_counts_failures(self):
        w = workloads.WORKLOADS["hh0_wild"]

        class Tampered:
            def run_pass(self, inp, tr, lat):
                ans = w.run_pass(inp, tr, lat)
                ans["orders"][2, 1] = 1
                return ans

            check = staticmethod(w.check)

        class Raising:
            def run_pass(self, inp, tr, lat):
                raise RuntimeError("boom")

        class Hanging:
            def run_pass(self, inp, tr, lat):
                while True:
                    pass

        for bad, budget in ((Tampered(), 60), (Raising(), 60), (Hanging(), 0.5)):
            with self.subTest(bad=type(bad).__name__):
                tally = run.Tally()
                records, _ = run.measure(bad, small_inputs("hh0_wild"), 0.0, False,
                                         SpeedClock(time.perf_counter() + budget), tally)
                self.assertEqual(tally.failed, 1)
                self.assertGreaterEqual(tally.attempted, 1)
                self.assertEqual(len(records), 1)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        with tr.span("outer"):
            time.sleep(0.02)
            with tr.span("inner"):
                time.sleep(0.02)
        own = self_times(tr.spans)
        self.assertLess(own[0], (tr.spans[0]["end"] - tr.spans[0]["start"]) - 0.015)
        secs = layer_seconds(tr.spans, 0)
        self.assertGreater(secs["inner"], 0.015)


class References(unittest.TestCase):
    def test_necklace_count_brute_force(self):
        arrows = [(0, 0, 1), (1, 1, 0), (2, 0, 0), (3, 1, 1)]
        forbidden = {(0, 1), (2, 2)}
        succ = {a: [b for b, s, _ in arrows if s == t] for a, _, t in arrows}
        for d in range(1, 7):
            seen = set()
            for word in itertools.product([a for a, _, _ in arrows], repeat=d):
                if all(word[(i + 1) % d] in succ[word[i]] for i in range(d)) and \
                        R.cyclically_normal(word, forbidden):
                    seen.add(min(word[k:] + word[:k] for k in range(d)))
            self.assertEqual(R.cyclically_normal_counts(arrows, forbidden, d)[d], len(seen))

    def test_euler_exponents_round_trip(self):
        a = [0, 3, 1, 4, 0, 2, 7]
        h = [1] + [0] * 6
        for m in range(1, 7):
            h = R.ser_mul(h, R.one_minus_tm_pow(m, -a[m], 6), 6)
        self.assertEqual(R.euler_exponents(h, 6), a)

    def test_f2_span(self):
        span = R.F2Span([{0: 1, 1: 3}, {1: 2, 2: 1}])
        self.assertEqual(span.rank, 2)
        self.assertTrue(span.contains({0: 3, 1: 1, 2: 4}))
        self.assertFalse(span.contains({0: 1}))

    def test_wild_torsion(self):
        self.assertEqual(R.wild_torsion(18), {4: (2,), 6: (3,), 8: (2,), 10: (5,),
                                              14: (7,), 16: (2,), 18: (3,)})


if __name__ == "__main__":
    unittest.main()
