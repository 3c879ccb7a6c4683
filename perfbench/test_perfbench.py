"""Tests of the benchmark harness itself (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import signal
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import layertrace  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _program():
    sl, _ = run.load_program()
    return sl


class GeneratorTest(unittest.TestCase):
    def test_pool_is_deterministic(self):
        self.assertEqual(gen.pool(3, 8), gen.pool(3, 8))
        self.assertNotEqual(gen.pool(3, 8), gen.pool(4, 8))

    def test_pool_sizes_and_independence(self):
        rows = gen.pool(1, 8)
        self.assertEqual(sorted(len(r) for r in rows[:4]), list(gen.SIZES))
        for arr in rows:
            for i in range(len(arr)):
                for j in range(i):
                    for p in (None, gen.PRIME):
                        self.assertFalse(gen._minors_vanish([arr[i], arr[j]], p))

    def test_oracle_on_a_known_arrangement(self):
        # seven_planes: three triple points through the plane x, 15 flats
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
        got = gen.oracle(rows, gen.PRIME)
        self.assertEqual((got["deg_red"], got["deg_top"], got["hypothesis"]),
                         (15, 24, False))

    def test_op_order_follows_the_seed(self):
        sl = _program()
        names = [[op.name for op in workloads.Sweep(sl, s).cycle()]
                 for s in (5, 5, 6)]
        self.assertEqual(names[0], names[1])
        self.assertNotEqual(names[0], names[2])
        self.assertEqual(sorted(names[0]), sorted(names[2]))


class OutcomeTest(unittest.TestCase):
    def test_raising_op_is_an_error_with_its_type(self):
        out = run.run_op(workloads.Op("boom", lambda: 1 // 0))
        self.assertEqual((out.status, out.kind), ("error", "ZeroDivisionError"))

    def test_wrong_answer_is_wrong(self):
        out = run.run_op(workloads.Op("bad", lambda: ["degree 3, want 4"]))
        self.assertEqual((out.status, out.detail), ("wrong", "degree 3, want 4"))

    def test_counts_and_latency_order(self):
        outcomes = [run.Outcome("a", 0.5, "ok"), run.Outcome("b", 0.1, "error"),
                    run.Outcome("c", 0.2, "wrong"), run.Outcome("d", 0.3, "ok")]
        metrics = run.end_to_end(outcomes, wall=2.0, setup=(1.0, 0.0, 1.0))
        line = run.result(outcomes, [], metrics)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]),
                         (False, 4, 2))
        self.assertAlmostEqual(metrics["ops_per_s"][0], 1.0)
        # failed ops sort above both successes, so the median is between
        # the slower success and a failure
        self.assertAlmostEqual(metrics["op_p50_s"][0], (0.5 + 2.0) / 2)

    def test_an_error_alone_leaves_the_run_correct(self):
        outcomes = [run.Outcome("a", 0.5, "ok"), run.Outcome("b", 0.1, "error")]
        line = run.result(outcomes, [], {})
        self.assertEqual((line["correct"], line["failed"]), (True, 1))


class SlowdownTest(unittest.TestCase):
    def _probe(self):
        sp = probe.SpeedProbe()
        # twice as slow from t = 10 on
        sp.samples = [(t, probe.REFERENCE_S * (2 if t >= 10 else 1))
                      for t in range(20)]
        return sp

    def test_run_and_local_windows(self):
        sp = self._probe()
        self.assertAlmostEqual(sp.slowdown(), 1.5)
        self.assertAlmostEqual(sp.slowdown(12, 14), 2.0)
        self.assertAlmostEqual(sp.slowdown(2, 4), 1.0)
        # fewer than three samples near the op: the run's slowdown
        self.assertAlmostEqual(sp.slowdown(30, 31), 1.5)

    def test_metrics_are_scaled(self):
        sp = self._probe()
        outcomes = [run.Outcome("a", 2.0, "ok", start=12.0),
                    run.Outcome("b", 2.0, "ok", start=2.0)]
        m = run.end_to_end(outcomes, wall=4.0, setup=(1.0, 12.0, 14.0),
                           slowdown=sp.slowdown)
        self.assertAlmostEqual(m["ops_per_s"][0], 0.5 * 1.5)
        # scaled latencies 1.0 (a) and 2.0 (b)
        self.assertAlmostEqual(m["op_p90_s"][0], 1.0 + 0.9 * 1.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.5)

    def test_timer_and_handler_are_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with probe.SpeedProbe(interval=0.01) as sp:
            t = time.perf_counter()
            while time.perf_counter() - t < 0.1:
                pass
        self.assertGreater(len(sp.samples), 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SelfTimeTest(unittest.TestCase):
    # op [0, 10]: groebner.gb [1, 6] with linalg [2, 4] inside, whose
    # nested linalg [2.5, 3] must not count twice; homology.hilbert [7, 9]
    SPANS = [
        ["op", 0.0, 10.0, None, 0, False],
        ["groebner.gb", 1.0, 6.0, 0, 0, False],
        ["linalg", 2.0, 4.0, 1, 0, False],
        ["linalg", 2.5, 3.0, 2, 0, False],
        ["homology.hilbert", 7.0, 9.0, 0, 0, True],
    ]

    def test_self_times(self):
        self.assertEqual(layertrace.self_times(self.SPANS),
                         [3.0, 3.0, 1.5, 0.5, 2.0])

    def test_layer_metrics(self):
        m = layertrace.layer_metrics(self.SPANS, {"groebner.gb": 3}, {})
        self.assertEqual(m["busy"], {"groebner.gb": 5.0, "linalg": 2.0,
                                     "homology.hilbert": 2.0})
        self.assertEqual(m["calls"]["linalg"], 1)
        self.assertEqual(m["self"]["linalg"], 2.0)
        self.assertEqual(m["failed"], {"homology.hilbert": 1})
        self.assertEqual(m["layer_self"]["groebner"], 3.0)
        self.assertEqual(m["layer_self"]["linalg"], 2.0)
        self.assertAlmostEqual(m["coverage"], 0.7)
        self.assertEqual(m["op_total"], 10.0)
        self.assertEqual(m["wrapped_calls"], 7)
        self.assertAlmostEqual(sum(m["layer_self"].values()),
                               m["coverage"] * m["op_total"])


class CacheHitTest(unittest.TestCase):
    def test_a_repeated_groebner_call_is_one_call_and_one_hit(self):
        sl = _program()
        ring = sl.PolyRing(("x", "y", "z"), sl.GF(sl.DEFAULT_PRIME))
        x, y, z = ring.variables()
        ideal = sl.Ideal(ring, (x * y - z * z, x * x - y * z))
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            ideal.groebner()
            ideal.groebner()
            ideal.groebner(sl.GREVLEX)
            ideal.groebner(order=sl.GREVLEX)
        finally:
            tracer.uninstall()
        m = layertrace.layer_metrics(tracer.spans, tracer.hits, tracer.counts)
        self.assertEqual(m["calls"]["groebner.gb"], 1)
        self.assertEqual(m["hits"]["groebner.gb"], 3)
        terms = sum(len(p.terms) for p in ideal.groebner().polys)
        self.assertEqual(m["counts"]["groebner.gb.basis_terms"], terms)


class WrapperTest(unittest.TestCase):
    def _bindings(self):
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "singlocus" or name.startswith("singlocus."):
                for key, value in vars(mod).items():
                    out[(name, key)] = value
                    if isinstance(value, type):
                        for attr, member in vars(value).items():
                            out[(name, key, attr)] = member
        return out

    def test_wrappers_are_gone_after_a_traced_run(self):
        sl = _program()
        before = self._bindings()
        wl = workloads.Sweep(sl, 1)
        ops = wl.warmup()
        seen = {}

        def probe():
            seen["top_comb"] = sl.arrangement.top_comb
            seen["groebner"] = sl.Ideal.groebner
            return []

        ops.append(workloads.Op("probe", probe))
        outcomes, tracer = run.traced_phase(wl, ops)
        self.assertTrue(all(o.status == "ok" for o in outcomes))
        self.assertIsNot(seen["top_comb"], before[("singlocus.arrangement",
                                                   "top_comb")])
        self.assertIsNot(seen["groebner"], before[("singlocus.groebner",
                                                   "Ideal", "groebner")])
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"arrangement.top_comb", "groebner.gb",
                         "homology.resolution"} <= names)
        after = self._bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])


if __name__ == "__main__":
    unittest.main()
