"""Self-tests of the benchmark: self-time arithmetic, the output gates, seed
handling and the metric names.  Run from the repository root with

    python3 -m unittest bench/test_bench.py

It takes about 15 s, most of it one census.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import signal
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MK = workloads.load_program(run.ROOT / "src")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failures(workload, ops, outputs):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.gate_pass(workload, MK, ops, outputs)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def work(dt):
            clock.t += dt

        def leaf():
            work(3)

        def hot():  # counted and timed, no span of its own
            work(1)
            traced_leaf()

        def middle():
            work(2)
            traced_leaf()
            traced_hot()

        def root():
            work(1)
            traced_middle()
            work(4)
            traced_leaf()

        traced_leaf = tr.wrap("leaf", leaf)
        traced_hot = tr.wrap("hot", hot, record=False)
        traced_middle = tr.wrap("middle", middle)
        tr.wrap("root", root)()

        self.assertEqual(tr.calls, {"root": 1, "middle": 1, "hot": 1, "leaf": 3})
        self.assertEqual(dict(tr.self_s), {"root": 5, "middle": 2, "hot": 1, "leaf": 9})
        self.assertEqual(tr.total_s["root"], 17)
        self.assertEqual(tr.total_s["middle"], 9)
        # spans: name, start, end, parent; the leaf under `hot` hangs off `middle`
        self.assertEqual(tr.spans, [
            ("root", 0, 17, -1),
            ("middle", 1, 10, 0),
            ("leaf", 3, 6, 1),
            ("leaf", 7, 10, 1),
            ("leaf", 14, 17, 0),
        ])

    def test_exception_closes_the_span(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def boom():
            clock.t += 2
            raise ValueError

        with self.assertRaises(ValueError):
            tr.wrap("boom", boom)()
        self.assertEqual(tr.spans, [("boom", 0, 2, -1)])
        self.assertEqual(tr._stack, [])


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.census = workloads.WORKLOADS["census"]
        cls.report = cls.census.run(MK, "census")

    def test_census_missing_member(self):
        self.assertEqual(failures(self.census, ["census"], [self.report]), 0)
        bad = copy.copy(self.report)
        bad.representatives = self.report.representatives[1:]
        bad.counts = dict(self.report.counts)
        dropped = self.report.representatives[0]
        bad.counts[dropped.rank(), dropped.n] -= 1
        bad.counts = {key: c for key, c in bad.counts.items() if c}
        bad.stats = dict(self.report.stats, census_size=64)
        self.assertEqual(failures(self.census, ["census", "census"], [self.report, bad]), 1)

    def test_orderly_count_off_by_one(self):
        orderly = workloads.WORKLOADS["orderly"]

        def report(counts, stats):
            return SimpleNamespace(representatives=[None] * sum(counts.values()),
                                   counts=counts, stats=stats)

        good = report(dict(workloads.ORDERLY_COUNTS), dict(workloads.ORDERLY_STATS))
        self.assertEqual(failures(orderly, ["orderly"], [good]), 0)
        counts = dict(workloads.ORDERLY_COUNTS)
        counts[6, 12] += 1
        stats = dict(workloads.ORDERLY_STATS, pruned_canonical=5842)
        bad = [report(counts, dict(workloads.ORDERLY_STATS)),
               report(dict(workloads.ORDERLY_COUNTS), stats)]
        self.assertEqual(failures(orderly, ["orderly"] * 3, [good] + bad), 2)

    def test_flipped_decider_verdict(self):
        queries = workloads.WORKLOADS["queries"]
        specs = queries.ops(MK, 7)
        spec = next(s for s in specs if s.minor and s.catalog == "MW4")
        out = queries.run(MK, spec)
        self.assertIsNotNone(out.minor_witness)
        self.assertEqual(failures(queries, [spec], [out]), 0)
        flipped = copy.deepcopy(out)
        f, m, d = flipped.verdicts[2, 2]
        flipped.verdicts[2, 2] = (not f, m, d)
        bad_iso = copy.deepcopy(out)
        a, b = bad_iso.labels[:2]
        bad_iso.iso[a], bad_iso.iso[b] = bad_iso.iso[b], bad_iso.iso[a]
        self.assertEqual(failures(queries, [spec] * 4,
                                  [out, flipped, bad_iso, ValueError("raised")]), 3)


class SeedTest(unittest.TestCase):
    def test_seed_changes_only_the_corpus(self):
        for name in ("census", "orderly"):
            w = workloads.WORKLOADS[name]
            self.assertEqual(w.ops(MK, 1), w.ops(MK, 2))
        queries = workloads.WORKLOADS["queries"]
        one, two = queries.ops(MK, 1), queries.ops(MK, 2)
        self.assertEqual(one, queries.ops(MK, 1))
        self.assertNotEqual(one, two)
        self.assertEqual([s.name for s in one], [s.name for s in two])


class MetricNameTest(unittest.TestCase):
    def test_every_listed_metric_is_produced(self):
        queries = workloads.WORKLOADS["queries"]
        specs = queries.ops(MK, 3)
        # one matroid per rank backend: gf2, gf3, graphic, rank table, graft
        ops = [next(s for s in specs if s.q == 2 and s.minor),
               next(s for s in specs if s.q == 3),
               next(s for s in specs if s.name == "MW4"),
               next(s for s in specs if s.name == "MW4*"),
               next(s for s in specs if s.name == "R10")]
        with contextlib.redirect_stderr(io.StringIO()):
            values, attempted, failed = run.measure(queries, MK, ops, 0)
        self.assertEqual((attempted, failed), (5, 0))
        self.assertLessEqual({m["name"] for m in SPEC["end_to_end"]} - {"setup_s"},
                             set(values))
        with contextlib.redirect_stderr(io.StringIO()):
            values, attempted, failed = run.trace(queries, MK, ops, 3)
        self.assertEqual((attempted, failed), (15, 0))
        self.assertEqual(values["trace.count_mismatches"], 0)
        self.assertLessEqual({m["name"] for m in SPEC["per_layer"]}, set(values))

    def test_tracing_restores_the_program(self):
        before = MK.matroid.Matroid.r, MK.iso.iso_key, MK.search.iso_key
        restore = tracing.install(tracing.Tracer(), MK)
        self.assertIsNot(MK.search.iso_key, before[2])
        self.assertIs(MK.search.iso_key, MK.iso.iso_key)
        restore()
        self.assertEqual((MK.matroid.Matroid.r, MK.iso.iso_key, MK.search.iso_key), before)

    def test_speed_probe_window(self):
        probe = run.SpeedProbe()
        probe.stamps = [0.0, 1.0, 2.0, 10.0]
        probe.durations = [0.0003, 0.0006, 0.0003, 0.003]
        ref = run.PROBE_REF_S
        self.assertAlmostEqual(probe.scale(1.2, 1.4), ref / 0.0006)
        self.assertAlmostEqual(probe.scale(0.0, 2.0), ref / 0.0004)
        with run.SpeedProbe() as probe:
            pass
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertGreater(probe.scale(100.0, 101.0), 0)  # no sample near: probes once

    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(5), 100)
        self.assertEqual(run.tail_percentile(386), 97)
        self.assertEqual(run.tail_percentile(2316), 99)
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 60), 3)


if __name__ == "__main__":
    unittest.main()
