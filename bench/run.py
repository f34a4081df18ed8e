"""matroidkit benchmark: end-to-end timings, or per-layer figures from a
traced run, for one workload.

    python3 bench/run.py --workload census|orderly|queries --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it show the same
metrics as a table.  Metric names, units and directions are those of
BENCHMARK.json: `end_to_end` with --trace 0, `per_layer` with --trace 1.
The metric definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.5  # probe samples this close to a timed stretch rate it
PROBE_REF_S = 0.0003  # probe time that defines the reference speed


def _probe_work():
    acc = 0
    seen = {}
    for i in range(300):
        key = (i, i ^ (i >> 3))
        seen[key] = seen.get(key, 0) + 1
        m = i
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        sorted((i, acc & 255, i & 7))
    return acc


class SpeedProbe:
    """Samples the interpreter's speed on this machine while timed work runs.

    The machine is shared, and other tenants slow a process down by up to
    half for seconds to minutes at a time.  While active, a timer signal
    runs a fixed piece of pure-Python work every PROBE_EVERY_S seconds and
    records when it ran and how long it took.  `total` is the probe time
    spent so far, which callers subtract from what they timed; `scale`
    turns a time measured in a stretch into seconds at the reference speed.
    """

    def __init__(self):
        self.stamps = []
        self.durations = []
        self.total = 0.0

    def _fire(self, signum, frame):
        t0 = time.perf_counter()
        _probe_work()
        dt = time.perf_counter() - t0
        self.stamps.append(t0)
        self.durations.append(dt)
        self.total += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """Reference seconds per wall second for work done between `start`
        and `end`, from the samples within PROBE_WINDOW_S of that stretch."""
        lo = bisect.bisect_left(self.stamps, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + PROBE_WINDOW_S)
        if lo == hi:
            self._fire(None, None)
            lo, hi = len(self.stamps) - 1, len(self.stamps)
        return PROBE_REF_S / statistics.fmean(self.durations[lo:hi])


def setup(workload, seed):
    """Import the program and build the workload's operations, SETUPS times;
    the last set-up is the one used.  Returns (program, ops, median set-up
    time in reference seconds)."""
    stretches = []
    with SpeedProbe() as probe:
        for _ in range(SETUPS):
            t0, p0 = time.perf_counter(), probe.total
            mk = workloads.load_program(ROOT / "src")
            ops = workload.ops(mk, seed)
            t1 = time.perf_counter()
            stretches.append((t0, t1, t1 - t0 - (probe.total - p0)))
    return mk, ops, statistics.median(dt * probe.scale(t0, t1) for t0, t1, dt in stretches)


def run_pass(workload, mk, ops, probe=None):
    """One timed pass over the operations.  Returns (outputs, stretches),
    one (start, end, seconds) stretch per operation; a raising operation
    yields its exception as output.  Time the probe spent inside an
    operation is not counted in its seconds."""
    gc.collect()
    outputs, stretches = [], []
    for op in ops:
        p0 = probe.total if probe else 0.0
        t0 = time.perf_counter()
        try:
            out = workload.run(mk, op)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            out = exc
        t1 = time.perf_counter()
        stretches.append((t0, t1, t1 - t0 - (probe.total - p0 if probe else 0.0)))
        outputs.append(out)
    return outputs, stretches


def gate_pass(workload, mk, ops, outputs):
    """Number of failed operations in a pass; prints each failure to stderr."""
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            errors = [f"{type(out).__name__}: {out}"]
        else:
            errors = workload.gate(mk, op, out)
        if errors:
            failed += 1
            print(f"FAIL {workload.name} {getattr(op, 'name', op)}: {'; '.join(errors)}",
                  file=sys.stderr)
    return failed


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples above
    it, or 100 (the maximum) when there are too few samples."""
    for p in range(99, 0, -1):
        if n - -(-p * n // 100) >= TAIL_BEYOND:
            return p
    return 100


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def measure(workload, mk, ops, seconds):
    """Passes until `seconds` of operation time are measured (at least one).
    Returns (end-to-end values, attempted, failed)."""
    op_times, pass_times, raw_times = [], [], []
    attempted = failed = 0
    while not raw_times or sum(raw_times) < seconds:
        with SpeedProbe() as probe:
            outputs, stretches = run_pass(workload, mk, ops, probe)
        times = [dt * probe.scale(t0, t1) for t0, t1, dt in stretches]
        raw_times.append(sum(dt for _, _, dt in stretches))
        op_times += times
        pass_times.append(sum(times))
        attempted += len(ops)
        failed += gate_pass(workload, mk, ops, outputs)
    p = tail_percentile(len(op_times))
    values = {
        "wall_s": statistics.median(pass_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
        "queries_per_s": len(op_times) / sum(op_times),
        "query_p50_ms": statistics.median(op_times) * 1000,
        "query_tail_ms": percentile(op_times, p) * 1000,
    }
    print(f"# {workload.name}: {len(op_times)} operations, tail = p{p}, "
          f"fail_ratio = {failed / attempted}; passes in wall seconds "
          f"{[round(t, 3) for t in raw_times]}, in reference seconds "
          f"{[round(t, 3) for t in pass_times]}", file=sys.stderr)
    return values, attempted, failed


def traced_pass(workload, mk, ops):
    """One pass with every layer wrapped.  Returns (tracer, pass seconds,
    outputs, search stats summed over the outputs)."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mk)
    try:
        outputs, stretches = run_pass(workload, mk, ops)
    finally:
        restore()
    stats = {}
    for out in outputs:
        for key, val in getattr(out, "stats", {}).items():
            stats[key] = stats.get(key, 0) + val
    return tracer, sum(dt for _, _, dt in stretches), outputs, stats


def trace(workload, mk, ops, seed):
    """An untraced pass, then two traced passes whose exact counts must agree.
    Returns (per-layer values, attempted, failed)."""
    plain_out, plain = run_pass(workload, mk, ops)
    runs = [traced_pass(workload, mk, ops) for _ in range(2)]
    failed = gate_pass(workload, mk, ops, plain_out)
    for _, _, outputs, _ in runs:
        failed += gate_pass(workload, mk, ops, outputs)
    attempted = 3 * len(ops)

    counts = [dict(tracing.count_rows(tr), **{f"search.{k}": v for k, v in st.items()})
              for tr, _, _, st in runs]
    differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k))
    for key in differ:
        print(f"COUNT DIFFERS {key}: {counts[0].get(key)} then {counts[1].get(key)}",
              file=sys.stderr)
    idle = [name for name in workload.must_run if not runs[0][0].calls[name]]
    for name in idle:
        print(f"NOT CALLED {name} on {workload.name}", file=sys.stderr)

    per_run = [tracing.layer_values(tr, st) for tr, _, _, st in runs]
    values = {key: (per_run[0][key] + per_run[1].get(key, 0)) / 2 for key in per_run[0]}
    traced_s = (runs[0][1] + runs[1][1]) / 2
    values["trace.overhead_s"] = traced_s - sum(dt for _, _, dt in plain)
    values["trace.count_mismatches"] = len(differ) + len(idle)

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload.name}-{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "passes": [tr.spans for tr, _, _, _ in runs]}, fh)
    return values, attempted, failed + len(differ) + len(idle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    try:
        mk, ops, setup_s = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot load matroidkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values, attempted, failed = trace(workload, mk, ops, args.seed)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = measure(workload, mk, ops, args.seconds)
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload:8} {name:45} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
