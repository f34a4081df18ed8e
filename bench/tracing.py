"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the matroidkit modules from outside
the package: every wrapped call is timed on one frame stack, so the self
time of a name is its time minus the time of wrapped calls directly inside
it.  Calls of ordinary names are also kept as spans (name, start, end,
parent span) and written out when the run ends.  The hot names, which run
hundreds of thousands of times per pass, are counted and timed but keep no
span: the rank oracles, `gf.rank_of_columns` and `gf.rref`.  `Matroid.r`,
called millions of times, is only counted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# traced module-level functions, as module.attribute
FUNCTIONS = (
    "gf.rank_of_columns", "gf.rref", "matroid.full_rank_table",
    "uniformity.is_kl_uniform_flats", "uniformity.is_kl_uniform_minor",
    "uniformity.is_22_uniform_circuits",
    "iso.iso_key", "iso.is_canonical_point_set", "iso.are_isomorphic",
    "iso.fingerprint", "iso.has_minor",
    "catalog.named", "catalog.geometry", "catalog.spike_minus_tip",
    "search.enumerate_kl_uniform", "search.three_connected_census_22",
    "search.kl_uniform_points",
)

MATROID_METHODS = (
    "is_3connected", "minor", "reduced", "dual", "circuits", "flats_of_rank",
)

HOT = ("gf.rank_of_columns", "gf.rref")

BACKENDS = ("gf2", "gf3", "graphic", "graft", "table")


class Tracer:
    """Counts, self times and spans of the wrapped calls of one traced pass.
    `true` counts the calls that returned True, for accept ratios."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.true = Counter()
        self.spans = []
        self._stack = []  # per open call: [time of wrapped children, span index]

    def wrap(self, name, fn, record=True):
        """`fn` traced under `name`, a string or a function of the call's
        arguments that returns one."""
        run = self.run

        def wrapper(*args, **kwargs):
            key = name if type(name) is str else name(*args)
            return run(key, record, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if record:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = parent
        frame = [0.0, idx]
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if record:
                self.spans[idx] = (name, start, end, parent)
        if result is True:
            self.true[name] += 1
        return result


def program_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "matroidkit" or key.startswith("matroidkit.")]


def install(tracer, mk):
    """Wrap the traced functions of the loaded program `mk` (a namespace of
    its modules).  A function imported by name into another module is
    replaced there too.  Returns a function that restores the originals."""
    saved = []
    modules = program_modules()

    def replace_everywhere(orig, wrapper):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    saved.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def replace_attr(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for name in FUNCTIONS:
        modname, attr = name.split(".")
        orig = getattr(getattr(mk, modname), attr)
        replace_everywhere(orig, tracer.wrap(name, orig, record=name not in HOT))

    mat = mk.matroid
    for attr in MATROID_METHODS:
        orig = mat.Matroid.__dict__[attr]
        replace_attr(mat.Matroid, attr, tracer.wrap(f"matroid.{attr}", orig))

    # Matroid.r reads a rank table directly, so on that backend the call is
    # the oracle itself and is timed; on the others it is the memo in front
    # of rep.rank and is only counted.
    table_rep = mat.RankTableRep
    orig_r = mat.Matroid.__dict__["r"]
    calls, run = tracer.calls, tracer.run

    def r(m, mask):
        if type(m.rep) is table_rep:
            return run("matroid.rank_oracle.table", False, orig_r, (m, mask), {})
        calls["matroid.r"] += 1
        return orig_r(m, mask)

    replace_attr(mat.Matroid, "r", r)

    def linear_name(rep, mask):
        return f"matroid.rank_oracle.gf{rep.matrix.field.q}"

    for cls, name in ((mat.LinearRep, linear_name),
                      (mat.GraphicRep, "matroid.rank_oracle.graphic"),
                      (mat.GraftRep, "matroid.rank_oracle.graft")):
        replace_attr(cls, "rank", tracer.wrap(name, cls.__dict__["rank"], record=False))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
        saved.clear()

    return restore


def count_rows(tracer):
    """Every exact count of a pass, by metric name."""
    rows = {f"{name}.calls": n for name, n in tracer.calls.items()}
    for name, n in tracer.true.items():
        rows[f"{name}.true"] = n
    return rows


def layer_values(tracer, search_stats):
    """Per-layer metric values of one traced pass, by metric name."""
    calls = tracer.calls
    vals = {}
    for name in set(calls) | set(FUNCTIONS) | {f"matroid.{a}" for a in MATROID_METHODS} \
            | {f"matroid.rank_oracle.{b}" for b in BACKENDS}:
        vals[f"{name}.calls"] = calls[name]
        vals[f"{name}.self_s"] = tracer.self_s[name]
    r_calls = calls["matroid.r"] + calls["matroid.rank_oracle.table"]
    vals["matroid.r.calls"] = r_calls
    backend = sum(n for name, n in calls.items()
                  if name.startswith("matroid.rank_oracle."))
    vals["matroid.r.memo_hit_ratio"] = 1 - backend / r_calls if r_calls else 0.0
    tested = calls["iso.is_canonical_point_set"]
    vals["iso.is_canonical_point_set.accept_ratio"] = (
        tracer.true["iso.is_canonical_point_set"] / tested if tested else 0.0)
    for key in ("nodes", "pruned_uniformity", "pruned_canonical"):
        vals[f"search.{key}"] = search_stats.get(key, 0)
    busy = tracer.total_s["search.enumerate_kl_uniform"]
    vals["search.nodes_per_s"] = search_stats.get("nodes", 0) / busy if busy else 0.0
    return vals

