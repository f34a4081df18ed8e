"""Exhaustive isomorph-reduced searches over binary matroids.

Orderly generation of the simple (k,l)-uniform restrictions of a rank-r
binary projective space, single-element extension and coextension
enumeration, f-value computation, and the two-route census of the
3-connected binary (2,2)-uniform matroids.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import catalog
from .gf import GFMatrix, rref, subspace_masks
from .iso import (
    BudgetExhausted,
    NotBinary,
    _census_searches,
    _rank_rows,
    binary_canonical_form,
    element_orbits,
    has_minor,
    is_canonical_point_set,
    iso_key,
)
from .matroid import Matroid, MatroidError, _bits, _find, binary_representation, from_matrix
from .uniformity import _check_kl

_CHECKPOINT_EVERY = 50_000  # nodes between periodic checkpoint writes


@dataclass
class SearchConfig:
    """Parameters for one orderly-generation run: ambient rank, the (k,l)
    pair to preserve, leaf filters, a node budget, and a checkpoint path."""

    r: int
    k: int
    l: int
    require_cosimple: bool = False
    require_3connected: bool = False
    max_size: int | None = None
    budget: int = 5_000_000
    checkpoint: str | None = None

    def __post_init__(self):
        if not 1 <= self.r <= 6:
            raise MatroidError("full enumeration supports 1 <= r <= 6")
        _check_kl(self.k, self.l)
        if self.budget < 1:
            raise MatroidError("budget must be positive")
        if self.max_size is not None and self.max_size < 0:
            raise MatroidError("max_size must be nonnegative")


@dataclass
class SearchReport:
    """Outcome of a search: pairwise non-isomorphic representatives, counts
    by (rank, size), the largest rank attained, the derived f-value, and
    pruning statistics."""

    config: SearchConfig | None
    representatives: list
    forms: list | None
    counts: dict
    max_rank: int | None
    f_value: int | None
    stats: dict
    wall_time: float
    schema: int = 1

    def to_json_dict(self):
        cfg = self.config
        return {
            "schema": self.schema,
            "config": None if cfg is None else {
                "r": cfg.r, "k": cfg.k, "l": cfg.l,
                "require_cosimple": cfg.require_cosimple,
                "require_3connected": cfg.require_3connected,
                "budget": cfg.budget,
            },
            "f_value": self.f_value,
            "representatives": [m.export_text() for m in self.representatives],
            "counts": [[r, n, c] for (r, n), c in sorted(self.counts.items())],
            "stats": dict(self.stats),
            "wall_time": round(self.wall_time, 3),
        }


def kl_uniform_points(m, k, l):
    """(k,l)-uniformity of a binary matroid decided by subspace counting:
    m fails iff some subspace W with dim W = r(m) - k holds total column
    weight (parallel multiplicities plus loops) at least dim W + l.  Agrees
    with the flats oracle; needs a representation of at most six rows."""
    _check_kl(k, l)
    t = m.rank()
    if k > t:
        return True
    mat = binary_representation(m)
    if mat is None:
        raise NotBinary("subspace check needs a binary matroid")
    if mat.nrows > t:
        mat = _rank_rows(mat)
    nr = mat.nrows
    if nr > 6:
        raise MatroidError("subspace check supports rank <= 6")
    weights = Counter(v for v in mat.point_values() if v)
    loops = mat.ncols - sum(weights.values())
    pmask = sum(1 << (v - 1) for v in weights)
    if loops == 0 and all(wt == 1 for wt in weights.values()):
        weights = None
    return _passes_kl(pmask, t, k, l, subspace_masks(max(nr, 1)), weights, loops)


def _as_predicate(pred):
    if callable(pred):
        return pred
    k, l = pred
    _check_kl(k, l)
    return lambda m: kl_uniform_points(m, k, l)


# ---- orderly generation


def _new_stats():
    return {"nodes": 0, "kept": 0, "pruned_uniformity": 0, "pruned_canonical": 0}


def _passes_kl(points_mask, t, k, l, subs, weights=None, loops=0):
    """True iff no (t-k)-dimensional subspace carries weight at least
    t - k + l: the (k,l) criterion for a rank-t point configuration.  Points
    are the bits of points_mask (bit v - 1 for point value v), each of weight
    one unless weights maps point values to multiplicities; loops lie in
    every subspace.  subs is subspace_masks of the ambient dimension, or the
    part of it that can fail, keyed the same way."""
    d = t - k
    if d < 0:
        return True
    need = d + l
    if weights is None:
        for w in subs[d]:
            if (points_mask & w).bit_count() >= need:
                return False
        return True
    for w in subs[d]:
        if loops + sum(wt for v, wt in weights.items() if w >> (v - 1) & 1) >= need:
            return False
    return True


def _matroid_from_points(points, r):
    return from_matrix(GFMatrix.from_point_values(list(points), r))


def _leaf_passes(points, cfg):
    # every node is a set of distinct nonzero points, so every leaf is simple
    if not (cfg.require_cosimple or cfg.require_3connected):
        return True
    m = _matroid_from_points(points, cfg.r)
    return ((not cfg.require_cosimple or m.is_cosimple())
            and (not cfg.require_3connected or m.is_3connected()))


def _node_state(points):
    """(points mask, span mask, rank) recomputed from the point tuple."""
    pmask = 0
    span = 0
    rank = 0
    for v in points:
        pmask |= 1 << (v - 1)
        if not span >> (v - 1) & 1:
            rank += 1
            new = 1 << (v - 1)
            for b in _bits(span):  # bit b is the point value b + 1
                new |= 1 << ((b + 1 ^ v) - 1)
            span |= new
    return pmask, span, rank


@lru_cache(maxsize=None)
def _subspaces_through(r):
    """For each point value v of GF(2)^r, the subspaces of subspace_masks(r)
    that contain v, indexed by dimension as _passes_kl reads them; index 0
    is unused."""
    out = [[[] for _ in range(r + 1)] for _ in range(1 << r)]
    for d, masks in subspace_masks(r).items():
        for w in masks:
            for b in _bits(w):
                out[b + 1][d].append(w)
    return tuple(tuple(map(tuple, by_dim)) for by_dim in out)


def _linear_extension(g, points, size):
    """The linear map that agrees with g on points, as bytes indexed by every
    vector of span(points) (0 outside the span)."""
    img = bytearray(size)
    span = [0]
    for p in points:
        if img[p]:  # already in the span: g is injective there
            continue
        gp = g[p]
        for s in list(span):
            img[s ^ p] = img[s] ^ gp
            span.append(s ^ p)
    return bytes(img)


def _serial_search(cfg, stack, forms, counts, stats):
    """Depth-first expansion of canonical (k,l)-uniform point sets.  Nodes on
    the stack are point tuples already known canonical and uniform.

    A child P + v is kept iff it passes the (k,l) count and the lex-min
    canonicity test, as in a plain orderly search; every shortcut below
    gives that verdict exactly.  Children with v outside span(P) are all
    isomorphic, so they share one count and only the least vector outside
    the span can be canonical.  For v in span(P) the rank stays and the
    parent passed, so only the subspaces through v are counted.  The
    automorphisms of P that its own test found (carried in a dict keyed by
    node, extended linearly to span(P)) reject v when its orbit holds a
    smaller w outside P, since P + w is then a smaller image of P + v; those
    fixing v seed the child's test.  Nodes carrying none (the root and
    resumed nodes) take the test unseeded."""
    subs = subspace_masks(cfg.r)
    through = _subspaces_through(cfg.r)
    size = 1 << cfg.r
    carried = {}
    while stack:
        points = stack.pop()
        maps = carried.pop(points, ())
        # a checkpoint holds the node uncounted, so a resumed run counts it once
        if stats["nodes"] >= cfg.budget:
            if cfg.checkpoint:
                _write_checkpoint(cfg, stack + [points], forms, counts, stats)
            raise BudgetExhausted(
                f"search budget of {cfg.budget} nodes exhausted")
        if cfg.checkpoint and (stats["nodes"] + 1) % _CHECKPOINT_EVERY == 0:
            _write_checkpoint(cfg, stack + [points], forms, counts, stats)
        stats["nodes"] += 1
        pmask, span, rank = _node_state(points)
        if _leaf_passes(points, cfg):
            stats["kept"] += 1
            counts[rank, len(points)] += 1
            forms.append(points)
        if cfg.max_size is not None and len(points) >= cfg.max_size:
            continue
        orbit = list(range(size))
        for g in maps:
            for x in _bits(span):
                a, b = _find(orbit, x + 1), _find(orbit, g[x + 1])
                if a != b:
                    orbit[max(a, b)] = min(a, b)  # each root is its orbit's least
        free = (~span & (span + 1)).bit_length()  # least vector outside span(P)
        raised = None  # the shared count verdict of the children outside the span
        start = points[-1] + 1 if points else 1
        for v in range(start, size):
            child = points + (v,)
            child_mask = pmask | 1 << (v - 1)
            if span >> (v - 1) & 1:
                if not _passes_kl(child_mask, rank, cfg.k, cfg.l, through[v]):
                    stats["pruned_uniformity"] += 1
                    continue
                if _find(orbit, v) < v:
                    stats["pruned_canonical"] += 1
                    continue
                seeds = [g for g in maps if g[v] == v]
            else:
                if raised is None:
                    raised = _passes_kl(child_mask, rank + 1, cfg.k, cfg.l, subs)
                if not raised:
                    stats["pruned_uniformity"] += 1
                    continue
                if v != free:
                    stats["pruned_canonical"] += 1
                    continue
                # v is independent of span(P), so each g extends by fixing it
                seeds = [_linear_extension(g[:v] + bytes((v,)) + g[v + 1:], child, size)
                         for g in maps]
            autos = list(seeds)
            if not is_canonical_point_set(child, autos=autos):
                stats["pruned_canonical"] += 1
                continue
            found = dict.fromkeys(seeds)
            for g in autos[len(seeds):]:
                if any(g[p] != p for p in child):  # the target leaf itself ties
                    found.setdefault(_linear_extension(g, child, size))
            carried[child] = list(found)
            stack.append(child)


def _write_checkpoint(cfg, stack, forms, counts, stats):
    state = {
        "schema": 1,
        "config": [cfg.r, cfg.k, cfg.l, cfg.require_cosimple,
                   cfg.require_3connected, cfg.max_size],
        "stack": [list(p) for p in stack],
        "forms": [list(p) for p in forms],
        "counts": [[r, n, c] for (r, n), c in counts.items()],
        "stats": dict(stats),
    }
    tmp = cfg.checkpoint + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, cfg.checkpoint)


def _load_checkpoint(cfg, path):
    """The (stack, forms, counts, stats) of a checkpoint file.  MatroidError
    unless it is a JSON object of this configuration, its stack and forms
    list strictly increasing points in 1..2^r - 1, its counts are the int
    triples (rank, size, count) that tally the forms, and its stats are ints."""
    with open(path) as fh:
        state = json.load(fh)
    want = [cfg.r, cfg.k, cfg.l, cfg.require_cosimple,
            cfg.require_3connected, cfg.max_size]
    if not isinstance(state, dict) or state.get("schema") != 1 or state.get("config") != want:
        raise MatroidError("checkpoint does not match the search configuration")
    top = 1 << cfg.r

    def ints(values, length=None):
        return (isinstance(values, list) and all(type(x) is int for x in values)
                and length in (None, len(values)))

    def point_sets(key):
        sets = state.get(key)
        if not isinstance(sets, list) or not all(
                ints(p) and all(a < b for a, b in zip([0] + p, p + [top])) for p in sets):
            raise MatroidError(f"checkpoint {key} must list increasing points in 1..{top - 1}")
        return [tuple(p) for p in sets]

    stack, forms = point_sets("stack"), point_sets("forms")
    counts, saved = state.get("counts"), state.get("stats")
    tally = Counter((_node_state(p)[2], len(p)) for p in forms)
    if (not isinstance(counts, list) or not all(ints(t, 3) for t in counts)
            or sorted(map(tuple, counts)) != sorted((r, n, c) for (r, n), c in tally.items())):
        raise MatroidError("checkpoint counts must be the (rank, size, count) of its forms")
    if not isinstance(saved, dict) or not ints(list(saved.values())):
        raise MatroidError("checkpoint stats must map names to ints")
    stats = _new_stats()
    stats.update(saved)
    return stack, forms, tally, stats


def enumerate_kl_uniform(cfg: SearchConfig, resume=None):
    """Every simple binary (k,l)-uniform matroid of rank at most cfg.r, one
    canonical representative per isomorphism class, filtered at the leaves
    by the configured flags.  Orderly generation: a child set is expanded
    only if it is its own canonical form, and any set failing (k,l)-
    uniformity is pruned together with its whole subtree (restriction of a
    superset is a minor, so the failure is hereditary)."""
    t0 = time.time()
    if resume is not None:
        stack, forms, counts, stats = _load_checkpoint(cfg, resume)
    else:
        stack, forms, counts, stats = [()], [], Counter(), _new_stats()
    _serial_search(cfg, stack, forms, counts, stats)
    forms.sort(key=lambda p: (len(p), p))
    reps = [_matroid_from_points(p, cfg.r) for p in forms]
    max_rank = max((r for r, _ in counts), default=None)
    return SearchReport(
        config=cfg,
        representatives=reps,
        forms=forms,
        counts=dict(counts),
        max_rank=max_rank,
        f_value=max_rank,
        stats=stats,
        wall_time=time.time() - t0,
    )


# ---- f values


def compute_f(k, l, r_max=5):
    """Largest rank r <= r_max carrying a simple cosimple (k,l)-uniform
    binary matroid.  For k = 1 the search runs on the dual side: simple
    cosimple (l,1)-uniform matroids are enumerated up to rank r_max and the
    value is max(|E| - r) over them, the rank of the dual.  The answer is
    exact as long as no family member exists above the cap."""
    if k == 1 and l == 1:
        raise MatroidError("(1,1)-uniform matroids of every rank exist")
    kk, ll = (l, 1) if k == 1 else (k, l)
    cfg = SearchConfig(r=r_max, k=kk, l=ll, require_cosimple=True)
    report = enumerate_kl_uniform(cfg)
    if k == 1:
        vals = [m.n - m.rank() for m in report.representatives]
    else:
        vals = [m.rank() for m in report.representatives]
    return max(vals)  # the empty matroid, simple, cosimple and uniform, is always one


# ---- single-element extension / coextension searches


def _one_per_class(candidates, pred):
    """The candidates that pass pred, the first of each isomorphism class
    (by iso_key), in order."""
    out, seen = [], set()
    for m in candidates:
        if pred(m):
            key = iso_key(m)
            if key not in seen:
                seen.add(key)
                out.append(m)
    return out


def extensions(m: Matroid, predicate):
    """Single-element extensions of a simple binary matroid by unused points
    of its rank-r projective space, filtered by the predicate (a callable or
    a (k,l) pair) and deduplicated up to isomorphism."""
    pred = _as_predicate(predicate)
    r = m.rank()
    if r > 6:
        raise MatroidError("extension search supports rank <= 6")
    if not m.is_simple():
        raise MatroidError("extension search needs a simple input")
    vals = [i + 1 for i in binary_canonical_form(m)]
    return _one_per_class((from_matrix(GFMatrix.from_point_values(vals + [v], r))
                           for v in range(1, 1 << r) if v not in vals), pred)


def coextensions(m: Matroid, predicate):
    """Single-element binary coextensions: the representation gains a new
    row and a new column x carrying the only 1 of that row, so contracting
    x recovers m.  Rows in the same coset of the input's row space give the
    same matroid, so the new row runs over coset representatives (zero in
    every pivot position), 2^(n-r) candidates.  Filtered by the predicate
    and deduplicated up to isomorphism; results need not be simple."""
    pred = _as_predicate(predicate)
    r, n = m.rank(), m.n
    if r > 5:
        raise MatroidError("coextension search supports rank <= 5")
    mat = binary_representation(m)
    if mat is None:
        raise NotBinary("coextension search needs a binary matroid")
    red, rk, pivots = rref(mat)
    rows = [tuple(red.rows[i]) + (0,) for i in range(rk)]
    free = [j for j in range(n) if j not in set(pivots)]
    xlabel = "x"
    while xlabel in m.labels:
        xlabel += "x"

    def coext(combo):
        beta = [0] * n
        for idx, j in enumerate(free):
            beta[j] = combo >> idx & 1
        return from_matrix(GFMatrix(2, rows + [tuple(beta) + (1,)]),
                           labels=m.labels + (xlabel,))

    return _one_per_class(map(coext, range(1 << len(free))), pred)


# ---- census of 3-connected binary (2,2)-uniform matroids

def census_seeds():
    """The four maximal members the census descends from."""
    ag42 = catalog.geometry("AG", 4)
    return [catalog.spike_minus_tip(5), catalog.named("P10"),
            ag42, ag42.dual().with_name("AG(4,2)*")]


def _minor_closure_3connected(seeds):
    """Isomorph-reduced closure of the seeds under single-element minors
    followed by simplification/cosimplification.  Every 3-connected minor
    with at least four elements survives that reduction, so filtering the
    visited set to 3-connected matroids yields them all; matroids on at
    most three elements are handled separately.  Elements in one
    automorphism orbit give isomorphic children, so one element per orbit
    is deleted and contracted.  Returns (minors by key, children keyed)."""
    queue = [m.reduced() for m in seeds]
    visited = {}
    for m in queue:
        visited.setdefault(iso_key(m), m)
    queue = list(visited.values())
    children = 0
    while queue:
        m = queue.pop()
        for orbit in element_orbits(m):
            e = m.mask_of(orbit[:1])
            for child in (m.delete(e).reduced(), m.contract(e).reduced()):
                children += 1
                key = iso_key(child)
                if key not in visited:
                    visited[key] = child
                    queue.append(child)
    return {key: m for key, m in visited.items()
            if m.n >= 4 and m.is_3connected()}, children


def three_connected_census_22():
    """The 3-connected binary (2,2)-uniform matroids, computed two ways and
    cross-checked: (a) the 3-connected minors of the four maximal members;
    (b) direct orderly enumeration at rank <= 5 with simple, cosimple, and
    3-connected leaf filters, closed under duality (every member has rank
    or corank at most 5), plus the six matroids on at most 3 elements.
    Raises when the two routes disagree.

    The call's canonical searches share one dict (`iso._census_searches`),
    so matroids on the same weighted point set are searched once per call.
    The dict is set on entry and reset on exit, also on an exception, so no
    later call reads an earlier call's searches."""
    t0 = time.time()
    token = _census_searches.set({})
    try:
        seeds = census_seeds()
        census_a, closure_children = _minor_closure_3connected(seeds)
        tiny = catalog.tiny_six()
        for m in tiny:
            if any(has_minor(s, m) is not None for s in seeds):
                census_a.setdefault(iso_key(m), m)
        cfg = SearchConfig(r=5, k=2, l=2, require_cosimple=True,
                           require_3connected=True)
        report = enumerate_kl_uniform(cfg)
        census_b = {}
        for m in report.representatives:
            if m.n < 4:
                continue
            census_b.setdefault(iso_key(m), m)
            d = m.dual()
            census_b.setdefault(iso_key(d), d)
        for m in tiny:
            census_b.setdefault(iso_key(m), m)
        if set(census_a) != set(census_b):
            only_a = [census_a[k].name or str(k) for k in set(census_a) - set(census_b)]
            only_b = [census_b[k].name or str(k) for k in set(census_b) - set(census_a)]
            raise MatroidError(
                f"census mismatch: minors-only {only_a}, enumeration-only {only_b}")
        members = [census_b[k] for k in census_b]
        members.sort(key=lambda m: (m.rank(), m.n, iso_key(m)))
        counts = Counter((m.rank(), m.n) for m in members)
        f_value = max(m.rank() for m in members if m.is_simple() and m.is_cosimple())
        stats = dict(report.stats)
        stats["census_size"] = len(members)
        stats["closure_children"] = closure_children
        return SearchReport(
            config=cfg,
            representatives=members,
            forms=None,
            counts=dict(counts),
            max_rank=max(m.rank() for m in members),
            f_value=f_value,
            stats=stats,
            wall_time=time.time() - t0,
        )
    finally:
        _census_searches.reset(token)
