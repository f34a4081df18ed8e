"""Replayable checks for the classification results.

Each check re-derives one computed claim (oracle agreement, f values, spike
thresholds, extension and coextension sets, the 3-connected census, the
structure of the non-3-connected family) and compares it with frozen
expected values. Checks report pass, fail, or skipped, and never assume a
result that the library itself produced without an independent recomputation.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import catalog
from .gf import GFMatrix, field, subspace_masks
from .iso import (
    BudgetExhausted,
    are_isomorphic,
    binary_canonical_form,
    has_minor,
    iso_key,
)
from .matroid import (MatroidError, as_rank_table, binary_three_sum, from_matrix,
                      graft_matroid, is_binary_affine, is_isomorphism)
from .search import (
    SearchConfig,
    _node_state,
    _passes_kl,
    coextensions,
    compute_f,
    enumerate_kl_uniform,
    extensions,
    kl_uniform_points,
    three_connected_census_22,
)
from .uniformity import (
    classify_connected_not3_22,
    classify_disconnected_22,
    is_22_uniform_circuits,
    is_kl_uniform_flats,
    is_kl_uniform_minor,
)

KL_PAIRS = tuple((k, l) for k in range(1, 6) for l in range(1, 6) if k + l <= 6)


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass", "fail", or "skipped"
    details: str
    runtime: float

    @property
    def ok(self):
        return self.status != "fail"


def random_linear_corpus(count, seed=4711, qs=(2, 3), r_max=5, n_max=10):
    """Seeded random linear matroids, loops and parallel elements included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.choice(qs)
        r = rng.randint(1, r_max)
        n = rng.randint(1, n_max)
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(r))
        out.append(from_matrix(GFMatrix(field(q), rows)))
    return out


def _iso(a, b):
    return are_isomorphic(a, b) is not None


class _Cache:
    """Shared expensive artifacts for one verification run."""

    def __init__(self, corpus_size=500):
        self.corpus_size = corpus_size
        self._corpus = None
        self._census = None

    def corpus(self):
        if self._corpus is None:
            self._corpus = [e.matroid for e in catalog.entries()]
            self._corpus += random_linear_corpus(self.corpus_size)
        return self._corpus

    def census(self):
        if self._census is None:
            self._census = three_connected_census_22()
        return self._census


# ---- individual checks; each returns (ok, details)


def _check_oracle_agreement(cache):
    # on a matrix the two deciders read different tables of one flats walk
    # (least flats, least bases); a rank table scans its t-sets without it.
    # A query is bad if the matrix's flats verdict or minor witness differs
    # from the rank table's minor answer.
    bad = 0
    n = 0
    for m in cache.corpus():
        table = as_rank_table(m)
        for k, l in KL_PAIRS:
            n += 1
            minor = is_kl_uniform_minor(table, k, l)
            flats = is_kl_uniform_flats(m, k, l)[0]
            if flats != minor[0] or is_kl_uniform_minor(m, k, l) != minor:
                bad += 1
    return bad == 0, f"flat and minor deciders agree on {n - bad}/{n} queries"


def _check_circuit_pairs(cache):
    bad = sum(
        is_kl_uniform_flats(m, 2, 2)[0] != is_22_uniform_circuits(m)
        for m in cache.corpus()
    )
    n = len(cache.corpus())
    return bad == 0, f"circuit-pair decider agrees on {n - bad}/{n} matroids"


def _check_duality_monotonicity(cache):
    flips = steps = bad = 0
    for m in cache.corpus():
        d = m.dual()
        verdicts = {}
        for k, l in KL_PAIRS:
            verdicts[k, l] = is_kl_uniform_flats(m, k, l)[0]
            flips += 1
            if verdicts[k, l] != is_kl_uniform_flats(d, l, k)[0]:
                bad += 1
        for k, l in KL_PAIRS:
            for k2, l2 in ((k + 1, l), (k, l + 1)):
                if (k2, l2) in verdicts:
                    steps += 1
                    if verdicts[k, l] and not verdicts[k2, l2]:
                        bad += 1
    return bad == 0, f"{flips} duality flips and {steps} monotonicity steps, {bad} violations"


def _check_p10_facts(cache):
    p10 = catalog.named("P10")
    facts = []
    cert = are_isomorphic(p10, p10.dual())
    facts.append(cert is not None and is_isomorphism(p10, p10.dual(), cert))
    minor = p10.contract(p10.mask_of(["5"]))
    minor = minor.delete(minor.mask_of(["10"]))
    cert = are_isomorphic(minor, catalog.named("MW4"))
    facts.append(cert is not None and is_isomorphism(minor, catalog.named("MW4"), cert))
    minor = p10.contract(p10.mask_of(["8"]))
    cert = are_isomorphic(minor, catalog.spike(4))
    facts.append(cert is not None and is_isomorphism(minor, catalog.spike(4), cert))
    return all(facts), ("self-dual, contract 5 delete 10 gives the rank-4 wheel, "
                        f"contract 8 gives the rank-4 spike: {facts}")


def _is22(m):
    return kl_uniform_points(m if m.rank() <= 6 else m.dual(), 2, 2)


def _check_spike_thresholds(cache):
    cells = {}
    for r in range(3, 7):
        cells[f"Z{r}"] = (_is22(catalog.spike(r)), r <= 4)
        cells[f"Z{r}\\y"] = (_is22(catalog.spike_minus_y(r)), r <= 4)
        cells[f"Z{r}\\t"] = (_is22(catalog.spike_minus_tip(r)), r <= 5)
    bad = [k for k, (got, want) in cells.items() if got != want]
    kinds = "spikes and their tip and leg deletions, ranks 3..6"
    return not bad, f"{kinds}: 12 cells, mismatches {bad or 'none'}"


def _check_f_values_2(cache):
    vals = compute_f(2, 1, 5), compute_f(1, 2, 5)
    report = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=1, require_cosimple=True))
    empty5 = not any(m.rank() == 5 for m in report.representatives)
    has_ag32 = any(
        m.rank() == 4 and _iso(m, catalog.named("AG32")) for m in report.representatives)
    ok = vals == (4, 4) and empty5 and has_ag32
    return ok, (f"f(2,1,2)={vals[0]}, f(1,2,2)={vals[1]}; rank-5 family empty: "
                f"{empty5}; rank-4 family contains AG(3,2): {has_ag32}")


def _check_f_values_13(cache):
    report = enumerate_kl_uniform(SearchConfig(r=5, k=3, l=1, require_cosimple=True))
    coranks = Counter((m.n - m.rank(), (m.rank(), m.n)) for m in report.representatives)
    best = max(c for c, _ in coranks)
    attainers = sorted(shape for c, shape in coranks if c == best)
    ok = best == 11 and attainers == [(4, 15), (5, 16)]
    return ok, f"f(1,3,2)={best}, attained at (rank, size) {attainers}"


def _check_f_values_31(cache):
    v = compute_f(3, 1, 6)
    return v == 5, f"f(3,1,2)={v} from the rank-6 cap search"


def _check_f_recursion(cache):
    f13 = compute_f(1, 3, 5)
    f12 = compute_f(1, 2, 5)
    bound = max(f13, f12 + 1)
    f22 = cache.census().f_value
    ok = f22 <= bound == 11 and f22 == 11
    return ok, (f"f(2,2,2)={f22} <= max(f(1,3,2), f(1,2,2)+1)={bound}, "
                "met with equality")


def _check_rank_corank_cap(cache):
    worst = max(min(m.rank(), m.n - m.rank()) for m in cache.census().representatives)
    return worst <= 5, f"max over census of min(rank, corank) = {worst}"


def _check_census(cache):
    census = cache.census()
    size = census.stats["census_size"]
    present = {}
    keys = {iso_key(m) for m in census.representatives}
    for nm, m in (("tipless rank-5 spike", catalog.spike_minus_tip(5)),
                  ("P10", catalog.named("P10")),
                  ("AG(4,2)", catalog.geometry("AG", 4)),
                  ("AG(4,2)*", catalog.geometry("AG", 4).dual()),
                  ("MW4", catalog.named("MW4"))):
        present[nm] = iso_key(m) in keys
    dual_closed = all(iso_key(m.dual()) in keys for m in census.representatives)
    rng = random.Random(7)
    oracles_agree = all(
        is_kl_uniform_flats(m, 2, 2)[0] and is_kl_uniform_minor(m, 2, 2)[0]
        and is_22_uniform_circuits(m)
        for m in rng.sample(census.representatives, 10) if m.n <= 12)
    ok = size == 65 and all(present.values()) and dual_closed and oracles_agree
    return ok, (f"two routes agree on {size} members (expected 65); "
                f"members present: {present}; dual-closed: {dual_closed}; "
                f"triple-oracle sample: {oracles_agree}")


def _check_wheel4_free(cache):
    mw4 = catalog.named("MW4")
    expected = catalog.tiny_six() + [
        catalog.named("MW3"), catalog.named("F7"), catalog.named("F7*"),
        catalog.named("AG32"), catalog.named("S8"), catalog.spike(4),
        catalog.spike(4).dual(), catalog.spike_minus_tip(5)]
    want = {iso_key(m) for m in expected}
    got = {iso_key(m) for m in cache.census().representatives
           if has_minor(m, mw4) is None}
    ok = got == want
    return ok, (f"{len(got)} census members have no rank-4 wheel minor "
                f"(expected the 14 spike-or-Fano members): match {ok}")


def _check_affine16_maximal(cache):
    ag42 = catalog.geometry("AG", 4)
    vals = sorted(1 + i for i in binary_canonical_form(ag42))
    failures = 0
    candidates = [v for v in range(1, 32) if v not in vals]
    for v in candidates:
        ext = from_matrix(GFMatrix.from_point_values(vals + [v], 5))
        if not kl_uniform_points(ext, 2, 2):
            failures += 1
    co = coextensions(ag42, (2, 2))
    ok = failures == len(candidates) == 15 and co == []
    return ok, (f"{failures}/{len(candidates)} single-point extensions fail; "
                f"coextension search found {len(co)} members")


def _check_k33_extensions(cache):
    mk33 = catalog.named("MK33")
    every = extensions(mk33, lambda m: True)
    match = all(is_binary_affine(m) == is_kl_uniform_flats(m, 2, 2)[0] for m in every)
    kept = extensions(mk33, (2, 2))
    names = sorted(nm for m in kept for nm in ("R10", "L10")
                   if _iso(m, catalog.named(nm)))
    ok = len(every) == 4 and match and names == ["L10", "R10"]
    return ok, (f"{len(every)} extension classes, affine iff uniform: {match}, "
                f"uniform ones: {names}")


def _check_coextension_pair(cache):
    co1 = coextensions(catalog.named("MK5e"), (2, 2))
    ok1 = len(co1) == 1 and _iso(co1[0], catalog.named("L10"))
    co2 = coextensions(catalog.named("P9"), (2, 2))
    ok2 = (len(co2) == 2
           and sum(_iso(m, catalog.named("P10")) for m in co2) == 1
           and sum(_iso(m, catalog.named("L10")) for m in co2) == 1)
    return ok1 and ok2, ("coextensions: M(K5 minus e) gives {L10}: %s; "
                         "P9 gives {P10, L10}: %s" % (ok1, ok2))


def _check_family_soundness(cache):
    fam = catalog.cor33_family()
    keys = set()
    bad = []
    clauses = Counter()
    for e in fam:
        m = e.matroid
        if not _is22(m) or m.is_3connected():
            bad.append(e.name)
            continue
        keys.add(iso_key(m))
        if m.is_connected():
            clauses[classify_connected_not3_22(m).clause] += 1
        else:
            clauses[classify_disconnected_22(m).clause] += 1
    dual_closed = all(iso_key(e.matroid.dual()) in keys for e in fam)
    ok = not bad and len(keys) == len(fam) and dual_closed
    return ok, (f"{len(fam)} members all uniform and not 3-connected "
                f"(violations: {bad or 'none'}), isomorph-free: "
                f"{len(keys) == len(fam)}, dual-closed: {dual_closed}, "
                f"structure clauses: {dict(sorted(clauses.items()))}")


def _iter_weightings(p, n_max):
    """All (multiplicities, loops) with p positive multiplicities and total
    size at most n_max."""
    for n in range(p, n_max + 1):
        if p == 0:
            yield (), n
            continue
        for extra in range(n - p + 1):
            loops = n - p - extra
            for cut in combinations(range(extra + p - 1), p - 1):
                mults = []
                prev = -1
                for c in cut + (extra + p - 1,):
                    mults.append(c - prev)
                    prev = c
                yield tuple(mults), loops


def _check_family_completeness(cache, n_max=9):
    """Exhaustive scan: every binary matroid with at most n_max elements that
    is (2,2)-uniform and not 3-connected appears in the generated family.
    Simplifications of rank <= 6 come from an unpruned orderly enumeration;
    rank above 6 forces corank <= 2, scanned through rank <= 2 duals."""
    fam_keys = {iso_key(e.matroid) for e in catalog.cor33_family(n_max)}
    missing = []
    candidates = hits = 0
    cores = enumerate_kl_uniform(SearchConfig(r=6, k=1, l=5, max_size=n_max))
    for form in cores.forms:
        p = len(form)
        pmask, _, t = _node_state(form)
        subs = subspace_masks(max(t, 1))
        for mults, loops in _iter_weightings(p, n_max):
            candidates += 1
            if not _passes_kl(pmask, t, 2, 2, subs, dict(zip(form, mults)), loops):
                continue
            hits += 1
            cols = [v for v, mult in zip(form, mults) for _ in range(mult)]
            cols += [0] * loops
            rows = tuple(tuple(c >> (max(t, 1) - 1 - i) & 1 for c in cols)
                         for i in range(max(t, 1)))
            m = from_matrix(GFMatrix(2, rows))
            if m.is_3connected():
                continue
            if iso_key(m) not in fam_keys:
                missing.append((form, mults, loops))
    # rank >= 7 on at most 9 elements means corank <= 2: scan rank <= 2 duals
    for n in range(1, n_max + 1):
        for a in range(n + 1):
            for b in range(a + 1):
                for c in range(b + 1):
                    loops = n - a - b - c
                    if loops < 0:
                        continue
                    candidates += 1
                    cols = [2] * a + [1] * b + [3] * c + [0] * loops
                    dual_side = from_matrix(GFMatrix(
                        2, tuple(tuple(x >> (1 - i) & 1 for x in cols)
                                 for i in range(2))))
                    if not kl_uniform_points(dual_side, 2, 2):
                        continue
                    hits += 1
                    if dual_side.is_3connected():
                        continue
                    m = dual_side.dual()
                    if iso_key(m) not in fam_keys:
                        missing.append(("dual", (a, b, c), loops))
    ok = not missing
    return ok, (f"{candidates} weighted configurations scanned up to {n_max} "
                f"elements, {hits} uniform, missing from family: "
                f"{missing or 'none'}")


def _check_disconnected_classes(cache):
    fam = [e.matroid for e in catalog.cor33_family() if not e.matroid.is_connected()]
    clauses = Counter(classify_disconnected_22(m).clause for m in fam)
    return bool(fam), f"{len(fam)} disconnected members classified: {dict(sorted(clauses.items()))}"


def _check_series_pair_classes(cache):
    fam = [e.matroid for e in catalog.cor33_family()
           if e.matroid.is_connected() and not e.matroid.is_3connected()]
    clauses = Counter(classify_connected_not3_22(m).clause for m in fam)
    return bool(fam), (f"{len(fam)} connected non-3-connected members "
                       f"classified: {dict(sorted(clauses.items()))}")


def _check_grafts(cache):
    pairs = [
        ("P9", catalog.named("P9"),
         graft_matroid(5, catalog.W4_EDGES, (0, 1, 2, 3))),
        ("R10", catalog.named("R10"),
         graft_matroid(6, catalog.K33_EDGES, (0, 1, 2, 3, 4, 5))),
        ("L10", catalog.named("L10"),
         graft_matroid(6, catalog.K33_EDGES, (0, 1, 2, 3))),
    ]
    bad = [nm for nm, a, b in pairs if iso_key(a) != iso_key(b)]
    return not bad, f"graft constructions match matrices by canonical form, mismatches: {bad or 'none'}"


def _check_three_sum(cache):
    p9 = catalog.named("P9")
    p10 = catalog.named("P10")
    f7 = catalog.named("F7")
    f7_tri = [c for c in f7.circuits(max_size=3) if c.bit_count() == 3][0]
    f7_labels = [f7.labels[i] for i in range(f7.n) if f7_tri >> i & 1]
    good, bad = [], []
    for tri in (c for c in p9.circuits(max_size=3) if c.bit_count() == 3):
        t = sorted((p9.labels[i] for i in range(p9.n) if tri >> i & 1), key=int)
        fresh = iter("abcd")
        mapping = {lab: (t[f7_labels.index(lab)] if lab in f7_labels else next(fresh))
                   for lab in f7.labels}
        s = binary_three_sum(p9, f7.relabel(mapping), t)
        (good if _iso(s, p10) else bad).append(tuple(t))
    ok = (len(good) == 4
          and sorted(bad) == [("1", "4", "8"), ("3", "4", "7")])
    return ok, f"3-sums with the Fano plane giving P10: {sorted(good)}; others: {sorted(bad)}"


_CHECKS = (
    ("oracle-agreement", "flat and minor deciders agree on the corpus",
     _check_oracle_agreement),
    ("circuit-pairs", "(2,2) circuit-pair decider agrees on the corpus",
     _check_circuit_pairs),
    ("duality-monotonicity",
     "uniformity flips (k,l) under duality and is upward monotone",
     _check_duality_monotonicity),
    ("p10-facts", "P10 is self-dual with wheel and spike minors",
     _check_p10_facts),
    ("spike-thresholds", "spikes are (2,2)-uniform up to rank 4, tipless up to rank 5",
     _check_spike_thresholds),
    ("f-values-2", "largest simple cosimple rank for one forbidden pair",
     _check_f_values_2),
    ("f-values-13", "corank bound 11 for (1,3), with attainers",
     _check_f_values_13),
    ("f-values-31", "rank bound 5 for (3,1) from the rank-6 search",
     _check_f_values_31),
    ("f-recursion", "f(2,2,2) meets the recursive bound with equality",
     _check_f_recursion),
    ("rank-corank-cap", "census members have rank or corank at most 5",
     _check_rank_corank_cap),
    ("census", "two independent routes agree on the 65-member census",
     _check_census),
    ("wheel4-free",
     "census members without a rank-4 wheel minor are the spike-or-Fano ones",
     _check_wheel4_free),
    ("affine16-maximal", "AG(4,2) admits no uniform extension or coextension",
     _check_affine16_maximal),
    ("k33-extensions", "uniform extensions of M(K3,3) are the affine ones, R10 and L10",
     _check_k33_extensions),
    ("coextension-pair", "uniform coextensions: {L10} and {P10, L10}",
     _check_coextension_pair),
    ("family-soundness",
     "generated non-3-connected family is sound, dual-closed, classified",
     _check_family_soundness),
    ("family-completeness",
     "no non-3-connected uniform matroid up to 9 elements is missing",
     _check_family_completeness),
    ("disconnected-classes", "disconnected members match a structure clause",
     _check_disconnected_classes),
    ("series-pair-classes",
     "connected non-3-connected members match a structure clause",
     _check_series_pair_classes),
    ("grafts", "graft constructions match the fixed matrices",
     _check_grafts),
    ("three-sum", "3-sums of P9 and the Fano plane giving P10",
     _check_three_sum),
)

CHECK_IDS = tuple(cid for cid, _, _ in _CHECKS)


def check_info():
    return [(cid, desc) for cid, desc, _ in _CHECKS]


def run_checks(ids=None, corpus_size=500):
    """Run the named checks (all by default). Budget exhaustion inside a
    check marks it skipped."""
    table = {cid: fn for cid, _, fn in _CHECKS}
    if ids is None:
        ids = list(CHECK_IDS)
    unknown = [i for i in ids if i not in table]
    if unknown:
        raise MatroidError(f"unknown check ids: {unknown}; known: {list(CHECK_IDS)}")
    cache = _Cache(corpus_size=corpus_size)
    results = []
    for cid in ids:
        t0 = time.time()
        try:
            ok, details = table[cid](cache)
            status = "pass" if ok else "fail"
        except BudgetExhausted as exc:
            status, details = "skipped", f"budget exhausted: {exc}"
        except MatroidError as exc:
            status, details = "fail", f"error: {exc}"
        results.append(CheckResult(cid, status, details, time.time() - t0))
    return results
