"""Acceptance gate: one test per shipped claim, each asserting exact frozen
values inside its stated wall-clock budget. Run with -v for one pass/fail
line per criterion."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from matroidkit import catalog
from matroidkit.gf import GFMatrix
from matroidkit.iso import are_isomorphic, binary_canonical_form, has_minor, iso_key
from matroidkit.matroid import (
    binary_three_sum,
    from_matrix,
    graft_matroid,
    is_binary_affine,
    is_isomorphism,
)
from matroidkit.search import (
    SearchConfig,
    coextensions,
    compute_f,
    enumerate_kl_uniform,
    extensions,
    kl_uniform_points,
)
from matroidkit.uniformity import (
    is_22_uniform_circuits,
    is_kl_uniform_flats,
    is_kl_uniform_minor,
)
from matroidkit.verify import (
    _Cache,
    _check_family_completeness,
    _check_family_soundness,
    check_info,
    random_linear_corpus,
)

PAIRS = [(k, l) for k in range(1, 6) for l in range(1, 6) if k + l <= 6]

EXTRA_CATALOG = ("PG(2,2)", "PG(3,2)", "AG(3,2)", "AG(4,2)", "AG(4,2)*",
                 "Z3", "Z4", "Z5", "Z6", "Z4-t", "Z5-t", "Z6-t",
                 "Z4-y", "Z5-y", "Z6-y", "U11", "U24", "U36")


@pytest.fixture(scope="module")
def corpus():
    ms = [e.matroid for e in catalog.entries()]
    ms += [catalog.resolve(u) for u in EXTRA_CATALOG]
    ms += random_linear_corpus(500, seed=4711)
    return ms


def _iso(a, b):
    return are_isomorphic(a, b) is not None


def test_criterion_01_oracle_equivalence(corpus):
    t0 = time.time()
    queries = 0
    for m in corpus:
        for k, l in PAIRS:
            assert is_kl_uniform_flats(m, k, l)[0] == is_kl_uniform_minor(m, k, l)[0]
            queries += 1
        assert is_22_uniform_circuits(m) == is_kl_uniform_flats(m, 2, 2)[0]
    assert len(corpus) == 531 and queries == 531 * 15
    assert time.time() - t0 < 120
    print(f"criterion 1 PASS: 3 deciders agree on {queries} queries over "
          f"{len(corpus)} matroids")


def test_criterion_02_duality_and_monotonicity(corpus):
    t0 = time.time()
    for m in corpus:
        d = m.dual()
        verdicts = {}
        for k, l in PAIRS:
            verdicts[k, l] = is_kl_uniform_flats(m, k, l)[0]
            assert verdicts[k, l] == is_kl_uniform_flats(d, l, k)[0]
        for (k, l), ok in verdicts.items():
            for up in ((k + 1, l), (k, l + 1)):
                if up in verdicts and ok:
                    assert verdicts[up]
    assert time.time() - t0 < 60
    print("criterion 2 PASS: duality flip and upward monotonicity, 0 exceptions")


def test_criterion_03_p10_facts():
    t0 = time.time()
    p10 = catalog.named("P10")
    cert = are_isomorphic(p10, p10.dual())
    assert cert is not None and is_isomorphism(p10, p10.dual(), cert)
    m = p10.contract(p10.mask_of(["5"]))
    m = m.delete(m.mask_of(["10"]))
    cert = are_isomorphic(m, catalog.named("MW4"))
    assert cert is not None and is_isomorphism(m, catalog.named("MW4"), cert)
    m = p10.contract(p10.mask_of(["8"]))
    cert = are_isomorphic(m, catalog.spike(4))
    assert cert is not None and is_isomorphism(m, catalog.spike(4), cert)
    assert time.time() - t0 < 5
    print("criterion 3 PASS: P10 self-dual, /5\\10 = rank-4 wheel, /8 = rank-4 "
          "spike, certificates re-verified")


def test_criterion_04_spike_table():
    t0 = time.time()
    for r in range(3, 7):
        assert is_kl_uniform_flats(catalog.spike(r), 2, 2)[0] == (r <= 4)
        assert is_kl_uniform_flats(catalog.spike_minus_y(r), 2, 2)[0] == (r <= 4)
        assert is_kl_uniform_flats(catalog.spike_minus_tip(r), 2, 2)[0] == (r <= 5)
    assert time.time() - t0 < 10
    print("criterion 4 PASS: spike thresholds exact on all 12 cells, r = 3..6")


def test_criterion_05_f_values():
    t0 = time.time()
    assert compute_f(2, 1) == 4
    assert compute_f(1, 2) == 4
    rank5 = enumerate_kl_uniform(
        SearchConfig(r=5, k=2, l=1, require_simple=True, require_cosimple=True))
    assert not any(m.rank() == 5 for m in rank5.representatives)
    assert any(m.rank() == 4 for m in rank5.representatives)
    assert compute_f(1, 3) == 11
    dual_side = enumerate_kl_uniform(
        SearchConfig(r=5, k=3, l=1, require_simple=True, require_cosimple=True))
    attained = {(m.rank(), m.n) for m in dual_side.representatives
                if m.n - m.rank() == 11}
    assert attained == {(4, 15), (5, 16)}
    assert compute_f(3, 1, r_max=6) == 5
    slow_ids = {cid for cid, slow, _ in check_info() if slow}
    assert "f-values-31" in slow_ids
    assert time.time() - t0 < 300
    print("criterion 5 PASS: f(2,1,2)=f(1,2,2)=4, f(1,3,2)=11 attained at "
          "(4,15) and (5,16), f(3,1,2)=5 (slow-gated in the harness)")


def test_criterion_06_k33_extensions():
    t0 = time.time()
    mk33 = catalog.named("MK33")
    used = {i + 1 for i in binary_canonical_form(mk33)}
    assert len(set(range(1, 32)) - used) == 22
    all_exts = extensions(mk33, lambda m: True)
    assert len(all_exts) == 4
    for m in all_exts:
        assert is_binary_affine(m) == is_kl_uniform_flats(m, 2, 2)[0]
    passing = extensions(mk33, (2, 2))
    assert {iso_key(m) for m in passing} == {
        iso_key(catalog.named("R10")), iso_key(catalog.named("L10"))}
    assert time.time() - t0 < 30
    print("criterion 6 PASS: 22 candidate points, 4 classes, uniform iff "
          "affine, passing set = {R10, L10}")


def test_criterion_07_coextensions():
    t0 = time.time()
    co = coextensions(catalog.named("MK5e"), (2, 2))
    assert len(co) == 1 and _iso(co[0], catalog.named("L10"))
    co = coextensions(catalog.named("P9"), (2, 2))
    assert {iso_key(m) for m in co} == {
        iso_key(catalog.named("P10")), iso_key(catalog.named("L10"))}
    assert time.time() - t0 < 60
    print("criterion 7 PASS: coextension sets are exactly {L10} and {P10, L10}")


def test_criterion_08_census(census):
    # the constructor itself cross-checks the two routes and raises on any
    # difference, so reaching here means the sets matched
    assert census.stats["census_size"] == len(census.representatives) == 65
    keys = {iso_key(m) for m in census.representatives}
    for seed in (catalog.spike_minus_tip(5), catalog.named("P10"),
                 catalog.geometry("AG", 4), catalog.geometry("AG", 4).dual()):
        assert iso_key(seed) in keys
    for m in census.representatives:
        assert min(m.rank(), m.n - m.rank()) <= 5
        assert iso_key(m.dual()) in keys
    assert census.f_value == 11
    assert census.wall_time < 1800
    print(f"criterion 8 PASS: minor-closure route equals enumeration route, "
          f"{census.stats['census_size']} members, f(2,2,2)={census.f_value}")


def test_criterion_09_affine16_maximal():
    t0 = time.time()
    ag42 = catalog.geometry("AG", 4)
    vals = sorted(i + 1 for i in binary_canonical_form(ag42))
    unused = [v for v in range(1, 32) if v not in vals]
    assert len(unused) == 15
    for v in unused:
        ext = from_matrix(GFMatrix.from_point_values(vals + [v], 5))
        assert not kl_uniform_points(ext, 2, 2)
    assert coextensions(ag42, (2, 2)) == []
    assert time.time() - t0 < 60
    print("criterion 9 PASS: all 15 extensions of the 16-point affine "
          "geometry fail, coextension search empty")


def test_criterion_10_family_sound_and_complete():
    t0 = time.time()
    cache = _Cache()
    ok, details = _check_family_soundness(cache)
    assert ok, details
    ok, details = _check_family_completeness(cache)
    assert ok, details
    assert time.time() - t0 < 1800
    print(f"criterion 10 PASS: {details}")


def test_criterion_11_three_sum():
    t0 = time.time()
    p9 = catalog.named("P9")
    p10 = catalog.named("P10")
    f7 = catalog.named("F7")
    tri_mask = next(c for c in f7.circuits(max_size=3) if c.bit_count() == 3)
    f7_tri = list(f7.labels_of(tri_mask))
    triangles = [tuple(sorted(p9.labels_of(c), key=int))
                 for c in p9.circuits(max_size=3) if c.bit_count() == 3]
    assert len(triangles) == 6
    good = []
    for t in triangles:
        fresh = iter("abcd")
        mapping = {lab: (t[f7_tri.index(lab)] if lab in f7_tri else next(fresh))
                   for lab in f7.labels}
        s = binary_three_sum(p9, f7.relabel(mapping), t)
        if _iso(s, p10):
            good.append(t)
    assert len(good) == 4
    assert set(triangles) - set(good) == {("1", "4", "8"), ("3", "4", "7")}
    assert time.time() - t0 < 60
    print("criterion 11 PASS: 3-sum with the Fano plane gives P10 for "
          "exactly the 4 triangles avoiding element 4's pair")


def test_criterion_12_grafts():
    t0 = time.time()
    assert iso_key(catalog.named("P9")) == iso_key(
        graft_matroid(5, catalog.W4_EDGES, (0, 1, 2, 3)))
    assert iso_key(catalog.named("R10")) == iso_key(
        graft_matroid(6, catalog.K33_EDGES, (0, 1, 2, 3, 4, 5)))
    assert iso_key(catalog.named("L10")) == iso_key(
        graft_matroid(6, catalog.K33_EDGES, (0, 1, 2, 3)))
    assert time.time() - t0 < 5
    print("criterion 12 PASS: graft forms of P9, R10, L10 match their "
          "fixed matrices by canonical form")
