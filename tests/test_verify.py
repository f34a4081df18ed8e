"""Tests for the verification harness: registry integrity, certificate
re-checking, corpus determinism, and a full run."""

from __future__ import annotations

import itertools

import pytest

from matroidkit import catalog, matroid, verify
from matroidkit.gf import _flats
from matroidkit.iso import BudgetExhausted, are_isomorphic
from matroidkit.matroid import MatroidError, is_isomorphism
from matroidkit.uniformity import is_kl_uniform_flats
from matroidkit.verify import (
    CHECK_IDS,
    CheckResult,
    _iter_weightings,
    check_info,
    random_linear_corpus,
    run_checks,
)


# (id, status, details) of every check in run_checks(corpus_size=80)
FAST_RUN = [
    ("oracle-agreement", "pass", "flat and minor deciders agree on 1395/1395 queries"),
    ("circuit-pairs", "pass", "circuit-pair decider agrees on 93/93 matroids"),
    ("duality-monotonicity", "pass",
     "1395 duality flips and 1860 monotonicity steps, 0 violations"),
    ("p10-facts", "pass",
     "self-dual, contract 5 delete 10 gives the rank-4 wheel, contract 8 gives the "
     "rank-4 spike: [True, True, True]"),
    ("spike-thresholds", "pass",
     "spikes and their tip and leg deletions, ranks 3..6: 12 cells, mismatches none"),
    ("f-values-2", "pass",
     "f(2,1,2)=4, f(1,2,2)=4; rank-5 family empty: True; rank-4 family contains "
     "AG(3,2): True"),
    ("f-values-13", "pass", "f(1,3,2)=11, attained at (rank, size) [(4, 15), (5, 16)]"),
    ("f-values-31", "pass", "f(3,1,2)=5 from the rank-6 cap search"),
    ("f-recursion", "pass",
     "f(2,2,2)=11 <= max(f(1,3,2), f(1,2,2)+1)=11, met with equality"),
    ("rank-corank-cap", "pass", "max over census of min(rank, corank) = 5"),
    ("census", "pass",
     "two routes agree on 65 members (expected 65); members present: {'tipless "
     "rank-5 spike': True, 'P10': True, 'AG(4,2)': True, 'AG(4,2)*': True, 'MW4': "
     "True}; dual-closed: True; triple-oracle sample: True"),
    ("wheel4-free", "pass",
     "14 census members have no rank-4 wheel minor (expected the 14 spike-or-Fano "
     "members): match True"),
    ("affine16-maximal", "pass",
     "15/15 single-point extensions fail; coextension search found 0 members"),
    ("k33-extensions", "pass",
     "4 extension classes, affine iff uniform: True, uniform ones: ['L10', 'R10']"),
    ("coextension-pair", "pass",
     "coextensions: M(K5 minus e) gives {L10}: True; P9 gives {P10, L10}: True"),
    ("family-soundness", "pass",
     "393 members all uniform and not 3-connected (violations: none), isomorph-free: "
     "True, dual-closed: True, structure clauses: {'C-i': 73, 'C-ii': 49, 'C-iii': "
     "16, 'D-i': 152, 'D-ii': 93, 'D-iii': 10}"),
    ("family-completeness", "pass",
     "5066 weighted configurations scanned up to 9 elements, 717 uniform, missing "
     "from family: none"),
    ("disconnected-classes", "pass",
     "255 disconnected members classified: {'D-i': 152, 'D-ii': 93, 'D-iii': 10}"),
    ("series-pair-classes", "pass",
     "138 connected non-3-connected members classified: {'C-i': 73, 'C-ii': 49, "
     "'C-iii': 16}"),
    ("grafts", "pass",
     "graft constructions match matrices by canonical form, mismatches: none"),
    ("three-sum", "pass",
     "3-sums with the Fano plane giving P10: [('1', '2', '5'), ('1', '6', '9'), "
     "('2', '3', '6'), ('3', '5', '9')]; others: [('1', '4', '8'), ('3', '4', '7')]"),
]


def test_registry_integrity():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 21
    info = check_info()
    assert [cid for cid, _ in info] == list(CHECK_IDS)
    assert all(desc for _, desc in info)


def test_fast_run_all_green(fast_run):
    results = fast_run
    assert [r.check_id for r in results] == list(CHECK_IDS)
    by_status = {s: [r.check_id for r in results if r.status == s]
                 for s in ("pass", "fail", "skipped")}
    assert by_status["fail"] == by_status["skipped"] == []
    assert all(r.runtime >= 0 and r.details for r in results)
    assert all(r.ok for r in results)


def test_fast_run_details_are_unchanged(fast_run):
    assert [(r.check_id, r.status, r.details) for r in fast_run] == FAST_RUN


def test_oracle_agreement_catches_a_walk_that_loses_flats(monkeypatch):
    """The minor side of oracle-agreement asks a rank table, which scans its
    t-sets without the flats walk both deciders read on a matrix, so a walk
    that drops the last flat and basis of every rank from 2 up is caught."""

    def lossy(mat, k, cols, *root):
        return tuple(tuple(got[:-1] if j >= 2 else got for j, got in enumerate(side))
                     for side in _flats(mat, k, cols, *root))

    monkeypatch.setattr(matroid, "_flats", lossy)
    [result] = run_checks(ids=["oracle-agreement"], corpus_size=80)
    assert result.status == "fail", result.details


def test_oracle_agreement_catches_a_walk_that_records_short_bases(monkeypatch):
    """A walk that records each basis of rank 1 or more without its highest
    element keeps every flat, so the verdicts still agree; the matrix's
    minor witnesses, read from those bases, differ from the rank table's."""

    def short(mat, k, cols, *root):
        flats, bases = _flats(mat, k, cols, *root)
        return flats, [tuple(b ^ 1 << b.bit_length() - 1 for b in got) if j else got
                       for j, got in enumerate(bases)]

    monkeypatch.setattr(matroid, "_flats", short)
    [result] = run_checks(ids=["oracle-agreement"], corpus_size=80)
    assert result.status == "fail"
    assert result.details == "flat and minor deciders agree on 1214/1395 queries"


def test_duality_monotonicity_catches_a_wrong_flip(monkeypatch):
    """A decider that negates every second answer, the dual side of each
    flip, keeps the primal verdicts and so every monotonicity step."""
    calls = itertools.count()

    def flipping(m, k, l):
        verdict, witness = is_kl_uniform_flats(m, k, l)
        return (not verdict if next(calls) % 2 else verdict), witness

    monkeypatch.setattr(verify, "is_kl_uniform_flats", flipping)
    [result] = run_checks(ids=["duality-monotonicity"], corpus_size=0)
    assert result.status == "fail"
    assert result.details == "195 duality flips and 260 monotonicity steps, 195 violations"


def test_duality_monotonicity_catches_a_step_down(monkeypatch):
    """A decider that calls every matroid (1,1)-uniform agrees with itself
    under duality, since (1,1) is its own flip, but fails a step up to
    (2,1) or (1,2)."""

    def generous(m, k, l):
        return (True, None) if (k, l) == (1, 1) else is_kl_uniform_flats(m, k, l)

    monkeypatch.setattr(verify, "is_kl_uniform_flats", generous)
    [result] = run_checks(ids=["duality-monotonicity"], corpus_size=0)
    assert result.status == "fail"
    assert result.details == "195 duality flips and 260 monotonicity steps, 18 violations"


def test_family_soundness_catches_a_3_connected_member(monkeypatch):
    fano = [e for e in catalog.entries() if e.name == "F7"]
    family = catalog.cor33_family
    monkeypatch.setattr(catalog, "cor33_family", lambda: family() + fano)
    [result] = run_checks(ids=["family-soundness"])
    assert result.status == "fail"
    assert "394 members all uniform and not 3-connected (violations: ['F7'])" in result.details


def test_family_completeness_catches_missing_members_in_both_scans(monkeypatch):
    """A family built to 8 elements misses the 9-element matroids: those of
    rank at most 6 in the orderly scan, and those of rank 7 or more in the
    scan of rank-2 duals."""
    family = catalog.cor33_family
    monkeypatch.setattr(catalog, "cor33_family", lambda max_n=10: family(8))
    [result] = run_checks(ids=["family-completeness"])
    assert result.status == "fail"
    assert "missing from family: [((" in result.details  # the orderly scan's first
    assert "('dual', " in result.details


def test_library_error_marks_failed(monkeypatch):
    def broken(cache):
        raise MatroidError("bad input")

    monkeypatch.setattr(verify, "_CHECKS", (("tiny", "always raises", broken),))
    monkeypatch.setattr(verify, "CHECK_IDS", ("tiny",))
    (r,) = verify.run_checks()
    assert (r.status, r.details) == ("fail", "error: bad input")


def test_slow_checks_pass():
    # The two checks that once sat behind a slow gate now run by default.
    results = run_checks(ids=["f-values-31", "family-completeness"])
    assert [r.status for r in results] == ["pass", "pass"]
    assert "f(3,1,2)=5" in results[0].details
    assert "missing from family: none" in results[1].details


def test_selected_subset_order_and_unknown_id():
    results = run_checks(ids=["grafts", "p10-facts"])
    assert [r.check_id for r in results] == ["grafts", "p10-facts"]
    with pytest.raises(MatroidError):
        run_checks(ids=["nonsense-check"])


def test_budget_exhaustion_marks_skipped(monkeypatch):
    import matroidkit.verify as verify

    def boom(cache):
        raise BudgetExhausted("ran out")

    monkeypatch.setattr(verify, "_CHECKS",
                        (("tiny", "always exhausts", boom),))
    monkeypatch.setattr(verify, "CHECK_IDS", ("tiny",))
    (r,) = verify.run_checks()
    assert r.status == "skipped"
    assert "ran out" in r.details


def test_certificate_checker():
    f7 = catalog.named("F7")
    shuffled = f7.relabel({lab: f"e{lab}" for lab in f7.labels})
    cert = are_isomorphic(f7, shuffled)
    assert cert is not None
    assert is_isomorphism(f7, shuffled, cert)
    # swap two images that are not interchangeable by an automorphism fixing
    # the rest: the rank of some subset must break
    bad = dict(cert)
    ks = sorted(bad)
    found_bad = False
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            trial = dict(bad)
            trial[ks[i]], trial[ks[j]] = trial[ks[j]], trial[ks[i]]
            if not is_isomorphism(f7, shuffled, trial):
                found_bad = True
                break
        if found_bad:
            break
    assert found_bad
    # wrong key set is rejected outright
    assert not is_isomorphism(f7, shuffled, {"1": "e1"})


def test_corpus_is_deterministic_and_varied():
    a = random_linear_corpus(40, seed=9)
    b = random_linear_corpus(40, seed=9)
    assert len(a) == len(b) == 40
    for ma, mb in zip(a, b):
        assert ma.n == mb.n and ma.rank() == mb.rank()
        assert [ma.r(x) for x in range(min(1 << ma.n, 256))] == \
               [mb.r(x) for x in range(min(1 << mb.n, 256))]
    c = random_linear_corpus(40, seed=10)
    assert any(ma.n != mc.n or ma.rank() != mc.rank() for ma, mc in zip(a, c))
    sizes = {m.n for m in a}
    assert len(sizes) > 3


def test_weightings_iterator():
    got = set(_iter_weightings(2, 4))
    assert got == {((1, 1), 0), ((1, 1), 1), ((1, 1), 2),
                   ((2, 1), 0), ((1, 2), 0), ((2, 1), 1), ((1, 2), 1),
                   ((3, 1), 0), ((1, 3), 0), ((2, 2), 0)}
    assert set(_iter_weightings(0, 2)) == {((), 0), ((), 1), ((), 2)}
    for mults, loops in _iter_weightings(3, 6):
        assert len(mults) == 3 and min(mults) >= 1 and loops >= 0
        assert sum(mults) + loops <= 6


def test_checkresult_ok_property():
    assert CheckResult("x", "pass", "", 0.0).ok
    assert CheckResult("x", "skipped", "", 0.0).ok
    assert not CheckResult("x", "fail", "", 0.0).ok
