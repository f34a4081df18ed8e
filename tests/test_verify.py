"""Tests for the verification harness: registry integrity, certificate
re-checking, corpus determinism, and a full fast-mode run."""

from __future__ import annotations

import pytest

from matroidkit import catalog
from matroidkit.iso import BudgetExhausted, are_isomorphic
from matroidkit.matroid import MatroidError, is_isomorphism
from matroidkit.verify import (
    CHECK_IDS,
    CheckResult,
    _iter_weightings,
    check_info,
    random_linear_corpus,
    run_checks,
)


def test_registry_integrity():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 21
    info = check_info()
    assert [cid for cid, _, _ in info] == list(CHECK_IDS)
    slow = {cid for cid, is_slow, _ in info if is_slow}
    assert slow == {"f-values-31", "family-completeness"}
    assert all(desc for _, _, desc in info)


def test_fast_run_all_green():
    results = run_checks(corpus_size=80)
    assert [r.check_id for r in results] == list(CHECK_IDS)
    by_status = {s: [r.check_id for r in results if r.status == s]
                 for s in ("pass", "fail", "skipped")}
    assert by_status["fail"] == []
    assert by_status["skipped"] == ["f-values-31", "family-completeness"]
    assert all(r.runtime >= 0 and r.details for r in results)
    assert all(r.ok for r in results)


def test_slow_checks_pass():
    results = run_checks(ids=["f-values-31", "family-completeness"], slow=True)
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
                        (("tiny", False, "always exhausts", boom),))
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
