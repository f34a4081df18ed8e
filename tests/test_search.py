"""Tests for the exhaustive search module: orderly generation, extension and
coextension enumeration, f values, and the 3-connected (2,2)-uniform census."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from matroidkit import catalog, search
from matroidkit.gf import GFMatrix, rref, subspace_masks
from matroidkit.iso import (
    BudgetExhausted,
    NotBinary,
    are_isomorphic,
    canonical_point_set,
    is_canonical_point_set,
    iso_key,
)
from matroidkit.matroid import MatroidError, from_matrix, is_binary_affine
from matroidkit.search import (
    SearchConfig,
    SearchReport,
    _minor_closure_3connected,
    _node_state,
    _passes_kl,
    census_seeds,
    coextensions,
    compute_f,
    enumerate_kl_uniform,
    extensions,
    kl_uniform_points,
)
from matroidkit.uniformity import is_kl_uniform_flats
from matroidkit.verify import random_linear_corpus


def iso(a, b):
    return are_isomorphic(a, b) is not None


def members_at(census, rank, size):
    return [m for m in census.representatives if (m.rank(), m.n) == (rank, size)]


def test_rank2_simple_11_uniform():
    rep = enumerate_kl_uniform(SearchConfig(r=2, k=1, l=1))
    assert rep.counts == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (2, 3): 1}
    sizes = sorted((m.rank(), m.n) for m in rep.representatives)
    assert sizes == [(0, 0), (1, 1), (2, 2), (2, 3)]


def test_rank5_21_simple_cosimple_tops_out_at_rank_4():
    cfg = SearchConfig(r=5, k=2, l=1, require_cosimple=True)
    rep = enumerate_kl_uniform(cfg)
    assert rep.counts == {(0, 0): 1, (3, 6): 1, (3, 7): 1, (4, 7): 1, (4, 8): 1}
    assert rep.max_rank == 4
    assert not any(m.rank() == 5 for m in rep.representatives)
    big = [m for m in rep.representatives if (m.rank(), m.n) == (4, 8)]
    assert iso(big[0], catalog.named("AG32"))


def test_rank5_22_simple_class_count():
    rep = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2))
    assert len(rep.representatives) == 88
    assert rep.stats["kept"] == 88
    # distinct point values: every enumerated node is simple, so no node is
    # filtered and kept equals nodes
    assert rep.stats["nodes"] == 88


def test_enumeration_isomorph_free():
    rep = enumerate_kl_uniform(SearchConfig(r=4, k=2, l=2))
    keys = [iso_key(m) for m in rep.representatives]
    assert len(keys) == len(set(keys))
    rng = random.Random(1207)
    for _ in range(12):
        a, b = rng.sample(range(len(rep.representatives)), 2)
        assert not iso(rep.representatives[a], rep.representatives[b])


def test_forms_are_canonical_under_random_basis_change():
    rep = enumerate_kl_uniform(SearchConfig(r=4, k=2, l=2))
    rng = random.Random(417)
    r = 4
    for _ in range(40):
        form = rng.choice([f for f in rep.forms if f])
        while True:
            imgs = [rng.randrange(1, 1 << r) for _ in range(r)]
            rows = tuple(tuple(v >> (r - 1 - i) & 1 for i in range(r)) for v in imgs)
            if rref(GFMatrix(2, rows))[1] == r:
                break
        mapped = []
        for v in form:
            w = 0
            for i in range(r):
                if v >> (r - 1 - i) & 1:
                    w ^= imgs[i]
            mapped.append(w)
        assert canonical_point_set(mapped) == form


def test_subspace_prune_matches_flats_oracle():
    # any child rejected by the subspace count really fails (k, l)-uniformity;
    # rank 5 is the smallest ambient where (2, 2) can fail on distinct points
    rep = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2))
    subs = subspace_masks(5)
    rng = random.Random(2718)
    checked = 0
    for form in rep.forms:
        start = form[-1] + 1 if form else 1
        for v in range(start, 32):
            pmask, span, rank = _node_state(form + (v,))
            if _passes_kl(pmask, rank, 2, 2, subs):
                continue
            if rng.random() < 0.12:
                child = from_matrix(GFMatrix.from_point_values(list(form) + [v], 5))
                assert is_kl_uniform_flats(child, 2, 2)[0] is False
                checked += 1
    assert checked >= 30


def test_budget_checkpoint_resume(tmp_path, monkeypatch):
    path = str(tmp_path / "ck.json")
    clean = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2))
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", 10)
    cfg = SearchConfig(r=5, k=2, l=2, budget=40, checkpoint=path)
    with pytest.raises(BudgetExhausted):
        enumerate_kl_uniform(cfg)
    resumed = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2, checkpoint=path),
                                   resume=path)
    assert resumed.forms == clean.forms
    assert resumed.counts == clean.counts
    assert resumed.stats == clean.stats  # the node held in the checkpoint counts once
    with pytest.raises(MatroidError):
        enumerate_kl_uniform(SearchConfig(r=5, k=2, l=1), resume=path)


def test_resume_from_a_periodic_checkpoint(tmp_path, monkeypatch):
    # stop the run right after its second periodic checkpoint, then resume
    path = str(tmp_path / "ck.json")
    clean = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2))
    write = search._write_checkpoint
    written = []

    class Stopped(Exception):
        pass

    def write_then_stop(*args):
        write(*args)
        written.append(args[0].checkpoint)
        if len(written) == 2:
            raise Stopped

    monkeypatch.setattr(search, "_write_checkpoint", write_then_stop)
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", 10)
    with pytest.raises(Stopped):
        enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2, checkpoint=path))
    monkeypatch.setattr(search, "_write_checkpoint", write)
    with open(path) as fh:
        assert json.load(fh)["stats"]["nodes"] == 19  # the 20th node is on the stack
    resumed = enumerate_kl_uniform(SearchConfig(r=5, k=2, l=2), resume=path)
    assert (resumed.forms, resumed.counts, resumed.stats) == (
        clean.forms, clean.counts, clean.stats)


def _reference_orderly(cfg):
    """A plain orderly search: every child P + v with v above max(P) gets the
    full subspace count and the full canonicity test."""
    subs = subspace_masks(cfg.r)
    forms, counts = [], Counter()
    stats = {"nodes": 0, "kept": 0, "pruned_uniformity": 0, "pruned_canonical": 0}
    stack = [()]
    while stack:
        points = stack.pop()
        stats["nodes"] += 1
        m = from_matrix(GFMatrix.from_point_values(list(points), cfg.r))
        if ((not cfg.require_cosimple or m.is_cosimple())
                and (not cfg.require_3connected or m.is_3connected())):
            stats["kept"] += 1
            counts[m.rank(), len(points)] += 1
            forms.append(points)
        if cfg.max_size is not None and len(points) >= cfg.max_size:
            continue
        for v in range((points[-1] if points else 0) + 1, 1 << cfg.r):
            child = points + (v,)
            mask = sum(1 << (p - 1) for p in child)
            rank = from_matrix(GFMatrix.from_point_values(list(child), cfg.r)).rank()
            if not _passes_kl(mask, rank, cfg.k, cfg.l, subs):
                stats["pruned_uniformity"] += 1
            elif not is_canonical_point_set(child):
                stats["pruned_canonical"] += 1
            else:
                stack.append(child)
    forms.sort(key=lambda p: (len(p), p))
    return forms, dict(counts), stats


def _is_point_automorphism(g, points):
    # g maps the points onto themselves and is linear wherever that is visible
    pts = set(points)
    if {g[p] for p in points} != pts:
        return False
    return all(g[a ^ b] == g[a] ^ g[b] for a in points for b in points if a ^ b in pts)


@pytest.mark.parametrize("kwargs", [
    dict(r=5, k=2, l=2),
    dict(r=5, k=3, l=1),
    dict(r=5, k=1, l=3),
    dict(r=4, k=1, l=2),
    dict(r=4, k=1, l=1),
    dict(r=5, k=2, l=2, require_cosimple=True, require_3connected=True),
    dict(r=5, k=2, l=1, require_cosimple=True),
    dict(r=5, k=1, l=2, max_size=6),
])
def test_search_shortcuts_match_a_plain_orderly_search(kwargs, monkeypatch):
    cfg = SearchConfig(**kwargs)
    want = _reference_orderly(cfg)
    calls = []

    def checked(points, weights=None, autos=None):
        # every automorphism handed to a test, and every one a passing test
        # leaves for the node's children, maps the node onto itself
        seeds = len(autos)
        assert all(_is_point_automorphism(g, points) for g in autos)
        verdict = is_canonical_point_set(points, weights, autos)
        calls.append(verdict)
        if verdict:
            assert all(_is_point_automorphism(g, points) for g in autos[seeds:])
        return verdict

    monkeypatch.setattr(search, "is_canonical_point_set", checked)
    got = enumerate_kl_uniform(cfg)
    assert (got.forms, got.counts, got.stats) == want
    assert 0 < len(calls) < got.stats["pruned_canonical"] + got.stats["nodes"]


def test_config_validation():
    with pytest.raises(MatroidError):
        SearchConfig(r=7, k=2, l=2)
    with pytest.raises(MatroidError):
        SearchConfig(r=4, k=0, l=2)
    with pytest.raises(MatroidError):
        SearchConfig(r=4, k=2, l=2, budget=0)


def test_point_count_uniformity_matches_flats_oracle():
    rng = random.Random(90125)
    non_uniform = 0
    for _ in range(300):
        r = rng.randint(1, 5)
        n = rng.randint(1, 9)
        cols = [rng.randrange(0, 1 << r) for _ in range(n)]
        rows = tuple(tuple(c >> (r - 1 - i) & 1 for c in cols) for i in range(r))
        m = from_matrix(GFMatrix(2, rows))
        k = rng.randint(1, 4)
        l = rng.randint(1, 6 - k)
        fast = kl_uniform_points(m, k, l)
        assert fast == is_kl_uniform_flats(m, k, l)[0]
        non_uniform += not fast
    assert non_uniform > 40


def test_point_count_rejects_nonpositive_k_and_l():
    f7 = catalog.named("F7")
    for k, l in ((0, 1), (1, 0), (2, -1), (-1, 2)):
        with pytest.raises(MatroidError, match="k and l must be positive"):
            kl_uniform_points(f7, k, l)
    # F7 fills PG(2,2), so no candidate would ever reach the predicate
    with pytest.raises(MatroidError, match="k and l must be positive"):
        extensions(f7, (0, 2))


def test_extensions_of_mk33():
    mk33 = catalog.named("MK33")
    kept = extensions(mk33, (2, 2))
    assert len(kept) == 2
    assert sorted(iso(m, catalog.named(nm)) for m in kept for nm in ("L10", "R10")
                  ).count(True) == 2
    # of the four extension classes, uniformity coincides with affineness
    every = extensions(mk33, lambda m: True)
    assert len(every) == 4
    for m in every:
        assert is_binary_affine(m) == is_kl_uniform_flats(m, 2, 2)[0]


def test_extensions_of_mw4():
    mw4 = catalog.named("MW4")
    every = extensions(mw4, lambda m: True)
    assert len(every) == 3
    for nm in ("MK5e", "P9"):
        assert sum(iso(m, catalog.named(nm)) for m in every) == 1
    assert sum(iso(m, catalog.named("MK33").dual()) for m in every) == 1
    assert len(extensions(mw4, (2, 2))) == 3


def test_extensions_edge_cases():
    assert extensions(catalog.uniform(2, 3), lambda m: m.is_simple()) == []
    ag42 = catalog.geometry("AG", 4)
    assert extensions(ag42, (2, 2)) == []
    doubled = from_matrix(GFMatrix.from_point_values([1, 1, 2], 2))
    with pytest.raises(MatroidError):
        extensions(doubled, (2, 2))


def test_coextensions_named_identities():
    co = coextensions(catalog.named("MK5e"), (2, 2))
    assert len(co) == 1 and iso(co[0], catalog.named("L10"))
    co = coextensions(catalog.named("P9"), (2, 2))
    assert len(co) == 2
    assert sum(iso(m, catalog.named("P10")) for m in co) == 1
    assert sum(iso(m, catalog.named("L10")) for m in co) == 1
    assert coextensions(catalog.geometry("AG", 4), (2, 2)) == []


def test_coextensions_contract_back():
    mw4 = catalog.named("MW4")
    every = coextensions(mw4, lambda m: True)
    assert every
    for m in every:
        assert m.rank() == mw4.rank() + 1
        assert m.labels[-1] == "x"
        assert iso(m.contract(1 << (m.n - 1)), mw4)


def test_compute_f_values():
    assert compute_f(2, 1, 5) == 4
    assert compute_f(1, 2, 5) == 4
    assert compute_f(1, 3, 5) == 11
    assert compute_f(2, 2, 5) == 5
    assert compute_f(3, 1, 6) == 5
    with pytest.raises(MatroidError):
        compute_f(1, 1)


def test_census_size_and_extremes(census):
    assert census.stats["census_size"] == 65
    assert len(census.representatives) == 65
    assert census.f_value == 11
    assert census.max_rank == 11
    top = [m for m in census.representatives if m.rank() == 11]
    assert sorted(m.n for m in top) == [15, 16]
    assert iso(top[-1], catalog.geometry("AG", 4).dual())
    assert sum(iso(m, catalog.geometry("PG", 3).dual()) for m in top) == 1


def test_census_counts_frozen(census):
    assert census.counts == {
        (0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
        (3, 6): 1, (3, 7): 1,
        (4, 7): 1, (4, 8): 3, (4, 9): 4, (4, 10): 4, (4, 11): 3, (4, 12): 2,
        (4, 13): 1, (4, 14): 1, (4, 15): 1,
        (5, 9): 4, (5, 10): 5, (5, 11): 2, (5, 12): 2, (5, 13): 1, (5, 14): 1,
        (5, 15): 1, (5, 16): 1,
        (6, 10): 4, (6, 11): 2, (7, 11): 3, (7, 12): 2, (8, 12): 2, (8, 13): 1,
        (9, 13): 1, (9, 14): 1, (10, 14): 1, (10, 15): 1, (11, 15): 1, (11, 16): 1,
    }


def test_census_named_members(census):
    keys = {iso_key(m) for m in census.representatives}
    ag42 = catalog.geometry("AG", 4)
    expected = [
        catalog.uniform(0, 0), catalog.uniform(0, 1), catalog.uniform(1, 1),
        catalog.uniform(1, 2), catalog.uniform(1, 3), catalog.uniform(2, 3),
        catalog.named("MW3"), catalog.named("F7"), catalog.named("F7*"),
        catalog.named("AG32"), catalog.named("S8"), catalog.named("MW4"),
        catalog.named("P9"), catalog.named("MK5e"), catalog.named("MK33"),
        catalog.named("MK33*"), catalog.spike(4), catalog.spike(4).dual(),
        catalog.spike_minus_tip(5), catalog.named("P10"), catalog.named("L10"),
        catalog.named("L10").dual(), catalog.named("R10"),
        catalog.geometry("PG", 3), ag42, ag42.dual(),
    ]
    for m in expected:
        assert iso_key(m) in keys, m.name


def test_census_level_identifications(census):
    four_nine = members_at(census, 4, 9)
    names = [catalog.spike(4), catalog.named("P9"), catalog.named("MK5e"),
             catalog.named("MK33").dual()]
    assert len(four_nine) == 4
    for c in names:
        assert sum(iso(m, c) for m in four_nine) == 1
    five_ten = members_at(census, 5, 10)
    names = [catalog.spike_minus_tip(5), catalog.named("P10"),
             catalog.named("L10"), catalog.named("L10").dual(),
             catalog.named("R10")]
    assert len(five_ten) == 5
    for c in names:
        assert sum(iso(m, c) for m in five_ten) == 1
    # tipless rank-5 spike is self-dual, the rank-5 graft pair is not
    z5t = catalog.spike_minus_tip(5)
    assert iso(z5t, z5t.dual())
    assert not iso(catalog.named("L10"), catalog.named("L10").dual())


def test_census_closed_under_duality(census):
    keys = {iso_key(m) for m in census.representatives}
    for m in census.representatives:
        assert iso_key(m.dual()) in keys


def full_minor_closure(seeds):
    """Reference closure: every element deleted and contracted, no orbit
    pruning.  Returns (keys of the 3-connected members with n >= 4, children
    keyed)."""
    visited = {}
    for m in seeds:
        visited.setdefault(iso_key(m.reduced()), m.reduced())
    queue = list(visited.values())
    children = 0
    while queue:
        m = queue.pop()
        for e in range(m.n):
            for child in (m.delete(1 << e).reduced(), m.contract(1 << e).reduced()):
                children += 1
                key = iso_key(child)
                if key not in visited:
                    visited[key] = child
                    queue.append(child)
    return {key for key, m in visited.items() if m.n >= 4 and m.is_3connected()}, children


def test_orbit_pruned_closure_matches_full_closure_on_seeds(census):
    keys, children = _minor_closure_3connected(census_seeds())
    full_keys, full_children = full_minor_closure(census_seeds())
    assert set(keys) == full_keys
    assert (children, full_children) == (220, 1304)
    assert census.stats["closure_children"] == children
    assert census.stats["census_size"] == 65


def test_orbit_pruned_closure_matches_full_closure_on_corpus():
    corpus = [m.reduced() for m in random_linear_corpus(200, seed=57, qs=(2,), n_max=14)]
    seeds = list({iso_key(m): m for m in corpus if m.n >= 4 and m.is_3connected()}.values())
    assert len(seeds) >= 10
    keys, children = _minor_closure_3connected(seeds)
    full_keys, full_children = full_minor_closure(seeds)
    assert set(keys) == full_keys
    assert children < full_children


def test_census_members_are_uniform_and_3connected(census):
    rng = random.Random(31415)
    sample = rng.sample(census.representatives, 12)
    for m in sample:
        assert m.is_3connected()
        assert is_kl_uniform_flats(m, 2, 2)[0]


def test_census_seeds_are_maximal():
    for m in census_seeds():
        if m.rank() <= 6:
            assert extensions(m, (2, 2)) == []
        if m.rank() <= 5:
            assert coextensions(m, (2, 2)) == []


def test_report_json_round_trip(census):
    d = census.to_json_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["schema"] == 1
    assert back["f_value"] == 11
    assert len(back["representatives"]) == 65
    assert [5, 16, 1] in back["counts"]
    rep = enumerate_kl_uniform(SearchConfig(r=3, k=2, l=2))
    d = rep.to_json_dict()
    assert d["config"]["r"] == 3
    assert sum(c for _, _, c in d["counts"]) == len(rep.representatives)


def test_report_json_rejects_a_member_without_text_form():
    # U(2,4) is a rank table with no GF(2) representation
    rep = SearchReport(config=None, representatives=[catalog.uniform(2, 4)],
                       forms=None, counts={}, max_rank=2, f_value=None,
                       stats={}, wall_time=0.0)
    with pytest.raises(MatroidError):
        rep.to_json_dict()


def test_subspace_searches_reject_a_non_binary_matroid():
    u24 = catalog.uniform(2, 4)
    with pytest.raises(NotBinary):
        kl_uniform_points(u24, 2, 2)
    with pytest.raises(NotBinary):
        coextensions(u24, (2, 2))
