"""Canonical forms, isomorphism certificates, minors, orbits."""

import itertools
import random
from collections import Counter

import pytest

from matroidkit import catalog, iso
from matroidkit.gf import GFMatrix, parse_matrix
from matroidkit.iso import (
    BudgetExhausted,
    _canonical,
    are_isomorphic,
    binary_canonical_form,
    binary_representation,
    element_orbits,
    fingerprint,
    has_minor,
    is_binary,
    is_canonical_point_set,
    iso_key,
)
from matroidkit.matroid import (
    CERTIFY_CAP,
    TABLE_CAP,
    Matroid,
    MatroidError,
    RankTableRep,
    _bits,
    as_rank_table,
    binary_three_sum,
    direct_sum,
    from_graph,
    from_matrix,
    full_rank_table,
    is_isomorphism,
)
from matroidkit.search import census_seeds
from matroidkit.verify import random_linear_corpus

P10_TEXT = """2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
0 0 0 0 1 1 1 1 0 0
"""

P9_TEXT = """2 4 9
1 0 0 0 1 0 0 1 1
0 1 0 0 1 1 0 0 1
0 0 1 0 0 1 1 0 1
0 0 0 1 0 0 1 1 0
"""

F7_TEXT = """2 3 7
1 0 0 1 1 0 1
0 1 0 1 0 1 1
0 0 1 0 1 1 1
"""

Z4_TEXT = """2 4 9
1 0 0 0 0 1 1 1 1
0 1 0 0 1 0 1 1 1
0 0 1 0 1 1 0 1 1
0 0 0 1 1 1 1 0 1
"""

W4_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]


@pytest.fixture
def p10():
    return from_matrix(parse_matrix(P10_TEXT))


@pytest.fixture
def f7():
    return from_matrix(parse_matrix(F7_TEXT))


@pytest.fixture
def z4():
    return from_matrix(
        parse_matrix(Z4_TEXT),
        labels=("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4", "t"),
    )


def u_matroid(r, n, labels=None):
    table = bytes(min(bin(m).count("1"), r) for m in range(1 << n))
    return Matroid(RankTableRep(n, table), labels=labels)


def brute_min_rank3(points):
    best = None
    for a, b, c in itertools.permutations(range(1, 8), 3):
        if a ^ b == 0 or a ^ c == 0 or b ^ c == 0 or a ^ b ^ c == 0:
            continue

        def img(v):
            out = 0
            if v & 4:
                out ^= a
            if v & 2:
                out ^= b
            if v & 1:
                out ^= c
            return out

        im = tuple(sorted(img(v) for v in points))
        if best is None or im < best:
            best = im
    return best


def test_canonical_point_set_matches_brute_force_rank3():
    # every subset of PG(2,2) against the least image over all of GL(3,2)
    for mask in range(1 << 7):
        pts = tuple(v for v in range(1, 8) if mask >> (v - 1) & 1)
        want = brute_min_rank3(pts)
        form = iso._canon_search(pts, (0,) * len(pts))[0]
        assert tuple(v for v, _ in form) == want
        assert is_canonical_point_set(pts) == (pts == want)


def test_canonical_point_set_known_configurations():
    # full projective spaces are their own canonical forms
    for top in (16, 32):
        form = iso._canon_search(tuple(range(1, top)), (0,) * (top - 1))[0]
        assert tuple(v for v, _ in form) == tuple(range(1, top))
    # the affine slice (odd values) moves to the odd-popcount values
    ag42 = tuple(v for v in range(1, 32) if v & 1)
    form = iso._canon_search(ag42, (0,) * 16)[0]
    assert tuple(v for v, _ in form) == (
        1, 2, 4, 7, 8, 11, 13, 14, 16, 19, 21, 22, 25, 26, 28, 31,
    )


def gl42_images():
    """Every element of GL(4,2) as the list of images of the vectors 0..15."""
    maps = []
    for cols in itertools.permutations(range(1, 16), 4):
        img = [0] * 16
        for v in range(1, 16):
            for bit in range(4):
                if v >> bit & 1:
                    img[v] ^= cols[bit]
        if all(img[1:]):  # injective: no nonzero vector goes to 0
            maps.append(img)
    assert len(maps) == 20160
    return maps


def test_weighted_canonical_search_matches_brute_force_gl42():
    # the least sorted (image, weight) image over all of GL(4,2); weights
    # past 255 and below 0 show that the packed pairs order exactly
    maps = gl42_images()
    rng = random.Random(15)
    used = set()
    for _ in range(12):
        points = tuple(sorted(rng.sample(range(1, 16), rng.randint(2, 9))))
        weights = tuple(rng.choice((-7, 0, 1, 300)) for _ in points)
        used.update(weights)
        w = dict(zip(points, weights))
        want = min(tuple(sorted((g[p], w[p]) for p in points)) for g in maps)
        form, mapping, autos = iso._canon_search(points, weights)
        assert form == want
        assert tuple(sorted((mapping[p], w[p]) for p in points)) == form
        assert any(all(g[p] == mapping[p] for p in points) for g in maps)
        group = [g for g in maps if all(w.get(g[p]) == w[p] for p in points)]
        for g in autos:
            assert sorted(g[p] for p in points) == list(points)
            assert all(w[g[p]] == w[p] for p in points)
        # and they generate every symmetry, as permutations of the points
        generated, frontier = {points}, [points]
        while frontier:
            h = frontier.pop()
            for g in autos:
                gh = tuple(g[x] for x in h)
                if gh not in generated:
                    generated.add(gh)
                    frontier.append(gh)
        assert generated == {tuple(g[p] for p in points) for g in group}
        # the canonical form is its own representative; the input is one iff
        # it equals its form, with or without known symmetries as seeds
        image = dict(form)
        assert is_canonical_point_set(tuple(image), tuple(image.values()))
        pairs = tuple(zip(points, weights))
        for seeds in ([], rng.sample(group, min(3, len(group)))):
            known = list(seeds)
            assert is_canonical_point_set(points, weights, known) == (pairs == form)
            for g in known[len(seeds):]:
                assert sorted(g[p] for p in points) == list(points)
                assert all(w[g[p]] == w[p] for p in points)
    assert {-7, 300} <= used


def test_is_canonical_point_set_rejects_non_point_sets(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an input that is not a point set")

    monkeypatch.setattr(iso, "_canon_search", no_search)
    for points in ((0, 1), (1, 1), (3, 1, 3), (-1, 2), (1, 1 << 16)):
        with pytest.raises(MatroidError):
            is_canonical_point_set(points)
    with pytest.raises(MatroidError):
        is_canonical_point_set((2, 2), (0, 1))


def test_is_canonical_point_set_rejects_a_weight_count_mismatch(monkeypatch):
    monkeypatch.setattr(iso, "_canon_search", None)  # never reached
    for weights in ((0,), (0, 1, 2)):
        with pytest.raises(MatroidError):
            is_canonical_point_set((1, 2), weights)


def test_binary_canonical_form_invariance(p10):
    assert binary_canonical_form(p10) == (0, 1, 2, 3, 7, 12, 15, 20, 24, 29)
    rng = random.Random(3)
    mat = parse_matrix(P10_TEXT)
    for _ in range(5):
        cols = list(range(10))
        rng.shuffle(cols)
        shuffled = from_matrix(mat.select_columns(cols))
        assert binary_canonical_form(shuffled) == binary_canonical_form(p10)


def test_weighted_canonical_form_separates_markings(z4):
    s8 = z4.delete(z4.mask_of(("y4",)))
    values = s8.rep.matrix.point_values()

    def marked(label):
        i = s8._pos[label]
        return iso._canon_search(values, tuple(int(j == i) for j in range(len(values))))[0]

    assert marked("x1") == marked("x2")
    assert marked("x1") != marked("x4")
    assert marked("t") != marked("x4")


def test_p10_is_self_dual(p10):
    cert = are_isomorphic(p10, p10.dual())
    assert cert is not None
    assert sorted(cert) == sorted(p10.labels)


def test_fano_not_isomorphic_to_its_dual(f7):
    assert fingerprint(f7) != fingerprint(f7.dual())
    assert are_isomorphic(f7, f7.dual()) is None
    assert are_isomorphic(f7.dual(), f7.dual()) is not None


def test_p10_contract_8_is_the_rank4_spike(p10, z4):
    assert are_isomorphic(p10.contract(p10.mask_of(("8",))), z4) is not None


def test_iso_key_properties(p10, f7):
    mat = parse_matrix(P10_TEXT)
    shuffled = from_matrix(mat.select_columns([3, 1, 4, 0, 9, 2, 6, 8, 5, 7]))
    assert iso_key(shuffled) == iso_key(p10)
    assert iso_key(f7) != iso_key(f7.dual())
    # large rank goes through the dual
    key = iso_key(p10.dual())
    assert key[2] == "p" and key[1] == 5  # rank 5 still fits the primal side
    big = u_matroid(1, 3)
    assert iso_key(big) == iso_key(u_matroid(1, 3, labels=("a", "b", "c")))


def test_iso_key_via_dual_side():
    # rank-11 binary matroid with corank 5: the key must come from the dual
    from matroidkit.gf import GFMatrix

    ag = from_matrix(GFMatrix.from_point_values([v for v in range(1, 32) if v & 1], 5))
    key = iso_key(ag.dual())
    assert key[:3] == (16, 11, "d")
    shuffled = from_matrix(ag.rep.matrix.select_columns([5, 3, 8, 0, 12, 15, 1, 9, 2, 14, 7, 4, 11, 6, 13, 10]))
    assert iso_key(shuffled.dual()) == key
    # the dual side reads the null space of one binary representation, so a
    # rank table gives the key and orbits of the matrix it came from
    table = as_rank_table(ag.dual())
    assert iso_key(table) == key and element_orbits(table) == element_orbits(ag.dual())
    # a 9-cycle with a chord triangle: rank 8, corank 4, as a graph, as its
    # rank table and as its signed incidence matrix over GF(3)
    edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 3), (3, 6), (0, 6)]
    g = from_graph(9, edges)
    signed = GFMatrix.from_columns(3, [[1 if x == u else 2 if x == v else 0 for x in range(9)]
                                       for u, v in edges])
    forms = [g, as_rank_table(g), from_matrix(signed)]
    assert {iso_key(m) for m in forms} == {iso_key(g)} and iso_key(g)[:3] == (12, 8, "d")
    orbits = element_orbits(g)
    assert len(orbits) == 2 and all(element_orbits(m) == orbits for m in forms)


def test_three_sums_of_p9_and_fano(p10):
    p9 = from_matrix(parse_matrix(P9_TEXT))
    fano = parse_matrix(F7_TEXT)

    def fano_glued(glue):
        # columns 1, 2, 4 of the Fano matrix form a triangle
        return from_matrix(fano, labels=(glue[0], glue[1], "a", glue[2], "b", "c", "d"))

    good = [("1", "2", "5"), ("2", "3", "6"), ("1", "6", "9"), ("3", "5", "9")]
    bad = [("1", "4", "8"), ("3", "4", "7")]
    for glue in good:
        s = binary_three_sum(p9, fano_glued(glue), glue)
        assert are_isomorphic(s, p10) is not None
    for glue in bad:
        s = binary_three_sum(p9, fano_glued(glue), glue)
        assert (s.n, s.rank()) == (10, 5)
        assert are_isomorphic(s, p10) is None


def test_has_minor_wheel_in_p10(p10):
    mw4 = from_graph(5, W4_EDGES)
    witness = has_minor(p10, mw4)
    assert witness is not None
    con, dele = witness
    assert p10.r(con) == con.bit_count()
    assert are_isomorphic(p10.minor(contract=con, delete=dele), mw4) is not None
    # the published witness: contract 5, delete 10
    direct = p10.minor(contract=p10.mask_of(("5",)), delete=p10.mask_of(("10",)))
    assert are_isomorphic(direct, mw4) is not None


def test_has_minor_negative_and_budget(f7):
    assert has_minor(f7, u_matroid(2, 4)) is None
    with pytest.raises(BudgetExhausted):
        has_minor(f7, u_matroid(2, 4), budget=3)
    with pytest.raises(MatroidError, match="budget must be positive"):
        has_minor(f7, u_matroid(2, 4), budget=0)


def test_has_minor_self(f7):
    assert has_minor(f7, f7) == (0, 0)


def _has_minor_by_fingerprint(m, target):
    """has_minor's scan with the fingerprint filter on every candidate."""
    dr = m.rank() - target.rank()
    target_fp = fingerprint(target)
    for combo in itertools.combinations(range(m.n), dr):
        cmask = sum(1 << i for i in combo)
        if m.r(cmask) != dr:
            continue
        mc = m.contract(cmask)
        for keep in itertools.combinations(range(mc.n), target.n):
            restr = mc.delete(mc.full_mask ^ sum(1 << i for i in keep))
            if restr.rank() == target.rank() and fingerprint(restr) == target_fp:
                if are_isomorphic(restr, target) is not None:
                    return cmask, m.full_mask ^ cmask ^ m.mask_of(restr.labels)
    return None


def test_has_minor_key_filter_keeps_the_fingerprint_witness(monkeypatch):
    mw4 = catalog.named("MW4")
    rng = random.Random(57)
    corpus = [e.matroid for e in catalog.entries() if e.matroid.n >= 8 and e.matroid.rank() >= 4]
    for _ in range(24):
        r, n = rng.randint(4, 5), rng.randint(8, 10)
        corpus.append(from_matrix(GFMatrix(2, [[rng.randrange(2) for _ in range(n)]
                                               for _ in range(r)])))
    expected = [_has_minor_by_fingerprint(m, mw4) for m in corpus]
    calls = []
    monkeypatch.setattr(iso, "fingerprint", lambda m: calls.append(m) or fingerprint(m))
    got = []
    for m in corpus:
        calls.clear()
        got.append(has_minor(m, mw4))
        # every candidate is binary-backed, grafts' minors too: iso_key filters
        assert not calls, m
    assert got == expected
    assert sum(w is not None for w in got) >= 8 and None in got


def _random_hosts(rng, q, count, rows, cols):
    hosts = []
    for _ in range(count):
        r, n = rng.randint(*rows), rng.randint(*cols)
        hosts.append(from_matrix(GFMatrix(q, [[rng.randrange(q) for _ in range(n)]
                                              for _ in range(r)])))
    return hosts


def test_has_minor_structural_filters_keep_the_fingerprint_witness():
    # simple but not cosimple (a triangle and a coloop), its dual (cosimple,
    # not simple), and U_{1,2} + U_{1,1} (neither): each filter alone and none
    targets = [from_matrix(GFMatrix(2, rows)) for rows in (
        [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
        [[1, 1, 1, 0]],
        [[1, 1, 0], [0, 0, 1]])]
    assert [(t.is_simple(), t.is_cosimple()) for t in targets] == [
        (True, False), (False, True), (False, False)]
    rng = random.Random(58)
    binary = _random_hosts(rng, 2, 12, (2, 4), (4, 7))
    found = 0
    for target in targets:
        for m in binary:
            if m.n >= target.n and m.rank() >= target.rank():
                got = has_minor(m, target)
                assert got == _has_minor_by_fingerprint(m, target), (m, target)
                found += got is not None
    ternary = _random_hosts(rng, 3, 10, (2, 3), (4, 6))
    for target in (u_matroid(2, 4), targets[0]):  # both filters on, then one
        for m in ternary:
            if m.n >= target.n and m.rank() >= target.rank():
                got = has_minor(m, target)
                assert got == _has_minor_by_fingerprint(m, target), (m, target)
                found += got is not None
    assert found >= 20


def test_has_minor_keys_its_target_only_for_a_candidate(monkeypatch):
    # every 3-subset of two parallel pairs holds a pair, so no candidate of
    # the first host reaches are_isomorphic, and nothing is searched; on the
    # others the target (a fresh MW4 each) is canonized at most once and
    # every candidate walks straight to its form
    triangle = from_matrix(GFMatrix(2, [[1, 0, 1], [0, 1, 1]]))
    pairs = from_matrix(GFMatrix(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    hosts = [e.matroid for e in catalog.entries() if e.matroid.n >= 8 and e.matroid.rank() >= 4]
    hosts += _random_hosts(random.Random(59), 2, 12, (4, 5), (8, 9))
    cases = [(pairs, triangle)] + [(m, catalog.named("MW4")) for m in hosts]
    expected = [_has_minor_by_fingerprint(m, target) for m, target in cases]
    searches = []
    search = iso._canon_search
    monkeypatch.setattr(iso, "_canon_search", lambda points, weights, **kw: searches.append(
        (points, weights, kw)) or search(points, weights, **kw))
    got, unsearched = [], []
    for m, target in cases:
        searches.clear()
        got.append(has_minor(m, target))
        full = [(p, w) for p, w, kw in searches if not kw]
        walks = [kw for _, _, kw in searches if kw]
        assert full in ([], [iso._canon_inputs(target)[2]]), m
        assert all(kw.get("directed") for kw in walks), m
        # a witness was walked to the target's form, searched once
        assert got[-1] is None or full and walks, m
        if not searches:
            unsearched.append(m)
    assert got == expected
    assert unsearched[0] is pairs
    assert sum(w is not None for w in got) >= 8 and None in got[1:]


def test_has_minor_budget_counts_skipped_candidates():
    # P10 behind two copies of its element 4 and a loop: the first 1,794
    # candidates, most holding a parallel pair or the loop, are all spent
    p10 = catalog.named("P10").rep.matrix
    cols = list(zip(*p10.rows))
    cols = [cols[3], cols[3], (0,) * 5] + cols
    host, mw4 = from_matrix(GFMatrix.from_columns(2, cols)), catalog.named("MW4")
    assert has_minor(host, mw4, budget=1795) == (16, 4166)
    with pytest.raises(BudgetExhausted):
        has_minor(host, mw4, budget=1794)


def test_element_orbits(f7, z4):
    assert element_orbits(f7) == [tuple("1234567")]
    assert element_orbits(z4) == [
        ("t",),
        ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"),
    ]
    s8 = z4.delete(z4.mask_of(("y4",)))
    assert element_orbits(s8) == [
        ("t",),
        ("x1", "x2", "x3", "y1", "y2", "y3"),
        ("x4",),
    ]


def orbits_by_marked_forms(m):
    """Reference orbits of a simple binary matroid: elements whose one-point
    markings have the same weighted canonical form."""
    values = binary_representation(m).point_values()
    by_form = {}
    for i, p in enumerate(values):
        form = iso._canon_search(values, tuple(int(q == p) for q in values))[0]
        by_form.setdefault(form, []).append(m.labels[i])
    return sorted(tuple(v) for v in by_form.values())


def automorphism_corpus():
    corpus = census_seeds() + [e.matroid for e in catalog.entries()]
    corpus += random_linear_corpus(150, seed=23, qs=(2,), r_max=5, n_max=12)
    return [m for m in corpus if min(m.rank(), m.n - m.rank()) <= 6 and is_binary(m)]


def test_element_orbits_match_marked_canonical_forms():
    simple = [m.si() for m in automorphism_corpus()]
    assert len(simple) > 150
    for m in simple:
        if m.rank() <= 6:
            assert element_orbits(m) == orbits_by_marked_forms(m), m


def test_cached_automorphisms_are_automorphisms():
    # _canonical keeps point maps; lift each to elements (class p onto class
    # g(p), members in order), and add each swap of neighbours in a class
    for m in automorphism_corpus():
        _, _, class_of_point, autos = _canonical(m)
        assert _canonical(m) is m._canon
        perms = []
        for g in autos:
            perm = list(range(m.n))
            for p, q in g.items():
                for i, j in zip(_bits(class_of_point[p]), _bits(class_of_point[q])):
                    perm[i] = j
            perms.append(perm)
        for cls in class_of_point.values():
            members = list(_bits(cls))
            for i, j in zip(members, members[1:]):
                perm = list(range(m.n))
                perm[i], perm[j] = j, i
                perms.append(perm)
        for perm in perms:
            mapping = {m.labels[i]: m.labels[j] for i, j in enumerate(perm)}
            assert is_isomorphism(m, m, mapping), m


def _gf2_rank(vectors):
    piv = {}
    for v in vectors:
        while v and v.bit_length() in piv:
            v ^= piv[v.bit_length()]
        if v:
            piv[v.bit_length()] = v
    return len(piv)


def _from_columns(cols, r, labels=None):
    return from_matrix(GFMatrix(2, [[c >> (r - 1 - i) & 1 for c in cols] for i in range(r)]),
                       labels=labels)


def _moved(cols, r, rng):
    """cols under a random invertible change of basis of GF(2)^r, shuffled."""
    while True:
        basis = [rng.randrange(1, 1 << r) for _ in range(r)]  # images of the unit vectors
        if _gf2_rank(basis) == r:
            break
    moved = []
    for c in cols:
        w = 0
        for i in range(r):
            if c >> (r - 1 - i) & 1:
                w ^= basis[i]
        moved.append(w)
    rng.shuffle(moved)
    return moved


def test_iso_key_invariant_under_basis_change_and_column_permutation():
    # loops and parallel columns included; rank and corank at most 6
    rng = random.Random(6021)
    checked = 0
    while checked < 150:
        r = rng.randint(1, 6)
        cols = [rng.randrange(1 << r) for _ in range(rng.randint(1, r + 6))]
        if len(cols) - _gf2_rank(cols) > 6:
            continue
        moved = _moved(cols, r, rng)
        assert iso_key(_from_columns(cols, r)) == iso_key(_from_columns(moved, r)), (cols, moved)
        checked += 1


def _directed_corpus(count):
    """Pairs of GF(2) column lists (cols, other, rows): relabelled copies and
    unrelated matrices of one shape, with loops and parallel classes, rank 0,
    rank 7 or 8 read through the dual, and an empty dual side."""
    rng = random.Random(2323)
    pairs = []
    while len(pairs) < count:
        r = rng.choice((0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8))
        if r == 0:
            n = rng.randint(1, 4)
            pairs.append(([0] * n, [0] * n, 1))
            continue
        n = rng.randint(r, r + 6)
        if 3 <= r <= 6 and rng.random() < 0.3:
            # simple: every weight 1, so unrelated sets share head and weights
            def draw():
                return rng.sample(range(1, 1 << r), min(n, (1 << r) - 1))
        else:
            # few distinct values give loops and parallel classes
            spread = rng.choice((1 << r, 1 << r, min(1 << r, r + 2)))

            def draw():
                return [rng.randrange(spread) for _ in range(n)]
        cols = draw()
        if r >= 7 and rng.random() < 0.15:
            cols = [1 << i for i in range(r)]  # all coloops: the dual has no points
        other = _moved(cols, r, rng) if rng.random() < 0.5 else draw()[:len(cols)]
        pairs.append((cols, other, r))
    return pairs


def _fresh_pair(cols, other, rows):
    labels = tuple(f"e{i}" for i in range(len(other)))
    return _from_columns(cols, rows), _from_columns(other, rows, labels)


def test_directed_isomorphism_keeps_the_map_of_two_canonical_searches():
    # the reference canonizes both sides first, as are_isomorphic did before
    # it walked one side straight to the other's form
    found = heads_equal = 0
    seen = Counter()
    for i, (cols, other, rows) in enumerate(_directed_corpus(2000)):
        a, b = _fresh_pair(cols, other, rows)
        if a.rank() != b.rank() or min(a.rank(), a.n - a.rank()) > 6:
            continue
        key_a, map_a, classes_a, _ = _canonical(a)
        key_b, map_b, classes_b, _ = _canonical(b)
        seen.update({"rank 0": key_a[1] == 0, "dual": key_a[2] == "d",
                     "empty dual": key_a[2] == "d" and not key_a[4],
                     "loops": key_a[3] > 0, "parallel": any(w > 1 for _, w in key_a[4])})
        expected = None
        if key_a == key_b:
            inv = {img: p for p, img in map_b.items()}
            inv[0] = 0
            expected = {}
            for p, cls in classes_a.items():
                expected.update(zip(a.labels_of(cls), b.labels_of(classes_b[inv[map_a.get(p, 0)]])))
        elif key_a[:4] == key_b[:4] and sorted(w for _, w in key_a[4]) == sorted(
                w for _, w in key_b[4]):
            heads_equal += 1
        x, y = _fresh_pair(cols, other, rows)
        if i % 3 == 2:
            _canonical(y)  # the canonized side is m2, so m1 walks to its form
        walked, canonized = (x, y) if i % 3 == 2 else (y, x)
        assert are_isomorphic(x, y) == expected, (cols, other, rows)
        assert walked._canon is None and canonized._canon is not None
        if expected is not None:
            found += 1
            assert is_isomorphism(x, y, expected)
            assert iso_key(walked) == iso_key(canonized)
    assert found >= 1000 and heads_equal >= 100, (found, heads_equal)
    assert min(seen.values()) >= 20, seen


def test_is_binary(f7):
    assert is_binary(f7)
    assert is_binary(u_matroid(2, 3))
    assert not is_binary(u_matroid(2, 4))
    # a rank-table copy of a binary matroid is recognized
    from matroidkit.matroid import as_rank_table

    assert is_binary(as_rank_table(f7))


def test_generic_isomorphism_on_non_binary(monkeypatch, f7):
    calls = []
    monkeypatch.setattr(iso, "fingerprint", lambda m: calls.append(m) or fingerprint(m))
    a = u_matroid(2, 4)
    b = u_matroid(2, 4, labels=("w", "x", "y", "z"))
    cert = are_isomorphic(a, b)
    assert cert is not None
    assert are_isomorphic(a, u_matroid(3, 4)) is None
    # the double dual is a new rank table of the same matroid
    assert are_isomorphic(a, u_matroid(2, 4).dual().dual()) is not None
    # one binary, one not
    assert are_isomorphic(a, from_matrix(GFMatrix(2, [(1, 0, 1, 1), (0, 1, 1, 0)]))) is None
    # both non-binary (a parallel pair beside U(2,4) over GF(3)): the
    # fingerprints differ
    gf3 = from_matrix(GFMatrix(3, [(1, 0, 1, 1, 1), (0, 1, 1, 2, 0)]))
    assert are_isomorphic(u_matroid(2, 5), gf3) is None
    # the four pairs of equal size and rank above were fingerprinted first; a
    # GF(2)-backed pair never is, and a certified rank table goes on to
    # canonical forms
    assert len(calls) == 8
    calls.clear()
    assert are_isomorphic(f7, catalog.named("F7")) is not None and not calls
    monkeypatch.setattr(iso, "_generic_isomorphism", lambda a, b: pytest.fail("backtrack used"))
    table = as_rank_table(f7)
    cert = are_isomorphic(table, f7)
    assert cert is not None and is_isomorphism(table, f7, cert) and calls == [table, f7]
    # has_minor asks are_isomorphic, so a rank-table host is fingerprinted
    calls.clear()
    assert has_minor(catalog.named("MW4").dual(), catalog.named("MW4")) == (0, 0) and calls


def test_isomorphism_past_the_certify_cap(monkeypatch):
    # PG(3,2) plus two loops: 17 elements, so the rank table's binary
    # representation is unknown and the generic path finds the bijection
    pg32 = GFMatrix.from_point_values(range(1, 16), 4)
    m = from_matrix(GFMatrix(2, [row + (0, 0) for row in pg32.rows]))
    table = as_rank_table(m)
    cert = are_isomorphic(table, m)
    assert cert is not None and is_isomorphism(table, m, cert)
    # CERTIFY_CAP < n <= TABLE_CAP: no certified matrix, so no text form, and
    # are_isomorphic takes the exact generic backtrack, never a canonical form
    assert CERTIFY_CAP < table.n <= TABLE_CAP
    for call in (table.export_text, lambda: binary_representation(table)):
        with pytest.raises(MatroidError, match=f"beyond n = {CERTIFY_CAP}$"):
            call()
    backtracks = []
    generic = iso._generic_isomorphism
    monkeypatch.setattr(iso, "_canonical", lambda m: pytest.fail("canonical form used"))
    monkeypatch.setattr(iso, "_generic_isomorphism",
                        lambda a, b: backtracks.append(1) or generic(a, b))
    for a, b in ((table, m), (m, table)):
        cert = are_isomorphic(a, b)
        assert cert is not None and is_isomorphism(a, b, cert)
    assert backtracks == [1, 1]


def test_backtrack_separates_a_fingerprint_triple(monkeypatch):
    # three non-isomorphic forms of the frozen `orderly` output share a
    # fingerprint; beside a parallel pair they have n = 14 and r = 7, so no
    # canonical form applies and are_isomorphic asks the circuit backtrack
    forms = ((1, 2, 4, 7, 8, 11, 16, 19, 32, 35, 61, 62),
             (1, 2, 4, 7, 8, 11, 16, 19, 32, 37, 56, 61),
             (1, 2, 4, 7, 8, 11, 16, 21, 32, 41, 49, 62))
    pair = from_matrix(GFMatrix(2, [[1, 1]]))
    a, b, c = (direct_sum(from_matrix(GFMatrix.from_point_values(f, 6)), pair) for f in forms)
    assert (a.n, a.rank()) == (14, 7)
    assert fingerprint(a) == fingerprint(b) == fingerprint(c)
    backtracks = []
    generic = iso._generic_isomorphism
    monkeypatch.setattr(iso, "_generic_isomorphism",
                        lambda x, y: backtracks.append(generic(x, y)) or backtracks[-1])
    assert are_isomorphic(a, b) is None
    moved = direct_sum(from_matrix(GFMatrix.from_point_values(forms[0][::-1], 6)), pair)
    cert = are_isomorphic(a, moved)
    assert cert is not None and is_isomorphism(a, moved, cert)
    assert backtracks == [None, cert]


def test_binary_iso_rejects_a_head_mismatch_before_a_directed_walk(monkeypatch):
    # two independent elements and a loop against a triangle: the heads
    # differ, so only m1 is canonized and m2 is turned away before a walk
    directed = []
    search = iso._canon_search
    monkeypatch.setattr(iso, "_canon_search",
                        lambda *a, **kw: directed.append(kw.get("directed")) or search(*a, **kw))
    a = from_matrix(GFMatrix(2, [[1, 0, 0], [0, 1, 0]]))
    b = from_matrix(GFMatrix(2, [[1, 0, 1], [0, 1, 1]]))
    assert are_isomorphic(a, b) is None
    assert directed == [None]


def test_empty_and_tiny():
    assert are_isomorphic(u_matroid(0, 0), u_matroid(0, 0)) == {}
    loop = u_matroid(0, 1)
    assert are_isomorphic(loop, u_matroid(1, 1)) is None
    assert iso_key(loop) != iso_key(u_matroid(1, 1))


def _brute_isomorphic(a, b):
    """Whether some permutation of the elements carries a's rank table onto
    b's (of equal size); image[mask] is the mask's image, built up mask by mask."""
    n, ta, tb = a.n, full_rank_table(a), full_rank_table(b)
    for perm in itertools.permutations([1 << i for i in range(n)]):
        image = [0]
        for mask in range(1, 1 << n):
            low = mask & -mask
            image.append(image[mask ^ low] | perm[low.bit_length() - 1])
            if tb[image[mask]] != ta[mask]:
                break
        else:
            return True
    return False


def test_isomorphism_matches_brute_force_on_gf3_pairs():
    # seeded GF(3) matrices of 4 to 7 elements (mostly 7, where the circuit
    # backtrack most often has a wrong choice to undo), each against a copy
    # with its columns shuffled and scaled and against the previous matrix of
    # its size and rank; the backtrack is also checked on its own
    rng = random.Random(7)
    last, pairs = {}, []
    for _ in range(80):
        n = rng.choice((4, 5, 6, 7, 7, 7))
        r = rng.randint(2, n - 2)
        mat = GFMatrix(3, [[rng.randrange(3) for _ in range(n)] for _ in range(r)])
        order, scale = rng.sample(range(n), n), [rng.randint(1, 2) for _ in range(n)]
        moved = GFMatrix(3, [[row[j] * scale[j] % 3 for j in order] for row in mat.rows])
        a = from_matrix(mat)
        pairs.append((a, from_matrix(moved)))
        key = (n, a.rank())
        if key in last:
            pairs.append((last[key], a))
        last[key] = a
    generic = 0
    for a, b in pairs:
        want = _brute_isomorphic(a, b)
        assert (are_isomorphic(a, b) is not None) == want, (a.rep.matrix.rows, b.rep.matrix.rows)
        cert = iso._generic_isomorphism(a, b)
        assert (cert is not None) == want and (cert is None or is_isomorphism(a, b, cert))
        generic += cert is not None and binary_representation(a) is None
    assert generic >= 10
