"""Uniformity oracles, their agreement, and the structure classifiers."""

import random
from itertools import combinations

import pytest

from matroidkit import catalog, matroid, uniformity
from matroidkit.gf import GFMatrix, _flats, parse_matrix
from matroidkit.iso import are_isomorphic, has_minor
from matroidkit.matroid import (
    CIRCUIT_SCAN_CAP,
    GraphicRep,
    Matroid,
    MatroidError,
    RankTableRep,
    as_rank_table,
    direct_sum,
    from_graph,
    from_matrix,
    parallel_connection,
)
from matroidkit.uniformity import (
    FlatWitness,
    MinorWitness,
    classify_connected_not3_22,
    classify_disconnected_22,
    is_22_uniform_circuits,
    is_kl_uniform_flats,
    is_kl_uniform_minor,
    is_paving,
    is_sparse_paving,
)

P10_TEXT = """2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
0 0 0 0 1 1 1 1 0 0
"""

F7_TEXT = """2 3 7
1 0 0 1 1 0 1
0 1 0 1 0 1 1
0 0 1 0 1 1 1
"""


def u_matroid(r, n, labels=None):
    table = bytes(min(bin(m).count("1"), r) for m in range(1 << n))
    return Matroid(RankTableRep(n, table), labels=labels)


def spike(r):
    cols = [[1 if j == i else 0 for j in range(r)] for i in range(r)]
    cols += [[0 if j == i else 1 for j in range(r)] for i in range(r)]
    cols.append([1] * r)
    labels = (
        tuple(f"x{i + 1}" for i in range(r))
        + tuple(f"y{i + 1}" for i in range(r))
        + ("t",)
    )
    return from_matrix(GFMatrix.from_columns(2, cols), labels=labels)


@pytest.fixture
def f7():
    return from_matrix(parse_matrix(F7_TEXT))


@pytest.fixture
def p10():
    return from_matrix(parse_matrix(P10_TEXT))


def ag32():
    return from_matrix(GFMatrix.from_point_values([v for v in range(1, 16) if v & 1], 4))


def random_corpus(count, qs=(2, 3), seed=11):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.choice(qs)
        r = rng.randint(1, 4)
        n = rng.randint(1, 7)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
        out.append(from_matrix(GFMatrix(q, rows)))
    return out


def test_uniform_matroids_are_11_uniform():
    for r, n in [(0, 0), (0, 2), (1, 3), (2, 4), (3, 6)]:
        assert is_kl_uniform_flats(u_matroid(r, n), 1, 1)[0]


def test_fano_is_paving(f7):
    assert is_kl_uniform_flats(f7, 2, 1) == (True, None)
    assert is_paving(f7)


def test_spike_deletions():
    z6 = spike(6)
    z6t = z6.delete(z6.mask_of(("t",)))
    ok, witness = is_kl_uniform_flats(z6t, 2, 2)
    assert not ok
    assert witness == FlatWitness(455)
    assert z6t.labels_of(witness.flat) == ("x1", "x2", "x3", "y1", "y2", "y3")
    assert z6t.r(witness.flat) == z6t.rank() - 2
    assert z6t.closure(witness.flat) == witness.flat
    z5 = spike(5)
    z5t = z5.delete(z5.mask_of(("t",)))
    assert is_kl_uniform_flats(z5t, 2, 2)[0]
    assert is_22_uniform_circuits(z5t)


def test_loops_break_top_k():
    m = direct_sum(u_matroid(2, 3), u_matroid(0, 2))
    assert not is_kl_uniform_flats(m, 2, 2)[0]
    assert not is_kl_uniform_flats(m, 2, 1)[0]
    assert is_kl_uniform_flats(m, 3, 2)[0]  # k above the rank: vacuous


def test_minor_witness_is_the_forbidden_minor():
    m = direct_sum(u_matroid(2, 2), u_matroid(0, 2))
    ok, witness = is_kl_uniform_minor(m, 2, 2)
    assert not ok
    assert witness == MinorWitness(0, 0)
    z6 = spike(6)
    z6t = z6.delete(z6.mask_of(("t",)))
    ok, witness = is_kl_uniform_minor(z6t, 2, 2)
    assert not ok
    minor = z6t.minor(contract=witness.contract, delete=witness.delete)
    assert (minor.n, minor.rank()) == (4, 2)
    assert minor.loops().bit_count() == 2
    assert minor.coloops().bit_count() == 2
    target = direct_sum(u_matroid(2, 2), u_matroid(0, 2))
    assert are_isomorphic(minor, target) is not None


def test_two_wheels_fail_22_by_circuits():
    w3 = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    two = direct_sum(w3, w3)
    assert not is_22_uniform_circuits(two)
    assert not is_kl_uniform_flats(two, 2, 2)[0]


def _22_by_all_circuit_pairs(m):
    circuits, r = m.circuits(), m.rank()
    return all(m.r(c1 | c2) >= r - 1 for c1, c2 in combinations(circuits, 2))


def test_circuit_pairs_past_r_minus_1_elements_cannot_fail():
    """is_22_uniform_circuits pairs only the circuits of at most r - 1
    elements; a plain loop over every pair of circuits must agree, on random
    GF(2), GF(3) and GF(5) matrices of rank 0 to 4 with loops and parallel
    pairs, and on the catalog graphs and their rank-table duals."""
    rng = random.Random(27)
    corpus = [from_matrix(parse_matrix("2 2 4\n1 0 0 0\n0 1 0 0\n")),  # only loops fail
              from_matrix(parse_matrix("2 1 4\n1 1 1 0\n"))]
    for q in (2, 3, 5):
        for _ in range(40):
            nrows = rng.randint(1, 4)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(0, 2)):
                cols.append([0] * nrows)
            for _ in range(rng.randint(0, 2)):
                cols.append([x * rng.randrange(1, q) % q for x in rng.choice(cols)])
            rng.shuffle(cols)
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    graphs = [e.matroid for e in catalog.entries() if isinstance(e.matroid.rep, GraphicRep)]
    corpus += graphs + [g.dual() for g in graphs]
    assert {m.rank() for m in corpus} >= {0, 1, 2, 3, 4}
    assert any(isinstance(m.rep, RankTableRep) for m in corpus)
    verdicts = set()
    for m in corpus:
        want = _22_by_all_circuit_pairs(m)
        assert is_22_uniform_circuits(m) == want, m
        verdicts.add(want)
    assert verdicts == {True, False}


def test_circuit_pairs_keep_the_full_scan_cap():
    """Past CIRCUIT_SCAN_CAP elements a matroid whose full circuit scan is
    refused is refused here too, at any rank; at rank 0 and 1 no pair fails."""
    n = CIRCUIT_SCAN_CAP + 1
    rng = random.Random(28)
    gf3 = GFMatrix(3, [[rng.randrange(3) for _ in range(n)] for _ in range(4)])
    rank1 = GFMatrix(3, [[rng.randrange(3) for _ in range(n)]])
    table = Matroid(RankTableRep(n, bytes(min(m.bit_count(), 2) for m in range(1 << n))))
    for m in (from_matrix(gf3), from_matrix(rank1), table):
        with pytest.raises(MatroidError, match="capped"):
            m.circuits()
        with pytest.raises(MatroidError, match="capped"):
            is_22_uniform_circuits(m)
    for text in ("2 1 3\n0 0 0\n", "3 1 4\n1 2 0 1\n", "5 2 3\n0 0 0\n0 0 0\n"):
        m = from_matrix(parse_matrix(text))
        assert m.rank() <= 1 and len(m.circuits()) > 1
        assert is_22_uniform_circuits(m) and _22_by_all_circuit_pairs(m)


def test_flats_decider_walks_nothing_when_l_passes_the_nullity():
    """No flat has nullity above n - r, so a larger l is answered unwalked."""
    free = from_matrix(parse_matrix("2 3 3\n1 0 0\n0 1 0\n0 0 1\n"))
    assert is_kl_uniform_flats(free, 1, 1) == (True, None)
    assert free._least == []
    p10 = from_matrix(parse_matrix(P10_TEXT))
    assert is_kl_uniform_flats(p10, 2, 6) == (True, None) and p10._least == []
    assert is_kl_uniform_flats(p10, 2, 5) == (True, None) and p10._least


def _least_failing_flat(m, k, l):
    """Entry l of least_flats(r - k) the plain way: every rank-(r - k) flat of
    a fresh copy with nullity at least l, and the least of them."""
    r = m.rank()
    fresh = Matroid(m.rep, m.labels)
    bad = [f for f in fresh.flats_of_rank(r - k) if f.bit_count() - (r - k) >= l]
    return (False, FlatWitness(min(bad))) if bad else (True, None)


def _coloop_corpus():
    """GF(2), GF(3), GF(4), GF(5) and GF(7) matrices with loops, coloops
    (rows of their own) and columns parallel to others, in shuffled order."""
    rng = random.Random(28)
    corpus = []
    for q in (2, 3, 4, 5, 7):
        for _ in range(12):
            nrows, c = rng.randint(1, 4), rng.randint(0, 3)
            cols = [[rng.randrange(q) for _ in range(nrows)] + [0] * c
                    for _ in range(rng.randint(1, 6))]
            cols += [[0] * (nrows + c) for _ in range(rng.randint(0, 2))]
            cols += [[x * rng.randrange(1, q) % q for x in rng.choice(cols)]
                     for _ in range(rng.randint(0, 2))]
            cols += [[0] * (nrows + i) + [1] + [0] * (c - i - 1) for i in range(c)]
            rng.shuffle(cols)
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    return corpus


def test_least_flats_give_the_least_failing_flat_of_a_fresh_copy():
    rng = random.Random(7)
    asks = [(k, l) for k in range(1, 7) for l in range(1, 8)]
    with_coloops = 0
    for m0 in _coloop_corpus():
        for m in (m0, m0.dual()):
            with_coloops += bool(m.coloops())
            rng.shuffle(asks)
            for k, l in asks:
                want = _least_failing_flat(m, k, l) if k <= m.rank() else (True, None)
                assert is_kl_uniform_flats(m, k, l) == want, (m.rep.matrix.rows, k, l)
    assert with_coloops > 40


def test_least_flats_at_the_edges():
    free = from_matrix(parse_matrix("3 3 3\n1 0 0\n0 2 0\n0 0 1\n"))  # every element a coloop
    assert [free.least_flats(t) for t in range(4)] == [(0,), (0b1,), (0b11,), (0b111,)]
    zero = from_matrix(parse_matrix("5 2 3\n0 0 0\n0 0 0\n"))  # rank 0: three loops
    assert zero.least_flats(0) == (0b111,) * 4
    assert is_kl_uniform_flats(zero, 1, 1) == (True, None)
    with pytest.raises(MatroidError):
        zero.least_flats(1)
    # a coloop (element 3) beside a triangle whose element 0 has a parallel
    # element 4, as a matrix and as a rank table
    m = from_matrix(parse_matrix("2 3 5\n1 0 1 0 1\n0 1 1 0 0\n0 0 0 1 0\n"))
    table = as_rank_table(m)
    assert table.coloops() == m.coloops() == 0b1000
    for t in range(m.rank() + 1):
        assert table.least_flats(t) == m.least_flats(t)
    # rank 2: {1, 3} is the least flat; {0, 1, 2, 4} (nullity 2) beats {0, 3, 4} (nullity 1)
    assert m.least_flats(2) == (0b1010, 0b10111, 0b10111)
    for k in range(1, 4):
        for l in range(1, 3):
            assert is_kl_uniform_flats(table, k, l) == _least_failing_flat(m, k, l)
    # a with_name copy shares the tables, whichever side asks first
    p10 = from_matrix(parse_matrix(P10_TEXT))
    copy = p10.with_name("copy")
    assert copy.least_flats(2) is p10.least_flats(2)
    assert p10.least_flats(3) is copy.least_flats(3)
    assert is_kl_uniform_flats(copy, 2, 2) == _least_failing_flat(p10, 2, 2)


def test_oracle_agreement_and_duality_on_random_corpus():
    corpus = random_corpus(40)
    corpus.append(from_matrix(parse_matrix(F7_TEXT)))
    corpus.append(ag32())
    for m in corpus:
        md = m.dual()
        for k in range(1, 4):
            for l in range(1, 4):
                if k + l > 5:
                    continue
                flats = is_kl_uniform_flats(m, k, l)[0]
                assert flats == is_kl_uniform_minor(m, k, l)[0]
                assert flats == is_kl_uniform_flats(md, l, k)[0]
                if (k, l) == (2, 2) and m.n <= 16:
                    assert flats == is_22_uniform_circuits(m)


KL_PAIRS = [(k, l) for k in range(1, 6) for l in range(1, 7 - k)]


def _minor_decider_corpus():
    """GF(2), GF(3) and GF(5) matrices with a loop, a coloop (a row of its
    own) and a column parallel to another, plus the graph MW4 and the graft
    R10."""
    rng = random.Random(26)
    corpus = [catalog.named("MW4"), catalog.named("R10")]
    for q in (2, 3, 5):
        for _ in range(10):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
            cols = [[rng.randrange(q) for _ in range(nrows)] + [0] for _ in range(ncols)]
            cols.append([0] * (nrows + 1))
            cols.append([0] * nrows + [1])
            cols.append([x * rng.randrange(1, q) % q for x in cols[rng.randrange(ncols)]])
            rng.shuffle(cols)
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    return corpus


def test_minor_decider_gives_a_matrix_and_its_rank_table_the_same_witnesses(monkeypatch):
    """A matrix reads its witnesses from the least greedy bases of one flats
    walk, a rank table from a scan of the t-sets on each ask: they agree.
    The minor and flat asks of one t, through a `with_name` copy or the
    original, run one walk between them; the rank table's re-asks scan
    again and keep nothing but closures."""
    walked = []

    def wrapped(mat, k, cols, *root):
        walked.append(k)
        return _flats(mat, k, cols, *root)

    monkeypatch.setattr(matroid, "_flats", wrapped)
    at_rank = 0  # asks with k = r: the one empty t-set, its closure the loops
    for m in _minor_decider_corpus():
        table = as_rank_table(m)
        want = {(k, l): is_kl_uniform_minor(table, k, l) for k, l in KL_PAIRS}
        assert {(k, l): is_kl_uniform_minor(m, k, l) for k, l in KL_PAIRS} == want, m
        at_rank += sum(not want[k, l][0] for k, l in KL_PAIRS if k == m.rank())
        # l = 0: the first independent t-set, the least greedy basis of any rank-t flat
        firsts = [table.first_independent_set(t, 0) for t in range(m.rank() + 1)]
        assert [m.first_independent_set(t, 0) for t in range(m.rank() + 1)] == firsts, m
        assert firsts[0] == 0 and all(f.bit_count() == t for t, f in enumerate(firsts)), m
        # l descending after l ascending, on one copy: the kept tables answer,
        # and the rank table's re-asks scan afresh
        fresh = Matroid(m.rep, m.labels)
        again = fresh.with_name("copy")
        walked.clear()
        for k in range(1, 6):
            ls = list(range(1, 7 - k))
            for l in ls + ls[::-1]:
                assert is_kl_uniform_minor(again, k, l) == want[k, l], (m, k, l)
                assert is_kl_uniform_minor(fresh, k, l) == want[k, l], (m, k, l)
                assert is_kl_uniform_minor(table, k, l) == want[k, l], (m, k, l)
                is_kl_uniform_flats(fresh, k, l)
        assert len(walked) == 1, (m, walked)  # the first ask, t = r - 1, walks the deepest
        ts = {m.rank() - k for k in range(1, min(5, m.rank()) + 1)}
        assert all(fresh._least[t][1] for t in ts), m  # the basis tables
        assert table._least == [], m  # no scan state kept
    assert at_rank


def test_monotonicity_and_minor_closure():
    corpus = random_corpus(15, seed=5)
    for m in corpus:
        table = {
            (k, l): is_kl_uniform_flats(m, k, l)[0]
            for k in range(1, 4)
            for l in range(1, 4)
        }
        for (k, l), ok in table.items():
            if ok:
                assert all(
                    table[kk, ll]
                    for kk in range(k, 4)
                    for ll in range(l, 4)
                )
        if table[2, 2] and m.n:
            for i in range(m.n):
                assert is_kl_uniform_flats(m.delete(1 << i), 2, 2)[0]
                assert is_kl_uniform_flats(m.contract(1 << i), 2, 2)[0]


def test_min_rank_bound_for_simple_cosimple_22(p10):
    z5 = spike(5)
    for m in [p10, z5, z5.delete(z5.mask_of(("t",))), ag32(), ag32().dual()]:
        if m.is_simple() and m.is_cosimple() and is_kl_uniform_flats(m, 2, 2)[0]:
            assert min(m.rank(), m.n - m.rank()) <= 5


def test_paving_family_facts():
    assert is_paving(ag32())
    for n in range(1, 5):
        assert is_paving(u_matroid(1, n))
    s8 = spike(4).delete(spike(4).mask_of(("y4",)))
    assert not is_sparse_paving(s8)
    assert not is_paving(s8)
    w3 = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_sparse_paving(w3)


def test_simple_iff_uniform(f7):
    # from rank 2 on, simple is the same as (r-1, 1)-uniform
    assert f7.is_simple() and is_kl_uniform_flats(f7, 2, 1)[0]
    assert not u_matroid(1, 2).is_simple()
    for m in random_corpus(20, seed=23):
        if m.rank() >= 2:
            assert is_kl_uniform_flats(m, m.rank() - 1, 1)[0] == m.is_simple()


def test_frontier(p10):
    # the (k,l) pairs of the 3x3 box for which m is (k,l)-uniform, an up-set
    box = [(k, l) for k in range(1, 4) for l in range(1, 4)]

    def uniform_pairs(m):
        return {(k, l) for k, l in box if is_kl_uniform_flats(m, k, l)[0]}

    assert uniform_pairs(u_matroid(3, 6)) == set(box)
    assert uniform_pairs(p10) == {(2, 2), (2, 3), (3, 2), (3, 3)}
    m = direct_sum(u_matroid(2, 2), u_matroid(0, 2))
    assert uniform_pairs(m) == {(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)}


def test_classify_disconnected(f7):
    got = classify_disconnected_22(direct_sum(f7, u_matroid(0, 1)))
    assert got.clause == "D-ii" and got.data[0] == "loop"
    got = classify_disconnected_22(direct_sum(ag32(), u_matroid(1, 2)))
    assert got.clause == "D-iii"
    free = direct_sum(u_matroid(1, 1), u_matroid(1, 1, labels=("b",)))
    assert classify_disconnected_22(free).clause == "D-i"
    with pytest.raises(MatroidError):
        classify_disconnected_22(f7)  # connected
    with pytest.raises(MatroidError):
        classify_disconnected_22(direct_sum(spike(6).delete(spike(6).mask_of(("t",))), u_matroid(0, 1)))


def test_classify_connected_not3():
    z4 = spike(4)
    u23 = u_matroid(2, 3, labels=("t", "s1", "s2"))
    joined = parallel_connection(z4, "t", u23, "t")
    m = joined.delete(joined.mask_of(("t",)))
    assert (m.n, m.rank(), m.is_connected(), m.is_3connected()) == (10, 5, True, False)
    got = classify_connected_not3_22(m)
    assert got.clause == "C-iii"
    assert got.data == ("series", "s1", "s2")

    w3 = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], labels=tuple("abcdef"))
    w3p = parallel_connection(w3, "a", u_matroid(1, 2, labels=("a", "a2")), "a")
    assert classify_connected_not3_22(w3p).clause == "C-ii"


def test_classify_c_iv_parallel_connection_with_u24():
    w3 = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], labels=tuple("abcdef"))
    u24 = u_matroid(2, 4, labels=("a", "q1", "q2", "q3"))
    joined = parallel_connection(w3, "a", u24, "a")
    m = joined.delete(joined.mask_of(("a",)))
    assert has_minor(m, u_matroid(2, 4)) is not None  # non-binary
    got = classify_connected_not3_22(m)
    assert got.clause == "C-iv"
    assert got.data[1] == ("q1", "q2", "q3")


def test_classify_c_iv_after_rejecting_a_triangle(monkeypatch):
    # the member above with its elements reordered so that triangles of
    # M(K4) are tried first: each (triangle, contracted element) tried
    # before the U(2,4) triangle is rejected
    w3 = from_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], labels=tuple("abcdef"))
    joined = parallel_connection(w3, "a", u_matroid(2, 4, labels=("a", "q1", "q2", "q3")), "a")
    m = joined.delete(joined.mask_of(("a",)))
    perm, table = (4, 1, 5, 2, 0, 3, 7, 6), matroid.full_rank_table(m)
    moved = Matroid(RankTableRep(m.n, bytes(table[sum(1 << perm[i] for i in matroid._bits(mask))]
                                              for mask in range(1 << m.n))),
                    labels=tuple(m.labels[p] for p in perm))
    tries = []
    try_u24 = uniformity._try_u24
    monkeypatch.setattr(uniformity, "_try_u24", lambda *a: tries.append(try_u24(*a)) or tries[-1])
    got = classify_connected_not3_22(moved)
    assert got.clause == "C-iv" and sorted(got.data[1]) == ["q1", "q2", "q3"]
    assert len(tries) > 1 and tries[-1] == got and not any(tries[:-1])


def test_classifier_preconditions(f7, p10):
    with pytest.raises(MatroidError):
        classify_connected_not3_22(p10)  # 3-connected
    with pytest.raises(MatroidError):
        classify_connected_not3_22(direct_sum(f7, f7))  # disconnected


def test_minor_decider_reads_the_flats_walk_of_a_large_geometry():
    # 2^31 masks would never finish; the walk meets 155 flats at each of ranks 2 and 3
    pg42 = catalog.geometry("PG", 4)
    for k, l in ((2, 5), (3, 2)):
        assert is_kl_uniform_minor(pg42, k, l)[0] == is_kl_uniform_flats(pg42, k, l)[0]
