import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import catalog, matroid
from matroidkit.gf import GFMatrix, _flats, field, null_space, parse_matrix, rank_of_columns
from matroidkit.matroid import (
    GraftRep,
    GraphicRep,
    LinearRep,
    Matroid,
    MatroidError,
    RankTableRep,
    as_rank_table,
    binary_three_sum,
    direct_sum,
    format_graph_text,
    from_graph,
    from_matrix,
    full_rank_table,
    graft_matroid,
    incidence_matrix,
    is_binary_affine,
    is_isomorphism,
    parallel_connection,
    parse_graph_text,
)
from matroidkit.iso import are_isomorphic
from matroidkit.search import _minor_closure_3connected, census_seeds
from matroidkit.uniformity import is_kl_uniform_flats, is_kl_uniform_minor
from matroidkit.verify import random_linear_corpus

P10_TEXT = """
2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
0 0 0 0 1 1 1 1 0 0
"""

P9_TEXT = """
2 4 9
1 0 0 0 1 0 0 1 1
0 1 0 0 1 1 0 0 1
0 0 1 0 0 1 1 0 1
0 0 0 1 0 0 1 1 0
"""

F7_TEXT = """
2 3 7
1 0 0 1 1 0 1
0 1 0 1 0 1 1
0 0 1 0 1 1 1
"""

W4_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.fixture(scope="module")
def p10():
    return from_matrix(parse_matrix(P10_TEXT), name="P10")


@pytest.fixture(scope="module")
def p9():
    return from_matrix(parse_matrix(P9_TEXT), name="P9")


@pytest.fixture(scope="module")
def f7():
    return from_matrix(parse_matrix(F7_TEXT), name="F7")


def u_matroid(r, n):
    """Uniform U_{r,n} as a bare rank table (test helper)."""
    table = bytearray(min(mask.bit_count(), r) for mask in range(1 << n))
    return Matroid(RankTableRep(n, table))


def test_rank_basics(p10):
    assert p10.rank() == 5
    assert p10.rank([]) == 0
    assert p10.nullity() == 5
    assert p10.rank(["1", "2", "3"]) == 3


def test_rank_rejects_bad_input(p10):
    with pytest.raises(MatroidError):
        p10.rank(["99"])
    with pytest.raises(MatroidError):
        p10.rank(1 << 10)


def test_closure(p9, f7):
    got = p9.labels_of(p9.closure(p9.mask_of(["1", "3", "4"])))
    assert got == ("1", "3", "4", "7", "8")
    assert p9.closure(0) == 0  # loopless: closure of the empty set is empty
    basis = p9.mask_of(["1", "2", "3", "4"])
    assert p9.closure(basis) == p9.full_mask
    loopy = direct_sum(f7, u_matroid(0, 2))
    assert loopy.labels_of(loopy.closure(0)) == ("1'", "2'")


def test_flats(f7):
    assert len(f7.flats_of_rank(2)) == 7  # Fano hyperplanes
    assert f7.flats_of_rank(3) == [f7.full_mask]
    assert f7.flats_of_rank(0) == [0]
    u34 = u_matroid(3, 4)
    assert len(u34.flats_of_rank(2)) == 6
    with pytest.raises(MatroidError):
        f7.flats_of_rank(4)


def _closure_by_rank_loop(m, mask):
    rm = m.r(mask)
    return mask | sum(1 << i for i in range(m.n) if m.r(mask | 1 << i) == rm)


def _flats_by_scan(m, k):
    """The uncached combination scan: closures of independent k-sets, first
    occurrence kept."""
    out = []
    for combo in itertools.combinations(range(m.n), k):
        mask = sum(1 << i for i in combo)
        if m.r(mask) == k and _closure_by_rank_loop(m, mask) not in out:
            out.append(_closure_by_rank_loop(m, mask))
    return out


def _span_corpus():
    """Seeded matroids on every backend, with loops, parallel elements and
    zero columns."""
    rng = random.Random(41)
    corpus = []
    for q in (2, 3, 4, 5, 7):
        for _ in range(24):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 9)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(ncols)]
            cols[rng.randrange(ncols)] = [0] * nrows
            cols.append(list(cols[rng.randrange(ncols)]))
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    for i in range(60):
        nverts = rng.randint(1, 6)
        edges = [(rng.randrange(nverts), rng.randrange(nverts))
                 for _ in range(rng.randint(1, 9))]
        edges.append(edges[0])  # a parallel edge, or a second loop
        if i % 2:
            corpus.append(from_graph(nverts, edges))
        else:
            gamma = [v for v in range(nverts) if rng.random() < 0.5]
            corpus.append(graft_matroid(nverts, edges, gamma))
    corpus += [as_rank_table(m) for m in corpus[::3]]
    return corpus


def test_closure_matches_rank_loop_on_every_backend():
    corpus = _span_corpus()
    kinds = set()
    pairs = 0
    for m in corpus:
        rep = m.rep
        kinds.add(f"gf{rep.matrix.field.q}" if isinstance(rep, LinearRep)
                  else type(rep).__name__)
        for mask in range(1 << m.n):
            assert m.closure(mask) == _closure_by_rank_loop(m, mask), (m, mask)
            pairs += 1
    assert kinds == {"gf2", "gf3", "gf4", "gf5", "gf7",
                     "GraphicRep", "GraftRep", "RankTableRep"}
    assert pairs > 60000


def _scaled_corpus(seed):
    """Seeded GF(2), GF(3) and GF(5) matrices, each with a zero column, a
    repeated column and (q != 2) a column scaled by a nonzero scalar."""
    rng = random.Random(seed)
    corpus = []
    for q in (2, 3, 5):
        mul = field(q).mul
        for _ in range(20):
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 8)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(ncols)]
            cols[rng.randrange(ncols)] = [0] * nrows
            cols.append(list(rng.choice(cols)))
            scale = mul[rng.randrange(1, q)]
            cols.insert(rng.randrange(len(cols) + 1), [scale[x] for x in rng.choice(cols)])
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    return corpus


def test_packed_parallel_readers_match_the_rank_table():
    corpus = _scaled_corpus(61)  # none simple: each has a zero column
    corpus += [m.si() for m in corpus]
    corpus += [m for m in _span_corpus() if isinstance(m.rep, (GraphicRep, GraftRep))]
    corpus += [e.matroid for e in catalog.entries() if e.matroid.n <= 12]
    simple = cosimple = 0
    for m in corpus:
        table = as_rank_table(m)
        assert m.parallel_classes() == table.parallel_classes(), m
        assert m.is_simple() == table.is_simple(), m
        assert m.is_cosimple() == table.is_cosimple(), m
        for mine, ref in ((m.si(), table.si()), (m.cosi(), table.cosi())):
            assert mine.labels == ref.labels, m
            assert full_rank_table(mine) == full_rank_table(ref), m
        simple += m.is_simple()
        cosimple += m.is_cosimple()
    assert len(corpus) > 60 and 0 < simple < len(corpus) and 0 < cosimple < len(corpus)


def test_flats_of_rank_matches_the_uncached_scan():
    corpus = random_linear_corpus(120, seed=43) + [e.matroid for e in catalog.entries()]
    corpus += _span_corpus() + _scaled_corpus(62)
    for m in corpus:
        for k in range(m.rank() + 1):
            assert m.flats_of_rank(k) == _flats_by_scan(m, k), (m, k)
    for m in _scaled_corpus(63):
        r = m.rank()
        scans = tuple(tuple(_flats_by_scan(m, k)) for k in range(r + 1))
        for k in (0, r):  # the walk's two ends: no prefix, and a full basis
            assert _flats(m.rep.matrix, k, m.full_mask)[0] == scans[:k + 1], (m, k)
        assert _flats(m.rep.matrix, r + 1, m.full_mask)[0] == (*scans, ())


def test_flats_walk_on_scalar_multiples_and_loops():
    """GF(4) and GF(7) matrices whose columns are scalar multiples of a few,
    with loops, where the walk's classes are largest and merge most: every
    rank up to the rank + 1 matches the scan, and no rank lists a flat twice."""
    rng = random.Random(27)
    ranks = set()
    for q in (4, 7):
        mul = field(q).mul
        for _ in range(30):
            nrows = rng.randint(1, 4)
            base = [[rng.randrange(q) for _ in range(nrows)] for _ in range(rng.randint(1, 5))]
            cols = [[mul[rng.randrange(1, q)][x] for x in rng.choice(base)]
                    for _ in range(rng.randint(2, 10))]
            cols[rng.randrange(len(cols))] = [0] * nrows
            m = from_matrix(GFMatrix.from_columns(q, cols))
            r = m.rank()
            scans = tuple(tuple(_flats_by_scan(m, k)) for k in range(r + 1))
            for k in range(r + 2):
                got = _flats(m.rep.matrix, k, m.full_mask)[0]
                assert got == (scans[:k + 1] if k <= r else (*scans, ())), (m, k)
                assert all(len(set(flats)) == len(flats) for flats in got), (m, k)
            ranks.add(r)
    assert ranks >= {0, 1, 2, 3, 4}


@st.composite
def _gfq_matroids(draw):
    """Random GF(q) matrices with r <= 5 rows and n <= 9 columns, drawn from a
    pool that holds a zero column, so columns repeat and vanish."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    r = draw(st.integers(1, 5))
    column = st.lists(st.integers(0, q - 1), min_size=r, max_size=r)
    pool = draw(st.lists(column, min_size=1, max_size=9)) + [[0] * r]
    scale = field(q).mul[draw(st.integers(1, q - 1))]
    pool += [[scale[x] for x in c] for c in pool]  # parallel, not equal, for q > 2
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    return from_matrix(GFMatrix.from_columns(q, cols))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_gfq_matroids())
def test_flats_and_deciders_agree_on_random_gfq_matrices(m):
    for k in range(m.rank() + 1):  # k = 0 and k = rank included
        assert m.flats_of_rank(k) == _flats_by_scan(m, k)
    assert [part[-1] for part in _flats(m.rep.matrix, m.rank() + 1, m.full_mask)] == [(), ()]
    dual = m.dual()
    for k in range(1, 5):
        for l in range(1, 6 - k):
            flats = is_kl_uniform_flats(m, k, l)[0]
            assert flats == is_kl_uniform_minor(m, k, l)[0] == is_kl_uniform_flats(dual, l, k)[0]


def test_flats_cache_hands_out_fresh_lists(p10):
    m = from_matrix(p10.rep.matrix)
    first = m.flats_of_rank(2)
    got = m.flats_of_rank(2)
    got.sort(reverse=True)
    got.append(0)
    assert m.flats_of_rank(2) == first == _flats_by_scan(p10, 2)
    named = m.with_name("P10 again")
    assert named.flats_of_rank(2) == first
    assert m._least is named._least


def test_flats_of_rank_is_the_same_in_any_ask_order():
    rng = random.Random(25)
    for q in (2, 3, 4):
        for _ in range(8):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 8)
            mat = GFMatrix(q, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)])
            r = from_matrix(mat).rank()
            want = [_flats_by_scan(from_matrix(mat), k) for k in range(r + 1)]
            up, down = from_matrix(mat), from_matrix(mat)
            assert [up.flats_of_rank(k) for k in range(r + 1)] == want, mat
            assert [down.flats_of_rank(k) for k in range(r, -1, -1)] == want[::-1], mat
            assert [from_matrix(mat).flats_of_rank(k) for k in range(r + 1)] == want, mat
            # no ask keeps a list, through a copy or not, and each gets a new one
            m = from_matrix(mat)
            assert m.with_name("copy").flats_of_rank(r) == want[r]
            assert [m.flats_of_rank(k) for k in range(r + 1)] == want, mat
            assert m.flats_of_rank(r) is not m.flats_of_rank(r)
            assert up._least == down._least == m._least == [], mat


def test_flats_of_rank_past_the_rank_keeps_nothing(p10, f7):
    for m in (from_matrix(p10.rep.matrix), from_graph(5, W4_EDGES), as_rank_table(f7)):
        r = m.rank()
        with pytest.raises(MatroidError):
            m.flats_of_rank(r + 1)
        assert m._least == []
        for k in (*range(r, -1, -1), *range(r + 1)):  # down, then up
            got = m.flats_of_rank(k)
            assert got == _flats_by_scan(m, k) and got is not m.flats_of_rank(k), (m, k)
        assert m._least == [], m


def test_span_oracles_make_no_rank_calls(monkeypatch, p10):
    calls = []

    def counting(orig):
        return lambda rep, mask: calls.append(mask) or orig(rep, mask)

    for cls in (LinearRep, GraphicRep, GraftRep):
        monkeypatch.setattr(cls, "rank", counting(cls.rank))
    for m in (from_matrix(p10.rep.matrix), from_graph(5, W4_EDGES + [(1, 1)]),
              graft_matroid(5, W4_EDGES + [(1, 1)], [0, 2])):
        for mask in range(0, 1 << m.n, 7):
            m.closure(mask)
    assert calls == []
    assert from_graph(5, W4_EDGES).r(0b11) == 2 and calls  # the patch is live


def test_linear_flats_make_no_rank_or_closure_calls(monkeypatch, p10):
    calls = []

    def counting(orig):
        return lambda rep, mask: calls.append(mask) or orig(rep, mask)

    monkeypatch.setattr(LinearRep, "rank", counting(LinearRep.rank))
    monkeypatch.setattr(matroid, "span_of_columns", counting(matroid.span_of_columns))
    gf3 = GFMatrix(3, [[1, 0, 2, 0, 1], [0, 1, 1, 0, 2]])
    for m, r in ((from_matrix(p10.rep.matrix), 5), (from_matrix(gf3), 2)):
        for k in range(r + 1):
            assert m.flats_of_rank(k)
        with pytest.raises(MatroidError):
            m.flats_of_rank(r + 1)
        assert set(calls) == {m.full_mask}  # only r(E), for the range check
        assert m.rank() == r and m.r(0b11) == 2  # the patch is live
        calls.clear()
    # out of range fails at once, without walking the C(64, 30) independent sets
    rng = random.Random(3)
    wide = from_matrix(GFMatrix(2, [[rng.randrange(2) for _ in range(64)] for _ in range(30)]))
    with pytest.raises(MatroidError):
        wide.flats_of_rank(31)


def test_rank_and_closure_asks_keep_nothing():
    """r, rank, nullity and closure are computed on each ask: thousands of
    them on PG(4,2) and on a rank table leave no state on the matroid."""
    rng = random.Random(33)
    for m in (catalog.geometry("PG", 4), as_rank_table(catalog.geometry("PG", 3))):
        for _ in range(1000):
            mask = rng.getrandbits(m.n)
            cl = m.closure(mask)
            assert cl & mask == mask and m.r(mask) == m.rank(mask) == m.r(cl), (m, mask)
            assert m.nullity(mask) == mask.bit_count() - m.r(mask)
        assert m.rank() == m.r(m.full_mask) and m.closure(m.full_mask) == m.full_mask
        assert m._least == [], m


def test_first_independent_set_at_the_edges(f7, p10):
    """An l of 0 or less asks for the first independent t-set in colex
    order, and a negative t raises, on a matrix and on a rank table alike."""
    for m in (f7, p10):
        table = as_rank_table(m)
        for t in range(m.rank() + 1):
            want = next(mask for mask in range(1 << m.n)
                        if mask.bit_count() == t and m.r(mask) == t)
            for side in (m, table):
                got = [side.first_independent_set(t, l) for l in (-2, -1, 0)]
                assert got == [want] * 3, (side, t)
        for side in (m, table):
            with pytest.raises(MatroidError):
                side.first_independent_set(-1, 0)


def _coloop_matrix(p10):
    """P10 (rank 5) beside two coloops, in rows of their own, and a loop."""
    cols = [list(c) + [0, 0] for c in zip(*p10.rep.matrix.rows)]
    cols[3:3] = [[0] * 5 + [1, 0], [0] * 7]
    cols.append([0] * 6 + [1])
    return from_matrix(GFMatrix.from_columns(2, cols))


def test_least_flats_walk_only_the_columns_outside_the_coloops(monkeypatch, p10):
    walked = []

    def wrapped(mat, k, cols, root):
        assert root == 0  # no series class: nothing is contracted
        walked.append((cols, k))
        return _flats(mat, k, cols, root)

    monkeypatch.setattr(matroid, "_flats", wrapped)
    m = _coloop_matrix(p10)
    n, r, c = 13, 7, 2
    assert (m.n, m.rank(), m.coloops().bit_count()) == (n, r, c)
    rest = m.full_mask ^ m.coloops()  # the columns outside the coloops
    for t in range(r, -1, -1):  # the deepest first: one walk serves every t
        m.least_flats(t)
    assert walked == [(rest, r - c)]
    walked.clear()
    fresh = from_matrix(m.rep.matrix)
    for t in range(r + 1):  # the shallowest first: a walk per deeper part rank
        assert fresh.least_flats(t) == m.least_flats(t)
    assert walked == [(rest, min(t, r - c)) for t in range(r - c + 1)]
    assert [len(entry) for entry in fresh._least] == [2] * (r + 1)  # the tables only
    walked.clear()
    dual = m.dual()  # M*'s one coloop is M's loop
    dual.least_flats(dual.rank() - 1)
    assert walked == [(dual.full_mask ^ dual.coloops(), dual.rank() - 1)]  # min(t, r* - c), c = 1
    assert dual.coloops().bit_count() == 1


SERIES_TEXT = """
2 6 12
0 0 0 0 0 1 1 0 0 0 1 0
0 0 0 0 1 0 1 0 1 0 1 1
0 0 0 0 0 1 1 0 1 0 0 1
0 0 0 0 1 0 0 1 0 0 1 1
0 0 0 0 0 0 1 0 1 0 0 1
1 1 1 1 0 0 1 1 0 0 1 1
"""


def test_least_flats_walk_the_series_reduced_matroid(monkeypatch, p10):
    """A matrix with series classes {4, 6, 10} and {7, 11}, a coloop (5), a
    loop (9) and four parallel columns walks E - C - D from span(D), D =
    {4, 6, 7} (all but the largest of each class), to depth min(t, r''),
    r'' = r - |C| - |D|, covering the ranks up to t; a cosimple matrix
    walks from root 0."""
    walked = []

    def wrapped(mat, k, cols, root):
        walked.append((cols, k, root))
        return _flats(mat, k, cols, root)

    monkeypatch.setattr(matroid, "_flats", wrapped)
    m = from_matrix(parse_matrix(SERIES_TEXT))
    assert [c for c in m.series_classes() if c & c - 1] == [0b10001010000, 0b100010000000]
    assert (m.rank(), m.coloops(), m.loops()) == (6, 1 << 5, 1 << 9)
    d, rr = 1 << 4 | 1 << 6 | 1 << 7, 2
    rest = m.full_mask ^ 1 << 5 ^ d
    for t in range(6, -1, -1):  # the deepest first: one walk serves every t
        m.least_flats(t)
    assert walked == [(rest, rr, d)]
    walked.clear()
    fresh = from_matrix(m.rep.matrix)
    for t in range(7):  # the shallowest first: a walk per deeper rank
        assert fresh.least_flats(t) == m.least_flats(t)
        assert [fresh.first_independent_set(t, l) for l in range(7)] == [
            m.first_independent_set(t, l) for l in range(7)]
    assert walked == [(rest, min(t, rr), d) for t in range(7)]
    walked.clear()
    cosimple = from_matrix(p10.rep.matrix)
    cosimple.least_flats(4)
    assert walked == [(cosimple.full_mask, 4, 0)]


def _theta_graph(k):
    """k paths of three edges between vertices 0 and 1, path i's edges
    taken in order from 0."""
    edges = [e for i in range(k) for e in ((0, 2 + 2 * i), (2 + 2 * i, 3 + 2 * i), (3 + 2 * i, 1))]
    return from_graph(2 + 2 * k, edges)


def test_least_flats_keep_no_set_past_the_asked_rank(monkeypatch):
    """A theta graph of twelve paths of three edges between two vertices:
    each path is a series class, and contracting all but its last edge
    leaves twelve parallel edges, spanned by every nonempty set of them.
    Asked for rank 2, no set of representatives is listed whose flats have
    rank above 2, where listing them all would take 2^12 - 1 of rank 3 to
    25: `_bits` runs 16 times, against 4,111 for a walk that covers every
    rank; the least rank-2 flat is the first two edges of a path."""
    k = 12
    m = _theta_graph(k)
    assert (m.n, m.rank(), len(m.series_classes())) == (3 * k, 2 * k + 1, k)
    calls, bits = [], matroid._bits
    monkeypatch.setattr(matroid, "_bits", lambda mask: calls.append(mask) or bits(mask))
    assert m.least_flats(2) == (0b11,) + (None,) * (k - 1)  # n - r = k - 1
    assert 0 < len(calls) <= 4 * k, len(calls)


def _series_cases(m, flat, classes):
    """(s - 1 of a class with x outside G, J nonempty, J meeting greedy''(G))
    for a flat of m, read from its definition (see `Matroid.least_flats`)."""
    d = sum(c ^ 1 << c.bit_length() - 1 for c in classes)
    partial = [c for c in classes if flat & c != c]
    g = m.closure(flat & ~d & ~sum(partial) | d) & ~d
    j = g & sum(1 << c.bit_length() - 1 for c in partial)
    basis = d
    for e in range(m.n):
        if g >> e & 1 and m.r(basis | 1 << e) > basis.bit_count():
            basis |= 1 << e
    short = any((flat & c).bit_count() == c.bit_count() - 1 and not g >> c.bit_length() - 1 & 1
                for c in partial)
    return short, bool(j), bool(j & basis)


def _series_corpus():
    """Seeded GF(2), GF(3) and GF(4) matrices of at most 10 columns with
    parallel columns, loops, coloops and a triangle (rows of their own),
    and their duals: one side's parallel classes are the other's series
    classes, and the triangle is a series class that is a circuit."""
    rng = random.Random(37)
    corpus = []
    for i, q in enumerate((2, 3, 4), 1):
        mul = field(q).mul
        while len(corpus) < 80 * i:  # 40 matrices and their duals per field
            nrows, c, tri = rng.randint(1, 4), rng.randint(0, 2), rng.random() < 0.3
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(rng.randint(2, 5))]
            cols += [[mul[rng.randrange(1, q)][x] for x in rng.choice(cols)]
                     for _ in range(rng.randint(1, 3))]
            cols += [[0] * nrows for _ in range(rng.randint(0, 1))]
            cols = [col + [0] * (c + 2 * tri) for col in cols]
            cols += [[0] * (nrows + i) + [1] + [0] * (c + 2 * tri - i - 1) for i in range(c)]
            if tri:
                cols += [[0] * (nrows + c) + v for v in ([1, 0], [0, 1], [1, 1])]
            if len(cols) <= 10:
                rng.shuffle(cols)
                m = from_matrix(GFMatrix.from_columns(q, cols))
                corpus += [m, m.dual()]
    return corpus


def test_least_flats_match_a_subset_scan_on_series_classes():
    """Every table of `least_flats` and `first_independent_set`, asked in a
    shuffled order, equals a scan of every subset of the dense rank table
    and the rank table's own answers; the corpus reaches each case of the
    argument in `least_flats`' docstring among the answers."""
    rng = random.Random(38)
    reached = dict.fromkeys(("short", "in J", "J on greedy", "circuit class", "coloops"), 0)
    for m in _series_corpus():
        rt, n, r = full_rank_table(m), m.n, m.rank()
        table = as_rank_table(m)
        classes = [c for c in m.series_classes() if c & c - 1]
        reached["circuit class"] += any(rt[c] == c.bit_count() - 1 for c in classes)
        reached["coloops"] += bool(classes and m.coloops())
        want = {t: ([None] * (n - r + 1), [None] * (n - r + 1)) for t in range(r + 1)}
        for mask in range(1 << n):
            if all(rt[mask | 1 << e] > rt[mask] for e in range(n) if not mask >> e & 1):
                basis = 0
                for e in range(n):
                    if mask >> e & 1 and rt[basis | 1 << e] > basis.bit_count():
                        basis |= 1 << e
                best, bases = want[rt[mask]]
                for l in range(mask.bit_count() - rt[mask] + 1):
                    best[l] = mask if best[l] is None else min(best[l], mask)
                    bases[l] = basis if bases[l] is None else min(bases[l], basis)
        asks = list(range(r + 1))
        rng.shuffle(asks)
        for t in asks:
            got = m.least_flats(t), [m.first_independent_set(t, l) for l in range(n - r + 1)]
            assert got == (tuple(want[t][0]), want[t][1]), (m.rep.matrix.rows, t)
            assert got == (table.least_flats(t),
                           [table.first_independent_set(t, l) for l in range(n - r + 1)])
            for flat in {*got[0], *map(m.closure, got[1])} - {None}:
                short, in_j, on_greedy = _series_cases(m, flat, classes)
                reached["short"] += short
                reached["in J"] += in_j
                reached["J on greedy"] += on_greedy
    assert min(reached.values()) >= 5, reached


def test_least_flats_are_the_same_in_any_ask_order(p10):
    """Deepest-first, shallowest-first and a shuffled order of asks give
    every table of `least_flats` and `first_independent_set` alike on the
    series corpus, a matrix with coloops and the theta graph, and keep
    nothing but the tables."""
    rng = random.Random(39)
    for m in _series_corpus() + [_coloop_matrix(p10), _theta_graph(12)]:
        r, top = m.rank(), m.n - m.rank()
        got = []
        for order in (range(r, -1, -1), range(r + 1), rng.sample(range(r + 1), r + 1)):
            fresh = Matroid(m.rep, m.labels)
            tables = {t: (fresh.least_flats(t), [fresh.first_independent_set(t, l)
                                                 for l in range(top + 1)]) for t in order}
            got.append(sorted(tables.items()))
            assert [len(entry) for entry in fresh._least] == [2] * (r + 1), m
        assert got[0] == got[1] == got[2], m


def _flats_of_submatrix(mat, k, cols):
    """The flats walk of a column mask as a column submatrix: `_flats` over
    all columns of the submatrix, each flat and basis spread back to mat's
    columns."""
    keep = [j for j in range(mat.ncols) if cols >> j & 1]
    walked = _flats(mat.select_columns(keep), k, (1 << len(keep)) - 1)
    return tuple(tuple(tuple(sum(1 << keep[i] for i in range(len(keep)) if f >> i & 1)
                             for f in flats) for flats in part) for part in walked)


def test_flats_of_a_column_mask_match_the_submatrix_walk():
    """GF(2), GF(3), GF(4), GF(5) and GF(7) matrices with loops, coloops (a
    row of their own) and parallel columns, walked over random column
    masks, the mask without the coloops and the full mask.  Each basis the
    walk returns is the greedy basis of the flat beside it."""
    rng = random.Random(30)
    loops_left_out = checked = 0
    for q in (2, 3, 4, 5, 7):
        mul = field(q).mul
        for _ in range(12):
            nrows = rng.randint(1, 4)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(rng.randint(1, 6))]
            cols += [[mul[rng.randrange(1, q)][x] for x in rng.choice(cols)] for _ in range(2)]
            cols += [[0] * nrows] * rng.randint(1, 2)
            rng.shuffle(cols)
            cols = [c + [0] for c in cols]  # one coloop, in a row of its own
            cols.insert(rng.randrange(len(cols) + 1), [0] * nrows + [1])
            m = from_matrix(GFMatrix.from_columns(q, cols))
            mat, loops = m.rep.matrix, m.loops()
            assert m.coloops() and loops
            masks = [m.full_mask, m.full_mask ^ m.coloops(), 0]
            masks += [rng.randrange(1 << m.n) for _ in range(6)]
            for cols in masks:
                r = rank_of_columns(mat, cols)
                for k in (0, r // 2, r, r + 1):
                    want = _flats_of_submatrix(mat, k, cols)
                    assert _flats(mat, k, cols) == want, (mat.rows, k, cols)
                flats, bases = _flats(mat, r, cols)
                for j in range(r + 1):
                    assert len(flats[j]) == len(bases[j]) and flats[j], (mat.rows, j, cols)
                    for flat, basis in zip(flats[j], bases[j]):
                        assert basis == _greedy_basis(m, flat), (mat.rows, flat, cols)
                        assert basis.bit_count() == j and basis & ~cols == 0, (mat.rows, basis)
                        checked += 1
                loops_left_out += bool(loops & ~cols)
    assert loops_left_out > 20 and checked > 1000


def _graph_rank(nverts, edges, mask):
    """|V| less the components of (V, X), by a union-find of its own."""
    parent = list(range(nverts))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for j, (u, v) in enumerate(edges):
        if mask >> j & 1 and root(u) != root(v):
            parent[root(u)] = root(v)
            rank += 1
    return rank


K44_EDGES = [(u, v) for u in range(4) for v in range(4, 8)]


def test_derived_tables_come_from_the_dense_table_without_rank_calls(monkeypatch):
    """dual() and direct_sum() of a 16-edge graph, and of smaller graphs and
    rank tables, against a brute-force rank check: r*(X) = |X| + r(E - X) -
    r(E), and the sum's rank is r1(X1) + r2(X2) with m1 in the low bits.
    No derived table asks the graph's rank oracle."""
    calls = []
    orig = GraphicRep.rank
    monkeypatch.setattr(GraphicRep, "rank", lambda rep, mask: calls.append(mask) or orig(rep, mask))
    graph = from_graph(8, K44_EDGES)
    dual = graph.dual()
    assert calls == []
    full = graph.full_mask
    ranks = [_graph_rank(8, K44_EDGES, mask) for mask in range(1 << 16)]
    assert dual.rep.table == bytes(mask.bit_count() + ranks[full ^ mask] - 7
                                   for mask in range(1 << 16))
    graph = from_graph(8, K44_EDGES)
    both = direct_sum(graph, matroid.uniform(0, 1))
    assert calls == []
    assert both.rep.table == bytes(ranks) * 2
    w4, u23 = from_graph(5, W4_EDGES), u_matroid(2, 3)
    w4_rank = [_graph_rank(5, W4_EDGES, mask) for mask in range(1 << 8)].__getitem__

    def u23_rank(mask):
        return min(mask.bit_count(), 2)

    for m, rank in ((w4, w4_rank), (as_rank_table(w4), w4_rank), (u23, u23_rank)):
        want = bytes(mask.bit_count() + rank(m.full_mask ^ mask) - rank(m.full_mask)
                     for mask in range(1 << m.n))
        assert m.dual().rep.table == want, m
    for m1, r1, m2, r2 in ((w4, w4_rank, u23, u23_rank), (u23, u23_rank, w4, w4_rank)):
        want = bytes(r1(mask & m1.full_mask) + r2(mask >> m1.n) for mask in range(1 << 11))
        assert direct_sum(m1, m2).rep.table == want, (m1, m2)
    assert calls == []
    assert w4.r(0b11) == 2 and calls  # the patch is live


def test_circuits(f7, p9, p10):
    tri = [c for c in f7.circuits() if c.bit_count() == 3]
    assert len(tri) == 7
    p9_tris = sorted(p9.labels_of(c) for c in p9.circuits(max_size=3))
    assert p9_tris == [
        ("1", "2", "5"),
        ("1", "4", "8"),
        ("1", "6", "9"),
        ("2", "3", "6"),
        ("3", "4", "7"),
        ("3", "5", "9"),
    ]
    assert len(p10.circuits()) == 26
    assert u_matroid(3, 3).circuits() == ()
    assert u_matroid(0, 2).circuits() == (1, 2)  # two loops
    cycle = from_graph(22, [(i, (i + 1) % 22) for i in range(22)])  # past the scan cap
    assert cycle.circuits() == (cycle.full_mask,)


def test_circuit_routes_agree(p9):
    tbl = as_rank_table(p9)
    assert p9.circuits() == tbl.circuits()


def _by_size(masks):
    return tuple(sorted(masks, key=lambda v: (v.bit_count(), v)))


def test_circuit_walk_matches_the_scan():
    rng = random.Random(26)
    corpus = []
    for q in (3, 4, 5, 7):
        for _ in range(12):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 8)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(ncols)]
            cols.append([0] * nrows)  # a loop
            scale = field(q).mul[rng.randrange(1, q)]
            cols.append([scale[x] for x in cols[rng.randrange(ncols)]])  # a parallel column
            rng.shuffle(cols)
            corpus.append(from_matrix(GFMatrix.from_columns(q, cols)))
    # GF(2) past corank 16 walks too
    wide = [[rng.randrange(2) for _ in range(20)] for _ in range(2)]
    corpus.append(from_matrix(GFMatrix(2, wide)))
    for m in corpus:
        r = m.rank()
        for size in range(1, r + 2):
            assert m.circuits(max_size=size) == _by_size(m._circuits_by_scan(size)), (m, size)
        assert m.circuits() == m.circuits(max_size=r + 1)
        assert m.circuits(max_size=0) == ()


def test_bounded_cycle_space_matches_the_scan():
    """A binary matrix of corank at most 16 reads its circuits from the sums
    of at most max_size null-space rows: at every size they are the scan's."""
    rng = random.Random(32)
    shapes = [(rng.randint(1, 5), rng.randint(1, 19)) for _ in range(16)] + [(5, 19)]
    seen = set()
    for nrows, ncols in shapes:
        cols = [[rng.randrange(2) for _ in range(nrows)] for _ in range(ncols)]
        cols += [[0] * nrows, list(cols[rng.randrange(ncols)])]  # a loop and a parallel column
        rng.shuffle(cols)
        m = from_matrix(GFMatrix.from_columns(2, cols))
        r = m.rank()
        if m.n - r > 16:
            continue
        seen.add(m.n)
        want = _by_size(m._circuits_by_scan(r + 1))  # the scan goes size by size
        for size in range(r + 2):
            assert m.circuits(max_size=size) == tuple(
                c for c in want if c.bit_count() <= size), (m, size)
    assert 21 in seen


def _circuits_by_definition(m, size):
    """Dependent sets of at most size elements whose every one-smaller
    subset is independent, from the rank oracle alone."""
    return _by_size(mask for k in range(1, size + 1) for mask in matroid._subsets(m.n, k)
                    if m.r(mask) < k and all(m.r(mask ^ 1 << i) == k - 1 for i in range(m.n)
                                             if mask >> i & 1))


def test_circuits_at_the_lane_edge():
    # a tagged column has n + nrows lanes: 64 walks, and 72 and 128 take the scan
    rng = random.Random(64)
    for ncols, nrows, size in ((56, 8, 3), (64, 8, 3), (64, 64, 2)):
        cols = [[rng.randrange(3) for _ in range(nrows)] for _ in range(ncols - 4)]
        cols += [[0] * nrows, [0] * nrows, cols[5], [2 * x % 3 for x in cols[9]]]
        m = from_matrix(GFMatrix.from_columns(3, cols))
        got = m.circuits(max_size=size)
        assert got == _circuits_by_definition(m, size), (ncols, nrows)
        n = ncols
        assert {1 << n - 4, 1 << n - 3, 1 << 5 | 1 << n - 2, 1 << 9 | 1 << n - 1} <= set(got)


def _greedy_basis(m, flat):
    basis = 0
    for i in range(m.n):
        if flat >> i & 1 and m.r(basis | 1 << i) > basis.bit_count():
            basis |= 1 << i
    return basis


def _flats_by_greedy_basis(m, k):
    """The rank-k flats sorted by the combination-order position of their
    greedy bases.  By Gale's theorem the greedy basis (elements taken in
    index order) is a flat's lexicographically least basis, so this is the
    order in which a scan of the k-sets first meets each flat as a closure."""
    flats = {_closure_by_rank_loop(m, sum(1 << i for i in combo))
             for combo in itertools.combinations(range(m.n), k)
             if m.r(sum(1 << i for i in combo)) == k}
    return sorted(flats, key=lambda f: [i for i in range(m.n) if _greedy_basis(m, f) >> i & 1])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_gfq_matroids())
def test_flats_order_is_the_greedy_basis_order(m):
    for side in (m, as_rank_table(m)):
        for k in range(side.rank() + 1):
            assert side.flats_of_rank(k) == _flats_by_greedy_basis(side, k), (side, k)


def test_minors(p10):
    w4 = p10.minor(contract="5", delete=["10"])
    assert (w4.n, w4.rank()) == (8, 4)
    assert w4.labels == ("1", "2", "3", "4", "6", "7", "8", "9")
    z4 = p10.contract(["8"])
    assert (z4.n, z4.rank()) == (9, 4)
    same = p10.contract(0)
    assert all(same.r(m) == p10.r(m) for m in range(1 << 10))
    with pytest.raises(MatroidError):
        p10.minor(contract="1", delete="1")


def test_minor_commutation(p10):
    a = p10.minor(contract=["1", "6"], delete=["7"])
    b = p10.delete(["7"]).contract(["1", "6"])
    assert a.labels == b.labels
    assert all(a.r(m) == b.r(m) for m in range(1 << a.n))


def test_rank_table_minors_match_the_matrix_minors_byte_for_byte(p10):
    """A rank table's minor, read from its dense table, is the table of the
    matrix's minor, which `rref` contracts: random contract and delete sets
    (either one empty too) on matrices over five fields, with loops and
    parallel columns, and on graphs and grafts."""
    rng = random.Random(31)
    corpus = [m for m in _span_corpus() if m.rep.matrix is not None] + [p10]
    for m in corpus:
        table = as_rank_table(m)
        for _ in range(4):
            con, rest = 0, 0
            for i in range(m.n):
                pick = rng.randrange(3)
                con |= (pick == 0) << i
                rest |= (pick == 1) << i
            for c, d in ((con, rest), (con, 0), (0, rest), (0, 0)):
                want = m.minor(contract=c, delete=d)
                got = table.minor(contract=c, delete=d)
                assert got.labels == want.labels, (m, c, d)
                assert got.rep.table == full_rank_table(want), (m, c, d)


def test_dual(p10, f7):
    d = p10.dual()
    assert d.rank() == 5
    n, full = p10.n, p10.full_mask
    for mask in range(1 << n):
        assert d.r(mask) == mask.bit_count() + p10.r(full ^ mask) - 5
    dd = d.dual()
    assert all(dd.r(m) == p10.r(m) for m in range(1 << n))
    assert f7.dual().rank() == 4


def test_direct_sum():
    u22 = from_matrix(GFMatrix(field(2), [(1, 0), (0, 1)]))
    u01 = from_matrix(GFMatrix(field(2), [(0,)]))
    s = direct_sum(u22, u01)
    assert s.rank() == 2
    assert s.labels_of(s.loops()) == ("1'",)
    assert not s.is_connected()
    f7 = from_matrix(parse_matrix(F7_TEXT))
    both = direct_sum(f7, u01)
    left = set(f7.circuits())
    assert set(both.circuits()) == left | {1 << 7}
    empty = direct_sum(f7, from_matrix(GFMatrix(field(2), ((),))))
    assert all(empty.r(m) == f7.r(m) for m in range(1 << 7))
    nothing = from_matrix(GFMatrix(field(2), []))  # 0 x 0: the sum keeps one zero row
    zero = direct_sum(nothing, nothing)
    assert (zero.n, zero.rank(), zero.rep.matrix.rows) == (0, 0, ((),))


def test_parallel_connection():
    u12 = from_matrix(GFMatrix(field(2), [(1, 1)]))
    p = parallel_connection(u12, "1", u12, "1")
    assert (p.n, p.rank()) == (3, 1)
    assert p.parallel_classes() == [7]  # one class of three: U_{1,3}
    w3 = from_graph(4, K4_EDGES)
    u23 = u_matroid(2, 3)
    q = parallel_connection(u23, "1", w3, "1")
    assert q.rank() == u23.rank() + w3.rank() - 1
    with pytest.raises(MatroidError):
        parallel_connection(u_matroid(0, 1), "1", u12, "1")  # loop basepoint
    with pytest.raises(MatroidError):
        parallel_connection(u_matroid(1, 1), "1", u12, "1")  # coloop basepoint


def _basepoint(m):
    """The last element that is neither a loop nor a coloop, or None."""
    free = m.full_mask & ~m.loops() & ~m.coloops()
    return m.labels[free.bit_length() - 1] if free else None


def _gluing_corpus():
    """Seeded GF(2) pairs and GF(3) pairs, and U(2,3) and U(2,4) glued to
    each other, to F7, to K4's graph and to every seeded matrix."""
    rng = random.Random(17)
    uniform = [u_matroid(2, 3), u_matroid(2, 4), from_matrix(parse_matrix(F7_TEXT)),
               from_graph(4, K4_EDGES)]
    pairs = list(itertools.product(uniform[:2], uniform))
    for q in (2, 3):
        mats = [from_matrix(GFMatrix(field(q), [[rng.randrange(q) for _ in range(n)]
                                                for _ in range(rng.randint(1, 3))]))
                for n in [rng.randint(2, 6) for _ in range(16)]]
        pairs += list(zip(mats[::2], mats[1::2]))
        pairs += [(u, m) for m in mats for u in uniform[:2]]
    for m1, m2 in pairs:
        p1, p2 = _basepoint(m1), _basepoint(m2)
        if p1 is not None and p2 is not None:
            yield m1, p1, m2, p2


def test_parallel_connection_matches_its_restrictions_contraction_and_circuits():
    # P(M1, M2) | E1 = M1, P(M1, M2) | E2 = M2 and P(M1, M2) / p = M1/p + M2/p;
    # its circuits are those of each side and (C1 - p) u (C2 - p) for the
    # circuits through p (Oxley, Matroid Theory, 7.1.15)
    glued = 0
    for m1, p1, m2, p2 in _gluing_corpus():
        pc = parallel_connection(m1, p1, m2, p2)
        side1 = pc.delete(pc.labels[m1.n:])
        assert is_isomorphism(side1, m1, {lab: lab for lab in m1.labels}), (m1, m2)
        side2 = pc.delete([lab for lab in m1.labels if lab != p1])
        images = [p2] + [lab for lab in m2.labels if lab != p2]
        assert is_isomorphism(side2, m2, dict(zip(side2.labels, images))), (m1, m2)
        con = pc.contract([p1])
        both = direct_sum(m1.contract([p1]), m2.contract([p2]))
        assert is_isomorphism(con, both, dict(zip(con.labels, both.labels))), (m1, m2)
        to_pc = dict(zip(images, side2.labels))
        c1 = {frozenset(m1.labels_of(c)) for c in m1.circuits()}
        c2 = {frozenset(to_pc[lab] for lab in m2.labels_of(c)) for c in m2.circuits()}
        through = {(a | b) - {p1} for a in c1 if p1 in a for b in c2 if p1 in b}
        assert {frozenset(pc.labels_of(c)) for c in pc.circuits()} == c1 | c2 | through
        glued += 1
    assert glued > 60


def test_parallel_connection_rank_check_raises(monkeypatch):
    # a glued rank table of the wrong rank is caught, also under python -O
    monkeypatch.setattr(matroid, "full_rank_table", lambda m: bytes([1]) * (1 << m.n))
    u23 = u_matroid(2, 3)
    with pytest.raises(MatroidError):
        parallel_connection(u23, "1", u23, "1")


def test_three_sum_shape(p9, f7):
    glue = {"1": "t1", "2": "t2", "5": "t3"}
    tri = f7.labels_of(next(c for c in f7.circuits() if c.bit_count() == 3))
    remap = {tri[0]: "t1", tri[1]: "t2", tri[2]: "t3"}
    remap.update({lab: "f" + lab for lab in f7.labels if lab not in tri})
    s = binary_three_sum(p9.relabel(glue), f7.relabel(remap), ["t1", "t2", "t3"])
    assert (s.n, s.rank()) == (10, 5)
    assert s.is_simple() and s.is_cosimple()
    with pytest.raises(MatroidError):
        binary_three_sum(p9, f7, ["1", "2", "5"])  # overlap is not just the glue
    # a rank table, binary or not, and a GF(3) matrix have no GF(2) matrix to sum
    f7_gf3 = from_matrix(GFMatrix(field(3), f7.rep.matrix.rows), f7.labels)
    for other in (as_rank_table(f7), f7_gf3):
        with pytest.raises(MatroidError, match="GF\\(2\\) matrix, graph or graft"):
            binary_three_sum(p9.relabel(glue), other.relabel(remap), ["t1", "t2", "t3"])


def test_simple_cosimple(p10):
    assert p10.is_simple() and p10.is_cosimple()
    u12 = from_matrix(GFMatrix(field(2), [(1, 1)]))
    assert not u12.is_simple()
    # U_{1,3} is three parallel elements: not simple, but its dual U_{2,3}
    # is simple, so it is cosimple
    assert not u_matroid(1, 3).is_simple()
    assert u_matroid(1, 3).is_cosimple()
    assert not u_matroid(1, 1).is_cosimple()  # a coloop's dual is a loop


def test_si_cosi_reduced():
    u22 = from_matrix(GFMatrix(field(2), [(1, 0), (0, 1)]))
    u01 = from_matrix(GFMatrix(field(2), [(0,)]))
    u12 = from_matrix(GFMatrix(field(2), [(1, 1)]))
    messy = direct_sum(direct_sum(u22, u01), u12)
    assert messy.si().loops() == 0
    red = messy.reduced()
    assert red.n == 0
    f7 = from_matrix(parse_matrix(F7_TEXT))
    assert f7.reduced().n == 7  # already simple and cosimple
    for m in (f7, as_rank_table(f7)):
        assert m.si() is m and m.cosi() is m and m.reduced() is m
    # reduced() is si then cosi until neither removes anything, the same
    # alternation as si while not simple, else cosi while not cosimple
    for m in _span_corpus():
        ref = m
        while True:
            if not ref.is_simple():
                ref = ref.si()
            elif not ref.is_cosimple():
                ref = ref.cosi()
            else:
                break
        red = m.reduced()
        assert red.labels == ref.labels and full_rank_table(red) == full_rank_table(ref), m


def test_connectivity(p10):
    assert p10.is_3connected()
    assert u_matroid(0, 0).is_connected()
    assert u_matroid(1, 1).is_3connected()
    assert u_matroid(1, 3).is_3connected()
    assert u_matroid(2, 3).is_3connected()
    assert not u_matroid(0, 2).is_connected()
    f7 = from_matrix(parse_matrix(F7_TEXT))
    u01 = from_matrix(GFMatrix(field(2), [(0,)]))
    assert not direct_sum(f7, u01).is_3connected()


def test_components():
    f7 = from_matrix(parse_matrix(F7_TEXT))
    u01 = from_matrix(GFMatrix(field(2), [(0,)]))
    s = direct_sum(f7, u01)
    assert [s.labels_of(c) for c in s.components()] == [
        ("1", "2", "3", "4", "5", "6", "7"),
        ("1'",),
    ]


# ---- connectivity against reference oracles (n <= 12)


def _components_from_circuits(m, circuits):
    """Reference: union-find over every circuit."""
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in circuits:
        ids = [i for i in range(m.n) if c >> i & 1]
        for i in ids[1:]:
            parent[find(i)] = find(ids[0])
    comps = {}
    for i in range(m.n):
        comps[find(i)] = comps.get(find(i), 0) | 1 << i
    return sorted(comps.values())


def _has_separation(m, max_lambda, min_side):
    """Reference: a split with both sides >= min_side and lambda <= max_lambda
    (element 0 stays on the X side)."""
    n, full, rm = m.n, m.full_mask, m.rank()
    return any(
        min_side <= mask.bit_count() <= n - min_side
        and m.r(mask) + m.r(full ^ mask) - rm <= max_lambda
        for mask in range(1, 1 << n, 2)
    )


def _connectivity_corpus():
    corpus = random_linear_corpus(160, seed=91, qs=(2, 3, 5), r_max=5, n_max=11)
    rng = random.Random(92)
    for i in range(60):
        nverts = rng.randint(2, 6)
        edges = [(rng.randrange(nverts), rng.randrange(nverts))
                 for _ in range(rng.randint(1, 10))]
        if i % 3:
            corpus.append(from_graph(nverts, edges))
        else:
            gamma = [v for v in range(nverts) if rng.random() < 0.5]
            corpus.append(graft_matroid(nverts, edges, gamma))
    corpus += [as_rank_table(m) for m in corpus[::4]]
    corpus += [m.dual() for m in corpus[::3]]
    corpus += [e.matroid for e in catalog.cor33_family()]
    corpus += [catalog.uniform(r, n) for n in range(7) for r in range(n + 1)]
    loop, coloop = catalog.uniform(0, 1), catalog.uniform(1, 1)
    corpus += [direct_sum(catalog.uniform(r, 3), extra)
               for r in (1, 2) for extra in (loop, coloop)]
    return corpus


def test_connectivity_matches_reference_oracles():
    corpus = _connectivity_corpus()
    assert max(m.n for m in corpus) <= 12
    seen = set()
    for m in corpus:
        basis, fundamental = m.fundamental_circuits()
        assert basis.bit_count() == m.r(basis) == m.rank()
        circuits = set(m.circuits())
        assert all(fundamental[e] in circuits for e in range(m.n) if not basis >> e & 1)
        assert m.components() == _components_from_circuits(m, circuits)
        # the standard-form readers of a matrix against a rank table's rank calls
        table = as_rank_table(m)
        for name in ("fundamental_circuits", "loops", "coloops", "parallel_classes",
                     "series_classes"):
            assert getattr(m, name)() == getattr(table, name)(), (name, m)
        full, rm = m.full_mask, m.rank()
        assert m.loops() == sum(1 << e for e in range(m.n) if m.r(1 << e) == 0)
        assert m.coloops() == sum(1 << e for e in range(m.n) if m.r(full ^ 1 << e) == rm - 1)
        connected = not _has_separation(m, 0, 1)
        three = connected and not _has_separation(m, 1, 2)
        assert (m.is_connected(), m.is_3connected()) == (connected, three), m
        seen.add((m.n == 4, connected, three))
    assert seen >= {(True, False, False), (False, True, False), (False, True, True)}


def test_connectivity_never_enumerates_circuits(monkeypatch):
    def refuse(self, max_size=None):
        raise AssertionError("connectivity enumerated circuits")

    monkeypatch.setattr(Matroid, "circuits", refuse)
    p10 = catalog.named("P10")
    assert p10.is_connected() and p10.components() == [p10.full_mask]
    pg = catalog.geometry("PG", 4)
    assert pg.n == 31 and pg.is_connected()
    both = direct_sum(pg, catalog.named("F7"))
    assert [c.bit_count() for c in both.components()] == [31, 7]
    # n = 38 is past the rank-table cap; the split into components decides
    assert not both.is_3connected()


def test_3connectivity_past_the_rank_table_cap():
    pg = catalog.geometry("PG", 4)
    assert pg.n == 31 and pg.is_3connected()
    cols = tuple(zip(*pg.rep.matrix.rows))
    doubled = from_matrix(GFMatrix.from_columns(2, cols + cols[:1]))
    assert doubled.n == 32 and doubled.is_connected() and not doubled.is_3connected()
    # min(r, n - r) = 32 would take 2^32 steps: refused before the loop
    rows = [[int(i == j) for j in range(32)] + [1] * 32 for i in range(32)]
    big = from_matrix(GFMatrix(field(2), rows))
    assert big.is_connected()
    with pytest.raises(MatroidError, match="capped"):
        big.is_3connected()
    # 25 parallel pairs: min(r, n - r) = 25, but the standard form's support
    # graph is disconnected, which decides before the cap
    rows = [[int(i == j % 25) for j in range(50)] for i in range(25)]
    pairs = from_matrix(GFMatrix(field(2), rows))
    assert not pairs.is_3connected()


@st.composite
def _dense_gfq_matroids(draw):
    """Random GF(q) matrices with r <= 6 rows and n <= 12 columns, each entry
    uniform and independent, so columns seldom repeat (unlike _gfq_matroids)."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(6, n)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    return from_matrix(GFMatrix(field(q), [[rng.randrange(q) for _ in range(n)] for _ in range(r)]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_dense_gfq_matroids())
def test_3connectivity_matches_the_rank_table_pass_on_random_gfq_matrices(m):
    assert m.is_3connected() == as_rank_table(m).is_3connected()
    assert m.dual().is_3connected() == as_rank_table(m.dual()).is_3connected()


def test_3connectivity_matches_the_rank_table_pass_on_the_census_closure(monkeypatch):
    # every matroid the census minor closure reduces, and what it reduces to
    seen = []
    reduced = Matroid.reduced

    def recording(self):
        out = reduced(self)
        seen.extend((self, out))
        return out

    monkeypatch.setattr(Matroid, "reduced", recording)
    _minor_closure_3connected(census_seeds())
    monkeypatch.undo()
    verdicts = [m.is_3connected() for m in seen]
    assert verdicts == [as_rank_table(m).is_3connected() for m in seen]
    assert len(seen) > 400 and 0 < verdicts.count(False) < verdicts.count(True)


def test_3connectivity_of_graphs_and_grafts_matches_their_rank_tables():
    doubled = from_graph(5, W4_EDGES + [(0, 1)], name="W4 with a doubled spoke")
    for m in [catalog.named(name) for name in ("MW4", "MK5e", "R10")] + [doubled]:
        dual = m.dual()
        assert isinstance(dual.rep, RankTableRep)
        want = m.name != doubled.name
        assert m.is_3connected() == as_rank_table(m).is_3connected() == want, m
        linear = from_matrix(m.rep.matrix, m.labels)
        assert dual.is_3connected() == linear.dual().is_3connected() == want, m


def test_graph_rank_calls_do_not_scale_with_the_vertex_header():
    triangle = "graph 2000000 3\n0 1\n1 1999999\n1999999 0\n"
    for text, rank in ((triangle, 2), (triangle + "gamma 5 1999999\n", 3)):
        tracemalloc.start()
        try:
            nverts, edges, gamma = parse_graph_text(text)
            m = from_graph(nverts, edges) if gamma is None else graft_matroid(nverts, edges, gamma)
            assert m.rank() == from_matrix(m.rep.matrix, m.labels).rank() == rank
            assert m.closure(0b11) == 0b111
            assert m.export_text() == text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_graph_to_linear_builds_its_matrix_once():
    w4 = catalog.named("MW4")
    assert w4.rep.matrix is w4.with_name("again").rep.matrix
    assert w4.rep.matrix == incidence_matrix(5, W4_EDGES)
    # a matrix's dual is its kept null space, through every copy
    lin = from_matrix(w4.rep.matrix, w4.labels)
    for m in (lin, lin.with_name("again")):
        assert m.dual().rep.matrix is null_space(w4.rep.matrix)


def test_graphic_backend():
    w4 = from_graph(5, W4_EDGES)
    assert (w4.n, w4.rank()) == (8, 4)
    lin = from_matrix(w4.rep.matrix, w4.labels)
    assert all(lin.r(m) == w4.r(m) for m in range(1 << 8))
    d = w4.dual()
    assert isinstance(d.rep, RankTableRep)
    assert d.rank() == 8 - 4
    minor = w4.minor(contract=["1"], delete=["5"])
    lin_minor = lin.minor(contract=["1"], delete=["5"])
    assert all(minor.r(m) == lin_minor.r(m) for m in range(1 << minor.n))
    loopy = from_graph(2, [(0, 0), (0, 1)])
    assert loopy.loops() == 1 and loopy.rank() == 1


def test_graft_backend():
    g = graft_matroid(4, K4_EDGES, [0, 1, 2, 3])
    assert g.labels[-1] == "g"
    base = g.delete(["g"])
    w3 = from_graph(4, K4_EDGES)
    assert all(base.r(m) == w3.r(m) for m in range(1 << 6))
    # all four vertices marked: even in the single component, so g is spanned
    assert g.rank() == w3.rank()
    g1 = graft_matroid(4, K4_EDGES, [0])
    assert g1.rank() == w3.rank() + 1
    lin = from_matrix(g1.rep.matrix, g1.labels)
    assert all(lin.r(m) == g1.r(m) for m in range(1 << 7))
    contracted = g1.contract(["g"])
    assert isinstance(contracted.rep, LinearRep)  # graft minors are taken on the matrix
    assert contracted.rank() == g1.rank() - 1
    sub = g1.minor(contract=["1"], delete=["6"])
    lsub = lin.minor(contract=["1"], delete=["6"])
    assert all(sub.r(m) == lsub.r(m) for m in range(1 << sub.n))


def test_incidence_matrix_gamma_column():
    m = incidence_matrix(3, [(0, 1), (1, 2)], gamma=[0, 2])
    # vertex rows (1,0,1), (1,1,0), (0,1,1); the third is the sum of the first two
    assert m.rows == ((1, 0, 1), (1, 1, 0))
    # gamma odd on one component: that component's last vertex row is kept
    m = incidence_matrix(4, [(0, 1), (2, 3)], gamma=[0])
    assert m.rows == ((1, 0, 1), (1, 0, 0), (0, 1, 0))


def test_graphs_past_64_vertices_keep_at_most_rank_rows():
    m = from_graph(80, [(2 * i, 2 * i + 1) for i in range(40)])
    lin = from_matrix(m.rep.matrix, m.labels)
    assert (lin.rep.matrix.nrows, lin.rank()) == (40, 40)
    assert is_isomorphism(m, m, {lab: lab for lab in m.labels})
    assert are_isomorphic(m, m) is not None
    # a 70-vertex graft on the paths 0-1-2, 3-4-5, ...: gamma raises the rank
    # by one iff some component holds an odd number of gamma vertices
    edges = [e for i in range(0, 66, 3) for e in ((i, i + 1), (i + 1, i + 2))]
    for gamma, rank in (([0], 45), ([0, 2], 44), ([0, 5, 69], 45)):
        g = graft_matroid(70, edges, gamma)
        lin = from_matrix(g.rep.matrix, g.labels)
        assert g.rank() == rank and lin.rep.matrix.nrows == rank
        rng = random.Random(rank)
        for mask in [g.full_mask, 1 << 44] + [rng.getrandbits(g.n) for _ in range(200)]:
            assert lin.r(mask) == g.r(mask)
        assert is_isomorphism(g, lin, {lab: lab for lab in g.labels})
        assert are_isomorphic(g, g) is not None


def test_rank_axioms_sampled(p10):
    # every subset of every matroid of the corpus, through each backend's oracle
    for m in [p10] + _span_corpus():
        t = [m.r(x) for x in range(1 << m.n)]
        assert t[0] == 0
        for x in range(1 << m.n):
            out = [1 << i for i in range(m.n) if not x >> i & 1]
            for j, e in enumerate(out):
                assert t[x] <= t[x | e] <= t[x] + 1, (m, x, e)
                for f in out[j + 1:]:
                    assert t[x | e] + t[x | f] >= t[x | e | f] + t[x], (m, x, e, f)


def test_duality_swaps_deletion_and_contraction():
    # (M/e)* = M*\e and (M\e)* = M*/e, under the identity on labels
    pairs = 0
    for m in _span_corpus():
        d = m.dual()
        for e in m.labels:
            rest = {lab: lab for lab in m.labels if lab != e}
            assert is_isomorphism(m.contract([e]).dual(), d.delete([e]), rest), (m, e)
            assert is_isomorphism(m.delete([e]).dual(), d.contract([e]), rest), (m, e)
            pairs += 2
    assert pairs > 3000


def test_dual_past_the_table_cap_goes_through_the_matrix():
    path = from_graph(30, [(i, i + 1) for i in range(29)])  # 29 coloops
    assert path.dual().rank() == 0 and path.dual().labels == path.labels
    assert path.dual().rep.matrix is null_space(path.rep.matrix)
    assert path.with_name("again").dual().rep.matrix is null_space(path.rep.matrix)
    assert not path.is_cosimple()
    assert path.series_classes() == []
    assert path.cosi().n == 0 and path.reduced().n == 0
    # gamma on the two ends of a 30-edge path closes a 31-element circuit
    circuit = graft_matroid(31, [(i, i + 1) for i in range(30)], (0, 30))
    assert (circuit.n, circuit.rank(), circuit.dual().rank()) == (31, 30, 1)
    assert circuit.series_classes() == [circuit.full_mask]
    assert circuit.cosi().n == 1 and circuit.reduced().n == 0


def test_full_rank_table_routes_agree():
    w4 = from_graph(5, W4_EDGES)
    assert full_rank_table(w4) == full_rank_table(from_matrix(w4.rep.matrix, w4.labels))


def test_full_rank_table_walk_matches_the_rank_oracle():
    rng = random.Random(31)
    for q in (2, 3, 4, 5, 7):
        for _ in range(4):
            r, n = rng.randint(1, 5), rng.randint(0, 10)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
            m = from_matrix(GFMatrix(field(q), rows))
            want = bytes(rank_of_columns(m.rep.matrix, mask) for mask in range(1 << n))
            assert full_rank_table(m) == want, (q, rows)


def test_full_rank_table_makes_no_rank_calls(monkeypatch):
    rng = random.Random(12)
    rows = [[rng.randrange(3) for _ in range(12)] for _ in range(5)]
    m = from_matrix(GFMatrix(field(3), rows))
    want = bytes(m.r(mask) for mask in range(1 << 12))
    calls = []
    orig = LinearRep.rank
    monkeypatch.setattr(LinearRep, "rank", lambda rep, mask: calls.append(mask) or orig(rep, mask))
    assert full_rank_table(m) == want
    # connectivity of a matrix reads its standard form and makes no rank call
    m.is_connected()
    m.is_3connected()
    assert calls == []
    assert m.r(1) == want[1] and calls  # the patch is live


def _sampled_certificate_masks(n):
    # the subsets a certificate check sampling 60 masks with seed 11 looked at
    rng = random.Random(11)
    masks = {0, (1 << n) - 1} | {1 << i for i in range(n)}
    return masks | {rng.randrange(1 << n) for _ in range(60)}


def test_isomorphism_rejects_a_table_wrong_on_one_unsampled_subset():
    ag = catalog.geometry("AG", 4)
    sampled = _sampled_certificate_masks(ag.n)
    missed = next(mask for mask in range(1 << ag.n)
                  if mask.bit_count() == 3 and mask not in sampled)
    table = bytearray(full_rank_table(ag))
    table[missed] = 2  # three points of AG(4,2) never lie on a line
    tampered = Matroid(RankTableRep(ag.n, table), ag.labels)
    same = {lab: lab for lab in ag.labels}
    assert not is_isomorphism(ag, tampered, same)
    assert not is_isomorphism(tampered, ag, same)
    assert is_isomorphism(ag, as_rank_table(ag), same)
    assert is_isomorphism(as_rank_table(ag), ag, same)


def test_isomorphism_rejects_maps_that_are_not_bijections(f7):
    same = {lab: lab for lab in f7.labels}
    assert is_isomorphism(f7, f7, same)
    assert not is_isomorphism(f7, f7, {**same, "1": "2"})
    assert not is_isomorphism(f7, f7, {**same, "x": "1"})
    assert not is_isomorphism(f7, f7.delete(1), same)


def test_isomorphism_branches_agree_on_binary_corpus():
    # the row echelon branch against the rank table branch, on the true map
    # of a shuffled copy and on seeded permutations of it
    rng = random.Random(60)
    verdicts = []
    for m in random_linear_corpus(60, seed=31):
        if m.rep.matrix.field.q != 2:
            continue
        rows = [list(row) for row in m.rep.matrix.rows]
        for row in rows[1:]:  # add every other row to the first: invertible
            rows[0] = [a ^ b for a, b in zip(rows[0], row)]
        cols = rng.sample(range(m.n), m.n)
        copy = from_matrix(GFMatrix(field(2), rows).select_columns(cols),
                           labels=[f"e{m.labels[c]}" for c in cols])
        images = [f"e{lab}" for lab in m.labels]
        for trial in range(4):
            sigma = dict(zip(m.labels, images))
            verdict = is_isomorphism(m, copy, sigma)
            assert verdict == is_isomorphism(as_rank_table(m), as_rank_table(copy), sigma)
            assert verdict or trial > 0  # the first map is the true one
            verdicts.append(verdict)
            rng.shuffle(images)
    assert True in verdicts and False in verdicts


def test_affine(f7):
    assert not is_binary_affine(f7)
    # AG(3,2): binary affine cube, the eight weight-odd... use coordinates with
    # a leading all-ones row removed: columns of [1; x] for x in GF(2)^3
    rows = [[1] * 8]
    for i in range(3):
        rows.append([(v >> i) & 1 for v in range(8)])
    ag32 = from_matrix(GFMatrix(field(2), rows))
    assert is_binary_affine(ag32)
    with pytest.raises(MatroidError):
        is_binary_affine(u_matroid(2, 4))
    for other in (as_rank_table(f7), from_matrix(GFMatrix(field(3), f7.rep.matrix.rows))):
        with pytest.raises(MatroidError, match="GF\\(2\\) matrix, graph or graft"):
            is_binary_affine(other)


def test_affine_cross_check_raises(f7, monkeypatch):
    # F7 has odd circuits; hiding them makes the circuit test disagree with the
    # row-space test, which is caught, also under python -O
    monkeypatch.setattr(Matroid, "circuits", lambda self, max_size=None: ())
    with pytest.raises(MatroidError):
        is_binary_affine(f7)


def test_graph_text_round_trip():
    text = format_graph_text(4, K4_EDGES, gamma=[0, 2])
    nv, edges, gamma = parse_graph_text(text)
    assert (nv, edges, gamma) == (4, K4_EDGES, [0, 2])
    nv, edges, gamma = parse_graph_text("graph 2 1\n0 1\n")
    assert gamma is None
    with pytest.raises(MatroidError):
        parse_graph_text("graph 2 1\n0 2\n")
    with pytest.raises(MatroidError):
        parse_graph_text("2 1\n0 1\n")
    with pytest.raises(MatroidError, match="negative vertex count"):
        parse_graph_text("graph -3 0\n")
    with pytest.raises(MatroidError, match="negative vertex count"):
        from_graph(-3, [])


def test_export_text(p10):
    assert parse_matrix(p10.export_text()).point_values() == (
        16, 8, 4, 2, 1, 25, 13, 7, 18, 28,
    )
    w4 = from_graph(5, W4_EDGES)
    assert parse_graph_text(w4.export_text())[0] == 5
    # a binary rank table exports its certified GF(2) matrix, here P10's own
    # rows (they are in [I | A] form); a non-binary one has no text form
    assert as_rank_table(p10).export_text() == p10.export_text()
    with pytest.raises(MatroidError, match="rank-table matroids have no text form"):
        matroid.uniform(2, 4).export_text()


def test_relabel(p10):
    m = p10.relabel({"1": "a"})
    assert m.labels[0] == "a"
    assert m.rank(["a", "2"]) == 2
