import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import gf
from matroidkit.gf import (
    GFError,
    GFMatrix,
    field,
    format_matrix,
    null_space,
    parse_matrix,
    point_to_vector,
    rank_of_columns,
    rref,
    span_of_columns,
    subspace_masks,
)
from matroidkit.matroid import MatroidError, from_matrix, full_rank_table, parse_graph_text

P10_TEXT = """
2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
0 0 0 0 1 1 1 1 0 0
"""


def test_field_tables_prime():
    f5 = field(5)
    assert f5.add[3][4] == 2
    assert f5.mul[3][4] == 2
    assert f5.neg[2] == 3
    assert f5.inv[3] == 2
    for a in range(1, 5):
        assert f5.mul[a][f5.inv[a]] == 1


def test_field_gf4():
    f4 = field(4)
    # w is encoded 2, w+1 is encoded 3, w^2 = w + 1
    assert f4.add[2][3] == 1
    assert f4.mul[2][2] == 3
    assert f4.mul[2][3] == 1
    assert f4.mul[3][3] == 2
    assert f4.inv == (0, 1, 3, 2)
    assert f4.char == 2


def test_field_rejects_bad_order():
    with pytest.raises(GFError):
        field(6)


def test_parse_format_round_trip():
    m = parse_matrix(P10_TEXT)
    assert m.nrows == 5 and m.ncols == 10
    assert parse_matrix(format_matrix(m)) == m
    # the rows of an r x 0 matrix are blank lines
    for r in (1, 3):
        empty = GFMatrix._trusted(field(2), ((),) * r)
        assert parse_matrix(format_matrix(empty)) == empty


def test_parse_rejects_ragged():
    for text in ("2 2 3\n1 0 1\n1 0", "2 0 3", "2 1 0\n1"):
        with pytest.raises(GFError):
            parse_matrix(text)
    # a token that is not an int names its line, matrix or graph alike
    with pytest.raises(GFError, match="bad row '1 x'"):
        parse_matrix("2 1 2\n1 x")
    for text, line in (("graph 3 x", "header 'graph 3 x'"), ("graph 3 1\n0 y", "edge line '0 y'"),
                       ("graph 3 1\n0 1\ngamma z", "gamma line 'gamma z'")):
        with pytest.raises(MatroidError, match=f"bad {line}"):
            parse_graph_text(text)


def test_rref_and_rank():
    m = parse_matrix(P10_TEXT)
    red, rank, pivots = rref(m)
    assert rank == 5
    assert pivots == (0, 1, 2, 3, 4)
    assert red.select_columns(range(5)) == GFMatrix(2, [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])
    assert rank_of_columns(m, (1 << 10) - 1) == 5
    assert rank_of_columns(m, 0b111) == 3
    # columns 0,1,5 are dependent: col5 = col0 + col1 + col4... check a real one
    # col 5 = e1+e2+e5, so {0,1,4,5} has rank 3
    assert rank_of_columns(m, 0b100011 | (1 << 4)) == 3


def test_rank_of_columns_matches_rref_over_gfq():
    rng = random.Random(7)
    for q in (3, 4, 5, 7):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 8)
            cols = [[rng.randrange(q) for _ in range(nrows)] for _ in range(ncols)]
            if rng.random() < 0.5:  # a zero column and a scaled copy
                cols[rng.randrange(ncols)] = [0] * nrows
                cols[rng.randrange(ncols)] = [field(q).mul[2 % q][x] for x in cols[0]]
            m = GFMatrix.from_columns(q, cols)
            for mask in range(1 << ncols):
                picked = [j for j in range(ncols) if mask >> j & 1]
                rk = rref(m.select_columns(picked))[1] if picked else 0
                assert rank_of_columns(m, mask) == rk


def test_trusted_matrices_equal_validated_ones():
    from matroidkit.matroid import _linear_minor

    rng = random.Random(17)
    for q in (2, 3, 4, 5, 7):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 8)
            m = GFMatrix(q, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)])
            order = rng.sample(range(ncols), ncols)
            con = sorted(rng.sample(range(ncols), rng.randint(0, ncols)))
            keep = [j for j in order if j not in con]
            built = (rref(m)[0], m.select_columns(order), null_space(m),
                     _linear_minor(m, con, keep))
            for out in built:
                ref = GFMatrix(q, out.rows)
                assert out == ref and hash(out) == hash(ref) and out.field is ref.field
                assert (out.nrows, out.ncols) == (ref.nrows, ref.ncols)
                assert out.col_bits == ref.col_bits
    with pytest.raises(GFError):
        m.select_columns([0] * (gf.MAX_DIM + 1))


def _assert_reduced(m):
    """rref(m) is the reduced row echelon form of m, checked from its definition."""
    red, rank, pivots = rref(m)
    full = (1 << m.ncols) - 1
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols) and red.field is m.field
    assert rank == len(pivots) == rank_of_columns(m, full)
    assert all(not any(row) for row in red.rows[rank:])
    for i, p in enumerate(pivots):
        assert tuple(row[p] for row in red.rows) == tuple(int(k == i) for k in range(m.nrows))
        assert all(not red.rows[i][j] for j in range(p))  # the leading entry
        # the pivots are the greedy basis: each is independent of the columns before it
        assert rank_of_columns(m, (1 << p + 1) - 1) == i + 1 > rank_of_columns(m, (1 << p) - 1)
    both = GFMatrix(m.field, m.rows + red.rows) if m.nrows else m
    assert rank_of_columns(both, full) == rank  # one row space


def test_rref_is_kept_on_the_matrix():
    rng = random.Random(23)
    for q in (2, 3, 4, 5, 7):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 8)
            m = GFMatrix(q, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)])
            order = rng.sample(range(ncols), ncols)
            for out in (m, GFMatrix._trusted(m.field, m.rows), m.select_columns(order),
                        null_space(m)):
                assert rref(out) is rref(out) and null_space(out) is null_space(out)
                assert rref(out) == rref(GFMatrix(q, out.rows))
                _assert_reduced(out)
    # rank 0, and r x 0
    for zero in (GFMatrix(3, [[0, 0, 0], [0, 0, 0]]), GFMatrix._trusted(field(2), ((),) * 3),
                 parse_matrix("5 2 0")):
        assert rref(zero) == (zero, 0, ())
        _assert_reduced(zero)


def test_null_space_is_a_kernel_basis():
    m = parse_matrix(P10_TEXT)
    dual = null_space(m)
    assert (dual.nrows, dual.ncols) == (5, 10) and null_space(m) is dual
    for vec in dual.rows:
        for row in m.rows:
            assert sum(a * b for a, b in zip(row, vec)) % 2 == 0
    assert rref(dual)[1] == 5
    # full column rank leaves a kernel of 0: one zero row keeps the column count
    assert null_space(m.select_columns(range(5))).rows == ((0,) * 5,)
    assert null_space(GFMatrix(field(3), [(1, 2), (0, 1), (2, 2)])).rows == ((0, 0),)


def test_null_space_gf3():
    m = GFMatrix(field(3), [(1, 0, 2), (0, 1, 1)])
    assert null_space(m).rows == ((1, 2, 1),)


def test_point_values():
    m = parse_matrix(P10_TEXT)
    assert m.point_values() == (16, 8, 4, 2, 1, 25, 13, 7, 18, 28)
    back = GFMatrix.from_point_values(m.point_values(), 5)
    assert back == m


def test_point_vector_round_trip():
    assert point_to_vector(22, 5) == (1, 0, 1, 1, 0)
    every = tuple(range(1, 32))
    assert GFMatrix.from_point_values(every, 5).point_values() == every


def test_subspace_mask_counts_are_gaussian_binomials():
    counts = {d: len(v) for d, v in subspace_masks(4).items()}
    assert counts == {0: 1, 1: 15, 2: 35, 3: 15, 4: 1}
    counts6 = {d: len(v) for d, v in subspace_masks(6).items()}
    assert counts6 == {0: 1, 1: 63, 2: 651, 3: 1395, 4: 651, 5: 63, 6: 1}


def test_subspace_masks_are_closed_under_xor():
    for d, masks in subspace_masks(3).items():
        for mask in masks:
            members = [v for v in range(1, 8) if (mask >> (v - 1)) & 1]
            assert len(members) == (1 << d) - 1
            for a in members:
                for b in members:
                    if a != b:
                        assert (mask >> ((a ^ b) - 1)) & 1


def test_matrix_immutability():
    m = GFMatrix(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AttributeError):
        m.rows = ()
    rref(m)
    with pytest.raises(AttributeError):
        m._rref = None


# ---- packed columns: lane arithmetic against plain row reduction


def test_col_bits_packs_one_lane_per_row():
    # lanes of 1 bit for GF(2), 2 bits for GF(4), 4 bits for odd p
    for q, width in ((2, 1), (3, 4), (4, 2), (5, 4), (7, 4)):
        col = [(3 * i + 1) % q for i in range(gf.MAX_DIM)]
        m = GFMatrix.from_columns(q, [col, [0] * gf.MAX_DIM])
        assert m.col_bits == (sum(x << (width * i) for i, x in enumerate(col)), 0)


def test_lane_multiples_match_the_field_tables():
    # c v lane by lane, folded below p, for every scalar c and lane value
    for q in (2, 3, 4, 5, 7):
        f = field(q)
        col = [i % q for i in range(gf.MAX_DIM)]
        lanes = f.lanes[gf.MAX_DIM]
        packed = GFMatrix.from_columns(q, [col]).col_bits[0]
        for c, multiple in enumerate(gf._multiples(lanes, packed)):
            want = GFMatrix.from_columns(q, [[f.mul[c][x] for x in col]]).col_bits[0]
            assert multiple == want, (q, c)


def _reference_rank(q, cols):
    """Rank of column tuples over GF(q), by plain row reduction of their rows."""
    f = field(q)
    rows = [list(row) for row in zip(*cols)]
    rank = 0
    for j in range(len(cols)):
        sel = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        s = f.mul[f.inv[rows[rank][j]]]
        rows[rank] = [s[x] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = f.mul[f.neg[rows[i][j]]]
                rows[i] = [f.add[a][c[b]] for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _greedy_basis(ranks, flat):
    """The greedy basis of a flat: its elements in order, each kept that
    raises the rank."""
    basis = 0
    for j in range(flat.bit_length()):
        if flat >> j & 1 and ranks[basis | 1 << j] > ranks[basis]:
            basis |= 1 << j
    return basis


def _assert_packed_kernels_match_the_reference(m):
    """rank_of_columns, span_of_columns, _flats (every rank of each walk,
    order included, and each flat's greedy basis) and full_rank_table
    against rank tables from _reference_rank."""
    q, n, cols = m.field.q, m.ncols, tuple(zip(*m.rows))
    ranks = [_reference_rank(q, [cols[j] for j in range(n) if mask >> j & 1])
             for mask in range(1 << n)]
    spans = [mask | sum(1 << j for j in range(n) if ranks[mask | 1 << j] == ranks[mask])
             for mask in range(1 << n)]
    for mask in range(1 << n):
        assert rank_of_columns(m, mask) == ranks[mask], (m.rows, mask)
        assert span_of_columns(m, mask) == spans[mask], (m.rows, mask)
    assert full_rank_table(from_matrix(m)) == bytes(ranks)
    by_rank, bases = [], []
    for k in range(ranks[-1] + 1):
        found = {}  # first met as the closure of an independent k-subset
        for subset in itertools.combinations(range(n), k):
            mask = sum(1 << j for j in subset)
            if ranks[mask] == k:
                found.setdefault(spans[mask])
        by_rank.append(tuple(found))
        bases.append(tuple(_greedy_basis(ranks, f) for f in found))
        want = tuple(by_rank), tuple(bases)  # every rank j <= k
        assert gf._flats(m, k, (1 << n) - 1) == want, (m.rows, k)
    # no flat past the rank
    assert gf._flats(m, ranks[-1] + 1, (1 << n) - 1) == ((*by_rank, ()), (*bases, ()))


@st.composite
def _gfq_matrices(draw):
    """GF(3), GF(4), GF(5) and GF(7) matrices with up to 6 rows and 7 columns,
    their entries mostly 0 or q - 1, so that sums reach the fold's top lane
    value (6 + 6 = 12 for GF(7))."""
    q = draw(st.sampled_from((3, 4, 5, 7)))
    r, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from((0, q - 1)), st.integers(0, q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return GFMatrix(q, rows)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_gfq_matrices())
def test_packed_kernels_match_row_reduction_on_random_gfq_matrices(m):
    _assert_packed_kernels_match_the_reference(m)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_gf2_child_step_is_the_generic_formula(data):
    """The 1-bit child step (u added where bit s is set) against the one
    every other layout takes: -y u/x at lane s, read from u's multiples."""
    r = data.draw(st.integers(1, gf.MAX_DIM))
    u = data.draw(st.integers(1, (1 << r) - 1))
    rem = data.draw(st.lists(st.integers(0, (1 << r) - 1), max_size=12)) + [u]
    lanes = field(2).lanes[r]
    _, _, _, _, _, heads, lead, _, lane, _, _ = lanes
    s = heads[u.bit_length()] - 1
    t = gf._multiples(lanes, gf._scaled(lanes, u, lead[u >> s]))
    got = gf._child_step(lanes)(rem, u)
    assert got == [v ^ t[v >> s & lane] for v in rem] and got[-1] == 0


def test_packed_kernels_at_the_edges():
    rng = random.Random(64)
    for q in (2, 3, 4, 5, 7):
        top = q - 1
        edges = [
            # 64 rows: the widest ints (256 bits for 4-bit lanes)
            GFMatrix(q, [[rng.choice((0, top, rng.randrange(q))) for _ in range(5)]
                         for _ in range(gf.MAX_DIM)]),
            GFMatrix(q, [[top] * 4 for _ in range(gf.MAX_DIM)]),  # every lane at q - 1
            GFMatrix(q, [[0] * 4 for _ in range(3)]),  # the zero matrix: rank 0
            GFMatrix(q, [[top], [0], [1]]),  # a single column
            GFMatrix(q, [[top, top, 1], [top, 1, top], [1, top, top]]),
        ]
        for m in edges:
            _assert_packed_kernels_match_the_reference(m)
    zero = GFMatrix(7, [[0] * 4 for _ in range(3)])
    assert gf._flats(zero, 0, 0b1111) == (((0b1111,),), ((0,),))
    assert gf._flats(zero, 1, 0b1111) == (((0b1111,), ()), ((0,), ()))  # no flat past the rank

