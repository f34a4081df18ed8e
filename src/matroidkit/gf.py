"""Finite-field scalars and dense matrices over GF(q), q in {2, 3, 4, 5, 7}.

Matrices are immutable and small (at most 64 rows and 64 columns), so a
set of columns always fits in a machine-word bit mask.  Each matrix keeps
its reduced row echelon form (`rref`) and its null space (`null_space`,
the matrix of its dual), both on rows, once computed.  Rank, span and
flats read packed columns (`col_bits`): entry i in lane i of one int, of
1 bit for GF(2), 2 for GF(4) and 4 for GF(3), GF(5) and GF(7).  Xor adds
in characteristic 2; odd p adds ints, then takes p off every lane of the
sum s that reached p (bit 3 of s + (8 - p) set).  One echelon kernel
(`_echelon`, `_reduce`) serves rank and span.  Two depth-first walks
carry remainders modulo the span of the node down one child step
(`_child_step`): the flats of a column mask and their greedy bases, every
rank up to the one asked (`_flats`, one node per flat, one remainder per
class of columns), and the circuits of a matrix (`_circuits`), one
remainder per column.  GF(4) is not a
prime field; its tables are built from w^2 = w + 1, elements encoded 0, 1,
2 = w, 3 = w + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SUPPORTED_ORDERS",
    "MAX_DIM",
    "GFError",
    "FieldSpec",
    "field",
    "GFMatrix",
    "rref",
    "rank_of_columns",
    "span_of_columns",
    "null_space",
    "point_to_vector",
    "subspace_masks",
    "parse_matrix",
    "format_matrix",
]

SUPPORTED_ORDERS = (2, 3, 4, 5, 7)
MAX_DIM = 64


class GFError(ValueError):
    """Bad field order, malformed matrix, or out-of-range argument."""


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic tables for GF(q).  Elements are the ints 0..q-1."""

    q: int
    char: int
    add: tuple
    mul: tuple
    neg: tuple
    inv: tuple
    lanes: tuple  # lanes[r]: the packed-column layout of r rows (`_lane_layouts`)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


def _gf4_tables():
    # encode a = a0 + a1*w by the int a0 + 2*a1; addition is xor, and w^2 = w + 1
    def times(a, b):
        a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
        return (a0 & b0 ^ a1 & b1) | (a0 & b1 ^ a1 & b0 ^ a1 & b1) << 1

    return (tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
            tuple(tuple(times(a, b) for b in range(4)) for a in range(4)))


@lru_cache(maxsize=None)
def field(q: int) -> FieldSpec:
    """Return the FieldSpec for GF(q)."""
    if q not in SUPPORTED_ORDERS:
        raise GFError(f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
    if q == 4:
        add, mul = _gf4_tables()
    else:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
    neg = tuple(row.index(0) for row in add)
    inv = tuple(row.index(1) if a else 0 for a, row in enumerate(mul))
    return FieldSpec(q=q, char=2 if q == 4 else q, add=add, mul=mul, neg=neg, inv=inv,
                     lanes=_lane_layouts(q, neg, inv))


def _lane_layouts(q, neg, inv):
    """Per row count r, (p, fold, eights, lo, pk, heads, lead, shift, lane,
    size, inv) for columns of r entries: p is 0 in characteristic 2; fold,
    eights, pk and lo hold 8 - p, 8, p and (GF(4)) 1 in every lane, of 2**shift
    bits and mask `lane`; an echelon basis has `size` slots, heads[b] the first
    of the lane a column of bit length b tops; lead[x] = -1/x, inv[x] = 1/x."""
    shift, p = (q > 2) + q % 2, q % 2 and q
    lane = (1 << (1 << shift)) - 1
    heads = tuple(((b - 1) >> shift << shift) + 1 for b in range((MAX_DIM << shift) + 1))
    lead = tuple(neg[a] for a in inv)
    return tuple((p, (8 - p) * ones, 8 * ones, ones if q == 4 else 0, p * ones, heads, lead,
                  shift, lane, (r << shift) + 1, inv)
                 for r in range(MAX_DIM + 1) for ones in (((1 << (r << shift)) - 1) // lane,))


def _fill(m, fld, rows):
    object.__setattr__(m, "field", fld)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", len(rows[0]) if rows else 0)
    object.__setattr__(m, "_col_bits", None)
    object.__setattr__(m, "_rref", None)
    object.__setattr__(m, "_null", None)


class GFMatrix:
    """Immutable r x n matrix over GF(q).

    `rows` is a tuple of row tuples.  The columns are kept only packed,
    entry i in lane i of an int (`col_bits`); the reduced row echelon form
    (`rref`) and the null space (`null_space`) are kept once computed.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_col_bits", "_rref", "_null")

    def __init__(self, fld: FieldSpec, rows):
        if isinstance(fld, int):
            fld = field(fld)
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if nrows > MAX_DIM or ncols > MAX_DIM:
            raise GFError(f"matrix {nrows}x{ncols} exceeds the {MAX_DIM} cap")
        for row in rows:
            if len(row) != ncols:
                raise GFError("ragged rows")
            for x in row:
                if not 0 <= x < fld.q:
                    raise GFError(f"entry {x} not in GF({fld.q})")
        _fill(self, fld, rows)

    @classmethod
    def _trusted(cls, fld: FieldSpec, rows):
        """Matrix of rows that are already valid: a tuple of equal-length
        tuples of elements of fld, within the MAX_DIM cap.  Nothing is checked."""
        m = object.__new__(cls)
        _fill(m, fld, rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("GFMatrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GFMatrix)
            and self.field.q == other.field.q
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return f"GFMatrix(q={self.field.q}, {self.nrows}x{self.ncols})"

    @property
    def col_bits(self):
        """Tuple of packed columns: entry i of a column in lane i of its int."""
        cached = object.__getattribute__(self, "_col_bits")
        if cached is None:
            shift = self.field.lanes[0][7]  # lanes of 2**shift bits
            cached = tuple(sum(x << (i << shift) for i, x in enumerate(col))
                           for col in zip(*self.rows))
            object.__setattr__(self, "_col_bits", cached)
        return cached

    def point_values(self):
        """GF(2) only: columns as ints read with row 0 as the high bit, the
        point values that from_point_values and subspace_masks take."""
        if self.field.q != 2:
            raise GFError("point values are a GF(2) notion here")
        return GFMatrix._trusted(self.field, self.rows[::-1]).col_bits

    def select_columns(self, cols):
        """New matrix keeping the columns listed in `cols` (in that order)."""
        cols = tuple(cols)
        if len(cols) > MAX_DIM:
            raise GFError(f"{len(cols)} columns exceed the {MAX_DIM} cap")
        return GFMatrix._trusted(
            self.field, tuple(tuple(row[j] for j in cols) for row in self.rows)
        )

    @staticmethod
    def from_columns(fld, cols):
        cols = [tuple(c) for c in cols]
        if not cols:
            raise GFError("from_columns needs at least one column")
        return GFMatrix(fld, (tuple(c[i] for c in cols) for i in range(len(cols[0]))))

    @staticmethod
    def from_point_values(values, r):
        """GF(2) matrix whose columns are the given point values (row 0 = high bit)."""
        cols = [point_to_vector(v, r) for v in values]
        return GFMatrix(field(2), tuple(tuple(c[i] for c in cols) for i in range(r)))


def rref(m: GFMatrix):
    """Reduced row echelon form, computed once per matrix and kept on it.
    Returns (matrix, rank, pivot column tuple): the pivots are the greedy basis."""
    kept = m._rref
    if kept is not None:
        return kept
    fld = m.field
    add, mul, neg, inv = fld.add, fld.mul, fld.neg, fld.inv
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for j in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][j] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        s = inv[rows[r][j]]
        if s != 1:
            rows[r] = [mul[s][x] for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][j] != 0:
                c = neg[rows[i][j]]
                ri, rr = rows[i], rows[r]
                rows[i] = [add[ri[t]][mul[c][rr[t]]] for t in range(ncols)]
        pivots.append(j)
        r += 1
        if r == nrows:
            break
    kept = GFMatrix._trusted(fld, tuple(map(tuple, rows))), r, tuple(pivots)
    object.__setattr__(m, "_rref", kept)
    return kept


def _multiples(lanes, v):
    """[0, v, 2v, ...]: c v at c for each scalar c, for packed column v; for
    GF(4) from w(a0 + a1 w) = a1 + (a0 + a1) w."""
    p, fold, eights, lo, _, _, _, _, _, _, _ = lanes
    mult = [0, v]
    if p:
        s = v
        for _ in range(p - 2):
            s += v
            s -= ((s + fold & eights) >> 3) * p
            mult.append(s)
    elif lo:
        wv = v >> 1 & lo | ((v ^ v >> 1) & lo) << 1
        mult += (wv, v ^ wv)
    return mult


def _scaled(lanes, v, c):
    """c v for packed column v and a nonzero scalar c."""
    if c == 1:
        return v
    p, fold, eights, _, pk, _, _, _, _, _, _ = lanes
    if c == p - 1:
        v = pk - v
        return v - ((v + fold & eights) >> 3) * p
    return _multiples(lanes, v)[c]


def _monic(lanes, v):
    """Nonzero packed column v scaled to a top lane of 1."""
    return _scaled(lanes, v, lanes[10][v >> lanes[5][v.bit_length()] - 1])


def _reduce(lanes, piv, v, insert=True):
    """Reduce packed column v against the echelon basis piv: None if v lies in
    its span, else the first slot of the lane its remainder u tops, where
    `insert` keeps -u/x, x the value of that lane.  piv[b] serves top lanes
    of bit length b; a lane's other slots, filled on first use, hold -u/x for
    odd p (a step lowers the lane by 1), -w u/x for GF(4) (it clears a bit)."""
    p, fold, eights, _, _, heads, lead, _, _, _, _ = lanes
    while v:
        b = v.bit_length()
        t = piv[b]
        if t is None:
            h = heads[b]
            first = piv[h]
            if first is None:
                if insert:
                    piv[h] = _scaled(lanes, v, lead[v >> h - 1])
                return h
            t = piv[b] = first if p else _multiples(lanes, first)[2]
        if p:
            v += t
            v -= ((v + fold & eights) >> 3) * p
        else:
            v ^= t
    return None


def _echelon(m: GFMatrix, mask: int):
    """(lanes, columns, piv, rank): m's lane layout and packed columns, and
    an echelon basis (`_reduce`) of the columns in `mask` with its size."""
    if mask < 0 or mask >> m.ncols:
        raise GFError(f"column mask {mask:#x} out of range for {m.ncols} columns")
    lanes = m.field.lanes[m.nrows]  # lanes[9]: the number of slots
    cols, piv, rank = m._col_bits or m.col_bits, [None] * lanes[9], 0
    while mask:
        low = mask & -mask
        mask ^= low
        if _reduce(lanes, piv, cols[low.bit_length() - 1]) is not None:
            rank += 1
    return lanes, cols, piv, rank


def rank_of_columns(m: GFMatrix, mask: int) -> int:
    """Rank of the set of columns selected by `mask` (bit j = column j)."""
    return _echelon(m, mask)[3]


def span_of_columns(m: GFMatrix, mask: int) -> int:
    """Mask of the columns lying in the span of those selected by `mask`: one
    echelon basis of the selection, then each other column reduced once."""
    lanes, cols, piv, _ = _echelon(m, mask)
    span, rest = mask, ((1 << m.ncols) - 1) ^ mask
    while rest:
        low = rest & -rest
        rest ^= low
        if _reduce(lanes, piv, cols[low.bit_length() - 1], insert=False) is None:
            span |= low
    return span


def _child_step(lanes):
    """The child step of the walks, for packed columns of this layout:
    clear(rem, u) is the remainders rem of a node, each reduced by the
    nonzero remainder u of the column the child adds.  u's top lane s,
    holding x, is the pivot: each v whose lane s holds y gains -y u/x, which
    clears lane s (u itself becomes 0).  In 1-bit lanes (GF(2)) x = y = 1
    and -1 = 1, so that is u added to each v with bit s set."""
    p, fold, eights, _, _, heads, lead, shift, lane, _, _ = lanes
    if not shift:
        def clear(rem, u):
            s = u.bit_length() - 1
            return [v ^ u if v >> s & 1 else v for v in rem]

        return clear

    def clear(rem, u):
        s = heads[u.bit_length()] - 1
        t = _multiples(lanes, _scaled(lanes, u, lead[u >> s]))
        if p:
            return [w - ((w + fold & eights) >> 3) * p
                    for v in rem for w in (v + t[v >> s & lane],)]
        return [v ^ t[v >> s & lane] for v in rem]

    return clear


def _flats(m: GFMatrix, k: int, cols: int, root: int = 0):
    """(flats, bases): the flats of every rank 0 ... k (at most the rank of
    `cols`, else empty) of the columns in the mask `cols`, and beside each
    its greedy basis.  Entry j of flats is a tuple of the rank-j masks in
    the order a scan of the j-subsets in combination order first meets them
    as closures of independent sets; entry j of bases holds their greedy
    bases in the same order.

    That first set is the flat's greedy basis (D. Gale, J. Combin. Theory 4,
    1968), so one depth-first walk over greedy bases in combination order,
    to depth k - 1, lists each flat once and in that order.  A node P, the
    greedy basis of cl(P), sorts the columns outside cl(P) into classes of
    remainders modulo span(P) equal up to a scalar, and keeps one remainder,
    scaled to a top lane of 1 (`_monic`), and the mask of each class, in
    order of least element.  For e > max(P), cl(P + e) is cl(P) plus e's
    class, and P + e is its greedy basis iff e is the least element of the
    class: one flat, basis P + e and one child per class whose least element
    is past max(P).  The child step (`_child_step`) is linear, so one
    remainder serves a class: e's becomes zero and joins cl, and the others
    merge where they meet.  No column outside `cols` is read.

    A nonzero `root`, an independent set of columns outside `cols`, makes it
    the walk of the contraction by root: the child step reduces every
    column by root's, one root column at a time, before the walk starts,
    so rank j is rank j of the contracted columns and the loops are the
    columns of `cols` in span(root)."""
    lanes, packed = m.field.lanes[m.nrows], m._col_bits or m.col_bits
    inner = (1 << lanes[7]) - 1  # the bits of a lane above its lowest
    clear = _child_step(lanes)
    flats, bases = [[] for _ in range(k)], [[] for _ in range(k)]  # ranks 1 ... k

    def walk(rem, masks, cl, basis, d):  # basis: P, the greedy basis of cl
        merged = {}  # the classes of P: rem's nonzero remainders, scaled
        for v, part in zip(rem, masks):
            if v:
                if v.bit_length() - 1 & inner:  # the top lane holds more than 1
                    v = _monic(lanes, v)
                merged[v] = merged.get(v, 0) | part
        rem, masks = list(merged), list(merged.values())
        last = len(masks) - 1
        for i, mask in enumerate(masks):
            low = mask & -mask
            if low > basis:  # the class's least element is past max(P)
                flats[d].append(cl | mask)  # rank d + 1
                bases[d].append(basis | low)
                if d + 1 < k and i < last:  # a child needs a later class
                    walk(clear(rem, rem[i]), masks, cl | mask, basis | low, d + 1)

    inside = [j for j in range(m.ncols) if cols >> j & 1]
    rem = [packed[j] for j in range(m.ncols) if root >> j & 1] + [packed[j] for j in inside]
    for _ in range(root.bit_count()):  # contract the first root column left
        rem = clear(rem, rem[0])[1:]
    loops = sum(1 << j for j, v in zip(inside, rem) if not v)
    if k:
        walk(rem, [1 << j for j in inside], loops, 0, 0)
    return ((loops,), *map(tuple, flats)), ((0,), *map(tuple, bases))


def _circuits(m: GFMatrix, size: int):
    """Masks of the circuits of at most `size` columns of m, in no order.

    Column j is tagged with a 1 in lane j of n low lanes, below its own
    entries, so a tagged column has n + nrows lanes: at most MAX_DIM, the
    widest layout (`Matroid.circuits` scans subsets past that).  One
    depth-first walk over the independent sets P in combination order
    carries every tagged column's remainder modulo span(P) (`_child_step`,
    whose pivots lie in the matrix lanes); its tag lanes record the
    combination of P it subtracts.
    A later column e whose matrix lanes reduce to zero lies in span(P), and
    the support of its tag lanes is the one circuit in P + e.  Every circuit
    C is met as P + max(C) with P = C - max(C), independent and of at most
    size - 1 elements, so the walk goes that deep and no deeper.  A circuit's
    tag is its one linear dependency scaled to 1 at max(C), so equal tags
    are one circuit, and each circuit is read once from the set of tags."""
    n, lanes = m.ncols, m.field.lanes[m.nrows + m.ncols]
    sh, lane, clear = lanes[7], lanes[8], _child_step(lanes)
    low = n << sh  # the bits of the tag lanes
    tags = set()

    def walk(rem, start, d):
        for e in range(start, n):
            u = rem[e]
            if not u >> low:
                tags.add(u)
            elif d + 1 < size and e + 1 < n:  # P + e and a later column fit in size
                walk(clear(rem, u), e + 1, d + 1)

    if size > 0:
        walk([c << low | 1 << (j << sh) for j, c in enumerate(m._col_bits or m.col_bits)], 0, 0)
    return [sum(1 << j for j in range(n) if u >> (j << sh) & lane) for u in tags]


def null_space(m: GFMatrix):
    """Matrix whose rows are a deterministic basis of {x : m x = 0}, one row
    per non-pivot column (one zero row when there is none), computed once and
    kept on m: the matrix of the dual matroid."""
    kept = m._null
    if kept is not None:
        return kept
    neg = m.field.neg
    red, _, pivots = rref(m)
    basis = []
    for j in range(m.ncols):
        if j in pivots:
            continue
        vec = [0] * m.ncols
        vec[j] = 1
        for row, pj in zip(red.rows, pivots):
            vec[pj] = neg[row[j]]
        basis.append(tuple(vec))
    kept = GFMatrix._trusted(m.field, tuple(basis) or ((0,) * m.ncols,))
    object.__setattr__(m, "_null", kept)
    return kept


def point_to_vector(v: int, r: int):
    """GF(2) point value -> coordinate tuple, coordinate 0 the high bit."""
    if not 0 < v < (1 << r):
        raise GFError(f"point value {v} out of range for r={r}")
    return tuple((v >> (r - 1 - i)) & 1 for i in range(r))


@lru_cache(maxsize=None)
def subspace_masks(r: int):
    """All linear subspaces of GF(2)^r as point-set masks, keyed by dimension.

    The mask has bit (v - 1) set iff point value v lies in the subspace.
    Used for flat-counting in search pruning; r is capped at 6 to keep the
    table small.
    """
    if not 1 <= r <= 6:
        raise GFError("subspace tables are built for 1 <= r <= 6")
    out = {d: [] for d in range(r + 1)}
    out[0].append(0)
    for d in range(1, r + 1):
        for pivots in itertools.combinations(range(r), d):
            free_positions = []
            for i, p in enumerate(pivots):
                cols = [c for c in range(p + 1, r) if c not in pivots]
                free_positions.append(cols)
            # enumerate echelon bases: row i has a 1 at pivots[i], free bits after
            choices = [
                itertools.product((0, 1), repeat=len(cols)) for cols in free_positions
            ]
            for assignment in itertools.product(*choices):
                basis = []
                for i, p in enumerate(pivots):
                    vec = 1 << (r - 1 - p)
                    for c, bit in zip(free_positions[i], assignment[i]):
                        if bit:
                            vec |= 1 << (r - 1 - c)
                    basis.append(vec)
                mask = 0
                for combo in range(1, 1 << d):
                    v = 0
                    for i in range(d):
                        if (combo >> i) & 1:
                            v ^= basis[i]
                    mask |= 1 << (v - 1)
                out[d].append(mask)
    return {d: tuple(sorted(ms)) for d, ms in out.items()}


def _ints(tokens, what, error=GFError):
    """The tokens of one line of text as ints; `error` names `what` on a
    token that is not one."""
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise error(f"bad {what}; expected integers") from None


def parse_matrix(text: str) -> GFMatrix:
    """Parse the matrix text format: first line `q r n`, then r rows of n
    digits (blank, and so optional, when n = 0).  r = 0 needs n = 0."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GFError("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise GFError(f"bad header {lines[0]!r}; expected 'q r n'")
    q, r, n = _ints(head, f"header {lines[0]!r}")
    if r == 0 and n:
        raise GFError(f"bad header {lines[0]!r}; {n} columns need at least one row")
    body = lines[1:]
    if n == 0 and not body and 0 < r <= MAX_DIM:
        body = [""] * r  # rows with no entries are blank lines
    if len(body) != r:
        raise GFError(f"expected {r} rows, got {len(body)}")
    rows = []
    for ln in body:
        row = _ints(ln.split(), f"row {ln!r}")
        if len(row) != n:
            raise GFError(f"row {ln!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    return GFMatrix(field(q), rows)


def format_matrix(m: GFMatrix) -> str:
    head = f"{m.field.q} {m.nrows} {m.ncols}"
    body = [" ".join(str(x) for x in row) for row in m.rows]
    return "\n".join([head] + body) + "\n"
