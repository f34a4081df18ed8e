"""Matroids as rank oracles over labeled ground sets (at most 64 elements).

Two representations: a GF(q) matrix (`rep.matrix`) or a dense rank table
over all subsets (n <= 25, `RankTableRep.matrix` is None).  The backends
are Linear (matrix columns), Graphic (graph edges, spanning-forest rank)
and Graft (graph plus a vertex set gamma; rank in the incidence matroid
with gamma's incidence vector adjoined as one extra element), whose GF(2)
incidence matrix is built once, and RankTable.  They are a detail of this
module: callers ask a `Matroid`, and build uniform matroids with
`uniform`.  Their own rank oracles answer `Matroid.r`, with nothing kept
per mask; closures, flats, circuits, minors, direct sums, dense rank
tables and parallel classes (loops are the elements in none) are read
from the matrix when there is one (`least_flats` walks the
series-reduced matroid), series classes and coloops from its dual's
columns, and a Linear matroid's r(E), fundamental circuits (so
components) and the 2-separation test that `is_3connected` runs after
`is_connected` from its one standard form, the `rref` kept on the GFMatrix.
Each matrix keeps one null space (`gf.null_space`), its dual's matrix:
the dual of a Linear matroid, and of a graph or graft past CERTIFY_CAP (no
larger table is certified binary), is that matrix.  Every other derived
rank table (duals, sums, certificates) is read from `full_rank_table`.
A rank table's GF(2) matrix, when it has one, is `binary_representation`;
`Matroid.export_text` is the one text form.
"""

from __future__ import annotations

import itertools

from .gf import GFMatrix, field, format_matrix, null_space, rank_of_columns, rref, span_of_columns
from .gf import MAX_DIM, _circuits, _echelon, _flats, _ints, _monic, _reduce

__all__ = [
    "MatroidError",
    "TABLE_CAP",
    "CERTIFY_CAP",
    "CIRCUIT_SCAN_CAP",
    "LinearRep",
    "RankTableRep",
    "GraphicRep",
    "GraftRep",
    "Matroid",
    "from_matrix",
    "from_graph",
    "uniform",
    "graft_matroid",
    "incidence_matrix",
    "full_rank_table",
    "as_rank_table",
    "is_isomorphism",
    "binary_representation",
    "is_binary",
    "direct_sum",
    "parallel_connection",
    "binary_three_sum",
    "is_binary_affine",
    "parse_graph_text",
    "format_graph_text",
]

TABLE_CAP = 25
CERTIFY_CAP = 16  # largest rank table whose binary representation is certified
CIRCUIT_SCAN_CAP = 20


class MatroidError(ValueError):
    """Violated precondition or unsupported backend operation."""


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _suffix_least(table, none):
    """table as a tuple whose entry l is the least of its entries l, l + 1,
    ..., with `none`, a bound above every entry, read as None."""
    least = none
    for l in range(len(table) - 1, -1, -1):
        if table[l] < least:
            least = table[l]
        table[l] = None if least == none else least
    return tuple(table)


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _subsets(n, k):
    """Masks of the k-subsets of range(n) in combination order."""
    return map(sum, itertools.combinations([1 << i for i in range(n)], k))


def default_labels(n):
    return tuple(str(i + 1) for i in range(n))


class LinearRep:
    """Columns of a GF(q) matrix; element i = column i."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: GFMatrix):
        self.matrix = matrix

    @property
    def n(self):
        return self.matrix.ncols

    def rank(self, mask):
        mat = self.matrix
        if mask == (1 << mat.ncols) - 1:  # r(E): the kept standard form
            return rref(mat)[1]
        return rank_of_columns(mat, mask)


class RankTableRep:
    """Dense rank table; table[mask] = rank of the subset mask.  It has no
    `rank`: Matroid.r reads the table."""

    __slots__ = ("nelts", "table")
    matrix = None  # no matrix: the Matroid methods read the table

    def __init__(self, nelts, table):
        if nelts > TABLE_CAP:
            raise MatroidError(f"rank table capped at n <= {TABLE_CAP}")
        if len(table) != 1 << nelts:
            raise MatroidError("table length must be 2^n")
        self.nelts = nelts
        self.table = bytes(table)

    @property
    def n(self):
        return self.nelts


class _GraphRep:
    """A graph on the vertices 0..nverts-1, plus gamma for a graft.  Ranks and
    the matrix see only the vertices that edges or gamma touch, renumbered in
    order, so their cost does not grow with nverts (kept for the text form)."""

    __slots__ = ("nverts", "edges", "gamma", "_ends", "_gamma", "_nv", "_matrix")

    def __init__(self, nverts, edges, gamma):
        if nverts < 0:
            raise MatroidError("negative vertex count")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < nverts and 0 <= v < nverts):
                raise MatroidError("edge endpoint out of range")
        if gamma is not None:
            gamma = frozenset(int(v) for v in gamma)
            if not all(0 <= v < nverts for v in gamma):
                raise MatroidError("gamma vertex out of range")
        touched = sorted({v for e in edges for v in e}.union(gamma or ()))
        index = {v: i for i, v in enumerate(touched)}
        self.nverts, self.edges, self.gamma = nverts, edges, gamma
        self._ends = tuple((index[u], index[v]) for u, v in edges)
        self._gamma = None if gamma is None else [index[v] for v in gamma]
        self._nv = len(index)
        self._matrix = None

    @property
    def matrix(self):
        """The GF(2) incidence matrix (`incidence_matrix`), built once."""
        if self._matrix is None:
            self._matrix = incidence_matrix(self._nv, self._ends, self._gamma)
        return self._matrix

    def _forest(self, mask, parent):
        r = 0
        for j in _bits(mask):
            u, v = self._ends[j]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r


class GraphicRep(_GraphRep):
    """Edge set of a graph; rank of X = |V touched by X| - #components of (V, X),
    computed as the size of a spanning forest of X."""

    __slots__ = ()

    def __init__(self, nverts, edges):
        super().__init__(nverts, edges, None)

    @property
    def n(self):
        return len(self.edges)

    def rank(self, mask):
        return self._forest(mask, list(range(self._nv)))


class GraftRep(_GraphRep):
    """Graph plus gamma <= V; ground set = edges + one extra element (last index)
    standing for gamma's incidence vector over GF(2)."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.edges) + 1

    def rank(self, mask):
        gbit = 1 << len(self.edges)
        parent = list(range(self._nv))
        r = self._forest(mask & ~gbit, parent)
        if mask & gbit:
            # gamma's vector lies in the span of the chosen edge columns iff
            # every component of (V, X) holds an even number of gamma vertices
            odd = set()
            for v in self._gamma:
                odd ^= {_find(parent, v)}
            if odd:
                r += 1
        return r


class Matroid:
    """Labeled ground set + rank backend.  Subsets are int masks over label
    positions; helpers translate label collections to masks and back."""

    __slots__ = ("labels", "n", "rep", "name", "_pos", "_canon", "_least")

    def __init__(self, rep, labels=None, name=""):
        n = rep.n
        if n > 64:
            raise MatroidError("ground set capped at 64 elements")
        if labels is None:
            labels = default_labels(n)
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise MatroidError("labels must be distinct and match the backend size")
        self.labels = labels
        self.n = n
        self.rep = rep
        self.name = name
        self._pos = {lab: i for i, lab in enumerate(labels)}
        self._canon = None  # iso._canonical's data, computed on first use
        self._least = []  # least_flats' tables, one per rank, filled in place

    def __repr__(self):
        tag = self.name or type(self.rep).__name__
        return f"Matroid({tag}, n={self.n}, r={self.rank()})"

    # ---- masks and labels

    def mask_of(self, elements):
        mask = 0
        for lab in elements:
            try:
                mask |= 1 << self._pos[str(lab)]
            except KeyError:
                raise MatroidError(f"unknown element {lab!r}") from None
        return mask

    def labels_of(self, mask):
        return tuple(self.labels[i] for i in _bits(mask))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def _as_mask(self, X):
        if X is None:
            return self.full_mask
        if isinstance(X, int):
            if X < 0 or X >> self.n:
                raise MatroidError("mask out of range")
            return X
        return self.mask_of(X)

    # ---- rank oracle

    def r(self, mask):
        if isinstance(self.rep, RankTableRep):
            return self.rep.table[mask]
        return self.rep.rank(mask)

    def rank(self, X=None):
        """r(X); r(E) is read from the length of `least_flats`' list of
        tables, one per rank, once it is kept."""
        if X is None and self._least:
            return len(self._least) - 1
        return self.r(self._as_mask(X))

    def nullity(self, X=None):
        mask = self._as_mask(X)
        return mask.bit_count() - self.r(mask)

    def closure(self, X):
        """Mask of cl(X), computed on each ask.  A matrix spans X directly; a
        rank table tests r(X + e) = r(X) for each e."""
        mask = self._as_mask(X)
        mat = self.rep.matrix
        if mat is not None:
            return span_of_columns(mat, mask)
        rm, cl = self.r(mask), mask
        for i in range(self.n):
            bit = 1 << i
            if not mask & bit and self.r(mask | bit) == rm:
                cl |= bit
        return cl

    def flats_of_rank(self, k):
        """Every flat of rank exactly k, in the order a scan of the k-subsets
        in combination order first meets them as closures of independent
        sets: the combination order of their greedy bases.  A k past the
        rank raises before any walk.  A matrix takes gf's walk over greedy
        bases, one node per flat, to depth k; a rank table runs that scan.
        Computed on each ask: nothing is kept."""
        if not 0 <= k <= self.rank():
            raise MatroidError(f"flat rank {k} out of range")
        mat = self.rep.matrix
        if mat is not None:
            return list(_flats(mat, k, self.full_mask)[0][k])
        found = {}  # insertion-ordered set
        for mask in _subsets(self.n, k):
            if self.r(mask) == k:
                found.setdefault(self.closure(mask))
        return list(found)

    def first_independent_set(self, t, l):
        """The least independent t-set (as a mask, so the first in colex
        order) whose closure has nullity at least l, or None; an l of 0 or
        less asks for the least independent t-set.

        The independent t-sets spanning a rank-t flat F are its bases, and
        the greedy basis of F is the least of them (Gale), so this is the
        least greedy basis of a rank-t flat with nullity at least l: a
        matrix reads entry l of the basis table `least_flats(t)` keeps.  A
        rank table checks the definition instead: it scans every t-set
        afresh on each ask and keeps the least that qualifies.  No closure
        of a t-set has nullity above n - r, so a larger l walks nothing."""
        if t < 0:
            raise MatroidError(f"independent set size {t} out of range")
        r, l = self.rank(), max(l, 0)
        if l > self.n - r or t > r:
            return None
        if self.rep.matrix is not None:
            self.least_flats(t)
            return self._least[t][1][l]
        return min((mask for mask in _subsets(self.n, t)
                    if self.r(mask) == t and self.closure(mask).bit_count() - t >= l), default=None)

    def least_flats(self, t):
        """best[l], for l = 0 ... n - r: the least mask of a rank-t flat with
        nullity at least l, or None.  Kept in a list of tables, one per
        rank (`with_name` copies share it); a matrix keeps beside each the
        least greedy basis of such a flat, for `first_independent_set`.  A
        rank table reads `flats_of_rank(t)`.  A matrix walks the
        series-reduced matroid, by this argument.

        C is the coloops, N = M \\ C, and S_i, of s_i >= 2 elements, are N's
        series classes: a circuit meets S_i in none or all of it.
        x_i = max S_i, and D, the union of the S_i - x_i, is independent.
        r'', cl'' and greedy'' (in element order) are those of N'' = N / D.
        (a) A flat F of N is Y + D_Y + T in one way: G = cl''(Y) is a flat
        of N'', Y = G - J for a set J of representatives x_j in G with
        r''(Y) = r''(G), D_Y is the union of the S_i - x_i with x_i in Y,
        and T meets only classes whose x_j is not in Y, in at most s_j - 2
        elements when x_j is in J and s_j - 1 when x_j is outside G.  A
        class inside F gives its x_i to Y; F's elements in the other
        classes are T, coloops of M|F.  A circuit through a non-
        representative of cl''(Y) avoids those classes, so G - Y holds
        representatives only.  Conversely, a circuit through e outside F
        holds e's class; if F holds all of S_j but e, such a circuit lies in
        Y + D_Y + S_j and exists iff x_j is in cl''(Y): hence the caps.
        (b) T and D - D_Y are coloops of M|(F + D), so
        r(F) = |D_Y| + r''(G) + |T| and nullity(F) = |Y| - r''(G).
        (c) greedy(F) = D_Y + greedy''(Y) + T: D_Y's elements precede their
        x_i, and a circuit through y inside F's elements up to y meets only
        classes with x_i <= y, which lie in Y + D_Y.  With x_i the minimum
        this fails.  Dropping an element off greedy''(Y) keeps greedy''(Y).
        (d) For one (G, J) and rank, the rest of F and of its basis is fixed
        and disjoint from T, so both least ones take the lowest elements
        under the caps (greedy on a partition matroid; never x_j).  The
        coloops are pools of one element with cap 1.

        So `gf._flats` walks E - C - D from span(D) (root 0 when there is
        no class) to depth min(t, r''), which covers every rank up to t
        (every rank, past r'', when there is no class).  One pass over its
        flats fills the tables of every rank covered: each (G, J) adds D_Y
        and its i lowest pool elements to Y and to greedy''(Y) at rank
        r''(G) + |D_Y| + i, for each such rank covered, and a suffix minimum
        over the nullities ends each rank.  Valid J are closed under
        subsets, so they grow one representative at a time, and greedy''(Y)
        is recomputed only when the one left out was on it; a
        representative stays in Y only while r''(G) + |D_Y| is within the
        ranks covered, so no (G, J) is listed whose flats all lie past
        them."""
        tables, r = self._least, self.rank()  # entry t: this table and a matrix's basis table
        if not 0 <= t <= r:
            raise MatroidError(f"flat rank {t} out of range")
        if not tables:
            tables += [None] * (r + 1)
        elif tables[t] is not None:
            return tables[t][0]
        top, mat, none = self.n - r, self.rep.matrix, 1 << self.n  # none: above every mask
        if mat is None:
            best = [none] * (top + 1)
            for f in sorted(self.flats_of_rank(t), reverse=True):  # the least last
                best[f.bit_count() - t] = f
            tables[t] = _suffix_least(best, none), None
            return tables[t][0]
        classes = self.series_classes()
        coloops = self.full_mask ^ sum(classes)
        low = {cls.bit_length() - 1: cls & ~(1 << cls.bit_length() - 1)
               for cls in classes if cls & cls - 1}  # x_i: S_i - x_i
        reps, contract = sum(1 << x for x in low), sum(low.values())
        rr = r - coloops.bit_count() - contract.bit_count()
        depth = min(t, rr)
        walked = _flats(mat, depth, self.full_mask ^ coloops ^ contract, contract)
        lanes, packed, piv, _ = _echelon(mat, contract)
        last = r if depth == rr and not reps else t  # the ranks this walk covers
        best = [[none] * (top + 1) for _ in range(last + 1)]  # by rank, then nullity
        basis = [[none] * (top + 1) for _ in range(last + 1)]
        pools = {}  # (Y's representatives, J): D_Y plus the 0, 1, ... lowest pool elements
        for j, (flats, bases) in enumerate(zip(*walked)):
            for g, greedy in zip(flats, bases):
                variants = [(0, greedy, 0)]  # (J, greedy''(G - J), |D_Y| so far)
                for x in _bits(g & reps):
                    grown, w = [], low[x].bit_count()
                    for J, b, dy in variants:
                        if j + dy + w <= last:  # x stays in Y
                            grown.append((J, b, dy + w))
                        if b >> x & 1:
                            front = piv[:]
                            b = sum(1 << e for e in _bits(g & ~J & ~(1 << x))
                                    if _reduce(lanes, front, packed[e]) is not None)
                        if b.bit_count() == j:  # x joins J
                            grown.append((J | 1 << x, b, dy))
                    variants = grown
                for J, b, dy in variants:
                    y = g ^ J
                    v, inside = y.bit_count() - j, y & reps
                    extras = pools.get((inside, J))
                    if extras is None:
                        extra, pool = 0, coloops  # D_Y, and the pools of T
                        for x, part in low.items():
                            if inside >> x & 1:
                                extra |= part
                            else:  # cap s - 2 when x is in J, else s - 1
                                pool |= part & ~(1 << part.bit_length() - 1) if J >> x & 1 else part
                        extras = pools[inside, J] = [extra]
                        for e in _bits(pool):
                            extras.append(extras[-1] | 1 << e)
                    for rank, extra in zip(range(j + dy, last + 1), extras):
                        if y | extra < best[rank][v]:
                            best[rank][v] = y | extra
                        if b | extra < basis[rank][v]:
                            basis[rank][v] = b | extra
        for rank in range(last + 1):
            tables[rank] = _suffix_least(best[rank], none), _suffix_least(basis[rank], none)
        return tables[t][0]

    # ---- circuits

    def circuits(self, max_size=None):
        """All minimal dependent sets up to max_size, sorted by (size, mask).
        A binary matrix, graph or graft with corank at most 16 reads the
        supports of its cycle space, at any n up to 64, up to max_size
        elements.  Any other matrix walks its independent sets with each
        column tagged in a lane of its own (`gf._circuits`) when its rows and
        columns fit the MAX_DIM lanes of the widest layout; past that, and on
        a rank table, subsets are scanned.  Without max_size, the walk and
        the scan are capped at 20 elements."""
        mat = self.rep.matrix
        if mat is not None and mat.field.q == 2 and self.n - self.rank() <= 16:
            return self._circuits_from_cycle_space(max_size)
        top = self.rank() + 1
        if max_size is not None:
            top = min(top, max_size)
        elif self.n > CIRCUIT_SCAN_CAP:
            raise MatroidError(
                f"full circuit scan capped at n <= {CIRCUIT_SCAN_CAP}; pass max_size"
            )
        if mat is not None and mat.nrows + self.n <= MAX_DIM:
            found = _circuits(mat, top)
        else:
            found = self._circuits_by_scan(top)
        return tuple(sorted(found, key=lambda v: (v.bit_count(), v)))

    def _circuits_from_cycle_space(self, max_size):
        # supports of nonzero cycle-space vectors, kept if inclusion-minimal.
        # Null-space row j is nonzero off the pivots only in column j, so a
        # sum of rows holds the column of each row summed, and a cycle of at
        # most s elements sums at most s rows: sums[c], the sums of c rows,
        # are built only up to c = max_size.
        basis = [
            sum(b << i for i, b in enumerate(vec))
            for vec in null_space(self.rep.matrix).rows
        ]
        top = len(basis) if max_size is None else min(max_size, len(basis))
        sums = [[0]] + [[] for _ in range(top)]
        for b in basis:
            for c in range(top, 0, -1):  # from the top down, so b joins a sum once
                sums[c] += [v ^ b for v in sums[c - 1]]
        cycles = [v for level in sums[1:] for v in level if v]
        cycles.sort(key=lambda v: (v.bit_count(), v))
        kept = []
        for v in cycles:
            if max_size is not None and v.bit_count() > max_size:
                break
            if not any(k & v == k for k in kept):
                kept.append(v)
        return tuple(kept)  # in the cycles' (size, mask) order

    def _circuits_by_scan(self, top):
        """The circuits of at most top elements, in scan order: each size's
        subsets in combination order."""
        found = []
        for size in range(1, top + 1):
            for mask in _subsets(self.n, size):
                if any(c & mask == c for c in found):
                    continue
                # no smaller circuit inside, so dependent means minimal dependent
                if self.r(mask) < size:
                    found.append(mask)
        return found

    # ---- loops, parallel and series structure

    def loops(self):
        """The elements in no parallel class (the classes are disjoint)."""
        return self.full_mask ^ sum(self.parallel_classes())

    def coloops(self):
        """The elements in no series class: a matrix's zero columns of its
        kept null space, a rank table's basis elements in no fundamental
        circuit."""
        if self.rep.matrix is not None:
            return self.full_mask ^ sum(self.series_classes())
        basis, circuits = self.fundamental_circuits()
        for c in circuits.values():
            basis &= ~c
        return basis

    def parallel_classes(self):
        """Masks of maximal parallel classes over the non-loop elements, sorted.
        A matrix reads them from its packed columns (`_column_classes`); a
        rank table keys each non-loop, an element outside cl({}), by its
        closure."""
        mat = self.rep.matrix
        if mat is not None:
            return _column_classes(mat)
        loops = self.closure(0)
        return _classes(0 if loops >> i & 1 else self.closure(1 << i) for i in range(self.n))

    def series_classes(self):
        """The dual's parallel classes: a matrix groups the columns of its
        dual matrix, a rank table asks its dual."""
        mat = self.rep.matrix
        if mat is None:
            return self.dual().parallel_classes()
        return _column_classes(null_space(mat))

    def is_simple(self):
        """No loops and no parallel pair: every element is its own class."""
        return len(self.parallel_classes()) == self.n

    def is_cosimple(self):
        return len(self.series_classes()) == self.n

    def si(self):
        """Simplification: drop loops and all but the first of each parallel
        class; self when that drops nothing."""
        drop = self.full_mask ^ sum(cls & -cls for cls in self.parallel_classes())
        return self.delete(drop) if drop else self

    def cosi(self):
        """Cosimplification: contract all but the first of every series class,
        plus the coloops (contracting a coloop equals deleting it); self when
        that contracts nothing."""
        drop = self.full_mask ^ sum(cls & -cls for cls in self.series_classes())
        return self.contract(drop) if drop else self

    def reduced(self):
        """Alternate si/cosi until simple and cosimple."""
        last, m = None, self
        while m is not last:
            last, m = m, m.si().cosi()
        return m

    # ---- duality

    def dual(self):
        """A matrix's kept null space, or a table r*(X) = |X| + r(E - X) -
        r(E) read from `full_rank_table` reversed."""
        rep, n = self.rep, self.n
        if rep.matrix is not None and (isinstance(rep, LinearRep) or n > CERTIFY_CAP):
            return Matroid(LinearRep(null_space(rep.matrix)), self.labels)
        rest = full_rank_table(self)[::-1]  # rest[mask] = r(E - mask)
        table = bytes(mask.bit_count() + x - rest[0] for mask, x in enumerate(rest))
        return Matroid(RankTableRep(n, table), self.labels)

    # ---- minors

    def delete(self, D):
        return self.minor(delete=D)

    def contract(self, C):
        return self.minor(contract=C)

    def minor(self, contract=0, delete=0):
        con = self._as_mask(contract)
        del_ = self._as_mask(delete)
        if con & del_:
            raise MatroidError("contract and delete sets overlap")
        keep = [i for i in range(self.n) if not (con | del_) >> i & 1]
        labels = tuple(self.labels[i] for i in keep)
        mat = self.rep.matrix
        if mat is not None:
            return Matroid(LinearRep(_linear_minor(mat, sorted(_bits(con)), keep)), labels)
        big, table = [con], self.rep.table  # big[mask]: con plus the kept elements in mask
        for i in keep:
            big += [x | 1 << i for x in big]
        rcon = table[con]
        return Matroid(RankTableRep(len(keep), bytes(table[x] - rcon for x in big)), labels)

    def relabel(self, mapping):
        labels = tuple(str(mapping.get(lab, lab)) for lab in self.labels)
        return Matroid(self.rep, labels, name=self.name)

    def with_name(self, name):
        m = Matroid(self.rep, self.labels, name=name)
        m._canon = self._canon
        m._least = self._least
        return m

    # ---- connectivity

    def fundamental_circuits(self):
        """(B, {e: C(e, B)}) as masks, B the greedy basis in element order.  On
        a matrix B is the pivots of `rref`, and C(e, B) is e plus the pivots
        of the rows nonzero in column e; on a rank table b lies in C(e, B)
        iff B - b + e is a basis, n + (n - r) * r rank calls."""
        mat = self.rep.matrix
        if mat is not None:
            red, _, pivots = rref(mat)
            basis = sum(1 << p for p in pivots)
            return basis, {
                e: 1 << e | sum(1 << p for p, row in zip(pivots, red.rows) if row[e])
                for e in range(self.n) if not basis >> e & 1
            }
        basis = 0
        for i in range(self.n):
            if self.r(basis | 1 << i) > basis.bit_count():
                basis |= 1 << i
        rank = basis.bit_count()
        return basis, {
            e: 1 << e | sum(1 << b for b in _bits(basis) if self.r(basis ^ 1 << b | 1 << e) == rank)
            for e in range(self.n) if not basis >> e & 1
        }

    def is_connected(self):
        return len(self.components()) <= 1

    def is_3connected(self):
        """Connected, and no split into two sides of at least two elements with
        lambda <= 1.  Every backend first asks `is_connected`, which settles
        n < 4; then a matrix takes `_has_2separation` and a rank table one
        dense pass."""
        n = self.n
        if not self.is_connected():
            return False
        if n < 4:
            return True
        mat = self.rep.matrix
        if mat is not None:
            return not _has_2separation(mat)
        table, full = self.rep.table, self.full_mask
        limit = table[full] + 1  # lambda(X) <= 1
        for mask in range(1 << (n - 1)):  # element n - 1 stays off the X side
            if table[mask] + table[full ^ mask] <= limit and 2 <= mask.bit_count() <= n - 2:
                return False
        return True

    def components(self):
        """Masks of the connected components: the classes of the fundamental-
        circuit graph of one basis (Krogdahl 1977; Cunningham 1973)."""
        circuits = self.fundamental_circuits()[1]
        return _joined_classes(self.n, ((b, e) for e, c in circuits.items() for b in _bits(c)))

    # ---- export

    def export_text(self):
        """The text form: a graph's or graft's edge list, a matrix's own rows,
        or a rank table's certified GF(2) matrix (`binary_representation`).
        Raises MatroidError for a rank table with no such matrix."""
        rep = self.rep
        if isinstance(rep, _GraphRep):
            return format_graph_text(rep.nverts, rep.edges, rep.gamma)
        mat = rep.matrix or binary_representation(self)
        if mat is None:
            raise MatroidError("rank-table matroids have no text form")
        return format_matrix(mat)


# ---- linear backend helpers


def _linear_minor(matrix, con_cols, keep_cols):
    if not con_cols:
        sub = matrix.select_columns(keep_cols)
        return sub if sub.nrows else GFMatrix._trusted(matrix.field, ((0,) * len(keep_cols),))
    arranged = matrix.select_columns(list(con_cols) + list(keep_cols))
    red, _, pivots = rref(arranged)
    t = sum(1 for p in pivots if p < len(con_cols))
    rows = tuple(row[len(con_cols):] for row in red.rows[t:])
    return GFMatrix._trusted(matrix.field, rows or ((0,) * len(keep_cols),))


def _classes(keys):
    """Sorted masks of the positions that share a key; a falsy key joins none."""
    groups = {}
    for i, key in enumerate(keys):
        if key:
            groups[key] = groups.get(key, 0) | 1 << i
    return sorted(groups.values())


def _joined_classes(n, pairs):
    """Sorted masks of the classes of range(n) that the pairs (i, j) join."""
    parent = list(range(n))
    for i, j in pairs:
        parent[_find(parent, i)] = _find(parent, j)
    return _classes(_find(parent, i) + 1 for i in range(n))


def _column_classes(matrix):
    """Parallel classes of a matrix's columns: loops are the zero columns, and
    two others are parallel iff their packed columns are equal once scaled
    to a top lane of 1 (`gf._monic`, skipped when the top lane holds 1, as
    over GF(2) it always does)."""
    lanes = matrix.field.lanes[matrix.nrows]
    inner = (1 << lanes[7]) - 1  # the bits of a lane above its lowest
    return _classes(_monic(lanes, c) if c and c.bit_length() - 1 & inner else c
                    for c in matrix.col_bits)


def _has_2separation(matrix):
    """True iff the columns of a connected matrix with n >= 4 split into X
    and Y, both of size >= 2, with lambda(X) = r(X) + r(Y) - r(M) <= 1.
    With [I | A] the standard form of `rref`, rows B and columns N,
    lambda(X) = r(A[X_B, Y_N]) + r(A[Y_B, X_N]) (Truemper 1992).  Each X_N
    decides the case A[X_B, Y_N] = 0, rank A[Y_B, X_N] <= 1: rows with a
    nonzero Y_N part go to Y_B and need proportional X_N parts, the others
    stay in X_B.  A connected M has no loops or coloops, so A has no zero
    row or column: a nonempty Y_N brings a row to Y_B, and Y_N empty needs
    two proportional rows.  The case with the blocks swapped is this one
    on Y_N.  M* has the same lambda, so A is transposed to the smaller
    side: 2^min(r, n - r) steps."""
    red, r, pivots = rref(matrix)
    rest = [j for j in range(matrix.ncols) if j not in pivots]
    rows = [[row[j] for j in rest] for row in red.rows[:r]]
    if r < len(rest):
        rows = list(zip(*rows))  # -A^T represents M*; signs do not matter
    k = len(rows[0])
    if k >= TABLE_CAP:
        raise MatroidError(f"2-separation search capped at min(r, n - r) < {TABLE_CAP}")
    lanes = matrix.field.lanes[k]
    shift, lane = lanes[7], lanes[8]
    packed = [sum(x << (j << shift) for j, x in enumerate(row)) for row in rows]
    support = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    for xn in range((1 << k) - 1):
        forced = [(v, s) for v, s in zip(packed, support) if s & ~xn]
        if len(rows) - len(forced) + xn.bit_count() < 2:
            continue  # |X| < 2
        if len({s & xn for _, s in forced} - {0}) > 1:
            continue  # proportional vectors have one support
        part = sum(lane << (j << shift) for j in _bits(xn))  # X_N's lanes
        if len({_monic(lanes, v & part) for v, s in forced if s & xn}) <= 1:
            return True
    return len({_monic(lanes, v) for v in packed}) < len(rows)


def incidence_matrix(nverts, edges, gamma=None):
    """GF(2) matrix with the column matroid of the vertex-edge incidence
    matrix, gamma's vector as a final column: the vertex rows independent of
    the rows before them, so at most r(M) rows for any number of vertices."""
    ncols = len(edges) + (gamma is not None)
    vertex_rows = [0] * nverts  # bit j = column j
    for j, (u, v) in enumerate(edges):
        vertex_rows[u] ^= 1 << j
        vertex_rows[v] ^= 1 << j
    for v in gamma or ():
        vertex_rows[v] ^= 1 << len(edges)
    piv, lanes = [None] * (ncols + 1), field(2).lanes[0]  # 1-bit lanes: no per-row constants
    rows = [tuple(w >> j & 1 for j in range(ncols))
            for w in vertex_rows if _reduce(lanes, piv, w) is not None]
    return GFMatrix(field(2), rows or [(0,) * ncols])


# ---- constructors


def from_matrix(matrix, labels=None, name=""):
    return Matroid(LinearRep(matrix), labels, name=name)


def from_graph(nverts, edges, labels=None, name=""):
    return Matroid(GraphicRep(nverts, edges), labels, name=name)


def graft_matroid(nverts, edges, gamma, labels=None, name=""):
    """Graft matroid: columns of the vertex-edge incidence matrix over GF(2)
    plus the incidence vector of the marked vertex set gamma."""
    if labels is None:
        labels = default_labels(len(edges)) + ("g",)
    return Matroid(GraftRep(nverts, edges, gamma), labels, name=name)


def uniform(r, n, labels=None, name=""):
    """U_{r,n}: rank function min(|X|, r), as a rank table."""
    if not 0 <= r <= n:
        raise MatroidError(f"uniform({r},{n}): need 0 <= r <= n")
    if n > 20:
        raise MatroidError(f"uniform({r},{n}): too many elements for a table")
    table = bytes(min(bin(m).count("1"), r) for m in range(1 << n))
    return Matroid(RankTableRep(n, table), labels=labels, name=name or f"U({r},{n})")


def full_rank_table(m: Matroid):
    """Dense rank table of m as bytes: a rank table's own, or for a matrix
    (linear, graphic or graft) one depth-first walk: the echelon basis of
    each mask extends that of the mask without its low bit by one _reduce
    call, and is undone on the way back."""
    n = m.n
    if n > TABLE_CAP:
        raise MatroidError(f"rank table capped at n <= {TABLE_CAP}")
    mat = m.rep.matrix
    if mat is None:
        return m.rep.table
    table = bytearray(1 << n)
    lanes, cols, piv, _ = _echelon(mat, 0)
    blank = (None,) * (mat.field.q - 1).bit_length()  # a lane's slots (`gf._reduce`)

    def walk(mask, rank, top):
        # the children of mask add one element below its low bit
        for j in range(top):
            child = mask | 1 << j
            slot = _reduce(lanes, piv, cols[j])
            if slot is None:
                table[child] = rank
                if j:
                    walk(child, rank, j)
            else:
                table[child] = rank + 1
                if j:
                    walk(child, rank + 1, j)
                piv[slot:slot + len(blank)] = blank

    walk(0, 0, n)
    return bytes(table)


def as_rank_table(m: Matroid):
    return Matroid(RankTableRep(m.n, full_rank_table(m)), m.labels, name=m.name)


def _gf2_matrix(m: Matroid):
    mat = m.rep.matrix
    return mat if mat is not None and mat.field.q == 2 else None


def is_isomorphism(m1: Matroid, m2: Matroid, mapping):
    """True iff mapping is a bijection from the labels of m1 onto those of m2
    that preserves the rank of every subset.  Binary-backed sides compare
    reduced row echelon forms (a binary matroid has one GF(2) representation
    up to row operations); others compare rank tables (n <= TABLE_CAP)."""
    try:
        img = [m2._pos[mapping[lab]] for lab in m1.labels]
    except KeyError:
        return False
    if not len(mapping) == len(set(img)) == m1.n == m2.n:
        return False
    a, b = _gf2_matrix(m1), _gf2_matrix(m2)
    if a is not None and b is not None:
        order = sorted(range(m1.n), key=img.__getitem__)
        red_a, ra, _ = rref(a.select_columns(order))
        red_b, rb, _ = rref(b)
        return red_a.rows[:ra] == red_b.rows[:rb]
    t1, t2 = full_rank_table(m1), full_rank_table(m2)
    # Gray-code walk: each step flips one element and its image
    mask = image = 0
    for step in range(1, 1 << m1.n):
        i = (step & -step).bit_length() - 1
        mask ^= 1 << i
        image ^= 1 << img[i]
        if t1[mask] != t2[image]:
            return False
    return True


def binary_representation(m: Matroid):
    """GF(2) matrix representing m (columns in element order), or None if m is
    provably non-binary; [I | A] is certified by comparing two rank tables
    (`full_rank_table`).  A rank table with CERTIFY_CAP < n <= TABLE_CAP
    raises MatroidError naming CERTIFY_CAP, as its export_text() does;
    are_isomorphic takes the exact, slow generic backtrack."""
    mat = _gf2_matrix(m)
    if mat is not None:
        return mat
    if m.n > CERTIFY_CAP:
        raise MatroidError(f"cannot certify a binary representation beyond n = {CERTIFY_CAP}")
    # row j of [I | A] is basis element j; column e is its fundamental circuit
    basis, circuits = m.fundamental_circuits()
    rows = [[0] * m.n for _ in range(max(basis.bit_count(), 1))]
    for j, b in enumerate(_bits(basis)):
        rows[j][b] = 1
        for e, c in circuits.items():
            rows[j][e] = c >> b & 1
    mat = GFMatrix(field(2), rows)
    return mat if full_rank_table(from_matrix(mat)) == full_rank_table(m) else None


def is_binary(m: Matroid):
    return binary_representation(m) is not None


def _fresh_labels(taken, labels):
    out = []
    for lab in labels:
        while lab in taken:
            lab = lab + "'"
        taken.add(lab)
        out.append(lab)
    return out


def direct_sum(m1: Matroid, m2: Matroid):
    """Disjoint union; m2's labels get primes appended on collision.  A rank
    table holds one row of m1's table plus r2 per entry r2 of m2's."""
    taken = set(m1.labels)
    labels = list(m1.labels) + _fresh_labels(taken, m2.labels)
    a, b = m1.rep.matrix, m2.rep.matrix
    if a is not None and b is not None and a.field.q == b.field.q:
        rows = [row + (0,) * b.ncols for row in a.rows]
        rows += [(0,) * a.ncols + row for row in b.rows]
        if not rows:
            rows = [(0,) * (a.ncols + b.ncols)]
        return Matroid(LinearRep(GFMatrix(a.field, rows)), labels)
    n = m1.n + m2.n
    if n > TABLE_CAP:
        raise MatroidError("direct sum too large for a rank table")
    t1, table = full_rank_table(m1), bytearray()
    for r2 in full_rank_table(m2):
        table += bytes(r1 + r2 for r1 in t1)
    return Matroid(RankTableRep(n, table), labels)


def parallel_connection(m1: Matroid, p1, m2: Matroid, p2):
    """Glue m1 and m2 along a basepoint p.  With X1 = X & E1 and X2 = X & E2,
    r(X) = r1(X1) + r2(X2) - 1 if p is in X or in both cl1(X1) and cl2(X2),
    and r1(X1) + r2(X2) otherwise (Oxley, Matroid Theory, 7.1).  Result is a
    RankTable matroid keeping m1's labels; the basepoint keeps the label of p1."""
    i1 = m1._pos[str(p1)]
    i2 = m2._pos[str(p2)]
    for m, i in ((m1, i1), (m2, i2)):
        if m.r(1 << i) == 0 or m.coloops() >> i & 1:
            raise MatroidError("basepoint must be neither a loop nor a coloop")
    taken = set(m1.labels)
    rest2 = [i for i in range(m2.n) if i != i2]
    labels = list(m1.labels) + _fresh_labels(taken, [m2.labels[i] for i in rest2])
    n = m1.n + m2.n - 1
    if n > TABLE_CAP:
        raise MatroidError("parallel connection too large for a rank table")
    # m1 keeps its indices and m2's other elements follow in order, so the
    # table has one row of 2^|E1| entries per subset of E2 - p
    t1, t2 = full_rank_table(m1), full_rank_table(m2)
    p, q = 1 << i1, 1 << i2
    # r(X) - r1(X1) by the kind of X1: p in X1 (0), p in cl1(X1) - X1 (1),
    # p outside cl1(X1) (2)
    kind = [0 if x1 & p else 1 if t1[x1 | p] == t1[x1] else 2 for x1 in range(1 << m1.n)]
    table = bytearray()
    for rest in range(1 << len(rest2)):
        x2 = (rest & q - 1) | (rest & -q) << 1  # m2's mask, p left out
        r2, r2p = t2[x2], t2[x2 | q]
        add = (r2p - 1, r2 - (r2p == r2), r2)
        table += bytes(r + add[k] for r, k in zip(t1, kind))
    out = Matroid(RankTableRep(n, table), labels)
    if out.rank() != m1.rank() + m2.rank() - 1:
        raise MatroidError("internal error: parallel connection has the wrong rank")
    return out


def _is_triangle(m: Matroid, mask):
    return (
        mask.bit_count() == 3
        and m.r(mask) == 2
        and all(m.r(mask ^ (1 << i)) == 2 for i in _bits(mask))
    )


def binary_three_sum(m1: Matroid, m2: Matroid, t_labels):
    """3-sum of two binary matroids across the common triangle t_labels.
    The cycle space of the result is every T-avoiding symmetric difference of
    a cycle of m1 and a cycle of m2, restricted to the new ground set."""
    t = [str(x) for x in t_labels]
    common = set(m1.labels) & set(m2.labels)
    if common != set(t) or len(t) != 3:
        raise MatroidError("ground sets must overlap in exactly the three glue labels")
    if m1.n < 7 or m2.n < 7:
        raise MatroidError("3-sum needs at least 7 elements on each side")
    a, b = _gf2_matrix(m1), _gf2_matrix(m2)
    if a is None or b is None:
        raise MatroidError("3-sum needs a GF(2) matrix, graph or graft on each side")
    if not _is_triangle(m1, m1.mask_of(t)) or not _is_triangle(m2, m2.mask_of(t)):
        raise MatroidError("glue set must be a triangle of both sides")
    new_labels = [lab for lab in m1.labels if lab not in common]
    new_labels += [lab for lab in m2.labels if lab not in common]
    m = len(new_labels)
    pos = {lab: i for i, lab in enumerate(new_labels)}
    # combined coordinates: new ground set in bits 0..m-1, glue labels on top
    # so that echelon rows led by a non-glue bit are zero on the glue
    for k, lab in enumerate(t):
        pos[lab] = m + k

    def embed(matroid, vec):
        out = 0
        for i, x in enumerate(vec):
            if x:
                out |= 1 << pos[matroid.labels[i]]
        return out

    piv = [None] * (m + 4)  # piv[b]: the echelon row whose top bit is bit b - 1
    for side, mat in ((m1, a), (m2, b)):
        for v in null_space(mat).rows:
            _reduce(field(2).lanes[0], piv, embed(side, v))
    # the result's matrix is the null space of its cycle rows (of one zero
    # row, the identity, when there are none)
    k = [tuple(v >> i & 1 for i in range(m)) for v in piv[1:m + 1] if v]
    return Matroid(LinearRep(null_space(GFMatrix(field(2), k or [(0,) * m]))), new_labels)


def is_binary_affine(m: Matroid):
    """True iff every circuit is even; cross-checked against the row-space test
    (the all-ones functional must lie in the row space of the matrix)."""
    mat = _gf2_matrix(m)
    if mat is None:
        raise MatroidError("affine test needs a GF(2) matrix, graph or graft")
    by_circuits = all(c.bit_count() % 2 == 0 for c in m.circuits())
    by_rows = rref(mat)[1] == rref(GFMatrix(mat.field, mat.rows + ((1,) * mat.ncols,)))[1]
    if by_circuits != by_rows:
        raise MatroidError("internal error: circuit and row-space affine tests disagree")
    return by_rows


# ---- graph text format


def parse_graph_text(text):
    """'graph V E' header, E lines 'u v' (0-based), optional 'gamma v1 v2 ...'."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or len(lines[0].split()) != 3 or lines[0].split()[0] != "graph":
        raise MatroidError("expected header 'graph V E'")
    _, vs, es = lines[0].split()
    nverts, nedges = _ints((vs, es), f"header {lines[0]!r}", MatroidError)
    body = lines[1:]
    gamma = None
    if body and body[-1].split()[0] == "gamma":
        gamma = _ints(body[-1].split()[1:], f"gamma line {body[-1]!r}", MatroidError)
        body = body[:-1]
    if len(body) != nedges:
        raise MatroidError(f"expected {nedges} edge lines, got {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise MatroidError(f"bad edge line {ln!r}")
        edges.append(tuple(_ints(parts, f"edge line {ln!r}", MatroidError)))
    _GraphRep(nverts, edges, gamma)  # raises on a vertex out of range
    return nverts, edges, gamma


def format_graph_text(nverts, edges, gamma=None):
    out = [f"graph {nverts} {len(edges)}"]
    out += [f"{u} {v}" for u, v in edges]
    if gamma is not None:
        out.append("gamma " + " ".join(str(v) for v in sorted(gamma)))
    return "\n".join(out) + "\n"
