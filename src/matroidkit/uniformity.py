"""(k,l)-uniformity predicates, implemented three independent ways, together
with paving tests and structure classifiers for (2,2)-uniform matroids that
are disconnected or connected but not 3-connected.

A matroid is (k,l)-uniform when it has no minor isomorphic to
U_{k,k} + U_{0,l} (direct sum), equivalently when every rank-(r-k) flat has
nullity less than l.  For k above the rank the condition is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .matroid import Matroid, MatroidError, _bits, _fresh_labels, is_isomorphism
from .matroid import CIRCUIT_SCAN_CAP, parallel_connection, uniform

__all__ = [
    "FlatWitness",
    "MinorWitness",
    "StructureClass",
    "is_kl_uniform_flats",
    "is_kl_uniform_minor",
    "is_22_uniform_circuits",
    "is_paving",
    "is_sparse_paving",
    "classify_disconnected_22",
    "classify_connected_not3_22",
]


@dataclass(frozen=True)
class FlatWitness:
    """A rank-(r-k) flat with nullity at least l (masks in element order)."""

    flat: int


@dataclass(frozen=True)
class MinorWitness:
    """contract/delete masks with M/contract\\delete = U_{k,k} + U_{0,l}."""

    contract: int
    delete: int


@dataclass(frozen=True)
class StructureClass:
    clause: str
    data: tuple


def _check_kl(k, l):
    if k < 1 or l < 1:
        raise MatroidError("k and l must be positive")


def is_kl_uniform_flats(m: Matroid, k: int, l: int):
    """(True, None), or (False, FlatWitness) of the least rank-(r-k) flat
    with nullity at least l: entry l of `Matroid.least_flats(r - k)`, one
    table per r - k.  No flat has nullity above n - r, so a larger l
    walks nothing."""
    _check_kl(k, l)
    r = m.rank()
    if k > r or l > m.n - r:
        return True, None
    flat = m.least_flats(r - k)[l]
    if flat is None:
        return True, None
    return False, FlatWitness(flat)


def is_kl_uniform_minor(m: Matroid, k: int, l: int):
    """(True, None) or (False, MinorWitness): the least independent set I
    of size r-k, as a mask, whose closure has nullity >= l
    (`Matroid.first_independent_set`: on a matrix the least greedy basis
    of such a flat, from the walk the flat decider reads; on a rank table
    the least qualifying mask of a scan of every t-set, made afresh on each
    ask), then the minor assembled (contract I; keep k spanning elements
    and l dependent ones)."""
    _check_kl(k, l)
    r = m.rank()
    if k > r:
        return True, None
    t = r - k
    mask = m.first_independent_set(t, l)
    if mask is None:
        return True, None
    full, cl = m.full_mask, m.closure(mask)
    loops = sum(1 << i for i in islice(_bits(cl ^ mask), l))
    keep = mask  # independent, and each element added raises the rank
    for i in _bits(full ^ cl):
        if keep.bit_count() == t + k:
            break
        if m.r(keep | 1 << i) > keep.bit_count():
            keep |= 1 << i
    return False, MinorWitness(mask, full ^ keep ^ loops)


def is_22_uniform_circuits(m: Matroid):
    """True iff every pair of distinct circuits has union of rank >= r(M)-1.
    r(C1 | C2) >= r(C2) = |C2| - 1, so a pair holding a circuit of r or more
    elements cannot fail: only the circuits of at most r - 1 elements are
    paired.  Past CIRCUIT_SCAN_CAP elements every circuit is asked for, so
    a matroid whose full circuit scan `Matroid.circuits` refuses is refused."""
    r = m.rank()
    cap = None if m.n > CIRCUIT_SCAN_CAP else r - 1
    circuits = [c for c in m.circuits(max_size=cap) if c.bit_count() < r]
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1 :]:
            if m.r(c1 | c2) < r - 1:
                return False
    return True


def is_paving(m: Matroid):
    return is_kl_uniform_flats(m, 2, 1)[0]


def is_sparse_paving(m: Matroid):
    return is_kl_uniform_flats(m, 2, 1)[0] and is_kl_uniform_flats(m, 1, 2)[0]


# ---- structure of (2,2)-uniform matroids below 3-connectivity


def _is_22(m):
    return is_kl_uniform_flats(m, 2, 2)[0]


def classify_disconnected_22(m: Matroid):
    """First applicable clause for a disconnected (2,2)-uniform matroid:
    D-i: M or M* is paving;
    D-ii: M = M_p + U_{0,1} or M_p* + U_{1,1} with M_p paving;
    D-iii: M = M_p + U_{1,2} with M_p sparse paving."""
    if m.is_connected():
        raise MatroidError("classifier expects a disconnected matroid")
    if not _is_22(m):
        raise MatroidError("classifier expects a (2,2)-uniform matroid")
    if is_paving(m):
        return StructureClass("D-i", ("M",))
    if is_paving(m.dual()):
        return StructureClass("D-i", ("M*",))
    loops = m.loops()
    if loops:
        e = loops & -loops
        if is_paving(m.delete(e)):
            return StructureClass("D-ii", ("loop", m.labels_of(e)[0]))
    coloops = m.coloops()
    if coloops:
        e = coloops & -coloops
        if is_paving(m.delete(e).dual()):
            return StructureClass("D-ii", ("coloop", m.labels_of(e)[0]))
    for comp in m.components():
        if comp.bit_count() == 2 and m.r(comp) == 1:
            rest = m.delete(comp)
            if is_sparse_paving(rest):
                return StructureClass("D-iii", ("pair", m.labels_of(comp)))
    raise MatroidError("no clause applies: structure theorem violated")


def classify_connected_not3_22(m: Matroid):
    """First applicable clause for a connected, not 3-connected, (2,2)-uniform
    matroid:
    C-i: M or M* is paving;
    C-ii: M or M* has rank 3 and no parallel class of size more than two;
    C-iii: M has a parallel or series pair {p,p'} with M\\p/p' sparse paving;
    C-iv: M = P(N, U_{2,4})\\p with N connected and N/p, N*/p both paving."""
    if not m.is_connected():
        raise MatroidError("classifier expects a connected matroid")
    if m.is_3connected():
        raise MatroidError("classifier expects a matroid that is not 3-connected")
    if not _is_22(m):
        raise MatroidError("classifier expects a (2,2)-uniform matroid")
    if is_paving(m):
        return StructureClass("C-i", ("M",))
    if is_paving(m.dual()):
        return StructureClass("C-i", ("M*",))
    if m.rank() == 3 and all(c.bit_count() <= 2 for c in m.parallel_classes()):
        return StructureClass("C-ii", ("M",))
    if m.dual().rank() == 3 and all(c.bit_count() <= 2 for c in m.series_classes()):
        return StructureClass("C-ii", ("M*",))
    hit = _find_pair_reduction(m)
    if hit is not None:
        return hit
    hit = _find_u24_decomposition(m)
    if hit is not None:
        return hit
    raise MatroidError("no clause applies: structure theorem violated")


def _find_pair_reduction(m):
    pairs = []
    for kind, classes in (("parallel", m.parallel_classes()),
                          ("series", m.series_classes())):
        for cls in classes:
            pairs.extend((kind, 1 << i, 1 << j) for i, j in combinations(_bits(cls), 2))
    for kind, a, b in sorted(pairs, key=lambda t: (t[1] | t[2], t[0])):
        for p, q in ((a, b), (b, a)):
            if is_sparse_paving(m.minor(contract=q, delete=p)):
                return StructureClass(
                    "C-iii", (kind, m.labels_of(p)[0], m.labels_of(q)[0])
                )
    return None


def _find_u24_decomposition(m):
    # M = P(N, U_{2,4})\p leaves the triangle {x,y,z} of U_{2,4} behind;
    # contracting z makes x and y parallel, and N is M/z\x with y playing
    # the basepoint.
    triangles = [c for c in m.circuits(max_size=3) if c.bit_count() == 3]
    for tri in sorted(triangles):
        labs = m.labels_of(tri)
        for zi in range(3):
            zl = labs[zi]
            a, b = [labs[i] for i in range(3) if i != zi]
            for xl, yl in ((a, b), (b, a)):
                hit = _try_u24(m, labs, xl, yl, zl)
                if hit is not None:
                    return hit
    return None


def _try_u24(m, tri_labels, xl, yl, zl):
    # {x, y, z} is a circuit, so {x, y} is a parallel pair of M/z
    mz = m.contract(m.mask_of((zl,)))
    n = mz.delete(mz.mask_of((xl,)))
    if not n.is_connected():
        return None
    bmask = n.mask_of((yl,))
    if not is_paving(n.contract(bmask)):
        return None
    if not is_paving(n.dual().contract(bmask)):
        return None
    if not _rebuild_matches(m, n, yl, xl, zl):
        return None
    return StructureClass(
        "C-iv", ("triangle", tri_labels, "contract", zl, "basepoint", yl)
    )


def _rebuild_matches(m, n, base, xl, zl):
    [tmp] = _fresh_labels({*m.labels, *n.labels}, [base])
    u = uniform(2, 4, labels=(base, xl, tmp, zl))
    rebuilt = parallel_connection(n, base, u, base)
    rebuilt = rebuilt.delete(rebuilt.mask_of((base,))).relabel({tmp: base})
    return is_isomorphism(m, rebuilt, {lab: lab for lab in m.labels})
