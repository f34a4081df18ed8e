"""Isomorphism testing, canonical forms for binary matroids, minor search.

The core engine canonicalizes a set of projective points over GF(2) under
the general linear group: the least sorted image over all linear maps is
reached by mapping an ordered basis drawn from the set to 1, 2, 4, ...,
so a depth-first search over basis prefixes with prefix pruning and
automorphism orbit skipping finds it without touching all of GL(r,2).
Weights ride along (for parallel-class multiplicities and markings) by
comparing sorted (image, weight) pairs.
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar

from .gf import GFMatrix, _flats, null_space, rref
from .matroid import Matroid, MatroidError, _bits, _gf2_matrix, _joined_classes, _subsets
from .matroid import binary_representation, is_binary, is_isomorphism

__all__ = [
    "BudgetExhausted",
    "NotBinary",
    "is_canonical_point_set",
    "binary_canonical_form",
    "binary_representation",
    "is_binary",
    "iso_key",
    "fingerprint",
    "are_isomorphic",
    "has_minor",
    "element_orbits",
]

DEFAULT_MINOR_BUDGET = 5_000_000


class BudgetExhausted(Exception):
    """Search node budget ran out before a definitive answer."""


class NotBinary(MatroidError):
    """The matroid provably has no GF(2) representation."""


class _Smaller(Exception):
    """Canonicity test found a strictly smaller image."""


class _Found(Exception):
    """A directed search reached a leaf equal to its target; args[0] is the
    leaf's point map."""


# (points, weights) -> _canon_search's result, for one census call (see
# _canonical); None outside one
_census_searches: ContextVar[dict | None] = ContextVar("census_searches", default=None)


# ---- point-set canonicalization


def _canon_search(points, weights, target=None, autos=None, directed=False):
    """Minimize the sorted (image, weight) list over injective linear maps.

    Returns (best_pairs, best_map, autos).  With a target, raises _Smaller
    the moment any map provably beats it and otherwise confirms the target.
    Directed, the target is another point set's form with the same multiset
    of weights, and the search returns a point map or None: it makes the
    test's comparisons, returns None at once when a smaller block or next
    slot proves this set's form below the target, cuts a larger one, and
    returns the map of the first leaf whose list equals the target (None
    when every branch is cut).  It stops before a second equal leaf, the
    first tie, so it records no autos and makes no orbit prune.  An empty
    set matches the empty target with {}.
    autos collect the weight-preserving linear symmetries, as point maps,
    found on ties; a given autos list seeds the orbit prunes with symmetries
    already known (each indexable by every point) and is extended in place.
    Without a target they generate the whole symmetry group: at each node on
    the path to the first best leaf, every candidate in the orbit of the
    path's next point is either skipped by an orbit prune or reaches a tie,
    so the orbits of the autos fixing the node's prefix are the full
    stabilizer's orbits (the argument of McKay's nauty).

    A node decides each child in its own loop: it forms the child's block of
    newly spanned pairs and runs the bound checks the child would run on
    entry (its prefix against the best, then the next slot against the
    least image the child can give) before it builds the child's span table
    and outside list, and on a cut marks the candidate decided, as the
    child's return would have.  The child would compare the same values with
    the same best at the same point of the loop, so every cut, raise and
    decided candidate comes in the same order, and the tree, forms, maps and
    the order of the autos are those of a search with one frame per child.
    When testing, a node is only expanded while its prefix equals the
    target's (larger is cut, smaller raises), so only the new block is
    compared; without a target the best can change under a node, so the
    whole prefix is.  The orbit prune keeps the union of the orbits of the
    decided candidates under the autos fixing the prefix, widened whenever a
    child or a tie finds more, so a candidate is skipped exactly when its
    orbit holds a decided one.
    """
    n = len(points)
    if n == 0:
        if directed:
            return None if target else {}
        return (), {}, []
    testing = target is not None
    if autos is None:
        autos = []
    # a pair (image, weight) is the int image << shift | rank of the weight
    # among the distinct weights, so int order is pair order for any weights
    values = sorted(set(weights))
    shift = len(values).bit_length()
    rank = {w: i for i, w in enumerate(values)}
    size = 1 << max(points).bit_length()
    wt = [0] * size
    for p, w in zip(points, weights):
        wt[p] = rank[w]
    best = [p << shift | rank[w] for p, w in target] if testing else None
    best_map = {p: p for p in points} if testing else None
    inv = best_map  # image -> point of the best map

    def rec(prefix, tab, vec, forced, outside, fixing, seen):
        # tab[v] is the packed image of each v in span(prefix), -1 off it,
        # and vec[i] the vector of image i; outside is in (weight, point)
        # order and forced == best[:len(forced)] whenever testing
        nonlocal best, best_map, inv
        lim = 1 << len(prefix)
        top = lim << shift
        nf = len(forced)
        covered = 0  # the orbits under fixing of the candidates decided, a bit mask
        for p in outside:
            if covered >> p & 1:
                continue
            # x joins the span with p iff x ^ p is in it already (p itself by 0)
            block = sorted([i | top | wt[x] for x in outside if (i := tab[x ^ p]) >= 0])
            end = nf + len(block)
            cut = False
            if best is not None:
                # the child's entry bounds; testing compares only the new block
                got, pre = (block, best[nf:end]) if testing else (forced + block, best[:end])
                if got < pre:
                    if testing:
                        raise _Smaller
                elif got > pre:
                    cut = True
                elif end < n:
                    nxt = best[end] >> shift
                    cut = nxt < lim << 1
                    if testing and nxt > lim << 1:
                        raise _Smaller  # the child completes with lim << 1 in slot `end`
            if not cut:
                child_tab = tab[:]
                child_vec = vec + [v ^ p for v in vec]
                for i in range(lim, lim << 1):
                    child_tab[child_vec[i]] = i << shift
                child_out = [x for x in outside if child_tab[x] < 0]
                if child_out:
                    rec(prefix + [p], child_tab, child_vec, forced + block, child_out,
                        [g for g in fixing if g[p] == p], seen)
                elif best is None or forced + block < best:
                    # testing never lands here: a smaller block would have raised
                    best = forced + block
                    best_map = {x: child_tab[x] >> shift for x in points}
                    inv = {i: x for x, i in best_map.items()}
                else:  # a tie, since the bounds above passed
                    if directed:
                        raise _Found({x: child_tab[x] >> shift for x in points})
                    autos.append({x: inv[child_tab[x] >> shift] for x in points})
                if seen < len(autos):  # only a child or a tie finds autos
                    new = [g for g in autos[seen:] if all(g[q] == q for q in prefix)]
                    seen = len(autos)
                    if new:
                        fixing += new
                        covered = _closure(covered, fixing, list(_bits(covered)))
            covered |= _closure(1 << p, fixing, [p]) if fixing else 1 << p

    tab = [-1] * size
    tab[0] = 0
    try:
        if testing and best[0] >> shift > 1:
            raise _Smaller  # every branch puts image 1 in the first slot
        rec([], tab, [0], [], sorted(points, key=lambda p: (wt[p], p)), list(autos), len(autos))
    except _Smaller:
        if directed:
            return None
        raise
    except _Found as found:
        return found.args[0]
    if directed:
        return None
    mask = (1 << shift) - 1
    return tuple((x >> shift, values[x & mask]) for x in best), best_map, autos


def _closure(mask, gens, frontier):
    """The union of the orbits under gens of the points in mask, a bit mask;
    frontier lists the points of mask whose images are not yet known."""
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if not mask >> y & 1:
                mask |= 1 << y
                frontier.append(y)
    return mask


def is_canonical_point_set(points, weights=None, autos=None):
    """True iff sorted(points) is its own canonical form (orbit representative).

    autos, when given, is a list of known weight-preserving linear symmetries
    of the points, each indexable by every point (p -> image of p).  The test
    uses them as orbit prunes from its first node and appends, as dicts, the
    symmetries its own search finds.  The points must be distinct nonzero
    vectors of GF(2)^16, since the search indexes a table by vector."""
    pts = tuple(sorted(points))
    if pts and (pts[0] <= 0 or pts[-1] >= 1 << 16):
        raise MatroidError("points must be nonzero vectors of GF(2)^d with d <= 16")
    if len(set(pts)) < len(pts):
        raise MatroidError("points must be distinct")
    if weights is None:
        pairs = tuple((p, 0) for p in pts)
    else:
        if len(weights) != len(pts):
            raise MatroidError("weights must have one entry per point")
        w = dict(zip(points, weights))
        pairs = tuple((p, w[p]) for p in pts)
    try:
        _canon_search(tuple(p for p, _ in pairs), tuple(w for _, w in pairs),
                      target=pairs, autos=autos)
    except _Smaller:
        return False
    return True


# ---- binary representations


def _rank_rows(matrix):
    red, r, _ = rref(matrix)
    return GFMatrix._trusted(matrix.field, red.rows[:r] or ((0,) * matrix.ncols,))


def binary_canonical_form(m: Matroid):
    """Canonical form of a simple binary matroid: the sorted indices (into the
    fixed projective point order of its rank) of the least GL-image, read
    from iso_key (every weight is 1, so the least weighted image is the least
    image)."""
    if binary_representation(m) is None:
        raise NotBinary("canonical form needs a binary matroid")
    if not m.is_simple():
        raise MatroidError("canonical form is defined for simple matroids")
    if m.rank() > 6:
        raise MatroidError("canonical form capped at rank 6")
    return tuple(v - 1 for v, _ in iso_key(m)[4])


def _canon_inputs(m: Matroid):
    """(head, class_of_point, (points, weights)) of a binary matroid with
    rank or corank at most 6 (not of a rank table past CERTIFY_CAP, which
    `binary_representation` refuses).  The side of rank <= 6 (m, else m*) is
    read as GF(2) points weighted by parallel class size: `class_of_point`
    maps each point to its class as an element mask (0 to the loops), and
    head = (n, r, side, loops) begins the key."""
    r, n = m.rank(), m.n
    if min(r, n - r) > 6:
        raise MatroidError("iso_key needs rank or corank at most 6")
    mat = binary_representation(m)
    if mat is None:
        raise NotBinary("canonical form needs a binary matroid")
    side = "p"
    if r > 6:
        # A binary matroid has one GF(2) representation up to row operations,
        # and so has its dual, whose rows span the null space of m's.  So the
        # rows `_rank_rows` reads off `null_space(mat)` are those of any
        # binary representation of m* on any backend, and so are the key,
        # the point map and the automorphisms.
        side, mat = "d", null_space(mat)
    class_of_point = {}
    for e, p in enumerate(_rank_rows(mat).point_values()):
        class_of_point[p] = class_of_point.get(p, 0) | 1 << e
    pairs = sorted((p, c.bit_count()) for p, c in class_of_point.items() if p)
    inputs = (tuple(p for p, _ in pairs), tuple(w for _, w in pairs))
    return (n, r, side, class_of_point.get(0, 0).bit_count()), class_of_point, inputs


def _canonical(m: Matroid):
    """(key, mapping, class_of_point, autos) of m, from `_canon_inputs`'
    points searched once and kept on m: `key` is the head followed by the
    least weighted image (what iso_key returns), `mapping` sends each point
    to its image, and `autos` are the search's point automorphisms, which
    with the swaps inside each class generate Aut(m) (`element_orbits`
    lifts them to elements).

    The search's result depends on its (points, weights) alone.  Inside one
    `search.three_connected_census_22` call, matroids with the same inputs
    share one search, and so one `mapping` dict and autos list, which are
    read and never mutated.  The sharing ends with the call: it is never
    process-wide, so a later call searches again and memory stays bounded
    by one call's inputs.  Outside a census call each matroid searches for
    itself."""
    if m._canon is not None:
        return m._canon
    head, class_of_point, inputs = _canon_inputs(m)
    searches = _census_searches.get()
    if searches is None:
        searches = {}  # outside a census call nothing is shared
    if inputs not in searches:
        searches[inputs] = _canon_search(*inputs)
    form, mapping, autos = searches[inputs]
    m._canon = (head + (form,), mapping, class_of_point, autos)
    return m._canon


def iso_key(m: Matroid):
    """Hashable complete isomorphism invariant for binary matroids with
    min(rank, corank) <= 6; works through the dual when the rank is large."""
    return _canonical(m)[0]


# ---- fingerprints and generic isomorphism


def _circuit_degrees(n, circuits, top):
    """Per element i, the tuple whose entry s counts the circuits of size s
    (0 <= s <= top) through i."""
    deg = [[0] * (top + 1) for _ in range(n)]
    for c in circuits:
        s = c.bit_count()
        for i in _bits(c):
            deg[i][s] += 1
    return [tuple(d) for d in deg]


def fingerprint(m: Matroid):
    """Cheap isomorphism invariant: counts of small flats and circuits plus the
    multiset of per-element small-circuit degrees."""
    r, n = m.rank(), m.n
    flat_counts = Counter((k, f.bit_count()) for k in range(min(3, r) + 1)
                          for f in m.flats_of_rank(k))
    circuits = m.circuits(max_size=6)
    return (
        n,
        r,
        m.loops().bit_count(),
        m.coloops().bit_count(),
        tuple(sorted(flat_counts.items())),
        tuple(sorted(Counter(c.bit_count() for c in circuits).items())),
        tuple(sorted(_circuit_degrees(n, circuits, 6))),
    )


def _verify_bijection(m1, m2, mapping):
    if not is_isomorphism(m1, m2, mapping):
        raise MatroidError("certificate failed rank verification")
    return mapping


def _generic_isomorphism(m1, m2):
    """Label bijection m1 -> m2 from circuits alone, or None (m1 and m2 have
    equal size).  A bijection is an isomorphism iff it maps the circuits of
    m1 onto those of m2.  Equal degree multisets, counted up to the longest
    circuit of either side, give equal circuit counts per size, so a
    bijection that sends each circuit of m1 to one of m2 is onto.  Elements
    go rarest degree first onto unused ones of equal degree, ascending, and a
    circuit is checked when its last element is placed, the first step at
    which it is fully mapped; the map's keys come in placement order."""
    c1, c2 = m1.circuits(), m2.circuits()
    top = max((c.bit_count() for c in (*c1, *c2)), default=0)
    d1 = _circuit_degrees(m1.n, c1, top)
    d2 = _circuit_degrees(m2.n, c2, top)
    if sorted(d1) != sorted(d2):
        return None
    freq = Counter(d1)
    order = sorted(range(m1.n), key=lambda i: (freq[d1[i]], d1[i], i))
    pos = {i: k for k, i in enumerate(order)}
    closing = [[] for _ in order]
    for c in c1:
        closing[max(pos[i] for i in _bits(c))].append(c)
    c2set = set(c2)
    img = [0] * m1.n  # img[i] is the bit of i's image, set on the current path

    def rec(k, used):
        if k == len(order):
            return True
        i = order[k]
        for j in range(m2.n):
            if d2[j] != d1[i] or used >> j & 1:
                continue
            img[i] = 1 << j
            if (all(sum(img[e] for e in _bits(c)) in c2set for c in closing[k])
                    and rec(k + 1, used | img[i])):
                return True
        return False

    if not rec(0, 0):
        return None
    return {m1.labels[i]: m2.labels[img[i].bit_length() - 1] for i in order}


def are_isomorphic(m1: Matroid, m2: Matroid):
    """Label bijection m1 -> m2 if isomorphic, else None; the one place that
    decides how a pair is tested.  A GF(2)-backed pair with rank or corank at
    most 6 goes to canonical forms (`_binary_iso`).  Any other pair must
    agree on `fingerprint`; then a pair of rank or corank at most 6 that is
    certified binary on both sides goes to canonical forms, and the rest (one
    binary side against a non-binary one, and a rank table past CERTIFY_CAP,
    included) take the exact circuit backtrack, whose map is verified."""
    r, n = m1.rank(), m1.n
    if (n, r) != (m2.n, m2.rank()):
        return None
    if n == 0:
        return {}
    small = min(r, n - r) <= 6
    if small and _gf2_matrix(m1) is not None and _gf2_matrix(m2) is not None:
        return _binary_iso(m1, m2)
    if fingerprint(m1) != fingerprint(m2):
        return None
    try:
        binary = small and is_binary(m1) and is_binary(m2)
    except MatroidError:
        binary = False  # a rank table past CERTIFY_CAP: the generic path
    if binary:
        return _binary_iso(m1, m2)
    mapping = _generic_isomorphism(m1, m2)
    if mapping is None:
        return None
    return _verify_bijection(m1, m2, mapping)


def _binary_iso(m1, m2):
    """are_isomorphic for two binary matroids with rank or corank at most 6.
    One side, m1 or whichever side already has `_canon`, is canonized.  A
    side without `_canon` reads only its inputs and, when its head and
    weights match, walks straight to that form (`_canon_search` directed)
    and keeps nothing; a side with one reads its own.

    The directed map is the one the side's own full search would keep, so
    the label map is unchanged.  That search's `best_map` is the first leaf,
    in DFS order, whose list equals the final minimum: a bound cut removes
    only subtrees whose lists exceed the best so far, and an orbit prune
    skips only a subtree isomorphic to an earlier one, which holds the
    matching leaf.  The directed walk takes children in the same (weight,
    point) order and cuts only subtrees that cannot reach the target, so its
    first target leaf is that same leaf."""
    key = _canonical(m2 if m1._canon is None and m2._canon is not None else m1)[0]
    form = key[4]
    sides = []
    for m in (m1, m2):
        if m._canon is not None:
            if m._canon[0] != key:
                return None
            sides.append(m._canon[1:3])
            continue
        head, classes, (points, weights) = _canon_inputs(m)
        # equal weights first: the directed search ranks the target's weights
        if head != key[:4] or sorted(weights) != sorted(w for _, w in form):
            return None
        mapping = _canon_search(points, weights, target=form, directed=True)
        if mapping is None:
            return None
        sides.append((mapping, classes))
    (map1, classes1), (map2, classes2) = sides
    inv2 = {img: p for p, img in map2.items()}
    inv2[0] = 0  # loops to loops
    mapping = {}
    for p, cls in classes1.items():
        q = inv2[map1.get(p, 0)]
        mapping.update(zip(m1.labels_of(cls), m2.labels_of(classes2[q])))
    return _verify_bijection(m1, m2, mapping)


# ---- minors


def has_minor(m: Matroid, target: Matroid, budget=DEFAULT_MINOR_BUDGET):
    """(contract_mask, delete_mask) with m/C\\D isomorphic to target, or None.
    C runs over independent sets of size r(m) - r(target) in mask order, so C
    is independent and D is forced coindependent.

    A minor isomorphic to a simple target is simple, and one isomorphic to a
    cosimple target is cosimple, so those filters are exact and leave the
    candidates' order, hence the first witness, as it is.  With a simple
    target a candidate is skipped before it is built when its kept set holds
    a loop of m/C or two elements of one parallel class of m/C (read once
    per C: a matrix reads them from its columns with C's cleared,
    `_contracted_classes`, and builds m/C only once a candidate passes; a
    rank table reads those of m/C); with a cosimple target a built
    candidate that is not cosimple is skipped.  The rest are decided by
    `are_isomorphic(target, candidate)`: on a binary pair it canonizes the
    target once, keeps the form on it, and walks each candidate straight
    to that form.  Every candidate counts against the budget, skipped or
    not.  Raises BudgetExhausted, and MatroidError for a budget below 1."""
    if budget < 1:
        raise MatroidError("budget must be positive")
    dr = m.rank() - target.rank()
    if dr < 0 or m.n < target.n:
        return None
    simple, cosimple = target.is_simple(), target.is_cosimple()
    mat, spent = m.rep.matrix, 0
    for cmask in _subsets(m.n, dr):
        if m.r(cmask) != dr:
            continue
        mc = None if mat is not None else m.contract(cmask)
        if simple:
            if mc is None:
                loops, classes = _contracted_classes(mat, cmask)
            else:
                classes = mc.parallel_classes()
                loops = mc.full_mask ^ sum(classes)
            classes = [c for c in classes if c & c - 1]
        for kmask in _subsets(m.n - dr, target.n):
            spent += 1
            if spent > budget:
                raise BudgetExhausted(f"minor search exceeded {budget} candidates")
            if simple and (kmask & loops or any((h := kmask & c) & h - 1 for c in classes)):
                continue
            if mc is None:
                mc = m.contract(cmask)
            restr = mc.delete(mc.full_mask ^ kmask)
            if restr.rank() != target.rank():
                continue
            if cosimple and not restr.is_cosimple():
                continue
            if are_isomorphic(target, restr) is not None:
                dmask = m.full_mask ^ cmask ^ m.mask_of(restr.labels)
                return cmask, dmask
    return None


def _contracted_classes(mat, cmask):
    """(loops, parallel classes) of the contraction of mat's columns by the
    independent set cmask, as masks over the columns left, renumbered in
    order (those of m/C): the rank-0 and rank-1 flats of the walk from root
    cmask (`gf._flats`), whose child step clears cmask's columns, so no
    contracted matrix is built."""
    left = [e for e in range(mat.ncols) if not cmask >> e & 1]
    (loops,), ones = _flats(mat, 1, ((1 << mat.ncols) - 1) ^ cmask, cmask)[0]

    def renumber(x):
        return sum(1 << i for i, e in enumerate(left) if x >> e & 1)

    return renumber(loops), sorted(renumber(f ^ loops) for f in ones)


# ---- orbits


def element_orbits(m: Matroid):
    """Automorphism orbits of a binary matroid with rank or corank at most 6,
    as label tuples.  Aut(m) is generated by the point automorphisms that
    _canonical keeps, each lifted to elements by sending the members of
    class p in order to those of class g(p), and by the swaps of neighbours
    inside each class (the loops included), so its orbits are the classes
    that those element pairs join."""
    _, _, class_of_point, autos = _canonical(m)
    pairs = [pair for g in autos for p, q in g.items()
             for pair in zip(_bits(class_of_point[p]), _bits(class_of_point[q]))]
    for cls in class_of_point.values():
        members = list(_bits(cls))
        pairs += zip(members, members[1:])
    return sorted(m.labels_of(c) for c in _joined_classes(m.n, pairs))
