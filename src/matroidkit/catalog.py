"""Named binary matroids and generated families.

Fixed GF(2) matrices for the named rank-4 and rank-5 matroids, graphic
and graft constructions, binary spikes, projective and affine
geometries, and the generated family of binary (2,2)-uniform matroids
that are not 3-connected.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .gf import MAX_DIM, GFMatrix, parse_matrix
from .iso import element_orbits, iso_key
from .matroid import (
    MatroidError,
    direct_sum,
    from_graph,
    from_matrix,
    graft_matroid,
    is_binary,
    parallel_connection,
    uniform,
)

# Fixed matrices.  P10 and L10 share their first four rows; L10 replaces the
# fifth row with all-ones.
P10_MATRIX = """2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
0 0 0 0 1 1 1 1 0 0
"""

L10_MATRIX = """2 5 10
1 0 0 0 0 1 0 0 1 1
0 1 0 0 0 1 1 0 0 1
0 0 1 0 0 0 1 1 0 1
0 0 0 1 0 0 0 1 1 0
1 1 1 1 1 1 1 1 1 1
"""

P9_MATRIX = """2 4 9
1 0 0 0 1 0 0 1 1
0 1 0 0 1 1 0 0 1
0 0 1 0 0 1 1 0 1
0 0 0 1 0 0 1 1 0
"""

MK33_MATRIX = """2 5 9
1 0 0 0 0 1 0 0 1
0 1 0 0 0 1 1 0 0
0 0 1 0 0 0 1 1 0
0 0 0 1 0 0 0 1 1
1 1 1 1 1 1 1 1 1
"""

F7_MATRIX = """2 3 7
1 0 0 1 1 0 1
0 1 0 1 0 1 1
0 0 1 0 1 1 1
"""

K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Rank-4 wheel: hub 0, rim cycle 1-2-3-4.
W4_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
# K5 on {0..4} minus the edge {3,4}.
K5E_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
# K(3,3) with parts {0,1,2} and {3,4,5}.
K33_EDGES = ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))


def tiny_six():
    """The six 3-connected matroids on at most three elements, as GF(2)
    matrices: U(0,0), U(0,1), U(1,1), U(1,2), U(1,3) and U(2,3)."""
    shapes = {"U(0,0)": ((),), "U(0,1)": ((0,),), "U(1,1)": ((1,),),
              "U(1,2)": ((1, 1),), "U(1,3)": ((1, 1, 1),),
              "U(2,3)": ((1, 0, 1), (0, 1, 1))}
    return [from_matrix(GFMatrix(2, rows), name=name) for name, rows in shapes.items()]


def geometry(kind, dim):
    """PG(dim,2) on all nonzero GF(2) vectors of length dim+1, or AG(dim,2)
    on the vectors with last coordinate 1 (complement of a hyperplane)."""
    if dim < 1:
        raise MatroidError("geometry needs dim >= 1")
    if kind not in ("PG", "AG"):
        raise MatroidError(f"unknown geometry kind {kind!r}")
    # counted before any point is listed: PG has 2^(dim+1) - 1, AG 2^dim;
    # past dim 6 both exceed MAX_DIM, so the shift is capped at 7
    d = min(dim, 7)
    if ((2 << d) - 1 if kind == "PG" else 1 << d) > MAX_DIM:
        raise MatroidError(f"geometry({kind},{dim},2): too many points")
    # Row 0 of a column is the high bit, so AG's last coordinate is bit 0.
    values = range(1, 2 << dim, 1 if kind == "PG" else 2)
    return from_matrix(GFMatrix.from_point_values(values, dim + 1), name=f"{kind}({dim},2)")


def spike(r):
    """Binary r-spike Z_r: columns I_r (legs x_i), J_r - I_r (co-legs y_i),
    and the all-ones tip t."""
    if r < 3:
        raise MatroidError("spike(r) needs r >= 3")
    if 2 * r + 1 > MAX_DIM:
        raise MatroidError(f"spike({r}): {2 * r + 1} elements exceed the {MAX_DIM} cap")
    cols = [[1 if i == j else 0 for i in range(r)] for j in range(r)]
    cols += [[0 if i == j else 1 for i in range(r)] for j in range(r)]
    cols.append([1] * r)
    labels = (
        tuple(f"x{j + 1}" for j in range(r))
        + tuple(f"y{j + 1}" for j in range(r))
        + ("t",)
    )
    return from_matrix(GFMatrix.from_columns(2, cols), labels=labels, name=f"Z{r}")


def spike_minus_tip(r):
    z = spike(r)
    return z.delete(z.mask_of(("t",))).with_name(f"Z{r}\\t")


def spike_minus_y(r):
    z = spike(r)
    return z.delete(z.mask_of((f"y{r}",))).with_name(f"Z{r}\\y")


# name: (builder, rank, size, note), in catalog order; every entry is
# simple and cosimple, and `named` gives the built matroid its name
_NAMED = {
    "F7": (lambda: from_matrix(parse_matrix(F7_MATRIX)), 3, 7,
           "fixed 3x7 matrix; equals the rank-3 binary spike"),
    "F7*": (lambda: from_matrix(parse_matrix(F7_MATRIX)).dual(), 4, 7, "dual of F7"),
    "AG32": (lambda: geometry("AG", 3), 4, 8, "affine geometry AG(3,2)"),
    "S8": (lambda: spike_minus_y(4), 4, 8,
           "the non-tip single-element deletion of the binary 4-spike"),
    "P9": (lambda: from_matrix(parse_matrix(P9_MATRIX)), 4, 9,
           "fixed 4x9 matrix; also the graft of the rank-4 wheel with the hub "
           "and three rim vertices marked"),
    "P10": (lambda: from_matrix(parse_matrix(P10_MATRIX)), 5, 10,
            "fixed 5x10 matrix; a coextension of P9"),
    "L10": (lambda: from_matrix(parse_matrix(L10_MATRIX)), 5, 10,
            "fixed 5x10 matrix; also the graft of K(3,3) with all vertices "
            "but two in one part marked"),
    "R10": (lambda: graft_matroid(6, K33_EDGES, (0, 1, 2, 3, 4, 5)), 5, 10,
            "graft of K(3,3) with every vertex marked"),
    "MK5e": (lambda: from_graph(5, K5E_EDGES), 4, 9, "cycle matroid of K5 minus an edge"),
    "MK33": (lambda: from_matrix(parse_matrix(MK33_MATRIX)), 5, 9,
             "fixed 5x9 matrix; the cycle matroid of K(3,3)"),
    "MK33*": (lambda: from_matrix(parse_matrix(MK33_MATRIX)).dual(), 4, 9, "dual of MK33"),
    "MW3": (lambda: from_graph(4, K4_EDGES), 3, 6, "cycle matroid of K4, the rank-3 wheel"),
    "MW4": (lambda: from_graph(5, W4_EDGES), 4, 8, "cycle matroid of the rank-4 wheel"),
}

NAMED_ORDER = tuple(_NAMED)


def named(name):
    """One of the fixed named matroids, by its catalog name."""
    try:
        builder = _NAMED[name][0]
    except KeyError:
        raise MatroidError(f"unknown catalog name {name!r}") from None
    return builder().with_name(name)


class CatalogEntry:
    """A constructed matroid together with the claims made about it.  The
    claimed rank and size, (when stated) simplicity and cosimplicity, and
    binary-ness are all checked at construction time."""

    def __init__(self, name, params, matroid, note, *, rank, size,
                 simple=None, cosimple=None):
        if matroid.rank() != rank:
            raise MatroidError(f"{name}: rank {matroid.rank()} != claimed {rank}")
        if matroid.n != size:
            raise MatroidError(f"{name}: size {matroid.n} != claimed {size}")
        if simple is not None and matroid.is_simple() != simple:
            raise MatroidError(f"{name}: simplicity claim failed")
        if cosimple is not None and matroid.is_cosimple() != cosimple:
            raise MatroidError(f"{name}: cosimplicity claim failed")
        if not is_binary(matroid):
            raise MatroidError(f"{name}: not binary")
        self.name = name
        self.params = dict(params)
        self.matroid = matroid.with_name(name)
        self.note = note

    def __repr__(self):
        return f"CatalogEntry({self.name}: n={self.matroid.n}, r={self.matroid.rank()})"


def entries():
    """CatalogEntry list for the named matroids, claims checked."""
    return [CatalogEntry(name, {}, named(name), note, rank=rank, size=size,
                         simple=True, cosimple=True)
            for name, (_, rank, size, note) in _NAMED.items()]


# ---- the family of binary (2,2)-uniform matroids that are not 3-connected


def _pc(m, base):
    """Parallel connection of m with a triangle at the given basepoint label."""
    return parallel_connection(m, base, uniform(2, 3, labels=("p0", "q1", "q2")), "p0")


def _pc_delete(m, base):
    """Parallel connection with a triangle at base, then delete the basepoint;
    the triangle remainder q1, q2 becomes a series pair replacing base."""
    joined = _pc(m, base)
    return joined.delete(joined.mask_of((base,)))


def _require_transitive(name, m):
    if len(element_orbits(m)) != 1:
        raise MatroidError(f"{name}: expected a transitive automorphism group")


def _family_raw(max_n):
    """All family members before deduplication, as (name, params, matroid,
    note, rank, size, simple) tuples; simple = None when unclaimed."""
    raw = []

    def add(name, params, m, note, rank, size, simple=None):
        raw.append((name, params, m, note, rank, size, simple))

    # (a) rank at most 1, excluding the four tiny 3-connected ones (the empty
    # matroid is 3-connected by convention and is excluded as well).
    for loops in range(2, max_n + 1):
        add(f"U(0,{loops})", {"item": "i", "loops": loops},
            uniform(0, loops), "loops only", 0, loops, simple=False)
    for b in range(1, max_n + 1):
        for loops in range(0, max_n + 1 - b):
            if loops == 0 and b in (1, 2, 3):
                continue
            m = uniform(1, b)
            name = f"U(1,{b})"
            if loops:
                m = direct_sum(m, uniform(0, loops))
                name += f"+U(0,{loops})"
            add(name, {"item": "i", "parallel": b, "loops": loops},
                m, "one parallel class plus loops", 1, b + loops,
                simple=(b == 1 and loops == 0))

    # (b) non-simple rank-2 binary with at most one loop: multiplicities on
    # the three points of the rank-2 projective line, sorted descending.
    for a in range(1, max_n + 1):
        for b in range(1, a + 1):
            for c in range(0, b + 1):
                for lp in (0, 1):
                    if a + b + c + lp > max_n:
                        continue
                    if lp == 0 and a == 1:
                        continue
                    vals = [1] * a + [2] * b + [3] * c
                    m = from_matrix(GFMatrix.from_point_values(vals, 2))
                    if lp:
                        m = direct_sum(m, uniform(0, 1))
                    name = f"line[{a},{b},{c}]" + ("+loop" if lp else "")
                    add(name, {"item": "ii", "multiplicities": (a, b, c), "loops": lp},
                        m, "rank-2 point multiplicities with at most one loop",
                        2, a + b + c + lp, simple=False)

    # (c) loopless non-simple rank-3 binary with parallel classes of size at
    # most 2: a simple rank-3 restriction of the rank-3 projective plane with
    # some points doubled.  Cores are deduplicated up to isomorphism first.
    cores = {}
    for mask in range(1 << 7):
        pts = [v + 1 for v in range(7) if mask >> v & 1]
        if len(pts) < 3 or len(pts) > max_n:
            continue
        core = from_matrix(GFMatrix.from_point_values(pts, 3))
        if core.rank() != 3:
            continue
        cores.setdefault(iso_key(core), tuple(pts))
    for pts in sorted(cores.values(), key=lambda t: (len(t), t)):
        k = len(pts)
        for dmask in range(1, 1 << k):
            doubled = tuple(pts[i] for i in range(k) if dmask >> i & 1)
            if k + len(doubled) > max_n:
                continue
            vals = list(pts) + list(doubled)
            m = from_matrix(GFMatrix.from_point_values(vals, 3))
            name = "plane[" + ",".join(map(str, pts)) + "|" + ",".join(map(str, doubled)) + "]"
            add(name, {"item": "iii", "points": pts, "doubled": doubled},
                m, "rank-3 point set with some points doubled, loopless",
                3, k + len(doubled), simple=False)

    # (d) direct sums with a loop or with a two-point parallel class.
    bases = [(bn, named(bn)) for bn in ("MW3", "F7", "F7*", "AG32")]
    for bn, bm in bases:
        add(f"{bn}+U(0,1)", {"item": "iv", "base": bn, "summand": "U(0,1)"},
            direct_sum(bm, uniform(0, 1)), "direct sum with a single loop",
            bm.rank(), bm.n + 1, simple=False)
        add(f"{bn}+U(1,2)", {"item": "iv", "base": bn, "summand": "U(1,2)"},
            direct_sum(bm, uniform(1, 2)), "direct sum with a two-point parallel class",
            bm.rank() + 1, bm.n + 2, simple=False)

    # (e) triangle glued at the spike tip, tip deleted.
    z4 = spike(4)
    add("P(Z4,U23)\\t", {"item": "v", "base": "Z4", "basepoint": "t"},
        _pc_delete(z4, "t"), "triangle glued at the 4-spike tip, tip deleted",
        5, 10, simple=True)
    s8 = named("S8")
    add("P(S8,U23)\\t", {"item": "v", "base": "S8", "basepoint": "t"},
        _pc_delete(s8, "t"), "triangle glued at the tip of S8, tip deleted",
        5, 9, simple=True)

    # (f) triangle glued at a point, point deleted; the bases are
    # point-transitive so the choice of basepoint is immaterial.
    for bn in ("F7", "AG32"):
        bm = named(bn)
        _require_transitive(bn, bm)
        add(f"P({bn},U23)\\p", {"item": "vi", "base": bn, "basepoint": bm.labels[0]},
            _pc_delete(bm, bm.labels[0]), "triangle glued at a point, point deleted",
            bm.rank() + 1, bm.n + 1, simple=True)

    # (g) triangle glued at a point, kept; transitive bases again.
    for bn, bm in bases:
        _require_transitive(bn, bm)
        add(f"P({bn},U23)", {"item": "vii", "base": bn, "basepoint": bm.labels[0]},
            _pc(bm, bm.labels[0]), "triangle glued at a point",
            bm.rank() + 1, bm.n + 2, simple=True)

    return raw


def cor33_family(max_n=10):
    """The binary (2,2)-uniform matroids that are not 3-connected, as
    CatalogEntry objects: explicit members plus representatives of the
    unbounded low-rank families up to max_n elements, closed under duality
    and deduplicated up to isomorphism.  Built once per max_n; each call
    gets a new list."""
    return list(_cor33_family(max_n))


@lru_cache(maxsize=None)
def _cor33_family(max_n):
    raw = _family_raw(max_n)
    entries_out = []
    seen = {}
    for dualize in (False, True):
        for name, params, m, note, rank, size, simple in raw:
            if dualize:
                name += "*"
                params = dict(params, dual=True)
                m, note = m.dual(), f"dual of: {note}"
                rank, simple = size - rank, None
            key = iso_key(m)
            if key in seen:
                continue
            seen[key] = name
            entries_out.append(CatalogEntry(name, params, m, note,
                                            rank=rank, size=size, simple=simple))
    return tuple(entries_out)


# ---- CLI name resolution

_URI_FORMS = (
    "a catalog name (F7, P10, ...), a trailing * for the dual, U<r><n> or "
    "U(r,n), PG(d,2) or AG(d,2), Z<r> for spikes, Z<r>-t or Z<r>-y for "
    "spike deletions"
)


def resolve(text):
    """Resolve a catalog URI body: named matroids, U/PG/AG/Z constructions,
    and a trailing * for the dual of any of these."""
    if text in _NAMED:
        return named(text)
    if text.endswith("*"):
        return resolve(text[:-1]).dual().with_name(text)
    mu = re.fullmatch(r"U\((\d+),(\d+)\)", text) or re.fullmatch(r"U(\d)(\d)", text)
    if mu:
        return uniform(int(mu.group(1)), int(mu.group(2)))
    mg = re.fullmatch(r"(PG|AG)\((\d+),2\)", text)
    if mg:
        return geometry(mg.group(1), int(mg.group(2)))
    mz = re.fullmatch(r"Z(\d+)([-\\][ty])?", text)
    if mz:
        r = int(mz.group(1))
        if mz.group(2) is None:
            return spike(r)
        return spike_minus_tip(r) if mz.group(2)[1] == "t" else spike_minus_y(r)
    raise MatroidError(f"cannot resolve {text!r}; expected {_URI_FORMS}")
