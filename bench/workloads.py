"""The three benchmark workloads: their inputs, operations and output gates.

A workload turns a seed into a list of operations (`ops`), runs one
operation against the loaded program (`run`) and checks its output
(`gate`, which returns a list of error strings).  One pass runs every
operation once.  Gates use frozen values and the benchmark's own rank
arithmetic, and run outside the timed region.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace

MODULES = ("gf", "matroid", "uniformity", "iso", "catalog", "search")


def load_program(src):
    """Import matroidkit from `src` afresh and fill its process-wide tables.
    Refuses to run against a copy found anywhere else."""
    for key in [k for k in sys.modules if k == "matroidkit" or k.startswith("matroidkit.")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("matroidkit")
    if not str(pkg.__file__).startswith(str(src)):
        raise ImportError(f"matroidkit loaded from {pkg.__file__}, not from {src}")
    mk = SimpleNamespace(**{name: importlib.import_module(f"matroidkit.{name}")
                            for name in MODULES})
    for q in (2, 3):
        mk.gf.field(q)
    for r in range(1, 7):
        mk.gf.subspace_masks(r)
    return mk


# ---- benchmark-side rank arithmetic for the gates


def rank_mod_p(cols, p, nrows):
    """Rank of column vectors (tuples over GF(p), p prime)."""
    rows = [list(row) for row in zip(*cols)] if cols else []
    rank = 0
    ncols = len(cols)
    for j in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][j] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gf2_rank_table(cols):
    """table[mask] = rank of the GF(2) columns (ints) selected by mask."""
    n = len(cols)
    table = bytearray(1 << n)
    for mask in range(1, 1 << n):
        piv = {}
        rank = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = cols[low.bit_length() - 1]
            while v:
                top = v.bit_length()
                if top in piv:
                    v ^= piv[top]
                else:
                    piv[top] = v
                    rank += 1
                    break
        table[mask] = rank
    return table


def columns_as_ints(rows):
    """GF(2) matrix rows -> column ints with bit i = row i."""
    return [sum(rows[i][j] << i for i in range(len(rows))) for j in range(len(rows[0]))]


def check_bijection(mapping, labels1, table1, labels2, table2):
    """Errors unless `mapping` is a bijection labels1 -> labels2 under which
    the two full rank tables agree on every subset."""
    if mapping is None or sorted(mapping) != sorted(labels1) \
            or sorted(mapping.values()) != sorted(labels2):
        return ["not a bijection between the ground sets"]
    pos2 = {lab: i for i, lab in enumerate(labels2)}
    img = [1 << pos2[mapping[lab]] for lab in labels1]
    for mask in range(1 << len(labels1)):
        out = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            out |= img[low.bit_length() - 1]
        if table1[mask] != table2[out]:
            return [f"rank differs on subset {mask:#x} under the bijection"]
    return []


# ---- census


CENSUS_COUNTS = {
    (0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
    (3, 6): 1, (3, 7): 1,
    (4, 7): 1, (4, 8): 3, (4, 9): 4, (4, 10): 4, (4, 11): 3, (4, 12): 2,
    (4, 13): 1, (4, 14): 1, (4, 15): 1,
    (5, 9): 4, (5, 10): 5, (5, 11): 2, (5, 12): 2, (5, 13): 1, (5, 14): 1,
    (5, 15): 1, (5, 16): 1,
    (6, 10): 4, (6, 11): 2, (7, 11): 3, (7, 12): 2, (8, 12): 2, (8, 13): 1,
    (9, 13): 1, (9, 14): 1, (10, 14): 1, (10, 15): 1, (11, 15): 1, (11, 16): 1,
}


class Census:
    """`three_connected_census_22()` from scratch; the input is fixed."""

    name = "census"
    # layers the workload must reach; a traced pass with no call to one of
    # them is a benchmark bug
    must_run = ("iso.iso_key", "matroid.is_3connected", "matroid.minor",
                "matroid.reduced", "search.three_connected_census_22",
                "search.enumerate_kl_uniform", "iso.is_canonical_point_set",
                "iso.has_minor", "catalog.named", "catalog.geometry",
                "catalog.spike_minus_tip", "gf.rank_of_columns",
                "matroid.rank_oracle.gf2")

    def ops(self, mk, seed):
        return ["census"]

    def run(self, mk, op):
        return mk.search.three_connected_census_22()

    def gate(self, mk, op, report):
        errors = []
        if len(report.representatives) != 65 or report.stats.get("census_size") != 65:
            errors.append(f"census has {len(report.representatives)} members, not 65")
        if report.f_value != 11:
            errors.append(f"f_value {report.f_value} != 11")
        if report.counts != CENSUS_COUNTS:
            errors.append("(rank, size) counts differ from the frozen counts")
        keys = {mk.iso.iso_key(m) for m in report.representatives}
        cat = mk.catalog
        ag42 = cat.geometry("AG", 4)
        for label, m in (("Z5\\t", cat.spike_minus_tip(5)), ("P10", cat.named("P10")),
                         ("AG(4,2)", ag42), ("AG(4,2)*", ag42.dual()),
                         ("MW4", cat.named("MW4"))):
            if mk.iso.iso_key(m) not in keys:
                errors.append(f"{label} missing from the census")
        return errors


# ---- orderly


ORDERLY_COUNTS = {
    (0, 0): 1, (1, 1): 1, (2, 2): 1, (2, 3): 1, (3, 3): 1, (3, 4): 2, (3, 5): 1,
    (3, 6): 1, (3, 7): 1, (4, 4): 1, (4, 5): 3, (4, 6): 4, (4, 7): 5, (4, 8): 6,
    (4, 9): 5, (4, 10): 4, (4, 11): 3, (4, 12): 2, (4, 13): 1, (4, 14): 1,
    (4, 15): 1, (5, 5): 1, (5, 6): 4, (5, 7): 8, (5, 8): 14, (5, 9): 23,
    (5, 10): 31, (5, 11): 33, (5, 12): 28, (5, 13): 21, (5, 14): 11, (5, 15): 6,
    (5, 16): 3, (5, 17): 1, (6, 6): 1, (6, 7): 5, (6, 8): 14, (6, 9): 33,
    (6, 10): 54, (6, 11): 72, (6, 12): 89, (6, 13): 51, (6, 14): 29, (6, 15): 13,
    (6, 16): 4, (6, 17): 2, (6, 18): 1,
}

ORDERLY_STATS = {"nodes": 598, "kept": 598, "pruned_uniformity": 7117,
                 "pruned_canonical": 5843}


class Orderly:
    """Orderly generation of the simple binary (2,3)-uniform matroids of rank
    at most 6, with no connectivity filter; the input is fixed."""

    name = "orderly"
    must_run = ("search.enumerate_kl_uniform", "iso.is_canonical_point_set")

    def ops(self, mk, seed):
        return ["orderly"]

    def run(self, mk, op):
        return mk.search.enumerate_kl_uniform(mk.search.SearchConfig(r=6, k=2, l=3))

    def gate(self, mk, op, report):
        errors = []
        if len(report.representatives) != 598:
            errors.append(f"{len(report.representatives)} classes, not 598")
        if report.counts != ORDERLY_COUNTS:
            errors.append("(rank, size) counts differ from the frozen counts")
        if report.stats != ORDERLY_STATS:
            errors.append(f"search stats {report.stats} != {ORDERLY_STATS}")
        return errors


# ---- queries

PAIRS = tuple((k, l) for k in range(1, 6) for l in range(1, 7 - k))

# W4 as a graph: hub 0, rim 1-2-3-4; labels 1..8 in edge order, as the
# catalog's MW4 has them
W4_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
W4_LABELS = tuple(str(i + 1) for i in range(8))
W4_TABLE = gf2_rank_table([(1 << u) | (1 << v) for u, v in W4_EDGES])

RANDOM_PER_CELL = {2: 18, 3: 9}  # matrices per (rank, size) cell, by field


@dataclass(frozen=True)
class QuerySpec:
    """One matroid to question: a random GF(q) matrix (`rows`) or a catalog
    member (`catalog`, `dual`).  Binary ones carry their GF(2) columns
    (`ref_cols`) and a relabelled copy (`copy_rows`) for the isomorphism
    query; `minor` asks for an M(W4) minor."""

    name: str
    q: int | None = None
    rows: tuple | None = None
    catalog: str | None = None
    dual: bool = False
    ref_cols: tuple | None = None
    copy_rows: tuple | None = None
    minor: bool = False


@dataclass
class QueryOutput:
    labels: tuple
    verdicts: dict  # (k, l) -> (flats, minor, dual flats)
    circuits_22: bool
    iso: dict | None
    copy_labels: tuple | None
    minor_witness: tuple | None


def _full_rank_matrix(rng, q, r, n):
    while True:
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(r))
        if rank_mod_p(list(zip(*rows)), q, r) == r:
            return rows


def _seeded_copy(rng, cols, r):
    """GF(2) rows of a copy of the columns: an invertible row operation
    applied, then the columns permuted."""
    while True:
        a = [rng.getrandbits(r) for _ in range(r)]  # row i of A as a bit mask
        if rank_mod_p([tuple(x >> j & 1 for j in range(r)) for x in a], 2, r) == r:
            break
    new_cols = []
    for c in cols:
        v = 0
        for i in range(r):
            v |= ((a[i] & c).bit_count() & 1) << i
        new_cols.append(v)
    rng.shuffle(new_cols)
    return tuple(tuple(c >> i & 1 for c in new_cols) for i in range(r))


def _binary_spec(rng, name, cols, nrows, rank, **kw):
    return QuerySpec(name, ref_cols=tuple(cols),
                     copy_rows=_seeded_copy(rng, cols, nrows),
                     minor=len(cols) >= 8 and rank >= 4, **kw)


class Queries:
    """Decider, isomorphism and minor queries on a seeded corpus of random
    GF(2)/GF(3) matrices plus the catalog matroids and their duals."""

    name = "queries"
    must_run = ("uniformity.is_kl_uniform_flats", "uniformity.is_kl_uniform_minor",
                "uniformity.is_22_uniform_circuits", "iso.are_isomorphic",
                "iso.has_minor", "iso.fingerprint", "matroid.circuits",
                "matroid.dual", "matroid.flats_of_rank", "gf.rref",
                "gf.rank_of_columns", "catalog.named",
                "matroid.rank_oracle.gf2", "matroid.rank_oracle.gf3",
                "matroid.rank_oracle.graphic", "matroid.rank_oracle.graft",
                "matroid.rank_oracle.table")

    def ops(self, mk, seed):
        rng = random.Random(seed)
        specs = []
        for q, per_cell in RANDOM_PER_CELL.items():
            for r in range(1, 6):
                for n in range(r, 11):
                    for i in range(per_cell):
                        rows = _full_rank_matrix(rng, q, r, n)
                        name = f"gf{q}:{r}x{n}#{i}"
                        if q == 2:
                            specs.append(_binary_spec(rng, name, columns_as_ints(rows),
                                                      r, r, q=q, rows=rows))
                        else:
                            specs.append(QuerySpec(name, q=q, rows=rows))
        for cname in mk.catalog.NAMED_ORDER:
            for dual in (False, True):
                m = self.build(mk, QuerySpec(cname, catalog=cname, dual=dual))
                mat = mk.iso.binary_representation(m)
                cols = columns_as_ints(mat.rows)
                if bytes(gf2_rank_table(cols)) != mk.matroid.full_rank_table(m):
                    raise RuntimeError(f"catalog {cname}: binary matrix does not match")
                specs.append(_binary_spec(rng, cname + "*" * dual, cols, mat.nrows,
                                          m.rank(), catalog=cname, dual=dual))
        return specs

    @staticmethod
    def build(mk, spec):
        if spec.catalog is not None:
            m = mk.catalog.named(spec.catalog)
            return m.dual() if spec.dual else m
        return mk.matroid.from_matrix(mk.gf.GFMatrix(spec.q, spec.rows))

    def run(self, mk, spec):
        unif, iso = mk.uniformity, mk.iso
        m = self.build(mk, spec)
        md = m.dual()
        verdicts = {}
        for k, l in PAIRS:
            verdicts[k, l] = (unif.is_kl_uniform_flats(m, k, l)[0],
                              unif.is_kl_uniform_minor(m, k, l)[0],
                              unif.is_kl_uniform_flats(md, l, k)[0])
        circuits_22 = unif.is_22_uniform_circuits(m)
        mapping = copy_labels = witness = None
        if spec.copy_rows is not None:
            copy = mk.matroid.from_matrix(mk.gf.GFMatrix(2, spec.copy_rows))
            mapping = iso.are_isomorphic(m, copy)
            copy_labels = copy.labels
        if spec.minor:
            witness = iso.has_minor(m, mk.catalog.named("MW4"))
        return QueryOutput(m.labels, verdicts, circuits_22, mapping, copy_labels, witness)

    def gate(self, mk, spec, out):
        errors = []
        for (k, l), (flats, minor, dual) in out.verdicts.items():
            if not flats == minor == dual:
                errors.append(f"({k},{l}): flats {flats}, minor {minor}, dual {dual}")
        if out.circuits_22 != out.verdicts[2, 2][0]:
            errors.append("circuit-pair verdict differs from flats at (2,2)")
        if spec.ref_cols is None:
            return errors
        table = gf2_rank_table(list(spec.ref_cols))
        copy_table = gf2_rank_table(columns_as_ints(spec.copy_rows))
        errors += [f"isomorphism: {e}" for e in
                   check_bijection(out.iso, out.labels, table, out.copy_labels, copy_table)]
        if out.minor_witness is not None:
            errors += [f"M(W4) witness: {e}" for e in
                       self._check_witness(mk, spec, out.labels, table, out.minor_witness)]
        return errors

    def _check_witness(self, mk, spec, labels, table, witness):
        con, dele = witness
        full = (1 << len(labels)) - 1
        keep = full ^ con ^ dele
        if con & dele or (con | dele) & ~full or keep.bit_count() != 8:
            return ["contract and delete sets do not leave 8 elements"]
        minor = self.build(mk, spec).minor(contract=con, delete=dele)
        mapping = mk.iso.are_isomorphic(minor, mk.catalog.named("MW4"))
        kept = [i for i in range(len(labels)) if keep >> i & 1]
        rc = table[con]
        minor_table = bytearray(1 << 8)
        for mask in range(1 << 8):
            big = con
            for pos, i in enumerate(kept):
                if mask >> pos & 1:
                    big |= 1 << i
            minor_table[mask] = table[big] - rc
        return check_bijection(mapping, tuple(labels[i] for i in kept), minor_table,
                               W4_LABELS, W4_TABLE)


WORKLOADS = {w.name: w for w in (Census(), Orderly(), Queries())}
