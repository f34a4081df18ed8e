"""Frozen outputs: SHA-256 digests of everything the project promises not to
change when only its speed or its code size changes.

Each group is written out as one deterministic text (reprs in a fixed
order) and hashed.  A digest that moves means an output moved: a census
member, an orderly form, a decider's witness, a flat order, an isomorphism
map, a minor witness, a catalog export or a verify detail string.  The
`queries` corpus is the benchmark's own, read from `bench/workloads.py`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from matroidkit import catalog, gf, iso, matroid, search, uniformity

ROOT = Path(__file__).resolve().parents[1]

# A change that means to alter an output updates its digest here and says why.
DIGESTS = {
    "census": "85f8acaee1375564d6d94f48594b6ed9ca88496cdcc1be89b94342ac912f9063",
    "orderly": "f6a4c34b4199223f1e91e39bd8d5cced54989ad260b7d23e53d0f569288220bd",
    "queries-seed1": "50555328c1322664389227dba081fcf9e8eed83643628e02839dfdf628afa083",
    "queries-seed2": "a914fcdf99e68b83a493f63d8c8cb592258dd43a012546bdd618d57b1b3efaa7",
    "cor33-family": "fafd43d56fdf9995fceefded434a0cc7fc488349c3281edfafbbe8ed8335186d",
    "catalog": "74ad538219a09745e9a0387545c3c9e8fe6e064eebf6b5d840bce1c9eaa86b8c",
    "verify": "a2426ccc12c033e8070510951543b38aa71680a458245210e512a749860ccea2",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _report_lines(report, key=lambda m: None):
    yield sorted(report.counts.items())
    yield sorted(report.stats.items())
    yield report.forms, report.max_rank, report.f_value
    for m in report.representatives:
        yield m.name, m.labels, m.export_text(), key(m)


def _matroid_lines(m):
    yield m.labels, m.export_text()
    yield [m.flats_of_rank(k) for k in range(m.rank() + 1)]


def _query_lines(seed):
    w = _workloads()
    mk = SimpleNamespace(gf=gf, matroid=matroid, uniformity=uniformity, iso=iso,
                         catalog=catalog, search=search)
    queries = w.Queries()
    mw4 = catalog.named("MW4")
    for spec in queries.ops(mk, seed):
        m = queries.build(mk, spec)
        md = m.dual()
        yield spec.name
        for k, l in w.PAIRS:
            yield (k, l, uniformity.is_kl_uniform_flats(m, k, l),
                   uniformity.is_kl_uniform_minor(m, k, l),
                   uniformity.is_kl_uniform_flats(md, l, k))
        yield uniformity.is_22_uniform_circuits(m)
        if spec.copy_rows is not None:
            copy = matroid.from_matrix(gf.GFMatrix(2, spec.copy_rows))
            mapping = iso.are_isomorphic(m, copy)
            yield None if mapping is None else list(mapping.items())
        if spec.minor:
            yield iso.has_minor(m, mw4)
        yield from _matroid_lines(m)
        yield from _matroid_lines(md)


def _check(group, lines):
    got = _digest(lines)
    assert got == DIGESTS[group], f"{group}: digest {got} differs from the frozen one"


def test_census_is_frozen(census):
    _check("census", _report_lines(census, iso.iso_key))


def test_orderly_is_frozen():
    report = search.enumerate_kl_uniform(search.SearchConfig(r=6, k=2, l=3))
    _check("orderly", _report_lines(report))


@pytest.mark.parametrize("seed", [1, 2])
def test_queries_are_frozen(seed):
    _check(f"queries-seed{seed}", _query_lines(seed))


def test_cor33_family_is_frozen():
    _check("cor33-family", ((e.name, e.params, e.note, e.matroid.labels, e.matroid.export_text(),
                             iso.iso_key(e.matroid)) for e in catalog.cor33_family()))


def test_catalog_is_frozen():
    def lines():
        for e in catalog.entries():
            m = e.matroid
            yield e.name, m.labels, m.export_text(), m.dual().export_text(), iso.iso_key(m)
            yield iso.element_orbits(m)

    _check("catalog", lines())


def test_verify_details_are_frozen(fast_run):
    _check("verify", ((r.check_id, r.status, r.details) for r in fast_run))
