"""Catalog constructions: fixed matrices, grafts, spikes, geometries, and
the generated family of non-3-connected binary (2,2)-uniform matroids."""

from collections import Counter

import pytest

from matroidkit import catalog
from matroidkit.gf import GFMatrix, parse_matrix
from matroidkit.iso import are_isomorphic, binary_canonical_form, iso_key
from matroidkit.matroid import MatroidError, from_graph, from_matrix, graft_matroid
from matroidkit.uniformity import is_kl_uniform_flats


def iso(a, b):
    return are_isomorphic(a, b) is not None


def test_named_entries_pass_their_claims():
    es = catalog.entries()
    assert [e.name for e in es] == list(catalog.NAMED_ORDER)
    for e in es:
        assert e.matroid.name == e.name
        assert e.note


def test_named_unknown_name():
    with pytest.raises(MatroidError):
        catalog.named("F8")


def test_fano_is_the_rank3_spike():
    assert iso(catalog.named("F7"), catalog.spike(3))
    assert iso(catalog.named("F7*"), catalog.spike(3).dual())


def test_spike_labels_and_errors():
    z4 = catalog.spike(4)
    assert z4.labels == ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4", "t")
    assert z4.rank() == 4 and z4.n == 9
    assert catalog.spike_minus_tip(5).n == 10
    assert catalog.spike_minus_y(5).rank() == 5
    with pytest.raises(MatroidError):
        catalog.spike(2)


def test_s8_is_any_nontip_deletion_but_not_the_tipless_spike():
    s8 = catalog.named("S8")
    z4 = catalog.spike(4)
    assert iso(s8, z4.delete(z4.mask_of(("x1",))))
    assert iso(s8, z4.delete(z4.mask_of(("y2",))))
    assert not iso(s8, catalog.spike_minus_tip(4))


def test_p9_matrix_equals_graft_of_wheel():
    g = graft_matroid(5, catalog.W4_EDGES, (0, 1, 2, 3))
    assert iso(catalog.named("P9"), g)


def test_l10_matrix_equals_graft_of_k33():
    g = graft_matroid(6, catalog.K33_EDGES, (0, 1, 2, 3))
    assert iso(catalog.named("L10"), g)


def test_r10_is_the_all_marked_graft_and_self_dual():
    r10 = catalog.named("R10")
    assert (r10.rank(), r10.n) == (5, 10)
    assert iso(r10, r10.dual())
    p10, l10 = catalog.named("P10"), catalog.named("L10")
    assert not iso(r10, p10) and not iso(r10, l10) and not iso(p10, l10)


def test_l10_matrix_is_p10_rows_with_all_ones_last_row():
    p10 = parse_matrix(catalog.P10_MATRIX)
    l10 = parse_matrix(catalog.L10_MATRIX)
    assert l10.rows[:4] == p10.rows[:4]
    assert set(l10.rows[4]) == {1}


def test_mk33_matrix_is_graphic():
    assert iso(catalog.named("MK33"), from_graph(6, catalog.K33_EDGES))


def test_wheel_is_self_dual():
    mw4 = catalog.named("MW4")
    assert iso(mw4, mw4.dual())


def test_mw4_simple_extensions_are_exactly_three():
    mw4 = catalog.named("MW4")
    vals = [i + 1 for i in binary_canonical_form(mw4)]
    assert vals == [1, 2, 3, 4, 5, 8, 10, 12]
    classes = {}
    for v in range(1, 16):
        if v in vals:
            continue
        m = from_matrix(GFMatrix.from_point_values(vals + [v], 4))
        classes.setdefault(iso_key(m), []).append(v)
    assert len(classes) == 3
    by_points = {tuple(vs): from_matrix(GFMatrix.from_point_values(vals + [vs[0]], 4))
                 for vs in classes.values()}
    assert iso(by_points[(6, 9)], catalog.named("MK5e"))
    assert iso(by_points[(7, 11, 13, 14)], catalog.named("P9"))
    assert iso(by_points[(15,)], catalog.named("MK33*"))


def test_geometry_sizes_and_identities():
    assert iso(catalog.geometry("AG", 1), catalog.uniform(2, 2))
    assert iso(catalog.geometry("PG", 2), catalog.named("F7"))
    ag32 = catalog.geometry("AG", 3)
    assert (ag32.rank(), ag32.n) == (4, 8)
    assert catalog.geometry("PG", 4).n == 31
    assert catalog.geometry("AG", 4).n == 16
    with pytest.raises(MatroidError):
        catalog.geometry("PG", 6)
    with pytest.raises(MatroidError):
        catalog.geometry("EG", 2)


def test_rank3_flats_of_ag42_are_u34():
    ag42 = catalog.geometry("AG", 4)
    flats = ag42.flats_of_rank(3)
    assert len(flats) == 140
    u34 = catalog.uniform(3, 4)
    for f in flats[:5]:
        sub = ag42.delete(ag42.full_mask & ~f)
        assert sub.n == 4
        assert iso(sub, u34)


def test_uniform_errors():
    with pytest.raises(MatroidError):
        catalog.uniform(3, 2)
    assert catalog.uniform(0, 0).n == 0


def test_resolve_forms():
    assert catalog.resolve("U24").rank() == 2
    assert catalog.resolve("U(3,7)").n == 7
    assert catalog.resolve("P10*").rank() == 5
    assert iso(catalog.resolve("F7*"), catalog.named("F7").dual())
    assert catalog.resolve("Z5-t").n == 10
    assert catalog.resolve("Z4\\y").n == 8
    assert catalog.resolve("PG(3,2)").n == 15
    with pytest.raises(MatroidError):
        catalog.resolve("Q10")


def test_resolve_refuses_oversized_geometries_and_spikes_before_building():
    # counted before a point or column is listed: PG(63,2) listed 2^64 - 1
    # points (OverflowError), AG(40,2) 2^41 candidates (no end in sight), and
    # Z1000 built 2001 columns for GFMatrix to refuse (GFError)
    for text in ("PG(63,2)", "AG(40,2)", "AG(7,2)", "Z1000", "Z32", "Z32-t"):
        with pytest.raises(MatroidError, match="too many points|exceed the 64 cap"):
            catalog.resolve(text)
    assert catalog.resolve("AG(6,2)").n == 64 and catalog.resolve("Z31").n == 63


def test_entry_claims_are_checked():
    with pytest.raises(MatroidError):
        catalog.CatalogEntry("bad", {}, catalog.uniform(1, 2), "", rank=2, size=2)
    with pytest.raises(MatroidError):
        catalog.CatalogEntry("bad", {}, catalog.uniform(1, 2), "",
                             rank=1, size=2, simple=True)
    with pytest.raises(MatroidError, match="not binary"):
        catalog.CatalogEntry("bad", {}, catalog.uniform(2, 4), "", rank=2, size=4)


def test_cor33_family_counts():
    fam = catalog.cor33_family()
    assert len(fam) == 393
    by_item = Counter((e.params["item"], bool(e.params.get("dual"))) for e in fam)
    assert by_item == {
        ("i", False): 61, ("i", True): 57,
        ("ii", False): 97, ("ii", True): 86,
        ("iii", False): 37, ("iii", True): 27,
        ("iv", False): 8, ("iv", True): 4,
        ("v", False): 2, ("v", True): 2,
        ("vi", False): 2, ("vi", True): 2,
        ("vii", False): 4, ("vii", True): 4,
    }
    assert len({e.name for e in fam}) == len(fam)


def test_cor33_family_members_are_22_uniform_and_not_3connected():
    for e in catalog.cor33_family():
        assert is_kl_uniform_flats(e.matroid, 2, 2)[0], e.name
        assert not e.matroid.is_3connected(), e.name


def test_cor33_family_is_dual_closed_and_isomorph_free():
    fam = catalog.cor33_family()
    keys = {iso_key(e.matroid) for e in fam}
    assert len(keys) == len(fam)
    for e in fam:
        assert iso_key(e.matroid.dual()) in keys, e.name


def test_cor33_family_covers_free_matroids_via_duals():
    fam = catalog.cor33_family()
    assert any(iso(e.matroid, catalog.uniform(2, 2)) for e in fam)
    assert any(iso(e.matroid, catalog.uniform(3, 3)) for e in fam)
    assert any(e.name == "P(Z4,U23)\\t" for e in fam)
    assert any(e.name == "P(F7,U23)\\p" for e in fam)
