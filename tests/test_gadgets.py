"""Gadget builders, key-property verification, chaining, derivation."""

import math

import pytest

from edgecolorkit import gadgets
from edgecolorkit import (
    GadgetError,
    GadgetGraph,
    GadgetSpec,
    MultiGraph,
    ParseError,
    PreconditionError,
    WitnessColoring,
    build_f_nonplanar,
    build_h3,
    build_h4,
    build_h5_icosahedron,
    build_h_star,
    build_matchings,
    chain_graph,
    check_witness,
    derive_distinct_diagonal,
    icosahedron_graph,
    parse_gadget_name,
    verify_key_property,
)
from edgecolorkit.counting import decompose_extension
from edgecolorkit.gadgets import _derived_gadget

from corpus import c4_gadget, petersen_open_spec
from oracles import matrix_power, signature_matrix


# ---------------------------------------------------------------------------
# spec validation


def test_spec_requires_two_danglers():
    base = MultiGraph(2, [(0, 1)])
    with pytest.raises(GadgetError, match="expected 2 dangling"):
        GadgetSpec("bad", 2, True, GadgetGraph(base, (0,)))


def test_spec_requires_regularity_counting_danglers():
    base = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(GadgetError, match="not 3-regular"):
        GadgetSpec("bad", 3, True, GadgetGraph(base, (0, 2)))


def test_spec_requires_simple_connected_base():
    doubled = MultiGraph(2, [(0, 1), (0, 1)])
    with pytest.raises(GadgetError, match="parallel edges"):
        GadgetSpec("bad", 3, True, GadgetGraph(doubled, (0, 1)))
    split = MultiGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(GadgetError, match="disconnected"):
        GadgetSpec("bad", 2, True, GadgetGraph(split, (3, 4)))


def test_gadget_error_is_a_precondition_refusal():
    # the CLI's one PreconditionError handler gives it exit 3
    assert issubclass(GadgetError, PreconditionError)


# ---------------------------------------------------------------------------
# fixed builders


def test_h3_topology_and_matrix():
    spec = build_h3()
    g = spec.gadget
    assert g.vertex_count == 4
    assert len(g.base.edges) == 5
    assert g.is_regular(3)
    report = verify_key_property(spec, 3)
    assert report.holds and report.c == 2
    assert report.matrix == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_h3_off_palette_decompositions():
    g = build_h3().gadget
    assert decompose_extension(g, 4) == (24, 16)
    assert decompose_extension(g, 5) == (156, 150)
    # the diagonal can fall below the off-diagonal
    assert decompose_extension(g, 6) == (680, 696)


def test_h4_topology_and_matrix():
    spec = build_h4()
    g = spec.gadget
    assert g.vertex_count == 6
    assert len(g.base.edges) == 11
    assert g.is_regular(4)
    report = verify_key_property(spec, 4)
    assert report.holds and report.c == 12
    assert report.matrix == tuple(
        tuple(12 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert decompose_extension(g, 5) == (2352, 1908)


def test_h4_fails_below_native_palette():
    report = verify_key_property(build_h4(), 3)
    assert not report.holds
    assert report.a == 0 and report.b == 0


def test_one_color_has_no_signature_to_check():
    # one color has no off-diagonal entry, so there is no (a, b) to read
    with pytest.raises(PreconditionError, match="at least 2 colors"):
        verify_key_property(build_h3(), 1)
    with pytest.raises(PreconditionError, match="at least 2 colors"):
        derive_distinct_diagonal(c4_gadget(), 1)


def test_icosahedron_structure():
    g = icosahedron_graph()
    assert g.vertex_count == 12
    assert len(g.edges) == 30
    assert g.is_regular(5)
    assert g.is_simple()
    # every neighborhood induces a 5-cycle
    for v in range(12):
        neighbors = sorted(
            b if a == v else a for a, b in g.edges if v in (a, b)
        )
        assert len(neighbors) == 5
        induced = [
            e for e in g.edges if e[0] in neighbors and e[1] in neighbors
        ]
        assert len(induced) == 5
        degree_in = {w: 0 for w in neighbors}
        for a, b in induced:
            degree_in[a] += 1
            degree_in[b] += 1
        # 5 simple edges with every degree 2 on 5 vertices is exactly a 5-cycle
        assert all(d == 2 for d in degree_in.values())


def test_h5_is_icosahedron_minus_one_edge():
    spec = build_h5_icosahedron()
    assert spec.gadget.vertex_count == 12
    assert len(spec.gadget.base.edges) == 29
    assert spec.gadget.dangling == (0, 1)
    assert spec.gadget.is_regular(5)
    closed = sorted(spec.gadget.base.edges + ((0, 1),))
    assert closed == sorted(icosahedron_graph().edges)


def test_key_property_failure_report_shape():
    report = verify_key_property(petersen_open_spec(), 3)
    assert not report.holds
    assert (report.a, report.b, report.c) == (0, 0, 0)
    assert all(v == 0 for row in report.matrix for v in row)


# ---------------------------------------------------------------------------
# matchings union


def _assert_perfect_matching(matching, n):
    covered = [0] * n
    for u, v in matching:
        covered[u] += 1
        covered[v] += 1
    assert all(c == 1 for c in covered)


@pytest.mark.parametrize("kappa, n", [(3, 6), (4, 8), (3, 12), (4, 16), (5, 20)])
def test_matchings_are_disjoint_perfect_matchings(kappa, n):
    matchings = build_matchings(kappa, n)
    assert len(matchings) == kappa
    seen = set()
    for matching in matchings:
        _assert_perfect_matching(matching, n)
        for u, v in matching:
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen.add(key)
    assert len(seen) == kappa * n // 2


def test_matchings_default_size_is_kappa_factorial():
    matchings = build_matchings(3)
    assert len(matchings) == 3
    _assert_perfect_matching(matchings[0], math.factorial(3))


@pytest.mark.parametrize(
    "kappa, n, fragment",
    [
        (0, None, "kappa must be positive"),
        (3, 5, "must be even"),
        (4, 6, "not divisible"),
        (4, 4, "n/2 >= kappa"),
        (3, -2, "must be even and positive"),
    ],
)
def test_matchings_preconditions(kappa, n, fragment):
    with pytest.raises(PreconditionError, match=fragment):
        build_matchings(kappa, n)


@pytest.mark.parametrize("kappa, n", [(10, None), (3, 10**6 + 2), (4, 10**6 + 4)])
def test_matchings_refuse_more_vertices_than_the_cap(kappa, n):
    with pytest.raises(PreconditionError, match="exceeds the cap of 1000000 vertices"):
        build_matchings(kappa, n)


@pytest.mark.parametrize("kappa, n", [(9, None), (20, 997920)])
def test_matchings_refuse_more_edges_than_the_cap(kappa, n):
    with pytest.raises(PreconditionError, match="exceeds the cap of 1000000 edges"):
        build_matchings(kappa, n)


def test_h_star_structure_and_key_property():
    spec = build_h_star(3, 6)
    assert spec.name == "hstar:3:6"
    assert spec.gadget.vertex_count == 6
    assert len(spec.gadget.base.edges) == 8
    assert spec.gadget.dangling == (0, 1)
    assert spec.gadget.is_regular(3)
    report = verify_key_property(spec, 3)
    assert report.holds and report.c == 4


def test_h_star_default_size():
    spec = build_h_star(4)
    assert spec.name == "hstar:4:24"
    assert spec.gadget.vertex_count == 24
    assert len(spec.gadget.base.edges) == 47


# ---------------------------------------------------------------------------
# witnesses


def test_check_witness_accepts_and_rejects():
    spec = build_h3()
    good = WitnessColoring((1, 2, 2, 1, 0), (0, 0))
    assert check_witness(spec.gadget, 3, good)
    assert not check_witness(spec.gadget, 3, WitnessColoring((1, 2, 2, 1), (0, 0)))
    assert not check_witness(spec.gadget, 3, WitnessColoring((1, 2, 2, 1, 0), (0,)))
    assert not check_witness(spec.gadget, 3, WitnessColoring((1, 2, 2, 1, 3), (0, 0)))
    # repeated color at vertex 2 (edges 0 and 2 meet there)
    assert not check_witness(spec.gadget, 3, WitnessColoring((1, 2, 1, 1, 0), (0, 0)))


@pytest.mark.parametrize("kappa, r", [(4, 3), (5, 3), (5, 4), (6, 5)])
def test_f_nonplanar_structure_and_witness(kappa, r):
    spec, witness = build_f_nonplanar(kappa, r)
    g = spec.gadget
    assert g.vertex_count == 2 * r
    assert g.is_regular(r)
    assert g.is_simple()
    assert g.base.is_connected()
    assert witness.boundary == (0, 0)
    assert check_witness(g, kappa, witness)
    assert check_witness(g, r, witness)


def test_f_nonplanar_pinned_decompositions():
    assert decompose_extension(build_f_nonplanar(4, 3)[0].gadget, 4) == (264, 200)
    assert decompose_extension(build_f_nonplanar(5, 3)[0].gadget, 5) == (5496, 5052)
    assert decompose_extension(build_f_nonplanar(5, 4)[0].gadget, 5) == (118080, 85680)


def test_f_nonplanar_preconditions():
    with pytest.raises(PreconditionError, match="kappa > r"):
        build_f_nonplanar(3, 3)
    with pytest.raises(PreconditionError, match=">= 3"):
        build_f_nonplanar(4, 2)


def test_f_nonplanar_refuses_more_edges_than_the_cap(monkeypatch):
    # r = 1001 would have 1,002,000 edges; r = 1000, with 999,999, is allowed
    with pytest.raises(PreconditionError, match="r\\^2-1=1002000 exceeds the cap of 1000000"):
        build_f_nonplanar(1002, 1001)
    # the same boundary at a cap small enough to build up to: r^2 - 1 = 15
    monkeypatch.setattr(gadgets, "MAX_VERTICES", 15)
    assert len(build_f_nonplanar(5, 4)[0].gadget.base.edges) == 15
    with pytest.raises(PreconditionError, match="r\\^2-1=24 exceeds the cap of 15 edges"):
        build_f_nonplanar(6, 5)


# ---------------------------------------------------------------------------
# chaining


def test_chain_graph_layout():
    h3 = build_h3().gadget
    chain = chain_graph(h3, 3)
    assert chain.vertex_count == 12
    assert len(chain.base.edges) == 3 * 5 + 2
    assert chain.dangling == (0, 2 * 4 + 1)
    assert chain.base.is_connected()


def test_chain_graph_validation():
    h3 = build_h3().gadget
    with pytest.raises(PreconditionError, match="at least 1"):
        chain_graph(h3, 0)
    with pytest.raises(PreconditionError, match="exactly 2"):
        chain_graph(GadgetGraph(MultiGraph(1, []), (0,)), 2)


def test_chain_matrix_is_the_matrix_power():
    h3 = build_h3().gadget
    for kappa in (3, 4):
        m = signature_matrix(*decompose_extension(h3, kappa), kappa)
        for n in (1, 2, 3):
            chained = chain_graph(h3, n)
            assert signature_matrix(*decompose_extension(chained, kappa), kappa) == (
                matrix_power(m, n)
            )


# ---------------------------------------------------------------------------
# distinct-diagonal derivation


def test_derive_fixes_the_equal_case():
    c4 = c4_gadget()
    assert decompose_extension(c4, 3) == (2, 2)
    derived = derive_distinct_diagonal(c4, 3)
    assert isinstance(derived, GadgetGraph)
    assert derived.vertex_count == 12
    assert len(derived.base.edges) == 14
    assert derived.dangling == c4.dangling
    assert decompose_extension(derived, 3) == (48, 72)


def test_derive_refuses_when_not_needed():
    with pytest.raises(PreconditionError, match="not needed: a=24 differs from b=16"):
        derive_distinct_diagonal(build_h3().gadget, 4)


def test_derive_refuses_identically_zero():
    with pytest.raises(PreconditionError, match="identically zero"):
        derive_distinct_diagonal(petersen_open_spec().gadget, 3)


def test_derive_requires_two_danglers_and_connectivity():
    with pytest.raises(PreconditionError, match="exactly 2 dangling"):
        derive_distinct_diagonal(GadgetGraph(MultiGraph(1, []), (0,)), 3)
    split = GadgetGraph(MultiGraph(4, [(0, 1), (2, 3)]), (0, 3))
    with pytest.raises(PreconditionError, match="disconnected"):
        derive_distinct_diagonal(split, 3)


# ---------------------------------------------------------------------------
# planarity claims


def _planar_with_danglers_on_one_face(g):
    """Whether g stays planar once a new vertex is joined to both dangler
    attachments, which holds iff g has a planar drawing with both on one
    face."""
    nx = pytest.importorskip("networkx")
    closed = nx.MultiGraph(list(g.base.edges))
    closed.add_nodes_from(range(g.vertex_count))
    closed.add_edges_from((g.vertex_count, v) for v in g.dangling)
    return nx.check_planarity(closed)[0]


@pytest.mark.parametrize("name", ["h3", "h4", "h5"])
def test_planar_gadgets_chains_and_derivations_are_planar(name):
    spec = parse_gadget_name(name)
    # derive_distinct_diagonal refuses these gadgets (their a != b), so the
    # structure it would derive is built directly
    derived = _derived_gadget(spec.gadget)
    assert spec.planar_claimed
    for g in (spec.gadget, chain_graph(spec.gadget, 2), derived):
        assert _planar_with_danglers_on_one_face(g)


def test_planarity_check_rejects_a_nonplanar_gadget():
    spec = parse_gadget_name("fnp:4:3")
    assert not spec.planar_claimed
    assert not _planar_with_danglers_on_one_face(spec.gadget)


# ---------------------------------------------------------------------------
# name resolution


def test_parse_gadget_name_builders():
    assert parse_gadget_name("h3").name == "h3"
    assert parse_gadget_name("h4").name == "h4"
    assert parse_gadget_name("h5").name == "h5"
    assert parse_gadget_name("hstar:3").name == "hstar:3:6"
    assert parse_gadget_name("hstar:3:12").name == "hstar:3:12"
    assert parse_gadget_name("fnp:4:3").name == "fnp:4:3"


@pytest.mark.parametrize("name", ["h6", "h3:3", "hstar", "fnp:4", "fnp", ""])
def test_parse_gadget_name_unknown(name):
    with pytest.raises(ParseError, match="unknown gadget name"):
        parse_gadget_name(name)


def test_parse_gadget_name_bad_integer():
    with pytest.raises(ParseError, match="bad gadget name"):
        parse_gadget_name("hstar:x")


def test_parse_gadget_name_propagates_preconditions():
    with pytest.raises(PreconditionError, match="kappa > r"):
        parse_gadget_name("fnp:3:3")
    with pytest.raises(PreconditionError, match="must be even"):
        parse_gadget_name("hstar:3:5")
