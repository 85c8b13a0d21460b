"""Signatures, grid evaluation, gates, placements, matrix identities."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    EdgeSelector,
    GadgetGraph,
    MultiGraph,
    PreconditionError,
    Signature,
    ad_grid,
    ad_signature,
    build_h3,
    count_assignments,
    count_extensions,
    decompose_domain_invariant,
    eigenvalues_ab,
    equality_signature,
    eval_grid,
    extension_matrix,
    gate_signature,
    make_grid,
    matrix_identity,
    matrix_mul,
    matrix_ones,
    matrix_power,
    place_binary_on_edges,
    signature_from_matrix,
)

from corpus import bundle, complete, cycle, path, prism
from oracles import oracle_count_colorings, random_multigraph


# ---------------------------------------------------------------------------
# signatures


def test_signature_table_length_checked():
    with pytest.raises(ValueError, match="expected 9"):
        Signature(2, 3, [1] * 8)


def test_signature_symmetry_detection_and_claim():
    asym = Signature(2, 2, [0, 1, 2, 3])
    assert not asym.symmetric
    with pytest.raises(ValueError, match="declared symmetric"):
        Signature(2, 2, [0, 1, 2, 3], symmetric=True)
    sym = Signature(2, 2, [5, 1, 1, 7])
    assert sym.symmetric


def test_signature_value_indexing():
    s = Signature(2, 3, list(range(9)))
    assert s.value((1, 2)) == 5
    assert s.matrix()[1][2] == 5
    with pytest.raises(ValueError, match="length"):
        s.value((1,))


def test_matrix_form_needs_arity_two():
    with pytest.raises(PreconditionError, match="arity 2"):
        ad_signature(3, 3).matrix()


def test_ad_signature_values():
    s = ad_signature(2, 3)
    for c1 in range(3):
        for c2 in range(3):
            assert s.value((c1, c2)) == (1 if c1 != c2 else 0)
    assert ad_signature(4, 3).is_zero()
    assert ad_signature(0, 3).values == (1,)


def test_equality_signature_values():
    s = equality_signature(3, 2)
    assert s.value((1, 1, 1)) == 1
    assert s.value((1, 0, 1)) == 0
    assert equality_signature(1, 4).values == (1, 1, 1, 1)


def test_signature_from_matrix_round_trip():
    m = ((1, 2), (2, 5))
    assert signature_from_matrix(m).matrix() == m
    with pytest.raises(ValueError, match="square"):
        signature_from_matrix(((1, 2, 3), (4, 5, 6)))


# ---------------------------------------------------------------------------
# grids and evaluation


def test_make_grid_validation():
    g = path(1)
    one = equality_signature(1, 2)
    with pytest.raises(ValueError, match="one signature per vertex"):
        make_grid(g, [one])
    with pytest.raises(ValueError, match="arity"):
        make_grid(g, [one, equality_signature(2, 2)])
    with pytest.raises(ValueError, match="domain size"):
        make_grid(g, [one, equality_signature(1, 3)])
    with pytest.raises(ValueError, match="not a permutation"):
        make_grid(cycle(3), [ad_signature(2, 2)] * 3, [(0, 1), (0, 1), (1, 2)])


def test_ad_grid_holant_is_the_coloring_count():
    rng = random.Random(44)
    for _ in range(60):
        vc, edges = random_multigraph(rng, rng.randint(2, 7), rng.randint(0, 8))
        kappa = rng.randint(1, 4)
        g = MultiGraph(vc, edges)
        assert eval_grid(ad_grid(g, kappa)) == count_assignments(g, kappa), (
            edges,
            kappa,
        )


def test_eval_grid_handles_disconnected_and_scalar_parts():
    g = MultiGraph(5, [(0, 1), (2, 3)])
    assert eval_grid(ad_grid(g, 3)) == 9
    assert eval_grid(ad_grid(MultiGraph(2, []), 3)) == 1
    assert eval_grid(ad_grid(MultiGraph(0, []), 3)) == 1


def test_eval_grid_zero_scalar_short_circuits():
    # an isolated vertex carrying a zero scalar kills the product
    g = MultiGraph(3, [(0, 1)])
    sigs = [ad_signature(1, 2), ad_signature(1, 2), Signature(0, 2, [0])]
    assert eval_grid(make_grid(g, sigs)) == 0


def test_eval_grid_equality_vertices_count_consistent_orientations():
    # equality at every vertex of a cycle forces one color around it
    for n in (3, 4, 5):
        g = cycle(n)
        sigs = [equality_signature(2, 3)] * n
        assert eval_grid(make_grid(g, sigs)) == 3


def test_eval_grid_matches_enumeration_on_general_signatures():
    rng = random.Random(4040)
    for _ in range(40):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        g = MultiGraph(vc, edges)
        kappa = rng.randint(1, 3)
        sigs = [
            Signature(
                d, kappa, [rng.randint(0, 3) for _ in range(kappa**d)]
            )
            for d in g.degrees()
        ]
        grid = make_grid(g, sigs)
        # direct summation over all edge assignments
        expected = 0
        for idx in range(kappa ** len(edges)):
            assignment = []
            x = idx
            for _ in range(len(edges)):
                assignment.append(x % kappa)
                x //= kappa
            product = 1
            for v in range(vc):
                inputs = [assignment[e] for e in grid.incidences[v]]
                product *= sigs[v].value(inputs)
                if product == 0:
                    break
            expected += product
        assert eval_grid(grid) == expected


# ---------------------------------------------------------------------------
# gates


def test_gate_signature_matches_extension_matrix():
    h3 = build_h3().gadget
    for kappa in (3, 4):
        gate = gate_signature(h3, None, kappa)
        assert gate.matrix() == extension_matrix(h3, kappa)


def test_gate_signature_three_danglers_matches_extension_counts():
    g = GadgetGraph(MultiGraph(3, [(0, 1), (1, 2)]), (0, 1, 2))
    kappa = 3
    gate = gate_signature(g, None, kappa)
    for c1 in range(kappa):
        for c2 in range(kappa):
            for c3 in range(kappa):
                assert gate.value((c1, c2, c3)) == count_extensions(
                    g, kappa, (c1, c2, c3)
                )


def test_gate_signature_unary_contraction_identity():
    # attaching a free unary to one dangler of AD_n gives (kappa-n+1) AD_{n-1}
    kappa = 4
    for arity in (2, 3):
        g = GadgetGraph(MultiGraph(1, []), (0,) * arity)
        gate = gate_signature(g, [ad_signature(arity, kappa)], kappa)
        reduced = GadgetGraph(MultiGraph(1, []), (0,) * (arity - 1))
        reduced_gate = gate_signature(reduced, [ad_signature(arity - 1, kappa)], kappa)
        # summing out one input of the all-distinct gate
        for idx in range(kappa ** (arity - 1)):
            prefix = []
            x = idx
            for _ in range(arity - 1):
                prefix.append(x % kappa)
                x //= kappa
            total = sum(gate.value(tuple(prefix) + (c,)) for c in range(kappa))
            assert total == (kappa - arity + 1) * reduced_gate.value(tuple(prefix))


def test_gate_signature_arity_validation():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 1))
    with pytest.raises(ValueError, match="arity"):
        gate_signature(g, [ad_signature(3, 3), ad_signature(2, 3)], 3)


@pytest.mark.parametrize("dangling", [(), (0,)])
def test_gate_signature_rejects_a_foreign_domain(dangling):
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), dangling)
    sigs = [ad_signature(g.degree(v), 3) for v in range(2)]
    with pytest.raises(ValueError, match="domain size 3"):
        gate_signature(g, sigs, 4)
    with pytest.raises(ValueError, match="domain size 4"):
        gate_signature(g, [sigs[0], ad_signature(g.degree(1), 4)], 3)


def _gate_by_enumeration(g, sigs, kappa):
    """Gate table by direct summation. A vertex's inputs are its base edges
    in index order, then its danglers in dangling order."""
    m = len(g.edges)
    inputs = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        inputs[u].append(e)
        inputs[v].append(e)
    for j, v in enumerate(g.dangling):
        inputs[v].append(m + j)
    d = len(g.dangling)
    table = []
    for boundary in itertools.product(range(kappa), repeat=d):
        total = 0
        for internal in itertools.product(range(kappa), repeat=m):
            colors = internal + boundary
            product = 1
            for v, sig in enumerate(sigs):
                product *= sig.value([colors[e] for e in inputs[v]])
            total += product
        table.append(total)
    return table


def test_gate_signature_matches_enumeration_on_generic_signatures():
    rng = random.Random(5050)
    seen = set()
    for _ in range(80):
        vc = rng.randint(1, 5)
        _, edges = random_multigraph(rng, vc, rng.randint(0, 4) if vc > 1 else 0)
        dangling = tuple(rng.randrange(vc) for _ in range(rng.randint(0, 3)))
        g = GadgetGraph(MultiGraph(vc, edges), dangling)
        kappa = rng.randint(1, 3)
        sigs = [
            Signature(d, kappa, [rng.choice((0, 0, 1, 2, 3)) for _ in range(kappa**d)])
            for d in g.degrees()
        ]
        assert list(gate_signature(g, sigs, kappa).values) == _gate_by_enumeration(
            g, sigs, kappa
        ), (vc, edges, dangling, kappa)
        seen.add(("danglers", len(dangling)))
        if len(set(dangling)) < len(dangling):
            seen.add("shared attachment")
        if 0 in g.degrees():
            seen.add("isolated vertex")
        if not g.base.is_connected():
            seen.add("disconnected base")
    # the seeded cases reach every shape the test is meant to cover
    assert seen >= {("danglers", d) for d in range(4)} | {
        "shared attachment", "isolated vertex", "disconnected base"
    }


# ---------------------------------------------------------------------------
# placement


def test_place_identity_matrix_is_a_subdivision_no_op():
    rng = random.Random(77)
    for _ in range(25):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        g = MultiGraph(vc, edges)
        kappa = rng.randint(2, 4)
        grid = ad_grid(g, kappa)
        placed = place_binary_on_edges(
            grid, EdgeSelector.all_edges(), signature_from_matrix(matrix_identity(kappa))
        )
        assert eval_grid(placed) == count_assignments(g, kappa)


def test_place_gadget_matrix_equals_physical_replacement():
    from edgecolorkit import replace_edges

    h3 = build_h3()
    g = bundle(3)
    kappa = 4
    sig = signature_from_matrix(extension_matrix(h3.gadget, kappa))
    placed = place_binary_on_edges(ad_grid(g, kappa), EdgeSelector.all_edges(), sig)
    expanded, _ = replace_edges(g, h3.gadget, EdgeSelector.all_edges())
    assert eval_grid(placed) == count_assignments(expanded, kappa)


def test_place_empty_selection_returns_grid_unchanged():
    grid = ad_grid(prism(), 3)
    placed = place_binary_on_edges(
        grid, EdgeSelector.parallel_only(), signature_from_matrix(matrix_identity(3))
    )
    assert placed is grid


def test_place_rejects_asymmetric_or_mismatched_signatures():
    grid = ad_grid(bundle(2), 3)
    with pytest.raises(PreconditionError, match="symmetric"):
        place_binary_on_edges(
            grid,
            EdgeSelector.all_edges(),
            signature_from_matrix(((0, 1, 0), (0, 0, 1), (1, 0, 0))),
        )
    with pytest.raises(PreconditionError, match="domain size"):
        place_binary_on_edges(
            grid, EdgeSelector.all_edges(), signature_from_matrix(matrix_identity(2))
        )
    with pytest.raises(PreconditionError, match="binary"):
        place_binary_on_edges(grid, EdgeSelector.all_edges(), ad_signature(3, 3))


# ---------------------------------------------------------------------------
# matrix helpers and the domain-invariant decomposition


def test_matrix_power_ladder():
    m = ((1, 2), (3, 4))
    assert matrix_power(m, 0) == matrix_identity(2)
    assert matrix_power(m, 1) == m
    assert matrix_power(m, 3) == matrix_mul(m, matrix_mul(m, m))
    with pytest.raises(ValueError):
        matrix_power(m, -1)


def test_j_minus_i_power_identity():
    # (J-I)^s = (-1)^s I + c J with c = ((kappa-1)^s - (-1)^s) / kappa
    for kappa in range(3, 7):
        j = matrix_ones(kappa)
        i = matrix_identity(kappa)
        j_minus_i = tuple(
            tuple(j[r][c] - i[r][c] for c in range(kappa)) for r in range(kappa)
        )
        for s in range(7):
            sign = (-1) ** s
            c, rem = divmod((kappa - 1) ** s - sign, kappa)
            assert rem == 0
            expected = tuple(
                tuple(sign * i[r][col] + c for col in range(kappa))
                for r in range(kappa)
            )
            assert matrix_power(j_minus_i, s) == expected


def test_eigenvalues_by_direct_matrix_vector_products():
    rng = random.Random(2)
    for _ in range(100):
        kappa = rng.randint(2, 6)
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        lam1, lam2 = eigenvalues_ab(a, b, kappa)
        matrix = tuple(
            tuple(a if r == c else b for c in range(kappa)) for r in range(kappa)
        )
        ones = [1] * kappa
        product = [sum(row[c] * ones[c] for c in range(kappa)) for row in matrix]
        assert product == [lam1] * kappa
        for pos in range(kappa - 1):
            vec = [0] * kappa
            vec[pos] = 1
            vec[pos + 1] = -1
            product = [sum(row[c] * vec[c] for c in range(kappa)) for row in matrix]
            assert product == [lam2 * x for x in vec]


def test_decompose_domain_invariant_cases():
    assert decompose_domain_invariant(((5, 2), (2, 5))) == (5, 2)
    assert decompose_domain_invariant(((0, 0), (0, 0))) == (0, 0)
    assert decompose_domain_invariant(((1, 2), (3, 1))) is None
    assert decompose_domain_invariant(((1, 2), (2, 4))) is None
    sig = signature_from_matrix(((7, 0, 0), (0, 7, 0), (0, 0, 7)))
    assert decompose_domain_invariant(sig) == (7, 0)
    with pytest.raises(PreconditionError, match="domain size >= 2"):
        decompose_domain_invariant(((3,),))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_decompose_round_trips_constructed_matrices(kappa, a, b):
    matrix = tuple(
        tuple(a if r == c else b for c in range(kappa)) for r in range(kappa)
    )
    assert decompose_domain_invariant(matrix) == (a, b)
