"""Counters against brute-force oracles, plus the partition machinery."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    GadgetGraph,
    MultiGraph,
    PreconditionError,
    build_h3,
    build_h4,
    count_assignments,
    count_by_matching_decomposition,
    count_extensions,
    enumerate_perfect_matchings,
    extension_matrix,
    is_uniquely_partition_colorable,
    parse_gadget_name,
    partition_spectrum,
    simplify_equal_case,
)
from edgecolorkit.counting import _best_plan, _greedy_order, _plan, decompose_extension

from corpus import (
    all_multigraphs,
    bundle,
    complete,
    complete_bipartite,
    cube,
    cycle,
    ladder_ring,
    path,
    petersen,
    prism,
    star,
)
from oracles import (
    oracle_count_colorings,
    oracle_count_extensions,
    oracle_count_extensions_pruned,
    oracle_partition_spectrum,
    random_multigraph,
    random_regular_multigraph,
)


# ---------------------------------------------------------------------------
# count_assignments


def test_hand_counts():
    assert count_assignments(bundle(3), 3) == 6
    assert count_assignments(bundle(3), 4) == 24
    assert count_assignments(bundle(3), 5) == 60
    assert count_assignments(complete(4), 3) == 6
    assert count_assignments(cycle(3), 3) == 6
    assert count_assignments(cycle(4), 2) == 2
    assert count_assignments(cycle(5), 2) == 0
    assert count_assignments(path(2), 2) == 2
    assert count_assignments(petersen(), 3) == 0
    assert count_assignments(prism(), 3) == 6


def test_empty_and_zero_palette():
    assert count_assignments(MultiGraph(3, []), 0) == 1
    assert count_assignments(MultiGraph(3, []), 5) == 1
    assert count_assignments(bundle(1), 0) == 0


def test_negative_palette_rejected():
    with pytest.raises(ValueError):
        count_assignments(bundle(1), -1)


def test_gadget_graph_rejected():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 1))
    with pytest.raises(PreconditionError, match="count_extensions"):
        count_assignments(g, 3)


def test_count_matches_oracle_exhaustively():
    for g in all_multigraphs(4, 4):
        for kappa in range(4):
            assert count_assignments(g, kappa) == oracle_count_colorings(
                g.vertex_count, g.edges, kappa
            ), (g.edges, kappa)


def test_count_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(150):
        vc, edges = random_multigraph(rng, rng.randint(2, 7), rng.randint(0, 8))
        kappa = rng.randint(0, 4)
        g = MultiGraph(vc, edges)
        assert count_assignments(g, kappa) == oracle_count_colorings(
            vc, edges, kappa
        ), (edges, kappa)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_matches_oracle_property(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=7,
        )
    )
    kappa = data.draw(st.integers(min_value=0, max_value=4))
    g = MultiGraph(n, edges)
    assert count_assignments(g, kappa) == oracle_count_colorings(n, edges, kappa)


def test_count_large_structured_instance():
    # 20-edge even cycle at kappa=3: closed-form 2^20 + 2 proper colorings
    assert count_assignments(cycle(20), 3) == 2**20 + 2
    # odd cycle: 2^21 - 2
    assert count_assignments(cycle(21), 3) == 2**21 - 2


# ---------------------------------------------------------------------------
# count_extensions / extension_matrix / decompose_extension


def test_extensions_match_oracle():
    h3 = build_h3().gadget
    for kappa in (3, 4):
        for c1 in range(kappa):
            for c2 in range(kappa):
                assert count_extensions(h3, kappa, (c1, c2)) == (
                    oracle_count_extensions(
                        h3.vertex_count, h3.base.edges, h3.dangling, (c1, c2), kappa
                    )
                )


def test_extensions_same_vertex_danglers_conflict():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 0))
    assert count_extensions(g, 3, (1, 1)) == 0
    assert count_extensions(g, 3, (0, 1)) == 1


def test_extensions_validation():
    h3 = build_h3().gadget
    with pytest.raises(PreconditionError, match="boundary has"):
        count_extensions(h3, 3, (0,))
    with pytest.raises(PreconditionError, match="outside palette"):
        count_extensions(h3, 3, (0, 3))
    with pytest.raises(ValueError):
        count_extensions(h3, 0, (0, 0))


def test_extension_matrix_matches_entrywise_counts():
    rng = random.Random(31)
    for _ in range(25):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        d1 = rng.randrange(vc)
        d2 = rng.randrange(vc)
        g = GadgetGraph(MultiGraph(vc, edges), (d1, d2))
        kappa = rng.randint(1, 4)
        m = extension_matrix(g, kappa)
        for c1 in range(kappa):
            for c2 in range(kappa):
                assert m[c1][c2] == count_extensions(g, kappa, (c1, c2))


def test_extension_matrix_needs_two_danglers():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0,))
    with pytest.raises(PreconditionError, match="2 dangling"):
        extension_matrix(g, 3)


def test_decompose_extension_agrees_with_matrix():
    cases = [(build_h3().gadget, 3), (build_h3().gadget, 4), (build_h4().gadget, 4)]
    rng = random.Random(8)
    for _ in range(20):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        d1 = rng.randrange(vc)
        d2 = rng.randrange(vc)
        if d1 == d2:
            continue
        cases.append((GadgetGraph(MultiGraph(vc, edges), (d1, d2)), rng.randint(2, 4)))
    for g, kappa in cases:
        a, b = decompose_extension(g, kappa)
        m = extension_matrix(g, kappa)
        assert a == m[0][0]
        assert b == m[0][1]
        # the whole matrix is determined by (a, b)
        for c1 in range(kappa):
            for c2 in range(kappa):
                assert m[c1][c2] == (a if c1 == c2 else b)


def test_decompose_extension_needs_two_colors():
    with pytest.raises(PreconditionError, match="at least 2 colors"):
        decompose_extension(build_h3().gadget, 1)


# ---------------------------------------------------------------------------
# the frontier engine


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_engine_matches_oracles_with_pinned_boundaries(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = data.draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=6)
    )
    dangling = data.draw(st.lists(vertex, min_size=1, max_size=3))
    kappa = data.draw(st.integers(min_value=1, max_value=4))
    boundary = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=kappa - 1),
            min_size=len(dangling),
            max_size=len(dangling),
        )
    )
    base = MultiGraph(n, edges)
    assert count_assignments(base, kappa) == oracle_count_colorings(n, edges, kappa)
    assert count_extensions(GadgetGraph(base, dangling), kappa, boundary) == (
        oracle_count_extensions(n, edges, dangling, boundary, kappa)
    )


@pytest.mark.parametrize(
    "name, kappa",
    [
        ("h3", 3), ("h3", 4), ("h3", 5),
        ("h4", 4), ("h4", 5),
        ("hstar:3", 3), ("hstar:3", 4),
        ("fnp:4:3", 4), ("fnp:5:3", 5),
    ],
)
def test_fixed_gadget_full_matrix_matches_oracle(name, kappa):
    # Every entry is recounted by a search that knows nothing of palette
    # symmetry, so this is the independent check behind the domain
    # invariance verify_key_property reads off the matrix.
    g = parse_gadget_name(name).gadget
    expected = tuple(
        tuple(
            oracle_count_extensions_pruned(
                g.vertex_count, g.base.edges, g.dangling, (c1, c2), kappa
            )
            for c2 in range(kappa)
        )
        for c1 in range(kappa)
    )
    assert extension_matrix(g, kappa) == expected


def test_icosahedron_gadget_entries_match_oracle():
    # All 25 entries would take the oracle about 20 s; one diagonal and one
    # off-diagonal entry stand in (criterion 02 cross-checks the trace).
    g = parse_gadget_name("h5").gadget
    m = extension_matrix(g, 5)
    for c1, c2 in ((2, 2), (3, 1)):
        assert m[c1][c2] == oracle_count_extensions_pruned(
            g.vertex_count, g.base.edges, g.dangling, (c1, c2), 5
        )


def test_long_path_counts_without_recursion():
    assert count_assignments(path(1200), 2) == 2
    assert count_assignments(path(1200), 3) == 3 * 2 ** 1199


def _widths(g, spec):
    """Largest frontier of the greedy and of the chosen edge order of g
    with spec spliced into every edge, and whether the two orders agree."""
    spliced, _ = simplify_equal_case(g, spec.r, spec)
    inc = spliced.incidence_lists()
    greedy = _plan(spliced.edges, inc, _greedy_order(spliced.edges, inc), ())
    chosen = _best_plan(spliced.edges, inc)
    return greedy[0][0], chosen[0][0], chosen == greedy


@pytest.mark.parametrize("n", [8, 10, 20])
def test_spliced_prism_order_is_narrow(n):
    greedy, chosen, kept_greedy = _widths(ladder_ring(n), build_h3())
    assert greedy == 2 * n
    assert chosen <= 12 and not kept_greedy


def test_spliced_octahedron_keeps_greedy_order():
    # Breadth-first orders are more than twice as wide here.
    octahedron = MultiGraph(
        6,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4),
         (1, 5), (2, 5), (3, 5), (4, 5)],
    )
    greedy, chosen, kept_greedy = _widths(octahedron, build_h4())
    assert kept_greedy and chosen == greedy


def test_spliced_prism_count_matches_certificate():
    spliced, cert = simplify_equal_case(ladder_ring(20), 3, build_h3())
    assert count_assignments(spliced, 3) == (
        cert.predicted_factor() * count_assignments(ladder_ring(20), 3)
    )


# ---------------------------------------------------------------------------
# perfect matchings and the decomposition counter


def test_perfect_matchings_hand_cases():
    assert enumerate_perfect_matchings(complete(4)) == ((0, 5), (1, 4), (2, 3))
    assert enumerate_perfect_matchings(cycle(5)) == ()
    assert enumerate_perfect_matchings(path(1)) == ((0,),)
    # parallel edges are distinct matchings
    assert enumerate_perfect_matchings(bundle(2)) == ((0,), (1,))
    assert len(enumerate_perfect_matchings(cube())) == 9


def test_matching_decomposition_agrees_with_backtracking():
    cases = [
        (bundle(3), 3),
        (complete(4), 3),
        (prism(), 3),
        (cube(), 3),
        (complete_bipartite(3, 3), 3),
        (petersen(), 3),
        (cycle(6), 2),
        (bundle(4), 4),
    ]
    rng = random.Random(17)
    for _ in range(10):
        vc, edges = random_regular_multigraph(rng, 3, 4)
        cases.append((MultiGraph(vc, edges), 3))
    for g, r in cases:
        assert count_by_matching_decomposition(g, r, r) == count_assignments(g, r)


def test_matching_decomposition_preconditions():
    with pytest.raises(PreconditionError, match="not applicable"):
        count_by_matching_decomposition(complete(4), 4, 3)
    with pytest.raises(PreconditionError, match="r-regular"):
        count_by_matching_decomposition(path(2), 2, 2)


# ---------------------------------------------------------------------------
# partition spectrum


def test_spectrum_hand_cases():
    assert partition_spectrum(bundle(2), 2).counts == (0, 0, 1)
    assert partition_spectrum(bundle(3), 3).counts == (0, 0, 0, 1)
    assert partition_spectrum(complete(4), 3).counts == (0, 0, 0, 1)
    assert partition_spectrum(complete(4), 4).counts == (0, 0, 0, 1, 3)
    assert partition_spectrum(MultiGraph(2, []), 3).counts == (1, 0, 0, 0)


def test_spectrum_matches_oracle_exhaustively():
    for g in all_multigraphs(4, 4):
        assert partition_spectrum(g, 4).counts == oracle_partition_spectrum(
            g.edges, 4
        ), g.edges


def test_spectrum_matches_oracle_on_random_graphs():
    rng = random.Random(123)
    for _ in range(120):
        vc, edges = random_multigraph(rng, rng.randint(2, 8), rng.randint(0, 6))
        kappa = rng.randint(0, 4)
        g = MultiGraph(vc, edges)
        assert partition_spectrum(g, kappa).counts == oracle_partition_spectrum(
            edges, kappa
        ), (edges, kappa)


def test_spectrum_reconstructs_assignment_counts():
    rng = random.Random(7)
    for _ in range(60):
        vc, edges = random_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6))
        g = MultiGraph(vc, edges)
        spectrum = partition_spectrum(g, 4)
        for j in range(5):
            assert spectrum.assignment_count(j) == count_assignments(g, j)


def test_factorial_relation_on_edge_chromatic_regular_graphs():
    for g, r in [
        (bundle(2), 2),
        (cycle(4), 2),
        (cycle(6), 2),
        (bundle(3), 3),
        (complete(4), 3),
        (prism(), 3),
        (cube(), 3),
        (complete_bipartite(3, 3), 3),
        (bundle(4), 4),
    ]:
        spectrum = partition_spectrum(g, r)
        count = count_assignments(g, r)
        assert count > 0
        assert count == math.factorial(r) * spectrum.counts[r]


# ---------------------------------------------------------------------------
# uniqueness classifier


def test_classifier_requires_four_colors():
    with pytest.raises(PreconditionError, match="kappa >= 4"):
        is_uniquely_partition_colorable(bundle(2), 3)


def test_classifier_hand_cases():
    assert is_uniquely_partition_colorable(MultiGraph(1, []), 4)
    assert is_uniquely_partition_colorable(star(3), 4)
    assert is_uniquely_partition_colorable(cycle(3), 4)
    assert is_uniquely_partition_colorable(bundle(4), 4)
    # two disjoint edges: singletons or merged, two partitions
    assert not is_uniquely_partition_colorable(path(3), 4)
    assert not is_uniquely_partition_colorable(cycle(4), 4)
    # star with five edges cannot fit in four matchings
    assert not is_uniquely_partition_colorable(star(5), 4)


def test_classifier_forced_merge_configuration():
    # five edges on two hubs sharing no vertex pair twice force merges in
    # any 4-class partition yet leave exactly one valid partition
    g = MultiGraph(5, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    assert is_uniquely_partition_colorable(g, 4)
    assert sum(partition_spectrum(g, 4).counts) == 1


def test_classifier_matches_spectrum_exhaustively():
    for g in all_multigraphs(4, 5):
        expected = sum(partition_spectrum(g, 4).counts) == 1
        assert is_uniquely_partition_colorable(g, 4) == expected, g.edges


def test_classifier_matches_spectrum_on_random_graphs():
    rng = random.Random(55)
    for kappa in (4, 5):
        for _ in range(150):
            vc, edges = random_multigraph(rng, rng.randint(2, 8), rng.randint(0, 7))
            g = MultiGraph(vc, edges)
            expected = sum(partition_spectrum(g, kappa).counts) == 1
            assert is_uniquely_partition_colorable(g, kappa) == expected, (
                edges,
                kappa,
            )
