"""Counters against brute-force oracles, plus the partition machinery."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    GadgetGraph,
    MultiGraph,
    PreconditionError,
    build_h3,
    build_h4,
    build_h_star,
    count_assignments,
    count_by_matching_decomposition,
    count_extensions,
    count_weighted_assignments,
    cross_validate_omega_n,
    interpolation_pipeline,
    is_uniquely_partition_colorable,
    parse_gadget_name,
    partition_spectrum,
    simplify_equal_case,
    verify_key_property,
)
from edgecolorkit import counting
from edgecolorkit.counting import (
    MAX_KAPPA,
    MAX_PACKED_BITS,
    _best_plan,
    _count_partitions_capped,
    _frontier_order,
    _greedy_order,
    _plan,
    _stratum_rows,
    decompose_extension,
)
from edgecolorkit.gadgets import MAX_MATRIX_KAPPA, icosahedron_graph

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
    oracle_count_weighted,
    oracle_partition_spectrum,
    oracle_partitions,
    random_multigraph,
    random_regular_multigraph,
    signature_matrix,
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
# count_extensions / decompose_extension and the matrix they stand for


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


def test_non_integer_boundary_colors_are_refused_not_truncated():
    with pytest.raises(TypeError):
        count_extensions(build_h3().gadget, 3, [0.7, 0.2])


def _full_matrix(g, kappa):
    """The extension matrix the library stands for: expanded from
    decompose_extension's (a, b), or at one color its single entry."""
    if kappa == 1:
        return ((count_extensions(g, 1, (0, 0)),),)
    return signature_matrix(*decompose_extension(g, kappa), kappa)


def _assert_matrix_matches_entrywise_counts(cases):
    for g, kappa in cases:
        m = _full_matrix(g, kappa)
        for c1 in range(kappa):
            for c2 in range(kappa):
                assert m[c1][c2] == count_extensions(g, kappa, (c1, c2))
                assert m[c1][c2] == oracle_count_extensions_pruned(
                    g.vertex_count, g.base.edges, g.dangling, (c1, c2), kappa
                )


def test_extension_matrix_matches_entrywise_counts():
    cases = []
    rng = random.Random(31)
    for _ in range(25):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        d1 = rng.randrange(vc)
        d2 = rng.randrange(vc)
        cases.append((GadgetGraph(MultiGraph(vc, edges), (d1, d2)), rng.randint(1, 4)))
    _assert_matrix_matches_entrywise_counts(cases)


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
    _assert_matrix_matches_entrywise_counts(cases)


def test_extension_matrix_needs_two_danglers():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0,))
    with pytest.raises(PreconditionError, match="2 dangling"):
        decompose_extension(g, 3)


def test_decompose_extension_needs_two_colors():
    with pytest.raises(PreconditionError, match="at least 2 colors"):
        decompose_extension(build_h3().gadget, 1)


def test_extension_matrix_at_one_color_is_its_diagonal_entry():
    assert _full_matrix(build_h3().gadget, 1) == ((0,),)
    free = GadgetGraph(MultiGraph(2, []), (0, 1))
    assert _full_matrix(free, 1) == ((1,),)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_assignments(bundle(2), -1),
        lambda: count_weighted_assignments(bundle(2), -1, [], [(1, 0)]),
        lambda: count_extensions(build_h3().gadget, 0, (0, 0)),
        lambda: cross_validate_omega_n(bundle(2), 0, build_h3().gadget, [], 1),
        lambda: partition_spectrum(bundle(2), -1),
    ],
)
def test_out_of_range_kappa_is_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="kappa must be"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_assignments(bundle(2), MAX_KAPPA + 1),
        lambda: count_weighted_assignments(bundle(2), MAX_KAPPA + 1, [0], [(1, 0)]),
        lambda: count_extensions(build_h3().gadget, MAX_KAPPA + 1, (0, 0)),
        lambda: decompose_extension(build_h3().gadget, MAX_KAPPA + 1),
        lambda: interpolation_pipeline(bundle(3), MAX_KAPPA + 1, build_h3().gadget),
        lambda: verify_key_property(build_h3(), MAX_MATRIX_KAPPA + 1),
    ],
)
def test_kappa_over_the_cap_is_refused_before_building(call):
    # a start state holds kappa patterns and a key-property matrix kappa^2
    # entries
    with pytest.raises(PreconditionError, match="exceeds the cap of"):
        call()


def _packed_bits(edge_count, m, kappa):
    return ((edge_count + m) * kappa.bit_length() + m + 1) * (m + 1)


def test_weighted_packing_over_the_cap_is_refused_before_planning(monkeypatch):
    # 400 selected edges of a 400-cycle at kappa 4: 401 strata of 2801 bits
    def no_plan(*args):
        raise AssertionError("planned a refused count")

    monkeypatch.setattr(counting, "_best_plan", no_plan)
    width = _packed_bits(400, 400, 4)
    assert width == 1123201 > MAX_PACKED_BITS
    message = "m=400 selected edges packs %d-bit multiplicities, above the cap of %d bits" % (
        width, MAX_PACKED_BITS
    )
    with pytest.raises(PreconditionError, match=message):
        count_weighted_assignments(cycle(400), 4, range(400), [(1, 0)])


def test_weighted_packing_cap_is_far_above_the_largest_rings():
    # the 40-vertex bundle ring (60 edges, m = 40) at kappa 4, and the
    # icosahedron with all 30 edges chained at kappa 6
    assert _packed_bits(60, 40, 4) == 13981
    assert 50 * max(_packed_bits(60, 40, 4), _packed_bits(30, 30, 6)) < MAX_PACKED_BITS


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_weighted_count_matches_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = data.draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=6)
    )
    mask = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    selected = [i for i, chosen in enumerate(mask) if chosen]
    kappa = data.draw(st.integers(min_value=1, max_value=4))
    weight = st.integers(min_value=0, max_value=6)
    pairs = data.draw(st.lists(st.tuples(weight, weight), min_size=1, max_size=3))
    pairs += [(0, data.draw(weight)), (data.draw(weight), 0)]
    g = MultiGraph(n, edges)
    assert count_weighted_assignments(g, kappa, selected, pairs) == (
        oracle_count_weighted(n, edges, selected, kappa, pairs)
    )
    assert count_weighted_assignments(g, kappa, selected, [(1, 0)]) == [
        count_assignments(g, kappa)
    ]


def _direct_rows(strata, weights):
    """Each row term by term, both powers computed from scratch: the
    reference for _stratum_rows's Horner evaluation."""
    m = len(strata) - 1
    return [
        sum(n * (a - b) ** j * b ** (m - j) for j, n in enumerate(strata))
        for a, b in weights
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stratum_rows_match_the_direct_formula(data):
    m = data.draw(st.integers(min_value=0, max_value=12))
    strata = data.draw(
        st.lists(st.integers(min_value=0, max_value=2 ** 80), min_size=m + 1, max_size=m + 1)
    )
    weight = st.integers(min_value=-40, max_value=40)
    pairs = data.draw(st.lists(st.tuples(weight, weight), max_size=3))
    w = data.draw(weight)
    # alpha = beta, beta = 0 and alpha = 0
    pairs += [(w, w), (w, 0), (0, w), (0, 0)]
    assert _stratum_rows(strata, pairs) == _direct_rows(strata, pairs)


def test_weighted_count_validation():
    with pytest.raises(PreconditionError, match="out of range"):
        count_weighted_assignments(bundle(2), 3, [2], [(1, 1)])
    with pytest.raises(PreconditionError, match="edge index 1 selected twice"):
        count_weighted_assignments(bundle(2), 3, [1, 1], [(1, 1)])
    with pytest.raises(PreconditionError, match="count_extensions"):
        count_weighted_assignments(build_h3().gadget, 3, [], [(1, 1)])
    assert count_weighted_assignments(bundle(3), 2, [0], [(1, 1), (2, 3)]) == [0, 0]


def test_weighted_count_refuses_non_integer_edges_and_weights():
    triangle = cycle(3)
    with pytest.raises(TypeError):
        count_weighted_assignments(triangle, 3, [0], [(Fraction(3, 2), 0)])
    with pytest.raises(TypeError):
        count_weighted_assignments(triangle, 3, [0], [(1, 0.5)])
    with pytest.raises(TypeError):
        count_weighted_assignments(triangle, 3, [1.9], [(1, 0)])


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
    assert signature_matrix(*decompose_extension(g, kappa), kappa) == expected


def test_icosahedron_gadget_entries_match_oracle():
    # All 25 entries would take the oracle about 20 s; one diagonal and one
    # off-diagonal entry stand in (criterion 02 cross-checks the trace).
    g = parse_gadget_name("h5").gadget
    m = signature_matrix(*decompose_extension(g, 5), 5)
    for c1, c2 in ((2, 2), (3, 1)):
        assert m[c1][c2] == oracle_count_extensions_pruned(
            g.vertex_count, g.base.edges, g.dangling, (c1, c2), 5
        )


def test_unpinned_signature_matches_pinned_counts_and_oracle():
    # decompose_extension reads (a, b) off unpinned counts of the base and
    # of the base closed by an edge xy; count_extensions and the oracle pin
    # the boundary instead.
    rng = random.Random(1606)
    seen = set()
    for _ in range(200):
        vc, edges = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 7))
        x, y = rng.randrange(vc), rng.randrange(vc)
        g = GadgetGraph(MultiGraph(vc, edges), (x, y))
        kappa = rng.randint(2, 5)
        expected = tuple(
            oracle_count_extensions_pruned(vc, edges, (x, y), boundary, kappa)
            for boundary in ((0, 0), (0, 1))
        )
        assert decompose_extension(g, kappa) == expected, (vc, edges, x, y, kappa)
        assert expected == (
            count_extensions(g, kappa, (0, 0)),
            count_extensions(g, kappa, (0, 1)),
        )
        if x == y:
            seen.add("x = y")
        elif tuple(sorted((x, y))) in edges:
            seen.add("x adjacent to y")
        if kappa < max(g.base.degrees()):
            seen.add("kappa below the degree")
    assert seen == {"x = y", "x adjacent to y", "kappa below the degree"}


@pytest.mark.parametrize(
    "g, kappa",
    [
        (build_h3().gadget, 3),
        # both danglers at a vertex of degree 2, so b's division by
        # kappa * (kappa - 1) is what has to catch it
        (GadgetGraph(MultiGraph(3, [(0, 1), (0, 2)]), (0, 0)), 4),
    ],
)
def test_signature_divisions_are_checked_not_floored(monkeypatch, g, kappa):
    monkeypatch.setattr(
        "edgecolorkit.counting.count_assignments",
        lambda graph, k: count_assignments(graph, k) + 1,
    )
    with pytest.raises(RuntimeError, match="internal: .* is not an integer"):
        decompose_extension(g, kappa)


def test_signature_beyond_the_bench_by_both_routes():
    g = parse_gadget_name("fnp:7:5").gadget
    expected = (726036480, 514142208)
    assert decompose_extension(g, 6) == expected
    assert (count_extensions(g, 6, (0, 0)), count_extensions(g, 6, (0, 1))) == expected


def test_long_path_counts_without_recursion():
    assert count_assignments(path(1200), 2) == 2
    assert count_assignments(path(1200), 3) == 3 * 2 ** 1199


def _greedy_order_by_rescan(edges, inc, tie=None):
    """The greedy order as first written: a full rescan per pick, with
    ties broken by position in tie (by index without one)."""
    rank = {e: i for i, e in enumerate(tie or range(len(edges)))}
    remaining = [len(x) for x in inc]
    unused = set(range(len(edges)))
    order = []

    def key(e):
        u, v = edges[e]
        opens = (remaining[u] == len(inc[u])) + (remaining[v] == len(inc[v]))
        return (opens - (remaining[u] == 1) - (remaining[v] == 1), opens, rank[e])

    while unused:
        best = min(unused, key=key)
        unused.remove(best)
        order.append(best)
        for w in edges[best]:
            remaining[w] -= 1
    return order


def test_greedy_order_heap_matches_rescan():
    rng = random.Random(2017)
    graphs = [path(1200), ladder_ring(12), bundle(5), star(6)]
    for _ in range(200):
        vc = rng.randint(2, 12)
        graphs.append(MultiGraph(*random_multigraph(rng, vc, rng.randint(0, 30))))
    for g in graphs:
        inc = g.incidence_lists()
        assert _greedy_order(g.edges, inc) == _greedy_order_by_rescan(g.edges, inc)
        shuffled = list(range(len(g.edges)))
        rng.shuffle(shuffled)
        for tie in (shuffled, _frontier_order(g.edges, inc, _starts(inc))):
            assert _greedy_order(g.edges, inc, tie) == _greedy_order_by_rescan(g.edges, inc, tie)


def _frontier_order_by_rescan(edges, inc, starts):
    """The frontier-growing order by a full rescan of the candidates per
    visit, with each key recounted from scratch."""
    nbrs = [{a + b - v for a, b in (edges[f] for f in inc[v])} for v in range(len(inc))]
    pos = {}
    attach = {}

    def key(w):
        opens = any(x not in pos for x in nbrs[w])
        closes = sum(u in pos and nbrs[u] - pos.keys() == {w} for u in nbrs[w])
        links = sum(u in pos for u in nbrs[w])
        return (opens - closes, -links, attach[w], w)

    while len(pos) < len(starts):
        candidates = [w for w in attach if w not in pos]
        v = min(candidates, key=key) if candidates else next(w for w in starts if w not in pos)
        pos[v] = len(pos)
        for w in nbrs[v]:
            attach.setdefault(w, len(pos))
    return sorted(
        range(len(edges)),
        key=lambda e: (max(pos[x] for x in edges[e]), min(pos[x] for x in edges[e]), e),
    )


def _starts(inc):
    return sorted((w for w in range(len(inc)) if inc[w]), key=lambda w: len(inc[w]))


def test_frontier_order_heap_matches_rescan():
    rng = random.Random(2031)
    two_parts = MultiGraph(9, [(0, 1), (0, 1), (1, 2), (4, 5), (5, 6), (6, 4), (6, 7), (6, 7)])
    graphs = [two_parts, ladder_ring(12), bundle(5), star(6), petersen(), MultiGraph(3, ())]
    for _ in range(200):
        graphs.append(_shuffled_multigraph(rng, rng.randint(2, 14), rng.randint(0, 30)))
    for g in graphs:
        inc = g.incidence_lists()
        order = _frontier_order(g.edges, inc, _starts(inc))
        assert sorted(order) == list(range(len(g.edges)))
        assert order == _frontier_order_by_rescan(g.edges, inc, _starts(inc))
        assert order == _frontier_order(g.edges, inc, _starts(inc))


def test_frontier_order_plans_long_graphs_without_recursion():
    for g in (path(1500), simplify_equal_case(ladder_ring(200), 3, build_h3())[0]):
        inc = g.incidence_lists()
        order = _frontier_order(g.edges, inc, _starts(inc))
        assert sorted(order) == list(range(len(g.edges)))
        _best_plan(g.edges, inc)


# _plan as first written, cost and steps in one pass: the reference for
# _plan, and with the rescan orders for _best_plan.


def _reference_plan(edges, inc, order, pinned, weighted=frozenset()):
    """Engine steps along an edge order, with their cost (largest frontier,
    sum of frontier sizes) and the frontier slot of each pinned vertex.

    A step is (both, keep, half): the slot bits of the edge's ends, a mask
    clearing the slots of the vertices it closes (-1 when none), and for an
    edge in weighted the slot bit of its first end (else 0). A vertex
    holds a slot from its first edge (pinned ones from the start) through
    its last.
    """
    remaining = [len(x) for x in inc]
    slot = [-1] * len(inc)
    free = list(range(len(inc) - 1, -1, -1))
    for w in pinned:
        if remaining[w] and slot[w] < 0:
            slot[w] = free.pop()
    pins = {w: slot[w] for w in pinned if slot[w] >= 0}
    steps = []
    peak = total = 0
    for e in order:
        pair = edges[e]
        both = drop = 0
        for w in pair:
            if slot[w] < 0:
                slot[w] = free.pop()
            both |= 1 << slot[w]
        for w in pair:
            remaining[w] -= 1
            if not remaining[w]:
                drop |= 1 << slot[w]
                free.append(slot[w])
        half = 1 << slot[pair[0]] if e in weighted else 0
        steps.append((both, ~drop, half))
        size = len(inc) - len(free)
        peak = max(peak, size)
        total += size
    return (peak, total), steps, pins


def _shuffled_multigraph(rng, vertex_count, edge_count):
    """A random multigraph whose edges come in random order and
    orientation, so that index ties fall anywhere."""
    _, edges = random_multigraph(rng, vertex_count, edge_count)
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(edges)
    return MultiGraph(vertex_count, edges)


def test_best_plan_is_the_first_cheapest_rescan_candidate():
    # Built from the rescan orders and _reference_plan alone: the greedy
    # order, and when it peaks above _NARROW_FRONTIER slots also the
    # frontier order and the greedy order tied by it.
    rng = random.Random(2023)
    narrow = 0
    wins = [0, 0, 0]  # by candidate
    for _ in range(400):
        vc = rng.randint(2, 14)
        g = _shuffled_multigraph(rng, vc, rng.randint(0, 30))
        inc = g.incidence_lists()
        pinned = [rng.randrange(vc) for _ in range(rng.randint(0, 3))]
        weighted = frozenset(e for e in range(len(g.edges)) if rng.random() < 0.3)
        greedy = _greedy_order_by_rescan(g.edges, inc)
        plans = [_reference_plan(g.edges, inc, greedy, pinned, weighted)]
        if plans[0][0][0] > counting._NARROW_FRONTIER:
            frontier = _frontier_order_by_rescan(g.edges, inc, _starts(inc))
            plans += [
                _reference_plan(g.edges, inc, order, pinned, weighted)
                for order in (frontier, _greedy_order_by_rescan(g.edges, inc, frontier))
            ]
        else:
            narrow += 1
        best = min(plans, key=lambda p: p[0])
        assert _best_plan(g.edges, inc, pinned, weighted) == best
        wins[plans.index(best)] += 1
    assert narrow > 0 and all(wins)


def test_plan_matches_the_reference_plan():
    rng = random.Random(7)
    for _ in range(100):
        vc = rng.randint(2, 10)
        g = _shuffled_multigraph(rng, vc, rng.randint(0, 20))
        inc = g.incidence_lists()
        pinned = [rng.randrange(vc) for _ in range(rng.randint(0, 3))]
        order = list(range(len(g.edges)))
        rng.shuffle(order)
        assert _plan(g.edges, inc, order, pinned) == _reference_plan(g.edges, inc, order, pinned)


def _widths(g, spec):
    """Largest frontier of the greedy and of the chosen edge order of g
    with spec spliced into every edge, and whether the two plans agree."""
    spliced, _ = simplify_equal_case(g, spec.r, spec)
    inc = spliced.incidence_lists()
    greedy = _plan(spliced.edges, inc, _greedy_order(spliced.edges, inc), ())
    chosen = _best_plan(spliced.edges, inc)
    return greedy[0][0], chosen[0][0], chosen == greedy


@pytest.mark.parametrize("n", [8, 10, 20])
def test_spliced_prism_order_is_narrow(n):
    greedy, chosen, kept_greedy = _widths(ladder_ring(n), build_h3())
    assert greedy == 2 * n
    assert chosen <= 7 and not kept_greedy


def test_spliced_prism_with_matchings_union_is_narrow():
    # The greedy order peaks at 13 slots here; the frontier-growing order
    # and the greedy order tie-broken by it both peak at 8, and the latter
    # wins on the frontier sum (1016 against 1028).
    spliced, cert = simplify_equal_case(ladder_ring(6), 3, build_h_star(3))
    inc = spliced.incidence_lists()
    assert _best_plan(spliced.edges, inc)[0][0] <= 8
    assert count_assignments(spliced, 3) == (
        cert.predicted_factor() * count_assignments(ladder_ring(6), 3)
    )


def test_spliced_octahedron_keeps_greedy_order():
    # The greedy order peaks at 7 slots; the frontier-growing order and
    # the greedy order tie-broken by it both peak at 9.
    octahedron = MultiGraph(
        6,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4),
         (1, 5), (2, 5), (3, 5), (4, 5)],
    )
    greedy, chosen, kept_greedy = _widths(octahedron, build_h4())
    assert kept_greedy and chosen == greedy


def test_paper_gadgets_plan_narrow():
    h5 = parse_gadget_name("h5").gadget
    x, y = h5.dangling
    closed = MultiGraph(h5.base.vertex_count, h5.base.edges + ((x, y),))
    for g, bound in [
        (h5.base, 5),
        (closed, 6),
        (icosahedron_graph(), 6),
        (parse_gadget_name("fnp:7:5").gadget.base, 6),
    ]:
        assert _best_plan(g.edges, g.incidence_lists())[0][0] <= bound


def test_spliced_prism_count_matches_certificate():
    spliced, cert = simplify_equal_case(ladder_ring(20), 3, build_h3())
    assert count_assignments(spliced, 3) == (
        cert.predicted_factor() * count_assignments(ladder_ring(20), 3)
    )


# ---------------------------------------------------------------------------
# the matching decomposition counter


def _engine_patched_out(*args):
    raise AssertionError("the frontier engine ran")


def test_matching_decomposition_agrees_with_backtracking(monkeypatch):
    cases = [
        (bundle(3), 3),
        (complete(4), 3),
        (prism(), 3),
        (cube(), 3),
        (complete_bipartite(3, 3), 3),
        (petersen(), 3),
        (cycle(6), 2),
        (bundle(4), 4),
        # edgeless: the empty coloring
        (MultiGraph(2, []), 0),
        # a triangle has no perfect matching
        (cycle(3), 2),
        # K4 with its edges in another order
        (MultiGraph(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]), 3),
        (icosahedron_graph(), 5),
    ]
    assert [count_assignments(g, r) for g, r in cases[-4:]] == [1, 0, 6, 5 * 18720]
    rng = random.Random(17)
    for r, vertex_counts in [(3, [4] * 10), (4, [5, 6, 6, 7, 8]), (5, [4, 6, 6, 8, 8])]:
        graphs = [MultiGraph(*random_regular_multigraph(rng, r, n)) for n in vertex_counts]
        # the configuration model keeps parallel edges
        assert any(not g.is_simple() for g in graphs)
        cases += [(g, r) for g in graphs]
    expected = [count_assignments(g, r) for g, r in cases]
    # the decomposition is an independent check: it never runs the engine
    monkeypatch.setattr(counting, "_run", _engine_patched_out)
    assert [count_by_matching_decomposition(g, r) for g, r in cases] == expected


def test_matching_decomposition_preconditions():
    with pytest.raises(PreconditionError, match="r-regular"):
        count_by_matching_decomposition(path(2), 2)


def test_partition_search_rejects_gadget_graph():
    # h3's gadget is 3-regular with its danglers, so the search is reached
    h3 = build_h3().gadget
    with pytest.raises(PreconditionError, match="count_extensions"):
        count_by_matching_decomposition(h3, 3)
    with pytest.raises(PreconditionError, match="count_extensions"):
        is_uniquely_partition_colorable(h3, 4)


# ---------------------------------------------------------------------------
# partition spectrum


def test_spectrum_hand_cases():
    assert partition_spectrum(bundle(2), 2).counts == (0, 0, 1)
    assert partition_spectrum(bundle(3), 3).counts == (0, 0, 0, 1)
    assert partition_spectrum(complete(4), 3).counts == (0, 0, 0, 1)
    assert partition_spectrum(complete(4), 4).counts == (0, 0, 0, 1, 3)
    assert partition_spectrum(MultiGraph(2, []), 3).counts == (1, 0, 0, 0)


def test_spectrum_above_the_edge_count_matches_oracle():
    for g in [bundle(2), path(3)]:
        for kappa in range(5, 9):
            assert partition_spectrum(g, kappa).counts == oracle_partition_spectrum(
                g.edges, kappa
            ), (g.edges, kappa)


def test_spectrum_runs_the_engine_once_above_the_edge_count(monkeypatch):
    # palettes 0..2 are below the bundle's degree and run nothing, and no
    # palette above its 3 edges is counted
    runs = []
    run = counting._run

    def counted(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(counting, "_run", counted)
    spectrum = partition_spectrum(bundle(3), 1000)
    assert spectrum.counts == (0, 0, 0, 1) + (0,) * 997
    assert len(runs) == 1


def test_spectrum_refuses_kappa_over_the_cap_before_any_engine_run(monkeypatch):
    monkeypatch.setattr(counting, "MAX_KAPPA", 50)
    monkeypatch.setattr(counting, "_run", _engine_patched_out)
    with pytest.raises(PreconditionError, match="exceeds the cap of 50"):
        partition_spectrum(bundle(3), 51)


def test_spectrum_rejects_gadget_graph():
    with pytest.raises(PreconditionError, match="count_extensions"):
        partition_spectrum(GadgetGraph(bundle(2), (0, 1)), 2)


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


def test_capped_partition_count_matches_oracle():
    rng = random.Random(62)
    for _ in range(150):
        vc, edges = random_multigraph(rng, rng.randint(2, 7), rng.randint(0, 10))
        g = MultiGraph(vc, edges)
        for kappa in range(1, 6):
            total = len(oracle_partitions(edges, kappa))
            for limit in (1, 2, 3, 10 ** 9):
                assert _count_partitions_capped(g, kappa, limit) == min(limit, total), (
                    edges,
                    kappa,
                    limit,
                )


def test_classifier_on_long_path_does_not_recurse():
    # the partition search is iterative: one level per edge would overflow
    # the interpreter's recursion limit here
    assert not is_uniquely_partition_colorable(path(1500), 4)


def _fat_triangle(edge_count, vertex_count):
    """edge_count edges spread over the three sides of a triangle on
    vertices 0, 1, 2, plus isolated vertices up to vertex_count. Every two
    edges share a vertex, so the only partition is into singletons."""
    sides = [(0, 1), (1, 2), (0, 2)]
    return MultiGraph(vertex_count, [sides[i % 3] for i in range(edge_count)])


def test_classifier_is_invariant_under_edge_order():
    rng = random.Random(1416)
    cases = []
    while len(cases) < 30:
        vc, edges = random_multigraph(rng, rng.randint(8, 10), rng.randint(14, 16))
        kappa = rng.choice((4, 5))
        # within the size bound, so the search decides, not the early exit
        if len(edges) <= kappa * (vc // 2):
            cases.append((MultiGraph(vc, edges), kappa))
    # one partition (kappa >= |E|), and none although within the size bound
    cases += [(_fat_triangle(n, 3), 16) for n in (14, 15, 16)]
    cases += [(_fat_triangle(n, 6), n - 1) for n in (14, 15, 16)]
    seen = set()
    for g, kappa in cases:
        found = _count_partitions_capped(g, kappa, 2)
        unique = is_uniquely_partition_colorable(g, kappa)
        assert unique == (found == 1)
        seen.add(found)
        for _ in range(8):
            edges = [e if rng.random() < 0.5 else e[::-1] for e in g.edges]
            rng.shuffle(edges)
            shuffled = MultiGraph(g.vertex_count, edges)
            assert _count_partitions_capped(shuffled, kappa, 2) == found, (g.edges, kappa)
            assert is_uniquely_partition_colorable(shuffled, kappa) == unique
    assert seen == {0, 1, 2}
