"""Acceptance suite: one timed test per criterion, one printed line each.

Every check is exact integer equality; there are no tolerances anywhere.
Each test prints a single summary line (visible even under pytest's
default capture) and fails if its body raised or its runtime budget was
exceeded.
"""

import math
import random
import time

from edgecolorkit import (
    CnfFormula,
    MultiGraph,
    build_f_nonplanar,
    build_h3,
    build_h4,
    build_h5_icosahedron,
    build_h_star,
    build_matchings,
    check_witness,
    count_assignments,
    count_by_matching_decomposition,
    count_sat,
    cross_validate_omega_n,
    decompose_extension,
    eigenvalues_ab,
    icosahedron_graph,
    interpolation_pipeline,
    is_uniquely_partition_colorable,
    partition_spectrum,
    simplify_equal_case,
    transform_phi_prime,
    verify_key_property,
)

from corpus import (
    all_multigraphs,
    bundle,
    complete,
    complete_bipartite,
    cube,
    cycle,
    path,
    petersen,
    prism,
    star,
)
from oracles import (
    matrix_power,
    oracle_partition_spectrum,
    random_bridged_cubic,
    random_cnf,
    random_multigraph,
    random_regular_multigraph,
)


def run_criterion(capsys, number, label, budget_seconds, body):
    start = time.monotonic()
    error = None
    try:
        body()
    except BaseException as exc:
        error = exc
    elapsed = time.monotonic() - start
    on_time = elapsed <= budget_seconds
    verdict = "PASS" if (error is None and on_time) else "FAIL"
    with capsys.disabled():
        print(
            "criterion %02d %s %-30s %6.1fs (budget %ds)"
            % (number, verdict, label, elapsed, budget_seconds)
        )
    if error is not None:
        raise error
    assert on_time, "criterion %d took %.1fs, budget is %ds" % (
        number,
        elapsed,
        budget_seconds,
    )


def scaled_identity(constant, size):
    return tuple(
        tuple(constant if i == j else 0 for j in range(size)) for i in range(size)
    )


# ---------------------------------------------------------------------------


def test_criterion_01_fixed_gadget_matrices(capsys):
    """The two small planar gadgets have exactly the pinned c * I matrices."""

    def body():
        for build, kappa, constant in ((build_h3, 3, 2), (build_h4, 4, 12)):
            started = time.monotonic()
            report = verify_key_property(build(), kappa)
            assert time.monotonic() - started < 10
            assert report.holds is True
            assert report.a == constant and report.b == 0 and report.c == constant
            assert report.matrix == scaled_identity(constant, kappa)

    run_criterion(capsys, 1, "fixed gadget matrices", 20, body)


def test_criterion_02_icosahedron_constant(capsys):
    """The icosahedron gadget is c * I with c > 0 at five colors, and c is
    cross-checked through two independent counts of the closed icosahedron
    (closing the danglers into one edge keeps exactly the equal-color
    extensions, so that count equals the matrix trace)."""

    def body():
        report = verify_key_property(build_h5_icosahedron(), 5)
        assert report.holds is True
        assert report.c > 0
        assert report.matrix == scaled_identity(report.c, 5)
        closed = icosahedron_graph()
        by_backtracking = count_assignments(closed, 5)
        by_matchings = count_by_matching_decomposition(closed, 5)
        assert by_backtracking == by_matchings
        assert by_backtracking == 5 * report.c
        assert report.c == 18720

    run_criterion(capsys, 2, "icosahedron constant", 300, body)


def test_criterion_03_reduction_soundness(capsys):
    """Replacing every edge with the three-color gadget multiplies the
    count by exactly 2 per edge."""

    def body():
        h3 = build_h3()
        instances = [bundle(3), complete(4)]
        rng = random.Random(31)
        while len(instances) < 12:
            vertex_count, edges = random_regular_multigraph(rng, 3, rng.choice((2, 4)))
            instances.append(MultiGraph(vertex_count, edges))
        for g in instances:
            assert g.edge_count <= 8
            reduced, certificate = simplify_equal_case(g, 3, h3)
            assert reduced.is_simple()
            assert certificate.c == 2
            expected = 2 ** g.edge_count * count_assignments(g, 3)
            assert count_assignments(reduced, 3) == expected

    run_criterion(capsys, 3, "equal palette reduction", 120, body)


def test_criterion_04_matchings_union(capsys):
    """The cyclic-shift matchings are pairwise disjoint perfect matchings,
    and their union opened at one edge satisfies the key property."""

    def body():
        for kappa, size in ((3, 6), (4, 8), (5, 120)):
            matchings = build_matchings(kappa, size)
            assert len(matchings) == kappa
            used = set()
            for matching in matchings:
                covered = sorted(v for edge in matching for v in edge)
                assert covered == list(range(size))
                for edge in matching:
                    assert edge not in used
                    used.add(edge)
        report = verify_key_property(build_h_star(3, 6), 3)
        assert report.holds is True
        assert report.c > 0

    run_criterion(capsys, 4, "matchings union", 60, body)


def test_criterion_05_interpolation_recovery(capsys):
    """The stratified linear system recovers exact counts above the native
    palette, and the matrix-placement shortcut matches physically built
    chain replacements at lengths 1 and 2."""

    def body():
        h3 = build_h3().gadget
        b3 = bundle(3)
        for kappa, expected in ((4, 24), (5, 60)):
            system = interpolation_pipeline(b3, kappa, h3)
            assert system.recovered == expected
            assert count_assignments(b3, kappa) == expected
        selected = b3.parallel_edge_indices()
        for kappa in (4, 5):
            for n in (1, 2):
                assert cross_validate_omega_n(b3, kappa, h3, selected, n)

    run_criterion(capsys, 5, "interpolation recovery", 60, body)


def test_criterion_06_matrix_identities(capsys):
    """Powers of J - I follow the closed form, and the two eigenvalues of
    a*I + b*(J - I) are confirmed by direct matrix-vector products."""

    def body():
        for kappa in range(3, 7):
            ring = tuple(
                tuple(0 if i == j else 1 for j in range(kappa)) for i in range(kappa)
            )
            for s in range(0, 7):
                power = matrix_power(ring, s)
                numerator = (kappa - 1) ** s - (-1) ** s
                assert numerator % kappa == 0
                shared = numerator // kappa
                sign = (-1) ** s
                for i in range(kappa):
                    for j in range(kappa):
                        assert power[i][j] == shared + (sign if i == j else 0)
        rng = random.Random(62)
        for _ in range(100):
            kappa = rng.randint(2, 9)
            a = rng.randint(-40, 40)
            b = rng.randint(-40, 40)
            matrix = tuple(
                tuple(a if i == j else b for j in range(kappa)) for i in range(kappa)
            )
            lambda1, lambda2 = eigenvalues_ab(a, b, kappa)
            row_sums = tuple(sum(row) for row in matrix)
            assert row_sums == (lambda1,) * kappa
            diff = (1, -1) + (0,) * (kappa - 2)
            image = tuple(
                sum(matrix[i][j] * diff[j] for j in range(kappa))
                for i in range(kappa)
            )
            assert image == tuple(lambda2 * x for x in diff)

    run_criterion(capsys, 6, "matrix identities", 10, body)


def test_criterion_07_two_hub_gadget(capsys):
    """The two-hub construction is r-regular, simple, connected, carries a
    proper witness coloring with both danglers colored 0, and has b > 0."""

    def body():
        for kappa, r in ((4, 3), (5, 3), (5, 4), (6, 5)):
            spec, witness = build_f_nonplanar(kappa, r)
            gadget = spec.gadget
            assert gadget.base.is_simple()
            assert gadget.base.is_connected()
            assert all(d == r for d in gadget.degrees())
            assert len(gadget.dangling) == 2
            assert witness.boundary == (0, 0)
            assert check_witness(gadget, kappa, witness) is True
            a, b = decompose_extension(gadget, kappa)
            assert b > 0

    run_criterion(capsys, 7, "two hub gadget", 60, body)


def test_criterion_08_parity_invariants(capsys):
    """Bridged cubic multigraphs count zero at three colors, and a regular
    instance colored with exactly its degree can only have a positive count
    on an even number of vertices (each class is a perfect matching)."""

    def circulant(n):
        edges = []
        for i in range(n):
            edges.append((i, (i + 1) % n))
            edges.append((i, (i + 2) % n))
        return MultiGraph(n, edges)

    def body():
        rng = random.Random(17)
        for _ in range(10):
            vertex_count, edges = random_bridged_cubic(rng)
            bridged = MultiGraph(vertex_count, edges)
            assert all(d == 3 for d in bridged.degrees())
            assert count_assignments(bridged, 3) == 0

        corpus = [
            (complete(4), 3),
            (prism(), 3),
            (cube(), 3),
            (complete_bipartite(3, 3), 3),
            (petersen(), 3),
            (cycle(5), 2),
            (cycle(6), 2),
            (cycle(7), 2),
            (complete(5), 4),
            (circulant(7), 4),
            (circulant(9), 4),
        ]
        positive_seen = 0
        for g, kappa in corpus:
            assert g.is_simple()
            assert all(d == kappa for d in g.degrees())
            if count_assignments(g, kappa) > 0:
                positive_seen += 1
                assert g.vertex_count % 2 == 0
        assert positive_seen >= 5
        for g, kappa in (
            (cycle(5), 2),
            (cycle(7), 2),
            (complete(5), 4),
            (circulant(7), 4),
            (circulant(9), 4),
        ):
            assert g.vertex_count % 2 == 1
            assert count_assignments(g, kappa) == 0

    run_criterion(capsys, 8, "parity invariants", 60, body)


def test_criterion_09_partition_semantics(capsys):
    """The matching-partition spectrum agrees with brute-force partition
    enumeration, the classifier agrees with the spectrum, and the count
    equals kappa! times the top spectrum entry on regular instances.

    Coverage: every edge multiset over 5 vertices with at most 6 edges,
    every one over 6 vertices with no isolated vertex (isolated vertices
    change nothing on either side, so together these reach every shape
    with up to 6 active vertices), plus sampled disjoint unions reaching
    up to 12 active vertices, plus the sparse named shapes that need more
    than 6."""

    def agree(g):
        for kappa in range(0, 4):
            expected = oracle_partition_spectrum(g.edges, kappa)
            assert partition_spectrum(g, kappa).counts == expected
        spectrum = partition_spectrum(g, 4)
        assert spectrum.counts == oracle_partition_spectrum(g.edges, 4)
        unique = is_uniquely_partition_colorable(g, 4)
        assert unique == (spectrum.total() == 1)

    def body():
        for g in all_multigraphs(5, 6):
            agree(g)
        for g in all_multigraphs(6, 6):
            if all(d > 0 for d in g.degrees()):
                agree(g)

        matching = [(2 * i, 2 * i + 1) for i in range(6)]
        for k in range(1, 7):
            agree(MultiGraph(2 * k, matching[:k]))
        agree(path(6))
        agree(star(6))

        rng = random.Random(93)
        for _ in range(300):
            blocks = []
            offset = 0
            total_edges = 0
            for _ in range(rng.randint(2, 3)):
                block_vertices = rng.randint(2, 4)
                block_edges = rng.randint(1, 2)
                if total_edges + block_edges > 6:
                    break
                _, edges = random_multigraph(rng, block_vertices, block_edges)
                blocks.extend((u + offset, v + offset) for u, v in edges)
                offset += block_vertices
                total_edges += block_edges
            agree(MultiGraph(offset, blocks))

        regular_cases = [
            (bundle(2), 2),
            (bundle(3), 3),
            (cycle(4), 2),
            (cycle(5), 2),
            (cycle(6), 2),
            (complete(4), 3),
            (prism(), 3),
            (cube(), 3),
            (complete_bipartite(3, 3), 3),
            (petersen(), 3),
            (complete(5), 4),
            (icosahedron_graph(), 5),
        ]
        chromatic_seen = 0
        for g, kappa in regular_cases:
            assert all(d == kappa for d in g.degrees())
            count = count_assignments(g, kappa)
            top = partition_spectrum(g, kappa).counts[kappa]
            assert count == math.factorial(kappa) * top
            if count > 0:
                chromatic_seen += 1
        assert chromatic_seen >= 9

    run_criterion(capsys, 9, "partition semantics", 300, body)


def test_criterion_10_model_count_increment(capsys):
    """Adding the switch variable raises the model count by exactly one,
    including on unsatisfiable formulas."""

    def body():
        rng = random.Random(7)
        unsatisfiable_seen = 0
        for index in range(200):
            variable_count, clauses = random_cnf(
                rng, max_variables=12, force_unsat=(index % 4 == 0)
            )
            phi = CnfFormula(variable_count, clauses)
            before = count_sat(phi)
            after = count_sat(transform_phi_prime(phi))
            assert after == before + 1
            if before == 0:
                unsatisfiable_seen += 1
        assert unsatisfiable_seen >= 50

    run_criterion(capsys, 10, "model count increment", 60, body)
