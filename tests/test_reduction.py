"""Equal-palette reduction, gadget selection, interpolation pipeline."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgecolorkit import counting, reduction
from edgecolorkit import (
    GadgetGraph,
    KeyPropertyError,
    MultiGraph,
    PreconditionError,
    build_h3,
    count_assignments,
    count_weighted_assignments,
    cross_validate_omega_n,
    decompose_extension,
    derive_distinct_diagonal,
    interpolation_pipeline,
    parse_gadget_name,
    recount_certificate,
    select_gadget,
    simplify_equal_case,
    verify_key_property,
)

from corpus import bundle, c4_gadget, complete, cycle, path, petersen_open_spec
from oracles import oracle_interpolation, oracle_solve_vandermonde, random_regular_multigraph


# ---------------------------------------------------------------------------
# equal-palette reduction


def test_simplify_bundle_three():
    g = bundle(3)
    g_prime, cert = simplify_equal_case(g, 3, build_h3())
    assert cert.c == 2 and cert.edge_count == 3
    assert cert.predicted_factor() == 8
    assert g_prime.is_simple()
    assert g_prime.vertex_count == 2 + 3 * 4
    assert recount_certificate(g, g_prime, cert)[2]
    assert count_assignments(g_prime, 3) == 8 * 6


def test_simplify_k4():
    g = complete(4)
    g_prime, cert = simplify_equal_case(g, 3, build_h3())
    assert cert.predicted_factor() == 2**6
    assert recount_certificate(g, g_prime, cert)[2]


def test_simplify_random_cubic_multigraphs():
    rng = random.Random(314)
    spec = build_h3()
    for _ in range(6):
        vc, edges = random_regular_multigraph(rng, 3, rng.choice((2, 4)))
        g = MultiGraph(vc, edges)
        g_prime, cert = simplify_equal_case(g, 3, spec)
        assert recount_certificate(g, g_prime, cert)[2]


def test_simplify_requires_matching_palette():
    with pytest.raises(PreconditionError, match="kappa == r"):
        simplify_equal_case(bundle(3), 4, build_h3())


def test_simplify_requires_regular_input():
    with pytest.raises(PreconditionError, match="not 3-regular"):
        simplify_equal_case(path(2), 3, build_h3())


def test_simplify_refuses_irregular_input_before_the_key_property(monkeypatch):
    def never(*args):
        raise AssertionError("key property checked before the input's regularity")

    monkeypatch.setattr(reduction, "verify_key_property", never)
    with pytest.raises(PreconditionError, match="not 3-regular"):
        simplify_equal_case(path(2), 3, petersen_open_spec())


def test_simplify_rejects_bad_gadget_with_report():
    with pytest.raises(KeyPropertyError, match="does not satisfy") as excinfo:
        simplify_equal_case(bundle(3), 3, petersen_open_spec())
    report = excinfo.value.report
    assert report is not None and not report.holds
    assert all(v == 0 for row in report.matrix for v in row)


# ---------------------------------------------------------------------------
# gadget selection


def test_select_gadget_table():
    assert select_gadget(3, 3, True).name == "h3"
    assert select_gadget(4, 4, True).name == "h4"
    assert select_gadget(5, 5, True).name == "h5"
    assert select_gadget(3, 3, False).name == "hstar:3:6"
    assert select_gadget(4, 3, False).name == "fnp:4:3"
    # a planar request above the native palette still gets the planar gadget
    assert select_gadget(4, 3, True).name == "h3"
    assert select_gadget(6, 5, False).name == "fnp:6:5"
    # hstar:5 has 120 vertices; h5 satisfies the key property at kappa 5
    assert select_gadget(5, 5, False).name == "h5"
    assert verify_key_property(select_gadget(5, 5, False), 5).holds


def test_select_gadget_refusals():
    with pytest.raises(PreconditionError, match="r=2 < 3"):
        select_gadget(3, 2, False)
    with pytest.raises(PreconditionError, match="kappa=3 < r=4"):
        select_gadget(3, 4, False)
    with pytest.raises(PreconditionError, match="Euler"):
        select_gadget(6, 6, True)


# The paper's hardness claim covers every kappa >= r >= 3, and planar graphs
# for r in {3, 4, 5}. fnp:7:5 is left out of the window for its cost.
PAPER_WINDOW = {
    True: {3: range(3, 7), 4: range(4, 7), 5: range(5, 7)},
    False: {3: range(3, 7), 4: range(4, 8), 5: range(5, 7)},
}


def test_select_gadget_covers_paper_window():
    g = bundle(2)
    for planar, by_r in PAPER_WINDOW.items():
        for r, kappas in by_r.items():
            for kappa in kappas:
                spec = select_gadget(kappa, r, planar)
                where = (spec.name, kappa, r, planar)
                if kappa == r:
                    # the extension matrix is c*I with c > 0: the splice applies
                    a, b = decompose_extension(spec.gadget, kappa)
                    assert b == 0 and a > 0, where
                    continue
                system = interpolation_pipeline(g, kappa, spec.gadget)
                assert not system.derived, where
                # lambda1 - lambda2 = kappa * b and lambda2 = a - b
                b, rest = divmod(system.lambda1 - system.lambda2, kappa)
                a = system.lambda2 + b
                assert rest == 0 and b != 0 and a != b, where
                assert system.recovered == count_assignments(g, kappa), where
    for kappa in (6, 7):
        with pytest.raises(PreconditionError, match="Euler"):
            select_gadget(kappa, 6, True)


# ---------------------------------------------------------------------------
# interpolation pipeline


def test_pipeline_recovers_bundle_counts():
    h3 = build_h3().gadget
    system = interpolation_pipeline(bundle(3), 4, h3)
    assert system.m == 3
    assert (system.lambda1, system.lambda2) == (72, 8)
    assert system.column_values == (512, 4608, 41472, 373248)
    assert system.rows == (
        3403776,
        1254019301376,
        467989161735880704,
        174675693714116783898624,
    )
    assert system.solution == (
        Fraction(6),
        Fraction(9),
        Fraction(0),
        Fraction(9),
    )
    assert system.recovered == 24
    assert interpolation_pipeline(bundle(3), 5, h3).recovered == 60


def test_pipeline_simple_input_needs_no_rows():
    # no parallel edges means m = 0: one row, count recovered directly
    system = interpolation_pipeline(complete(4), 4, build_h3().gadget)
    assert system.m == 0
    assert system.recovered == count_assignments(complete(4), 4)


def test_pipeline_all_edges_selector():
    g = bundle(2)
    system = interpolation_pipeline(g, 4, build_h3().gadget, range(g.edge_count))
    assert system.m == 2
    assert system.recovered == count_assignments(g, 4)


def test_pipeline_refuses_an_out_of_range_edge_index():
    with pytest.raises(PreconditionError, match="edge index 2 out of range"):
        interpolation_pipeline(bundle(2), 4, build_h3().gadget, [0, 2])


def test_pipeline_accepts_plain_gadget_graph():
    derived = derive_distinct_diagonal(c4_gadget(), 3)
    system = interpolation_pipeline(bundle(2), 3, derived)
    assert (system.lambda1, system.lambda2) == (192, -24)
    assert system.recovered == count_assignments(bundle(2), 3) == 6


def test_pipeline_negative_lambda2_from_spec():
    # h3 at kappa=6 has a < b, so lambda2 < 0; recovery must still be exact
    g = bundle(2)
    system = interpolation_pipeline(g, 6, build_h3().gadget)
    assert system.lambda2 < 0
    assert system.recovered == count_assignments(g, 6) == 30


def test_pipeline_derives_when_a_equals_b():
    # c4 has a = b = 2 at kappa 3; the pipeline runs on its derivation
    system = interpolation_pipeline(bundle(2), 3, c4_gadget())
    assert system.derived
    assert (system.lambda1, system.lambda2) == (192, -24)
    assert system.recovered == count_assignments(bundle(2), 3) == 6


def test_pipeline_refuses_a_derivation_that_keeps_a_equal_to_b(monkeypatch):
    # the derived gadget is not derived again
    monkeypatch.setattr(reduction, "_derived_gadget", lambda f: f)
    with pytest.raises(PreconditionError, match="still has a = b = 2 at kappa=3"):
        interpolation_pipeline(bundle(2), 3, c4_gadget())


def test_pipeline_refuses_zero_signature():
    with pytest.raises(PreconditionError, match="identically zero"):
        interpolation_pipeline(bundle(3), 3, petersen_open_spec().gadget)


def test_pipeline_refuses_degenerate_b_zero():
    with pytest.raises(PreconditionError, match="palette-equal reduction"):
        interpolation_pipeline(bundle(3), 3, build_h3().gadget)


# h3, h4, fnp:4:3 and fnp:5:4 one to three colors above r (h3 and h4 at
# kappa 6 have lambda2 < 0), and c4 at kappa 3, whose a = b makes the
# pipeline derive
_GADGETS = {"c4": c4_gadget()}
_GADGETS.update((name, parse_gadget_name(name).gadget) for name in ("h3", "h4", "fnp:4:3", "fnp:5:4"))
PIPELINE_CASES = [
    (name, r + k) for name, r in (("h3", 3), ("h4", 4), ("fnp:4:3", 3), ("fnp:5:4", 4))
    for k in (1, 2, 3)
] + [("c4", 3)]


@functools.cache
def _signature_used(name, kappa):
    """(derived, (a, b)) of the gadget the pipeline should chain."""
    gadget = _GADGETS[name]
    a, b = decompose_extension(gadget, kappa)
    derived = a == b != 0
    if derived:
        a, b = decompose_extension(reduction._derived_gadget(gadget), kappa)
    return derived, (a, b)


def test_pipeline_matches_the_unreduced_oracle():
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from(PIPELINE_CASES),
        everything=st.booleans(),
        edges=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1]),
            max_size=6,
        ),
    )
    @example(case=("c4", 3), everything=False, edges=[(0, 1), (0, 1), (1, 2)])
    @example(case=("h3", 6), everything=True, edges=[(0, 1), (1, 2), (1, 2)])
    @example(case=("h4", 5), everything=False, edges=[(0, 1), (1, 2)])
    def check(case, everything, edges):
        name, kappa = case
        g = MultiGraph(5, edges)
        selected = range(g.edge_count) if everything else None
        system = interpolation_pipeline(g, kappa, _GADGETS[name], selected)
        chained = g.edge_indices(range(g.edge_count)) if everything else g.parallel_edge_indices()
        derived, (a, b) = _signature_used(name, kappa)
        lam1, lam2, columns, rows, solution, count = oracle_interpolation(
            a, b, kappa, len(chained),
            lambda weights: count_weighted_assignments(g, kappa, chained, weights),
        )
        assert system == reduction.StratifiedSystem(
            len(chained), lam1, lam2, columns, rows, solution, count, derived
        )
        assert count == count_assignments(g, kappa)
        seen.update(
            label for label, hit in (
                ("lambda2 < 0", lam2 < 0), ("derived", derived), ("m = 0", not chained)
            ) if hit
        )

    check()
    assert seen == {"lambda2 < 0", "derived", "m = 0"}


def _ring(n):
    """A cycle on n vertices with every other edge doubled: m = n parallel
    edges."""
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n)] * (2 - i % 2)
    return MultiGraph(n, edges)


@pytest.mark.parametrize(
    "g, kappa, name",
    [(bundle(3), 4, "h3"), (bundle(2), 6, "h3"), (bundle(3), 6, "h4"), (_ring(12), 4, "fnp:4:3"),
     (_ring(8), 5, "fnp:5:4"), (bundle(2), 3, "c4")],
)
def test_pipeline_solution_satisfies_the_reported_system(g, kappa, name):
    system = interpolation_pipeline(g, kappa, _GADGETS[name])
    scale = kappa ** system.m
    assert all(scale % x.denominator == 0 for x in system.solution)
    # every reported equation, exactly, over the common denominator kappa^m
    terms = [x.numerator * (scale // x.denominator) for x in system.solution]
    for row in system.rows:
        terms = [t * c for t, c in zip(terms, system.column_values)]
        assert sum(terms) == scale * row
    assert sum(system.solution) == system.recovered == count_assignments(g, kappa)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pipeline_refuses_a_perturbed_reduced_row(monkeypatch, n):
    # the reduced rows that the solution read off the strata is checked against
    rows = reduction._stratum_rows

    def off_by_one(strata, weights):
        out = rows(strata, weights)
        out[n - 1] += 1
        return out

    monkeypatch.setattr(reduction, "_stratum_rows", off_by_one)
    with pytest.raises(RuntimeError, match="^internal: "):
        interpolation_pipeline(bundle(3), 4, build_h3().gadget)


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_pipeline_substitution_refuses_a_changed_solution_entry(monkeypatch, i):
    solve = reduction._strata_solution

    def off_by_one(strata, kappa):
        y = solve(strata, kappa)
        y[i] += 1
        return y

    monkeypatch.setattr(reduction, "_strata_solution", off_by_one)
    with pytest.raises(RuntimeError, match="^internal: .*substitution"):
        interpolation_pipeline(bundle(3), 4, build_h3().gadget)


def _reduced_system(strata, kappa, mu1, mu2):
    """The pipeline's reduced nodes and rows S_n for the given strata."""
    m = len(strata) - 1
    nodes = [mu1 ** i * mu2 ** (m - i) for i in range(m + 1)]
    weights = [
        (mu1 ** n - mu2 ** n + kappa * mu2 ** n, mu1 ** n - mu2 ** n) for n in range(1, m + 2)
    ]
    return nodes, reduction._stratum_rows(strata, weights)


@settings(max_examples=60, deadline=None)
@given(st.data())
@example(data=None)
def test_strata_solution_solves_the_reduced_system(data):
    if data is None:  # m = 12, every stratum zero, mu2 < 0
        kappa, mu1, mu2, strata = 7, 9, -8, [0] * 13
    else:
        size = data.draw(st.integers(min_value=1, max_value=13))
        kappa = data.draw(st.integers(min_value=1, max_value=10 ** 6))
        mu1 = data.draw(st.integers(min_value=2, max_value=40))
        mu2 = data.draw(st.integers(min_value=1 - mu1, max_value=mu1 - 1).filter(bool))
        stratum = st.one_of(st.just(0), st.integers(min_value=0, max_value=2 ** 200))
        strata = data.draw(st.lists(stratum, min_size=size, max_size=size))
    m = len(strata) - 1
    nodes, rows = _reduced_system(strata, kappa, mu1, mu2)
    y = reduction._strata_solution(strata, kappa)
    assert all(type(v) is int for v in y)
    assert y == oracle_solve_vandermonde(nodes, rows)
    # the closed form, term by term
    assert y == [
        sum((-1) ** (m - j - i) * math.comb(m - j, i) * kappa ** j * strata[j]
            for j in range(m - i + 1))
        for i in range(m + 1)
    ]
    assert sum(y) == kappa ** m * strata[-1]


def test_pipeline_runs_the_engine_once_past_the_signature_and_solves_nothing(monkeypatch):
    g, kappa, gadget = _ring(12), 4, _GADGETS["fnp:4:3"]
    count = count_assignments(g, kappa)
    runs = []
    engine = counting._run
    monkeypatch.setattr(counting, "_run", lambda *args: runs.append(1) or engine(*args))
    decompose_extension(gadget, kappa)
    signature_runs = len(runs)
    runs.clear()
    system = interpolation_pipeline(g, kappa, gadget)
    assert system.m == 12 and system.recovered == count
    assert signature_runs == 2 and len(runs) == signature_runs + 1


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_spec_and_derived():
    for n in (1, 2):
        assert cross_validate_omega_n(bundle(3), 4, build_h3().gadget, (0, 1, 2), n)
    derived = derive_distinct_diagonal(c4_gadget(), 3)
    for n in (1, 2):
        assert cross_validate_omega_n(bundle(2), 3, derived, (0, 1), n)


def test_cross_validate_all_edges_on_cycle():
    assert cross_validate_omega_n(cycle(3), 4, build_h3().gadget, range(3), 1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("gadget", ["h3", "two free danglers"])
def test_cross_validate_at_one_color(gadget, n):
    # h3 has no 1-coloring; two danglers on isolated vertices have one
    g = build_h3().gadget if gadget == "h3" else GadgetGraph(MultiGraph(2, []), (0, 1))
    edge = MultiGraph(2, [(0, 1)])
    assert cross_validate_omega_n(edge, 1, g, [0], n)


def test_pipeline_refuses_one_color():
    with pytest.raises(PreconditionError, match="at least 2 colors"):
        interpolation_pipeline(bundle(2), 1, build_h3().gadget)


def test_cross_validate_length_cap():
    with pytest.raises(PreconditionError, match="n <= 2"):
        cross_validate_omega_n(bundle(3), 4, build_h3().gadget, (0, 1, 2), 3)
    with pytest.raises(PreconditionError, match="n <= 2"):
        cross_validate_omega_n(bundle(3), 4, build_h3().gadget, (0, 1, 2), 0)
