"""DIMACS subset parsing and the off-by-one model count transform."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    CnfFormula,
    ParseError,
    PreconditionError,
    count_sat,
    parse_dimacs,
    render_dimacs,
    transform_phi_prime,
)
from edgecolorkit.cnf import BRUTE_FORCE_VARIABLE_CAP, MAX_VARIABLES

from oracles import oracle_count_sat, random_cnf


# ---------------------------------------------------------------------------
# model


def test_formula_validates_literals():
    CnfFormula(2, [(1, -2), ()])
    with pytest.raises(ValueError, match="literal 0"):
        CnfFormula(2, [(0,)])
    with pytest.raises(ValueError, match="literal 3"):
        CnfFormula(2, [(3,)])
    with pytest.raises(ValueError, match="literal -3"):
        CnfFormula(2, [(-3,)])
    with pytest.raises(ValueError, match="nonnegative"):
        CnfFormula(-1, [])
    with pytest.raises(TypeError):
        CnfFormula(2, [(1.5, -2)])
    with pytest.raises(TypeError):
        CnfFormula(2.0, [(1, -2)])


# ---------------------------------------------------------------------------
# DIMACS subset


def test_parse_dimacs_round_trip():
    text = "c a comment\n\np cnf 3 2\n1 -2 0\nc mid comment\n2 3 0\n"
    phi = parse_dimacs(text)
    assert phi.variable_count == 3
    assert phi.clauses == ((1, -2), (2, 3))
    assert parse_dimacs(render_dimacs(phi)) == phi


def test_parse_dimacs_multiline_and_split_clauses():
    phi = parse_dimacs("p cnf 3 2\n1 -2\n0 2\n3 0\n")
    assert phi.clauses == ((1, -2), (2, 3))


def test_parse_dimacs_empty_clause():
    phi = parse_dimacs("p cnf 2 1\n0\n")
    assert phi.clauses == ((),)
    assert count_sat(phi) == 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2 0\n", "line 1: clause data before header"),
        ("p cnf 2 1\np cnf 2 1\n", "line 2: duplicate header"),
        ("p cnf x 1\n", "line 1: malformed header"),
        ("p dnf 2 1\n", "line 1: malformed header"),
        ("p cnf 2\n", "line 1: malformed header"),
        ("p cnf -2 1\n", "line 1: negative header"),
        ("p cnf 2 1\n1 a 0\n", "line 2: bad token"),
        ("", "missing 'p cnf' header"),
        ("p cnf 2 1\n1 2\n", "not terminated"),
        ("p cnf 2 2\n1 0\n", "declares 2 clauses, found 1"),
        ("p cnf 2 1\n1 3 0\n", "literal 3 out of range"),
    ],
)
def test_parse_dimacs_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_dimacs(text)


def test_parse_dimacs_caps_the_variable_count():
    assert parse_dimacs("p cnf %d 0\n" % MAX_VARIABLES).variable_count == MAX_VARIABLES
    with pytest.raises(PreconditionError, match="line 2: variable count 1000001 exceeds the cap"):
        parse_dimacs("c big\np cnf %d 0\n" % (MAX_VARIABLES + 1))


def test_render_dimacs_shape():
    phi = CnfFormula(2, [(1, -2), ()])
    assert render_dimacs(phi) == "p cnf 2 2\n1 -2 0\n0\n"


# ---------------------------------------------------------------------------
# counting


def test_count_sat_hand_values():
    assert count_sat(CnfFormula(2, [(1, 2), (-1, -2)])) == 2
    assert count_sat(CnfFormula(3, [])) == 8
    assert count_sat(CnfFormula(0, [])) == 1
    assert count_sat(CnfFormula(1, [(1,), (-1,)])) == 0


def test_count_sat_matches_oracle():
    rng = random.Random(61)
    for _ in range(150):
        n, clauses = random_cnf(rng, max_variables=8)
        phi = CnfFormula(n, clauses)
        assert count_sat(phi) == oracle_count_sat(n, clauses), (n, clauses)


def per_assignment_count(n, clauses):
    """Reference count: every one of the 2^n assignments against clause masks."""
    masks = []
    for clause in clauses:
        pos = sum({1 << (lit - 1) for lit in clause if lit > 0})
        neg = sum({1 << (-lit - 1) for lit in clause if lit < 0})
        masks.append((pos, neg))
    full = (1 << n) - 1
    return sum(
        all(a & pos or (a ^ full) & neg for pos, neg in masks) for a in range(1 << n)
    )


@pytest.mark.parametrize("n", range(19))
def test_count_sat_matches_per_assignment_loop(n):
    # Variables 17 and 18 lie above the 16-variable split.
    rng = random.Random(1000 + n)

    def literal(lowest=1):
        return rng.choice((1, -1)) * rng.randint(lowest, n)

    for _ in range(3):
        clauses = []
        if n:
            clauses = [
                tuple(literal() for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, n))
            ]
            v = rng.randint(1, n)
            clauses.append((v, -v, literal()))  # tautology
            clauses.append((literal(),) * 2)  # repeated literal
            clauses.append((literal(min(17, n)), literal(min(17, n))))  # highest only
            rng.shuffle(clauses)
        expected = per_assignment_count(n, clauses)
        assert count_sat(CnfFormula(n, clauses)) == expected, (n, clauses)
        assert count_sat(CnfFormula(n, clauses + [()])) == 0


def test_transform_adds_one_model_at_the_cap():
    rng = random.Random(23)
    n = BRUTE_FORCE_VARIABLE_CAP - 1
    clauses = [
        tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
        for _ in range(40)
    ]
    phi = CnfFormula(n, clauses)
    prime = transform_phi_prime(phi)
    assert prime.variable_count == BRUTE_FORCE_VARIABLE_CAP
    models = count_sat(phi)
    assert 0 < models < 2 ** n
    assert count_sat(prime) == models + 1


def test_count_sat_cap():
    assert BRUTE_FORCE_VARIABLE_CAP == 24
    assert count_sat(CnfFormula(24, [(i,) for i in range(1, 25)])) == 1
    with pytest.raises(PreconditionError, match="25 variables exceeds the brute-force cap of 24"):
        count_sat(CnfFormula(25, [(i,) for i in range(1, 26)]))


# ---------------------------------------------------------------------------
# the transform


def test_transform_structure():
    phi = CnfFormula(2, [(1, -2)])
    prime = transform_phi_prime(phi)
    assert prime.variable_count == 3
    assert prime.clauses == ((-3, 1, -2), (3, 1), (3, 2))


def test_transform_adds_exactly_one_model():
    rng = random.Random(77)
    for i in range(200):
        n, clauses = random_cnf(rng, max_variables=10, force_unsat=(i % 4 == 0))
        phi = CnfFormula(n, clauses)
        assert count_sat(transform_phi_prime(phi)) == count_sat(phi) + 1


def test_transform_corollaries():
    unsat = CnfFormula(2, [(1,), (-1,)])
    assert count_sat(transform_phi_prime(unsat)) == 1
    sat = CnfFormula(2, [(1, 2)])
    assert count_sat(transform_phi_prime(sat)) >= 2


def test_transform_of_empty_formula():
    phi = CnfFormula(0, [])
    prime = transform_phi_prime(phi)
    assert prime.variable_count == 1
    assert count_sat(prime) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_identity_property(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    literals = st.integers(min_value=-n, max_value=n).filter(lambda v: v != 0)
    clauses = data.draw(
        st.lists(st.lists(literals, max_size=4).map(tuple), max_size=10)
    ) if n else []
    phi = CnfFormula(n, clauses)
    assert count_sat(transform_phi_prime(phi)) == count_sat(phi) + 1
