"""Matrix identities, the eigenvalues of a*I + b*(J - I), and a gadget's
signature placed as an edge weight."""

import random

import pytest

from edgecolorkit import (
    build_h3,
    count_assignments,
    count_weighted_assignments,
    decompose_extension,
    eigenvalues_ab,
    replace_edges,
)

from corpus import bundle
from oracles import matrix_identity, matrix_mul, matrix_ones, matrix_power


# ---------------------------------------------------------------------------
# placement


def test_place_gadget_matrix_equals_physical_replacement():
    # h3's matrix is a*I + b*(J - I), so weighting every edge by (a, b)
    # must count the graph with h3 spliced into every edge.
    g = bundle(3)
    kappa = 4
    h3 = build_h3().gadget
    pair = decompose_extension(h3, kappa)
    expanded, _ = replace_edges(g, h3, range(g.edge_count))
    assert count_weighted_assignments(g, kappa, range(g.edge_count), [pair]) == [
        count_assignments(expanded, kappa)
    ]


# ---------------------------------------------------------------------------
# matrix helpers and eigenvalues


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
