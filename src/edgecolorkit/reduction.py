"""Reductions that transfer coloring counts across palette sizes.

Two regimes. When the palette size equals the gadget regularity (kappa = r)
a verified gadget turns any r-regular instance G into a simple instance G'
with count(G', kappa) = c^{|E(G)|} * count(G, kappa): every edge is spliced
open with a gadget copy, and each copy contributes an independent factor c.

When kappa > r no single splice preserves the count, but splicing chains of
growing length yields a stratified linear system. The gadget's extension
matrix is domain invariant, A = (a-b)I + bJ, with eigenvalues
lambda1 = a + (kappa-1)b on the all-ones vector and lambda2 = a - b on its
orthogonal complement. Replacing a fixed edge set F (|F| = m) by n-chains
multiplies each original coloring's weight by a product over F of lambda1
or lambda2 powers, depending only on how many edges of F are bichromatic
under that coloring. Grouping colorings by that number i gives unknowns
x_0..x_m with

    Holant(Omega_n) = sum_i x_i * (lambda1^i * lambda2^(m-i))^n

for n = 1..m+1: a Vandermonde system in the merged column values, whose
unknowns sum to the original count. With a = b != 0 the columns collide
(lambda2 = 0): the pipeline derives first.

The rows never build the chains. A^n = alpha_n*I + beta_n*(J - I) with
beta_n = (lambda1^n - lambda2^n) / kappa and alpha_n = beta_n + lambda2^n,
so row n is a weighted count of g on the frontier engine, and one engine
run serves every row: it returns the strata M_0..M_m, M_j the colorings
with j edges of F ordinary and the other m - j cut into two halves colored
on their own, and every row is a polynomial in them.
cross_validate_omega_n checks the same weights on explicit chains.

The system is taken in lowest terms: lambda1 and lambda2 share d = their
gcd, and row n and every column carry the known factors d^(n*m) and d^m,
so the weights and the nodes are taken over mu = lambda / d, with the
unknowns scaled to kappa^m * x_i. The strata fix those unknowns in closed
form, a binomial transform with integer coefficients, so nothing is
solved: the solution is substituted into every reduced equation before it
is used, and the recovered count is M_m, the colorings with F left
ordinary (interpolation_pipeline has the identities). The reported rows,
columns and solution are rebuilt from it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import Record
from .counting import (
    _stratum_rows,
    _weighted_strata,
    count_assignments,
    count_extensions,
    count_weighted_assignments,
    decompose_extension,
)
from .errors import KeyPropertyError, PreconditionError
from .gadgets import (
    GadgetSpec,
    _derived_gadget,
    build_f_nonplanar,
    build_h3,
    build_h4,
    build_h5_icosahedron,
    build_h_star,
    chain_graph,
    verify_key_property,
)
from .graphs import GadgetGraph, MultiGraph, replace_edges
from .holant import eigenvalues_ab


class ReductionCertificate(Record):
    """Asserts count(g_prime, kappa) = c ** edge_count * count(g, kappa)
    for the instance the certificate was issued against."""

    gadget_name: str
    kappa: int
    r: int
    c: int
    edge_count: int

    def predicted_factor(self) -> int:
        return self.c ** self.edge_count


def simplify_equal_case(
    g: MultiGraph, kappa: int, spec: GadgetSpec
) -> tuple[MultiGraph, ReductionCertificate]:
    """Splice a verified gadget into every edge of an r-regular multigraph.

    kappa == r and the input's regularity are checked first, then the
    gadget's key property at this kappa, so a refused input costs no
    engine run; a key-property failure carries the full report. The result
    is simple even when g has parallel edges, since every original edge is
    subdivided through a fresh copy.
    """
    if kappa != spec.r:
        raise PreconditionError(
            "equal-palette reduction needs kappa == r (got kappa=%d, r=%d)"
            % (kappa, spec.r)
        )
    if not g.is_regular(spec.r):
        raise PreconditionError(
            "input graph is not %d-regular (degrees %s)"
            % (spec.r, sorted(set(g.degrees())))
        )
    report = verify_key_property(spec, kappa)
    if not report.holds:
        raise KeyPropertyError(
            "gadget %s does not satisfy the key property at kappa=%d"
            % (spec.name, kappa),
            report,
        )
    g_prime, _ = replace_edges(g, spec.gadget, range(g.edge_count))
    cert = ReductionCertificate(spec.name, kappa, spec.r, report.c, g.edge_count)
    return g_prime, cert


def recount_certificate(
    g: MultiGraph, g_prime: MultiGraph, cert: ReductionCertificate
) -> tuple[int, int, bool]:
    """Count both sides once: (count of g, count of g_prime, whether they
    satisfy the certified identity)."""
    count_g = count_assignments(g, cert.kappa)
    count_g_prime = count_assignments(g_prime, cert.kappa)
    return count_g, count_g_prime, count_g_prime == cert.predicted_factor() * count_g


def select_gadget(kappa: int, r: int, want_planar: bool) -> GadgetSpec:
    """Pick a construction by palette size, regularity, and planarity need.

    Purely structural: no matrices are evaluated here. Planar and r-regular
    forces r in {3, 4, 5} (a simple planar graph has average degree below
    6), served by the three fixed gadgets. Non-planar equal-palette cases
    use the matchings union, except r = 5, where h5 (12 vertices) replaces
    hstar:5 (120 vertices); kappa > r uses the two-hub construction.
    """
    if r < 3:
        raise PreconditionError("no gadget family for r=%d < 3" % r)
    if kappa < r:
        raise PreconditionError(
            "no gadget for kappa=%d < r=%d: an r-regular graph has no proper"
            " edge coloring with fewer than r colors" % (kappa, r)
        )
    if want_planar:
        builders = {3: build_h3, 4: build_h4, 5: build_h5_icosahedron}
        if r not in builders:
            raise PreconditionError(
                "planar r-regular gadgets require r <= 5 (Euler bound); got r=%d" % r
            )
        return builders[r]()
    if kappa == r:
        return build_h5_icosahedron() if r == 5 else build_h_star(kappa)
    return build_f_nonplanar(kappa, r)[0]


class StratifiedSystem(Record):
    """The solved interpolation system: chain lengths n = 1..m+1 down the
    rows, merged eigenvalue products lambda1^i * lambda2^(m-i) across the
    columns, exact rational solution, the recovered count (the sum of the
    unknowns), and whether the chains were built from the gadget
    derive_distinct_diagonal makes of the one passed in. The solution is
    read off in lowest terms (gcd(lambda1, lambda2) divided out); rows,
    columns and solution are the unreduced system's, rebuilt exactly, and
    every solution denominator divides kappa^m."""

    m: int
    lambda1: int
    lambda2: int
    column_values: tuple[int, ...]
    rows: tuple[int, ...]
    solution: tuple[Fraction, ...]
    recovered: int
    derived: bool


def _substitute(nodes: Sequence[int], rhs: Sequence[int], solution: Sequence[int]) -> None:
    """Check sum_j solution[j] * nodes[j]^n = rhs[n-1] for every n =
    1..len(nodes), exactly in integers. A mismatch raises RuntimeError."""
    terms = solution
    for n, value in enumerate(rhs, 1):
        terms = [t * node for t, node in zip(terms, nodes)]
        if sum(terms) != value:
            raise RuntimeError(
                "internal: Vandermonde solution fails equation n=%d on substitution" % n
            )


def _strata_solution(strata: Sequence[int], kappa: int) -> list[int]:
    """The reduced unknowns y_0..y_m read off the strata M_0..M_m:

        y_i = sum_{j <= m-i} (-1)^(m-j-i) * C(m-j, i) * kappa^j * M_j.

    With c_t = kappa^(m-t) * M_(m-t), y_i is the coefficient of z^i in
    sum_t c_t * (z - 1)^t, so a Taylor shift by -1 (Horner's scheme
    repeated, m(m+1)/2 subtractions) computes them all."""
    m = len(strata) - 1
    y = [kappa ** (m - t) * strata[m - t] for t in range(m + 1)]
    for i in range(m):
        for t in range(m - 1, i - 1, -1):
            y[t] -= y[t + 1]
    return y


def _chain_weight(a: int, b: int, kappa: int, n: int) -> tuple[int, int]:
    """(alpha_n, beta_n) with A^n = alpha_n*I + beta_n*(J - I) for
    A = a*I + b*(J - I) over kappa colors. A^n = lambda2^n * I +
    (lambda1^n - lambda2^n) / kappa * J, and the division is exact since
    lambda1 - lambda2 = kappa * b."""
    lam1, lam2 = eigenvalues_ab(a, b, kappa)
    beta = (lam1 ** n - lam2 ** n) // kappa
    return beta + lam2 ** n, beta


def interpolation_pipeline(
    g: MultiGraph,
    kappa: int,
    gadget: GadgetGraph,
    selected: Optional[Iterable[int]] = None,
) -> StratifiedSystem:
    """Recover count(g, kappa) from chain-replaced instances.

    gadget is the graph the chains are built from (a GadgetSpec's
    .gadget); its signature (a, b) from decompose_extension must have
    b != 0. When a = b != 0 the pipeline runs once on the graph
    derive_distinct_diagonal builds, and the result's derived is true.

    selected lists the indices of the replaced edge set F, checked by
    g.edge_indices (None: the parallel edges, so simple graphs go through
    with m = 0 and multigraphs touch only what they must). Each row n is
    the Holant of g with the gadget chain's matrix A^n placed on F, which
    counts colorings of the n-chain-replaced graph without building it: a
    weighted count with the closed-form weight (alpha_n, beta_n) of A^n on
    each edge of F. One engine run (_weighted_strata) gives the strata
    M_0..M_m, M_j the colorings that put j edges of F in [same] and the
    rest in [any], and every row is a polynomial in them.

    The rows and columns share a known factor, so the system is taken in
    lowest terms. Let d = gcd(lambda1, lambda2), mu1 = lambda1 / d and
    mu2 = lambda2 / d (mu2 may be negative), and X_n = mu1^n - mu2^n. Then
    beta_n = d^n X_n / kappa and alpha_n - beta_n = lambda2^n = d^n mu2^n,
    so

        r_n = sum_j M_j (alpha_n - beta_n)^j beta_n^(m-j)
            = d^(n*m) / kappa^m * sum_j M_j (kappa mu2^n)^j X_n^(m-j)
            = d^(n*m) * S_n / kappa^m,

    with S_n from _stratum_rows and the weights (X_n + kappa mu2^n, X_n).
    Column i is d^m * nu_i with nu_i = mu1^i * mu2^(m-i), so dividing
    equation n by d^(n*m) / kappa^m leaves

        sum_i y_i * nu_i^n = S_n,  y_i = kappa^m * x_i.

    Expanding X_n^(m-j) binomially in mu1^n and mu2^n writes S_n in the
    powers nu_i^n, which gives the solution in closed form:

        y_i = sum_{j <= m-i} (-1)^(m-j-i) C(m-j, i) kappa^j M_j,

    integers by construction (_strata_solution). The nodes are distinct
    and nonzero, so this is the system's only solution; it is still
    substituted into every reduced equation before it is used. The y_i sum
    to kappa^m M_m, since sum_i C(m-j, i) (-1)^(m-j-i) = 0 unless j = m:
    the recovered count is M_m, the colorings with every edge of F an
    ordinary edge. x_i = y_i / kappa^m, and r_n is rebuilt by an exact
    division. A failed substitution, a remainder in a row, or unknowns
    that do not sum to kappa^m M_m is an internal error.
    """
    selected = g.parallel_edge_indices() if selected is None else g.edge_indices(selected)
    a, b = decompose_extension(gadget, kappa)
    derived = a == b != 0
    if derived:
        gadget = _derived_gadget(gadget)
        a, b = decompose_extension(gadget, kappa)
    if a == b:
        if b == 0:
            raise PreconditionError("gadget has identically zero signature at kappa=%d" % kappa)
        raise PreconditionError(
            "gadget still has a = b = %d at kappa=%d after derivation" % (a, kappa)
        )
    if b == 0:
        raise PreconditionError(
            "gadget has b = 0 at kappa=%d: the palette-equal reduction"
            " applies and interpolation degenerates" % kappa
        )
    lam1, lam2 = eigenvalues_ab(a, b, kappa)
    if not lam1 > abs(lam2):
        raise RuntimeError(
            "internal: expected lambda1 > |lambda2| from a nonnegative matrix"
            " with b > 0 (got %d, %d)" % (lam1, lam2)
        )
    m = len(selected)
    d = math.gcd(lam1, lam2)
    mu1, mu2 = lam1 // d, lam2 // d
    nodes = [mu1 ** i * mu2 ** (m - i) for i in range(m + 1)]
    if len(set(nodes)) != len(nodes):
        raise RuntimeError(
            "internal: merged column values collided despite lambda1 > |lambda2|"
        )
    weights = []
    for n in range(1, m + 2):
        x = mu1 ** n - mu2 ** n
        weights.append((x + kappa * mu2 ** n, x))
    strata = _weighted_strata(g, kappa, selected)
    reduced = _stratum_rows(strata, weights)
    scaled = _strata_solution(strata, kappa)
    _substitute(nodes, reduced, scaled)
    scale = kappa ** m
    if sum(scaled) != scale * strata[-1]:
        raise RuntimeError("internal: the unknowns do not sum to kappa^m * M_m")
    lift = d ** m
    rows, factor = [], 1
    for n, s in enumerate(reduced, 1):
        factor *= lift
        row, rest = divmod(factor * s, scale)
        if rest:
            raise RuntimeError("internal: row n=%d is not an integer" % n)
        rows.append(row)
    return StratifiedSystem(
        m,
        lam1,
        lam2,
        tuple(lift * v for v in nodes),
        tuple(rows),
        tuple(Fraction(y, scale) for y in scaled),
        strata[-1],
        derived,
    )


def cross_validate_omega_n(
    g: MultiGraph,
    kappa: int,
    gadget: GadgetGraph,
    selected: Iterable[int],
    n: int,
) -> bool:
    """Check one interpolation row the slow way: build the graph with an
    n-chain on each edge whose index is in selected, every gadget copy
    inlined as real vertices, and count its colorings directly. Guards the
    shortcut the pipeline relies on: the weighted count with A^n's entries
    (alpha_n, beta_n) on the selected edges, from the closed form the
    pipeline's rows use. The expanded instance grows with n, so n is
    capped at 2."""
    if not (1 <= n <= 2):
        raise PreconditionError("direct cross-validation is capped at n <= 2")
    chain = chain_graph(gadget, n)
    selected = g.edge_indices(selected)
    expanded, _ = replace_edges(g, chain, selected)
    direct = count_assignments(expanded, kappa)
    # one color has no off-diagonal entry: an edge's halves always agree,
    # so beta_n never counts and b = 0 stands in
    if kappa > 1:
        a, b = decompose_extension(gadget, kappa)
    else:
        a, b = count_extensions(gadget, kappa, (0, 0)), 0
    weight = _chain_weight(a, b, kappa, n)
    return direct == count_weighted_assignments(g, kappa, selected, [weight])[0]
