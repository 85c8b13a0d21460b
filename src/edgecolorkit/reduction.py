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

for n = 1..m+1: a Vandermonde system in the merged column values. Solved
exactly over the rationals, the unknowns sum to the original count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .counting import count_assignments, extension_matrix
from .errors import KeyPropertyError, PreconditionError
from .gadgets import (
    GadgetSpec,
    build_f_nonplanar,
    build_h3,
    build_h4,
    build_h5_icosahedron,
    build_h_star,
    chain_graph,
    verify_key_property,
)
from .graphs import EdgeSelector, GadgetGraph, MultiGraph, replace_edges
from .holant import (
    ad_grid,
    decompose_domain_invariant,
    eigenvalues_ab,
    eval_grid,
    matrix_power,
    place_binary_on_edges,
    signature_from_matrix,
)


@dataclass(frozen=True)
class ReductionCertificate:
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

    The gadget's key property is checked first at this kappa; a failure
    carries the full report. The result is simple even when g has parallel
    edges, since every original edge is subdivided through a fresh copy.
    """
    if kappa != spec.r:
        raise PreconditionError(
            "equal-palette reduction needs kappa == r (got kappa=%d, r=%d)"
            % (kappa, spec.r)
        )
    report = verify_key_property(spec, kappa)
    if not report.holds:
        raise KeyPropertyError(
            "gadget %s does not satisfy the key property at kappa=%d"
            % (spec.name, kappa),
            report,
        )
    if not g.is_regular(spec.r):
        raise PreconditionError(
            "input graph is not %d-regular (degrees %s)"
            % (spec.r, sorted(set(g.degrees())))
        )
    g_prime, _ = replace_edges(g, spec.gadget, EdgeSelector.all_edges())
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


def check_certificate(
    g: MultiGraph, g_prime: MultiGraph, cert: ReductionCertificate
) -> bool:
    """Recount both sides and test the certified identity."""
    return recount_certificate(g, g_prime, cert)[2]


def select_gadget(kappa: int, r: int, want_planar: bool) -> GadgetSpec:
    """Pick a construction by palette size, regularity, and planarity need.

    Purely structural: no matrices are evaluated here. Planar and r-regular
    forces r in {3, 4, 5} (a simple planar graph has average degree below
    6), served by the three fixed gadgets. Non-planar equal-palette cases
    use the matchings union; kappa > r uses the two-hub construction.
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
        return build_h_star(kappa)
    return build_f_nonplanar(kappa, r)[0]


@dataclass(frozen=True)
class StratifiedSystem:
    """The solved interpolation system: chain lengths n = 1..m+1 down the
    rows, merged eigenvalue products lambda1^i * lambda2^(m-i) across the
    columns, exact rational solution, and the recovered count (the sum of
    the unknowns)."""

    m: int
    lambda1: int
    lambda2: int
    column_values: tuple[int, ...]
    rows: tuple[int, ...]
    solution: tuple[Fraction, ...]
    recovered: int


def solve_vandermonde(nodes: Sequence[int], rhs: Sequence[int]) -> list[Fraction]:
    """Solve sum_j x_j * nodes[j]^n = rhs[n-1] for n = 1..len(nodes),
    exactly over the rationals.

    Nodes must be distinct and nonzero (the exponent starts at 1, so a zero
    node would contribute nothing to any equation).
    """
    if len(nodes) != len(rhs):
        raise PreconditionError(
            "need as many equations as unknowns (%d nodes, %d rhs values)"
            % (len(nodes), len(rhs))
        )
    if len(set(nodes)) != len(nodes):
        raise PreconditionError("interpolation nodes must be distinct")
    if any(v == 0 for v in nodes):
        raise PreconditionError("interpolation nodes must be nonzero")
    size = len(nodes)
    if size == 0:
        return []
    aug = [
        [Fraction(nodes[j]) ** (n + 1) for j in range(size)] + [Fraction(rhs[n])]
        for n in range(size)
    ]
    for col in range(size):
        pivot = next(row for row in range(col, size) if aug[row][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for row in range(size):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [v - factor * w for v, w in zip(aug[row], aug[col])]
    return [aug[row][size] for row in range(size)]


def _resolve_gadget(spec: Union[GadgetSpec, GadgetGraph]) -> tuple[GadgetGraph, str]:
    if isinstance(spec, GadgetGraph):
        return spec, "gadget"
    return spec.gadget, spec.name


def interpolation_pipeline(
    g: MultiGraph,
    kappa: int,
    spec: Union[GadgetSpec, GadgetGraph],
    selector: Optional[EdgeSelector] = None,
) -> StratifiedSystem:
    """Recover count(g, kappa) from chain-replaced instances.

    The selector fixes the replaced edge set F (default: the parallel
    edges, so simple graphs go through with m = 0 and multigraphs touch
    only what they must). Each row n evaluates the Holant of g with the
    gadget chain's matrix A^n placed on F, which counts colorings of the
    n-chain-replaced graph without building it. Requires the gadget matrix
    to be domain invariant with a != b; with a = b the two eigenvalues
    collide and the caller should pass the gadget through
    derive_distinct_diagonal first.
    """
    gadget, name = _resolve_gadget(spec)
    if selector is None:
        selector = EdgeSelector.parallel_only()
    matrix = extension_matrix(gadget, kappa)
    dec = decompose_domain_invariant(matrix)
    if dec is None:
        raise PreconditionError(
            "gadget %s is not domain invariant at kappa=%d" % (name, kappa)
        )
    a, b = dec
    if a == b:
        if b == 0:
            raise PreconditionError(
                "gadget %s has identically zero signature at kappa=%d"
                % (name, kappa)
            )
        raise PreconditionError(
            "gadget %s has a = b = %d at kappa=%d; derive_distinct_diagonal"
            " can produce a usable variant" % (name, a, kappa)
        )
    if b == 0:
        raise PreconditionError(
            "gadget %s has b = 0 at kappa=%d: the palette-equal reduction"
            " applies and interpolation degenerates" % (name, kappa)
        )
    lam1, lam2 = eigenvalues_ab(a, b, kappa)
    if not lam1 > abs(lam2):
        raise RuntimeError(
            "internal: expected lambda1 > |lambda2| from a nonnegative matrix"
            " with b > 0 (got %d, %d)" % (lam1, lam2)
        )
    selected = selector.select(g)
    m = len(selected)
    columns = tuple(lam1 ** i * lam2 ** (m - i) for i in range(m + 1))
    if len(set(columns)) != len(columns):
        raise RuntimeError(
            "internal: merged column values collided despite lambda1 > |lambda2|"
        )
    grid = ad_grid(g, kappa)
    rows = []
    for n in range(1, m + 2):
        sig = signature_from_matrix(matrix_power(matrix, n))
        placed = place_binary_on_edges(grid, EdgeSelector.explicit(selected), sig)
        rows.append(eval_grid(placed))
    solution = solve_vandermonde(columns, rows)
    total = sum(solution, Fraction(0))
    if total.denominator != 1 or total < 0:
        raise RuntimeError("internal: recovered count %s is not a nonnegative integer" % total)
    return StratifiedSystem(
        m, lam1, lam2, columns, tuple(rows), tuple(solution), int(total)
    )


def cross_validate_omega_n(
    g: MultiGraph,
    kappa: int,
    spec: Union[GadgetSpec, GadgetGraph],
    selector: EdgeSelector,
    n: int,
) -> bool:
    """Check one interpolation row the slow way: build the n-chain-replaced
    graph explicitly, with every gadget copy inlined as real vertices, and
    evaluate its grid directly. Guards the matrix-placement shortcut the
    pipeline relies on. The expanded instance grows with n, so n is capped
    at 2."""
    if not (1 <= n <= 2):
        raise PreconditionError("direct cross-validation is capped at n <= 2")
    gadget, _ = _resolve_gadget(spec)
    chain = chain_graph(gadget, n)
    expanded, _ = replace_edges(g, chain, selector)
    direct = eval_grid(ad_grid(expanded, kappa))
    matrix = extension_matrix(gadget, kappa)
    sig = signature_from_matrix(matrix_power(matrix, n))
    placed = place_binary_on_edges(
        ad_grid(g, kappa), EdgeSelector.explicit(selector.select(g)), sig
    )
    return direct == eval_grid(placed)
