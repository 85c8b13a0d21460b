"""Gadget constructions and the key-property check they feed.

A gadget here is a connected simple r-regular graph (degree counts dangling
half-edges) with exactly two dangling edges. Its signature is the pair
(a, b) from counting.decompose_extension: by palette symmetry its extension
matrix M, with M[c1][c2] counting internal colorings given dangler colors
c1, c2, is a*I + b*(J - I). The property that makes a gadget useful for
edge replacement is b = 0 < a: then splicing it into an edge multiplies the
coloring count by exactly c = a. verify_key_property alone builds M, for
its report.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from ._record import Record
from .counting import decompose_extension
from .errors import GadgetError, ParseError, PreconditionError
from .graphs import MAX_VERTICES, GadgetGraph, MultiGraph, replace_edges

# A key-property report holds a kappa x kappa matrix.
MAX_MATRIX_KAPPA = 1000


class GadgetSpec(Record):
    """A validated gadget: name, regularity, a planarity claim (advisory,
    never verified here), and the graph."""

    name: str
    r: int
    planar_claimed: bool
    gadget: GadgetGraph

    def __post_init__(self):
        g = self.gadget
        if len(g.dangling) != 2:
            raise GadgetError(
                "%s: expected 2 dangling edges, found %d"
                % (self.name, len(g.dangling))
            )
        if not g.is_regular(self.r):
            raise GadgetError(
                "%s: not %d-regular counting dangling edges (degrees %s)"
                % (self.name, self.r, list(g.degrees()))
            )
        if not g.is_simple():
            raise GadgetError("%s: base graph has parallel edges" % self.name)
        if not g.base.is_connected():
            raise GadgetError("%s: base graph is disconnected" % self.name)


class KeyPropertyReport(Record):
    """Outcome of checking that a gadget's extension matrix is c * I.

    The matrix is a*I + b*(J - I). holds is true iff b = 0 and a > 0, and
    then c = a (else c = 0). gadget_name and kappa echo what was checked.
    """

    gadget_name: str
    kappa: int
    holds: bool
    c: int
    matrix: tuple[tuple[int, ...], ...]
    a: int
    b: int


def verify_key_property(spec: GadgetSpec, kappa: int) -> KeyPropertyReport:
    """Test the c * I shape on the signature (a, b) from
    decompose_extension, which needs kappa >= 2; the report carries the
    matrix a*I + b*(J - I) it stands for, and is refused above
    MAX_MATRIX_KAPPA colors before any engine run."""
    if kappa > MAX_MATRIX_KAPPA:
        raise PreconditionError(
            "kappa=%d exceeds the cap of %d colors for a matrix" % (kappa, MAX_MATRIX_KAPPA)
        )
    a, b = decompose_extension(spec.gadget, kappa)
    matrix = tuple(tuple(a if i == j else b for j in range(kappa)) for i in range(kappa))
    holds = b == 0 and a > 0
    return KeyPropertyReport(spec.name, kappa, holds, a if b == 0 else 0, matrix, a, b)


# ---------------------------------------------------------------------------
# fixed constructions


def build_h3() -> GadgetSpec:
    """K4 minus one edge; danglers at the two vertices that lost it."""
    base = MultiGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return GadgetSpec("h3", 3, True, GadgetGraph(base, (0, 1)))


def build_h4() -> GadgetSpec:
    """Octahedron minus one edge; danglers at the two degree-3 vertices.

    Vertices 0..3 form a path 0-1-2-3, vertices 4 and 5 are joined to all of
    0..3; adding the edge (0, 3) back would close the octahedron.
    """
    base = MultiGraph(
        6,
        [
            (0, 1), (0, 4), (0, 5),
            (1, 2), (1, 4), (1, 5),
            (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5),
        ],
    )
    return GadgetSpec("h4", 4, True, GadgetGraph(base, (0, 3)))


_ICOSAHEDRON_EDGES = (
    (0, 1), (0, 5), (0, 6), (0, 10), (0, 11),
    (1, 2), (1, 6), (1, 7), (1, 10),
    (2, 3), (2, 7), (2, 9), (2, 10),
    (3, 4), (3, 7), (3, 8), (3, 9),
    (4, 5), (4, 8), (4, 9), (4, 11),
    (5, 6), (5, 8), (5, 11),
    (6, 7), (6, 8),
    (7, 8),
    (9, 10), (9, 11),
    (10, 11),
)


def icosahedron_graph() -> MultiGraph:
    """The icosahedron: 12 vertices, 30 edges, 5-regular, every vertex
    neighborhood inducing a 5-cycle."""
    return MultiGraph(12, _ICOSAHEDRON_EDGES)


def build_h5_icosahedron() -> GadgetSpec:
    """Icosahedron minus the edge (0, 1); danglers at 0 and 1."""
    base = MultiGraph(12, _ICOSAHEDRON_EDGES[1:])
    return GadgetSpec("h5", 5, True, GadgetGraph(base, (0, 1)))


def build_matchings(kappa: int, n: Optional[int] = None) -> tuple[tuple[tuple[int, int], ...], ...]:
    """kappa pairwise disjoint perfect matchings on vertices 0..n-1.

    For each step size l in 1..floor(kappa/2) two matchings are produced by
    sliding the blocks {(i, i+l) : 0 <= i < l} and {(i+l, i+2l) : 0 <= i < l}
    forward in jumps of 2l around the cycle Z_n; an odd kappa adds the
    diameter matching {(j, j + n/2)}. Requires n even, 2l | n for every l,
    and n/2 >= kappa (which keeps the union simple). Default n = kappa!.
    n may not exceed MAX_VERTICES, nor the kappa*n/2 edges of the
    union; both caps are checked before any list is built, so kappa >= 9
    needs an explicit n.

    Each matching is validated to cover every vertex exactly once and the
    union is validated edge-disjoint; a collision names the offending pair.
    """
    if kappa < 1:
        raise PreconditionError("kappa must be positive")
    if n is None:
        if kappa >= 10:  # 10! = 3,628,800; do not even build the factorial
            raise PreconditionError(
                "default vertex count %d! exceeds the cap of %d vertices"
                % (kappa, MAX_VERTICES)
            )
        n = math.factorial(kappa)
    if n > MAX_VERTICES:
        raise PreconditionError(
            "vertex count n=%d exceeds the cap of %d vertices"
            % (n, MAX_VERTICES)
        )
    if kappa * n // 2 > MAX_VERTICES:
        raise PreconditionError(
            "edge count kappa*n/2=%d exceeds the cap of %d edges"
            % (kappa * n // 2, MAX_VERTICES)
        )
    if n <= 0 or n % 2:
        raise PreconditionError("vertex count n=%d must be even and positive" % n)
    for step in range(1, kappa // 2 + 1):
        if n % (2 * step):
            raise PreconditionError(
                "vertex count n=%d not divisible by 2*l for l=%d" % (n, step)
            )
    if n // 2 < kappa:
        raise PreconditionError(
            "need n/2 >= kappa to keep the union simple (n=%d, kappa=%d)"
            % (n, kappa)
        )
    matchings: list[tuple[tuple[int, int], ...]] = []
    for step in range(1, kappa // 2 + 1):
        first = []
        second = []
        for i in range(step):
            for t in range(n // (2 * step)):
                base = i + 2 * step * t
                first.append((base % n, (base + step) % n))
                second.append(((base + step) % n, (base + 2 * step) % n))
        matchings.append(tuple(first))
        matchings.append(tuple(second))
    if kappa % 2:
        matchings.append(tuple((j, j + n // 2) for j in range(n // 2)))

    seen: dict[tuple[int, int], int] = {}
    for mi, matching in enumerate(matchings):
        covered = [0] * n
        for u, v in matching:
            covered[u] += 1
            covered[v] += 1
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GadgetError(
                    "matchings %d and %d collide on edge (%d, %d)"
                    % (seen[key], mi, key[0], key[1])
                )
            seen[key] = mi
        if any(c != 1 for c in covered):
            raise GadgetError("matching %d is not a perfect matching" % mi)
    return tuple(matchings)


def build_h_star(kappa: int, n: Optional[int] = None) -> GadgetSpec:
    """The union of the kappa disjoint matchings with one edge opened up.

    The union is a connected simple kappa-regular graph; removing the first
    edge of the first matching, (0, 1), and dangling at 0 and 1 yields the
    gadget. Not claimed planar.
    """
    matchings = build_matchings(kappa, n)
    size = 2 * len(matchings[0])
    edges = [e for matching in matchings for e in matching]
    removed = edges[0]
    if set(removed) != {0, 1}:
        raise RuntimeError("internal: first matching edge expected to be (0, 1)")
    base = MultiGraph(size, edges[1:])
    name = "hstar:%d:%d" % (kappa, size)
    return GadgetSpec(name, kappa, False, GadgetGraph(base, (0, 1)))


class WitnessColoring(Record):
    """A concrete proper coloring: one color per base edge (by index) plus
    one color per dangling edge (in dangling order)."""

    edge_colors: tuple[int, ...]
    boundary: tuple[int, ...]


def check_witness(g: GadgetGraph, kappa: int, witness: WitnessColoring) -> bool:
    """True iff the witness colors are in range and proper at every vertex,
    dangling edges included."""
    if len(witness.edge_colors) != len(g.base.edges):
        return False
    if len(witness.boundary) != len(g.dangling):
        return False
    seen: list[set[int]] = [set() for _ in range(g.vertex_count)]

    def add(v: int, c: int) -> bool:
        if not (0 <= c < kappa) or c in seen[v]:
            return False
        seen[v].add(c)
        return True

    for (u, v), c in zip(g.base.edges, witness.edge_colors):
        if not (add(u, c) and add(v, c)):
            return False
    for v, c in zip(g.dangling, witness.boundary):
        if not add(v, c):
            return False
    return True


def build_f_nonplanar(kappa: int, r: int) -> tuple[GadgetSpec, WitnessColoring]:
    """An r-regular gadget usable at palettes kappa > r, built from two hubs
    and a complete bipartite block.

    Vertices 0..r-1 are one side (hub r-1), vertices r..2r-1 the other (hub
    2r-1). Edges: hub r-1 to each of 0..r-2, hub 2r-1 to each of r..2r-2,
    and the complete bipartite block between 0..r-2 and r..2r-2. Danglers
    at both hubs. The witness colors hub edges by their spoke index, block
    edge (i, j) by (i + j) mod r, and both danglers 0; it shows a > 0 at
    any kappa >= r: a coloring exists with equal dangler colors, and the
    construction is color-symmetric. The r^2 - 1 edges may not exceed
    MAX_VERTICES, checked before any list is built.
    """
    if not (kappa > r >= 3):
        raise PreconditionError(
            "construction needs kappa > r >= 3 (got kappa=%d, r=%d)" % (kappa, r)
        )
    if r * r - 1 > MAX_VERTICES:
        raise PreconditionError(
            "edge count r^2-1=%d exceeds the cap of %d edges" % (r * r - 1, MAX_VERTICES)
        )
    hub_u = r - 1
    hub_v = 2 * r - 1
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    for i in range(1, r):
        edges.append((hub_u, i - 1))
        colors.append(i)
    for j in range(1, r):
        edges.append((hub_v, r + j - 1))
        colors.append(j)
    for i in range(1, r):
        for j in range(1, r):
            edges.append((i - 1, r + j - 1))
            colors.append((i + j) % r)
    base = MultiGraph(2 * r, edges)
    spec = GadgetSpec("fnp:%d:%d" % (kappa, r), r, False, GadgetGraph(base, (hub_u, hub_v)))
    witness = WitnessColoring(tuple(colors), (0, 0))
    if not check_witness(spec.gadget, kappa, witness):
        raise RuntimeError("internal: witness coloring is not proper")
    return spec, witness


def chain_graph(g: GadgetGraph, n: int) -> GadgetGraph:
    """n copies of a 2-dangler gadget in series: copy i's second dangler is
    joined by a real edge to copy i+1's first dangler."""
    if n < 1:
        raise PreconditionError("chain length must be at least 1")
    if len(g.dangling) != 2:
        raise PreconditionError("chaining needs exactly 2 dangling edges")
    block_v = g.vertex_count
    edges: list[tuple[int, int]] = []
    for copy in range(n):
        off = copy * block_v
        edges.extend((off + a, off + b) for a, b in g.base.edges)
    a1, a2 = g.dangling
    for copy in range(n - 1):
        edges.append((copy * block_v + a2, (copy + 1) * block_v + a1))
    base = MultiGraph(n * block_v, edges)
    return GadgetGraph(base, (a1, (n - 1) * block_v + a2))


def _lex_shortest_path_edges(g: MultiGraph, source: int, target: int) -> list[int]:
    """Edge indices of the lexicographically smallest shortest path (by
    vertex sequence; parallel edges resolved to the smallest index)."""
    dist = [-1] * g.vertex_count
    dist[target] = 0
    adj = g.incidence_lists()
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for i in adj[v]:
            a, b = g.edges[i]
            w = b if a == v else a
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    if dist[source] == -1:
        raise PreconditionError("dangling attachments are not connected")
    path: list[int] = []
    cur = source
    while cur != target:
        best_w = -1
        best_edge = -1
        for i in adj[cur]:
            a, b = g.edges[i]
            w = b if a == cur else a
            if dist[w] == dist[cur] - 1 and (best_w == -1 or w < best_w):
                best_w = w
                best_edge = i
        path.append(best_edge)
        cur = best_w
    return path


def derive_distinct_diagonal(gadget: GadgetGraph, kappa: int) -> GadgetGraph:
    """Fix a gadget whose extension matrix has a = b (diagonal equals
    off-diagonal, so interpolation columns would collide).

    Keeps one shortest path between the two dangling attachments and
    replaces every other edge with a copy of the gadget itself. Each copy
    acts as a near-free coupling while the surviving path re-links the
    dangler colors, so the derived matrix separates a and b again.
    Refuses when a != b already ("not needed") or when the matrix is
    identically zero. interpolation_pipeline builds the same graph
    itself when it meets a = b != 0.
    """
    if len(gadget.dangling) != 2:
        raise PreconditionError("derivation needs exactly 2 dangling edges")
    if not gadget.base.is_connected():
        raise PreconditionError("gadget base is disconnected")
    a, b = decompose_extension(gadget, kappa)
    if a != b:
        raise PreconditionError(
            "not needed: a=%d differs from b=%d at kappa=%d" % (a, b, kappa)
        )
    if b == 0:
        raise PreconditionError(
            "gadget signature is identically zero at kappa=%d" % kappa
        )
    return _derived_gadget(gadget)


def _derived_gadget(gadget: GadgetGraph) -> GadgetGraph:
    """The graph derive_distinct_diagonal builds, without its checks."""
    s, t = gadget.dangling
    path_edges = set(_lex_shortest_path_edges(gadget.base, s, t))
    others = [i for i in range(len(gadget.base.edges)) if i not in path_edges]
    new_base, _ = replace_edges(gadget.base, gadget, others)
    return GadgetGraph(new_base, gadget.dangling)


def parse_gadget_name(name: str) -> GadgetSpec:
    """Resolve a CLI gadget name: h3, h4, h5, hstar:<kappa>[:<n>],
    fnp:<kappa>:<r>."""
    parts = name.split(":")
    head = parts[0]
    try:
        if head == "h3" and len(parts) == 1:
            return build_h3()
        if head == "h4" and len(parts) == 1:
            return build_h4()
        if head == "h5" and len(parts) == 1:
            return build_h5_icosahedron()
        if head == "hstar" and len(parts) in (2, 3):
            kappa = int(parts[1])
            n = int(parts[2]) if len(parts) == 3 else None
            return build_h_star(kappa, n)
        if head == "fnp" and len(parts) == 3:
            return build_f_nonplanar(int(parts[1]), int(parts[2]))[0]
    except PreconditionError:
        raise
    except ValueError as exc:
        raise ParseError("bad gadget name %r: %s" % (name, exc))
    raise ParseError("unknown gadget name %r" % name)
