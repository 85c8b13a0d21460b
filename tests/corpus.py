"""Named instances and corpus builders shared by several test modules."""

from edgecolorkit import GadgetGraph, GadgetSpec, MultiGraph


def bundle(width):
    """Two vertices joined by `width` parallel edges."""
    return MultiGraph(2, ((0, 1),) * width)


def cycle(n):
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    """Path with n edges on n+1 vertices."""
    return MultiGraph(n + 1, [(i, i + 1) for i in range(n)])


def star(n):
    return MultiGraph(n + 1, [(0, i + 1) for i in range(n)])


def complete(n):
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return MultiGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def prism():
    """K3 x K2: two triangles joined by rungs; 3-regular, chromatic index 3."""
    return MultiGraph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def ladder_ring(n):
    """C_n x K_2 (the circular ladder): two n-cycles joined by rungs."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return MultiGraph(2 * n, edges)


def cube():
    """The 3-cube: 3-regular bipartite on 8 vertices."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return MultiGraph(8, edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    star_edges = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph(10, outer + spokes + star_edges)


def petersen_open_spec():
    """Petersen minus edge (0, 1) as a 3-regular 2-dangler gadget. Its
    extension matrix at kappa=3 is identically zero (chromatic index 4),
    so it fails the key property with a=0."""
    g = petersen()
    edges = [e for e in g.edges if e != (0, 1)]
    return GadgetSpec("petersen-open", 3, True, GadgetGraph(MultiGraph(10, edges), (0, 1)))


def c4_gadget():
    """4-cycle with danglers at opposite corners; at kappa=3 its extension
    matrix is 2J (a = b = 2), the canonical a = b case."""
    return GadgetGraph(MultiGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3))), (0, 3))


def all_multigraphs(vertex_count, max_edges):
    """Every edge multiset with at most max_edges edges over the given
    vertex set (no loops). Covers every smaller active vertex count too,
    since unused vertices are simply isolated."""
    pairs = [
        (i, j) for i in range(vertex_count) for j in range(i + 1, vertex_count)
    ]
    out = []

    def extend(start, chosen):
        out.append(MultiGraph(vertex_count, tuple(chosen)))
        if len(chosen) == max_edges:
            return
        for idx in range(start, len(pairs)):
            chosen.append(pairs[idx])
            extend(idx, chosen)
            chosen.pop()

    extend(0, [])
    return out
