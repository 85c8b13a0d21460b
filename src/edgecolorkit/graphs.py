"""Multigraph model, text serialization, and gadget edge replacement.

Graphs are undirected multigraphs on vertices 0..vertex_count-1. Parallel
edges are allowed and keep stable indices (their position in the edge list);
self-loops are rejected everywhere. A GadgetGraph is a multigraph plus an
ordered list of dangling half-edges, each recorded by its attachment vertex.
The order of the dangling list is the external variable order of the gadget.

Text format, one directive per line:

    # comment
    v <vertex_count>        exactly once, before any e/d line
    e <u> <v>               one edge occurrence
    d <u>                   one dangling half-edge at u, in external order

Blank lines are ignored, LF and CRLF both accepted.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence, Union

from ._record import Record
from .errors import ParseError, PreconditionError

# The most vertices a parsed graph may have; hstar caps its vertices and
# its edges at the same number, and fnp its edges.
MAX_VERTICES = 10**6


class MultiGraph(Record):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]]):
        vertex_count = index(vertex_count)
        norm = []
        for k, e in enumerate(edges):
            u, v = index(e[0]), index(e[1])
            if u == v:
                raise ValueError("edge %d is a self-loop at vertex %d" % (k, u))
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    "edge %d endpoints (%d, %d) out of range for %d vertices"
                    % (k, u, v, vertex_count)
                )
            norm.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if a == v or b == v)

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.vertex_count
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return tuple(d)

    def incidence_lists(self) -> list[list[int]]:
        """Edge indices incident to each vertex, ascending per vertex."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (a, b) in enumerate(self.edges):
            inc[a].append(i)
            inc[b].append(i)
        return inc

    def is_regular(self, r: int) -> bool:
        return all(d == r for d in self.degrees())

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def is_connected(self) -> bool:
        """Every vertex reachable from vertex 0 (vacuously true if empty)."""
        if self.vertex_count == 0:
            return True
        seen = [False] * self.vertex_count
        seen[0] = True
        stack = [0]
        adj = self.incidence_lists()
        while stack:
            v = stack.pop()
            for i in adj[v]:
                a, b = self.edges[i]
                w = b if a == v else a
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def parallel_edge_indices(self) -> tuple[int, ...]:
        """Indices of edges that have at least one parallel twin."""
        by_pair: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(self.edges):
            by_pair.setdefault(e, []).append(i)
        out = [i for grp in by_pair.values() if len(grp) > 1 for i in grp]
        return tuple(sorted(out))

    def edge_indices(self, selected: Iterable[int]) -> tuple[int, ...]:
        """The selected edge indices, sorted; an index out of range or
        listed twice is refused."""
        out = sorted(int(i) for i in selected)
        for k, i in enumerate(out):
            if not (0 <= i < len(self.edges)):
                raise PreconditionError("edge index %d out of range" % i)
            if k and out[k - 1] == i:
                raise PreconditionError("edge index %d selected twice" % i)
        return tuple(out)

    def render(self) -> str:
        lines = ["v %d" % self.vertex_count]
        lines += ["e %d %d" % e for e in self.edges]
        return "\n".join(lines) + "\n"


class GadgetGraph(Record):
    """A multigraph plus ordered dangling half-edges (attachment vertices)."""

    base: MultiGraph
    dangling: tuple[int, ...]

    def __init__(self, base: MultiGraph, dangling: Iterable[int]):
        dang = tuple(map(index, dangling))
        for v in dang:
            if not (0 <= v < base.vertex_count):
                raise ValueError("dangling attachment %d out of range" % v)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dangling", dang)

    @property
    def vertex_count(self) -> int:
        return self.base.vertex_count

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.base.edges

    def degree(self, v: int) -> int:
        """Degree counting dangling half-edges."""
        return self.base.degree(v) + sum(1 for d in self.dangling if d == v)

    def degrees(self) -> tuple[int, ...]:
        d = list(self.base.degrees())
        for v in self.dangling:
            d[v] += 1
        return tuple(d)

    def is_regular(self, r: int) -> bool:
        return all(d == r for d in self.degrees())

    def is_simple(self) -> bool:
        return self.base.is_simple()

    def render(self) -> str:
        lines = ["v %d" % self.base.vertex_count]
        lines += ["e %d %d" % e for e in self.base.edges]
        lines += ["d %d" % v for v in self.dangling]
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Union[MultiGraph, GadgetGraph]:
    """Parse the text format. Returns a GadgetGraph iff any d line appears.

    Errors name the offending 1-based line. A valid e line is taken as a
    sorted pair at once, and the edges are not checked again by
    MultiGraph's constructor; any other line goes through every check.
    """
    vertex_count = None
    edges: list[tuple[int, int]] = []
    dangling: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        tag = parts[0]
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError("line %d: non-integer argument in %r" % (lineno, raw))
        if tag == "e" and len(args) == 2 and vertex_count is not None:
            u, v = args
            if u != v and 0 <= u < vertex_count and 0 <= v < vertex_count:
                edges.append((u, v) if u < v else (v, u))
                continue
        if tag == "v":
            if vertex_count is not None:
                raise ParseError("line %d: duplicate v directive" % lineno)
            if len(args) != 1 or args[0] < 0:
                raise ParseError("line %d: v takes one nonnegative count" % lineno)
            if args[0] > MAX_VERTICES:
                raise PreconditionError(
                    "line %d: vertex count %d exceeds the cap of %d vertices"
                    % (lineno, args[0], MAX_VERTICES)
                )
            vertex_count = args[0]
        elif tag == "e":  # only an invalid e line gets here
            if vertex_count is None:
                raise ParseError("line %d: e before v directive" % lineno)
            if len(args) != 2:
                raise ParseError("line %d: e takes two vertex ids" % lineno)
            u, v = args
            if u == v:
                raise ParseError("line %d: self-loop at vertex %d" % (lineno, u))
            raise ParseError("line %d: vertex out of range" % lineno)
        elif tag == "d":
            if vertex_count is None:
                raise ParseError("line %d: d before v directive" % lineno)
            if len(args) != 1:
                raise ParseError("line %d: d takes one vertex id" % lineno)
            if not (0 <= args[0] < vertex_count):
                raise ParseError("line %d: vertex out of range" % lineno)
            dangling.append(args[0])
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, tag))
    if vertex_count is None:
        raise ParseError("no v directive found")
    g = object.__new__(MultiGraph)
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, "edges", tuple(edges))
    if dangling:
        return GadgetGraph(g, dangling)
    return g


def render_graph(g: Union[MultiGraph, GadgetGraph]) -> str:
    return g.render()


class ReplacedBlock(Record):
    """Where one replaced edge went: the inserted copy's vertex offset, the
    two connector edge indices, and the indices of the copied base edges."""

    vertex_offset: int
    entry_edge: int
    internal_edges: tuple[int, ...]
    exit_edge: int


def replace_edges(
    g: MultiGraph, gadget: GadgetGraph, selected: Iterable[int]
) -> tuple[MultiGraph, dict[int, ReplacedBlock]]:
    """Replace each edge (u, v) whose index is in selected with a fresh copy
    of the gadget; g.edge_indices checks the indices.

    The edge is removed; the copy's base is inserted on a new vertex block;
    the copy's first dangling attachment is joined to u and its second to v.
    The result lists unselected edges first (original relative order), then
    one block per selected edge in ascending selected order: entry connector,
    copied base edges, exit connector. Original vertices keep their ids.
    """
    if len(gadget.dangling) != 2:
        raise PreconditionError(
            "replacement gadget must have exactly 2 dangling edges, got %d"
            % len(gadget.dangling)
        )
    selected = g.edge_indices(selected)
    skip = set(selected)
    new_edges: list[tuple[int, int]] = [e for i, e in enumerate(g.edges) if i not in skip]
    blocks: dict[int, ReplacedBlock] = {}
    offset = g.vertex_count
    a1, a2 = gadget.dangling
    for s in selected:
        u, v = g.edges[s]
        entry_idx = len(new_edges)
        new_edges.append((u, offset + a1))
        internal = []
        for x, y in gadget.base.edges:
            internal.append(len(new_edges))
            new_edges.append((offset + x, offset + y))
        exit_idx = len(new_edges)
        new_edges.append((offset + a2, v))
        blocks[s] = ReplacedBlock(offset, entry_idx, tuple(internal), exit_idx)
        offset += gadget.vertex_count
    return MultiGraph(offset, new_edges), blocks
