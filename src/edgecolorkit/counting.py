"""Exact counters for proper edge colorings.

A proper edge coloring with palette {0..kappa-1} assigns every edge a color
so that edges sharing a vertex always differ. All counters here are exact
over Python integers.

count_assignments, count_extensions, decompose_extension and
extension_matrix run on one engine: a forward, layered dynamic program over
a static edge order (frontier-based search). Its state records, per color,
which frontier vertices use it. The constraints never name a color, so
states are kept up to palette permutation, and colors with equal patterns
are one branch weighted by their number. One layer is live at a time and
nothing recurses. The cost follows the frontier width, so the order is the
narrowest of a few cheap candidates. The perfect-matching decomposition
below is an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError
from .graphs import GadgetGraph, MultiGraph


def _greedy_order(edges, inc) -> list[int]:
    """At each step the edge opening the fewest new vertices net of the
    vertices it closes, then the fewest opened, smallest index on ties."""
    remaining = [len(x) for x in inc]
    unused = set(range(len(edges)))
    order = []

    def key(e):
        u, v = edges[e]
        opens = (remaining[u] == len(inc[u])) + (remaining[v] == len(inc[v]))
        return (opens - (remaining[u] == 1) - (remaining[v] == 1), opens, e)

    while unused:
        best = min(unused, key=key)
        unused.remove(best)
        order.append(best)
        for w in edges[best]:
            remaining[w] -= 1
    return order


def _bfs_order(edges, inc, starts) -> tuple[list[int], int]:
    """Edges in breadth-first order, and the last vertex visited. The
    search starts at starts[0], each further component at its first vertex
    in starts; an edge follows the later of its ends, then the earlier."""
    seen = [False] * len(inc)
    visited: list[int] = []
    for s in starts:
        if not seen[s]:
            seen[s] = True
            component = [s]
            for v in component:
                for f in inc[v]:
                    w = edges[f][0] + edges[f][1] - v
                    if not seen[w]:
                        seen[w] = True
                        component.append(w)
            visited += component
    pos = [0] * len(inc)
    for i, v in enumerate(visited):
        pos[v] = i

    def key(e):
        a, b = pos[edges[e][0]], pos[edges[e][1]]
        return (max(a, b), min(a, b), e)

    return sorted(range(len(edges)), key=key), visited[-1]


def _plan(edges, inc, order, pinned):
    """Engine steps along an edge order, with their cost (largest frontier,
    sum of frontier sizes) and the frontier slot of each pinned vertex.

    A step is (both, keep): the slot bits of the edge's ends, and a mask
    clearing the slots of the vertices it closes (-1 when none). A vertex
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
        steps.append((both, ~drop))
        size = len(inc) - len(free)
        peak = max(peak, size)
        total += size
    return (peak, total), steps, pins


def _best_plan(edges, inc, pinned=()):
    """The _plan of the cheapest of three candidate orders: the greedy
    order, a breadth-first order from a minimum-degree vertex, and one
    restarted from where that search ended. On a tie the greedy order is
    kept."""
    orders = [_greedy_order(edges, inc)]
    starts = sorted((w for w in range(len(inc)) if inc[w]), key=lambda w: len(inc[w]))
    if starts:
        order, last = _bfs_order(edges, inc, starts)
        orders += [order, _bfs_order(edges, inc, [last] + starts)[0]]
    return min((_plan(edges, inc, order, pinned) for order in orders), key=lambda p: p[0])


def _run(steps, kappa: int, start: tuple[int, ...]) -> int:
    """Push a canonical start state through the steps, one layer at a time;
    the number of completions."""
    layer = {start: 1}
    for both, keep in steps:
        nxt: dict = {}
        for pats, mult in layer.items():
            for p in set(pats):
                if p & both:
                    continue
                new = list(pats)
                new[new.index(p)] = p | both
                if keep != -1:
                    new = [q & keep for q in new]
                new.sort()
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + mult * pats.count(p)
        if not nxt:
            return 0
        layer = nxt
    return sum(layer.values())


def _counts(g: MultiGraph, jobs, dangling=()) -> list[int]:
    """Colorings of g with the given danglers for each (kappa, boundary)
    job, from one plan. Each job gets its own pinned start state; jobs
    whose canonical start states are equal share one engine run. A palette
    smaller than the largest degree of g admits no coloring."""
    inc = g.incidence_lists()
    top = max(map(len, inc), default=0)
    plan = None
    runs: dict = {}
    out = []
    for kappa, boundary in jobs:
        # a palette below the largest degree, or two danglers share a color
        if kappa < top or len(set(zip(dangling, boundary))) < len(boundary):
            out.append(0)
            continue
        if plan is None:
            plan = _best_plan(g.edges, inc, dangling)
        _, steps, pins = plan
        pats = [0] * kappa
        for v, c in zip(dangling, boundary):
            if v in pins:
                pats[c] |= 1 << pins[v]
        start = tuple(sorted(pats))
        if start not in runs:
            runs[start] = _run(steps, kappa, start)
        out.append(runs[start])
    return out


def count_assignments(g: MultiGraph, kappa: int) -> int:
    """Number of proper edge colorings of g with palette {0..kappa-1}.

    kappa = 0 is permitted and yields 1 for an edgeless graph, else 0.
    """
    if isinstance(g, GadgetGraph):
        raise PreconditionError("gadget graphs are counted via count_extensions")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return _counts(g, [(kappa, ())])[0]


def count_extensions(g: GadgetGraph, kappa: int, boundary: Sequence[int]) -> int:
    """Proper colorings of the gadget's internal edges given dangling colors.

    boundary lists one color per dangling half-edge, in dangling order. The
    dangling colors participate in the distinctness constraint at their
    attachment vertices (so two danglers at one vertex with equal colors give
    zero immediately).
    """
    if len(boundary) != len(g.dangling):
        raise PreconditionError(
            "boundary has %d colors for %d dangling edges"
            % (len(boundary), len(g.dangling))
        )
    if kappa < 1:
        raise ValueError("kappa must be positive")
    boundary = [int(c) for c in boundary]
    for c in boundary:
        if not (0 <= c < kappa):
            raise PreconditionError("boundary color %d outside palette" % c)
    return _counts(g.base, [(kappa, boundary)], g.dangling)[0]


def extension_matrix(g: GadgetGraph, kappa: int) -> tuple[tuple[int, ...], ...]:
    """The extension matrix of a 2-dangler gadget: M[c1][c2] =
    count_extensions(g, kappa, [c1, c2]).

    Each entry is counted from its own pinned start state; nothing is filled
    in by symmetry. Entries with equal canonical start states share one
    engine run, so danglers at two distinct vertices take two runs.
    """
    if len(g.dangling) != 2:
        raise PreconditionError("extension_matrix needs exactly 2 dangling edges")
    if kappa < 1:
        raise ValueError("kappa must be positive")
    jobs = [(kappa, (c1, c2)) for c1 in range(kappa) for c2 in range(kappa)]
    flat = _counts(g.base, jobs, g.dangling)
    return tuple(tuple(flat[c1 * kappa:(c1 + 1) * kappa]) for c1 in range(kappa))


def decompose_extension(g: GadgetGraph, kappa: int) -> tuple[int, int]:
    """(diagonal, off-diagonal) of a 2-dangler gadget's extension matrix
    from just two pinned boundaries.

    Sound without computing the full matrix: permuting the palette bijects
    internal colorings while permuting the boundary pair, so the extension
    count depends only on whether the two boundary colors coincide. The
    matrix is therefore always a*I + b*(J - I), and (a, b) determines it.
    """
    if len(g.dangling) != 2:
        raise PreconditionError("decomposition needs exactly 2 dangling edges")
    if kappa < 2:
        raise PreconditionError("need at least 2 colors to separate a from b")
    return tuple(_counts(g.base, [(kappa, (0, 0)), (kappa, (0, 1))], g.dangling))


def enumerate_perfect_matchings(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """All perfect matchings, each as a sorted tuple of edge indices.

    Parallel edges yield distinct matchings. Deterministic order.
    """
    n = g.vertex_count
    if n % 2:
        return ()
    adj = g.incidence_lists()
    edges = g.edges
    covered = [False] * n
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec():
        v = -1
        for w in range(n):
            if not covered[w]:
                v = w
                break
        if v == -1:
            out.append(tuple(chosen))
            return
        covered[v] = True
        for i in adj[v]:
            a, b = edges[i]
            w = b if a == v else a
            if not covered[w]:
                covered[w] = True
                chosen.append(i)
                rec()
                chosen.pop()
                covered[w] = False
        covered[v] = False

    rec()
    return tuple(out)


def count_by_matching_decomposition(g: MultiGraph, kappa: int, r: int) -> int:
    """Count colorings of an r-regular graph at kappa = r by decomposition.

    Every proper r-coloring of an r-regular graph splits the edges into r
    color classes that are each perfect matchings. The counter enumerates
    perfect matchings once, counts exact covers of the edge set by disjoint
    matchings, and multiplies by r! for the color orderings. Agrees with
    count_assignments wherever both apply.
    """
    if kappa != r:
        raise PreconditionError(
            "matching decomposition not applicable (kappa=%d, r=%d)" % (kappa, r)
        )
    if not g.is_regular(r):
        raise PreconditionError("matching decomposition requires an r-regular graph")
    n_edges = len(g.edges)
    if n_edges == 0:
        return 1
    pms = enumerate_perfect_matchings(g)
    if not pms:
        return 0
    pm_masks = [sum(1 << i for i in pm) for pm in pms]
    by_edge: list[list[int]] = [[] for _ in range(n_edges)]
    for idx, mask in enumerate(pm_masks):
        for i in range(n_edges):
            if mask >> i & 1:
                by_edge[i].append(idx)
    all_mask = (1 << n_edges) - 1

    def covers(used: int, start_hint: int) -> int:
        if used == all_mask:
            return 1
        e = start_hint
        while used >> e & 1:
            e += 1
        total = 0
        for idx in by_edge[e]:
            m = pm_masks[idx]
            if not (m & used):
                total += covers(used | m, e + 1)
        return total

    return covers(0, 0) * math.factorial(r)


@dataclass(frozen=True)
class PartitionSpectrum:
    """counts[m] = number of ways to split the edge set into exactly m
    nonempty pairwise-disjoint matchings, for m = 0..kappa."""

    kappa: int
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def assignment_count(self, j: int) -> int:
        """Reconstruct the proper-coloring count with a j-color palette."""
        return sum(p * math.perm(j, m) for m, p in enumerate(self.counts))


def partition_spectrum(g: MultiGraph, kappa: int) -> PartitionSpectrum:
    """Partition counts P_0..P_kappa recovered from assignment counts.

    A proper coloring with palette size j is a partition into m nonempty
    matchings together with an injection of the m classes into the palette,
    so A(j) = sum_m P_m * j(j-1)...(j-m+1). The triangular system inverts
    exactly over the integers.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if isinstance(g, GadgetGraph):
        raise PreconditionError("gadget graphs are counted via count_extensions")
    a = _counts(g, [(j, ()) for j in range(kappa + 1)])
    counts: list[int] = []
    for m in range(kappa + 1):
        rem = a[m] - sum(counts[t] * math.perm(m, t) for t in range(m))
        q, leftover = divmod(rem, math.factorial(m))
        if leftover or q < 0:
            raise RuntimeError(
                "internal: falling-factorial inversion produced P_%d = %s/%d"
                % (m, rem, math.factorial(m))
            )
        counts.append(q)
    return PartitionSpectrum(kappa, tuple(counts))


def _count_partitions_capped(g: MultiGraph, kappa: int, limit: int) -> int:
    """Number of partitions of the edge set into at most kappa matchings,
    counted in canonical first-fit order and cut off once limit is reached.
    """
    edges = g.edges
    n = len(edges)
    if n == 0:
        return min(1, limit)
    max_class = g.vertex_count // 2
    if max_class == 0 or n > kappa * max_class:
        return 0
    found = 0
    classes: list[list[int]] = []

    def disjoint(i: int, cls) -> bool:
        a, b = edges[i]
        for j in cls:
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                return False
        return True

    def rec(i: int):
        nonlocal found
        if found >= limit:
            return
        if i == n:
            found += 1
            return
        remaining = n - i
        capacity = sum(max_class - len(cls) for cls in classes)
        capacity += (kappa - len(classes)) * max_class
        if capacity < remaining:
            return
        for cls in classes:
            if disjoint(i, cls):
                cls.append(i)
                rec(i + 1)
                cls.pop()
                if found >= limit:
                    return
        if len(classes) < kappa:
            classes.append([i])
            rec(i + 1)
            classes.pop()

    rec(0)
    return found


def is_uniquely_partition_colorable(g: MultiGraph, kappa: int) -> bool:
    """Whether g has exactly one partition into at most kappa matchings.

    Only defined for kappa >= 4 (below that, use partition_spectrum
    directly). Isolated vertices are irrelevant.

    With n <= kappa edges the all-singletons partition is valid, so
    uniqueness holds iff no two edges are vertex-disjoint (any disjoint
    pair could be merged into a second partition): the edges must pairwise
    intersect, which on simple graphs means a star K_{1,j} with j <= kappa,
    the triangle, or the empty graph, and on multigraphs also admits
    parallel bundles and triangles with repeated edges. With n > kappa no
    closed shape list survives (forced-merge configurations exist), so the
    decision falls back to counting partitions with an early exit at two.
    """
    if kappa < 4:
        raise PreconditionError(
            "uniqueness classifier requires kappa >= 4; "
            "use partition_spectrum for smaller palettes"
        )
    edges = g.edges
    n = len(edges)
    if n == 0:
        return True
    if n <= kappa:
        for i in range(n):
            a, b = edges[i]
            for j in range(i + 1, n):
                c, d = edges[j]
                if a != c and a != d and b != c and b != d:
                    return False
        return True
    return _count_partitions_capped(g, kappa, 2) == 1
