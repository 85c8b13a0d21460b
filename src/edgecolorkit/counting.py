"""Exact counters for proper edge colorings.

A proper edge coloring with palette {0..kappa-1} assigns every edge a color
so that edges sharing a vertex always differ. All counters here are exact
over Python integers.

count_assignments, count_weighted_assignments, count_extensions,
decompose_extension (a gadget's signature, the pair (a, b)) and
partition_spectrum run on one engine, which only _count enters, with one
plan and one run per call. It is a forward, layered dynamic program over
a static edge order (frontier-based search). Its state records, per color, which frontier
vertices use it. The constraints never name a color, so states are kept up
to palette permutation, and colors with equal patterns are one branch
weighted by their number. An edge may carry a domain-invariant weight
(alpha when its two halves share a color, beta when they differ). It is
counted as (alpha - beta)[same] + beta[any]: [same] is the ordinary step
and [any] two one-slot steps, one per half, all on the one step kernel,
which keeps that symmetry. One layer is live at a time and nothing
recurses. The cost follows the frontier width, so the order is the greedy
one, or, when that peaks above three frontier slots, the cheapest of it, a
frontier-growing vertex order and the greedy order with ties broken by the
vertex order, each scored by a cost-only pass before the winner's steps are
built. The independent route is the first-fit partition search below,
which count_by_matching_decomposition runs on kappa-regular graphs.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from ._record import Record
from .errors import PreconditionError
from .graphs import GadgetGraph, MultiGraph

# A state holds one pattern per color.
MAX_KAPPA = 10**6
# A weighted run's multiplicity packs m + 1 strata, each wider as m grows.
MAX_PACKED_BITS = 1 << 20
# The matching decomposition enumerates each decomposition it counts.
MAX_DECOMPOSITIONS = 10**6


def _greedy_order(edges, inc, tie=None) -> list[int]:
    """At each step the edge opening the fewest new vertices net of the
    vertices it closes, then the fewest opened; ties go to the edge that
    comes first in the order tie, or to the smallest index without one.

    A key is the int (3 * net + opened + 6) * E + tie position. It only
    falls, and only when an end is first touched (by 4E: one fewer
    opened) or left with one edge (by 3E: one more closed). The heap gets a
    fresh entry for each edge at an end at those two moments and skips an
    entry that differs from the edge's stored key, so it picks as a full
    rescan would in O(E log E). The positions in tie come from one pass
    over it, and the loop ends at the E-th pick, leaving the stale entries
    in the heap."""
    m = len(edges)
    if tie is None:
        tie = rank = range(m)
    else:
        rank = [0] * m
        for i, e in enumerate(tie):
            rank[e] = i
    remaining = [len(x) for x in inc]
    keys = [(14 - 3 * ((remaining[u] == 1) + (remaining[v] == 1))) * m + rank[e]
            for e, (u, v) in enumerate(edges)]
    heap = sorted(keys)
    order = []
    for _ in range(m):
        k = heapq.heappop(heap)
        while keys[tie[k % m]] != k:
            k = heapq.heappop(heap)
        best = tie[k % m]
        keys[best] = -1
        order.append(best)
        for w in edges[best]:
            remaining[w] -= 1
            drop = (4 * (remaining[w] == len(inc[w]) - 1) + 3 * (remaining[w] == 1)) * m
            if drop:
                for f in inc[w]:
                    if keys[f] >= 0:
                        keys[f] -= drop
                        heapq.heappush(heap, keys[f])
    return order


def _by_visit(edges, n, visited) -> list[int]:
    """Edge indices ordered by the position in visited of their later end,
    then of their earlier end."""
    pos = [0] * n
    for i, v in enumerate(visited):
        pos[v] = i
    keys = [pos[u] * n + pos[v] if pos[u] > pos[v] else pos[v] * n + pos[u] for u, v in edges]
    return sorted(range(len(edges)), key=keys.__getitem__)


def _frontier_order(edges, inc, starts) -> list[int]:
    """Edges along a vertex sequence grown to keep its frontier narrow.

    A visited vertex is open while it has unvisited neighbours. The
    sequence starts at starts[0], and each next vertex is the unvisited
    neighbour of the sequence that opens the fewest vertices net of those
    it closes; ties go to the most visited neighbours, then the earliest
    attached, then the smallest id. A further component starts at its first
    vertex in starts. Edges follow the sequence by _by_visit.

    A key changes only at a visit next door, so the heap gets a fresh entry
    then and skips an entry that differs from the vertex's stored key:
    O(E log V) in all."""
    n = len(inc)
    nbrs = [list({edges[f][0] + edges[f][1] - v for f in inc[v]}) for v in range(n)]
    unvisited = [len(x) for x in nbrs]  # unvisited neighbours of each vertex
    closes = [0] * n  # visited neighbours whose last unvisited one it is
    links = [0] * n  # visited neighbours
    attach = [0] * n  # the step that first made it a neighbour of the sequence
    keys: list = [None] * n
    seen = [False] * n
    heap: list = []
    visited: list[int] = []
    fresh = iter(starts)
    while len(visited) < len(starts):
        v = None
        while heap:
            k = heapq.heappop(heap)
            if keys[k[3]] == k:
                v = k[3]
                break
        if v is None:
            v = next(w for w in fresh if not seen[w])
        seen[v] = True
        keys[v] = None
        visited.append(v)
        touched = set()
        for w in nbrs[v]:
            unvisited[w] -= 1
            if not seen[w]:
                if not links[w]:
                    attach[w] = len(visited)
                links[w] += 1
                touched.add(w)
        # v, or a visited neighbour, now left with one unvisited neighbour
        # closes when that one is visited
        for u in [v] + nbrs[v]:
            if seen[u] and unvisited[u] == 1:
                z = next(w for w in nbrs[u] if not seen[w])
                closes[z] += 1
                touched.add(z)
        for w in touched:
            keys[w] = ((unvisited[w] > 0) - closes[w], -links[w], attach[w], w)
            heapq.heappush(heap, keys[w])
    return _by_visit(edges, n, visited)


def _plan(edges, inc, order, pinned, weighted=frozenset()):
    """Engine steps along an edge order, and the frontier slot of each
    pinned vertex.

    A step is (both, keep, half): the slot bits of the edge's ends, a mask
    clearing the slots of the vertices it closes (-1 when none), and for an
    edge in weighted the slot bit of its first end (else 0). A vertex
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
        half = 1 << slot[pair[0]] if e in weighted else 0
        steps.append((both, ~drop, half))
    return steps, pins


def _cost(edges, inc, order, pinned):
    """The cost of the steps _plan builds along an order: the largest
    frontier and the sum of frontier sizes after each step."""
    remaining = [len(x) for x in inc]
    held = [False] * len(inc)
    for w in pinned:
        held[w] = remaining[w] > 0
    size = sum(held)
    peak = total = 0
    for e in order:
        for w in edges[e]:
            if not held[w]:
                held[w] = True
                size += 1
            remaining[w] -= 1
            if not remaining[w]:
                size -= 1
        if size > peak:
            peak = size
        total += size
    return peak, total


# Up to this many frontier slots the engine holds a handful of states per
# layer, so no further order can save what scoring it costs.
_NARROW_FRONTIER = 3


def _best_plan(edges, inc, pinned=(), weighted=frozenset()):
    """The cost and _plan of the cheapest candidate order. The greedy order
    runs alone unless it peaks above _NARROW_FRONTIER slots; then
    _frontier_order and the greedy order with ties broken by position in it
    run too. Each candidate is scored by _cost alone and only the winner's
    steps are built; on a tie the earlier candidate is kept."""
    orders = [_greedy_order(edges, inc)]
    costs = [_cost(edges, inc, orders[0], pinned)]
    if costs[0][0] > _NARROW_FRONTIER:  # so there are edges
        starts = sorted((w for w in range(len(inc)) if inc[w]), key=lambda w: len(inc[w]))
        frontier = _frontier_order(edges, inc, starts)
        orders += [frontier, _greedy_order(edges, inc, frontier)]
        costs += [_cost(edges, inc, order, pinned) for order in orders[1:]]
    best = costs.index(min(costs))
    return (costs[best], *_plan(edges, inc, orders[best], pinned, weighted))


def _step(layer, both, keep, nxt):
    """Color one edge, or one half-edge, in every state of layer, adding
    the results into nxt and returning it. A color whose pattern is free at
    the slots in both takes them, weighted by the number of colors with
    that pattern; then the slots outside keep are cleared (none when keep
    is -1) and the state is sorted back into canonical form."""
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
    return nxt


def _run(steps, start: tuple[int, ...], lift: int = 1) -> int:
    """Push a canonical start state through the steps, one layer at a time;
    the number of completions.

    A weighted step (half != 0) is (alpha - beta)[same] + beta[any].
    [same] is the ordinary step, its results times lift. [any] colors the
    edge's two halves on their own, each proper at its end: a one-slot
    step at the first end, then one at the second, which also clears the
    closed slots. Every term is a _step, so states stay canonical up to
    palette permutation.
    """
    layer = {start: 1}
    for both, keep, half in steps:
        nxt = _step(layer, both, keep, {})
        if half:
            for key in nxt:
                nxt[key] *= lift
            _step(_step(layer, half, -1, {}), both ^ half, keep, nxt)
        if not nxt:
            return 0
        layer = nxt
    return sum(layer.values())


def _idle(kappa: int) -> list[int]:
    """The start state's patterns: one empty pattern per color."""
    if kappa > MAX_KAPPA:
        raise PreconditionError("kappa=%d exceeds the cap of %d colors" % (kappa, MAX_KAPPA))
    return [0] * kappa


def _count(g: MultiGraph, kappa: int, selected=frozenset(), lift: int = 1,
           dangling=(), boundary=()) -> int:
    """Colorings of g with palette {0..kappa-1}, from one _best_plan and
    one _run: every count enters the engine here. The edges in selected
    are weighted steps, their [same] term times lift (see _run); each
    entry of dangling is a vertex holding a dangler of the color at the
    same place in boundary, pinned in the start state."""
    if isinstance(g, GadgetGraph):
        raise PreconditionError("gadget graphs are counted via count_extensions")
    if kappa < 0:
        raise PreconditionError("kappa must be nonnegative")
    inc = g.incidence_lists()
    # a palette below the largest degree, or two danglers share a color
    if kappa < max(map(len, inc), default=0) or len(set(zip(dangling, boundary))) < len(boundary):
        return 0
    pats = _idle(kappa)
    _, steps, pins = _best_plan(g.edges, inc, dangling, selected)
    for v, c in zip(dangling, boundary):
        if v in pins:
            pats[c] |= 1 << pins[v]
    return _run(steps, tuple(sorted(pats)), lift)


def count_assignments(g: MultiGraph, kappa: int) -> int:
    """Number of proper edge colorings of g with palette {0..kappa-1}.

    kappa = 0 is permitted and yields 1 for an edgeless graph, else 0.
    """
    return _count(g, kappa)


def count_weighted_assignments(
    g: MultiGraph, kappa: int, selected: Sequence[int], weights: Sequence[tuple[int, int]]
) -> list[int]:
    """Weighted colorings of g, one value per (alpha, beta) in weights.

    Each selected edge is cut into two halves, colored on their own and
    each proper at its end; it contributes alpha when the halves share a
    color and beta when they differ. Every other edge is an ordinary edge.
    This is the Holant of g with the binary signature alpha*I + beta*(J - I)
    placed on each selected edge, and (1, 0) gives count_assignments. All
    weights share one engine run (_weighted_strata), and _stratum_rows
    evaluates each of them on its strata.
    """
    return _stratum_rows(_weighted_strata(g, kappa, selected), weights)


def _weighted_strata(g: MultiGraph, kappa: int, selected: Sequence[int]) -> list[int]:
    """M_0..M_m: M_j counts the colorings of g with j selected edges in
    [same] and the other m - j in [any], from one _count.

    It refuses what _count refuses before g.edge_indices checks selected,
    and a palette below the largest degree gives m + 1 zeros. The run packs
    m + 1 strata of (E + m) * bits(kappa) + m + 1 bits into each
    multiplicity (E edges, m selected), a width quadratic in m; above
    MAX_PACKED_BITS it is refused before the plan is built.
    """
    if isinstance(g, GadgetGraph):
        raise PreconditionError("gadget graphs are counted via count_extensions")
    if kappa < 0:
        raise PreconditionError("kappa must be nonnegative")
    selected = frozenset(g.edge_indices(selected))
    m = len(selected)
    if kappa < max(g.degrees(), default=0):
        return [0] * (m + 1)
    shift = (len(g.edges) + m) * kappa.bit_length() + m + 1
    if shift * (m + 1) > MAX_PACKED_BITS:
        raise PreconditionError(
            "a weighted count over m=%d selected edges packs %d-bit multiplicities,"
            " above the cap of %d bits" % (m, shift * (m + 1), MAX_PACKED_BITS)
        )
    # alpha[same] + beta[differ] = (alpha - beta)[same] + beta[any], so one
    # run counts the colorings with j selected edges in [same] and the rest
    # in [any] as M_j, the base-2^shift digits of one integer, and each row
    # is sum_j M_j (alpha - beta)^j beta^(m - j), by _stratum_rows. No digit
    # carries: a [same] edge takes one color and an [any] edge two, so with
    # E edges M_j <= C(m, j) kappa^(E + m - j) <= 2^m kappa^(E + m) < 2^shift.
    packed = _count(g, kappa, selected, 1 << shift)
    return [packed >> (j * shift) & ((1 << shift) - 1) for j in range(m + 1)]


def _stratum_rows(strata: Sequence[int], weights: Sequence[tuple[int, int]]) -> list[int]:
    """sum_j strata[j] * (alpha - beta)^j * beta^(m - j) for each (alpha,
    beta) in weights, m = len(strata) - 1, by homogeneous Horner: from
    row = strata[m] down, row = row * (alpha - beta) + strata[j] * beta^(m - j)
    with the power of beta grown by one factor per step, so every product
    has one short operand and no power is rebuilt."""
    rows = []
    for a, b in weights:
        a, b = int(a), int(b)
        diff, power = a - b, 1
        row = strata[-1]
        for n in reversed(strata[:-1]):
            power *= b
            row = row * diff + n * power
        rows.append(row)
    return rows


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
        raise PreconditionError("kappa must be positive")
    boundary = [int(c) for c in boundary]
    for c in boundary:
        if not (0 <= c < kappa):
            raise PreconditionError("boundary color %d outside palette" % c)
    return _count(g.base, kappa, dangling=g.dangling, boundary=boundary)


def _exact(num: int, den: int, what: str) -> int:
    """num / den, which must divide exactly."""
    q, rem = divmod(num, den)
    if rem:
        raise RuntimeError("internal: %s = %d/%d is not an integer" % (what, num, den))
    return q


def decompose_extension(g: GadgetGraph, kappa: int) -> tuple[int, int]:
    """The signature (a, b) of a 2-dangler gadget: its extension matrix is
    a*I + b*(J - I), a the count with equal boundary colors and b with
    distinct ones, from unpinned counts of the base.

    Permuting the palette bijects internal colorings while permuting the
    boundary pair, so the extension count depends only on whether the two
    boundary colors coincide, and a and b determine the matrix. Let x and y
    be the attachments, d_x and d_y their degrees in the base and
    N = count_assignments(base, kappa).

    x != y: coloring an added edge xy with c is the boundary (c, c), so
    kappa * a = count_assignments(base + xy, kappa), a parallel edge when x
    and y are already adjacent. Summing the matrix over all boundaries
    gives every coloring of the base times the colors free at x and at y:
    kappa * lambda1 = kappa * (a + (kappa - 1) * b)
    = N * (kappa - d_x) * (kappa - d_y), so b = (lambda1 - a) / (kappa - 1).

    x == y, of degree d: two danglers at one vertex never share a color, so
    a = 0, and the same sum gives
    kappa * (kappa - 1) * b = N * (kappa - d) * (kappa - d - 1).

    (A palette below a degree gives N = 0, and both identities still hold.)
    Every division must be exact; a remainder is an internal error, not
    floored away. Every caller that needs a gadget's signature takes it
    from here; the tests check whole matrices against count_extensions and
    a brute-force oracle, neither of which uses this symmetry.
    """
    if len(g.dangling) != 2:
        raise PreconditionError("decomposition needs exactly 2 dangling edges")
    if kappa < 2:
        raise PreconditionError("need at least 2 colors to separate a from b")
    base = g.base
    x, y = g.dangling
    free = kappa - base.degree(x)
    n = count_assignments(base, kappa)
    if x == y:
        return 0, _exact(n * free * (free - 1), kappa * (kappa - 1), "b")
    closed = MultiGraph(base.vertex_count, base.edges + ((x, y),))
    a = _exact(count_assignments(closed, kappa), kappa, "a")
    lam1 = _exact(n * free * (kappa - base.degree(y)), kappa, "lambda1")
    return a, _exact(lam1 - a, kappa - 1, "b")


def count_by_matching_decomposition(g: MultiGraph, kappa: int) -> int:
    """Count colorings of a kappa-regular graph with kappa colors by
    decomposition, without the frontier engine.

    Every such coloring splits the edges into kappa color classes, and each
    class meets every vertex, so it is a perfect matching. The counter
    enumerates these partitions with _count_partitions_capped and multiplies
    by kappa! for the color orderings. It is refused once more than
    MAX_DECOMPOSITIONS are found. Agrees with count_assignments wherever
    both apply.
    """
    if not g.is_regular(kappa):
        raise PreconditionError("matching decomposition requires an r-regular graph")
    if not g.edges:  # one empty coloring, not kappa! of them
        return 1
    found = _count_partitions_capped(g, kappa, MAX_DECOMPOSITIONS + 1)
    if found > MAX_DECOMPOSITIONS:
        raise PreconditionError(
            "more than %d decompositions into perfect matchings; the matching"
            " decomposition is refused above that cap" % MAX_DECOMPOSITIONS
        )
    return found * math.factorial(kappa)


class PartitionSpectrum(Record):
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
    exactly over the integers. No split has more classes than g has edges,
    so only the palettes 0..min(kappa, E) are counted, one _count each, and
    P is zero above E.
    """
    if kappa < 0:
        raise PreconditionError("kappa must be nonnegative")
    _idle(kappa)  # refuses a palette over the cap before any engine run
    top = min(kappa, len(g.edges))
    a = [_count(g, j) for j in range(top + 1)]
    counts: list[int] = []
    for m in range(top + 1):
        rem = a[m] - sum(counts[t] * math.perm(m, t) for t in range(m))
        q, leftover = divmod(rem, math.factorial(m))
        if leftover or q < 0:
            raise RuntimeError(
                "internal: falling-factorial inversion produced P_%d = %s/%d"
                % (m, rem, math.factorial(m))
            )
        counts.append(q)
    return PartitionSpectrum(kappa, tuple(counts) + (0,) * (kappa - top))


def _count_partitions_capped(g: MultiGraph, kappa: int, limit: int) -> int:
    """Number of partitions of the edge set into at most kappa matchings,
    counted in canonical first-fit order and cut off once limit is reached.
    It never runs the frontier engine: count_by_matching_decomposition uses it
    as the independent check of count_assignments on kappa-regular graphs,
    and is_uniquely_partition_colorable stops it at two partitions.

    The search places the edges in _greedy_order, which keeps edges that
    share a vertex close together, so a conflict ends a branch soon after it
    arises; in input order a dead end could be found only many edges after
    its cause. A partition is a set of classes, so the count does not depend
    on the order.
    """
    edges = g.edges
    n = len(edges)
    if n == 0:
        return min(1, limit)
    max_class = g.vertex_count // 2
    if max_class == 0 or n > kappa * max_class:
        return 0
    order = _greedy_order(edges, g.incidence_lists())
    ends = [1 << edges[e][0] | 1 << edges[e][1] for e in order]
    classes: list[int] = []  # the vertex mask of each class
    placed = [0] * n  # the class of each placed edge
    found = i = c = 0  # i: the next edge to place, c: the first class to try
    # Free room is always kappa*max_class - i: pruning on it repeats the test above.
    while found < limit:
        if i == n:
            found += 1
        else:
            e = ends[i]
            while c < len(classes) and classes[c] & e:
                c += 1
            if c == len(classes) < kappa:
                classes.append(0)
            if c < len(classes):
                classes[c] |= e
                placed[i] = c
                i, c = i + 1, 0
                continue
        # backtrack: take the last edge out and try it in a later class
        if not i:
            break
        i -= 1
        c = placed[i]
        classes[c] ^= ends[i]
        if not classes[c]:  # the edge had opened the last class
            classes.pop()
        c += 1
    return found


def is_uniquely_partition_colorable(g: MultiGraph, kappa: int) -> bool:
    """Whether g has exactly one partition into at most kappa matchings.

    Only defined for kappa >= 4 (below that, use partition_spectrum
    directly). Isolated vertices are irrelevant. Decided by counting
    partitions in canonical order with an early exit at two.
    """
    if kappa < 4:
        raise PreconditionError(
            "uniqueness classifier requires kappa >= 4; "
            "use partition_spectrum for smaller palettes"
        )
    return _count_partitions_capped(g, kappa, 2) == 1
