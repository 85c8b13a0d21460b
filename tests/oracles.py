"""Independent reference implementations the test suite checks the package
against, plus the random instance generators shared across test modules.

Everything here works on plain (vertex_count, edges) pairs and deliberately
avoids importing the package: agreement between these oracles and the
library is the point of most tests, so the two sides share no code.
"""

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# coloring oracles


def oracle_count_colorings(vertex_count, edges, kappa):
    """Count proper edge colorings by trying every assignment.

    Exponential in the edge count; callers keep kappa ** len(edges) small.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    incident = [[] for _ in range(vertex_count)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    total = 0
    for assignment in itertools.product(range(kappa), repeat=len(edges)):
        ok = True
        for rows in incident:
            seen = [assignment[i] for i in rows]
            if len(set(seen)) != len(seen):
                ok = False
                break
        if ok:
            total += 1
    return total


def oracle_count_extensions(vertex_count, edges, dangling, boundary, kappa):
    """Count proper colorings of a gadget with its dangling half-edges
    pinned to the given boundary colors. A dangling half-edge occupies a
    color slot at its attachment vertex exactly like a real edge."""
    pinned = [[] for _ in range(vertex_count)]
    for vertex, color in zip(dangling, boundary):
        pinned[vertex].append(color)
    incident = [[] for _ in range(vertex_count)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    total = 0
    for assignment in itertools.product(range(kappa), repeat=len(edges)):
        ok = True
        for vertex in range(vertex_count):
            seen = pinned[vertex] + [assignment[i] for i in incident[vertex]]
            if len(set(seen)) != len(seen):
                ok = False
                break
        if ok:
            total += 1
    return total


def oracle_count_extensions_pruned(vertex_count, edges, dangling, boundary, kappa):
    """The count of oracle_count_extensions by a depth-first search that
    always branches on the edge with the fewest colors still free at both
    ends. It visits partial colorings instead of all kappa ** len(edges)
    assignments, so it reaches gadgets too large for the plain oracle."""
    used = [0] * vertex_count
    for vertex, color in zip(dangling, boundary):
        if used[vertex] >> color & 1:
            return 0
        used[vertex] |= 1 << color
    full = (1 << kappa) - 1
    left = list(range(len(edges)))

    def free(i):
        u, v = edges[i]
        return full & ~(used[u] | used[v])

    def extend():
        if not left:
            return 1
        best = min(left, key=lambda i: bin(free(i)).count("1"))
        colors = free(best)
        u, v = edges[best]
        left.remove(best)
        total = 0
        for color in range(kappa):
            bit = 1 << color
            if colors & bit:
                used[u] |= bit
                used[v] |= bit
                total += extend()
                used[u] ^= bit
                used[v] ^= bit
        left.append(best)
        return total

    return extend()


def oracle_count_weighted(vertex_count, edges, selected, kappa, weights):
    """Weighted proper colorings, one value per (alpha, beta) in weights.

    Each selected edge is cut into two halves, each colored on its own and
    proper at its own end; the edge weighs alpha when its halves share a
    color and beta when they differ. Every other edge is an ordinary edge.
    A depth-first search over the edges tallies the colorings by k, the
    number of bichromatic selected edges, and each answer is
    sum_k N_k * alpha^(m - k) * beta^k over the m selected edges. Edges
    must not be loops.
    """
    selected = set(selected)
    used = [set() for _ in range(vertex_count)]
    tally = [0] * (len(selected) + 1)

    def extend(i, k):
        if i == len(edges):
            tally[k] += 1
            return
        u, v = edges[i]
        for cu in set(range(kappa)) - used[u]:
            if i in selected:
                far = set(range(kappa)) - used[v]
            else:
                far = {cu} - used[v]
            used[u].add(cu)
            for cv in far:
                used[v].add(cv)
                extend(i + 1, k + (cu != cv))
                used[v].remove(cv)
            used[u].remove(cu)

    extend(0, 0)
    m = len(selected)
    return [
        sum(n * alpha ** (m - k) * beta ** k for k, n in enumerate(tally))
        for alpha, beta in weights
    ]


# ---------------------------------------------------------------------------
# small exact matrices


def signature_matrix(a, b, kappa):
    """The kappa x kappa matrix a*I + b*(J - I) that a gadget's signature
    (a, b) stands for."""
    return tuple(tuple(a if i == j else b for j in range(kappa)) for i in range(kappa))


def matrix_identity(k):
    return signature_matrix(1, 0, k)


def matrix_ones(k):
    return signature_matrix(1, 1, k)


def matrix_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matrix_power(a, n):
    if n < 0:
        raise ValueError("negative matrix power")
    result = matrix_identity(len(a))
    base = tuple(tuple(int(x) for x in row) for row in a)
    while n:
        if n & 1:
            result = matrix_mul(result, base)
        base = matrix_mul(base, base)
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# interpolation oracles


def oracle_solve_vandermonde(nodes, rhs):
    """sum_j x_j * nodes[j]^n = rhs[n-1] for n = 1..len(nodes), by O(len^3)
    Gauss-Jordan elimination over Fractions."""
    size = len(nodes)
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


def oracle_interpolation(a, b, kappa, m, weighted):
    """The kappa > r interpolation in full terms, with nothing divided out.

    Row n = 1..m+1 is weighted(weights)[n-1], where weights holds each
    chain's edge weight (alpha_n, beta_n), read off the n-th power of the
    signature matrix a*I + b*(J - I); weighted is any counter of the
    Holant with alpha*I + beta*(J - I) on the m chained edges. The columns
    are lambda1^i * lambda2^(m-i), and the system is solved by elimination.
    Returns (lambda1, lambda2, columns, rows, solution, count).
    """
    lam1, lam2 = a + (kappa - 1) * b, a - b
    columns = tuple(lam1 ** i * lam2 ** (m - i) for i in range(m + 1))
    weights = []
    for n in range(1, m + 2):
        power = matrix_power(signature_matrix(a, b, kappa), n)
        weights.append((power[0][0], power[0][1]))
    rows = tuple(weighted(weights))
    solution = tuple(oracle_solve_vandermonde(columns, rows))
    return lam1, lam2, columns, rows, solution, sum(solution)


# ---------------------------------------------------------------------------
# partition oracles


def _edges_disjoint(e1, e2):
    return e1[0] not in e2 and e1[1] not in e2


def oracle_partitions(edges, kappa):
    """Enumerate every partition of the edge set into at most kappa
    pairwise-disjoint matchings. Returns a list of partitions, each a tuple
    of frozensets of edge indices.

    Set partitions are enumerated canonically: edge i either joins an
    existing class or opens the next new class, so each partition appears
    exactly once.
    """
    n = len(edges)
    results = []

    def extend(i, classes):
        if i == n:
            results.append(tuple(frozenset(c) for c in classes))
            return
        for c in classes:
            if all(_edges_disjoint(edges[i], edges[j]) for j in c):
                c.append(i)
                extend(i + 1, classes)
                c.pop()
        if len(classes) < kappa:
            classes.append([i])
            extend(i + 1, classes)
            classes.pop()

    extend(0, [])
    return results


def oracle_partition_spectrum(edges, kappa):
    """Spectrum (P_0, ..., P_kappa): P_m partitions using exactly m classes."""
    spectrum = [0] * (kappa + 1)
    for partition in oracle_partitions(edges, kappa):
        spectrum[len(partition)] += 1
    return tuple(spectrum)


# ---------------------------------------------------------------------------
# structural oracles


def oracle_is_connected(vertex_count, edges):
    if vertex_count == 0:
        return True
    adjacency = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertex_count


def degrees(vertex_count, edges):
    out = [0] * vertex_count
    for u, v in edges:
        out[u] += 1
        out[v] += 1
    return out


# ---------------------------------------------------------------------------
# random instance generators


def random_multigraph(rng, vertex_count, edge_count):
    """Uniformly random edge multiset; no loops, parallels allowed."""
    edges = []
    for _ in range(edge_count):
        u = rng.randrange(vertex_count)
        v = rng.randrange(vertex_count - 1)
        if v >= u:
            v += 1
        edges.append((min(u, v), max(u, v)))
    return vertex_count, tuple(sorted(edges))


def random_regular_multigraph(rng, degree, vertex_count, max_tries=1000):
    """Configuration model: pair up degree stubs uniformly, rejecting
    pairings that create loops. Parallel edges are kept."""
    if (degree * vertex_count) % 2 != 0:
        raise ValueError("degree * vertex_count must be even")
    for _ in range(max_tries):
        stubs = [v for v in range(vertex_count) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = []
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            edges.append((min(u, v), max(u, v)))
        if ok:
            return vertex_count, tuple(sorted(edges))
    raise RuntimeError("failed to sample a loop-free pairing")


def random_bridged_cubic(rng, half_vertices=4):
    """Random 3-regular multigraph containing a bridge.

    Each half is a random cubic multigraph with one edge removed and an
    apex vertex attached to the two degree-2 endpoints; the two apexes are
    then joined, and that joining edge is a bridge.
    """

    def half(offset):
        n, edges = random_regular_multigraph(rng, 3, half_vertices)
        edges = list(edges)
        u, v = edges.pop(rng.randrange(len(edges)))
        apex = n
        edges.append((u, apex))
        edges.append((v, apex))
        shifted = tuple((a + offset, b + offset) for a, b in edges)
        return n + 1, shifted, apex + offset

    n1, e1, apex1 = half(0)
    n2, e2, apex2 = half(n1)
    edges = tuple(sorted(e1 + e2 + ((apex1, apex2),)))
    return n1 + n2, edges


def random_cnf(rng, max_variables=12, force_unsat=False):
    """Random small CNF as (variable_count, clauses). With force_unsat the
    formula contains complementary unit clauses and has no models."""
    n = rng.randint(1, max_variables)
    clause_count = rng.randint(0, 2 * n)
    clauses = []
    for _ in range(clause_count):
        width = rng.randint(1, min(4, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    if force_unsat:
        pivot = rng.randint(1, n)
        clauses.append((pivot,))
        clauses.append((-pivot,))
    return n, tuple(clauses)


def oracle_count_sat(variable_count, clauses):
    """Model count by brute force over all assignments."""
    total = 0
    for bits in itertools.product((False, True), repeat=variable_count):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            total += 1
    return total
