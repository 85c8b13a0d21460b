"""Signatures over a color domain and exact Holant evaluation on grids.

A signature grid assigns every vertex of a multigraph a signature whose
arity equals the vertex degree; an edge assignment maps every edge to a
color in {0..k-1}; the Holant value is the sum over all edge assignments of
the product of vertex signature values. Everything here is exact integer
arithmetic.

One evaluator serves every signature: each vertex is a dense tensor over
its edge variables, and `_contract` merges tensors pairwise, summing out
each variable once both of its endpoints are merged. A grid's Holant is
the scalar left at the end; a gadget's gate keeps its dangling edges open,
so the same contraction yields the whole table at once. Cost follows the
largest intermediate tensor, not the value, and no family of signatures
is special-cased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import PreconditionError
from .graphs import EdgeSelector, GadgetGraph, MultiGraph

Matrix = tuple[tuple[int, ...], ...]


def _tuple_index(values: Sequence[int], k: int) -> int:
    idx = 0
    for y in values:
        idx = idx * k + y
    return idx


@dataclass(frozen=True)
class Signature:
    """Dense signature table over {0..domain_size-1}**arity.

    values is in lexicographic order of the input tuple (first input most
    significant). symmetric is verified when claimed and auto-detected when
    omitted.
    """

    arity: int
    domain_size: int
    values: tuple[int, ...]
    symmetric: bool

    def __init__(
        self,
        arity: int,
        domain_size: int,
        values: Sequence[int],
        symmetric: Optional[bool] = None,
    ):
        vals = tuple(int(x) for x in values)
        if arity < 0 or domain_size < 0:
            raise ValueError("arity and domain size must be nonnegative")
        if len(vals) != domain_size**arity:
            raise ValueError(
                "table has %d entries, expected %d" % (len(vals), domain_size**arity)
            )
        detected = _table_symmetric(arity, domain_size, vals)
        if symmetric is None:
            symmetric = detected
        elif symmetric and not detected:
            raise ValueError("signature declared symmetric but table is not")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "symmetric", bool(symmetric))

    def value(self, assignment: Sequence[int]) -> int:
        if len(assignment) != self.arity:
            raise ValueError("assignment length does not match arity")
        return self.values[_tuple_index(assignment, self.domain_size)]

    def matrix(self) -> Matrix:
        if self.arity != 2:
            raise PreconditionError("matrix form needs arity 2")
        k = self.domain_size
        return tuple(
            tuple(self.values[i * k + j] for j in range(k)) for i in range(k)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.values)


def _table_symmetric(arity: int, k: int, vals: Sequence[int]) -> bool:
    if arity <= 1 or k == 0:
        return True
    # symmetric iff the value only depends on the multiset of inputs
    def tuples(prefix, depth):
        if depth == arity:
            yield prefix
            return
        for c in range(k):
            yield from tuples(prefix + (c,), depth + 1)

    for t in tuples((), 0):
        if vals[_tuple_index(t, k)] != vals[_tuple_index(tuple(sorted(t)), k)]:
            return False
    return True


def ad_signature(arity: int, kappa: int) -> Signature:
    """All-distinct: 1 on pairwise-distinct inputs, else 0.

    Identically zero when arity > kappa; the arity-0 table is the scalar 1.
    """
    vals = []
    for idx in range(kappa**arity):
        t = []
        x = idx
        for _ in range(arity):
            t.append(x % kappa)
            x //= kappa
        vals.append(1 if len(set(t)) == arity else 0)
    return Signature(arity, kappa, vals, symmetric=True)


def equality_signature(arity: int, kappa: int) -> Signature:
    """1 on constant input tuples, else 0. Arity 1 is the all-ones unary."""
    vals = []
    for idx in range(kappa**arity):
        t = []
        x = idx
        for _ in range(arity):
            t.append(x % kappa)
            x //= kappa
        vals.append(1 if len(set(t)) <= 1 else 0)
    return Signature(arity, kappa, vals, symmetric=True)


def signature_from_matrix(matrix: Sequence[Sequence[int]]) -> Signature:
    k = len(matrix)
    vals = []
    for row in matrix:
        if len(row) != k:
            raise ValueError("matrix must be square")
        vals.extend(int(x) for x in row)
    return Signature(2, k, vals)


@dataclass(frozen=True)
class SignatureGrid:
    """A multigraph with one signature per vertex and per-vertex input order.

    incidences[v] lists the edge indices feeding v's signature inputs, in
    input order; it must be a permutation of the edges incident to v.
    """

    graph: MultiGraph
    signatures: tuple[Signature, ...]
    incidences: tuple[tuple[int, ...], ...]


def make_grid(
    graph: MultiGraph,
    signatures: Sequence[Signature],
    incidences: Optional[Sequence[Sequence[int]]] = None,
) -> SignatureGrid:
    if len(signatures) != graph.vertex_count:
        raise ValueError("need one signature per vertex")
    default = graph.incidence_lists()
    if incidences is None:
        inc = tuple(tuple(lst) for lst in default)
    else:
        inc = tuple(tuple(lst) for lst in incidences)
        if len(inc) != graph.vertex_count:
            raise ValueError("need one incidence tuple per vertex")
        for v in range(graph.vertex_count):
            if sorted(inc[v]) != default[v]:
                raise ValueError(
                    "incidence order at vertex %d is not a permutation of its edges"
                    % v
                )
    sizes = {s.domain_size for s in signatures}
    if len(sizes) > 1:
        raise ValueError("signatures disagree on domain size")
    for v, s in enumerate(signatures):
        if s.arity != len(inc[v]):
            raise ValueError(
                "vertex %d has degree %d but signature arity %d"
                % (v, len(inc[v]), s.arity)
            )
    return SignatureGrid(graph, tuple(signatures), inc)


def ad_grid(graph: MultiGraph, kappa: int) -> SignatureGrid:
    """Grid with the all-distinct signature at every vertex; its Holant is
    exactly the proper edge coloring count."""
    degs = graph.degrees()
    return make_grid(graph, [ad_signature(d, kappa) for d in degs])


def _permuted_table(kappa: int, vars_: Sequence[int], table: Sequence[int],
                    new_order: Sequence[int]) -> list:
    """Reindex a dense tensor table to a new variable order (first variable
    most significant), via a mixed-radix odometer over the new order."""
    r = len(vars_)
    pos = {v: i for i, v in enumerate(vars_)}
    old_stride = [kappa ** (r - 1 - i) for i in range(r)]
    strides = [old_stride[pos[v]] for v in new_order]
    out = [0] * len(table)
    digits = [0] * r
    idx_old = 0
    for idx_new in range(len(table)):
        out[idx_new] = table[idx_old]
        for d in range(r - 1, -1, -1):
            if digits[d] + 1 < kappa:
                digits[d] += 1
                idx_old += strides[d]
                break
            digits[d] = 0
            idx_old -= strides[d] * (kappa - 1)
    return out


def _contract_pair(kappa, vars1, tab1, vars2, tab2):
    """Merge two tensors, summing out every variable they share. Reduces to
    one integer matrix product after reshaping both tables."""
    shared_set = set(vars1) & set(vars2)
    shared = [v for v in vars1 if v in shared_set]
    out1 = [v for v in vars1 if v not in shared_set]
    out2 = [v for v in vars2 if v not in shared_set]
    a = _permuted_table(kappa, vars1, tab1, out1 + shared)
    b = _permuted_table(kappa, vars2, tab2, shared + out2)
    no1 = kappa ** len(out1)
    ns = kappa ** len(shared)
    no2 = kappa ** len(out2)
    out_tab = [0] * (no1 * no2)
    for i in range(no1):
        row = i * no2
        base_a = i * ns
        for k in range(ns):
            av = a[base_a + k]
            if av:
                base_b = k * no2
                for j in range(no2):
                    bv = b[base_b + j]
                    if bv:
                        out_tab[row + j] += av * bv
    return tuple(out1 + out2), out_tab


def _contract(kappa: int, tensors):
    """Contract (variables, table) tensors into one.

    Greedy and pairwise: among the pairs that share a variable, each step
    merges the one whose result has the fewest variables. A variable held
    by both tensors of a pair is summed out; a variable held by only one
    tensor in the whole network stays open in the result. Pairs that share
    nothing meet last, as outer products.
    """
    tensors = list(tensors) or [((), [1])]
    while len(tensors) > 1:
        best_key = None
        for i in range(len(tensors)):
            vi = set(tensors[i][0])
            ri = len(tensors[i][0])
            for j in range(i + 1, len(tensors)):
                s = len(vi.intersection(tensors[j][0]))
                rj = len(tensors[j][0])
                key = (s == 0, ri + rj - 2 * s, ri + rj - s, i, j)
                if best_key is None or key < best_key:
                    best_key = key
        i, j = best_key[-2:]
        tensors[i] = _contract_pair(kappa, *tensors[i], *tensors[j])
        del tensors[j]
    return tensors[0]


def eval_grid(grid: SignatureGrid) -> int:
    """Exact Holant value of the grid.

    Each vertex is a dense tensor over its incident edge variables, and
    `_contract` merges them until only a scalar remains. Cost is governed
    by the largest intermediate boundary, not by the value, so sparse and
    chain-like grids evaluate quickly even when the Holant itself is
    astronomical.
    """
    kappa = grid.signatures[0].domain_size if grid.signatures else 0
    tensors = zip(grid.incidences, (s.values for s in grid.signatures))
    _, table = _contract(kappa, tensors)
    return table[0]


def gate_signature(
    gadget: GadgetGraph, signatures: Optional[Sequence[Signature]], kappa: int
) -> Signature:
    """Signature of a gadget: sum over internal assignments per boundary.

    signatures lists one signature per internal vertex, over the domain
    {0..kappa-1}, whose arity must be the vertex degree counting dangling
    edges; None means all-distinct at every vertex. A vertex's inputs are
    its base edges in index order, then its danglers in dangling order. The
    output's variable order is the gadget's dangling order. The vertex
    tensors are contracted with every dangling edge left open, so one
    contraction fills the whole table.
    """
    n = gadget.vertex_count
    if signatures is None:
        signatures = [ad_signature(gadget.degree(v), kappa) for v in range(n)]
    if len(signatures) != n:
        raise ValueError("need one signature per internal vertex")
    for v in range(n):
        if signatures[v].arity != gadget.degree(v):
            raise ValueError(
                "vertex %d has degree %d (dangling included) but arity %d"
                % (v, gadget.degree(v), signatures[v].arity)
            )
        if signatures[v].domain_size != kappa:
            raise ValueError(
                "vertex %d has a signature over domain size %d, not kappa=%d"
                % (v, signatures[v].domain_size, kappa)
            )
    # dangler j is edge m + j of the extended graph, held by one tensor only
    m, d = len(gadget.edges), len(gadget.dangling)
    extended = MultiGraph(
        n + d, list(gadget.edges) + [(v, n + j) for j, v in enumerate(gadget.dangling)]
    )
    incidences = extended.incidence_lists()[:n]
    vars_, table = _contract(kappa, zip(incidences, (s.values for s in signatures)))
    return Signature(d, kappa, _permuted_table(kappa, vars_, table, range(m, m + d)))


def place_binary_on_edges(
    grid: SignatureGrid, selector: EdgeSelector, sig: Signature
) -> SignatureGrid:
    """Split each selected edge (u, v) into (u, w), (w, v) with a fresh
    vertex w carrying sig. Requires a symmetric binary signature, since an
    undirected edge has no orientation to hang an asymmetric table on.
    """
    if sig.arity != 2:
        raise PreconditionError("placed signature must be binary")
    k = grid.signatures[0].domain_size if grid.signatures else sig.domain_size
    if sig.domain_size != k:
        raise PreconditionError("placed signature domain size mismatch")
    m = sig.matrix()
    if any(m[i][j] != m[j][i] for i in range(k) for j in range(k)):
        raise PreconditionError(
            "placed signature must be symmetric on an undirected edge"
        )
    graph = grid.graph
    selected = sorted(selector.select(graph))
    if not selected:
        return grid
    n = graph.vertex_count
    new_edges: list[tuple[int, int]] = list(graph.edges)
    remap: dict[int, tuple[int, int]] = {}
    # entry connector keeps the old index (u side); exit connector appended
    for s_pos, e in enumerate(selected):
        u, v = graph.edges[e]
        w = n + s_pos
        new_edges[e] = (u, w)
        exit_idx = len(new_edges)
        new_edges.append((v, w))
        remap[e] = (w, exit_idx)
    new_graph = MultiGraph(n + len(selected), new_edges)

    new_inc: list[tuple[int, ...]] = []
    for v in range(n):
        row = []
        for e in grid.incidences[v]:
            if e in remap:
                u0, v0 = graph.edges[e]
                if v == v0 and v != u0:
                    row.append(remap[e][1])
                else:
                    row.append(e)
            else:
                row.append(e)
        new_inc.append(tuple(row))
    for s_pos, e in enumerate(selected):
        new_inc.append((e, remap[e][1]))
    new_sigs = list(grid.signatures) + [sig] * len(selected)
    return make_grid(new_graph, new_sigs, new_inc)


# ---------------------------------------------------------------------------
# small exact matrix helpers over the color domain


def matrix_identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def matrix_ones(k: int) -> Matrix:
    return tuple(tuple(1 for _ in range(k)) for _ in range(k))


def matrix_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    k = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matrix_power(a: Sequence[Sequence[int]], n: int) -> Matrix:
    if n < 0:
        raise ValueError("negative matrix power")
    k = len(a)
    result = matrix_identity(k)
    base = tuple(tuple(int(x) for x in row) for row in a)
    while n:
        if n & 1:
            result = matrix_mul(result, base)
        base = matrix_mul(base, base)
        n >>= 1
    return result


def decompose_domain_invariant(
    sig_or_matrix: Union[Signature, Sequence[Sequence[int]]],
) -> Optional[tuple[int, int]]:
    """(a, b) when the binary table is a on the diagonal and b off it."""
    if isinstance(sig_or_matrix, Signature):
        m = sig_or_matrix.matrix()
    else:
        m = tuple(tuple(int(x) for x in row) for row in sig_or_matrix)
    k = len(m)
    if k < 2:
        raise PreconditionError("domain invariance needs domain size >= 2")
    if any(len(row) != k for row in m):
        raise ValueError("matrix must be square")
    a = m[0][0]
    b = m[0][1]
    for i in range(k):
        for j in range(k):
            if (m[i][j] != a) if i == j else (m[i][j] != b):
                return None
    return a, b


def eigenvalues_ab(a: int, b: int, kappa: int) -> tuple[int, int]:
    """Eigenvalues of (a-b)I + bJ: the all-ones direction gives a+(kappa-1)b
    (multiplicity 1), every difference direction gives a-b."""
    return a + (kappa - 1) * b, a - b
