"""Seeded inputs and invocation lists for the two benchmark workloads.

A workload runs two invocation sets back to back. A set is a list of
cases; a case is one input (a graph or DIMACS text, or none for gadget
names) plus the CLI commands run on it. The program only ever sees the
generated files: every generator here builds text, never library objects.

Each of the four sets stresses one stage. They are paired so that the
stages of the equal-palette splice (kappa == r: extension_matrix leaf
enumeration, the frontier DP on the spliced graph) run in one workload,
and the stages of chain interpolation (kappa > r: eval_grid, the
Vandermonde solve) with the per-call overhead of many small invocations
in the other. A change to one group of stages shows on one workload and
should leave the other unchanged. Two workloads rather than four let each
run be long within the benchmark's time budget.

Within a workload each set runs a fixed number of times per pass, so that
both sets take comparable shares of the pass (at seed 1, gadget-verify
takes about 7.7 s against 3.4 s for equal-splice, and chain-interpolate
about 5.9 s against 1.0 s for corpus-sweep). Run once each, the short set
would be a third or an eighth of the pass, and a regression confined to
it, such as added per-call set-up on corpus-sweep, would hide in the
spread of the pass time.

Named instances (prisms, bundle rings, the octahedron, the gadget names)
keep their construction labeling. Relabeling them moves the greedy edge
order of the frontier DP and of the tensor planner, and with it the time
of a single invocation by up to 6x, so a seeded relabeling would make
one seed incomparable with another. The seeded part of a set comes
from fixed pools of random instances, drawn once from POOL_SEED: the run
seed relabels each graph it uses (vertex labels, edge order, endpoint
order), orders the cases, and in equal-splice picks which cubic
multigraphs run. Pool instances are small, so their relabeling moves
pass time little.

Expected outcomes (bench/expected.json) are keyed by set, then by case
and command, and are invariant under relabeling once the input path and
its digest are dropped from the report; bench/record.py writes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

SETS = ("gadget-verify", "equal-splice", "chain-interpolate", "corpus-sweep")
# workload -> ((set, runs per pass), ...)
WORKLOADS = {
    "verify-splice": (("gadget-verify", 1), ("equal-splice", 2)),
    "interpolate-sweep": (("chain-interpolate", 1), ("corpus-sweep", 5)),
}
DEFAULT_SEED = 1
# Pools are drawn from this seed, never from the run seed, so that the
# recorded expectations cover every instance a run seed can pick.
POOL_SEED = 2010

CUBIC_POOL = 48
CUBIC_PICKS = 4
SMALL_POOL = 150
REGULAR_POOL = 40
CNF_VARIABLES = (12, 13, 14)


@dataclass(frozen=True)
class Command:
    """One CLI call on a case. "{input}" and "{output}" in argv are
    replaced by file paths. Commands of one case with same_count set must
    report the same "count" field."""

    name: str
    argv: tuple[str, ...]
    same_count: bool = False


@dataclass(frozen=True)
class Case:
    name: str
    text: Optional[str]
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# generators: each returns (vertex_count, edge list) or DIMACS text


def prism(n: int) -> tuple[int, list[tuple[int, int]]]:
    """C_n x K_2: two n-cycles joined by rungs; 3-regular."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return 2 * n, edges


def bundle_ring(n: int) -> tuple[int, list[tuple[int, int]]]:
    """An n-cycle with every other edge doubled; the doubled edges are the
    parallel pairs the interpolation selector picks."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        if i % 2 == 0:
            edges.append((i, (i + 1) % n))
    return n, edges


def octahedron() -> tuple[int, list[tuple[int, int]]]:
    return 6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3]


def pairing_regular(n: int, d: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Random d-regular multigraph from the pairing (configuration) model,
    resampled until it has no self-loop; parallel edges are kept."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = [(points[2 * i], points[2 * i + 1]) for i in range(len(points) // 2)]
        if all(u != v for u, v in edges):
            return n, edges


def small_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """6-9 vertices, up to 3 parallel copies per pair, maximum degree at
    most 4."""
    n = rng.randint(6, 9)
    target = rng.randint(n, 2 * n - 2)
    degree = [0] * n
    edges: list[tuple[int, int]] = []
    for _ in range(8 * target):
        if len(edges) == target:
            break
        u, v = rng.sample(range(n), 2)
        if degree[u] >= 4 or degree[v] >= 4:
            continue
        copies = rng.choice((1, 1, 1, 2, 3))
        for _ in range(copies):
            if len(edges) < target and degree[u] < 4 and degree[v] < 4:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return n, edges


def random_3cnf(variables: int, clauses: int, rng: random.Random) -> str:
    lines = ["c random 3-CNF", "p cnf %d %d" % (variables, clauses)]
    for _ in range(clauses):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, variables + 1), 3)]
        lines.append(" ".join(map(str, lits + [0])))
    return "\n".join(lines) + "\n"


def relabel(graph: tuple[int, list[tuple[int, int]]], rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def graph_text(graph: tuple[int, list[tuple[int, int]]]) -> str:
    n, edges = graph
    return "v %d\n" % n + "".join("e %d %d\n" % e for e in edges)


def max_degree(graph: tuple[int, list[tuple[int, int]]]) -> int:
    n, edges = graph
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree)


# ---------------------------------------------------------------------------
# workloads


def _count_commands(kappa: int) -> tuple[Command, ...]:
    """Backtrack and matching counts, which must agree."""
    k = str(kappa)
    return (
        Command("count", ("count", "--input", "{input}", "--kappa", k), True),
        Command("matching", ("count", "--input", "{input}", "--kappa", k, "--method", "matching"), True),
    )


def _reduce(kappa: int, planar: bool) -> Command:
    k = str(kappa)
    argv = ("reduce", "--input", "{input}", "--kappa", k, "--r", k, "--check", "--output", "{output}")
    return Command("reduce", argv + (("--planar",) if planar else ()))


def _gadget_verify(rng: random.Random, everything: bool) -> list[Case]:
    gadgets = [("h3", 3), ("h4", 4), ("h4", 5), ("h5", 5), ("fnp:5:3", 5), ("fnp:6:3", 6), ("fnp:5:4", 5)]
    return [
        Case(
            "%s@%d" % (name, kappa),
            None,
            (Command("verify", ("verify-gadget", "--gadget", name, "--kappa", str(kappa))),),
        )
        for name, kappa in gadgets
    ]


def _cubic_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED * 10 + 1)
    return [pairing_regular(rng.choice((8, 10, 10, 12)), 3, rng) for _ in range(CUBIC_POOL)]


def _equal_splice(rng: random.Random, everything: bool) -> list[Case]:
    cases = [
        Case("prism8", graph_text(prism(8)), (_reduce(3, True),) + _count_commands(3)),
        Case("prism6", graph_text(prism(6)), (_reduce(3, False),) + _count_commands(3)),
        Case("octahedron", graph_text(octahedron()), (_reduce(4, True),) + _count_commands(4)),
    ]
    pool = _cubic_pool()
    picks = range(len(pool)) if everything else sorted(rng.sample(range(len(pool)), CUBIC_PICKS))
    for i in picks:
        g = pool[i] if everything else relabel(pool[i], rng)
        cases.append(
            Case("cubic%02d" % i, graph_text(g), (_reduce(3, True),) + _count_commands(3))
        )
    return cases


def _chain_interpolate(rng: random.Random, everything: bool) -> list[Case]:
    ring_cmd = Command(
        "interpolate",
        ("interpolate", "--input", "{input}", "--kappa", "4", "--gadget", "fnp:4:3", "--check"),
    )
    return [
        Case(
            "prism6",
            graph_text(prism(6)),
            (
                Command(
                    "interpolate",
                    ("interpolate", "--input", "{input}", "--kappa", "5", "--gadget", "fnp:5:3", "--selector", "all"),
                ),
            ),
        ),
        Case("ring32", graph_text(bundle_ring(32)), (ring_cmd,)),
        # 20 doubled pairs, so m = 40 selected edges. At the recorded commit
        # this request ends in a traceback while rendering its rows (over
        # 4300 digits); it stays in so that the failure count shows it.
        Case("ring40", graph_text(bundle_ring(40)), (ring_cmd,)),
    ]


def _small_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED * 10 + 2)
    return [small_multigraph(rng) for _ in range(SMALL_POOL)]


def _regular_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED * 10 + 3)
    shapes = [(4, 3), (6, 3), (8, 3), (10, 3), (12, 3), (4, 4), (6, 4), (8, 4)]
    return [pairing_regular(*rng.choice(shapes), rng) for _ in range(REGULAR_POOL)]


def _cnf_pool() -> list[str]:
    rng = random.Random(POOL_SEED * 10 + 4)
    # About 4.2 clauses per variable, near the satisfiability threshold.
    return [random_3cnf(v, round(4.2 * v), rng) for v in CNF_VARIABLES]


def _corpus_sweep(rng: random.Random, everything: bool) -> list[Case]:
    # Every pool instance runs in every pass; the seed relabels the graphs
    # and orders the cases. Picking a seeded subset instead would move pass
    # time by more than the bounds allow.
    cases = []
    for i, g in enumerate(_small_pool()):
        g = g if everything else relabel(g, rng)
        delta = max_degree(g)
        cmds = (
            Command("count-d", ("count", "--input", "{input}", "--kappa", str(delta))),
            Command("count-d1", ("count", "--input", "{input}", "--kappa", str(delta + 1))),
            Command("unique4", ("unique", "--input", "{input}", "--kappa", "4")),
        )
        cases.append(Case("small%03d" % i, graph_text(g), cmds))
    for i, g in enumerate(_regular_pool()):
        g = g if everything else relabel(g, rng)
        cmds = _count_commands(max_degree(g)) + (
            Command("unique3", ("unique", "--input", "{input}", "--kappa", "3")),
        )
        cases.append(Case("regular%03d" % i, graph_text(g), cmds))
    sat = Command("sat", ("sat-transform", "--input", "{input}", "--output", "{output}"))
    for i, text in enumerate(_cnf_pool()):
        cases.append(Case("cnf%d" % i, text, (sat,)))
    return cases


_BUILDERS = {
    "gadget-verify": _gadget_verify,
    "equal-splice": _equal_splice,
    "chain-interpolate": _chain_interpolate,
    "corpus-sweep": _corpus_sweep,
}


def set_cases(name: str, seed: int, everything: bool = False) -> list[Case]:
    """One invocation set's cases for a run seed, in seeded order. With
    everything set, every pool instance in its pool labeling instead (the
    cases bench/record.py records expectations for)."""
    rng = random.Random("%s/%d" % (name, seed))
    out = _BUILDERS[name](rng, everything)
    if not everything:
        rng.shuffle(out)
    return out
