"""CNF formulas, DIMACS parsing, and the off-by-one model count transform.

The transform appends a fresh variable y and produces, from Phi over
variables 1..n, the formula Phi' with clauses {y OR x_j : j <= n} and
{NOT y OR C : C in Phi}. With y true every original clause must hold and
the x_j are otherwise free, contributing count_sat(Phi) models. With y
false the original clauses are disabled but every x_j is forced true,
contributing exactly one model, whether or not it satisfies Phi. Hence

    count_sat(Phi') = count_sat(Phi) + 1.

count_sat checks it exhaustively (bit-parallel, up to 24 variables).
"""

from __future__ import annotations

from operator import index

from ._record import Record
from .errors import ParseError, PreconditionError

BRUTE_FORCE_VARIABLE_CAP = 24
# The transform writes one clause per variable, so V is capped at the header.
MAX_VARIABLES = 10**6


class CnfFormula(Record):
    """Clauses over variables 1..variable_count; literal v or -v. The empty
    clause is permitted (and unsatisfiable)."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, variable_count, clauses):
        variable_count = index(variable_count)
        if variable_count < 0:
            raise ValueError("variable count must be nonnegative")
        normalized = tuple(tuple(map(index, c)) for c in clauses)
        for ci, clause in enumerate(normalized):
            for lit in clause:
                if lit == 0 or abs(lit) > variable_count:
                    raise ValueError(
                        "clause %d: literal %d out of range for %d variables"
                        % (ci, lit, variable_count)
                    )
        object.__setattr__(self, "variable_count", variable_count)
        object.__setattr__(self, "clauses", normalized)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse the DIMACS subset: 'c' comment lines, one 'p cnf V C' header,
    then whitespace-separated literals with each clause terminated by 0."""
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("line %d: duplicate header" % lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("line %d: malformed header %r" % (lineno, line))
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("line %d: malformed header %r" % (lineno, line))
            if header[0] < 0 or header[1] < 0:
                raise ParseError("line %d: negative header counts" % lineno)
            if header[0] > MAX_VARIABLES:
                raise PreconditionError(
                    "line %d: variable count %d exceeds the cap of %d variables"
                    % (lineno, header[0], MAX_VARIABLES)
                )
            continue
        if header is None:
            raise ParseError("line %d: clause data before header" % lineno)
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise ParseError("line %d: bad token %r" % (lineno, tok))
    if header is None:
        raise ParseError("missing 'p cnf' header")
    variable_count, clause_count = header
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ParseError("last clause is not terminated by 0")
    if len(clauses) != clause_count:
        raise ParseError(
            "header declares %d clauses, found %d" % (clause_count, len(clauses))
        )
    try:
        return CnfFormula(variable_count, clauses)
    except ValueError as exc:
        raise ParseError(str(exc))


def render_dimacs(phi: CnfFormula) -> str:
    lines = ["p cnf %d %d" % (phi.variable_count, phi.clause_count)]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause + (0,)))
    return "\n".join(lines) + "\n"


def transform_phi_prime(phi: CnfFormula) -> CnfFormula:
    """Phi' over n+1 variables: count_sat(Phi') = count_sat(Phi) + 1."""
    y = phi.variable_count + 1
    clauses = [(-y,) + clause for clause in phi.clauses]
    clauses.extend((y, j) for j in range(1, phi.variable_count + 1))
    return CnfFormula(y, clauses)


def count_sat(phi: CnfFormula, cap: int = BRUTE_FORCE_VARIABLE_CAP) -> int:
    """Exact model count by exhaustive enumeration, refused above the cap.

    Bit-parallel: bit a of a 2^k-bit mask stands for assignment a of the
    low k = min(n, 16) variables. The column of low variable v, the
    assignments that set it, is one period (2^v clear bits, then 2^v set
    bits) doubled by shift-or up to 2^k bits. Each assignment of the other
    variables ANDs one column per clause into a models mask and adds its
    popcount.
    """
    n = phi.variable_count
    if n > cap:
        raise PreconditionError(
            "%d variables exceeds the brute-force cap of %d" % (n, cap)
        )
    k = min(n, 16)
    full = (1 << (1 << k)) - 1
    column = {}  # literal of a low variable -> the assignments it makes true
    for v in range(k):
        col = ((1 << (1 << v)) - 1) << (1 << v)
        width = 2 << v
        while width < 1 << k:
            col |= col << width
            width *= 2
        column[v + 1], column[-v - 1] = col, full ^ col
    clauses = []
    for clause in phi.clauses:
        pos = neg = low = 0
        for lit in clause:
            if abs(lit) <= k:
                low |= column[lit]
            elif lit > 0:
                pos |= 1 << (lit - 1 - k)
            else:
                neg |= 1 << (-lit - 1 - k)
        clauses.append((pos, neg, low))
    high_full = (1 << (n - k)) - 1
    count = 0
    for high in range(1 << (n - k)):
        models = full
        for pos, neg, low in clauses:
            if not (high & pos or (high ^ high_full) & neg):
                models &= low
        count += models.bit_count()
    return count
