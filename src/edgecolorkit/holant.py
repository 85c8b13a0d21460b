"""Binary signatures over the color domain, as small exact integer matrices.

The reductions use only this much of the Holant framework: a gadget's
extension matrix (computed by the frontier engine in `counting`), its
domain-invariant decomposition a*I + b*(J - I), the eigenvalues of that
form, and matrix powers for chains of gadgets in series.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PreconditionError

Matrix = tuple[tuple[int, ...], ...]


def matrix_identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def matrix_ones(k: int) -> Matrix:
    return tuple(tuple(1 for _ in range(k)) for _ in range(k))


def matrix_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
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
    matrix: Sequence[Sequence[int]],
) -> Optional[tuple[int, int]]:
    """(a, b) when the matrix is a on the diagonal and b off it."""
    m = tuple(tuple(int(x) for x in row) for row in matrix)
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
