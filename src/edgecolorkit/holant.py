"""Binary signatures over the color domain, as small exact integer matrices.

A gadget's signature a*I + b*(J - I) comes from
counting.decompose_extension. The reductions use only its eigenvalues
from here; the matrix helpers let the tests check that a chain of gadgets
in series has the n-th power of one gadget's matrix.
"""

from __future__ import annotations

from typing import Sequence

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


def eigenvalues_ab(a: int, b: int, kappa: int) -> tuple[int, int]:
    """Eigenvalues of (a-b)I + bJ: the all-ones direction gives a+(kappa-1)b
    (multiplicity 1), every difference direction gives a-b."""
    return a + (kappa - 1) * b, a - b
