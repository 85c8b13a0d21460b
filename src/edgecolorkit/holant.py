"""The eigenvalues of a gadget's binary signature a*I + b*(J - I).

The signature (a, b) comes from counting.decompose_extension. Chain
interpolation at kappa > r needs only its two eigenvalues, which
reduction._chain_weight and interpolation_pipeline take from here.
"""

from __future__ import annotations


def eigenvalues_ab(a: int, b: int, kappa: int) -> tuple[int, int]:
    """Eigenvalues of (a-b)I + bJ: the all-ones direction gives a+(kappa-1)b
    (multiplicity 1), every difference direction gives a-b."""
    return a + (kappa - 1) * b, a - b
