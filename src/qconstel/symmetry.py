"""Finite abelian groups and their Fourier transform.

Group elements and character labels are indexed 0..|G|-1 in mixed-radix
order over the cyclic factors (first factor most significant, index 0 the
identity / trivial character).  A model family carries its group, and the
group alone fixes the measurement: ``qft_matrix`` Q, the Kronecker product
of one DFT per cyclic factor, maps every source state of a symmetric family
onto the eigenbasis of its density matrix, and its conjugate transpose is
``ModelFamily.qft_basis``.  The eigenvalue of label k is |(Q psi_0)_k|^2 for
the state psi_0 of any one source (``estimation``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as a product of cyclic factors.

    ``digits[g]`` holds element g's digit modulo each factor, and
    ``table[g, h]`` is the index of g * h, the digits added modulo the
    factors.  Both arrays are read-only.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or not all(isinstance(f, numbers.Integral) and f >= 2
                                       for f in self.factors):
            raise ValueError(f"every cyclic factor must be an integer >= 2, got {self.factors}")
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @cached_property
    def digits(self) -> np.ndarray:
        """(|G|, k) digits of every element, one column per cyclic factor."""
        digits = np.stack(np.unravel_index(np.arange(self.order), self.factors), axis=1)
        digits.flags.writeable = False
        return digits

    @cached_property
    def table(self) -> np.ndarray:
        """(|G|, |G|) index of g * h."""
        summed = (self.digits[:, None, :] + self.digits[None, :, :]) % self.factors
        table = np.ravel_multi_index(tuple(np.moveaxis(summed, -1, 0)), self.factors)
        table.flags.writeable = False
        return table


def qft_matrix(group: AbelianGroup) -> np.ndarray:
    """Group Fourier transform Q[lambda, g] = chi_lambda(g^-1) / sqrt(|G|).

    The Kronecker product, first factor most significant, of one DFT
    exp(-2 pi i (lambda g mod n) / n) per cyclic factor: each phase is
    reduced below 2 pi before its exponential.
    """
    q = np.ones((1, 1))
    for n in group.factors:
        k = np.arange(n)
        q = np.kron(q, np.exp(-2j * np.pi * (np.outer(k, k) % n) / n))
    return q / np.sqrt(group.order)
