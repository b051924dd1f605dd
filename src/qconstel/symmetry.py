"""Finite abelian groups, their characters and the group Fourier transform.

Group elements and character labels are indexed 0..|G|-1 in mixed-radix
order over the cyclic factors (first factor most significant, index 0 the
identity / trivial character).  A model family carries its group, and the
group alone fixes the measurement: the conjugate transpose of ``qft_matrix``
is the eigenbasis ``ModelFamily.qft_basis`` of every symmetric model family.
Column k is the eigenvector of character label k, and its eigenvalue is the
probability of outcome k, ``estimation.outcome_probabilities`` in that
basis.
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


def characters(group: AbelianGroup) -> np.ndarray:
    """Character table chi[lambda, g] = prod_f exp(2 pi i lambda_f g_f / N_f)."""
    lam = group.digits.astype(float)
    inv_orders = 1.0 / np.asarray(group.factors, dtype=float)
    expo = (lam * inv_orders) @ lam.T
    return np.exp(2j * np.pi * expo)


def qft_matrix(group: AbelianGroup) -> np.ndarray:
    """Group Fourier transform with entries chi_lambda(g^-1) / sqrt(|G|)."""
    chi = characters(group)
    inv = np.argmin(group.table, axis=1)  # the row of g holds its one identity at g^-1
    return chi[:, inv] / np.sqrt(group.order)
