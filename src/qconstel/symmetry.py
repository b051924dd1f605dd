"""Abelian group characters and the group Fourier transform.

Group elements and character labels are indexed 0..|G|-1 in mixed-radix
order over the cyclic factors (first factor most significant, index 0 the
identity / trivial character); ``AbelianGroup`` lives in ``constellation``
next to the symmetry declarations and is re-exported here.  The conjugate
transpose of ``qft_matrix`` is the eigenbasis ``ModelFamily.qft_basis`` of
every symmetric model family: column k is the eigenvector of character
label k, and its eigenvalue is the probability of outcome k,
``estimation.outcome_probabilities`` in that basis.
"""

from __future__ import annotations

import numpy as np

from .constellation import AbelianGroup


def characters(group: AbelianGroup) -> np.ndarray:
    """Character table chi[lambda, g] = prod_f exp(2 pi i lambda_f g_f / N_f)."""
    lam = np.stack(np.unravel_index(np.arange(group.order), group.factors), axis=1).astype(float)
    inv_orders = 1.0 / np.asarray(group.factors, dtype=float)
    expo = (lam * inv_orders) @ lam.T
    return np.exp(2j * np.pi * expo)


def qft_matrix(group: AbelianGroup) -> np.ndarray:
    """Group Fourier transform with entries chi_lambda(g^-1) / sqrt(|G|)."""
    chi = characters(group)
    inv = np.argmin(group.table, axis=1)  # the row of g holds its one identity at g^-1
    return chi[:, inv] / np.sqrt(group.order)

