"""Abelian group characters, group Fourier transforms, and symmetric eigenbases.

Group elements and character labels are indexed 0..|G|-1 in mixed-radix
order over the cyclic factors (first factor most significant, index 0 the
identity / trivial character); ``AbelianGroup`` lives in ``constellation``
next to the symmetry declarations and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import AbelianGroup

ZERO_WEIGHT_TOL = 1e-12
COVARIANCE_ATOL = 1e-10


def characters(group: AbelianGroup) -> np.ndarray:
    """Character table chi[lambda, g] = prod_f exp(2 pi i lambda_f g_f / N_f)."""
    n = group.order
    lam = np.array([group.element_tuple(k) for k in range(n)], dtype=float)
    g = lam.copy()
    inv_orders = 1.0 / np.asarray(group.factors, dtype=float)
    expo = (lam * inv_orders) @ g.T
    return np.exp(2j * np.pi * expo)


def qft_matrix(group: AbelianGroup) -> np.ndarray:
    """Group Fourier transform with entries chi_lambda(g^-1) / sqrt(|G|)."""
    chi = characters(group)
    inv = [group.inverse(g) for g in range(group.order)]
    return chi[:, inv] / np.sqrt(group.order)


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Unitary matrix of a label permutation, mapping basis state j to perm[j]."""
    n = len(perm)
    mat = np.zeros((n, n))
    mat[np.asarray(perm, dtype=np.intp), np.arange(n)] = 1.0
    return mat


def apply_permutation(perm: np.ndarray, state: np.ndarray) -> np.ndarray:
    """State after relabeling basis states j -> perm[j]."""
    out = np.empty_like(state)
    out[np.asarray(perm, dtype=np.intp)] = state
    return out


@dataclass(frozen=True, eq=False)
class SymmetricEigenbasis:
    """Character-combination eigenbasis of a group-symmetric density matrix.

    ``vectors[:, k]`` is the normalized eigenvector for character label k
    (a zero column when the weight vanishes), ``weights[k]`` the eigenvalue
    n_lambda / |G|, and ``support[k]`` flags the nonzero vectors.
    """

    vectors: np.ndarray
    weights: np.ndarray
    support: np.ndarray


def symmetric_eigenbasis(
    states: np.ndarray,
    group: AbelianGroup,
    momentum_perms: np.ndarray,
) -> SymmetricEigenbasis:
    """Diagonalize a symmetric mixture from its group-indexed pure states.

    Args:
        states: array (|G|, N); row g holds the state |psi_g> = U_g |psi_0>,
            where U_g permutes momentum labels by ``momentum_perms[g]``.
        group: the abelian symmetry group.
        momentum_perms: permutation table from ``validate_symmetry`` on the
            psf momenta, shape (|G|, N).

    The covariance precondition is checked; violations raise ValueError
    naming the offending group element.
    """
    states = np.asarray(states, dtype=np.complex128)
    n_g = group.order
    if states.shape[0] != n_g:
        raise ValueError(f"need |G|={n_g} states, got {states.shape[0]}")
    momentum_perms = np.asarray(momentum_perms, dtype=np.intp)
    if momentum_perms.shape[0] != n_g:
        raise ValueError(
            f"need |G|={n_g} momentum permutations, got {momentum_perms.shape[0]}"
        )
    for g in range(n_g):
        predicted = apply_permutation(momentum_perms[g], states[0])
        dev = float(np.max(np.abs(states[g] - predicted)))
        if not dev <= COVARIANCE_ATOL:
            raise ValueError(
                f"states are not group-covariant: element {g} deviates by {dev:.3e}"
            )

    chi = characters(group)
    raw = (chi @ states) / np.sqrt(n_g)  # row lambda = unnormalized e_lambda
    norms_sq = np.real(np.einsum("ij,ij->i", raw.conj(), raw))
    weights = norms_sq / n_g
    support = norms_sq >= ZERO_WEIGHT_TOL
    vectors = np.zeros_like(raw.T)
    for k in range(n_g):
        if support[k]:
            vectors[:, k] = raw[k] / np.sqrt(norms_sq[k])
        else:
            weights[k] = 0.0
    return SymmetricEigenbasis(vectors=vectors, weights=weights, support=support)


def verify_multiplicity_free(group: AbelianGroup, perms: np.ndarray) -> bool:
    """Whether the label-permutation representation contains each character once.

    Computes the character inner products (1/|G|) sum_g conj(chi_lambda(g))
    fix(perm_g) and checks they all equal 1.
    """
    perms = np.asarray(perms, dtype=np.intp)
    if perms.shape[0] != group.order:
        raise ValueError(f"need |G|={group.order} permutations, got {perms.shape[0]}")
    labels = np.arange(perms.shape[1])
    fixed = (perms == labels).sum(axis=1).astype(float)
    chi = characters(group)
    mult = chi.conj() @ fixed / group.order
    return bool(np.all(np.abs(mult - 1.0) <= 1e-9))
