"""Dense complex linear algebra for small (N <= ~64) Hermitian problems.

Eigendecomposition delegates to LAPACK (``numpy.linalg.eigh``) behind
input validation and a residual check, so a failure is always loud.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, eigh

HERMITIAN_RTOL = 1e-12
RESIDUAL_FACTOR = 64.0
UNITARY_ATOL = 1e-10  # bound on unitarity_defect for synthesis targets and measurement bases


class ConvergenceError(RuntimeError):
    """Eigensolver failed or returned eigenpairs that do not satisfy H V = V W."""


def _square(a) -> np.ndarray:
    """``a`` as an array, if it is a square 2-D matrix; else a ValueError naming its shape."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation |A - A^H|; ValueError for a non-square matrix."""
    a = _square(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation |U^H U - I|; ValueError for a non-square or empty matrix."""
    u = _square(u)
    if u.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {u.shape}")
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK, residual-checked).

    Args:
        h: square complex matrix, Hermitian within 1e-12 * ||H||_F (checked).

    Returns:
        ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v`` whose
        column k is the eigenvector for ``w[k]``.

    Raises:
        ValueError: non-square, non-finite, or non-Hermitian input.
        ConvergenceError: LAPACK failed, or the residual ||H V - V W||_F
            exceeds 64 n eps ||H||_F (never returns silent garbage).
    """
    a = _square(np.array(h, dtype=np.complex128, order="C"))
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.linalg.norm(a))
    defect = hermiticity_defect(a)
    if defect > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^H| = {defect:.3e} "
            f"(||A||_F = {scale:.3e})"
        )

    n = a.shape[0]
    try:
        w, v = eigh(a)
    except LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed (n={n}): {exc}") from None
    residual = float(np.linalg.norm(a @ v - v * w))
    limit = RESIDUAL_FACTOR * n * np.finfo(float).eps * scale
    if not residual <= limit:
        raise ConvergenceError(
            f"eigensolver residual ||HV - VW|| = {residual:.3e} exceeds {limit:.3e} (n={n})"
        )
    return w, v

