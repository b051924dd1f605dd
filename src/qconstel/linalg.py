"""Dense complex linear algebra for small (N <= ~64) Hermitian problems.

Eigendecomposition delegates to LAPACK (``numpy.linalg.eigh``) behind
input validation and a residual check, so a failure is always loud.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, eigh

HERMITIAN_RTOL = 1e-12
RESIDUAL_FACTOR = 64.0


class ConvergenceError(RuntimeError):
    """Eigensolver failed or returned eigenpairs that do not satisfy H V = V W."""


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation |A - A^H|."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation |U^H U - I|."""
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
    a = np.array(h, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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


def _max_abs_diff(u: np.ndarray, v: np.ndarray, phi: float) -> float:
    return float(np.max(np.abs(u - np.exp(1j * phi) * v)))


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry distance between two matrices minimized over a global phase.

    Zero (to refinement accuracy ~1e-12) iff ``u == exp(i phi) v`` for some
    real phi.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected equal square shapes, got {u.shape} and {v.shape}")

    grid = np.linspace(0.0, 2.0 * np.pi, 1025)[:-1]
    tr = np.trace(v.conj().T @ u)
    if abs(tr) > 0:
        grid = np.append(grid, np.angle(tr))
    vals = [_max_abs_diff(u, v, phi) for phi in grid]
    best = int(np.argmin(vals))
    phi0 = grid[best]

    # golden-section refinement around the best grid phase
    lo, hi = phi0 - 2.0 * np.pi / 1024, phi0 + 2.0 * np.pi / 1024
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = _max_abs_diff(u, v, x1)
    f2 = _max_abs_diff(u, v, x2)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _max_abs_diff(u, v, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _max_abs_diff(u, v, x2)
    return min(vals[best], f1, f2)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
