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


def _max_abs_diff(u: np.ndarray, v: np.ndarray, phi: float) -> float:
    return float(np.abs(u - np.exp(1j * phi) * v).max())


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry distance between two matrices minimized over a global phase.

    Computes d(phi) = max |u - e^{i phi} v| entrywise, minimized over phi,
    and evaluates every d(phi) one phase at a time with the same arithmetic.
    The grid is the 1,024 phases 2 pi k / 1024, then arg tr(v^H u) when that
    trace is nonzero; c = exp(i grid) and c* = c[-1].  The scan keeps, in
    grid order, the phases with |c_k - c*| <= 2 (d* + e) / max|v| + 8 eps,
    where d* = d(c*) and e = 8 (eps (max|u| + max|v|) + 2^-1074) bounds the
    rounding of each computed |u_ij - c_k v_ij|.  At the entry of largest
    |v|, d(c_k) >= |c_k - c*| max|v| - d* - e, so every dropped phase scans
    above d*, itself at least the kept minimum; the 8 eps covers the
    rounding of the radius.  A zero trace or a radius not below 2 keeps
    every phase.  The first minimum wins ties.  A golden section on
    +-2 pi / 1024 around it refines down to width 1e-12, and the result,
    the smaller of the scanned and refined values, is the full scan's bit
    for bit.  So it is zero (to ~1e-12) iff ``u == exp(i phi) v`` for some
    real phi.

    Raises:
        ValueError: the matrices are not square of one shape, are empty, or
            have a non-finite entry.
    """
    # one memory order for both: the phase scan below is elementwise, and an
    # F-ordered qft_matrix against a C-ordered netlist unitary is ~20 % slower
    u = np.ascontiguousarray(u, dtype=np.complex128)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected equal square shapes, got {u.shape} and {v.shape}")
    if u.size == 0:
        raise ValueError(f"expected non-empty matrices, got shape {u.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("matrix has non-finite entries")

    grid = np.linspace(0.0, 2.0 * np.pi, 1025)[:-1]
    # tr(v^H u) overflows past entries of ~1e154; exact power-of-two scaling keeps its phase
    big = max(np.abs(u.view(np.float64)).max(), np.abs(v.view(np.float64)).max())
    s = 2.0 ** -int(np.frexp(big)[1]) if big > 2.0 ** 500 else 1.0
    tr = np.trace((s * v).conj().T @ (s * u))
    if abs(tr) > 0:  # then max|v| > 0; prune as the docstring says
        grid = np.append(grid, np.angle(tr))
        d_star = _max_abs_diff(u, v, grid[-1])
        top, eps = float(np.abs(v).max()), 2.0 ** -52
        rounding = 8.0 * (eps * (float(np.abs(u).max()) + top) + 2.0 ** -1074)
        radius = 2.0 * (d_star + rounding) / top + 8.0 * eps
        if radius < 2.0:  # false for inf and nan too: those keep every phase
            c = np.exp(1j * grid)
            grid = grid[np.abs(c - c[-1]) <= radius]
    vals = [_max_abs_diff(u, v, phi) for phi in grid]
    best = int(np.argmin(vals))
    lo, hi = grid[best] - 2.0 * np.pi / 1024, grid[best] + 2.0 * np.pi / 1024
    refined = _golden_section(lambda phi: _max_abs_diff(u, v, phi), lo, hi, 1e-12)[2]
    return min(vals[best], refined)


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float, float]:
    """Golden-section minimization of ``f`` on [a, b] down to width ``tol``.

    Ties keep the left part.  Returns the final bracket and the smaller of
    the two final probe values.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return a, b, min(f1, f2)
