"""Ring and rectangle point sets, listed in the order of their symmetry group.

The same two formulas give a model's unit source template and its psf
momentum comb, as read-only (m, 2) arrays.  ``make_ring(n, r, phase)``
lists n points at angles phase + 2 pi k / n, in the order of
``AbelianGroup((n,))``, whose element k rotates by 2 pi k / n; the pair is
the two-source ring, whose rotation by pi is its point inversion.
``make_rectangle(x0, y0)`` lists (+-x0, +-y0) in the order of
``AbelianGroup((2, 2))``, whose two digits flip the signs of x and y.
"""

from __future__ import annotations

import numbers

import numpy as np


class SymmetryError(ValueError):
    """A declared symmetry does not map the given sources or momenta onto themselves."""


def _as_points(pts, what: str) -> np.ndarray:
    arr = np.atleast_2d(np.array(pts, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be an (m, 2) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


def _check_distinct(arr: np.ndarray, what: str) -> None:
    same = np.argwhere(np.triu(np.all(arr[:, None] == arr[None], axis=-1), 1))
    if len(same):
        i, j = same[0]
        raise ValueError(f"{what} must be distinct (entries {i} and {j} coincide)")


def make_rectangle(x0: float, y0: float) -> np.ndarray:
    """The four points (+-x0, +-y0), listed in sign-flip group order."""
    if not (np.isfinite(x0) and np.isfinite(y0) and x0 > 0 and y0 > 0):
        raise ValueError(f"rectangle half-sides must be positive and finite, got ({x0}, {y0})")
    pts = np.array([[x0, y0], [x0, -y0], [-x0, y0], [-x0, -y0]], dtype=float)
    pts.flags.writeable = False
    return pts


def make_ring(n: int, r: float, phase: float = 0.0) -> np.ndarray:
    """n points on a circle of radius r at angles phase + 2 pi k / n."""
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError(f"ring needs an integer n >= 2, got {n!r}")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"ring radius must be positive and finite, got {r}")
    if not np.isfinite(phase):
        raise ValueError(f"ring phase must be finite, got {phase}")
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    pts = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts.flags.writeable = False
    return pts
