"""Source constellations, discrete momentum-space PSFs, and planar symmetry actions.

A constellation carries its symmetry group, and the group's factors fix how
it acts on the plane.  A ring of n sources has ``AbelianGroup((n,))``, whose
element g rotates by 2 pi g / n; the pair is the two-source ring
``make_ring(2, r, phase)``, whose rotation by pi is its point inversion.  A
rectangle has ``AbelianGroup((2, 2))``, whose two digits flip the signs of
x and y.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .symmetry import AbelianGroup


class SymmetryError(ValueError):
    """A declared symmetry does not map the given sources or momenta onto themselves."""


def _as_points(pts) -> np.ndarray:
    arr = np.atleast_2d(np.array(pts, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (m, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def _check_distinct(arr: np.ndarray, what: str) -> None:
    same = np.argwhere(np.triu(np.all(arr[:, None] == arr[None], axis=-1), 1))
    if len(same):
        i, j = same[0]
        raise ValueError(f"{what} must be distinct (entries {i} and {j} coincide)")


def _rotates(group: AbelianGroup) -> bool:
    """True if the group acts on the plane by rotations, False if by sign flips.

    One factor (n,) rotates by 2 pi / n; (2, 2) flips the signs of x and y.
    Any other group has no planar action, and ValueError names it.
    """
    if len(group.factors) == 1:
        return True
    if group.factors == (2, 2):
        return False
    raise ValueError(f"AbelianGroup({group.factors}) has no planar action: "
                     "rings take (n,), rectangles (2, 2)")


@dataclass(frozen=True, eq=False)
class Constellation:
    """Equal-brightness point sources with an optional symmetry group."""

    points: np.ndarray
    group: AbelianGroup | None = None

    def __post_init__(self):
        if self.group is not None:
            _rotates(self.group)  # refuses a group with no planar action
        arr = _as_points(self.points)
        if arr.shape[0] > 1:
            _check_distinct(arr, "source points")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class DiscretePSF:
    """Point spread function supported on finitely many momentum points."""

    momenta: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.momenta)
        _check_distinct(arr, "psf momenta")
        arr.flags.writeable = False
        object.__setattr__(self, "momenta", arr)

    def __len__(self) -> int:
        return self.momenta.shape[0]


def make_rectangle(x0: float, y0: float) -> Constellation:
    """Four sources at (+-x0, +-y0), listed in sign-flip group order."""
    if x0 <= 0 or y0 <= 0:
        raise ValueError(f"rectangle half-sides must be positive, got ({x0}, {y0})")
    pts = np.array([[x0, y0], [x0, -y0], [-x0, y0], [-x0, -y0]])
    return Constellation(pts, AbelianGroup((2, 2)))


def make_ring(n: int, r: float, phase: float = 0.0) -> Constellation:
    """n sources on a circle of radius r at angles phase + 2 pi k / n."""
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError(f"ring needs an integer n >= 2, got {n!r}")
    if r <= 0:
        raise ValueError(f"ring radius must be positive, got {r}")
    if not np.isfinite(phase):
        raise ValueError(f"ring phase must be finite, got {phase}")
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    pts = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Constellation(pts, AbelianGroup((n,)))


def matching_psf(
    c: Constellation, p: float, phase: float = 0.0, p_y: float | None = None
) -> DiscretePSF:
    """Momentum comb with the same symmetry and count as the constellation.

    Ring(n), the pair included as n = 2: n momenta of radius p at angles
    phase + 2 pi k / n.  Rectangle: axis-aligned (+-p, +-p_y) in sign-flip
    group order, with p_y defaulting to p; ``phase`` does not apply and must
    stay 0.
    """
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"psf momentum magnitude must be positive and finite, got {p}")
    if not np.isfinite(phase):
        raise ValueError(f"psf phase must be finite, got {phase}")
    if c.group is None:
        raise ValueError("constellation has no symmetry group")
    if _rotates(c.group):
        if p_y is not None:
            raise ValueError("p_y only applies to the rectangle psf")
        n = c.group.order
        ang = phase + 2.0 * np.pi * np.arange(n) / n
        return DiscretePSF(p * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    if phase != 0.0:
        raise ValueError("the rectangle psf is axis-aligned; phase must be 0")
    py = p if p_y is None else p_y
    if not (np.isfinite(py) and py > 0):
        raise ValueError(f"p_y must be positive and finite, got {py}")
    return DiscretePSF(np.array([[p, py], [p, -py], [-p, py], [-p, -py]]))
