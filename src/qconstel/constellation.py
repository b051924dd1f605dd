"""Source constellations, discrete momentum-space PSFs, and planar symmetry actions.

Two symmetry kinds cover every family, ``cyclic`` and ``rect_reflections``: a
pair is the two-source ring, whose rotation by pi is its point inversion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SYMMETRY_MATCH_ATOL = 1e-9


class SymmetryError(ValueError):
    """A declared symmetry does not permute the given point set."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as a product of cyclic factors.

    Elements are indexed 0..|G|-1 in mixed-radix order over the factors
    (first factor most significant, index 0 the identity).
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(f < 2 for f in self.factors):
            raise ValueError(f"every cyclic factor must be >= 2, got {self.factors}")
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def check_element(self, g) -> int:
        """``g`` as an element index; ValueError unless it is an integer in 0..|G|-1."""
        if not (isinstance(g, numbers.Integral) and 0 <= g < self.order):
            raise ValueError(f"element index {g!r} out of range for |G|={self.order}")
        return int(g)

    def element_tuple(self, g: int) -> tuple[int, ...]:
        return tuple(int(d) for d in np.unravel_index(self.check_element(g), self.factors))

    def element_index(self, digits) -> int:
        """Index of the element with these digits, each taken modulo its factor."""
        return int(np.ravel_multi_index(np.mod(np.asarray(digits, dtype=int), self.factors),
                                        self.factors))

    def inverse(self, g: int) -> int:
        return self.element_index([-d for d in self.element_tuple(g)])

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only (|G|, |G|) table of g * h: modular addition of the element digits."""
        digits = np.unravel_index(np.arange(self.order), self.factors)
        summed = [(d[:, None] + d[None, :]) % f for d, f in zip(digits, self.factors)]
        table = np.ravel_multi_index(summed, self.factors)
        table.flags.writeable = False
        return table

    def compose(self, g: int, h: int) -> int:
        """Index of the product element g * h."""
        return int(self.table[self.check_element(g), self.check_element(h)])


@dataclass(frozen=True)
class SymmetrySpec:
    """Planar symmetry group declaration.

    kind:
        ``cyclic``            rotations by multiples of 2 pi / n  (group Z_n);
                              at n = 2 the rotation by pi is the point
                              inversion of a pair
        ``rect_reflections``  independent sign flips of x and y   (group Z_2 x Z_2)
    """

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind == "cyclic":
            if self.n is None or self.n < 2:
                raise ValueError("cyclic symmetry needs n >= 2")
        elif self.kind == "rect_reflections":
            if self.n is not None:
                raise ValueError(f"{self.kind} takes no order parameter")
        else:
            raise ValueError(f"unknown symmetry kind: {self.kind!r}")

    @classmethod
    def cyclic(cls, n: int) -> "SymmetrySpec":
        return cls("cyclic", n)

    @classmethod
    def rect_reflections(cls) -> "SymmetrySpec":
        return cls("rect_reflections")

    @property
    def factors(self) -> tuple[int, ...]:
        """Cyclic factor orders of the group."""
        return (self.n,) if self.kind == "cyclic" else (2, 2)

    @cached_property
    def group(self) -> AbelianGroup:
        """The abstract group, a product of the cyclic factors."""
        return AbelianGroup(self.factors)

    @property
    def order(self) -> int:
        return self.group.order


def _as_points(pts) -> np.ndarray:
    arr = np.atleast_2d(np.array(pts, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (m, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def _check_distinct(arr: np.ndarray, what: str) -> None:
    m = arr.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if np.max(np.abs(arr[i] - arr[j])) == 0.0:
                raise ValueError(f"{what} must be distinct (entries {i} and {j} coincide)")


@dataclass(frozen=True, eq=False)
class Constellation:
    """Equal-brightness point sources with an optional declared symmetry."""

    points: np.ndarray
    symmetry: SymmetrySpec | None = None

    def __post_init__(self):
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


def make_pair(r: float, theta: float = 0.0) -> Constellation:
    """Two sources at radius r and angles theta, theta + pi: the two-source ring.

    theta = 0 places the pair on the x axis.  Its symmetry is ``cyclic(2)``,
    whose rotation by pi is the point inversion through the origin.
    """
    if r <= 0:
        raise ValueError(f"pair radius must be positive, got {r}")
    if not np.isfinite(theta):
        raise ValueError(f"pair angle theta must be finite, got {theta}")
    return make_ring(2, r, theta)


def make_rectangle(x0: float, y0: float) -> Constellation:
    """Four sources at (+-x0, +-y0), listed in sign-flip group order."""
    if x0 <= 0 or y0 <= 0:
        raise ValueError(f"rectangle half-sides must be positive, got ({x0}, {y0})")
    pts = np.array([[x0, y0], [x0, -y0], [-x0, y0], [-x0, -y0]])
    return Constellation(pts, SymmetrySpec.rect_reflections())


def make_ring(n: int, r: float, phase: float = 0.0) -> Constellation:
    """n sources on a circle of radius r at angles phase + 2 pi k / n."""
    if n < 2:
        raise ValueError(f"ring needs at least 2 sources, got {n}")
    if r <= 0:
        raise ValueError(f"ring radius must be positive, got {r}")
    if not np.isfinite(phase):
        raise ValueError(f"ring phase must be finite, got {phase}")
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    pts = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Constellation(pts, SymmetrySpec.cyclic(n))


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
    if c.symmetry is None:
        raise ValueError("constellation has no declared symmetry")
    kind = c.symmetry.kind
    if kind != "rect_reflections" and p_y is not None:
        raise ValueError("p_y only applies to the rectangle psf")
    if kind == "rect_reflections":
        if phase != 0.0:
            raise ValueError("the rectangle psf is axis-aligned; phase must be 0")
        py = p if p_y is None else p_y
        if not (np.isfinite(py) and py > 0):
            raise ValueError(f"p_y must be positive and finite, got {py}")
        return DiscretePSF(np.array([[p, py], [p, -py], [-p, py], [-p, -py]]))
    n = c.symmetry.n
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    return DiscretePSF(p * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def apply_group_element(spec: SymmetrySpec, g: int, pts) -> np.ndarray:
    """Apply the planar orthogonal action of element g to every point."""
    arr = _as_points(pts)
    digits = spec.group.element_tuple(g)
    if spec.kind == "cyclic":
        a = 2.0 * np.pi * digits[0] / spec.n
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        return arr @ rot.T
    signs = np.array([(-1.0) ** digits[0], (-1.0) ** digits[1]])
    return arr * signs


def validate_symmetry(spec: SymmetrySpec, pts) -> np.ndarray:
    """Permutation table of the group action on a point list.

    Returns an integer array ``perm`` of shape (|G|, m) with
    ``apply_group_element(spec, g, pts)[i] == pts[perm[g, i]]`` within
    ``SYMMETRY_MATCH_ATOL`` per coordinate.  Raises SymmetryError naming the offending
    group element and point if the action fails to permute the set.
    """
    arr = _as_points(pts)
    m = arr.shape[0]
    perms = np.empty((spec.order, m), dtype=np.intp)
    for g in range(spec.order):
        moved = apply_group_element(spec, g, arr)
        taken = np.zeros(m, dtype=bool)
        for i in range(m):
            hit = np.nonzero(np.all(np.abs(arr - moved[i]) <= SYMMETRY_MATCH_ATOL, axis=1))[0]
            hit = [j for j in hit if not taken[j]]
            if not hit:
                raise SymmetryError(
                    f"group element {g} maps point {i} to "
                    f"({moved[i, 0]:.6g}, {moved[i, 1]:.6g}), which matches no point"
                )
            perms[g, i] = hit[0]
            taken[hit[0]] = True
    return perms
