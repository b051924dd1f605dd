"""Quantum and classical Fisher information for constellation models.

The numeric pipeline (finite-difference derivative -> SLD -> QFIM) is kept
independent of the closed-form routes so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constellation import (
    AbelianGroup,
    Constellation,
    DiscretePSF,
    SymmetrySpec,
    apply_group_element,
    make_pair,
    make_rectangle,
    make_ring,
    matching_psf,
    validate_symmetry,
)
from .linalg import eig_hermitian, hermiticity_defect, unitarity_defect
from .states import density_matrix, source_state
from .symmetry import SymmetricEigenbasis, qft_matrix, symmetric_eigenbasis

SUPPORT_TOL = 1e-10
PROB_FLOOR = 1e-12
DRHO_HERMITIAN_ATOL = 1e-9
BASIS_ORTHONORMAL_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """Parameterized density-matrix family with a fixed constellation kind + psf.

    ``bounds`` are open intervals; parameter vectors must lie strictly
    inside (boundary points are reachable only through the orbit-state
    routines, which accept the closure).  For the symmetric factories,
    ``orbit_base`` maps a parameter vector to the source point whose group
    orbit is the constellation, and ``group`` and ``qft_basis`` derive from
    ``symmetry``.
    """

    names: tuple[str, ...]
    dim: int
    bounds: tuple[tuple[float, float], ...]
    builder: Callable[[np.ndarray], np.ndarray]
    psf: DiscretePSF | None = None
    symmetry: SymmetrySpec | None = None
    orbit_base: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def group(self) -> AbelianGroup | None:
        """Symmetry group of ``symmetry``; None for a model without one."""
        return None if self.symmetry is None else self.symmetry.group

    @cached_property
    def qft_basis(self) -> np.ndarray | None:
        """Parameter-independent eigenbasis (columns) of every model state."""
        return None if self.symmetry is None else qft_matrix(self.group).conj().T

    @property
    def n_params(self) -> int:
        return len(self.names)

    def check_values(self, values, closed: bool = False) -> np.ndarray:
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameter(s) {self.names}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"parameters must be finite, got {vals}")
        for name, v, (lo, hi) in zip(self.names, vals, self.bounds):
            if closed:
                if not lo <= v <= hi:
                    raise ValueError(f"parameter {name}={v} outside interval [{lo}, {hi}]")
            elif not lo < v < hi:
                raise ValueError(f"parameter {name}={v} outside open interval ({lo}, {hi})")
        return vals

    def rho(self, values) -> np.ndarray:
        return self.builder(self.check_values(values))


def _symmetric_model(
    names: tuple[str, ...], template: Constellation, psf: DiscretePSF, make: Callable
) -> ModelFamily:
    """Family of the unit ``template`` scaled coordinate-wise by parameters in (0, inf).

    ``make(v)`` builds the constellation at v, so its first point is v times the template's.
    """
    return ModelFamily(
        names=names,
        dim=len(psf),
        bounds=((0.0, np.inf),) * len(names),
        builder=lambda v: density_matrix(make(v), psf),
        psf=psf,
        symmetry=template.symmetry,
        orbit_base=lambda v: v * template.points[0],
    )


def pair_model(p: float, theta: float = 0.0, psf_angle: float = 0.0) -> ModelFamily:
    """Two inversion-symmetric sources at angle theta; psf momenta +-p at psf_angle.

    The single parameter is the source radius r.
    """
    template = make_pair(1.0, theta)
    psf = matching_psf(template, p, phase=psf_angle)
    return _symmetric_model(("r",), template, psf, lambda v: make_pair(v[0], theta))


def rectangle_model(p_x: float, p_y: float) -> ModelFamily:
    """Four sources at (+-x0, +-y0); axis-aligned psf momenta (+-p_x, +-p_y).

    Parameters are the half-sides (x0, y0).
    """
    template = make_rectangle(1.0, 1.0)
    psf = matching_psf(template, p_x, p_y=p_y)
    return _symmetric_model(("x0", "y0"), template, psf, lambda v: make_rectangle(v[0], v[1]))


def _default_ring_orientation(n: int) -> float:
    """PSF angle minus source angle at which the ring's 2p^2 closed form holds.

    The eigenvalue route meets the Parseval sum exactly when the orientation
    is pi/2 mod pi/n: 0 for even n, pi/(2n) for odd n.  A parity branch, not
    the float (pi/2) % (pi/n), which lands just below pi/n at some n.
    """
    return 0.0 if n % 2 == 0 else np.pi / (2.0 * n)


def ring_model(
    n: int, p: float, phase: float = 0.0, psf_phase: float | None = None
) -> ModelFamily:
    """n sources on a circle; psf is the matching n-point momentum ring.

    The single parameter is the ring radius r.  ``psf_phase`` is the absolute
    angle of the first psf momentum.  By default it is ``phase`` plus 0 for
    even n and pi/(2n) for odd n: the orientations at which every a_k* a_k'
    is real, so the radial QFI is the closed form 2p^2 (4p^2 at n = 2).  With
    the psf aligned to the sources (``psf_phase=phase``), odd n fall below it.
    """
    if psf_phase is None:
        psf_phase = phase + _default_ring_orientation(n)
    template = make_ring(n, 1.0, phase)
    psf = matching_psf(template, p, phase=psf_phase)
    return _symmetric_model(("r",), template, psf, lambda v: make_ring(n, v[0], phase))


def _step(value: float, h: float | None) -> float:
    return h if h is not None else 1e-6 * max(1.0, abs(value))


def _central_difference(f, vals: np.ndarray, mu: int, step: float) -> np.ndarray:
    """(f(vals + step e_mu) - f(vals - step e_mu)) / (2 step)."""
    shift = np.zeros_like(vals)
    shift[mu] = step
    return (f(vals + shift) - f(vals - shift)) / (2.0 * step)


def drho(model: ModelFamily, values, mu: int, h: float | None = None) -> np.ndarray:
    """Central-difference derivative of rho with respect to parameter mu."""
    vals = model.check_values(values)
    if not 0 <= mu < model.n_params:
        raise ValueError(f"parameter index {mu} out of range")
    step = _step(vals[mu], h)
    lo, hi = model.bounds[mu]
    if not (lo < vals[mu] - step and vals[mu] + step < hi):
        raise ValueError(
            f"parameter {model.names[mu]}={vals[mu]} too close to the domain "
            f"boundary for step {step}"
        )
    return _central_difference(model.builder, vals, mu, step)


def sld(rho: np.ndarray, drho_mu: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L) / 2.

    Spectral construction restricted to eigenvalue pairs with
    lambda_m + lambda_n > SUPPORT_TOL; rank deficiency is handled by
    dropping the unsupported terms.
    """
    defect = hermiticity_defect(np.asarray(drho_mu))
    if defect > DRHO_HERMITIAN_ATOL:
        raise ValueError(f"drho is not Hermitian: max |A - A^H| = {defect:.3e}")
    w, v = eig_hermitian(rho)
    t = v.conj().T @ drho_mu @ v
    denom = w[:, None] + w[None, :]
    coeff = np.zeros_like(t)
    mask = denom > SUPPORT_TOL
    coeff[mask] = 2.0 * t[mask] / denom[mask]
    return v @ coeff @ v.conj().T


def qfim(model: ModelFamily, values, h: float | None = None) -> np.ndarray:
    """Quantum Fisher information matrix F_mn = Re tr(L_m L_n rho)."""
    vals = model.check_values(values)
    rho = model.builder(vals)
    slds = [sld(rho, drho(model, vals, mu, h)) for mu in range(model.n_params)]
    k = model.n_params
    f = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            val = float(np.real(np.trace(slds[a] @ slds[b] @ rho)))
            f[a, b] = val
            f[b, a] = val
    return 0.5 * (f + f.T)


def check_basis(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError(f"measurement basis must be square, got shape {basis.shape}")
    defect = unitarity_defect(basis)
    if defect > BASIS_ORTHONORMAL_ATOL:
        raise ValueError(f"basis is not orthonormal: max |B^H B - I| = {defect:.3e}")
    return basis


def outcome_probabilities(model: ModelFamily, values, basis: np.ndarray) -> np.ndarray:
    """Projective-measurement outcome distribution q_k = <b_k| rho |b_k>."""
    basis = check_basis(basis)
    rho = model.rho(values)
    q = np.real(np.einsum("nk,nm,mk->k", basis.conj(), rho, basis))
    return np.clip(q, 0.0, None)


def classical_fi(
    model: ModelFamily, values, basis: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Classical Fisher information of the measurement outcome distribution.

    Outcomes with probability below 1e-12 are excluded from the sum.
    """
    vals = model.check_values(values)
    basis = check_basis(basis)
    q = outcome_probabilities(model, vals, basis)
    k = model.n_params
    dq = np.empty((k, q.size))
    for mu in range(k):
        dq[mu] = _central_difference(
            lambda x: outcome_probabilities(model, x, basis), vals, mu, _step(vals[mu], h)
        )
    keep = q > PROB_FLOOR
    f = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            val = float(np.sum(dq[a, keep] * dq[b, keep] / q[keep]))
            f[a, b] = val
            f[b, a] = val
    return f


def orbit_states(model: ModelFamily, values, base_element: int = 0) -> np.ndarray:
    """Group-indexed source states psi_g of a symmetric model.

    Row g is the state of the source at group element g applied to the
    orbit base point (itself shifted by ``base_element``, which relabels
    the orbit without changing the mixture).  Accepts the closure of the
    parameter domain, so degenerate boundary points like zero separation
    are allowed.
    """
    if model.psf is None or model.symmetry is None:
        raise ValueError("model carries no symmetry metadata")
    vals = model.check_values(values, closed=True)
    spec = model.symmetry
    base = apply_group_element(spec, base_element, model.orbit_base(vals)[None, :])[0]
    return np.stack(
        [
            source_state(model.psf, apply_group_element(spec, g, base[None, :])[0])
            for g in range(spec.order)
        ]
    )


def character_basis(model: ModelFamily, values, base_element: int = 0) -> SymmetricEigenbasis:
    """Character-combination eigenbasis of a symmetric model at a parameter point.

    Feeds the group orbit of source states through
    ``symmetric_eigenbasis``; the weight multiset is independent of the
    base-point choice.
    """
    states = orbit_states(model, values, base_element)
    perms = validate_symmetry(model.symmetry, model.psf.momenta)
    return symmetric_eigenbasis(states, model.group, perms)


def analytic_qfi(case: str, **params):
    """Closed-form quantum Fisher information for the symmetric model families.

    Cases: ``pair_on_axis(p)``, ``pair_off_axis(p, theta, theta0)``,
    ``rectangle(p_x, p_y)`` (returns the 2x2 matrix), ``ring(n, p)``.  The
    ring value holds at ``ring_model``'s default psf orientation; see
    ``ring_qfi_parseval`` for the condition.
    """
    if case == "pair_on_axis":
        p = params["p"]
        return 4.0 * p * p
    if case == "pair_off_axis":
        p = params["p"]
        c = np.cos(params["theta"] - params["theta0"])
        return 4.0 * p * p * c * c
    if case == "rectangle":
        px, py = params["p_x"], params["p_y"]
        return np.diag([4.0 * px * px, 4.0 * py * py])
    if case == "ring":
        n, p = params["n"], params["p"]
        return 4.0 * p * p if n == 2 else 2.0 * p * p
    raise ValueError(f"unknown analytic case: {case!r}")


def _check_ring_args(n: int, p: float, r: float) -> None:
    if n < 2:
        raise ValueError(f"ring needs n >= 2, got {n}")
    if p <= 0:
        raise ValueError(f"psf magnitude must be positive, got {p}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")


def ring_amplitudes(
    n: int, p: float, r: float, orientation: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier amplitudes a_k of the ring model and their radial derivatives.

    a_k = (1/n) sum_m exp(2 pi i m k / n) exp(-i p r cos(2 pi m / n + phi));
    the eigenvalues of the ring density matrix are |a_k|^2.  ``orientation``
    phi is the psf angle minus the source angle; it defaults to
    ``ring_model``'s default (0 for even n, pi/(2n) for odd n).
    """
    _check_ring_args(n, p, r)
    if orientation is None:
        orientation = _default_ring_orientation(n)
    c = np.cos(2.0 * np.pi * np.arange(n) / n + orientation)
    f = np.exp(-1j * p * r * c)
    return np.fft.ifft(f), np.fft.ifft(-1j * p * c * f)


def ring_eigenvalues(n: int, p: float, r: float, orientation: float | None = None) -> np.ndarray:
    """Eigenvalues of the ring density matrix, indexed by Fourier label k."""
    a, _ = ring_amplitudes(n, p, r, orientation)
    return np.abs(a) ** 2


def ring_qfi_spectral(n: int, p: float, r: float, orientation: float | None = None) -> float:
    """Radial QFI from the eigenvalue route: sum_k (d lambda_k)^2 / lambda_k.

    Only exactly vanishing eigenvalues are skipped.  Each term is at most
    4 |a_k'|^2, so tiny eigenvalues cannot blow up, while a cutoff at
    ``SUPPORT_TOL`` drops about 1e-7 of 2p^2 at n = 9, p r = 0.25.
    """
    a, ap = ring_amplitudes(n, p, r, orientation)
    lam = np.abs(a) ** 2
    dlam = 2.0 * np.real(a.conj() * ap)
    keep = lam > 0.0
    return float(np.sum(dlam[keep] ** 2 / lam[keep]))


def ring_qfi_parseval(n: int, p: float, r: float, orientation: float | None = None) -> float:
    """Radial QFI upper bound from the Parseval route: sum_k 4 |a_k'|^2.

    The sum is 2p^2 (4p^2 at n = 2) at every orientation phi.  It coincides
    with the eigenvalue route exactly when every a_k* a_k' is real, that is
    when phi = pi/2 (mod pi/n): by Jacobi-Anger every a_k then has an
    r-independent phase.
    """
    _, ap = ring_amplitudes(n, p, r, orientation)
    return float(np.sum(4.0 * np.abs(ap) ** 2))
