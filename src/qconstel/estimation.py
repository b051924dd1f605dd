"""Quantum and classical Fisher information for constellation models.

The numeric pipeline (finite-difference derivative -> SLD -> QFIM) is kept
independent of the closed-form routes so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constellation import (
    AbelianGroup,
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
    ``qft_basis`` holds the parameter-independent eigenbasis (columns) of
    every model state, and ``orbit_base`` maps a parameter vector to the
    source point whose group orbit is the constellation.
    """

    names: tuple[str, ...]
    dim: int
    bounds: tuple[tuple[float, float], ...]
    builder: Callable[[np.ndarray], np.ndarray]
    psf: DiscretePSF | None = None
    qft_basis: np.ndarray | None = None
    symmetry: SymmetrySpec | None = None
    orbit_base: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def group(self) -> AbelianGroup | None:
        """Symmetry group of ``symmetry``; None for a model without one."""
        return None if self.symmetry is None else self.symmetry.group

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


def pair_model(p: float, theta: float = 0.0, psf_angle: float = 0.0) -> ModelFamily:
    """Two inversion-symmetric sources at angle theta; psf momenta +-p at psf_angle.

    The single parameter is the source radius r.
    """
    template = make_pair(1.0, theta)
    psf = matching_psf(template, p, phase=psf_angle)
    return ModelFamily(
        names=("r",),
        dim=2,
        bounds=((0.0, np.inf),),
        builder=lambda v: density_matrix(make_pair(v[0], theta), psf),
        psf=psf,
        qft_basis=qft_matrix(template.symmetry.group).conj().T,
        symmetry=template.symmetry,
        orbit_base=lambda v: np.array([v[0] * np.cos(theta), v[0] * np.sin(theta)]),
    )


def rectangle_model(p_x: float, p_y: float) -> ModelFamily:
    """Four sources at (+-x0, +-y0); axis-aligned psf momenta (+-p_x, +-p_y).

    Parameters are the half-sides (x0, y0).
    """
    template = make_rectangle(1.0, 1.0)
    psf = matching_psf(template, p_x, p_y=p_y)
    return ModelFamily(
        names=("x0", "y0"),
        dim=4,
        bounds=((0.0, np.inf), (0.0, np.inf)),
        builder=lambda v: density_matrix(make_rectangle(v[0], v[1]), psf),
        psf=psf,
        qft_basis=qft_matrix(template.symmetry.group).conj().T,
        symmetry=template.symmetry,
        orbit_base=lambda v: np.array([v[0], v[1]]),
    )


def ring_model(n: int, p: float, phase: float = 0.0, psf_phase: float = 0.0) -> ModelFamily:
    """n sources on a circle; psf is the matching n-point momentum ring.

    The single parameter is the ring radius r.
    """
    template = make_ring(n, 1.0, phase)
    psf = matching_psf(template, p, phase=psf_phase)
    return ModelFamily(
        names=("r",),
        dim=n,
        bounds=((0.0, np.inf),),
        builder=lambda v: density_matrix(make_ring(n, v[0], phase), psf),
        psf=psf,
        qft_basis=qft_matrix(template.symmetry.group).conj().T,
        symmetry=template.symmetry,
        orbit_base=lambda v: np.array([v[0] * np.cos(phase), v[0] * np.sin(phase)]),
    )


def _step(value: float, h: float | None) -> float:
    return h if h is not None else 1e-6 * max(1.0, abs(value))


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
    plus = vals.copy()
    plus[mu] += step
    minus = vals.copy()
    minus[mu] -= step
    return (model.builder(plus) - model.builder(minus)) / (2.0 * step)


def sld(rho: np.ndarray, drho_mu: np.ndarray, support_tol: float = SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L) / 2.

    Spectral construction restricted to eigenvalue pairs with
    lambda_m + lambda_n > support_tol; rank deficiency is handled by
    dropping the unsupported terms.
    """
    defect = hermiticity_defect(np.asarray(drho_mu))
    if defect > DRHO_HERMITIAN_ATOL:
        raise ValueError(f"drho is not Hermitian: max |A - A^H| = {defect:.3e}")
    w, v = eig_hermitian(rho)
    t = v.conj().T @ drho_mu @ v
    denom = w[:, None] + w[None, :]
    coeff = np.zeros_like(t)
    mask = denom > support_tol
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
        step = _step(vals[mu], h)
        plus = vals.copy()
        plus[mu] += step
        minus = vals.copy()
        minus[mu] -= step
        dq[mu] = (
            outcome_probabilities(model, plus, basis)
            - outcome_probabilities(model, minus, basis)
        ) / (2.0 * step)
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
    ``rectangle(p_x, p_y)`` (returns the 2x2 matrix), ``ring(n, p)``.
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


def ring_amplitudes(n: int, p: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier amplitudes a_k of the ring model and their radial derivatives.

    a_k = (1/n) sum_m exp(2 pi i m k / n) exp(-i p r cos(2 pi m / n)); the
    eigenvalues of the ring density matrix are |a_k|^2.
    """
    _check_ring_args(n, p, r)
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    f = np.exp(-1j * p * r * c)
    return np.fft.ifft(f), np.fft.ifft(-1j * p * c * f)


def ring_eigenvalues(n: int, p: float, r: float) -> np.ndarray:
    """Eigenvalues of the ring density matrix, indexed by Fourier label k."""
    a, _ = ring_amplitudes(n, p, r)
    return np.abs(a) ** 2


def ring_qfi_spectral(n: int, p: float, r: float) -> float:
    """Radial QFI from the eigenvalue route: sum_k (d lambda_k)^2 / lambda_k."""
    a, ap = ring_amplitudes(n, p, r)
    lam = np.abs(a) ** 2
    dlam = 2.0 * np.real(a.conj() * ap)
    keep = lam > SUPPORT_TOL
    return float(np.sum(dlam[keep] ** 2 / lam[keep]))


def ring_qfi_parseval(n: int, p: float, r: float) -> float:
    """Radial QFI upper bound from the Parseval route: sum_k 4 |a_k'|^2.

    Coincides with the eigenvalue route exactly when every a_k* a_k' is
    real (true for even n with the aligned psf).
    """
    _, ap = ring_amplitudes(n, p, r)
    return float(np.sum(4.0 * np.abs(ap) ** 2))
