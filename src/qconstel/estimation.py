"""Quantum and classical Fisher information for constellation models.

Two routes lead to the same quantities, and each checks the other:

- The orbit-phase route works from the amplitudes psi_g(v) of the symmetric
  families (``ModelFamily.amplitudes``).  ``outcome_probabilities`` and
  ``classical_fi`` read them in any measurement basis.  In ``qft_basis``,
  which diagonalizes every state of the family, the outcome probabilities
  are the eigenvalues: ``character_basis`` (the CLI's ``eigen``) reads them
  from ``orbit_states``, and ``spectral_qfim`` is ``classical_fi`` there.
  ``simulate.crb_study`` runs on ``outcome_probabilities`` and
  ``spectral_qfim``.  The route builds no constellation or density matrix,
  calls no eigensolver, and differentiates exactly: d psi_g = -i D[..., mu] psi_g.
- The numeric pipeline (``ModelFamily.rho`` -> ``drho`` -> ``sld`` ->
  ``qfim``: the density matrix of the constellation built at v, its
  finite-difference derivative, the SLD and the QFIM) runs general machinery
  and is the independent oracle.  The CLI's ``qfi`` and ``sweep`` print its
  value against the closed forms, and the tests compare it with both the
  closed forms and the orbit-phase route.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constellation import (
    SYMMETRY_MATCH_ATOL,
    AbelianGroup,
    Constellation,
    DiscretePSF,
    SymmetryError,
    SymmetrySpec,
    make_rectangle,
    make_ring,
    matching_psf,
)
from .linalg import eig_hermitian, hermiticity_defect, unitarity_defect
from .states import density_matrix
from .symmetry import SymmetricEigenbasis, qft_matrix

SUPPORT_TOL = 1e-10
DRHO_HERMITIAN_ATOL = 1e-9
BASIS_ORTHONORMAL_ATOL = 1e-10
BLOCK_ROWS = 16  # parameter points per amplitude block in outcome_probabilities


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """Symmetric family: a unit ``template`` constellation scaled by the parameters.

    ``names`` are the parameters, each in the open interval (0, inf); only
    ``orbit_states`` accepts the closure.  ``make(v)`` builds the constellation
    at v, the template's points scaled coordinate-wise by v in the same group
    order (r scales both coordinates of a ring; x0 and y0 one each of a
    rectangle).  ``psf`` is the momentum comb.  The rest derives from these
    four fields: ``dim``, ``bounds``, ``symmetry``, ``group``, ``qft_basis``,
    the oracle ``rho(v)`` = density matrix of ``make(v)``, and the orbit-phase
    tensor ``phases`` D[g, j, mu].  The phase that source g picks up on psf
    momentum p_j, p_j . t_g(v), is linear in v:
    phi_gj(v) = sum_mu D[g, j, mu] v_mu.  ``amplitudes`` derives the source
    states from it, in the group order of the template, and their
    derivatives are -i D[..., mu] psi.

    Construction checks the condition under which ``qft_basis`` diagonalizes
    every rho of the family: sources and psf momenta share the group order,
    D[g, g * j, :] = D[0, j, :] for all g and j within ``SYMMETRY_MATCH_ATOL``
    times max |D|, or SymmetryError names g and j.
    """

    names: tuple[str, ...]
    template: Constellation
    psf: DiscretePSF
    make: Callable[[np.ndarray], Constellation]

    def __post_init__(self):
        d, table = self.phases, self.group.table
        if d.shape[:2] != table.shape:
            raise SymmetryError(f"{d.shape[:2]} sources x psf momenta, but |G| = {len(table)}")
        dev = np.max(np.abs(d[np.arange(len(table))[:, None], table] - d[0]), axis=-1)
        dev /= np.max(np.abs(d))
        bad = np.argwhere(~(dev <= SYMMETRY_MATCH_ATOL))  # NaN fails too
        if len(bad):
            g, j = bad[0]
            raise SymmetryError(f"group element {g} does not carry psf momentum {j} to "
                                f"{table[g, j]}: relative phase deviation {dev[g, j]:.3e}")

    @property
    def n_params(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return len(self.psf)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, np.inf),) * self.n_params

    @property
    def symmetry(self) -> SymmetrySpec:
        return self.template.symmetry

    @property
    def group(self) -> AbelianGroup:
        return self.symmetry.group

    @cached_property
    def qft_basis(self) -> np.ndarray:
        """Parameter-independent eigenbasis (columns) of every model state; read-only."""
        basis = qft_matrix(self.group).conj().T
        basis.flags.writeable = False
        return basis

    @cached_property
    def phases(self) -> np.ndarray:
        scale = np.ones((1, 2)) if self.n_params == 1 else np.eye(2)  # S[mu, c]
        return np.einsum("mc,gc,jc->gjm", scale, self.template.points, self.psf.momenta)

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

    def check_block(self, values) -> np.ndarray:
        """One point, or a (K, n_params) block, as a (K, n_params) array.

        Every row passes the open-interval check of ``check_values``, which
        also words the error for the first row that fails.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim < 2:
            return self.check_values(vals)[None, :]
        if vals.ndim != 2 or vals.shape[1] != self.n_params or len(vals) == 0:
            raise ValueError(
                f"expected a (K, {self.n_params}) parameter block {self.names}, "
                f"got shape {vals.shape}"
            )
        lo, hi = np.array(self.bounds).T
        bad = ~np.all((lo < vals) & (vals < hi), axis=1)  # NaN and +-inf fail too
        if bad.any():
            self.check_values(vals[np.argmax(bad)])
        return vals

    def amplitudes(self, block: np.ndarray) -> np.ndarray:
        """psi[x, g, j] = exp(-i sum_mu D[g, j, mu] v[x, mu]) / sqrt(N) of a checked block.

        Each row is computed on its own: a block gives the same bits as its
        rows one at a time.
        """
        psi = np.exp(-1j * (self.phases * block[:, None, None, :]).sum(axis=-1))
        psi /= np.sqrt(self.dim)
        return psi

    def rho(self, values) -> np.ndarray:
        return density_matrix(self.make(self.check_values(values)), self.psf)


def pair_model(p: float, theta: float = 0.0, psf_angle: float = 0.0) -> ModelFamily:
    """Two sources at angle theta; psf momenta +-p at psf_angle: ``ring_model(2, ...)``.

    The single parameter is the source radius r.
    """
    return ring_model(2, p, theta, psf_angle)


def rectangle_model(p_x: float, p_y: float) -> ModelFamily:
    """Four sources at (+-x0, +-y0); axis-aligned psf momenta (+-p_x, +-p_y).

    Parameters are the half-sides (x0, y0).
    """
    template = make_rectangle(1.0, 1.0)
    psf = matching_psf(template, p_x, p_y=p_y)
    return ModelFamily(("x0", "y0"), template, psf, lambda v: make_rectangle(v[0], v[1]))


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
    return ModelFamily(("r",), template, psf, lambda v: make_ring(n, v[0], phase))


def drho(model: ModelFamily, values, mu: int, h: float | None = None) -> np.ndarray:
    """Central-difference derivative of rho with respect to parameter mu."""
    vals = model.check_values(values)
    if not 0 <= mu < model.n_params:
        raise ValueError(f"parameter index {mu} out of range")
    step = h if h is not None else 1e-6 * max(1.0, abs(vals[mu]))
    lo, hi = model.bounds[mu]
    if not (lo < vals[mu] - step and vals[mu] + step < hi):
        raise ValueError(
            f"parameter {model.names[mu]}={vals[mu]} too close to the domain "
            f"boundary for step {step}"
        )
    shift = np.zeros_like(vals)
    shift[mu] = step
    return (model.rho(vals + shift) - model.rho(vals - shift)) / (2.0 * step)


def sld(rho: np.ndarray, drho_mu: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L) / 2.

    Spectral construction restricted to eigenvalue pairs with
    lambda_m + lambda_n > SUPPORT_TOL; rank deficiency is handled by
    dropping the unsupported terms.
    """
    defect = hermiticity_defect(np.asarray(drho_mu))
    if not defect <= DRHO_HERMITIAN_ATOL:
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
    rho = model.rho(vals)
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
    if not defect <= BASIS_ORTHONORMAL_ATOL:
        raise ValueError(f"basis is not orthonormal: max |B^H B - I| = {defect:.3e}")
    return basis


def _orbit_weights(psi: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a[x, g, k] = <b_k|psi_g(v_x)> and q[x, k] = mean_g |a[x, g, k]|^2."""
    a = psi @ basis.conj()  # one product per row, so a block repeats its rows' bits
    return a, (a * a.conj()).real.sum(axis=1) / a.shape[1]


def outcome_probabilities(model: ModelFamily, values, basis: np.ndarray) -> np.ndarray:
    """Projective-measurement outcome distribution q_k = mean_g |<b_k|psi_g>|^2.

    That is <b_k| rho |b_k>, from the orbit amplitudes of ``model``.

    ``values`` is one point, giving a vector q, or a (K, n_params) block,
    giving one row per point; every point is checked against the domain.
    A block is evaluated ``BLOCK_ROWS`` rows at a time, which bounds the
    temporaries, and gives the same bits as its rows one by one.
    """
    basis = check_basis(basis)
    block = model.check_block(values)
    q = np.concatenate([
        _orbit_weights(model.amplitudes(block[i:i + BLOCK_ROWS]), basis)[1]
        for i in range(0, len(block), BLOCK_ROWS)
    ])
    return q if np.ndim(values) == 2 else q[0]


def classical_fi(model: ModelFamily, values, basis: np.ndarray) -> np.ndarray:
    """Classical Fisher information of the outcome distribution q_k in ``basis``.

    With a_gk = <b_k|psi_g>, q_k = mean_g |a_gk|^2, and the derivatives
    follow exactly from d psi_g = -i D[..., mu] psi_g:
    F = sum_{q_k > 0} d q_k d q_k^T / q_k.  Only exact zeros are skipped,
    with no floor: each term is at most 4 mean_g |<b_k|d psi_g>|^2, so tiny
    probabilities cannot blow up.
    """
    basis = check_basis(basis)
    psi = model.amplitudes(model.check_values(values)[None, :])  # (1, G, N)
    a, q = _orbit_weights(psi, basis)
    dpsi = -1j * np.moveaxis(model.phases, -1, 0) * psi  # (n_params, G, N)
    dq = np.mean(2.0 * np.real(a.conj() * (dpsi @ basis.conj())), axis=1)
    keep = q[0] > 0.0
    f = (dq[:, keep] / q[0, keep]) @ dq[:, keep].T
    return 0.5 * (f + f.T)


def spectral_qfim(model: ModelFamily, values) -> np.ndarray:
    """Quantum Fisher information matrix by the eigenvalue route in ``model.qft_basis``.

    The symmetry eigenbasis diagonalizes every state of the family, so its
    outcome probabilities are the eigenvalues lambda_k and the classical
    Fisher information there, sum_{lambda_k > 0} d lambda_k d lambda_k^T /
    lambda_k, is the QFIM (Liu, Yuan, Lu & Wang, J. Phys. A 53, 023001
    (2020)).
    """
    return classical_fi(model, values, model.qft_basis)


def orbit_states(model: ModelFamily, values, base_element: int = 0) -> np.ndarray:
    """Group-indexed source states psi_g of a symmetric model.

    Row g is the state of the source at group element g applied to the
    orbit base point (itself shifted by ``base_element``, which relabels
    the orbit without changing the mixture): row g * base_element of
    ``model.amplitudes``.  Accepts the closure of the parameter domain,
    so degenerate boundary points like zero separation are allowed.
    """
    group = model.group
    psi = model.amplitudes(model.check_values(values, closed=True)[None, :])[0]
    return psi[group.table[:, group.check_element(base_element)]]


def character_basis(model: ModelFamily, values, base_element: int = 0) -> SymmetricEigenbasis:
    """Eigenbasis ``model.qft_basis`` of a symmetric model and its eigenvalues at a point.

    ``weights[k]`` = mean_g |<b_k|psi_g>|^2 over ``orbit_states``, as
    ``outcome_probabilities`` computes it, with no floor; the multiset is
    independent of the base-point choice.  The symmetry condition under which
    the basis is exact is checked once, when the ``ModelFamily`` is built.
    """
    states = orbit_states(model, values, base_element)
    basis = model.qft_basis
    weights = _orbit_weights(states[None], basis)[1][0]
    return SymmetricEigenbasis(vectors=basis, weights=weights, support=weights > 0)


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


def _check_ring_args(n: int, p: float, r: float, orientation: float | None) -> None:
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError(f"ring needs an integer n >= 2, got {n!r}")
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"psf magnitude p must be positive and finite, got {p}")
    if not (np.isfinite(r) and r >= 0):
        raise ValueError(f"radius r must be nonnegative and finite, got {r}")
    if not (orientation is None or np.isfinite(orientation)):
        raise ValueError(f"orientation must be finite, got {orientation}")


def ring_amplitudes(
    n: int, p: float, r: float, orientation: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier amplitudes a_k of the ring model and their radial derivatives.

    a_k = (1/n) sum_m exp(2 pi i m k / n) exp(-i p r cos(2 pi m / n + phi));
    the eigenvalues of the ring density matrix are |a_k|^2.  ``orientation``
    phi is the psf angle minus the source angle; it defaults to
    ``ring_model``'s default (0 for even n, pi/(2n) for odd n).
    """
    _check_ring_args(n, p, r, orientation)
    phi = _default_ring_orientation(n) if orientation is None else orientation
    c = np.cos(2.0 * np.pi * np.arange(n) / n + phi)
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
