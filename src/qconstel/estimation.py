"""Quantum and classical Fisher information for symmetric model families.

A ``ModelFamily`` is its symmetry group, its unit source points and its psf
momenta; ``ring_model`` and ``rectangle_model`` build them from
``constellation.make_ring`` and ``make_rectangle``.  Two routes lead to the
same quantities, and each checks the other:

- The Fourier route.  The group transform Q (``symmetry.qft_matrix``)
  diagonalizes every rho of the family, whose eigenvalues are lambda =
  |a|^2 with a = Q psi_0, the transform of one source state.  A basis B
  enters through the fixed transfer matrix W = |Q B|^2: its outcome
  probabilities are q = lambda W, and in ``qft_basis`` q = lambda (CLI
  ``eigen``, eigenvalue sweeps) and ``spectral_qfim`` is ``classical_fi``.
  One kernel, ``_probabilities``, of the source-0 phase phi_0 (``_phase`` of
  a block, D_0^T x in an MLE probe), serves ``outcome_probabilities`` and
  ``simulate.crb_study`` in every basis; ``classical_fi`` forms q and d q
  from ``_amplitudes`` itself.  None builds a density matrix or eigensolves.
- The numeric pipeline (``ModelFamily.rho`` -> ``drho`` -> ``sld`` ->
  ``qfim``: the density matrix of the sources ``points * v``, its
  finite-difference derivative, the SLD and the QFIM) runs general machinery
  and is the independent oracle.  The CLI's ``qfi`` and ``sweep`` print its
  value against ``closed_form``, and the tests compare it with the closed
  forms, the Fourier route and the ring FFT route of ``tests/oracles.py``.

Each parameter scales the template, so lies in (0, inf), open for ``rho`` and
the information quantities, as the QFI jumps where rho changes rank (Safranek,
PRA 95, 052320 (2017)), and closed for the states ``orbit_states`` and the
probabilities ``outcome_probabilities``; ``ModelFamily.check_block`` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constellation import SymmetryError, _as_points, _check_distinct, make_rectangle, make_ring
from .linalg import UNITARY_ATOL, eig_hermitian, hermiticity_defect, unitarity_defect
from .states import density_matrix
from .symmetry import AbelianGroup, qft_matrix

SUPPORT_TOL = 1e-10
SYMMETRY_MATCH_ATOL = 1e-9
DRHO_HERMITIAN_ATOL = 1e-9
BOX_MARGIN = 1e-3  # delta: a family's ``box`` keeps this far inside each end


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """Symmetric family: its ``group``, unit source ``points`` and psf ``momenta``.

    ``names`` are the parameters, each in the domain (0, inf) of the module
    docstring, which ``check_block`` checks.  ``points`` is the unit source
    template in group order, and the sources at v are ``points * v``: r
    scales both coordinates of a ring, x0 and y0 one each of a rectangle.
    ``momenta`` is the psf comb.  Both are read-only (m, 2) arrays.
    ``ring_model`` and ``rectangle_model`` attach what the symmetry fixes, None
    in a hand-built family: the QFIM ``closed_form``, a read-only (n_params,
    n_params) array, and ``box``, a default estimator interval (lo, hi) per
    parameter.  The rest derives from the first four fields: ``dim``,
    ``qft_basis``, the oracle ``rho(v)``, the density matrix of the sources
    at v, the orbit-phase tensor ``phases`` D[g, j, mu], and two constants
    built once per model: ``_qft_transpose``, Q^T = ``qft_basis.conj()``
    (read-only), of every ``_amplitudes`` and ``_transfer`` product, and
    ``_sqrt_dim``, sqrt(N), of every source state.  The phase that source g
    picks up on psf momentum p_j, p_j . t_g(v), is linear in v: phi_gj(v) =
    sum_mu D[g, j, mu] v_mu.  By the symmetry below, the state exp(-i
    phi_0(v)) / sqrt(N) of source 0 fixes every eigenvalue of rho.

    Construction checks the fields once: one or two parameters, finite and
    distinct points and momenta (ValueError names which), and the condition
    under which ``qft_basis`` diagonalizes every rho of the family: sources
    and psf momenta share the group order, D[g, g * j, :] = D[0, j, :] for
    all g and j within ``SYMMETRY_MATCH_ATOL`` times max |point| max
    |momentum|, a bound on |D|, or SymmetryError names g and j.
    """

    names: tuple[str, ...]
    group: AbelianGroup
    points: np.ndarray
    momenta: np.ndarray
    closed_form: np.ndarray | None = None
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n_params not in (1, 2):
            raise ValueError(f"a family scales its points by one parameter or two, "
                             f"got {self.names}")
        for field, what in (("points", "source points"), ("momenta", "psf momenta")):
            arr = _as_points(getattr(self, field), what)
            _check_distinct(arr, what)
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)
        if self.closed_form is not None:
            object.__setattr__(self, "closed_form", np.array(self.closed_form, dtype=float))
            self.closed_form.flags.writeable = False
        d, table = self.phases, self.group.table
        if d.shape[:2] != table.shape:
            raise SymmetryError(f"{d.shape[:2]} sources x psf momenta, but |G| = {len(table)}")
        dev = np.max(np.abs(d[np.arange(len(table))[:, None], table] - d[0]), axis=-1)
        # a bound on |D|, never 0: a group has >= 2 elements, so >= 2 distinct points
        dev /= np.linalg.norm(self.points, axis=1).max() * np.linalg.norm(self.momenta, axis=1).max()
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
        return len(self.momenta)

    @cached_property
    def qft_basis(self) -> np.ndarray:
        """Parameter-independent eigenbasis (columns) of every model state; read-only."""
        basis = qft_matrix(self.group).conj().T
        basis.flags.writeable = False
        return basis

    @cached_property
    def _qft_transpose(self) -> np.ndarray:
        """Q^T = ``qft_basis.conj()``, of every ``_amplitudes`` and ``_transfer`` product; read-only."""
        qt = self.qft_basis.conj()
        qt.flags.writeable = False
        return qt

    @cached_property
    def _sqrt_dim(self) -> np.float64:
        """sqrt(N), the norm factor of every source state."""
        return np.sqrt(self.dim)

    @cached_property
    def phases(self) -> np.ndarray:
        scale = np.ones((1, 2)) if self.n_params == 1 else np.eye(2)  # S[mu, c]
        return np.einsum("mc,gc,jc->gjm", scale, self.points, self.momenta)

    def check_block(self, values, closed: bool = True) -> np.ndarray:
        """One point, or a (K, n_params) block, as a checked (K, n_params) array.

        Every entry must be finite and >= 0, or > 0 if not ``closed``; the
        ValueError names the first row that fails.  Functions of one point
        unpack the single row, so a block of more raises ValueError there.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim < 2:
            if vals.size != self.n_params:
                raise ValueError(f"expected {self.n_params} parameter(s) {self.names}, "
                                 f"got shape {vals.shape or (1,)}")
            vals = vals.reshape(1, -1)
        elif vals.ndim != 2 or vals.shape[1] != self.n_params or len(vals) == 0:
            raise ValueError(f"expected a (K, {self.n_params}) parameter block {self.names}, "
                             f"got shape {vals.shape}")
        lo = vals.min()  # min and max propagate NaN, which fails both tests
        if not ((lo >= 0.0 if closed else lo > 0.0) and vals.max() < np.inf):
            inside = vals >= 0.0 if closed else vals > 0.0
            k = np.argmin(np.all(inside & (vals < np.inf), axis=1))
            if not np.all(np.isfinite(vals[k])):
                raise ValueError(f"parameters must be finite, got {vals[k]}")
            mu = np.argmin(inside[k])
            interval = "interval [0.0, inf]" if closed else "open interval (0.0, inf)"
            raise ValueError(f"parameter {self.names[mu]}={vals[k, mu]} outside {interval}")
        return vals

    def rho(self, values) -> np.ndarray:
        (vals,) = self.check_block(values, closed=False)
        return density_matrix(self.points * vals, self.momenta)


def _psf_momentum(name: str, p: float) -> float:
    """``p`` if it is a positive finite psf momentum; else a ValueError naming ``name``."""
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"{name} must be positive and finite, got {p}")
    return p


def rectangle_model(p_x: float, p_y: float) -> ModelFamily:
    """Four sources at (+-x0, +-y0); the psf is ``make_rectangle(p_x, p_y)``, (+-p_x, +-p_y).

    Parameters are the half-sides (x0, y0).  The ``closed_form`` is diag(4 p_x^2,
    4 p_y^2), and each axis takes the pair's ``box`` (``ring_model``) at its p.
    """
    momenta = make_rectangle(_psf_momentum("psf momentum magnitude", p_x),
                             _psf_momentum("p_y", p_y))
    return ModelFamily(("x0", "y0"), AbelianGroup((2, 2)), make_rectangle(1.0, 1.0), momenta,
                       np.diag([4.0 * p_x * p_x, 4.0 * p_y * p_y]),
                       tuple((BOX_MARGIN, np.pi / (2.0 * p) - BOX_MARGIN) for p in (p_x, p_y)))


def _default_ring_orientation(n: int) -> float:
    """PSF angle minus source angle at which the ring's ``closed_form`` 2p^2 holds.

    The QFI meets the Parseval sum over the ring's Fourier amplitudes a_k
    exactly when every a_k* a_k' is real: at pi/2 mod pi/n, 0 for even n and
    pi/(2n) for odd n.  A parity branch, not the float (pi/2) % (pi/n),
    which lands just below pi/n at some n.
    """
    return 0.0 if n % 2 == 0 else np.pi / (2.0 * n)


def ring_model(
    n: int, p: float, phase: float = 0.0, psf_phase: float | None = None
) -> ModelFamily:
    """n sources on a circle; the psf is the momentum ring ``make_ring(n, p, psf_phase)``.

    The pair is n = 2: two sources at angles phase and phase + pi, psf
    momenta +-p at psf_phase.  The single parameter is the ring radius r.
    ``psf_phase`` is the absolute angle of the first psf momentum.  By
    default it is ``phase`` plus ``_default_ring_orientation(n)``, 0 for even
    n and pi/(2n) for odd n, where the radial QFI is the ``closed_form`` 2p^2;
    with the psf aligned to the sources (``psf_phase=phase``), odd n fall
    below it.  The pair's ``closed_form`` is 4p^2 cos^2(phase - psf_phase)
    and its ``box`` (delta, pi/(2p) - delta), as its likelihood mirrors at
    pi/(2p); larger rings take (delta, pi/p - delta), delta = ``BOX_MARGIN``.
    """
    if psf_phase is None:
        psf_phase = phase + _default_ring_orientation(n)
    points = make_ring(n, 1.0, phase)
    p = _psf_momentum("psf momentum magnitude", p)
    if not np.isfinite(psf_phase):
        raise ValueError(f"psf phase must be finite, got {psf_phase}")
    if n == 2:
        c = np.cos(phase - psf_phase)
        qfi, hi = 4.0 * p * p * c * c, np.pi / (2.0 * p)
    else:
        qfi, hi = 2.0 * p * p, np.pi / p
    return ModelFamily(("r",), AbelianGroup((n,)), points, make_ring(n, p, psf_phase),
                       np.array([[qfi]]), ((BOX_MARGIN, hi - BOX_MARGIN),))


def drho(model: ModelFamily, values, mu: int) -> np.ndarray:
    """Central-difference derivative of rho in parameter mu, step 1e-6 max(1, |v_mu|)."""
    (vals,) = model.check_block(values, closed=False)
    if not 0 <= mu < model.n_params:
        raise ValueError(f"parameter index {mu} out of range")
    step = 1e-6 * max(1.0, abs(vals[mu]))
    if not (0.0 < vals[mu] - step and vals[mu] + step < np.inf):
        raise ValueError(f"parameter {model.names[mu]}={vals[mu]} too close to the domain "
                         f"boundary for step {step}")
    shift = np.zeros_like(vals)
    shift[mu] = step
    return (model.rho(vals + shift) - model.rho(vals - shift)) / (2.0 * step)


def sld(rho: np.ndarray, drho_mu: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L) / 2.

    Spectral construction restricted to eigenvalue pairs with
    lambda_m + lambda_n > SUPPORT_TOL; rank deficiency is handled by
    dropping the unsupported terms.
    """
    defect = hermiticity_defect(drho_mu)
    if not defect <= DRHO_HERMITIAN_ATOL:
        raise ValueError(f"drho is not Hermitian: max |A - A^H| = {defect:.3e}")
    w, v = eig_hermitian(rho)
    t = v.conj().T @ drho_mu @ v
    denom = w[:, None] + w[None, :]
    coeff = np.zeros_like(t)
    mask = denom > SUPPORT_TOL
    coeff[mask] = 2.0 * t[mask] / denom[mask]
    return v @ coeff @ v.conj().T


def qfim(model: ModelFamily, values) -> np.ndarray:
    """Quantum Fisher information matrix F_mn = Re tr(L_m L_n rho), from ``drho``'s step."""
    (vals,) = model.check_block(values, closed=False)
    rho = model.rho(vals)
    slds = [sld(rho, drho(model, vals, mu)) for mu in range(model.n_params)]
    k = model.n_params
    f = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            f[a, b] = f[b, a] = float(np.real(np.trace(slds[a] @ slds[b] @ rho)))
    return f


def check_basis(basis: np.ndarray, dim: int) -> np.ndarray:
    """``basis`` as complex128, if it is a unitary of the model dimension ``dim``."""
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.shape != (dim, dim):
        raise ValueError(f"measurement basis must be a square {dim}x{dim} matrix for the "
                         f"model's {dim} modes, got shape {basis.shape}")
    defect = unitarity_defect(basis)
    if not defect <= UNITARY_ATOL:
        raise ValueError(f"basis is not orthonormal: max |B^H B - I| = {defect:.3e}")
    return basis


def _transfer(model: ModelFamily, basis: np.ndarray) -> np.ndarray | None:
    """W[l, k] = |(Q B)[l, k]|^2 of a checked basis B; None if B equals ``qft_basis``.

    There W is the identity up to a rounding that would swamp small
    eigenvalues.  Q is the view ``model._qft_transpose.T``; no call copies it.
    """
    if np.array_equal(basis, model.qft_basis):
        return None
    t = model._qft_transpose.T @ basis
    return (t * t.conj()).real


def _phase(model: ModelFamily, block: np.ndarray) -> np.ndarray:
    """phi_0 = sum_mu D[0, :, mu] v_mu, shape (K, N), of a checked (K, n_params) block."""
    return (model.phases[0] * block[:, None, :]).sum(axis=-1)


def _amplitudes(model: ModelFamily, phase: np.ndarray,
                derivatives: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """a[x] = Q psi_0, shape (K, 1, N), of the source-0 phase phi_0, shape (K, N).

    ``_phase`` forms phi_0 from a block, the probes of ``simulate.crb_study`` as
    D_0^T x.  Q sends the constant part of psi_0 = (1 + expm1(-i phi_0)) / sqrt(N)
    to e_0 exactly, so no rounding floor lies under small amplitudes.  With
    ``derivatives`` it returns ``(a, da)`` with da[x, mu] = Q (-i D[0, :, mu]
    psi_0), shape (K, n_params, N).  A block repeats its rows' bits.
    """
    qt, sqrt_dim = model._qft_transpose, model._sqrt_dim  # Q^T, as Q is symmetric
    e = np.expm1(-1j * phase) / sqrt_dim
    a = e[:, None, :] @ qt  # one (1, N) product per row
    a[:, 0, 0] += 1.0
    if not derivatives:
        return a
    return a, (-1j * model.phases[0].T * (e + 1.0 / sqrt_dim)[:, None, :]) @ qt


def _probabilities(model: ModelFamily, phase: np.ndarray,
                   transfer: np.ndarray | None) -> np.ndarray:
    """q[x, 0] = lambda W of a source-0 phase phi_0, shape (K, N), and a ``_transfer`` W.

    lambda = |a|^2 of the ``_amplitudes`` a.  ``outcome_probabilities`` passes
    ``_phase`` of a checked block; ``simulate.crb_study`` passes D_0^T x,
    unchecked, for the golden-section probes of its estimator, ``simulate._mle``.
    """
    a = _amplitudes(model, phase)
    q = (a * a.conj()).real
    return q if transfer is None else q @ transfer


def outcome_probabilities(model: ModelFamily, values, basis: np.ndarray) -> np.ndarray:
    """Projective-measurement outcome distribution q_k = <b_k| rho |b_k>.

    ``values`` is one point, giving a vector q, or a (K, n_params) block of
    the closed domain, giving one row per point.  The arithmetic is
    ``_probabilities``, run after ``check_basis`` and ``check_block``.
    """
    basis = check_basis(basis, model.dim)
    q = _probabilities(model, _phase(model, model.check_block(values)), _transfer(model, basis))[:, 0]
    return q if np.ndim(values) == 2 else q[0]


def classical_fi(model: ModelFamily, values, basis: np.ndarray) -> np.ndarray:
    """Classical Fisher information of the outcome distribution q = lambda W in ``basis``.

    F = sum_{q_k > 0} d q_k d q_k^T / q_k, with d q = d lambda W exact.  Only
    exact zeros are skipped, with no floor: by Cauchy-Schwarz each term is
    at most sum_l W[l, k] (d lambda_l)^2 / lambda_l <= 4 sum_l W[l, k]
    |d a_l|^2, so tiny probabilities cannot blow up.  In ``qft_basis``
    (q = lambda) each term is g_k g_k^T with g_k = 2 Re(a_hat_k d a_k) and
    a_hat_k = conj(a_k) / |a_k|, which never forms |a|^2: that underflows
    below p r ~ 1e-154, and the information with it.
    """
    basis = check_basis(basis, model.dim)
    phase = _phase(model, model.check_block(values, closed=False))
    transfer = _transfer(model, basis)
    if transfer is None:
        (a,), (da,) = _amplitudes(model, phase, derivatives=True)
        a = a[0]
        mod = np.abs(a)
        keep = mod > 0.0
        # real and imaginary parts apart: dividing a complex by a subnormal real overflows
        g = 2.0 * (a.real[keep] / mod[keep] * da.real[:, keep]
                   + a.imag[keep] / mod[keep] * da.imag[:, keep])
        f = g @ g.T
    else:
        # row 0 holds q = lambda W, the rows below it d q = d lambda W, where
        # d lambda = 2 Re(conj(a) d a)
        a, da = _amplitudes(model, phase, derivatives=True)
        (q,) = np.concatenate([(a * a.conj()).real, 2.0 * (a.conj() * da).real], axis=1) @ transfer
        keep = q[0] > 0.0
        f = (q[1:, keep] / q[0, keep]) @ q[1:, keep].T
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


def orbit_states(model: ModelFamily, values) -> np.ndarray:
    """Source states psi_g of a symmetric model, one row per group element g.

    Accepts the closed domain, so zero separation too.  The rows come
    straight from the phase tensor, apart from the Fourier route.
    """
    (vals,) = model.check_block(values)
    return np.exp(-1j * (model.phases * vals).sum(axis=-1)) / model._sqrt_dim

