"""Reference implementations that only the tests use.

Each one is written apart from the library code it checks, so a comparison
with it is a comparison of two routes:

- the point-permutation check (``apply_group_element``,
  ``validate_symmetry(points, group)``) works out the planar action of a
  group from its factors, where the library builds its symmetric families
  from a group, points and momenta and checks them through phase tensors;
- ``psf_comb`` writes out the psf momenta of a group, where the library
  takes them from ``make_ring`` and ``make_rectangle``;
- ``source_state`` is one source's state, formed alone, as the library
  formed it before ``density_matrix`` formed its own states; the tests hold
  ``orbit_states`` and ``density_matrix`` to it, the latter bit for bit;
- ``exact_drho`` is the exact derivative of rho from the points' own
  derivatives and ``psf_comb``, where ``drho`` takes a central difference
  of ``ModelFamily.rho``;
- the ring Fourier route (``ring_amplitudes`` and the eigenvalues and radial
  QFI read from them) transforms the source ring with an FFT, where the
  library multiplies one source state by ``qft_matrix``;
- the character table (``characters``) is built from the group's digits in
  one product, where ``qft_matrix`` is a Kronecker product of per-factor DFTs;
- ``haar_unitary`` samples measurement bases and test unitaries;
- ``sample_outcomes`` is the checked multinomial draw that ``crb_study``
  made per trial before it normalized the true distribution once per
  study; the public-route study draws through it, so the study's counts
  are compared with the old arithmetic.
- ``scalar_mle`` and ``golden_section`` are ``simulate._mle`` and
  ``_golden_section`` as they were before ``ModelFamily`` cached the
  amplitude constants and the probe's log-likelihood dropped numpy's
  reduction wrappers (``np.any``, ``np.sum``) for the ndarray methods; the
  public-route study estimates through them, so a change inside the
  library's estimator cannot move both sides of its bit-identity test.
- ``pair_error_moments`` gives the exact moments of the pair's estimation
  error at a finite photon number from its binomial count and closed-form
  MLE, where ``crb_study`` samples counts and searches the likelihood.
- ``DomainCheck`` holds ``ModelFamily.check_values`` and ``check_block`` as
  they were written before ``check_block(values, closed)`` became the one
  domain check: a per-parameter loop over ``bounds``, which the block check
  called for the first row that failed its mask.  The merged check must
  accept and refuse what they did, with the same message.

Arguments come from the tests, so the only input check is the element index
of ``apply_group_element``, which numpy indexing would otherwise wrap.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from qconstel.constellation import SymmetryError
from qconstel.simulate import FLAT_RTOL, MAX_PHOTONS, REFINE_TOL, EstimationError, _is_integer
from qconstel.symmetry import AbelianGroup

POINT_MATCH_ATOL = 1e-9


def apply_group_element(group: AbelianGroup, g: int, pts) -> np.ndarray:
    """Apply the planar orthogonal action of element g to every row of ``pts``.

    A single cyclic factor (n,) rotates by 2 pi / n per step; (2, 2) flips
    the sign of y with its last digit and of x with its first.  Any other
    group has no planar action, and ValueError names it.
    """
    if not (isinstance(g, numbers.Integral) and 0 <= g < group.order):
        raise ValueError(f"element index {g!r} out of range for |G|={group.order}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    digits = group.digits[g]
    if len(group.factors) == 1:
        a = 2.0 * np.pi * digits[0] / group.factors[0]
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        return pts @ rot.T
    if group.factors == (2, 2):
        return pts * (-1.0) ** digits
    raise ValueError(f"AbelianGroup({group.factors}) has no planar action")


def validate_symmetry(pts, group: AbelianGroup) -> np.ndarray:
    """Permutation table of the group action on a point list.

    Returns an integer array ``perm`` of shape (|G|, m) with
    ``apply_group_element(group, g, pts)[i] == pts[perm[g, i]]`` within
    ``POINT_MATCH_ATOL`` per coordinate.  Raises SymmetryError naming the
    offending group element and point if the action fails to permute the set.
    """
    arr = np.asarray(pts, dtype=float)
    m = arr.shape[0]
    perms = np.empty((group.order, m), dtype=np.intp)
    for g in range(group.order):
        moved = apply_group_element(group, g, arr)
        taken = np.zeros(m, dtype=bool)
        for i in range(m):
            hit = np.nonzero(np.all(np.abs(arr - moved[i]) <= POINT_MATCH_ATOL, axis=1))[0]
            hit = [j for j in hit if not taken[j]]
            if not hit:
                raise SymmetryError(
                    f"group element {g} maps point {i} to "
                    f"({moved[i, 0]:.6g}, {moved[i, 1]:.6g}), which matches no point"
                )
            perms[g, i] = hit[0]
            taken[hit[0]] = True
    return perms


def characters(group: AbelianGroup) -> np.ndarray:
    """Character table chi[lambda, g] = prod_f exp(2 pi i lambda_f g_f / N_f)."""
    lam = group.digits.astype(float)
    inv_orders = 1.0 / np.asarray(group.factors, dtype=float)
    expo = (lam * inv_orders) @ lam.T
    return np.exp(2j * np.pi * expo)


def psf_comb(
    group: AbelianGroup, p: float, phase: float = 0.0, p_y: float | None = None
) -> np.ndarray:
    """Psf momenta with the symmetry of ``group``, written out apart from the library.

    One factor (n,): n momenta of radius p at angles phase + 2 pi k / n.
    (2, 2): (+-p, +-p_y) in sign-flip group order, with p_y defaulting to p.
    """
    if len(group.factors) == 1:
        n = group.order
        ang = phase + 2.0 * np.pi * np.arange(n) / n
        return p * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    py = p if p_y is None else p_y
    return np.array([[p, py], [p, -py], [-p, py], [-p, -py]])


def source_state(momenta, x) -> np.ndarray:
    """Pure state of one source at position x imaged through a delta-comb psf.

    Amplitude on momentum basis state j is exp(-i p_j . x) / sqrt(N).
    """
    momenta = np.asarray(momenta, dtype=float)
    if len(momenta) == 0:
        raise ValueError("psf has no momenta")
    phases = momenta @ np.asarray(x, dtype=float).reshape(2)
    return np.exp(-1j * phases) / np.sqrt(len(momenta))


def exact_drho(points, tangents, momenta) -> np.ndarray:
    """Exact derivative of the density matrix of ``points`` in one parameter.

    ``tangents`` holds each point's derivative d x_g in the parameter; then
    d rho = (1/m) sum_g (|d psi_g><psi_g| + h.c.) with d psi_g = -i (p_j . d x_g) psi_g.
    """
    momenta = np.asarray(momenta, dtype=float)
    out = np.zeros((len(momenta), len(momenta)), dtype=complex)
    for x, dx in zip(np.asarray(points, dtype=float), np.asarray(tangents, dtype=float)):
        psi = source_state(momenta, x)
        term = np.outer(-1j * (momenta @ dx) * psi, psi.conj())
        out += term + term.conj().T
    return out / len(points)


def ring_amplitudes(
    n: int, p: float, r: float, orientation: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier amplitudes a_k of the ring model and their radial derivatives.

    a_k = (1/n) sum_m exp(2 pi i m k / n) exp(-i p r cos(2 pi m / n + phi));
    the eigenvalues of the ring density matrix are |a_k|^2.  ``orientation``
    phi is the psf angle minus the source angle.  It defaults to 0 for even
    n and pi/(2n) for odd n, the orientations at which every a_k* a_k' is
    real, so that the eigenvalue route meets the Parseval sum.
    """
    if orientation is None:
        orientation = 0.0 if n % 2 == 0 else np.pi / (2.0 * n)
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
    4 |a_k'|^2, so tiny eigenvalues cannot blow up, while a cutoff at 1e-10
    drops about 1e-7 of 2p^2 at n = 9, p r = 0.25.
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


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sample_outcomes(probabilities, m: int, seed) -> np.ndarray:
    """Multinomial draw of m photons over the outcome distribution.

    Deterministic for a given seed (``numpy.random.default_rng``).
    Probabilities may be off unit sum by up to 1e-9 and are renormalized;
    anything more negative than -1e-9 is rejected.  ``m`` must be an integer
    in [1, ``MAX_PHOTONS``]: the draw would truncate a fractional count and
    overflow beyond int64.
    """
    p = np.asarray(probabilities, dtype=float)
    if not _is_integer(m):
        raise ValueError(f"photon count must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"photon count must be >= 1, got {m}")
    if m > MAX_PHOTONS:
        raise ValueError(f"photon count must be <= {MAX_PHOTONS} (int64), got {m}")
    if np.any(p < -1e-9):
        raise ValueError(f"negative outcome probability: min = {p.min():.3e}")
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(m, p)


def golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of ``f`` on [a, b]; the final bracket, of width <= ``tol``.

    Ties keep the left part.
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
    return a, b


def scalar_mle(counts: np.ndarray, grid: np.ndarray, table: np.ndarray, probe) -> float:
    """Maximum-likelihood estimate of the scalar parameter from one trial's counts.

    A scan of ``grid``, whose outcome probabilities are the rows of
    ``table``, locates the coarse optimum (ties resolved toward the smaller
    parameter); golden-section refinement of -log L between its neighbours,
    with ``probe(x)`` the probabilities at x, narrows it to ``REFINE_TOL``.
    The observed outcomes are found once, for the scan and every probe.
    """
    observed = counts > 0
    n = counts[observed].astype(float)
    q = table[:, observed]
    ll = np.full(len(grid), -np.inf)
    ok = np.all(q > 0.0, axis=1)
    ll[ok] = np.log(q[ok]) @ n
    finite = np.isfinite(ll)
    if not np.any(finite):
        raise EstimationError("likelihood is zero everywhere on the search grid")
    spread = np.max(ll[finite]) - np.min(ll[finite])
    if np.all(finite) and spread <= FLAT_RTOL * max(1.0, abs(np.max(ll))):
        raise EstimationError("flat likelihood: outcomes carry no parameter information")

    def minus_log_l(x):
        q = probe(x)[observed]
        return np.inf if np.any(q <= 0.0) else -float(np.sum(n * np.log(q)))

    best = int(np.argmax(ll))  # first maximum = smaller parameter on ties
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    # ties keep the left part, the smaller parameter
    a, b = golden_section(minus_log_l, a, b, REFINE_TOL)
    return 0.5 * (a + b)


def pair_error_moments(p: float, r: float, m: int, bounds) -> tuple[float, float, float, float]:
    """Exact moments of the pair's estimation error e = r_hat - r at m photons.

    In ``qft_basis`` the count n0 of outcome 0 is Binomial(m, cos^2(p r)),
    and the MLE is arccos(sqrt(n0 / m)) / p clipped to ``bounds``.  Sums over
    n0 = 0..m, with log binomial weights from ``math.lgamma``, and returns
    the pmf's total and E[e], E[e^2], E[e^4].  Needs 0 < p r < pi / 2.
    """
    lo, hi = bounds
    log_q0, log_q1 = 2.0 * math.log(math.cos(p * r)), 2.0 * math.log(math.sin(p * r))
    total = e1 = e2 = e4 = 0.0
    for n0 in range(m + 1):
        w = math.exp(math.lgamma(m + 1) - math.lgamma(n0 + 1) - math.lgamma(m - n0 + 1)
                     + n0 * log_q0 + (m - n0) * log_q1)
        e = min(max(math.acos(math.sqrt(n0 / m)) / p, lo), hi) - r
        total += w
        e1 += w * e
        e2 += w * e * e
        e4 += w * e ** 4
    return total, e1, e2, e4


class DomainCheck:
    """The parameter checks of a family with parameters ``names``, each in (0, inf).

    ``check_values`` and ``check_block`` are copied verbatim from
    ``ModelFamily``; ``check_block`` checked against the closed domain only.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.n_params = len(names)
        self.bounds = ((0.0, np.inf),) * self.n_params

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

        Every row passes the closed-interval check of ``check_values``, which
        also words the error for the first row that fails.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim < 2:
            return self.check_values(vals, closed=True)[None, :]
        if vals.ndim != 2 or vals.shape[1] != self.n_params or len(vals) == 0:
            raise ValueError(
                f"expected a (K, {self.n_params}) parameter block {self.names}, "
                f"got shape {vals.shape}"
            )
        lo, hi = np.array(self.bounds).T
        bad = ~np.all((lo <= vals) & (vals < hi), axis=1)  # NaN and +-inf fail too
        if bad.any():
            self.check_values(vals[np.argmax(bad)], closed=True)
        return vals
