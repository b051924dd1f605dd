"""Photon-counting Monte Carlo studies of Cramer-Rao bound attainment."""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .estimation import (
    ModelFamily,
    _probabilities,
    _transfer,
    check_basis,
    outcome_probabilities,
    spectral_qfim,
)

GRID_POINTS = 256
REFINE_TOL = 1e-8
FLAT_RTOL = 1e-10
MAX_FAILURE_FRACTION = 0.01
MAX_PHOTONS = int(np.iinfo(np.int64).max)  # the largest count the multinomial draw takes


class EstimationError(RuntimeError):
    """The likelihood carries no usable information (flat or all-zero)."""


class StudyError(RuntimeError):
    """Too many estimator failures for the study to be meaningful."""


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of ``f`` on [a, b]; the final bracket, of width <= ``tol``.

    It stops sooner once rounding leaves no point inside; ties keep the left part.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    while b - a > tol and a < x1 < x2 < b:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return a, b


def _mle(counts: np.ndarray, grid: np.ndarray, table: np.ndarray, probe) -> float:
    """Maximum-likelihood estimate of the scalar parameter from one trial's counts.

    A scan of ``grid``, whose outcome probabilities are the rows of
    ``table``, locates the coarse optimum (ties resolved toward the smaller
    parameter); golden-section refinement of -log L between its neighbours,
    with ``probe(x)`` the probabilities at x, narrows it to ``REFINE_TOL``.
    The observed outcomes and their counts are found once per trial, for the
    scan and every probe.  Each probe's -log L reduces with the ndarray
    methods ``any`` and ``sum``, the same ufunc reductions as ``np.any`` and
    ``np.sum`` without their Python dispatch.
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
        return np.inf if (q <= 0.0).any() else -float((n * np.log(q)).sum())

    best = int(np.argmax(ll))  # first maximum = smaller parameter on ties
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    # ties keep the left part, the smaller parameter
    a, b = _golden_section(minus_log_l, a, b, REFINE_TOL)
    return 0.5 * (a + b)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Inputs of one Cramer-Rao attainment study (single scalar parameter).

    Construction validates every input once; ``crb_study`` checks the basis
    twice more per study, and no trial checks again.  ``photon_counts`` (at
    least one, each in [1, ``MAX_PHOTONS``]), ``trials``, ``seed`` and
    ``grid_points`` are integers, ``truth`` and both ``bounds`` real numbers
    (bool excluded); the bounds lie inside the open domain of the parameter,
    and the truth between them; ``basis`` is a square unitary of the model's
    dimension within ``linalg.UNITARY_ATOL`` (``estimation.check_basis``), so
    that its outcome probabilities are non-negative and sum to 1 within N
    times that bound for N modes.  The basis is stored as a read-only
    complex128 copy, out of reach of later writes to the caller's array.
    Configs compare by identity, as the basis array has no truth value.
    """

    model: ModelFamily
    truth: float
    photon_counts: tuple[int, ...]
    trials: int
    seed: int
    bounds: tuple[float, float]
    basis: np.ndarray
    grid_points: int = GRID_POINTS

    def __post_init__(self):
        if self.model.n_params != 1:
            raise ValueError("studies estimate a single scalar parameter")
        for name in ("trials", "seed", "grid_points"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (self.photon_counts and all(_is_integer(m) for m in self.photon_counts)):
            raise ValueError(f"photon_counts must be integers, got {self.photon_counts!r}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if any(m < 1 for m in self.photon_counts):
            raise ValueError("photon counts must be >= 1")
        if max(self.photon_counts) > MAX_PHOTONS:
            raise ValueError(f"photon counts must be <= {MAX_PHOTONS} (int64), "
                             f"got {max(self.photon_counts)}")
        try:
            lo, hi = self.bounds
        except (TypeError, ValueError):
            raise ValueError(f"bounds must be a (lo, hi) pair, got {self.bounds!r}") from None
        if not (_is_real(lo) and _is_real(hi)):
            raise ValueError(f"bounds must be real numbers, got {self.bounds!r}")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds must be finite with lo < hi, got {self.bounds}")
        try:
            self.model.check_block([[lo], [hi]], closed=False)
        except ValueError:
            raise ValueError(f"bounds {self.bounds} must lie inside the open domain "
                             f"(0.0, inf) of {self.model.names[0]}") from None
        if not _is_real(self.truth):
            raise ValueError(f"truth must be a real number, got {self.truth!r}")
        if not lo < self.truth < hi:
            raise ValueError(
                f"truth {self.truth} outside estimator bounds {self.bounds}"
            )
        # a copy the caller cannot write to
        basis = np.array(check_basis(self.basis, self.model.dim))
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class BlockResult:
    """Study outcome for one photon count M."""

    photons: int
    trials: int
    estimates: np.ndarray
    failures: int
    mse: float
    crb: float
    ratio: float


@dataclass(frozen=True)
class StudyReport:
    """Full study outcome: per-M estimates, MSE against the predicted CRB."""

    qfi: float
    blocks: tuple[BlockResult, ...]

    def rows(self) -> list[tuple]:
        return [(b.photons, b.trials, b.failures, b.mse, b.crb, b.ratio) for b in self.blocks]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["blocks"] = [{**b, "estimates": list(b["estimates"])} for b in out["blocks"]]
        return out


def trial_seed(seed: int, block: int, trial: int) -> np.random.SeedSequence:
    """Fixed mixing of (study seed, photon-count block, trial index)."""
    return np.random.SeedSequence([int(seed), int(block), int(trial)])


def crb_study(cfg: StudyConfig) -> StudyReport:
    """Run the Monte Carlo study described by ``cfg``.

    Trials are seeded independently through ``trial_seed`` so the report
    is reproducible and identical whether trials run serially or not.
    The QFI comes from ``spectral_qfim``, the eigenvalue route in the
    model's symmetry eigenbasis; the study builds no density matrix.
    Raises StudyError if at least 1% of the trials in any block fail.

    Each trial's estimate is ``_mle``'s.  The study builds its scan grid,
    ``grid_points`` points spanning ``bounds``, once, and takes the true
    distribution (row 0) and the grid's probability table (the rows below)
    from one checked call of ``outcome_probabilities``.  It normalizes the
    true distribution once, and every trial draws its counts from it by
    ``numpy.random.default_rng(trial_seed(...)).multinomial``.
    ``StudyConfig`` has validated the photon counts, the basis and the
    bounds, so no trial checks them again, and each golden-section probe x,
    inside the bounds, calls the unchecked kernel ``estimation._probabilities``
    on the source-0 phase D_0^T x, with D_0^T = ``model.phases[0].T`` and the
    basis's transfer matrix read once per study: no parameter block.
    """
    model = cfg.model
    fisher = float(spectral_qfim(model, [cfg.truth])[0, 0])
    grid = np.linspace(cfg.bounds[0], cfg.bounds[1], cfg.grid_points)
    q = outcome_probabilities(model, np.append(cfg.truth, grid)[:, None], cfg.basis)
    # q = lambda W >= 0, and a basis within UNITARY_ATOL puts |sum q - 1| <= N UNITARY_ATOL
    p_true, table = q[0] / q[0].sum(), q[1:]
    transfer, d0t = _transfer(model, cfg.basis), model.phases[0].T  # D_0^T, shape (1, N)

    def probe(x):
        return _probabilities(model, d0t * x, transfer)[0, 0]

    blocks = []
    for b_idx, m in enumerate(cfg.photon_counts):
        estimates = []
        failures = 0
        messages = []
        for t in range(cfg.trials):
            counts = np.random.default_rng(trial_seed(cfg.seed, b_idx, t)).multinomial(m, p_true)
            try:
                estimates.append(_mle(counts, grid, table, probe))
            except EstimationError as exc:
                failures += 1
                if len(messages) < 3:
                    messages.append(str(exc))
        if failures > 0 and failures >= MAX_FAILURE_FRACTION * cfg.trials:
            raise StudyError(
                f"{failures}/{cfg.trials} estimator failures at M={m}: "
                + "; ".join(messages)
            )
        est = np.asarray(estimates)
        mse = float(np.mean((est - cfg.truth) ** 2))
        crb = 1.0 / (m * fisher)
        blocks.append(
            BlockResult(
                photons=m,
                trials=cfg.trials,
                estimates=est,
                failures=failures,
                mse=mse,
                crb=crb,
                ratio=mse / crb,
            )
        )
    return StudyReport(qfi=fisher, blocks=tuple(blocks))
