"""Photon-counting Monte Carlo studies of Cramer-Rao bound attainment."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .estimation import (
    ModelFamily,
    _probabilities,
    _transfer,
    check_basis,
    outcome_probabilities,
    spectral_qfim,
)
from .linalg import _golden_section

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


def _log_likelihood(counts: np.ndarray, q: np.ndarray) -> float:
    observed = counts > 0
    if np.any(q[observed] <= 0.0):
        return -np.inf
    return float(np.sum(counts[observed] * np.log(q[observed])))


def _grid_log_likelihood(counts: np.ndarray, grid_probs: np.ndarray) -> np.ndarray:
    observed = counts > 0
    q = grid_probs[:, observed]
    ll = np.full(grid_probs.shape[0], -np.inf)
    ok = np.all(q > 0.0, axis=1)
    ll[ok] = np.log(q[ok]) @ counts[observed]
    return ll


def mle_1d(
    counts,
    prob_fn,
    bounds: tuple[float, float],
    grid_points: int = GRID_POINTS,
    grid_probs: np.ndarray | None = None,
) -> float:
    """Maximum-likelihood estimate of a scalar parameter from outcome counts.

    A uniform grid scan over ``bounds`` locates the coarse optimum
    (ties resolved toward the smaller parameter), then golden-section
    refinement narrows it to ``REFINE_TOL``.

    Args:
        counts: per-outcome nonnegative counts.
        prob_fn: parameter -> outcome probability vector.
        bounds: (lo, hi) search interval containing the truth.
        grid_probs: optional precomputed probability table for the scan
            grid, row i matching ``linspace(lo, hi, grid_points)[i]``.
    """
    counts = np.asarray(counts, dtype=float)
    lo, hi = bounds
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bounds ({lo}, {hi})")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = np.linspace(lo, hi, grid_points)
    if grid_probs is None:
        grid_probs = np.stack([prob_fn(x) for x in grid])
    elif grid_probs.shape[0] != grid_points:
        raise ValueError("grid_probs rows must match grid_points")
    ll = _grid_log_likelihood(counts, grid_probs)
    finite = np.isfinite(ll)
    if not np.any(finite):
        raise EstimationError("likelihood is zero everywhere on the search grid")
    spread = np.max(ll[finite]) - np.min(ll[finite])
    if np.all(finite) and spread <= FLAT_RTOL * max(1.0, abs(np.max(ll))):
        raise EstimationError("flat likelihood: outcomes carry no parameter information")

    best = int(np.argmax(ll))  # first maximum = smaller parameter on ties
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid_points - 1)]
    # minimizes -log L; ties keep the left part, the smaller parameter
    a, b, _ = _golden_section(lambda x: -_log_likelihood(counts, prob_fn(x)), a, b, REFINE_TOL)
    return 0.5 * (a + b)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Inputs of one Cramer-Rao attainment study (single scalar parameter).

    Construction validates every input once, so that ``crb_study`` can run
    its hot loop unchecked.  ``photon_counts`` (at least one, each in [1,
    ``MAX_PHOTONS``]), ``trials``, ``seed`` and ``grid_points`` are integers
    (bool excluded); ``bounds`` lie inside the open domain of the parameter;
    ``basis`` is a square unitary of the model's dimension
    (``estimation.check_basis``), stored as a read-only complex128 copy, so
    that a later write to the caller's array cannot reach the study.
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
        lo, hi = self.bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds must be finite with lo < hi, got {self.bounds}")
        (dlo, dhi), name = self.model.bounds[0], self.model.names[0]
        if not dlo < lo < hi < dhi:
            raise ValueError(
                f"bounds {self.bounds} must lie inside the open domain ({dlo}, {dhi}) of {name}"
            )
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
        return {
            "qfi": self.qfi,
            "blocks": [
                {
                    "photons": b.photons,
                    "trials": b.trials,
                    "failures": b.failures,
                    "mse": b.mse,
                    "crb": b.crb,
                    "ratio": b.ratio,
                    "estimates": list(b.estimates),
                }
                for b in self.blocks
            ],
        }


def trial_seed(seed: int, block: int, trial: int) -> np.random.SeedSequence:
    """Fixed mixing of (study seed, photon-count block, trial index)."""
    return np.random.SeedSequence([int(seed), int(block), int(trial)])


def crb_study(cfg: StudyConfig) -> StudyReport:
    """Run the Monte Carlo study described by ``cfg``.

    Trials are seeded independently through ``trial_seed`` so the report
    is reproducible and identical whether trials run serially or not.
    The QFI comes from ``spectral_qfim``, the eigenvalue route in the
    model's symmetry eigenbasis, and the probabilities of the whole scan
    grid from one block call of ``outcome_probabilities``; the study builds
    no density matrix.  Raises StudyError if at least 1% of the trials in
    any block fail.

    ``StudyConfig`` has validated the basis and the bounds, so the
    golden-section probes of ``mle_1d``, which all lie inside the bounds,
    call the unchecked kernel ``estimation._probabilities`` with the basis's
    transfer matrix, computed once per study.
    """
    model = cfg.model
    fisher = float(spectral_qfim(model, [cfg.truth])[0, 0])
    p_true = outcome_probabilities(model, [cfg.truth], cfg.basis)
    transfer = _transfer(model, cfg.basis)

    def prob_fn(x):
        return _probabilities(model, np.array([[x]]), transfer)[0, 0]

    scan_grid = np.linspace(cfg.bounds[0], cfg.bounds[1], cfg.grid_points)
    grid_probs = outcome_probabilities(model, scan_grid[:, None], cfg.basis)

    blocks = []
    for b_idx, m in enumerate(cfg.photon_counts):
        estimates = []
        failures = 0
        messages = []
        for t in range(cfg.trials):
            counts = sample_outcomes(p_true, m, trial_seed(cfg.seed, b_idx, t))
            try:
                estimates.append(
                    mle_1d(
                        counts,
                        prob_fn,
                        cfg.bounds,
                        grid_points=cfg.grid_points,
                        grid_probs=grid_probs,
                    )
                )
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
