"""Photon-counting Monte Carlo studies of Cramer-Rao bound attainment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import ModelFamily, outcome_probabilities, qfim
from .linalg import _golden_section

GRID_POINTS = 256
REFINE_TOL = 1e-8
FLAT_RTOL = 1e-10
MAX_FAILURE_FRACTION = 0.01


class EstimationError(RuntimeError):
    """The likelihood carries no usable information (flat or all-zero)."""


class StudyError(RuntimeError):
    """Too many estimator failures for the study to be meaningful."""


def sample_outcomes(probabilities, m: int, seed) -> np.ndarray:
    """Multinomial draw of m photons over the outcome distribution.

    Deterministic for a given seed (``numpy.random.default_rng``).
    Probabilities may be off unit sum by up to 1e-9 and are renormalized;
    anything more negative than -1e-9 is rejected.
    """
    p = np.asarray(probabilities, dtype=float)
    if m < 1:
        raise ValueError(f"photon count must be >= 1, got {m}")
    if np.any(p < -1e-9):
        raise ValueError(f"negative outcome probability: min = {p.min():.3e}")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
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
    if not lo < hi:
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


@dataclass(frozen=True)
class StudyConfig:
    """Inputs of one Cramer-Rao attainment study (single scalar parameter)."""

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
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if any(m < 1 for m in self.photon_counts):
            raise ValueError("photon counts must be >= 1")
        if not self.bounds[0] < self.truth < self.bounds[1]:
            raise ValueError(
                f"truth {self.truth} outside estimator bounds {self.bounds}"
            )


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
        return [(b.photons, b.trials, b.mse, b.crb, b.ratio) for b in self.blocks]

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
    Raises StudyError if at least 1% of the trials in any block fail.
    """
    model = cfg.model
    fisher = float(qfim(model, [cfg.truth])[0, 0])
    p_true = outcome_probabilities(model, [cfg.truth], cfg.basis)

    def prob_fn(x):
        return outcome_probabilities(model, [x], cfg.basis)

    scan_grid = np.linspace(cfg.bounds[0], cfg.bounds[1], cfg.grid_points)
    grid_probs = np.stack([prob_fn(x) for x in scan_grid])

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
