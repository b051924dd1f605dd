import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconstel import estimation, simulate
from qconstel.circuit import fourier_circuit, netlist_unitary
from qconstel.estimation import (
    _probabilities,
    _transfer,
    check_basis,
    outcome_probabilities,
    qfim,
    ring_model,
    spectral_qfim,
)
from qconstel.linalg import UNITARY_ATOL
from qconstel.simulate import (
    EstimationError,
    StudyConfig,
    StudyError,
    _golden_section,
    crb_study,
    trial_seed,
)

from oracles import haar_unitary, pair_error_moments, sample_outcomes, scalar_mle


def test_sample_degenerate_distribution():
    counts = sample_outcomes([1.0, 0.0], 500, 0)
    assert counts.tolist() == [500, 0]


def test_sample_determinism():
    a = sample_outcomes([0.3, 0.7], 1000, 123)
    b = sample_outcomes([0.3, 0.7], 1000, 123)
    assert np.array_equal(a, b)
    c = sample_outcomes([0.3, 0.7], 1000, 124)
    assert not np.array_equal(a, c)


def test_sample_frequencies_within_4_sigma():
    m = 100000
    p = np.array([0.15, 0.35, 0.5])
    counts = sample_outcomes(p, m, 7)
    assert counts.sum() == m
    freq = counts / m
    sigma = np.sqrt(p * (1 - p) / m)
    assert np.all(np.abs(freq - p) <= 4 * sigma)


def test_photon_counts_stop_at_int64():
    # the multinomial draw takes int64 counts; one more overflows inside numpy
    limit = 2**63 - 1
    fault = rf"must be <= {limit} \(int64\), got {limit + 1}$"
    assert np.random.default_rng(0).multinomial(limit, [1.0]).tolist() == [limit]
    with pytest.raises(OverflowError):
        np.random.default_rng(0).multinomial(limit + 1, [1.0])
    model = ring_model(2, 1.0)
    base = dict(model=model, truth=0.3, trials=5, seed=0, bounds=(0.1, 0.5), basis=np.eye(2))
    StudyConfig(**base, photon_counts=(10, limit))
    with pytest.raises(ValueError, match="^photon counts " + fault):
        StudyConfig(**base, photon_counts=(10, limit + 1))


def pair_prob_fn(p=1.0):
    model = ring_model(2, p)
    basis = model.qft_basis

    def fn(r):
        return outcome_probabilities(model, [r], basis)

    return fn


def mle(counts, fn, bounds, grid_points=256):
    """simulate._mle over the scan grid crb_study builds from these bounds."""
    grid = np.linspace(bounds[0], bounds[1], grid_points)
    return simulate._mle(np.asarray(counts), grid, np.stack([fn(x) for x in grid]), fn)


def test_mle_self_consistency_at_population_counts():
    p = 1.0
    r_true = np.arccos(0.8) / p  # q = (0.64, 0.36)
    fn = pair_prob_fn(p)
    for grid_points in (256, 2):
        est = mle([64, 36], fn, (1e-3, np.pi / 2 - 1e-3), grid_points=grid_points)
        assert abs(est - r_true) <= 1e-6


@settings(max_examples=120)
@given(p=st.sampled_from([0.7, 1.0, 1.3]), m=st.sampled_from([10, 1000, 100000]),
       data=st.data())
def test_mle_meets_the_pair_closed_form(p, m, data):
    # in qft_basis the pair's outcome probabilities are cos^2(p r) and sin^2(p r),
    # so the likelihood peaks at r = arccos(sqrt(n0 / M)) / p
    n0 = data.draw(st.integers(0, m))
    bounds = (1e-3, np.pi / (2 * p) - 1e-3)  # the CLI's default interval for the pair
    closed = np.arccos(np.sqrt(n0 / m)) / p
    if not bounds[0] < closed < bounds[1]:
        return
    assert abs(mle([n0, m - n0], pair_prob_fn(p), bounds) - closed) <= 1e-7


def test_mle_single_photon_argmax():
    fn = pair_prob_fn(1.0)
    est = mle([0, 1], fn, (1e-6, np.pi / 2))
    assert abs(est - np.pi / 2) <= 1e-6


def test_mle_tie_breaks_toward_smaller():
    # parameter-independent distribution has a flat likelihood: rejected
    fn = lambda x: np.array([0.5, 0.5])
    with pytest.raises(EstimationError, match="flat"):
        mle([3, 7], fn, (0.1, 0.9))


def test_mle_all_zero_likelihood():
    fn = lambda x: np.array([1.0, 0.0])
    with pytest.raises(EstimationError, match="zero everywhere"):
        mle([0, 5], fn, (0.1, 0.9))


def test_trial_seed_mixing():
    s1 = trial_seed(7, 0, 1).generate_state(4)
    s2 = trial_seed(7, 0, 2).generate_state(4)
    s3 = trial_seed(7, 1, 1).generate_state(4)
    assert not np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert np.array_equal(s1, trial_seed(7, 0, 1).generate_state(4))


def quick_pair_study(seed=5, trials=50, photons=(500, 2000)):
    model = ring_model(2, 1.0)
    return StudyConfig(
        model=model,
        truth=0.3,
        photon_counts=photons,
        trials=trials,
        seed=seed,
        bounds=(1e-3, np.pi / 2 - 1e-3),
        basis=model.qft_basis,
    )


def test_crb_study_determinism():
    r1 = crb_study(quick_pair_study())
    r2 = crb_study(quick_pair_study())
    assert r1.qfi == r2.qfi
    for b1, b2 in zip(r1.blocks, r2.blocks):
        assert np.array_equal(b1.estimates, b2.estimates)
        assert b1.mse == b2.mse and b1.ratio == b2.ratio


def test_crb_study_statistics():
    report = crb_study(quick_pair_study(trials=80, photons=(400, 1600, 6400)))
    assert abs(report.qfi - 4.0) <= 1e-5
    mses = [b.mse for b in report.blocks]
    # MSE decreases with M (10% slack)
    assert mses[1] <= mses[0] * 1.1
    assert mses[2] <= mses[1] * 1.1
    # efficiency near 1 at the largest M (loose bracket at this trial count)
    assert 0.6 <= report.blocks[-1].ratio <= 1.4
    # unbiasedness trend at the largest M
    last = report.blocks[-1]
    assert abs(np.mean(last.estimates) - 0.3) <= 3 * np.sqrt(last.mse / last.trials)


PAIR_BOX = ring_model(2, 1.0).box[0]  # the CLI's default interval for the pair


@pytest.mark.parametrize("r, m, bounds", [
    *(pytest.param(r, m, PAIR_BOX, id=f"{r}-{m}")
      for r, m in ((0.3, 1000), (0.3, 10000), (0.01, 10000), (0.003, 10000))),
    # the sub-Rayleigh rows, searched from 1e-4: with few photons off the bright
    # outcome MSE/CRB is 0.007 at M = 100, as if the quantum limit were beaten,
    # and 1.06 at M = 1e6
    *(pytest.param(0.003, m, (1e-4, np.pi / 2 - 1e-3), id=f"0.003-{m}-from_1e-4")
      for m in (100, 1000000)),
])
def test_pair_study_meets_the_exact_finite_photon_mse(r, m, bounds):
    # the pair's estimate is a function of one binomial count, so the exact moments of
    # its error hold at any photon number, also where the MSE is far from the CRB
    model = ring_model(2, 1.0)
    trials = 400
    (block,) = crb_study(StudyConfig(model=model, truth=r, photon_counts=(m,), trials=trials,
                                     seed=7, bounds=bounds, basis=model.qft_basis)).blocks
    total, e1, e2, e4 = pair_error_moments(1.0, r, m, bounds)
    assert abs(total - 1.0) <= 1e-9
    assert block.failures == 0
    assert abs(block.mse - e2) <= 4.0 * np.sqrt((e4 - e2 * e2) / trials)
    assert abs(np.mean(block.estimates) - r - e1) <= 4.0 * np.sqrt((e2 - e1 * e1) / trials)


def test_crb_study_ring_runs():
    model = ring_model(4, 1.0)
    cfg = StudyConfig(
        model=model,
        truth=0.3,
        photon_counts=(2000,),
        trials=40,
        seed=9,
        bounds=(1e-3, np.pi - 1e-3),
        basis=model.qft_basis,
    )
    report = crb_study(cfg)
    assert abs(report.qfi - 2.0) <= 1e-5
    assert 0.5 <= report.blocks[0].ratio <= 1.5


def test_crb_study_direct_detection_fails_loudly():
    model = ring_model(2, 1.0)
    cfg = StudyConfig(
        model=model,
        truth=0.3,
        photon_counts=(200,),
        trials=10,
        seed=1,
        bounds=(1e-3, np.pi / 2 - 1e-3),
        basis=np.eye(2),
    )
    with pytest.raises(StudyError, match="estimator failures"):
        crb_study(cfg)


def test_study_config_validation():
    model = ring_model(2, 1.0)
    with pytest.raises(ValueError, match="bounds"):
        StudyConfig(model=model, truth=2.0, photon_counts=(10,), trials=5, seed=0,
                    bounds=(0.0, 1.0), basis=model.qft_basis)
    with pytest.raises(ValueError):
        StudyConfig(model=model, truth=0.3, photon_counts=(0,), trials=5, seed=0,
                    bounds=(0.0, 1.0), basis=model.qft_basis)
    with pytest.raises(ValueError):
        StudyConfig(model=ring_model(4, 1.0), truth=0.3, photon_counts=(10,), trials=0, seed=0,
                    bounds=(0.0, 1.0), basis=np.eye(4))
    with pytest.raises(ValueError, match="seed"):
        StudyConfig(model=model, truth=0.3, photon_counts=(10,), trials=5, seed=-1,
                    bounds=(0.0, 1.0), basis=model.qft_basis)
    for grid_points in (1, 0, -3):
        with pytest.raises(ValueError, match="grid_points"):
            StudyConfig(model=model, truth=0.3, photon_counts=(10,), trials=5, seed=0,
                        bounds=(0.0, 1.0), basis=model.qft_basis, grid_points=grid_points)
    # bounds: finite, lo < hi, and inside the open domain (0, inf) of r, so no
    # scan-grid point can sit at r <= 0
    for bounds in ((0.1, np.inf), (-np.inf, 0.5), (np.nan, 0.5), (0.5, 0.1), (0.3, 0.3),
                   (0.0, 0.5), (-0.2, 0.5)):
        with pytest.raises(ValueError, match="bounds"):
            StudyConfig(model=model, truth=0.3, photon_counts=(10,), trials=5, seed=0,
                        bounds=bounds, basis=model.qft_basis)
    # photon counts, trials and seed are integers: rng.multinomial(1000.7, p) draws
    # 1000 photons while the CRB would use 1000.7
    base = dict(model=model, truth=0.3, photon_counts=(10,), trials=5, seed=0,
                bounds=(0.1, 1.0), basis=model.qft_basis)
    for field, value in (("photon_counts", (1000.7,)), ("photon_counts", (10, True)),
                         ("photon_counts", ()), ("trials", 5.0), ("trials", True),
                         ("seed", 1.5), ("seed", False), ("grid_points", 2.5)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            StudyConfig(**{**base, field: value})
    # truth and bounds are real scalars: an array truth failed inside the study,
    # True ran as r = 1.0 and a string raised TypeError
    pair, real = r"a \(lo, hi\) pair", "real numbers"
    for field, value, fault in (("truth", np.array([0.3]), "a real number"),
                                ("truth", True, "a real number"), ("truth", "0.3", "a real number"),
                                ("bounds", (np.array([0.1]), 0.5), real),
                                ("bounds", (0.1, "0.5"), real), ("bounds", (0.1, True), real),
                                ("bounds", 0.5, pair), ("bounds", (0.1, 0.2, 0.3), pair)):
        with pytest.raises(ValueError, match=f"^{field} must be {fault}, got"):
            StudyConfig(**{**base, field: value})
    cfg = StudyConfig(**{**base, "photon_counts": (np.int64(10),), "trials": np.int64(5),
                         "seed": np.int64(0), "truth": np.float64(0.3),
                         "bounds": (np.float32(0.1), 1)})
    # configs compare by identity: comparing their basis arrays has no truth value
    assert cfg == cfg and cfg != StudyConfig(**base)


def test_study_accepts_every_basis_its_config_accepts():
    # unitarity defect 9.8e-11, inside UNITARY_ATOL: the true distribution sums to
    # 1 + 1.6e-9, within N UNITARY_ATOL for N = 16, and the study normalizes it once
    model = ring_model(16, 1.0)
    basis = np.eye(16) + 4.9e-11 * np.ones((16, 16))
    assert 1e-9 < abs(outcome_probabilities(model, [0.05], basis).sum() - 1.0) <= 16 * UNITARY_ATOL
    cfg = StudyConfig(model=model, truth=0.05, photon_counts=(1000, 10000), trials=20, seed=4,
                      bounds=(1e-3, np.pi - 1e-3), basis=basis)
    report = crb_study(cfg)
    assert [len(b.estimates) + b.failures for b in report.blocks] == [20, 20]


def test_study_config_checks_the_basis_at_construction():
    model = ring_model(2, 1.0)
    base = dict(model=model, truth=0.3, photon_counts=(500,), trials=5, seed=0,
                bounds=(1e-3, np.pi / 2 - 1e-3))
    for basis, message in ((np.ones((2, 3)), "square"), (np.ones((2, 2)), "orthonormal"),
                           (np.array([[1.0, 0.0], [0.0, np.nan]]), "orthonormal"),
                           (np.eye(4), "2 modes")):
        with pytest.raises(ValueError, match=message):
            StudyConfig(**base, basis=basis)
    # the study keeps a read-only copy: a later write to the caller's array cannot reach it
    basis = haar_unitary(2, np.random.default_rng(1))
    cfg = StudyConfig(**base, basis=basis)
    before = crb_study(cfg)
    basis[:] = np.eye(2)
    assert not cfg.basis.flags.writeable
    after = crb_study(cfg)
    assert np.array_equal(before.blocks[0].estimates, after.blocks[0].estimates)


def test_report_serialization_shapes():
    report = crb_study(quick_pair_study(trials=10, photons=(300,)))
    rows = report.rows()
    assert len(rows) == 1 and len(rows[0]) == 6
    d = report.to_dict()
    assert set(d) == {"qfi", "blocks"}
    assert len(d["blocks"][0]["estimates"]) == 10
    # every BlockResult field, in a form the CLI's json.dumps takes
    block = json.loads(json.dumps(d))["blocks"][0]
    assert set(block) == {"photons", "trials", "estimates", "failures", "mse", "crb", "ratio"}
    assert block["estimates"] == list(report.blocks[0].estimates)


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def study_basis(model, name):
    if name == "qft":
        return model.qft_basis
    if name == "direct":
        return np.eye(model.dim)
    if name == "haar":
        return haar_unitary(model.dim, np.random.default_rng(model.dim))
    return netlist_unitary(fourier_circuit(model.group)).conj().T  # as CLI --basis netlist


def public_route_study(cfg, basis):
    """crb_study's arithmetic, driven through the public, checked outcome_probabilities.

    ``basis`` is the caller's array, not the config's checked copy, and the
    estimator is the oracle ``scalar_mle``, not ``simulate._mle``.  Returns
    the QFI and per block the estimates and the estimator failure messages.
    """
    model = cfg.model
    p_true = outcome_probabilities(model, [cfg.truth], basis)
    grid = np.linspace(cfg.bounds[0], cfg.bounds[1], cfg.grid_points)
    grid_probs = outcome_probabilities(model, grid[:, None], basis)

    def prob_fn(x):
        return outcome_probabilities(model, [x], basis)

    blocks = []
    for b, m in enumerate(cfg.photon_counts):
        estimates, failures = [], []
        for t in range(cfg.trials):
            counts = sample_outcomes(p_true, m, trial_seed(cfg.seed, b, t))
            try:
                estimates.append(scalar_mle(counts, grid, grid_probs, prob_fn))
            except EstimationError as exc:
                failures.append(str(exc))
        blocks.append((m, np.asarray(estimates), failures))
    return float(spectral_qfim(model, [cfg.truth])[0, 0]), blocks


@pytest.mark.parametrize("n, basis_name", [
    (2, "qft"), (2, "direct"), (2, "haar"),
    (5, "qft"), (5, "direct"), (5, "haar"),
    (8, "qft"), (8, "direct"), (8, "haar"), (8, "netlist"),
])
def test_crb_study_is_bit_identical_to_the_public_probability_route(n, basis_name):
    model = ring_model(n, 1.0)  # n = 2 is the pair
    hi = (np.pi / 2 if n == 2 else np.pi) - 1e-3
    basis = study_basis(model, basis_name)
    cfg = StudyConfig(model=model, truth=0.3, photon_counts=(1000, 10000), trials=6, seed=3,
                      bounds=(1e-3, hi), basis=basis)
    qfi, blocks = public_route_study(cfg, basis)
    failed = [(m, f) for m, _, f in blocks if f]
    if failed:  # direct detection: every outcome has probability 1/n at every r
        m, failures = failed[0]
        with pytest.raises(StudyError) as exc:
            crb_study(cfg)
        assert str(exc.value) == (f"{len(failures)}/{cfg.trials} estimator failures at M={m}: "
                                  + "; ".join(failures[:3]))
        return
    report = crb_study(cfg)
    assert np.array_equal(report.qfi, qfi)
    for block, (m, estimates, _) in zip(report.blocks, blocks, strict=True):
        mse = float(np.mean((estimates - cfg.truth) ** 2))
        crb = 1.0 / (m * qfi)
        assert np.array_equal(block.estimates, estimates)
        assert (block.mse, block.crb, block.ratio) == (mse, crb, mse / crb)


@pytest.mark.parametrize("basis_name", ["qft", "direct", "haar", "netlist"])
@pytest.mark.parametrize("n", range(2, 17))
def test_probe_phase_repeats_the_block_kernel_bit_for_bit(n, basis_name):
    # crb_study's probe forms the source-0 phase as D_0^T x, without a parameter
    # block; its probabilities keep every bit of the checked public route
    model = ring_model(n, 1.0)  # n = 2 is the pair
    basis = study_basis(model, basis_name)
    transfer = _transfer(model, check_basis(basis, model.dim))
    ((lo, hi),) = model.box
    xs = np.append([lo, hi], np.random.default_rng(n).uniform(lo, hi, 32))
    d0t = model.phases[0].T
    for x in xs:
        assert np.array_equal(_probabilities(model, d0t * x, transfer)[0, 0],
                              outcome_probabilities(model, [x], basis)), x


def test_crb_study_checks_the_basis_once_per_study(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(estimation, "unitarity_defect",
                        counting(calls, "unitarity_defect", estimation.unitarity_defect))
    model = ring_model(8, 1.0)
    seen = []
    for trials in (4, 40):
        calls.clear()
        crb_study(StudyConfig(model=model, truth=0.3, photon_counts=(1000,), trials=trials,
                              seed=2, bounds=(1e-3, np.pi - 1e-3), basis=model.qft_basis))
        seen.append(calls["unitarity_defect"])
    # StudyConfig checks the caller's basis, the one outcome_probabilities call the
    # config's copy and spectral_qfim the model's qft_basis; no trial checks again
    assert seen == [3, 3]


def test_crb_study_forms_the_phase_of_a_block_twice_per_study(monkeypatch):
    # one _phase call each for spectral_qfim and outcome_probabilities; the
    # golden-section probes form their phase as D_0^T x and never call it
    calls = collections.Counter()
    monkeypatch.setattr(estimation, "_phase", counting(calls, "_phase", estimation._phase))
    monkeypatch.setattr(simulate, "_probabilities",
                        counting(calls, "probe", simulate._probabilities))
    model = ring_model(8, 1.0)
    seen = []
    for trials in (4, 40):
        calls.clear()
        crb_study(StudyConfig(model=model, truth=0.3, photon_counts=(1000,), trials=trials,
                              seed=2, bounds=(1e-3, np.pi - 1e-3), basis=model.qft_basis))
        seen.append((calls["_phase"], calls["probe"]))
    assert [phase for phase, _ in seen] == [2, 2]
    assert 0 < seen[0][1] < seen[1][1]


def test_crb_study_hot_path_builds_no_density_matrix(monkeypatch):
    # the study takes its probabilities and QFI from the orbit-phase tensor:
    # no constellation, density matrix or eigensolver call on its path
    model = ring_model(8, 1.0)
    calls = collections.Counter()
    for name in ("make_ring", "density_matrix", "eig_hermitian"):
        monkeypatch.setattr(estimation, name, counting(calls, name, getattr(estimation, name)))
    monkeypatch.setattr(simulate, "outcome_probabilities", counting(
        calls, "outcome_probabilities", simulate.outcome_probabilities))
    golden = simulate._golden_section
    monkeypatch.setattr(simulate, "_golden_section",
                        lambda f, a, b, tol: golden(counting(calls, "golden", f), a, b, tol))
    cfg = StudyConfig(model=model, truth=0.3, photon_counts=(1000, 10000), trials=4, seed=2,
                      bounds=(1e-3, np.pi - 1e-3), basis=model.qft_basis)
    crb_study(cfg)
    assert calls["make_ring"] == calls["density_matrix"] == calls["eig_hermitian"] == 0
    # one public, checked call gives the true distribution and the whole scan grid;
    # the refinement steps run on the unchecked kernel
    assert calls["golden"] > 0
    assert calls["outcome_probabilities"] == 1
    # the counters see the ring builder and the rho route when they run; rho scales
    # the model's points and builds no ring
    qfim(ring_model(8, 1.0), [0.3])
    assert calls["make_ring"] == 2  # the family's points and psf comb
    assert calls["density_matrix"] > 0 and calls["eig_hermitian"] > 0


def test_golden_section_keeps_left_part_on_ties():
    a, b = _golden_section(lambda x: 0.0, 0.0, 1.0, 1e-6)
    assert a == 0.0 and 0.0 < b <= 1e-6
    a, b = _golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-9)
    assert a <= 0.3 <= b and b - a <= 1e-9
