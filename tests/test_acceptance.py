"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; each
test also embeds its line in the assertion message.  Timed sections
exclude the first-call costs paid by the module warm-up fixture.
"""

import time

import numpy as np
import pytest

from qconstel.circuit import fourier_circuit, netlist_unitary, reck_decompose
from qconstel.estimation import (
    classical_fi,
    orbit_states,
    outcome_probabilities,
    qfim,
    rectangle_model,
    ring_model,
)
from qconstel.linalg import eig_hermitian
from qconstel.simulate import StudyConfig, crb_study
from qconstel.symmetry import qft_matrix

from oracles import haar_unitary, ring_qfi_parseval


def report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    return line


@pytest.fixture(scope="module", autouse=True)
def warmup():
    qfim(ring_model(2, 1.0), [0.3])
    reck_decompose(np.eye(3, dtype=complex))


PAIR_RADII = np.linspace(0.1, 1.45, 10)


def test_criterion_01_on_axis_pair_qfi():
    for p in (0.5, 1.0, 2.0):
        for r in PAIR_RADII:
            assert min(abs(p * r - k * np.pi / 2) for k in range(1, 4)) >= 0.05
    start = time.perf_counter()
    worst = 0.0
    for p in (0.5, 1.0, 2.0):
        model = ring_model(2, p)
        expected = 4.0 * p * p
        for r in PAIR_RADII:
            got = qfim(model, [r])[0, 0]
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 1.0
    line = report(1, ok, f"pair QFI=4p^2, max rel err {worst:.2e} (tol 1e-5), {elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_02_pair_eigenvalues_two_routes():
    worst_eig = worst_char = worst_cross = 0.0
    for p, r in [(1.0, 0.3), (1.0, 0.7), (1.0, 1.2), (2.0, 0.55), (0.5, 1.1)]:
        model = ring_model(2, p)
        expected = np.sort([np.cos(p * r) ** 2, np.sin(p * r) ** 2])
        w, _ = eig_hermitian(model.rho([r]))
        weights = np.sort(outcome_probabilities(model, [r], model.qft_basis))
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(w) - expected))))
        worst_char = max(worst_char, float(np.max(np.abs(weights - expected))))
        worst_cross = max(worst_cross, float(np.max(np.abs(weights - np.sort(w)))))
    ok = max(worst_eig, worst_char, worst_cross) <= 1e-9
    line = report(
        2,
        ok,
        f"pair eigenvalues cos^2/sin^2: eig route {worst_eig:.2e}, character route "
        f"{worst_char:.2e}, cross {worst_cross:.2e} (tol 1e-9)",
    )
    assert ok, line


def test_criterion_03_off_axis_qfi():
    angles = np.array([0.0, np.pi / 10, np.pi / 5, 3 * np.pi / 10, 2 * np.pi / 5])
    radii = [0.2, 0.5, 0.8, 1.1, 1.4]
    start = time.perf_counter()
    worst = 0.0
    for theta in angles:
        for theta0 in angles:
            model = ring_model(2, 1.0, theta, theta0)
            expected = 4.0 * np.cos(theta - theta0) ** 2
            for r in radii:
                got = qfim(model, [r])[0, 0]
                worst = max(worst, abs(got - expected) / max(1.0, expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 2.0
    line = report(
        3,
        ok,
        f"off-axis QFI=4p^2cos^2(theta-theta0) on 5x5x5 grid, max err {worst:.2e} "
        f"(tol 1e-5), {elapsed:.2f}s (<2s)",
    )
    assert ok, line


def test_criterion_04_rectangle_qfim():
    points = [
        (1.0, 0.5, 0.4, 0.8),
        (0.7, 1.3, 0.5, 0.3),
        (2.0, 1.0, 0.3, 0.6),
        (1.5, 0.8, 0.7, 0.5),
        (0.6, 0.9, 1.0, 0.4),
    ]
    worst_diag = worst_off = 0.0
    momentum_reading = source_reading = True
    for px, py, x0, y0 in points:
        f = qfim(rectangle_model(px, py), [x0, y0])
        worst_off = max(worst_off, abs(f[0, 1]), abs(f[1, 0]))
        exp_p = np.array([4 * px * px, 4 * py * py])
        exp_r = np.array([4 * x0 * x0, 4 * y0 * y0])
        diag = np.array([f[0, 0], f[1, 1]])
        worst_diag = max(worst_diag, float(np.max(np.abs(diag - exp_p) / exp_p)))
        momentum_reading &= bool(np.all(np.abs(diag - exp_p) / exp_p <= 1e-5))
        source_reading &= bool(np.all(np.abs(diag - exp_r) / exp_r <= 1e-5))
    ok = worst_off <= 1e-6 and worst_diag <= 1e-5 and momentum_reading and not source_reading
    line = report(
        4,
        ok,
        f"rectangle QFIM diag(4p_x^2,4p_y^2): diag rel err {worst_diag:.2e} (tol 1e-5), "
        f"off-diag {worst_off:.2e} (tol 1e-6); resolved reading: momentum coordinates "
        f"(matches={momentum_reading}), source coordinates (matches={source_reading})",
    )
    assert ok, line


def test_criterion_05_ring_qfi_constant():
    radii = [0.25, 0.5, 0.75, 1.0, 1.25]
    start = time.perf_counter()
    per_n = {}
    worst_parseval = {}
    for n in range(2, 9):
        model = ring_model(n, 1.0)
        expected = 4.0 if n == 2 else 2.0
        worst = 0.0
        pworst = 0.0
        for r in radii:
            got = qfim(model, [r])[0, 0]
            worst = max(worst, abs(got - expected) / expected)
            pworst = max(pworst, abs(ring_qfi_parseval(n, 1.0, r) - got))
        per_n[n] = worst
        worst_parseval[n] = pworst
    elapsed = time.perf_counter() - start
    ok_value = all(err <= 1e-5 for err in per_n.values())
    ok_parseval = all(err <= 1e-6 for err in worst_parseval.values())
    ok = ok_value and ok_parseval and elapsed < 5.0
    detail = (
        "ring QFI=2p^2 (4p^2 at N=2): rel err per N "
        + ", ".join(f"N={n}:{per_n[n]:.2e}" for n in sorted(per_n))
        + " (tol 1e-5); Parseval-vs-pipeline "
        + ", ".join(f"N={n}:{worst_parseval[n]:.2e}" for n in sorted(worst_parseval))
        + f" (tol 1e-6); {elapsed:.2f}s (<5s)."
        " At the default psf orientation (0 for even N, pi/(2N) for odd N) every"
        " a_k* a_k' is real, so the eigenvalue route meets the Parseval value."
    )
    line = report(5, ok, detail)
    assert ok, line


ALL_MODELS = None


def section4_models():
    global ALL_MODELS
    if ALL_MODELS is None:
        ALL_MODELS = [
            ("pair", ring_model(2, 1.0), [0.4]),
            ("pair_off_axis", ring_model(2, 1.0, 0.4, 0.15), [0.6]),
            ("rectangle", rectangle_model(1.0, 0.5), [0.5, 0.7]),
        ] + [(f"ring{n}", ring_model(n, 1.0), [0.7]) for n in range(2, 9)]
    return ALL_MODELS


def test_criterion_06_direct_detection_zero_fi():
    worst = 0.0
    for _name, model, point in section4_models():
        f = classical_fi(model, point, np.eye(model.dim))
        worst = max(worst, float(np.max(np.abs(f))))
    ok = worst <= 1e-8
    line = report(6, ok, f"direct detection FI = 0: max entry {worst:.2e} (tol 1e-8)")
    assert ok, line


def test_criterion_07_eigenbasis_optimality_and_dominance():
    rng = np.random.default_rng(2026)
    worst_eig = 0.0
    worst_dom = 0.0
    for _name, model, point in section4_models():
        for _ in range(10):
            vals = np.asarray(point, dtype=float) * rng.uniform(0.5, 1.5)
            fq = qfim(model, vals)
            fc = classical_fi(model, vals, model.qft_basis)
            worst_eig = max(worst_eig, float(np.max(np.abs(fq - fc))))
        fq = qfim(model, point)
        for _ in range(20):
            basis = haar_unitary(model.dim, rng)
            fc = classical_fi(model, point, basis)
            worst_dom = max(worst_dom, -float(np.min(np.linalg.eigvalsh(fq - fc))))
    ok = worst_eig <= 1e-6 and worst_dom <= 1e-6
    line = report(
        7,
        ok,
        f"eigenbasis FI attains QFIM (max dev {worst_eig:.2e}, tol 1e-6); "
        f"20 random bases per model dominated (worst PSD defect {worst_dom:.2e}, tol 1e-6)",
    )
    assert ok, line


def test_criterion_08_crb_attainment():
    start = time.perf_counter()
    pair = ring_model(2, 1.0)
    pair_cfg = StudyConfig(
        model=pair, truth=0.3, photon_counts=(10_000,), trials=200, seed=7,
        bounds=(1e-3, np.pi / 2 - 1e-3), basis=pair.qft_basis,
    )
    pair_ratio = crb_study(pair_cfg).blocks[0].ratio
    ring = ring_model(4, 1.0)
    ring_cfg = StudyConfig(
        model=ring, truth=0.3, photon_counts=(10_000,), trials=200, seed=7,
        bounds=(1e-3, np.pi - 1e-3), basis=ring.qft_basis,
    )
    ring_ratio = crb_study(ring_cfg).blocks[0].ratio
    elapsed = time.perf_counter() - start
    ok = 0.85 <= pair_ratio <= 1.15 and 0.85 <= ring_ratio <= 1.15 and elapsed < 60.0
    line = report(
        8,
        ok,
        f"MSE*M*QFI at M=1e4, 200 trials, seed 7: pair {pair_ratio:.4f}, ring4 "
        f"{ring_ratio:.4f} (bracket [0.85, 1.15]); {elapsed:.1f}s (<60s)",
    )
    assert ok, line


def test_criterion_09_circuit_synthesis():
    rng = np.random.default_rng(99)
    worst_rt = 0.0
    bs_bound_ok = True
    for n in range(2, 9):
        for _ in range(50):
            u = haar_unitary(n, rng)
            net = reck_decompose(u)
            bs_bound_ok &= net.beamsplitter_count <= n * (n - 1) // 2
            worst_rt = max(worst_rt, np.abs(netlist_unitary(net) - u).max())
    models = [ring_model(2, 1.0), rectangle_model(1.0, 1.0)]
    models += [ring_model(n, 1.0) for n in range(2, 9)]
    pair_net = fourier_circuit(models[0].group)
    worst_preset = max(
        np.abs(netlist_unitary(fourier_circuit(m.group)) - qft_matrix(m.group)).max()
        for m in models
    )
    one_bs = pair_net.beamsplitter_count == 1
    ok = worst_rt <= 1e-9 and worst_preset <= 1e-9 and one_bs and bs_bound_ok
    line = report(
        9,
        ok,
        f"Reck round trip on 50 unitaries per N in 2..8: max {worst_rt:.2e} (tol 1e-9); "
        f"presets vs group Fourier max {worst_preset:.2e} (tol 1e-9); pair preset "
        f"beamsplitters = {pair_net.beamsplitter_count} (expect 1)",
    )
    assert ok, line


def test_criterion_10_symmetry_machinery():
    worst_orth = worst_sum = worst_base = 0.0
    for _name, model, point in section4_models():
        vecs = model.qft_basis
        weights = outcome_probabilities(model, point, vecs)
        gram = vecs.conj().T @ vecs
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(vecs.shape[1])))))
        worst_sum = max(worst_sum, abs(float(weights.sum()) - 1.0))
        ref = np.sort(weights)
        states = orbit_states(model, point)
        for base in range(1, model.group.order):  # the orbit relabelled from base point b
            a = states[model.group.table[:, base]] @ vecs.conj()
            other = np.sort(np.mean(np.abs(a) ** 2, axis=0))
            worst_base = max(worst_base, float(np.max(np.abs(ref - other))))
    ok = worst_orth <= 1e-10 and worst_sum <= 1e-10 and worst_base <= 1e-10
    line = report(
        10,
        ok,
        f"character vectors orthogonal (max {worst_orth:.2e}), weights sum to 1 "
        f"(max dev {worst_sum:.2e}), base-point independent (max {worst_base:.2e}); tol 1e-10",
    )
    assert ok, line
