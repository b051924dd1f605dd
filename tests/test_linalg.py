import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconstel import linalg
from qconstel.circuit import fourier_circuit, netlist_unitary, reck_decompose
from qconstel.estimation import rectangle_model, ring_model
from qconstel.linalg import (
    ConvergenceError,
    _golden_section,
    eig_hermitian,
    hermiticity_defect,
    unitarity_defect,
    unitary_distance,
)
from qconstel.symmetry import qft_matrix

from oracles import haar_unitary, unitary_distance_scan


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def test_identity_eigenvalues():
    w, v = eig_hermitian(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert unitarity_defect(v) <= 1e-10


def test_pauli_x_eigenvalues():
    w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_reconstruction_oracle_random_6x6():
    rng = np.random.default_rng(42)
    h = random_hermitian(6, rng)
    w, v = eig_hermitian(h)
    recon = v @ np.diag(w) @ v.conj().T
    assert np.max(np.abs(recon - h)) <= 1e-10
    assert unitarity_defect(v) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_eigenpairs_and_ordering(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(n, rng)
    scale = np.linalg.norm(h)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= -1e-12)
    for k in range(n):
        assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale
    # independent check against LAPACK
    assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= 1e-10 * scale


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(7)
    for n in (3, 6, 12):
        h = random_hermitian(n, rng)
        w, _ = eig_hermitian(h)
        assert abs(w.sum() - np.real(np.trace(h))) <= 1e-10 * np.linalg.norm(h)


def test_permutation_conjugation_invariance():
    rng = np.random.default_rng(3)
    h = random_hermitian(7, rng)
    perm = rng.permutation(7)
    p = np.zeros((7, 7))
    p[perm, np.arange(7)] = 1.0
    w1, _ = eig_hermitian(h)
    w2, _ = eig_hermitian(p @ h @ p.T)
    assert np.max(np.abs(w1 - w2)) <= 1e-10 * np.linalg.norm(h)


def test_non_hermitian_rejected_with_diagnostic():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(bad)
    assert hermiticity_defect(bad) == 1.0


def test_bad_shapes_and_values_rejected():
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


DEFECTS = (unitarity_defect, hermiticity_defect)


@pytest.mark.parametrize("defect", DEFECTS)
def test_defects_name_a_non_square_matrix(defect):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        defect(np.zeros((2, 3)))


@pytest.mark.parametrize("defect", DEFECTS)
def test_defects_take_a_nested_list(defect):
    assert defect([[1.0, 0.0], [0.0, 1.0]]) == 0.0
    assert defect([[0.0, 1.0], [0.0, 0.0]]) == 1.0


@pytest.mark.parametrize("defect", DEFECTS)
def test_defects_name_a_vector(defect):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(3,\)$"):
        defect(np.zeros(3))


def test_zero_matrix():
    w, v = eig_hermitian(np.zeros((4, 4)))
    assert np.all(w == 0.0)
    assert unitarity_defect(v) <= 1e-12


def test_degenerate_cluster_still_reconstructs():
    rng = np.random.default_rng(11)
    u = haar_unitary(5, rng)
    h = u @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0]) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    w, v = eig_hermitian(h)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-10


def test_convergence_failure_is_loud(monkeypatch):
    import qconstel.linalg as la

    h = random_hermitian(4, np.random.default_rng(0))

    def lapack_failure(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(la, "eigh", lapack_failure)
    with pytest.raises(ConvergenceError):
        la.eig_hermitian(h)

    # right eigenvalues, wrong eigenvectors: caught by the residual check
    monkeypatch.setattr(la, "eigh", lambda a: (np.linalg.eigvalsh(a), np.eye(4, dtype=complex)))
    with pytest.raises(ConvergenceError):
        la.eig_hermitian(h)


def test_large_scale_rounding_is_not_a_hermiticity_defect():
    # U diag U^H at |H| ~ 7e5 carries a rounding asymmetry of ~3e-11
    d = np.linspace(0.0, 5e5, 6)
    u = haar_unitary(6, np.random.default_rng(0))
    h = u @ np.diag(d) @ u.conj().T
    assert hermiticity_defect(h) > 1e-12
    w, v = eig_hermitian(h)
    assert np.max(np.abs(w - d)) <= 1e-10 * np.linalg.norm(h)
    assert unitarity_defect(v) <= 1e-12


EPS = np.finfo(float).eps


def scaled_hermitian(n, log_norm, kind, seed):
    """Hermitian test matrix with Frobenius norm 10**log_norm.

    ``wigner`` is exactly Hermitian; ``spectral`` and ``degenerate`` are
    U diag U^H products rounded in floating point (the latter with
    eigenvalues repeated from {1, 2, 3}).
    """
    rng = np.random.default_rng(seed)
    target = 10.0**log_norm
    if kind == "wigner":
        h = random_hermitian(n, rng)
        return h * (target / np.linalg.norm(h))
    d = rng.standard_normal(n) if kind == "spectral" else rng.integers(1, 4, n).astype(float)
    d *= target / np.linalg.norm(d)
    u = haar_unitary(n, rng)
    return (u * d) @ u.conj().T


hermitian_cases = st.tuples(
    st.integers(1, 64),
    st.floats(-8.0, 8.0),
    st.sampled_from(["wigner", "spectral", "degenerate"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60)
@given(hermitian_cases)
def test_eigensolver_contract_sweep(case):
    h = scaled_hermitian(*case)
    n = h.shape[0]
    scale = np.linalg.norm(h)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0.0)
    assert np.linalg.norm(h @ v - v * w) <= 16 * n * EPS * scale
    assert unitarity_defect(v) <= 16 * n * EPS
    assert abs(w.sum() - np.real(np.trace(h))) <= 16 * n * EPS * scale


@settings(max_examples=30)
@given(hermitian_cases)
def test_relative_hermiticity_defect_rejected_at_every_scale(case):
    h = scaled_hermitian(*case).astype(np.complex128)
    n = h.shape[0]
    h[0, n - 1] += 1e-6j * np.linalg.norm(h)
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(h)


def test_unitary_distance_same_and_phase():
    rng = np.random.default_rng(1)
    u = haar_unitary(4, rng)
    assert unitary_distance(u, u) <= 1e-11
    assert unitary_distance(u, -u) <= 1e-11
    assert unitary_distance(u, np.exp(0.37j) * u) <= 1e-11


def test_unitary_distance_identity_vs_swap():
    # fine-grid oracle: min over phase of max-entry |I - e^{i phi} X|
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    phis = np.linspace(0, 2 * np.pi, 100001)
    oracle = np.abs(np.eye(2) - np.exp(1j * phis)[:, None, None] * x).max(axis=(1, 2)).min()
    assert abs(oracle - 1.0) <= 1e-9
    assert abs(unitary_distance(np.eye(2), x) - 1.0) <= 1e-9


def test_unitary_distance_detects_difference():
    rng = np.random.default_rng(2)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    d = unitary_distance(u, v)
    phis = np.linspace(0, 2 * np.pi, 20001)
    fine = np.abs(u - np.exp(1j * phis)[:, None, None] * v).max(axis=(1, 2)).min()
    assert d <= fine + 1e-9
    assert d > 0.01


def test_golden_section_keeps_left_part_on_ties():
    a, b, fmin = _golden_section(lambda x: 0.0, 0.0, 1.0, 1e-6)
    assert a == 0.0 and 0.0 < b <= 1e-6 and fmin == 0.0
    a, b, fmin = _golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-9)
    assert a <= 0.3 <= b and b - a <= 1e-9 and fmin <= 1e-18


def test_unitary_distance_shape_mismatch():
    with pytest.raises(ValueError):
        unitary_distance(np.eye(2), np.eye(3))


def scan_cases():
    """Matrix pairs on which ``unitary_distance`` must give the scan oracle's bits."""
    rng = np.random.default_rng(23)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    # tr(swap^H I) = 0: no trace phase joins the grid
    cases = [(np.eye(2), swap), (np.zeros((3, 3)), np.zeros((3, 3))),
             (np.zeros((4, 4)), haar_unitary(4, rng))]
    for n in range(2, 17):
        u, v = haar_unitary(n, rng), haar_unitary(n, rng)
        cases.append((u, v))
        cases.append((netlist_unitary(reck_decompose(u)), u))
        # a phase between grid points (either sign) and one on the grid
        for theta in (rng.uniform(-np.pi, np.pi), 2.0 * np.pi * n / 1024):
            cases.append((np.exp(1j * theta) * u, u))
    # larger pairs, up to n = 65
    for n in (17, 33, 64, 65):
        u, v = haar_unitary(n, rng), haar_unitary(n, rng)
        cases.append((u, v))
        cases.append((netlist_unitary(reck_decompose(u)), u))
    # large entries (at 1e155, the oracle's tr(v^H u) would overflow), small
    # ones, and subnormal ones
    for scale in (1e154, 1e-300, 1e-310):
        u, v = haar_unitary(5, rng), haar_unitary(5, rng)
        cases.append((scale * u, scale * v))
    # the pruned scan: its radius runs from a point (t = 1e-15) to past the whole
    # circle (t = 2); v = 0; the best grid phase just inside and just outside the
    # radius; and pruned pairs at small and subnormal scales
    v, g = haar_unitary(6, rng), gaussian(6, rng)
    cases += [(v + t * g, v) for t in np.geomspace(1e-15, 2.0, 16)]
    cases.append((haar_unitary(3, rng), np.zeros((3, 3))))
    # 1 x 1 pairs, pruned like any other pair
    cases += [(np.exp(1j * rng.uniform(-4.0, 4.0)) * (1.0 + t * gaussian(1, rng)), np.ones((1, 1)))
              for t in (1e-16, 1e-12, 1e-3)]
    cases += list(edge_pairs())
    for scale in (1e-300, 1e-310):
        cases += [(scale * (v + t * g), scale * v) for t in (0.0, 1e-9, 1e-2)]
        cases.append((scale * netlist_unitary(reck_decompose(v)), scale * v))
    return cases


def gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def pruning_radius(u, v):
    """The radius of unitary_distance's docstring, and the trace phase factor c*."""
    c_star = np.exp(1j * np.angle(np.trace(v.conj().T @ u)))
    eps = np.finfo(float).eps
    rounding = 8.0 * (eps * (np.abs(u).max() + np.abs(v).max()) + 2.0**-1074)
    radius = 2.0 * (np.abs(u - c_star * v).max() + rounding) / np.abs(v).max() + 8.0 * eps
    return radius, c_star


def best_grid_offset(u, v):
    """|c_k - c*| / radius for the grid phase c_k with the smallest scan value."""
    radius, c_star = pruning_radius(u, v)
    c = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1025)[:-1])
    best = c[np.argmin(np.abs(u - c[:, None, None] * v).max(axis=(1, 2)))]
    return abs(best - c_star) / radius


def edge_pairs():
    """Pairs e^{i theta} (v + t G) whose best grid phase lies just inside and just outside the radius.

    theta puts the trace phase 0.37 grid steps past a grid phase.  Bisects
    log10 t between 1e-15, where the radius is ~1e-14 and misses the grid,
    and 1, where it takes in the whole circle.
    """
    rng = np.random.default_rng(31)
    v, g = haar_unitary(4, rng), gaussian(4, rng)

    def pair(log_t):
        return np.exp(0.37j * 2.0 * np.pi / 1024) * (v + 10.0**log_t * g), v

    lo, hi = -15.0, 0.0  # best_grid_offset is above 1 at lo and below 1 at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if best_grid_offset(*pair(mid)) > 1.0 else (lo, mid)
    return pair(hi), pair(lo)


def test_edge_pairs_straddle_the_radius():
    inside, outside = (best_grid_offset(*pair) for pair in edge_pairs())
    assert 1.0 - 1e-9 < inside <= 1.0 < outside < 1.0 + 1e-9


def test_unitary_distance_is_the_scan_oracle_bit_for_bit():
    for u, v in scan_cases():
        assert unitary_distance(u, v) == unitary_distance_scan(u, v), u.shape


def test_unitary_distance_scales_past_the_trace_overflow():
    # at 2^996 the unscaled tr(v^H u) overflows; scaling by a power of two is
    # exact, so the distance is the unscaled one times 2^996, bit for bit
    rng = np.random.default_rng(29)
    u, v = haar_unitary(5, rng), haar_unitary(5, rng)
    s = 2.0 ** 996
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((u, v), (netlist_unitary(reck_decompose(u)), u)):
            assert unitary_distance(s * a, s * b) == s * unitary_distance(a, b)


@settings(max_examples=100)
@given(st.integers(1, 16), st.floats(-16.0, 0.5), st.floats(-np.pi, np.pi),
       st.integers(0, 2**32 - 1))
def test_pruned_scan_is_the_scan_oracle_bit_for_bit(n, log_t, theta, seed):
    # the radius 2 (d* + e) / max|v| grows with t from a point to the whole circle
    rng = np.random.default_rng(seed)
    v = haar_unitary(n, rng)
    u = np.exp(1j * theta) * (v + 10.0**log_t * gaussian(n, rng))
    assert unitary_distance(u, v) == unitary_distance_scan(u, v)


def test_pruned_scan_scales_to_2_996_bit_for_bit():
    # the oracle's tr(v^H u) overflows at 2^996, and scaling by a power of two is
    # exact, so the scan there is the oracle's at scale 1 times 2^996; the margin
    # 8 eps (max|u| + max|v|) must not overflow either
    rng = np.random.default_rng(37)
    v, g = haar_unitary(7, rng), gaussian(7, rng)
    pairs = [(v + t * g, v) for t in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0)]
    pairs.append((netlist_unitary(reck_decompose(v)), v))
    s = 2.0 ** 996
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in pairs:
            assert unitary_distance(s * a, s * b) == s * unitary_distance_scan(a, b)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_pruned_scan_of_a_round_trip_stays_below_two_blocks(n):
    # a Reck round trip's radius is ~1e-14, so it scans at most two phases, each
    # with temporaries of n^2 entries (4 KB at n = 16); the call peaks near 50 KB
    u = haar_unitary(n, np.random.default_rng(n))
    w = netlist_unitary(reck_decompose(u))
    tracemalloc.start()
    try:
        unitary_distance(w, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 131_072, peak


def scanned_phases(u, v, monkeypatch):
    """The phases unitary_distance(u, v) scans, apart from d* and the golden section's probes."""
    calls = []
    max_abs_diff, golden_section = linalg._max_abs_diff, linalg._golden_section

    def counted(a, b, phi):
        calls.append(phi)
        return max_abs_diff(a, b, phi)

    def uncounted(f, a, b, tol):
        start = len(calls)
        out = golden_section(f, a, b, tol)
        del calls[start:]
        return out

    monkeypatch.setattr(linalg, "_max_abs_diff", counted)
    monkeypatch.setattr(linalg, "_golden_section", uncounted)
    unitary_distance(u, v)
    return calls[1:]  # calls[0] is d* at the trace phase


def test_round_trips_scan_at_most_two_phases(monkeypatch):
    # every decompose job compares a round trip; its radius is ~1e-14, so the
    # scan keeps the trace phase and at most the one grid phase beside it
    pairs = []
    for n in (2, 4, 8, 16):
        u = haar_unitary(n, np.random.default_rng(n))
        pairs.append((netlist_unitary(reck_decompose(u)), u))
    models = [ring_model(2, 1.0), rectangle_model(1.0, 1.0)]
    models += [ring_model(n, 1.0) for n in (4, 8, 16)]
    pairs += [(netlist_unitary(fourier_circuit(m.group)), qft_matrix(m.group)) for m in models]
    for u, v in pairs:
        assert 1 <= len(scanned_phases(u, v, monkeypatch)) <= 2, u.shape
    # an unrelated pair scans every phase
    rng = np.random.default_rng(3)
    assert len(scanned_phases(haar_unitary(4, rng), haar_unitary(4, rng), monkeypatch)) == 1025


@pytest.mark.parametrize("n", [16, 64])
def test_unitary_distance_keeps_its_temporaries_small(n):
    # the scan runs in blocks; one (1025, 64, 64) complex block would be 67 MB
    rng = np.random.default_rng(n)
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    tracemalloc.start()
    try:
        unitary_distance(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_unitary_distance_names_a_non_finite_entry(bad):
    u = np.eye(3, dtype=complex)
    u[1, 2] = bad
    for args in ((u, np.eye(3)), (np.eye(3), u)):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            unitary_distance(*args)


def test_unitary_distance_names_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^expected non-empty matrices, got shape \(0, 0\)$"):
        unitary_distance(np.zeros((0, 0)), np.zeros((0, 0)))
