import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconstel.linalg import (
    ConvergenceError,
    eig_hermitian,
    hermiticity_defect,
    unitarity_defect,
)

from oracles import haar_unitary


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
