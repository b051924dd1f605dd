import numpy as np
import pytest

from qconstel.constellation import make_rectangle, make_ring
from qconstel.linalg import hermiticity_defect
from qconstel.states import density_matrix, source_state
from qconstel.symmetry import AbelianGroup

from oracles import apply_group_element, psf_comb, validate_symmetry

Z2, Z3, Z4, Z5, Z6 = (AbelianGroup((n,)) for n in (2, 3, 4, 5, 6))
Z2Z2 = AbelianGroup((2, 2))


def permutation_matrix(perm):
    """Matrix of the relabeling that maps basis state j to perm[j]."""
    return np.eye(len(perm))[:, perm]


def pair_psf(p=1.0):
    return psf_comb(Z2, p)


def test_source_state_pair():
    r0 = 0.4
    psi = source_state(pair_psf(), (r0, 0.0))
    expected = np.array([np.exp(-1j * r0), np.exp(1j * r0)]) / np.sqrt(2)
    assert np.allclose(psi, expected, atol=1e-15)


def test_source_state_origin_is_uniform():
    psi = source_state(psf_comb(Z5, 1.0), (0.0, 0.0))
    assert np.allclose(psi, np.ones(5) / np.sqrt(5))


def test_source_state_ring_phases():
    psi = source_state(psf_comb(Z4, 1.0), (1.0, 0.0))
    expected = np.exp(-1j * np.cos(2 * np.pi * np.arange(4) / 4)) / 2.0
    assert np.allclose(psi, expected, atol=1e-15)


def test_source_state_rejects_empty_psf():
    with pytest.raises(ValueError, match="psf has no momenta"):
        source_state(np.zeros((0, 2)), (0.0, 0.0))
    with pytest.raises(ValueError, match="no source points"):
        density_matrix(np.zeros((0, 2)), psf_comb(Z4, 1.0))


def test_pair_density_eigenvalues():
    p, r = 1.0, 0.3
    rho = density_matrix(make_ring(2, r), pair_psf(p))
    w = np.linalg.eigvalsh(rho)
    assert np.allclose(np.sort(w), np.sort([np.sin(p * r) ** 2, np.cos(p * r) ** 2]), atol=1e-12)


def test_single_source_is_pure():
    rho = density_matrix(np.array([[0.3, -0.2]]), psf_comb(Z4, 1.0))
    w = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_ring4_density_eigenvalues_closed_form():
    p, r = 1.0, 0.8
    rho = density_matrix(make_ring(4, r), psf_comb(Z4, p))
    w = np.sort(np.linalg.eigvalsh(rho))
    z = p * r
    expected = np.sort(
        [(1 + np.cos(z)) ** 2 / 4, np.sin(z) ** 2 / 4, (1 - np.cos(z)) ** 2 / 4, np.sin(z) ** 2 / 4]
    )
    assert np.allclose(w, expected, atol=1e-12)


def test_overlap_pair_cos():
    p, r = 1.0, 0.37
    psf = pair_psf(p)
    psi1 = source_state(psf, (r, 0.0))
    psi2 = source_state(psf, (-r, 0.0))
    assert abs(np.vdot(psi1, psi2) - np.cos(2 * p * r)) <= 1e-12
    assert abs(np.vdot(psi1, psi1) - 1.0) <= 1e-12


def test_overlap_cauchy_schwarz():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert abs(np.vdot(a, b)) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "c,psf_kwargs",
    [
        ((make_ring(2, 0.6, 0.3), Z2), dict(phase=0.2)),
        ((make_rectangle(0.5, 0.9), Z2Z2), dict(p_y=0.7)),
        ((make_ring(3, 0.8), Z3), {}),
        ((make_ring(6, 1.2, 0.4), Z6), dict(phase=0.15)),
    ],
)
def test_density_matrix_invariants(c, psf_kwargs):
    points, group = c
    rho = density_matrix(points, psf_comb(group, 1.1, **psf_kwargs))
    assert hermiticity_defect(rho) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10


@pytest.mark.parametrize(
    "c",
    [(make_ring(2, 0.6, 0.3), Z2), (make_rectangle(0.5, 0.9), Z2Z2), (make_ring(5, 0.8, 0.1), Z5)],
)
def test_symmetry_covariance_of_rho(c):
    points, group = c
    psf = psf_comb(group, 1.0)
    rho = density_matrix(points, psf)
    perms = validate_symmetry(psf, group)
    for g in range(group.order):
        u = permutation_matrix(perms[g])
        assert np.max(np.abs(u @ rho @ u.T - rho)) <= 1e-10


def test_source_state_phase_covariance():
    psf = psf_comb(Z5, 1.0, phase=0.25)
    perms = validate_symmetry(psf, Z5)
    r = np.array([0.33, -0.71])
    psi = source_state(psf, r)
    for g in range(Z5.order):
        moved = apply_group_element(Z5, g, r[None, :])[0]
        lhs = source_state(psf, moved)
        rhs = permutation_matrix(perms[g]) @ psi
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
