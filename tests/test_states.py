import numpy as np
import pytest

from qconstel.constellation import make_rectangle, make_ring
from qconstel.linalg import hermiticity_defect
from qconstel.estimation import rectangle_model, ring_model
from qconstel.states import density_matrix
from qconstel.symmetry import AbelianGroup

from oracles import apply_group_element, psf_comb, source_state, validate_symmetry

Z2, Z3, Z4, Z5, Z6 = (AbelianGroup((n,)) for n in (2, 3, 4, 5, 6))
Z2Z2 = AbelianGroup((2, 2))


def permutation_matrix(perm):
    """Matrix of the relabeling that maps basis state j to perm[j]."""
    return np.eye(len(perm))[:, perm]


def pair_psf(p=1.0):
    return psf_comb(Z2, p)


def test_source_state_pair():
    r0 = 0.4
    rho = density_matrix([(r0, 0.0)], pair_psf())
    expected = np.array([[1.0, np.exp(-2j * r0)], [np.exp(2j * r0), 1.0]]) / 2.0
    assert np.max(np.abs(rho - expected)) <= 1e-15


def test_source_state_origin_is_uniform():
    rho = density_matrix([(0.0, 0.0)], psf_comb(Z5, 1.0))
    assert np.max(np.abs(rho - np.full((5, 5), 1.0 / 5.0))) <= 1e-15


def test_source_state_ring_phases():
    # one source: rho_jk = exp(-i (p_j - p_k) . x) / N
    rho = density_matrix([(1.0, 0.0)], psf_comb(Z4, 1.0))
    cos = np.cos(2 * np.pi * np.arange(4) / 4)
    expected = np.exp(-1j * (cos[:, None] - cos[None, :])) / 4.0
    assert np.max(np.abs(rho - expected)) <= 1e-15


def test_source_state_rejects_empty_psf():
    with pytest.raises(ValueError, match="psf has no momenta"):
        density_matrix([(0.0, 0.0)], np.zeros((0, 2)))
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
    # the pair's two states overlap by cos(2 p r), so tr rho^2 = (1 + cos^2(2 p r)) / 2
    p, r = 1.0, 0.37
    rho = density_matrix(make_ring(2, r), pair_psf(p))
    purity = np.real(np.trace(rho @ rho))
    assert abs(purity - (1.0 + np.cos(2 * p * r) ** 2) / 2.0) <= 1e-12


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
    # moving one source by g relabels its momentum basis states by perms[g]
    psf = psf_comb(Z5, 1.0, phase=0.25)
    perms = validate_symmetry(psf, Z5)
    r = np.array([0.33, -0.71])
    rho = density_matrix([r], psf)
    for g in range(Z5.order):
        moved = apply_group_element(Z5, g, r[None, :])
        u = permutation_matrix(perms[g])
        assert np.max(np.abs(density_matrix(moved, psf) - u @ rho @ u.T)) <= 1e-12


def mixture_cases():
    """(points, momenta) of every family the CLI builds at seeded points, then of
    random point sets under random momenta."""
    rng = np.random.default_rng(0)
    models = [(ring_model(n, rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0 * np.pi)), 1)
              for n in range(2, 33)]
    models += [(rectangle_model(*rng.uniform(0.3, 3.0, 2)), 2) for _ in range(4)]
    cases = [(model.points * rng.uniform(0.05, 1.5, k), model.momenta) for model, k in models]
    return cases + [(rng.uniform(-2.0, 2.0, (m, 2)), rng.uniform(-3.0, 3.0, (dim, 2)))
                    for m, dim in ((1, 1), (1, 7), (3, 4), (9, 5), (16, 16))]


def test_density_matrix_is_the_source_state_mixture_bit_for_bit():
    # each phase vector is its own product, so rho keeps the bits of the
    # one-source states mixed one by one
    for points, momenta in mixture_cases():
        states = np.stack([source_state(momenta, x) for x in points])
        assert np.array_equal(density_matrix(points, momenta),
                              states.T @ states.conj() / len(points))
