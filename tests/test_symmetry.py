import numpy as np
import pytest

from qconstel.constellation import make_pair, make_ring, matching_psf, validate_symmetry
from qconstel.linalg import eig_hermitian, unitarity_defect
from qconstel.states import density_matrix, source_state
from qconstel.symmetry import (
    AbelianGroup,
    characters,
    qft_matrix,
    symmetric_eigenbasis,
    verify_multiplicity_free,
)

Z2 = AbelianGroup((2,))
Z4 = AbelianGroup((4,))
Z2Z2 = AbelianGroup((2, 2))


def test_characters_z2():
    assert np.allclose(characters(Z2), [[1, 1], [1, -1]])


def test_characters_z4():
    chi = characters(Z4)
    lam, g = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.allclose(chi, 1j ** (lam * g), atol=1e-12)


def test_characters_z2z2_tensor_square():
    chi2 = characters(Z2)
    assert np.allclose(characters(Z2Z2), np.kron(chi2, chi2))


@pytest.mark.parametrize("group", [Z2, Z4, Z2Z2, AbelianGroup((3,)), AbelianGroup((2, 3))])
def test_character_table_invariants(group):
    chi = characters(group)
    n = group.order
    assert np.max(np.abs(np.abs(chi) - 1.0)) <= 1e-12
    gram = chi @ chi.conj().T
    assert np.max(np.abs(gram - n * np.eye(n))) <= 1e-10


def test_qft_z2_is_hadamard():
    assert np.allclose(qft_matrix(Z2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_qft_z4_inverse_dft_sign():
    u = qft_matrix(Z4)
    lam, g = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.allclose(u, (1j ** (-(lam * g) % 4).astype(float)) / 2.0, atol=1e-12)
    expected = np.exp(-2j * np.pi * lam * g / 4) / 2.0
    assert np.allclose(u, expected, atol=1e-12)


def test_qft_z2z2_is_walsh():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(qft_matrix(Z2Z2), np.kron(h, h), atol=1e-12)


@pytest.mark.parametrize("group", [Z2, Z4, Z2Z2, AbelianGroup((5,)), AbelianGroup((8,))])
def test_qft_unitary(group):
    assert unitarity_defect(qft_matrix(group)) <= 1e-12


def pair_setup(p=1.0, r=0.3):
    c = make_pair(r)
    psf = matching_psf(c, p)
    perms = validate_symmetry(c.symmetry, psf.momenta)
    states = np.stack([source_state(psf, pt) for pt in c.points])
    return c, psf, perms, states


def test_pair_eigenbasis_plus_minus():
    p, r = 1.0, 0.3
    _, _, perms, states = pair_setup(p, r)
    basis = symmetric_eigenbasis(states, Z2, perms)
    plus = np.ones(2) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(plus.conj() @ basis.vectors[:, 0]) - 1.0) <= 1e-10
    assert abs(abs(minus.conj() @ basis.vectors[:, 1]) - 1.0) <= 1e-10
    assert np.allclose(
        np.sort(basis.weights), np.sort([np.cos(p * r) ** 2, np.sin(p * r) ** 2]), atol=1e-12
    )


def test_identical_states_single_weight():
    states = np.stack([np.ones(4) / 2.0] * 4)
    perms = validate_symmetry(make_ring(4, 1.0).symmetry, matching_psf(make_ring(4, 1.0), 1.0).momenta)
    basis = symmetric_eigenbasis(states, Z4, perms)
    assert np.allclose(basis.weights, [1, 0, 0, 0], atol=1e-12)
    assert basis.support.tolist() == [True, False, False, False]
    assert np.all(basis.vectors[:, ~basis.support] == 0.0)


def ring_setup(n, p, r):
    c = make_ring(n, r)
    psf = matching_psf(c, p)
    perms = validate_symmetry(c.symmetry, psf.momenta)
    states = np.stack([source_state(psf, pt) for pt in c.points])
    return c, psf, perms, states


@pytest.mark.parametrize("n,p,r", [(4, 1.0, 0.7), (3, 1.2, 0.5), (6, 0.8, 1.1)])
def test_weights_match_eigenvalues(n, p, r):
    c, psf, perms, states = ring_setup(n, p, r)
    basis = symmetric_eigenbasis(states, AbelianGroup((n,)), perms)
    w, _ = eig_hermitian(density_matrix(c, psf))
    assert np.max(np.abs(np.sort(basis.weights) - np.sort(w))) <= 1e-9


def test_orthogonality_of_nonorthogonal_inputs():
    _, _, perms, states = ring_setup(5, 1.0, 0.4)
    gram_states = states.conj() @ states.T
    assert np.max(np.abs(gram_states - np.eye(5))) > 0.1  # genuinely non-orthogonal inputs
    basis = symmetric_eigenbasis(states, AbelianGroup((5,)), perms)
    vecs = basis.vectors[:, basis.support]
    gram = vecs.conj().T @ vecs
    assert np.max(np.abs(gram - np.eye(vecs.shape[1]))) <= 1e-10


def test_completeness_and_diagonalization():
    c, psf, perms, states = ring_setup(6, 1.0, 0.9)
    basis = symmetric_eigenbasis(states, AbelianGroup((6,)), perms)
    assert abs(basis.weights.sum() - 1.0) <= 1e-10
    rho = density_matrix(c, psf)
    e = basis.vectors[:, basis.support]
    inner = e.conj().T @ rho @ e
    off = inner - np.diag(np.diag(inner))
    assert np.max(np.abs(off)) <= 1e-10
    # the qft basis diagonalizes rho as well
    u = qft_matrix(AbelianGroup((6,)))
    d = u @ rho @ u.conj().T
    assert np.max(np.abs(d - np.diag(np.diag(d)))) <= 1e-10


def test_character_inversion_reconstructs_states():
    _, _, perms, states = ring_setup(4, 1.0, 0.6)
    group = Z4
    chi = characters(group)
    raw = (chi @ states) / np.sqrt(group.order)  # unnormalized e_lambda rows
    recon = (chi.conj().T @ raw) / np.sqrt(group.order)
    assert np.max(np.abs(recon - states)) <= 1e-10


def test_covariance_violation_names_element():
    _, _, perms, states = ring_setup(4, 1.0, 0.6)
    bad = states.copy()
    bad[2] = np.roll(bad[2], 1)
    with pytest.raises(ValueError, match="element 2"):
        symmetric_eigenbasis(bad, Z4, perms)
    bad = states.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="element 1 deviates by nan"):
        symmetric_eigenbasis(bad, Z4, perms)


def test_state_count_mismatch():
    _, _, perms, states = ring_setup(4, 1.0, 0.6)
    with pytest.raises(ValueError, match="4 states"):
        symmetric_eigenbasis(states[:3], Z4, perms)


def test_zero_weight_flagging_at_degenerate_point():
    # pr = pi/2 kills the trivial-character weight of the pair model
    p = 1.0
    r = np.pi / 2
    _, _, perms, states = pair_setup(p, r)
    basis = symmetric_eigenbasis(states, Z2, perms)
    assert basis.support.tolist() == [False, True]
    assert basis.weights[0] == 0.0
    assert np.all(basis.vectors[:, 0] == 0.0)


def test_multiplicity_free():
    for n in (2, 3, 5, 8):
        c = make_ring(n, 1.0)
        psf = matching_psf(c, 1.0)
        perms = validate_symmetry(c.symmetry, psf.momenta)
        assert verify_multiplicity_free(AbelianGroup((n,)), perms)

    from qconstel.constellation import make_rectangle

    rect = make_rectangle(1.0, 0.5)
    psf = matching_psf(rect, 1.0, p_y=0.5)
    perms = validate_symmetry(rect.symmetry, psf.momenta)
    assert verify_multiplicity_free(Z2Z2, perms)

    trivial_action = np.stack([np.arange(2), np.arange(2)])
    assert not verify_multiplicity_free(Z2, trivial_action)


def test_group_indexing():
    g = AbelianGroup((2, 3))
    tuples = [g.element_tuple(k) for k in range(6)]
    assert tuples == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for k in range(6):
        assert g.element_index(g.element_tuple(k)) == k
        ginv = g.inverse(k)
        summed = tuple((a + b) % f for a, b, f in zip(g.element_tuple(k), g.element_tuple(ginv), g.factors))
        assert summed == (0, 0)
    with pytest.raises(ValueError):
        AbelianGroup((1,))
