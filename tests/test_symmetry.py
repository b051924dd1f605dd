import numpy as np
import pytest

from qconstel.constellation import SymmetryError, make_ring
from qconstel.estimation import (
    ModelFamily,
    orbit_states,
    outcome_probabilities,
    ring_model,
)
from qconstel.linalg import eig_hermitian, unitarity_defect
from qconstel.symmetry import AbelianGroup, qft_matrix

from oracles import characters, psf_comb, source_state, validate_symmetry

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


def factor_tuples(limit):
    """Every tuple of cyclic factors >= 2 whose product is at most ``limit``."""
    out = []
    for f in range(2, limit + 1):
        out.append((f,))
        out.extend((f,) + rest for rest in factor_tuples(limit // f))
    return out


def test_qft_matrix_is_the_character_transform_for_every_small_group():
    # the Kronecker product of per-factor DFTs against chi(g^-1) / sqrt(|G|)
    # from the character table oracle, for every factor tuple of order <= 64
    tuples = factor_tuples(64)
    assert len(tuples) == 440
    for factors in tuples:
        group = AbelianGroup(factors)
        inverse = np.argmin(group.table, axis=1)  # the row of g holds its identity at g^-1
        expected = characters(group)[:, inverse] / np.sqrt(group.order)
        q = qft_matrix(group)
        assert np.max(np.abs(q - expected)) <= 5e-14, factors
        assert unitarity_defect(q) <= 2e-15, factors


def test_pair_eigenbasis_plus_minus():
    p, r = 1.0, 0.3
    model = ring_model(2, p)
    vectors = model.qft_basis
    plus = np.ones(2) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(plus.conj() @ vectors[:, 0]) - 1.0) <= 1e-10
    assert abs(abs(minus.conj() @ vectors[:, 1]) - 1.0) <= 1e-10
    assert np.allclose(
        np.sort(outcome_probabilities(model, [r], vectors)),
        np.sort([np.cos(p * r) ** 2, np.sin(p * r) ** 2]),
        atol=1e-12,
    )


def test_identical_states_single_weight():
    # ring4 at r = 0: all four orbit states are the uniform state
    model = ring_model(4, 1.0)
    assert np.allclose(orbit_states(model, [0.0]), np.ones((4, 4)) / 2.0)
    weights = outcome_probabilities(model, [0.0], model.qft_basis)
    assert np.allclose(weights, [1, 0, 0, 0], atol=1e-12)
    # the full unitary basis, with no zero columns
    assert unitarity_defect(model.qft_basis) <= 1e-12


def ring_setup(n, p, r):
    c = make_ring(n, r)
    psf = psf_comb(AbelianGroup((n,)), p)
    perms = validate_symmetry(psf, AbelianGroup((n,)))
    states = np.stack([source_state(psf, pt) for pt in c])
    return c, psf, perms, states


@pytest.mark.parametrize("n,p,r", [(4, 1.0, 0.7), (3, 1.2, 0.5), (6, 0.8, 1.1)])
def test_weights_match_eigenvalues(n, p, r):
    model = ring_model(n, p, 0.0, 0.0)  # psf aligned with the sources
    weights = outcome_probabilities(model, [r], model.qft_basis)
    w, _ = eig_hermitian(model.rho([r]))
    assert np.max(np.abs(np.sort(weights) - np.sort(w))) <= 1e-9


def test_orthogonality_of_nonorthogonal_inputs():
    model = ring_model(5, 1.0, 0.0, 0.0)
    states = orbit_states(model, [0.4])
    gram_states = states.conj() @ states.T
    assert np.max(np.abs(gram_states - np.eye(5))) > 0.1  # genuinely non-orthogonal inputs
    vecs = model.qft_basis  # every column, not only those of nonzero weight
    gram = vecs.conj().T @ vecs
    assert np.max(np.abs(gram - np.eye(vecs.shape[1]))) <= 1e-10


def test_completeness_and_diagonalization():
    model = ring_model(6, 1.0, 0.0, 0.0)
    assert abs(outcome_probabilities(model, [0.9], model.qft_basis).sum() - 1.0) <= 1e-10
    rho = model.rho([0.9])
    e = model.qft_basis
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
    # qft_basis diagonalizes the family only if sources and psf momenta share
    # the group order; unchecked, the swapped-psf ring5 gives spectral_qfim
    # 1.9377 at r = 0.7 against the FD -> SLD oracle's 2.0000
    model = ring_model(5, 1.0)
    names, group, points, momenta = model.names, model.group, model.points, model.momenta
    swap = [0, 2, 1, 3, 4]
    with pytest.raises(SymmetryError, match="group element 1 does not carry psf momentum 0"):
        ModelFamily(names, group, points, momenta[swap])
    with pytest.raises(SymmetryError, match="group element 1 does not carry psf momentum 0"):
        ModelFamily(names, group, points[swap], momenta)
    # a non-finite momentum is named before the phase tensor is formed
    nan_momenta = np.where(np.arange(5)[:, None] == 3, np.nan, momenta)
    with pytest.raises(ValueError, match="^psf momenta must be finite$"):
        ModelFamily(names, group, points, nan_momenta)
    with pytest.raises(SymmetryError, match=r"\|G\| = 5"):
        ModelFamily(names, group, points, make_ring(4, 1.0))
    with pytest.raises(SymmetryError, match=r"\|G\| = 4"):
        ModelFamily(names, AbelianGroup((4,)), points, momenta)
    with pytest.raises(TypeError):  # the group is a required field
        ModelFamily(names, points, momenta)


def test_family_with_zero_phase_tensor_is_accepted():
    # every source point is orthogonal to every psf momentum, so D = 0 and every
    # symmetry deviation is 0: the family is symmetric (all its states coincide),
    # and the check must not divide 0 by max |D| = 0 (warnings are errors here)
    model = ModelFamily(("r",), Z2, [[1.0, 0.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]])
    assert not np.any(model.phases)
    assert outcome_probabilities(model, [0.5], model.qft_basis) == pytest.approx([1.0, 0.0])


def test_zero_weight_flagging_at_degenerate_point():
    # pr = pi/2 kills the trivial-character weight of the pair model
    p = 1.0
    r = np.pi / 2
    model = ring_model(2, p)
    weights = outcome_probabilities(model, [r], model.qft_basis)
    assert weights[0] <= 1e-30
    assert abs(weights[1] - 1.0) <= 1e-15
    # the weight as computed, and its column kept
    assert np.allclose(model.qft_basis[:, 0], np.ones(2) / np.sqrt(2), atol=1e-15)
    assert unitarity_defect(model.qft_basis) <= 1e-12


def test_group_indexing():
    g = AbelianGroup((2, 3))
    assert g.digits.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    assert np.array_equal(np.ravel_multi_index(g.digits.T, g.factors), np.arange(6))
    for group in (g, AbelianGroup((5,)), AbelianGroup((2, 2)), AbelianGroup((3, 4, 2))):
        n, d = group.order, group.digits
        assert np.array_equal(d[0], np.zeros(len(group.factors)))  # index 0 is the identity
        for k in range(n):
            # the one inverse of k: its digits negate k's modulo the factors
            inverses = np.flatnonzero(group.table[k] == 0)
            assert len(inverses) == 1
            assert np.all((d[k] + d[inverses[0]]) % group.factors == 0)
            assert group.table[inverses[0], k] == 0
    with pytest.raises(ValueError):
        AbelianGroup((1,))
