import numpy as np
import pytest

from qconstel.constellation import make_pair, make_rectangle, make_ring
from qconstel.estimation import (
    ModelFamily,
    analytic_qfi,
    character_basis,
    classical_fi,
    drho,
    orbit_states,
    outcome_probabilities,
    pair_model,
    qfim,
    rectangle_model,
    ring_eigenvalues,
    ring_model,
    ring_qfi_parseval,
    ring_qfi_spectral,
    sld,
)
from qconstel.linalg import haar_unitary, hermiticity_defect
from qconstel.symmetry import qft_matrix


def constant_model(rho):
    return ModelFamily(
        names=("a",),
        dim=rho.shape[0],
        bounds=((-1.0, 1.0),),
        builder=lambda v: rho,
    )


def pair_drho_oracle(p, theta, r):
    """Entrywise derivative of the pair density matrix from the phase formula."""
    u = np.array([np.cos(theta), np.sin(theta)])
    momenta = np.array([[p, 0.0], [-p, 0.0]])
    rho = np.zeros((2, 2), dtype=complex)
    for sign in (1.0, -1.0):
        phases = momenta @ (sign * r * u)
        psi = np.exp(-1j * phases) / np.sqrt(2)
        dpsi = (-1j * (momenta @ (sign * u))) * psi
        rho += 0.5 * (np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
    return rho


def test_drho_matches_symbolic_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0, np.pi / 2)
        r = rng.uniform(0.1, 1.2)
        model = pair_model(p, theta)
        num = drho(model, [r], 0)
        assert np.max(np.abs(num - pair_drho_oracle(p, theta, r))) <= 1e-6
        assert hermiticity_defect(num) <= 1e-9
        assert abs(np.trace(num)) <= 1e-8


def test_drho_constant_model_is_zero():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.max(np.abs(drho(constant_model(rho), [0.0], 0))) <= 1e-12


def test_drho_eigenvalue_derivative_on_diagonal():
    p, r = 1.0, 0.4
    model = pair_model(p)
    d = drho(model, [r], 0)
    plus = np.ones(2) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    dplus = np.real(plus.conj() @ d @ plus)
    dminus = np.real(minus.conj() @ d @ minus)
    assert abs(dplus - (-2 * p * np.cos(p * r) * np.sin(p * r))) <= 1e-6
    assert abs(dminus - (2 * p * np.cos(p * r) * np.sin(p * r))) <= 1e-6


def test_drho_domain_guard():
    model = pair_model(1.0)
    with pytest.raises(ValueError):
        drho(model, [1e-9], 0)
    with pytest.raises(ValueError):
        drho(model, [-0.5], 0)
    with pytest.raises(ValueError):
        drho(model, [0.3], 1)


def test_sld_diagonal_case():
    rho = np.diag([0.7, 0.2, 0.1]).astype(complex)
    dr = np.diag([0.05, -0.02, -0.03]).astype(complex)
    l = sld(rho, dr)
    assert np.allclose(l, np.diag([0.05 / 0.7, -0.02 / 0.2, -0.03 / 0.1]), atol=1e-10)


def test_sld_zero_derivative():
    rho = np.diag([0.6, 0.4]).astype(complex)
    assert np.max(np.abs(sld(rho, np.zeros((2, 2))))) == 0.0


def test_sld_lyapunov_residual():
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = haar_unitary(4, rng)
        lam = rng.uniform(0.05, 1.0, size=4)
        lam /= lam.sum()
        rho = u @ np.diag(lam) @ u.conj().T
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dr = 0.5 * (z + z.conj().T)
        dr -= np.trace(dr) / 4.0 * np.eye(4)
        l = sld(rho, dr)
        residual = dr - 0.5 * (l @ rho + rho @ l)
        assert np.max(np.abs(residual)) <= 1e-8
        assert hermiticity_defect(l) <= 1e-10


def test_sld_rejects_nonhermitian():
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="Hermitian"):
        sld(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_qfim_pair_on_axis():
    for p in (0.5, 1.0, 2.0):
        model = pair_model(p)
        for r in (0.2, 0.8, 1.3):
            if abs(p * r - np.pi / 2) < 0.05:
                continue
            f = qfim(model, [r])
            assert abs(f[0, 0] - 4 * p * p) <= 1e-5 * 4 * p * p


def test_qfim_rectangle_diagonal():
    model = rectangle_model(1.0, 0.5)
    f = qfim(model, [0.4, 0.8])
    assert abs(f[0, 0] - 4.0) <= 1e-5 * 4.0
    assert abs(f[1, 1] - 1.0) <= 1e-5
    assert abs(f[0, 1]) <= 1e-6


def test_qfim_ring_even_matches_constant():
    for n in (2, 4, 6, 8):
        model = ring_model(n, 1.0)
        expected = 4.0 if n == 2 else 2.0
        f = qfim(model, [0.7])[0, 0]
        assert abs(f - expected) <= 1e-5 * expected


def test_qfim_ring_matches_spectral_route_all_n():
    # numeric pipeline against the independent closed-form eigenvalue route,
    # at the default psf orientation and with the psf aligned to the sources
    # (the orientation the CLI builds, where odd n fall below 2p^2)
    for n in range(2, 9):
        for model, orientation in ((ring_model(n, 1.0), None), (ring_model(n, 1.0, 0.0, 0.0), 0.0)):
            for r in (0.3, 0.9):
                num = qfim(model, [r])[0, 0]
                ana = ring_qfi_spectral(n, 1.0, r, orientation=orientation)
                assert abs(num - ana) <= 1e-6


def test_qfim_symmetric_psd():
    f = qfim(rectangle_model(1.3, 0.7), [0.5, 0.6])
    assert np.allclose(f, f.T)
    assert np.min(np.linalg.eigvalsh(f)) >= -1e-9


def test_finite_difference_richardson():
    model = ring_model(4, 1.0)
    f1 = qfim(model, [0.7], h=1e-6)[0, 0]
    f2 = qfim(model, [0.7], h=5e-7)[0, 0]
    assert abs(f1 - f2) / abs(f1) < 1e-5


def test_classical_fi_eigenbasis_attains_qfim():
    rng = np.random.default_rng(2)
    models = [pair_model(1.0), pair_model(1.0, 0.4, 0.1), ring_model(4, 1.0), ring_model(5, 1.0)]
    for model in models:
        for _ in range(3):
            r = rng.uniform(0.15, 1.2)
            fq = qfim(model, [r])
            fc = classical_fi(model, [r], model.qft_basis)
            assert np.max(np.abs(fq - fc)) <= 1e-6
    model = rectangle_model(1.0, 0.6)
    point = [0.5, 0.9]
    assert np.max(np.abs(qfim(model, point) - classical_fi(model, point, model.qft_basis))) <= 1e-6


def test_direct_detection_gives_zero_fi():
    for model, point in [
        (pair_model(1.0), [0.4]),
        (pair_model(1.0, 0.3, 0.2), [0.4]),
        (rectangle_model(1.0, 0.5), [0.5, 0.7]),
        (ring_model(5, 1.0), [0.6]),
    ]:
        f = classical_fi(model, point, np.eye(model.dim))
        assert np.max(np.abs(f)) <= 1e-8


def test_random_basis_dominated_by_qfim():
    rng = np.random.default_rng(3)
    for model, point in [(pair_model(1.0), [0.4]), (ring_model(4, 1.0), [0.8])]:
        fq = qfim(model, point)
        for _ in range(20):
            basis = haar_unitary(model.dim, rng)
            fc = classical_fi(model, point, basis)
            gap = np.linalg.eigvalsh(fq - fc)
            assert np.min(gap) >= -1e-6


def test_probability_conservation():
    rng = np.random.default_rng(4)
    model = ring_model(6, 1.0)
    for _ in range(5):
        basis = haar_unitary(6, rng)
        q = outcome_probabilities(model, [rng.uniform(0.1, 1.0)], basis)
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.all(q >= 0.0)


def test_classical_fi_rejects_bad_basis():
    model = pair_model(1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        classical_fi(model, [0.3], np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_analytic_qfi_cases():
    assert analytic_qfi("pair_on_axis", p=1.0) == 4.0
    assert analytic_qfi("pair_on_axis", p=2.0) == 16.0
    assert abs(analytic_qfi("pair_off_axis", p=1.0, theta=np.pi / 2, theta0=0.0)) <= 1e-30
    assert np.allclose(analytic_qfi("rectangle", p_x=1.0, p_y=0.5), np.diag([4.0, 1.0]))
    assert analytic_qfi("ring", n=2, p=1.0) == 4.0
    assert analytic_qfi("ring", n=7, p=1.0) == 2.0
    with pytest.raises(ValueError):
        analytic_qfi("triangle", p=1.0)


def test_off_axis_qfim_formula():
    for theta, theta0 in [(0.3, 0.0), (0.7, 0.25), (1.2, 0.9)]:
        model = pair_model(1.0, theta, theta0)
        f = qfim(model, [0.5])[0, 0]
        expected = analytic_qfi("pair_off_axis", p=1.0, theta=theta, theta0=theta0)
        assert abs(f - expected) <= 1e-5


def test_ring_eigenvalues_basics():
    lam0 = ring_eigenvalues(5, 1.0, 0.0)
    assert np.allclose(lam0, [1, 0, 0, 0, 0], atol=1e-12)

    z = 0.8
    lam4 = ring_eigenvalues(4, 1.0, z)
    expected = [(1 + np.cos(z)) ** 2 / 4, np.sin(z) ** 2 / 4, (1 - np.cos(z)) ** 2 / 4, np.sin(z) ** 2 / 4]
    assert np.allclose(lam4, expected, atol=1e-12)

    for p, r in [(0.5, 0.3), (1.0, 0.9), (2.0, 0.4)]:
        lam2 = ring_eigenvalues(2, p, r)
        assert np.allclose(np.sort(lam2), np.sort([np.cos(p * r) ** 2, np.sin(p * r) ** 2]), atol=1e-12)

    assert abs(ring_eigenvalues(7, 1.0, 0.6).sum() - 1.0) <= 1e-10

    with pytest.raises(ValueError):
        ring_eigenvalues(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        ring_eigenvalues(4, -1.0, 0.5)
    with pytest.raises(ValueError):
        ring_eigenvalues(4, 1.0, -0.5)


def test_ring_eigenvalues_match_density_matrix():
    for n, p, r in [(3, 1.0, 0.7), (5, 0.8, 1.1), (8, 1.3, 0.4)]:
        model = ring_model(n, p)
        w = np.linalg.eigvalsh(model.rho([r]))
        assert np.max(np.abs(np.sort(ring_eigenvalues(n, p, r)) - np.sort(w))) <= 1e-9


def test_parseval_route_is_constant():
    # the Parseval sum equals the flat closed form for every n, even where
    # the eigenvalue route falls below it (odd n, aligned psf)
    for n in range(2, 9):
        for r in (0.2, 0.7, 1.1):
            expected = 4.0 if n == 2 else 2.0
            assert abs(ring_qfi_parseval(n, 1.0, r) - expected) <= 1e-10
    # with the aligned psf both routes coincide for even n, while for odd n
    # the spectral route is strictly below; the default orientation closes it
    assert abs(ring_qfi_spectral(4, 1.0, 0.7, orientation=0.0) - 2.0) <= 1e-10
    assert ring_qfi_spectral(3, 1.0, 0.7, orientation=0.0) < 2.0 - 1e-3
    assert abs(ring_qfi_spectral(3, 1.0, 0.7) - 2.0) <= 1e-10


def test_default_ring_orientation_meets_closed_form():
    # default psf angle is phase + 0 (even n) or phase + pi/(2n) (odd n), and
    # there the eigenvalue route equals 2p^2 (4p^2 at n = 2); at n = 22 and 34
    # the float (pi/2) % (pi/n) gives pi/n - 3e-17 instead of 0
    phase, p = 0.37, 1.3
    for n in range(2, 41):
        offset = 0.0 if n % 2 == 0 else np.pi / (2 * n)
        m0 = ring_model(n, p, phase).psf.momenta[0]
        assert abs(np.arctan2(m0[1], m0[0]) - (phase + offset)) <= 1e-12
        expected = 4.0 * p * p if n == 2 else 2.0 * p * p
        for r in (0.25, 0.6, 1.25):
            assert abs(ring_qfi_spectral(n, p, r) - expected) <= 1e-9


def test_character_basis_weights_and_base_independence():
    model = ring_model(5, 1.0)
    cb = character_basis(model, [0.7])
    assert np.max(np.abs(np.sort(cb.weights) - np.sort(ring_eigenvalues(5, 1.0, 0.7)))) <= 1e-10
    for base in range(1, 5):
        other = character_basis(model, [0.7], base_element=base)
        assert np.max(np.abs(np.sort(cb.weights) - np.sort(other.weights))) <= 1e-10


def test_orbit_states_match_model_density():
    for model, point, make in [
        (pair_model(1.0, 0.2, 0.1), [0.5], lambda v: make_pair(v[0], 0.2)),
        (rectangle_model(1.0, 0.7), [0.4, 0.6], lambda v: make_rectangle(v[0], v[1])),
        (ring_model(6, 1.0, 0.3, 0.2), [0.8], lambda v: make_ring(6, v[0], 0.3)),
        (ring_model(5, 1.3, -2.1), [0.45], lambda v: make_ring(5, v[0], -2.1)),
    ]:
        states = orbit_states(model, point)
        rho = states.T @ states.conj() / states.shape[0]
        assert np.max(np.abs(rho - model.rho(point))) <= 1e-12
        assert np.array_equal(model.orbit_base(np.array(point)), make(point).points[0])


def test_orbit_states_accept_domain_closure():
    states = orbit_states(ring_model(4, 1.0), [0.0])
    assert np.allclose(states, np.ones((4, 4)) / 2.0)


def test_model_validation():
    model = pair_model(1.0)
    with pytest.raises(ValueError):
        model.rho([0.3, 0.4])
    with pytest.raises(ValueError):
        model.rho([np.inf])
    with pytest.raises(ValueError):
        model.rho([0.0])
    with pytest.raises(ValueError):
        pair_model(-1.0)
    # qft_basis derives from the symmetry; it is not a constructor field
    with pytest.raises(TypeError):
        ModelFamily(("r",), 2, ((0.0, np.inf),), model.builder, qft_basis=np.eye(2))
    for m in (model, rectangle_model(1.0, 0.5), ring_model(5, 1.0)):
        assert np.array_equal(m.qft_basis, qft_matrix(m.group).conj().T)
