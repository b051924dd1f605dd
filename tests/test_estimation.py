import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qconstel.constellation import apply_group_element, make_pair, make_rectangle, make_ring
from qconstel.estimation import (
    ModelFamily,
    analytic_qfi,
    character_basis,
    check_basis,
    classical_fi,
    drho,
    orbit_states,
    outcome_probabilities,
    pair_model,
    qfim,
    rectangle_model,
    ring_amplitudes,
    ring_eigenvalues,
    ring_model,
    ring_qfi_parseval,
    ring_qfi_spectral,
    sld,
    spectral_qfim,
)
from qconstel.linalg import haar_unitary, hermiticity_defect, unitarity_defect
from qconstel.states import source_state
from qconstel.symmetry import qft_matrix


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
    with pytest.raises(ValueError, match="not Hermitian: .* = nan"):
        sld(rho, np.array([[np.nan, 0.0], [0.0, 0.0]]))


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
    with pytest.raises(ValueError, match="not orthonormal: .* = nan"):
        check_basis(np.array([[1.0, 0.0], [0.0, np.nan]]))


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


def test_ring_helpers_reject_bad_input():
    # unchecked, nan p, r or orientation give a QFI of 0.0, inf gives numpy
    # warnings and n = 4.5 gives five eigenvalues
    bad = [
        ((4, np.nan, 0.3), "p"), ((4, np.inf, 0.3), "p"), ((4, 0.0, 0.3), "p"),
        ((4, 1.0, np.nan), "r"), ((4, 1.0, np.inf), "r"), ((4, 1.0, -0.1), "r"),
        ((4.5, 1.0, 0.3), "n"), ((1, 1.0, 0.3), "n"),
        ((4, 1.0, 0.3, np.inf), "orientation"), ((5, 1.0, 0.3, -np.inf), "orientation"),
        ((4, 1.0, 0.3, np.nan), "orientation"),
    ]
    for helper in (ring_amplitudes, ring_eigenvalues, ring_qfi_spectral, ring_qfi_parseval):
        for args, name in bad:
            with pytest.raises(ValueError, match=rf"\b{name} (must|>=)"):
                helper(*args)


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


def test_character_basis_keeps_tiny_weights_and_a_unitary_basis():
    # ring16 with the psf aligned: the smallest eigenvalues, 5.6e-19 and
    # 1.4e-16, are reported as they are, not floored to 0 with a zero column
    cb = character_basis(ring_model(16, 1.0, 0.0, 0.0), [0.5])
    lam = ring_eigenvalues(16, 1.0, 0.5, orientation=0.0)
    pos = lam > 0.0
    assert np.min(cb.weights) > 0.0
    assert np.max(np.abs(cb.weights[pos] - lam[pos]) / lam[pos]) <= 1e-6
    assert unitarity_defect(cb.vectors) <= 1e-12


def test_orbit_states_match_model_density():
    for model, point in [
        (pair_model(1.0, 0.2, 0.1), [0.5]),
        (rectangle_model(1.0, 0.7), [0.4, 0.6]),
        (ring_model(6, 1.0, 0.3, 0.2), [0.8]),
        (ring_model(5, 1.3, -2.1), [0.45]),
    ]:
        states = orbit_states(model, point)
        rho = states.T @ states.conj() / states.shape[0]
        assert np.max(np.abs(rho - model.rho(point))) <= 1e-12


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
        ModelFamily(("r",), model.template, model.psf, model.make, qft_basis=np.eye(2))
    for m in (model, rectangle_model(1.0, 0.5), ring_model(5, 1.0)):
        assert np.array_equal(m.qft_basis, qft_matrix(m.group).conj().T)


def test_pair_model_is_the_two_source_ring():
    rng = np.random.default_rng(21)
    for _ in range(6):
        p, theta, r = rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi), rng.uniform(0.1, 1.2)
        for psi in (theta, rng.uniform(-np.pi, np.pi)):  # aligned and off-axis psf
            pair, ring = pair_model(p, theta, psi), ring_model(2, p, theta, psi)
            assert np.array_equal(pair.phases, ring.phases)
            assert np.array_equal(pair.rho([r]), ring.rho([r]))
            for basis in (pair.qft_basis, np.eye(2), haar_unitary(2, rng)):
                assert np.array_equal(outcome_probabilities(pair, [r], basis),
                                      outcome_probabilities(ring, [r], basis))
            assert np.array_equal(spectral_qfim(pair, [r]), spectral_qfim(ring, [r]))
            assert np.array_equal(qfim(pair, [r]), qfim(ring, [r]))


# ---------------------------------------------------------------- orbit-phase route vs rho route


def two_route_models():
    """(model, point, make) for every family: off-axis pair, rectangle, rings n = 2..16
    at the default and at the aligned psf orientation."""
    cases = [
        (pair_model(1.3, 0.4, 0.25), [0.37], lambda v: make_pair(v[0], 0.4)),
        (rectangle_model(1.1, 0.6), [0.45, 0.7], lambda v: make_rectangle(v[0], v[1])),
    ]
    for n in range(2, 17):
        for psf_phase in (None, 0.0):
            cases.append((ring_model(n, 1.2, 0.0, psf_phase), [0.3 + 0.05 * n],
                          lambda v, n=n: make_ring(n, v[0], 0.0)))
    return cases


def rho_route_probabilities(model, point, basis):
    return np.real(np.einsum("nk,nm,mk->k", basis.conj(), model.rho(point), basis))


def test_outcome_probabilities_match_rho_route():
    rng = np.random.default_rng(11)
    for model, point, _ in two_route_models():
        for basis in (model.qft_basis, np.eye(model.dim), haar_unitary(model.dim, rng)):
            q = outcome_probabilities(model, point, basis)
            assert q.shape == (model.dim,)
            assert np.max(np.abs(q - rho_route_probabilities(model, point, basis))) <= 1e-14


def test_spectral_qfim_matches_numeric_pipeline():
    for model, point, _ in two_route_models():
        f = spectral_qfim(model, point)
        assert f.shape == (model.n_params, model.n_params)
        assert np.array_equal(f, f.T)
        # the rectangle's full 2x2, off-diagonal entries included
        assert np.max(np.abs(f - qfim(model, point))) <= 1e-6


def test_phase_tensor_matches_constellation_points():
    for model, point, make in two_route_models():
        v = np.array(point)
        expected = make(v).points @ model.psf.momenta.T
        assert model.phases.shape == (len(make(v)), model.dim, model.n_params)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(model.phases @ v - expected)) <= 1e-14 * scale


def test_block_evaluation_repeats_row_bits():
    rng = np.random.default_rng(12)
    for model, point, _ in two_route_models()[:4] + two_route_models()[-2:]:
        basis = haar_unitary(model.dim, rng)
        for k in (1, 5, 16, 17, 40):
            block = np.array(point) * rng.uniform(0.2, 3.0, size=(k, model.n_params))
            q = outcome_probabilities(model, block, basis)
            assert q.shape == (k, model.dim)
            one_by_one = np.stack([outcome_probabilities(model, x, basis) for x in block])
            assert np.array_equal(q, one_by_one)


def test_block_rows_are_domain_checked():
    model, basis = ring_model(5, 1.0), np.eye(5)
    grid = np.linspace(0.1, 0.5, 20)[:, None]
    for bad, match in ((0.0, "r=0.0 outside open interval"), (-0.2, "outside open interval"),
                       (np.inf, "finite"), (np.nan, "finite")):
        block = grid.copy()
        block[13, 0] = bad
        with pytest.raises(ValueError, match=match):
            outcome_probabilities(model, block, basis)
    with pytest.raises(ValueError, match="parameter block"):
        outcome_probabilities(model, np.ones((3, 2)), basis)
    for shape in ((2, 3, 1), (0, 1)):
        with pytest.raises(ValueError, match="parameter block"):
            outcome_probabilities(model, np.ones(shape), basis)


def test_spectral_qfim_holds_at_a_rank_change():
    # at p r -> pi/2 one pair eigenvalue vanishes; the exact derivative keeps
    # sum (d lambda)^2 / lambda at its continuous limit 4 p^2
    for delta in (1e-3, 1e-5, 1e-7, 1e-10):
        assert abs(spectral_qfim(pair_model(1.0), [np.pi / 2 - delta])[0, 0] - 4.0) <= 1e-9


def closed_domain_points(point):
    """The interior point and the boundary points r = 0, or x0 = 0 and/or y0 = 0."""
    v = np.array(point, dtype=float)
    corners = [v * mask for mask in np.ndindex(*(2,) * len(v))]  # masks of 0s and 1s
    return [v] + [c for c in corners if not np.all(c)]


def test_orbit_states_match_group_action_oracle():
    # oracle: one source_state per source, at the group action of g and then
    # base_element on the base point v t_0, with no phase tensor involved
    for model, point, make in two_route_models():
        spec = model.symmetry
        t0 = make(np.ones(model.n_params)).points[0]
        for v in closed_domain_points(point):
            for b in range(spec.order):
                base = apply_group_element(spec, b, v * t0)
                oracle = np.stack([source_state(model.psf, apply_group_element(spec, g, base)[0])
                                   for g in range(spec.order)])
                states = orbit_states(model, v, base_element=b)
                assert states.shape == oracle.shape
                assert np.max(np.abs(states - oracle)) <= 1e-14


def test_orbit_states_guards():
    for bad in ([-0.1], [np.inf], [0.1, 0.2]):
        with pytest.raises(ValueError):
            orbit_states(ring_model(4, 1.0), bad)
    for base in (-1, 4, 2.5):
        with pytest.raises(ValueError, match="element index"):
            orbit_states(ring_model(4, 1.0), [0.3], base_element=base)


def test_character_basis_builds_no_constellation_or_source_state(monkeypatch):
    model = ring_model(8, 1.0)
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("qconstel")]:
        for fname in ("source_state", "make_pair", "make_rectangle", "make_ring"):
            if hasattr(mod, fname):
                orig = getattr(mod, fname)
                monkeypatch.setattr(mod, fname,
                                    lambda *a, _f=orig, _n=fname, **k: calls.append(_n) or _f(*a, **k))
    basis = character_basis(model, [0.3])
    assert calls == []
    assert np.max(np.abs(np.sort(basis.weights) - np.sort(ring_eigenvalues(8, 1.0, 0.3)))) <= 1e-12


def test_character_basis_does_not_recheck_symmetry(monkeypatch):
    # the symmetry condition is checked when the family is built, so a call
    # re-runs no point-permutation check
    models = [pair_model(1.0), rectangle_model(1.0, 0.7), ring_model(16, 1.0)]
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("qconstel")]:
        if hasattr(mod, "validate_symmetry"):
            orig = mod.validate_symmetry
            monkeypatch.setattr(mod, "validate_symmetry",
                                lambda *a, _f=orig, **k: calls.append(1) or _f(*a, **k))
    for model in models:
        character_basis(model, [0.4] * model.n_params)
    assert calls == []


def finite_difference_fi(model, point, basis):
    """Central difference of outcome_probabilities, summed over outcomes with q > 0."""
    v = np.array(point, dtype=float)
    q = outcome_probabilities(model, v, basis)
    dq = np.empty((model.n_params, model.dim))
    for mu in range(model.n_params):
        shift = np.zeros_like(v)
        shift[mu] = 1e-6 * max(1.0, abs(v[mu]))
        dq[mu] = (outcome_probabilities(model, v + shift, basis)
                  - outcome_probabilities(model, v - shift, basis)) / (2.0 * shift[mu])
    keep = q > 0.0
    return (dq[:, keep] / q[keep]) @ dq[:, keep].T


def test_classical_fi_matches_finite_difference():
    rng = np.random.default_rng(13)
    for model, point, _ in two_route_models():
        bases = (model.qft_basis, np.eye(model.dim),
                 haar_unitary(model.dim, rng), haar_unitary(model.dim, rng))
        for basis in bases:
            f = classical_fi(model, point, basis)
            assert f.shape == (model.n_params, model.n_params)
            assert np.array_equal(f, f.T)
            assert np.max(np.abs(f - finite_difference_fi(model, point, basis))) <= 1e-7


def test_spectral_qfim_is_classical_fi_in_the_symmetry_basis():
    for model, point, _ in two_route_models():
        assert np.array_equal(spectral_qfim(model, point),
                              classical_fi(model, point, model.qft_basis))


def test_classical_fi_keeps_tiny_outcomes():
    # ring16 at p r = 0.1 in the eigenbasis: two outcomes with q ~ 7e-14 carry
    # 4.3e-10 each, which a probability floor at 1e-12 would drop
    n, p, r = 16, 1.0, 0.1
    model = ring_model(n, p)
    q = outcome_probabilities(model, [r], model.qft_basis)
    assert np.any((q > 0.0) & (q < 1e-12))
    a, da = ring_amplitudes(n, p, r)
    lam, dlam = np.abs(a) ** 2, 2.0 * np.real(a.conj() * da)
    tiny = (lam > 0.0) & (lam < 1e-12)
    terms = dlam[tiny] ** 2 / lam[tiny]
    assert terms.max() >= 1e-10
    # each term stays within 4 mean_g |<b_k|d psi_g>|^2 = 4 |a_k'|^2, which it
    # attains at this orientation, up to rounding
    assert np.all(terms <= 4.0 * np.abs(da[tiny]) ** 2 * (1.0 + 1e-9))
    f = classical_fi(model, [r], model.qft_basis)[0, 0]
    assert abs(f - ring_qfi_spectral(n, p, r)) <= 1e-3 * terms.sum()


two_route_cases = st.tuples(
    st.integers(2, 16),
    st.floats(0.3, 3.0),
    st.floats(0.02, 1.5),
    st.floats(-np.pi, np.pi),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60)
@given(two_route_cases)
def test_two_routes_agree_sweep(case):
    n, p, r, orientation, seed = case
    ring = ring_model(n, p, 0.0, orientation)
    pair = pair_model(p, 0.0, orientation)
    basis = haar_unitary(n, np.random.default_rng(seed))
    for model, b in ((ring, ring.qft_basis), (ring, basis), (pair, np.eye(2))):
        q = outcome_probabilities(model, [r], b)
        assert np.max(np.abs(q - rho_route_probabilities(model, [r], b))) <= 1e-14
    # closed forms hold everywhere, rank changes included
    f = spectral_qfim(ring, [r])[0, 0]
    assert abs(f - ring_qfi_spectral(n, p, r, orientation)) <= 1e-9 * p * p
    expected = analytic_qfi("pair_off_axis", p=p, theta=0.0, theta0=orientation)
    assert abs(spectral_qfim(pair, [r])[0, 0] - expected) <= 1e-9 * p * p
    # the finite-difference oracle drops eigenvalues below SUPPORT_TOL and loses
    # about 1e-10 / sqrt(lambda) on small ones, a known limit of that route, so it
    # is compared only where eigenvalues below 1e-6 carry under 1e-7 of the QFI
    a, da = ring_amplitudes(n, p, r, orientation)
    lam, dlam = np.abs(a) ** 2, 2.0 * np.real(a.conj() * da)
    small = (lam > 0.0) & (lam <= 1e-6)
    assume(np.sum(dlam[small] ** 2 / lam[small]) <= 1e-7)
    assert abs(f - qfim(ring, [r])[0, 0]) <= 1e-6


character_basis_cases = st.tuples(
    st.integers(0, 16),  # 0: rectangle, 1: off-axis pair, n >= 2: ring n
    st.floats(0.3, 3.0),
    st.floats(0.3, 3.0),
    st.floats(0.02, 1.5),
    st.floats(0.02, 1.5),
    st.floats(-np.pi, np.pi),
    st.floats(-np.pi, np.pi),
)


@settings(max_examples=40)
@given(character_basis_cases)
def test_character_basis_reads_qft_basis_sweep(case):
    kind, p1, p2, v1, v2, a1, a2 = case
    if kind == 0:
        model, point = rectangle_model(p1, p2), [v1, v2]
    elif kind == 1:
        model, point = pair_model(p1, a1, a2), [v1]
    else:
        model, point = ring_model(kind, p1, a1, a2), [v1]
    q = outcome_probabilities(model, point, model.qft_basis)
    for i, v in enumerate(closed_domain_points(point)):  # the interior point first
        if i == 0:
            rho = model.rho(v)
        else:  # boundary: the source-state mixture, with no phase tensor involved
            states = np.stack([source_state(model.psf, v * t) for t in model.template.points])
            rho = states.T @ states.conj() / len(states)
        lam = np.linalg.eigvalsh(rho)
        for base in range(model.group.order):
            cb = character_basis(model, v, base_element=base)
            assert cb.vectors is model.qft_basis
            assert np.array_equal(cb.support, cb.weights > 0)
            assert np.max(np.abs(np.sort(cb.weights) - lam)) <= 1e-12
            if base == 0 and i == 0:
                assert np.array_equal(cb.weights, q)
