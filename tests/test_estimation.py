import dataclasses
import functools
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qconstel.constellation import make_rectangle, make_ring
from qconstel.estimation import (
    ModelFamily,
    _amplitudes,
    _phase,
    check_basis,
    classical_fi,
    drho,
    orbit_states,
    outcome_probabilities,
    qfim,
    rectangle_model,
    ring_model,
    sld,
    spectral_qfim,
)
from qconstel.linalg import hermiticity_defect, unitarity_defect
from qconstel.states import density_matrix
from qconstel.symmetry import AbelianGroup, qft_matrix

from oracles import (
    DomainCheck,
    apply_group_element,
    exact_drho,
    haar_unitary,
    psf_comb,
    ring_amplitudes,
    ring_eigenvalues,
    ring_qfi_parseval,
    ring_qfi_spectral,
    source_state,
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
        model = ring_model(2, p, theta, 0.0)
        num = drho(model, [r], 0)
        assert np.max(np.abs(num - pair_drho_oracle(p, theta, r))) <= 1e-6
        assert hermiticity_defect(num) <= 1e-9
        assert abs(np.trace(num)) <= 1e-8
        exact = exact_drho(make_ring(2, r, theta), make_ring(2, 1.0, theta),
                           psf_comb(AbelianGroup((2,)), p))
        assert np.max(np.abs(exact - pair_drho_oracle(p, theta, r))) <= 1e-14


@pytest.mark.parametrize("family", [*range(2, 17), "rectangle"])
def test_drho_meets_the_exact_derivative(family):
    # the central difference of rho against d rho from the points' own
    # derivatives and a psf comb written out apart from the library, relative
    # to the derivative's size where it exceeds 1
    rng = np.random.default_rng(1 if family == "rectangle" else family)
    for _ in range(4):
        p, p_y = rng.uniform(0.3, 3.0, 2)
        x0, y0 = rng.uniform(0.05, 1.5, 2)
        if family == "rectangle":
            model, v = rectangle_model(p, p_y), [x0, y0]
            points, momenta = make_rectangle(x0, y0), psf_comb(AbelianGroup((2, 2)), p, p_y=p_y)
            tangents = [make_rectangle(1.0, 1.0) * axis for axis in np.eye(2)]
        else:
            phase, psf_phase = rng.uniform(0.0, 2.0 * np.pi, 2)
            model, v = ring_model(family, p, phase, psf_phase), [x0]
            points = make_ring(family, x0, phase)
            momenta = psf_comb(AbelianGroup((family,)), p, psf_phase)
            tangents = [make_ring(family, 1.0, phase)]
        for mu, tangent in enumerate(tangents):
            exact = exact_drho(points, tangent, momenta)
            err = np.max(np.abs(drho(model, v, mu) - exact))
            assert err <= 1e-8 * max(1.0, np.max(np.abs(exact)))


def test_drho_eigenvalue_derivative_on_diagonal():
    p, r = 1.0, 0.4
    model = ring_model(2, p)
    d = drho(model, [r], 0)
    plus = np.ones(2) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    dplus = np.real(plus.conj() @ d @ plus)
    dminus = np.real(minus.conj() @ d @ minus)
    assert abs(dplus - (-2 * p * np.cos(p * r) * np.sin(p * r))) <= 1e-6
    assert abs(dminus - (2 * p * np.cos(p * r) * np.sin(p * r))) <= 1e-6


def test_drho_domain_guard():
    model = ring_model(2, 1.0)
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


def test_qfim_on_axis_pair():
    for p in (0.5, 1.0, 2.0):
        model = ring_model(2, p)
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


def test_classical_fi_eigenbasis_attains_qfim():
    rng = np.random.default_rng(2)
    models = [ring_model(2, 1.0), ring_model(2, 1.0, 0.4, 0.1), ring_model(4, 1.0), ring_model(5, 1.0)]
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
        (ring_model(2, 1.0), [0.4]),
        (ring_model(2, 1.0, 0.3, 0.2), [0.4]),
        (rectangle_model(1.0, 0.5), [0.5, 0.7]),
        (ring_model(5, 1.0), [0.6]),
    ]:
        f = classical_fi(model, point, np.eye(model.dim))
        assert np.max(np.abs(f)) <= 1e-8


def test_random_basis_dominated_by_qfim():
    rng = np.random.default_rng(3)
    for model, point in [(ring_model(2, 1.0), [0.4]), (ring_model(4, 1.0), [0.8])]:
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
    model = ring_model(2, 1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        classical_fi(model, [0.3], np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not orthonormal: .* = nan"):
        check_basis(np.array([[1.0, 0.0], [0.0, np.nan]]), 2)


def test_basis_of_the_wrong_size_names_both_sizes():
    # both entry points used to fail inside numpy's matmul with a core-dimension mismatch
    model = ring_model(4, 1.0)
    for call in (outcome_probabilities, classical_fi):
        for basis in (np.eye(3), np.eye(5), np.ones((4, 3)), np.ones(4)):
            message = f"must be a square 4x4 matrix for the model's 4 modes, got shape {basis.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(model, [0.3], basis)
    assert np.array_equal(check_basis(np.eye(4), 4), np.eye(4))


def test_constructors_attach_closed_form_and_box():
    pair, ring7, rect = ring_model(2, 2.0), ring_model(7, 1.0), rectangle_model(1.0, 0.5)
    assert np.array_equal(pair.closed_form, [[16.0]])
    assert np.array_equal(ring_model(2, 1.0).closed_form, [[4.0]])
    # the pair's 4p^2 cos^2(phase - psf_phase) vanishes as the psf turns to
    # perpendicular, and the pair builds there too: its phase tensor is rounding
    # noise of ~1e-16, which the symmetry check measures against |point| |momentum|
    assert ring_model(2, 1.0, np.pi / 2 - 1e-5, 0.0).closed_form[0, 0] <= 4.0000001e-10
    for phase in (np.pi / 2 - 1e-7, np.pi / 2, np.pi / 2 + 1e-7):
        perpendicular = ring_model(2, 1.0, phase, 0.0)
        assert perpendicular.closed_form[0, 0] <= 4.0000001e-14
        assert abs(spectral_qfim(perpendicular, [0.3])[0, 0]
                   - perpendicular.closed_form[0, 0]) <= 1e-20
    assert np.array_equal(ring7.closed_form, [[2.0]])
    assert np.array_equal(rect.closed_form, np.diag([4.0, 1.0]))
    for model in (pair, ring7, rect):
        assert model.closed_form.shape == (model.n_params, model.n_params)
        with pytest.raises(ValueError, match="read-only"):
            model.closed_form[0, 0] = 1.0
    assert pair.box == ((1e-3, np.pi / 4.0 - 1e-3),)
    assert ring7.box == ((1e-3, np.pi - 1e-3),)
    assert rect.box == ((1e-3, np.pi / 2.0 - 1e-3), (1e-3, np.pi - 1e-3))
    hand = ModelFamily(("r",), AbelianGroup((2,)), make_ring(2, 1.0), make_ring(2, 1.0))
    assert hand.closed_form is None and hand.box is None


def test_off_axis_qfim_formula():
    for theta, theta0 in [(0.3, 0.0), (0.7, 0.25), (1.2, 0.9)]:
        model = ring_model(2, 1.0, theta, theta0)
        f = qfim(model, [0.5])[0, 0]
        expected = model.closed_form[0, 0]
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
        m0 = ring_model(n, p, phase).momenta[0]
        assert abs(np.arctan2(m0[1], m0[0]) - (phase + offset)) <= 1e-12
        expected = 4.0 * p * p if n == 2 else 2.0 * p * p
        for r in (0.25, 0.6, 1.25):
            assert abs(ring_qfi_spectral(n, p, r) - expected) <= 1e-9


def character_weights(states, basis):
    """mean_g |<b_k|psi_g>|^2 over the rows of ``states``, with no kernel involved."""
    return np.mean(np.abs(states @ basis.conj()) ** 2, axis=0)


def test_character_basis_weights_and_base_independence():
    # in the character basis qft_basis the outcome probabilities are the
    # eigenvalues, and relabelling the orbit from another base point b
    # (row g -> row g * b) leaves them unchanged
    model = ring_model(5, 1.0)
    q = outcome_probabilities(model, [0.7], model.qft_basis)
    assert np.max(np.abs(np.sort(q) - np.sort(ring_eigenvalues(5, 1.0, 0.7)))) <= 1e-10
    states = orbit_states(model, [0.7])
    for base in range(1, 5):
        other = character_weights(states[model.group.table[:, base]], model.qft_basis)
        assert np.max(np.abs(np.sort(q) - np.sort(other))) <= 1e-10


def test_character_basis_keeps_tiny_weights_and_a_unitary_basis():
    # ring16 with the psf aligned: the smallest eigenvalues, 5.6e-19 and
    # 1.4e-16, are reported as they are, not floored to 0 with a zero column
    model = ring_model(16, 1.0, 0.0, 0.0)
    q = outcome_probabilities(model, [0.5], model.qft_basis)
    lam = ring_eigenvalues(16, 1.0, 0.5, orientation=0.0)
    pos = lam > 0.0
    assert np.min(q) > 0.0
    assert np.max(np.abs(q[pos] - lam[pos]) / lam[pos]) <= 1e-6
    assert unitarity_defect(model.qft_basis) <= 1e-12


def test_orbit_states_match_model_density():
    for model, point in [
        (ring_model(2, 1.0, 0.2, 0.1), [0.5]),
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
    model = ring_model(2, 1.0)
    with pytest.raises(ValueError):
        model.rho([0.3, 0.4])
    with pytest.raises(ValueError):
        model.rho([np.inf])
    with pytest.raises(ValueError):
        model.rho([0.0])
    with pytest.raises(ValueError):
        ring_model(2, -1.0)
    # a non-integral n used to reach the family check as "(3, 3) sources x psf
    # momenta, but |G| = 2"
    for bad in (2.5, 4.0):
        with pytest.raises(ValueError, match=f"ring needs an integer n >= 2, got {bad}"):
            ring_model(bad, 1.0)
    # qft_basis derives from the symmetry; it is not a constructor field
    with pytest.raises(TypeError):
        ModelFamily(("r",), model.group, model.points, model.momenta, qft_basis=np.eye(2))
    for m in (model, rectangle_model(1.0, 0.5), ring_model(5, 1.0)):
        assert np.array_equal(m.qft_basis, qft_matrix(m.group).conj().T)


SHIPPED_FAMILIES = {"pair": lambda: ring_model(2, 1.0),
                    **{f"ring{n}": functools.partial(ring_model, n, 1.0) for n in range(3, 9)},
                    "rect": lambda: rectangle_model(1.0, 0.5)}


@pytest.mark.parametrize("family", sorted(SHIPPED_FAMILIES))
def test_amplitude_constants_are_derived_once_and_read_only(family):
    model = SHIPPED_FAMILIES[family]()
    qt, sqrt_dim = model._qft_transpose, model._sqrt_dim
    assert qt.tobytes() == model.qft_basis.conj().tobytes()  # bit for bit, signed zeros too
    assert type(sqrt_dim) is np.float64 and sqrt_dim.tobytes() == np.sqrt(model.dim).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        qt[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model._sqrt_dim = 1.0  # a scalar is immutable, and the frozen model keeps it bound
    assert model._qft_transpose is qt and model._sqrt_dim is sqrt_dim
    # the amplitudes and orbit states repeat the bits of the per-call constants
    block = np.full((3, model.n_params), 0.4) * [[1.0], [0.5], [1e-9]]
    e = np.expm1(-1j * (model.phases[0] * block[:, None, :]).sum(axis=-1)) / np.sqrt(model.dim)
    fresh = model.qft_basis.conj()
    a = e[:, None, :] @ fresh
    a[:, 0, 0] += 1.0
    da = (-1j * model.phases[0].T * (e + 1.0 / np.sqrt(model.dim))[:, None, :]) @ fresh
    got = _amplitudes(model, _phase(model, block), derivatives=True)
    assert got[0].tobytes() == a.tobytes() and got[1].tobytes() == da.tobytes()
    assert orbit_states(model, block[0]).tobytes() == (
        np.exp(-1j * (model.phases * block[0]).sum(axis=-1)) / np.sqrt(model.dim)).tobytes()


# ---------------------------------------------------------------- orbit-phase route vs rho route


def two_route_models():
    """(model, point, make) for every family: off-axis pair, rectangle, rings n = 2..16
    at the default and at the aligned psf orientation."""
    cases = [
        (ring_model(2, 1.3, 0.4, 0.25), [0.37], lambda v: make_ring(2, v[0], 0.4)),
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


rho_cases = st.tuples(
    st.integers(1, 32),  # 1: rectangle, n >= 2: ring n
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(-np.pi, np.pi),
    st.one_of(st.none(), st.floats(-np.pi, np.pi)),
)


@settings(max_examples=120)
@given(rho_cases)
def test_rho_scales_the_template_bit_for_bit(case):
    # rho(v) mixes the states of points * v; it is the density matrix of the
    # point set the builders make at v, under a psf comb written out apart
    # from the library, to the last bit
    kind, p1, p2, v1, v2, phase, psf_phase = case
    if kind == 1:
        model, v = rectangle_model(p1, p2), [v1, v2]
        points, momenta = make_rectangle(v1, v2), psf_comb(AbelianGroup((2, 2)), p1, p_y=p2)
    else:
        model, v = ring_model(kind, p1, phase, psf_phase), [v1]
        if psf_phase is None:
            psf_phase = phase + (0.0 if kind % 2 == 0 else np.pi / (2 * kind))
        points, momenta = make_ring(kind, v1, phase), psf_comb(AbelianGroup((kind,)), p1, psf_phase)
    assert np.array_equal(model.points * v, points)
    assert np.array_equal(model.rho(v), density_matrix(points, momenta))


def test_phase_tensor_matches_constellation_points():
    for model, point, make in two_route_models():
        v = np.array(point)
        expected = make(v) @ model.momenta.T
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
    # the closed domain: probabilities are well defined at r = 0
    block = grid.copy()
    block[13, 0] = 0.0
    q = outcome_probabilities(model, block, basis)
    assert np.array_equal(q[13], outcome_probabilities(model, [0.0], basis))
    for bad, match in ((-0.2, "r=-0.2 outside interval"), (-np.inf, "finite"),
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


def former_domain_check(oracle, values, closed):
    """What the domain checks before ``check_block(values, closed)`` did with ``values``.

    Closed: their ``check_block``.  Open: ``check_values`` of one point, or
    of each row of a block in order, after the block's shape test.
    """
    vals = np.asarray(values, dtype=float)
    if closed:
        return oracle.check_block(vals)
    if vals.ndim < 2:
        return oracle.check_values(vals)[None, :]
    oracle.check_block(np.ones(vals.shape))  # the block shape message
    for row in vals:
        oracle.check_values(row)
    return vals


def _outcome(check, values, closed):
    try:
        return check(values, closed)
    except ValueError as exc:
        return str(exc)


EDGE_VALUES = (0.0, -0.0, 5e-324, 0.3, 2.0, 1e308, -1e-300, -0.5, np.inf, -np.inf, np.nan)
SHAPES = ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 1), (3, 1), (1, 2), (4, 2), (2, 3),
          (2, 2, 1), (1, 1, 1))


@settings(max_examples=400)
@given(data=st.data(), two=st.booleans(), closed=st.booleans(), as_list=st.booleans())
def test_check_block_matches_the_former_checks(data, two, closed, as_list):
    # one point or a block, with 0, -0, negatives, +-inf, NaN and wrong
    # shapes: accepted or refused as before, with the same message
    model = rectangle_model(1.0, 0.5) if two else ring_model(4, 1.0)
    n = model.n_params
    shape = data.draw(st.sampled_from(((n,), (1, n), (3, n))) | st.sampled_from(SHAPES))
    values = data.draw(arrays(float, shape, elements=st.sampled_from(EDGE_VALUES)
                              | st.floats(min_value=0.0, exclude_min=True) | st.floats()))
    oracle = DomainCheck(model.names)
    arg = values.tolist() if as_list else values
    got = _outcome(model.check_block, arg, closed)
    want = _outcome(functools.partial(former_domain_check, oracle), arg, closed)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == float and got.ndim == 2
        assert got.shape == want.shape and np.array_equal(got, want)


def test_point_functions_refuse_a_block_of_points():
    # a single-row block is its point; more rows do not unpack to one point
    model = ring_model(4, 1.0)
    assert np.array_equal(qfim(model, [[0.3]]), qfim(model, [0.3]))
    basis = model.qft_basis
    for call in (model.rho, lambda v: drho(model, v, 0), lambda v: qfim(model, v),
                 lambda v: classical_fi(model, v, basis), lambda v: orbit_states(model, v)):
        with pytest.raises(ValueError, match="too many values to unpack"):
            call([[0.3], [0.4]])


def test_spectral_qfim_holds_at_a_rank_change():
    # at p r -> pi/2 one pair eigenvalue vanishes; the exact derivative keeps
    # sum (d lambda)^2 / lambda at its continuous limit 4 p^2
    for delta in (1e-3, 1e-5, 1e-7, 1e-10):
        assert abs(spectral_qfim(ring_model(2, 1.0), [np.pi / 2 - delta])[0, 0] - 4.0) <= 1e-9


closed_form_cases = st.tuples(
    st.integers(1, 64),  # 1: rectangle, n >= 2: ring n
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(-300.0, 0.0),  # log10 of p r, or of p_x x0
    st.floats(-150.0, 0.0),  # log10 of p_y y0
    st.floats(-np.pi, np.pi),
)


@settings(max_examples=200)
@given(closed_form_cases)
@example((64, 1.0, 1.0, -300.0, 0.0, 0.0))
@example((1, 0.1, 10.0, -150.0, -1e-9, 0.0))
@example((2, 1.0, 1.0, -200.0, 0.0, 0.0))
@example((4, 1.0, 1.0, -200.0, 0.0, 0.0))
@example((5, 1.0, 1.0, -200.0, 0.0, 0.0))
def test_spectral_qfim_meets_the_closed_form_at_every_separation(case):
    # the constant part of the source state goes to e_0 exactly, so no rounding
    # floor sits under the small eigenvalues that carry the information here;
    # below p r ~ 1e-154 the eigenvalues |a|^2 underflow, and the information
    # comes from 2 Re(conj(a) d a) / |a| without them
    kind, p1, p2, e1, e2, phase = case
    if kind == 1:
        model, point = rectangle_model(p1, p2), [10.0**e1 / p1, 10.0**e2 / p2]
    else:
        model, point = ring_model(kind, p1, phase), [10.0**e1 / p1]
    f, ana = spectral_qfim(model, point), model.closed_form
    assert np.max(np.abs(f - ana)) <= 1e-14 * np.max(ana)


def test_zero_separation_weights_are_exact():
    # every source state is the uniform one, which the transform sends to e_0 exactly
    models = [rectangle_model(1.0, 0.6)] + [ring_model(n, 1.3) for n in range(2, 65)]
    for model in models:
        zero = np.zeros(model.n_params)
        e0 = np.eye(model.dim)[0]
        assert np.array_equal(outcome_probabilities(model, zero, model.qft_basis), e0)
        assert np.array_equal(outcome_probabilities(model, [zero] * 3, model.qft_basis),
                              np.tile(e0, (3, 1)))


def test_a_copy_of_the_symmetry_basis_reads_the_eigenvalues():
    # a basis equal to qft_basis (StudyConfig keeps such a copy) takes no transfer
    # matrix: its rounding, 4e-33 off the diagonal for the pair, would add about
    # 4e-33 to sin^2(p r), which is 1e-24 at p r = 1e-12
    model = ring_model(2, 1.0)
    copy = np.array(model.qft_basis)
    assert copy is not model.qft_basis
    for pr in (1e-6, 1e-12, 1e-100):
        q = outcome_probabilities(model, [pr], copy)
        assert np.array_equal(q, outcome_probabilities(model, [pr], model.qft_basis))
        assert abs(q[1] - np.sin(pr) ** 2) <= 1e-15 * np.sin(pr) ** 2
        assert np.array_equal(classical_fi(model, [pr], copy), spectral_qfim(model, [pr]))


def closed_domain_points(point):
    """The interior point and the boundary points r = 0, or x0 = 0 and/or y0 = 0."""
    v = np.array(point, dtype=float)
    corners = [v * mask for mask in np.ndindex(*(2,) * len(v))]  # masks of 0s and 1s
    return [v] + [c for c in corners if not np.all(c)]


def test_orbit_states_match_group_action_oracle():
    # oracle: one source_state per source, at the group action of g and then
    # b on the base point v t_0, with no phase tensor involved; the orbit from
    # base point b is row g * b of orbit_states
    for model, point, make in two_route_models():
        group = model.group
        t0 = make(np.ones(model.n_params))[0]
        for v in closed_domain_points(point):
            for b in range(group.order):
                base = apply_group_element(group, b, v * t0)
                moved = [apply_group_element(group, g, base)[0] for g in range(group.order)]
                oracle = np.stack([source_state(model.momenta, x) for x in moved])
                states = orbit_states(model, v)[model.group.table[:, b]]
                assert states.shape == oracle.shape
                assert np.max(np.abs(states - oracle)) <= 1e-14


def test_orbit_states_guards():
    for bad in ([-0.1], [np.inf], [0.1, 0.2]):
        with pytest.raises(ValueError):
            orbit_states(ring_model(4, 1.0), bad)


def test_outcome_probabilities_build_no_constellation_or_density_matrix(monkeypatch):
    model = ring_model(8, 1.0)
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("qconstel")]:
        for fname in ("density_matrix", "make_rectangle", "make_ring"):
            if hasattr(mod, fname):
                orig = getattr(mod, fname)
                monkeypatch.setattr(mod, fname,
                                    lambda *a, _f=orig, _n=fname, **k: calls.append(_n) or _f(*a, **k))
    q = outcome_probabilities(model, [0.3], model.qft_basis)
    assert calls == []
    assert np.max(np.abs(np.sort(q) - np.sort(ring_eigenvalues(8, 1.0, 0.3)))) <= 1e-12


def test_outcome_probabilities_do_not_recheck_symmetry(monkeypatch):
    # the symmetry condition is checked when the family is built, in
    # ModelFamily.__post_init__, so a call re-runs no symmetry check
    models = [ring_model(2, 1.0), rectangle_model(1.0, 0.7), ring_model(16, 1.0)]
    calls = []
    orig = ModelFamily.__post_init__
    monkeypatch.setattr(ModelFamily, "__post_init__", lambda self: calls.append(1) or orig(self))
    for model in models:
        outcome_probabilities(model, [0.4] * model.n_params, model.qft_basis)
    assert calls == []
    ring_model(4, 1.0)  # the counter sees the check where it runs
    assert calls == [1]


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
    pair = ring_model(2, p, 0.0, orientation)
    basis = haar_unitary(n, np.random.default_rng(seed))
    for model, b in ((ring, ring.qft_basis), (ring, basis), (pair, np.eye(2))):
        q = outcome_probabilities(model, [r], b)
        assert np.max(np.abs(q - rho_route_probabilities(model, [r], b))) <= 1e-14
    # closed forms hold everywhere, rank changes included
    f = spectral_qfim(ring, [r])[0, 0]
    assert abs(f - ring_qfi_spectral(n, p, r, orientation)) <= 1e-9 * p * p
    expected = pair.closed_form[0, 0]
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
        model, point = ring_model(2, p1, a1, a2), [v1]
    else:
        model, point = ring_model(kind, p1, a1, a2), [v1]
    for i, v in enumerate(closed_domain_points(point)):  # the interior point first
        if i == 0:
            rho = model.rho(v)
        else:  # boundary: the source-state mixture, with no phase tensor involved
            states = np.stack([source_state(model.momenta, v * t) for t in model.points])
            rho = states.T @ states.conj() / len(states)
        lam = np.linalg.eigvalsh(rho)
        q = outcome_probabilities(model, v, model.qft_basis)
        assert np.max(np.abs(np.sort(q) - lam)) <= 1e-12
        states = orbit_states(model, v)
        for base in range(model.group.order):
            weights = character_weights(states[model.group.table[:, base]], model.qft_basis)
            assert np.max(np.abs(np.sort(weights) - lam)) <= 1e-12


def assert_exact_near_spectral_zero(model, v):
    """Outcome probabilities in qft_basis are the eigenvalues of the orbit-state
    mixture, and, off the boundary, spectral_qfim is the model's closed form."""
    states = orbit_states(model, v)
    lam = np.linalg.eigvalsh(states.T @ states.conj() / len(states))
    q = outcome_probabilities(model, v, model.qft_basis)
    assert np.max(np.abs(np.sort(q) - lam)) <= 1e-12
    if np.all(np.asarray(v) > 0.0):
        f = spectral_qfim(model, v)
        expected = model.closed_form
        assert np.max(np.abs(f - expected)) <= 1e-9 * np.max(np.abs(expected))
    return lam


zero_offsets = st.tuples(st.integers(1, 3), st.sampled_from((-1.0, 1.0)), st.floats(-9.0, -1.0))


@settings(max_examples=60)
@given(zero_offsets, st.floats(0.3, 3.0))
@example((3, -1.0, -9.0), 0.3)
@example((1, 1.0, -9.0), 3.0)
def test_pair_spectral_zeros_sweep(offset, p):
    # one pair eigenvalue, cos^2(p r) or sin^2(p r), vanishes at p r = k pi / 2
    k, side, log_delta = offset
    r = (k * np.pi / 2 + side * 10.0 ** log_delta) / p
    assert_exact_near_spectral_zero(ring_model(2, p), [r])


@settings(max_examples=60)
@given(zero_offsets, st.integers(0, 1), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.floats(0.02, 1.5))
@example((2, -1.0, -9.0), 0, 3.0, 0.3, 1.5)
@example((3, 1.0, -9.0), 1, 0.3, 3.0, 0.02)
def test_rectangle_spectral_zeros_sweep(offset, axis, p_x, p_y, other):
    # the eigenvalues are products cos^2/sin^2(p_x x0) cos^2/sin^2(p_y y0), so
    # two of them vanish as one axis nears p x0 = k pi / 2 (or p y0)
    k, side, log_delta = offset
    v = np.full(2, other)
    v[axis] = (k * np.pi / 2 + side * 10.0 ** log_delta) / (p_x, p_y)[axis]
    assert_exact_near_spectral_zero(rectangle_model(p_x, p_y), v)


@settings(max_examples=60)
@given(st.integers(2, 16), st.floats(0.3, 3.0), st.floats(-9.0, -1.0))
@example(14, 0.3, -9.0)
@example(16, 3.0, -9.0)
def test_ring_spectral_zeros_sweep(n, p, log_r):
    # every eigenvalue but the trivial one vanishes as r -> 0, and at r = 0
    model = ring_model(n, p)
    for r in (10.0 ** log_r, 0.0):
        lam = assert_exact_near_spectral_zero(model, [r])
        assert np.max(np.abs(np.sort(ring_eigenvalues(n, p, r)) - lam)) <= 1e-12


RING_ZERO_PR_MAX = 12.0


@functools.lru_cache(maxsize=None)
def ring_zeros(n):
    """p r of the zeros of ring eigenvalues |a_k|^2 in (0, RING_ZERO_PR_MAX], ascending.

    a_k = (1/n) sum_m exp(2 pi i m k / n) exp(-i p r cos(2 pi m / n + phi)) at
    ``ring_model``'s default orientation phi, where every a_k has an
    r-independent phase.  So a_k times the conjugate phase is real, and each
    sign change of it on a grid, away from the rounding noise of the tiny
    a_k at small p r, brackets a zero that bisection refines.
    """
    phi = 0.0 if n % 2 == 0 else np.pi / (2 * n)
    m = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(m, m) / n) / n

    def amplitudes(x):
        return np.exp(-1j * np.multiply.outer(x, np.cos(2 * np.pi * m / n + phi))) @ dft

    x = np.linspace(0.0, RING_ZERO_PR_MAX, 4001)[1:]
    a = amplitudes(x)
    unphase = np.exp(-1j * np.angle(a[np.argmax(np.abs(a), axis=0), m]))
    s = a * unphase
    assert np.max(np.abs(s.imag)) <= 1e-14  # the phase is r-independent
    s = s.real
    crossing = (np.signbit(s[:-1]) != np.signbit(s[1:])) & (np.abs(s[:-1] - s[1:]) > 1e-10)
    zeros = []
    for i, k in zip(*np.nonzero(crossing)):
        lo, hi = x[i], x[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.signbit((amplitudes(mid)[k] * unphase[k]).real) == np.signbit(s[i, k]):
                lo = mid
            else:
                hi = mid
        zeros.append(lo)
    return tuple(sorted(zeros))


def test_ring_zeros_are_eigenvalue_zeros():
    for n, near in ((3, 2.418), (5, 2.404), (8, 3.805)):
        assert min(abs(np.array(ring_zeros(n)) - near)) <= 1e-3
    for n in range(3, 17):
        zeros = ring_zeros(n)
        assert len(zeros) >= 5 and zeros[0] > 2.0
        for x in zeros:
            assert np.min(ring_eigenvalues(n, 1.0, x)) <= 1e-28


@settings(max_examples=60)
@given(st.integers(3, 16), st.integers(0, 2**16), st.sampled_from((-1.0, 1.0)),
       st.floats(-9.0, -1.0), st.floats(0.3, 3.0))
@example(3, 0, -1.0, -9.0, 0.3)
@example(5, 0, 1.0, -9.0, 3.0)
@example(8, 1, -1.0, -9.0, 1.0)
@example(16, 2**16 - 1, 1.0, -9.0, 0.3)
def test_ring_spectral_zeros_at_larger_pr_sweep(n, pick, side, log_delta, p):
    # an eigenvalue |a_k|^2 vanishes at each ring zero, with no closed form;
    # approach it from either side down to 1e-9 in p r
    zeros = ring_zeros(n)
    r = (zeros[pick % len(zeros)] + side * 10.0 ** log_delta) / p
    model = ring_model(n, p)
    lam = assert_exact_near_spectral_zero(model, [r])
    assert np.max(np.abs(np.sort(ring_eigenvalues(n, p, r)) - lam)) <= 1e-12
    assert np.min(ring_eigenvalues(n, p, r)) <= 10.0 ** (2 * log_delta)
