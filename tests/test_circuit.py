import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconstel.circuit import (
    Beamsplitter,
    InterferometerNetlist,
    PhaseShifter,
    fourier_circuit,
    from_text,
    load_unitary,
    netlist_unitary,
    reck_decompose,
    to_json_dict,
    to_text,
)
from qconstel.estimation import check_basis, outcome_probabilities, rectangle_model, ring_model
from qconstel.linalg import UNITARY_ATOL, unitarity_defect
from qconstel.symmetry import AbelianGroup, qft_matrix

from oracles import haar_unitary

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def dense_element(el, n):
    """The element as an n x n matrix: the block of the module docstring in an identity."""
    u = np.eye(n, dtype=np.complex128)
    if isinstance(el, Beamsplitter):
        c = np.cos(el.mixing)
        s = np.sin(el.mixing)
        u[el.i, el.i] = c
        u[el.i, el.j] = np.exp(1j * el.phase) * s
        u[el.j, el.i] = np.exp(-1j * el.phase) * s
        u[el.j, el.j] = -c
    else:
        u[el.mode, el.mode] = np.exp(1j * el.phase)
    return u


def random_netlist(n, rng, count):
    elements = []
    for _ in range(count):
        if n > 1 and rng.uniform() < 0.7:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            elements.append(Beamsplitter(int(i), int(j), rng.uniform(0, np.pi / 2),
                                         rng.uniform(-np.pi, np.pi)))
        else:
            elements.append(PhaseShifter(int(rng.integers(n)), rng.uniform(-np.pi, np.pi)))
    return tuple(elements)


def test_empty_netlist_is_identity():
    net = InterferometerNetlist(3, ())
    assert np.allclose(netlist_unitary(net), np.eye(3))


def test_single_5050_is_hadamard():
    net = InterferometerNetlist(2, (Beamsplitter(0, 1, np.pi / 4),))
    assert np.max(np.abs(netlist_unitary(net) - HADAMARD)) <= 1e-15


def test_element_validation():
    with pytest.raises(ValueError):
        Beamsplitter(1, 1, 0.3)
    with pytest.raises(ValueError):
        Beamsplitter(2, 1, 0.3)
    with pytest.raises(ValueError):
        PhaseShifter(-1, 0.3)
    with pytest.raises(ValueError):
        InterferometerNetlist(2, (Beamsplitter(0, 2, 0.3),))
    with pytest.raises(ValueError):
        InterferometerNetlist(2, (), output_phases=(0.1,))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="beamsplitter mixing must be finite"):
            Beamsplitter(0, 1, bad)
        with pytest.raises(ValueError, match="beamsplitter phase must be finite"):
            Beamsplitter(0, 1, 0.3, bad)
        with pytest.raises(ValueError, match="phaseshifter phase must be finite"):
            PhaseShifter(0, bad)
        # unchecked, a NaN phase gave a NaN row and to_text dropped it silently
        with pytest.raises(ValueError, match=f"output phase of mode 1 must be finite, got {bad}"):
            InterferometerNetlist(2, (Beamsplitter(0, 1, 0.3),), (0.0, bad))
    with pytest.raises(TypeError, match="unknown netlist element"):
        InterferometerNetlist(2, ((0, 1),))


@pytest.mark.parametrize("n", range(2, 13))
def test_netlist_unitary_matches_dense_product(n):
    rng = np.random.default_rng([5, n])
    for _ in range(4):
        elements = random_netlist(n, rng, 3 * n)
        phases = tuple(rng.uniform(-np.pi, np.pi, size=n))
        expected = np.eye(n, dtype=np.complex128)
        for el in elements:
            expected = dense_element(el, n) @ expected
        expected = np.diag(np.exp(1j * np.array(phases))) @ expected
        got = netlist_unitary(InterferometerNetlist(n, elements, phases))
        assert np.max(np.abs(got - expected)) <= 1e-14


def test_phaseshifter_and_order():
    net = InterferometerNetlist(
        2, (PhaseShifter(0, np.pi / 2), Beamsplitter(0, 1, np.pi / 4))
    )
    expected = HADAMARD @ np.diag([1j, 1.0])  # shifter applied first
    assert np.max(np.abs(netlist_unitary(net) - expected)) <= 1e-15


def test_reck_hadamard_single_beamsplitter():
    net = reck_decompose(HADAMARD)
    assert net.beamsplitter_count == 1
    assert all(p == 0.0 for p in net.output_phases)
    assert np.abs(netlist_unitary(net) - HADAMARD).max() <= 1e-12


def test_reck_identity_empty():
    net = reck_decompose(np.eye(5))
    assert net.beamsplitter_count == 0
    assert all(p == 0.0 for p in net.output_phases)


def test_reck_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        reck_decompose(np.ones((3, 3)))
    u = np.eye(3, dtype=complex)
    u[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary: .* = nan"):
        reck_decompose(u)


def test_unitarity_checks_name_an_empty_matrix():
    empty = np.zeros((0, 0), dtype=complex)
    for check in (unitarity_defect, reck_decompose, lambda u: check_basis(u, 0)):
        with pytest.raises(ValueError, match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
            check(empty)


# signed zeros, the subnormal range and its edges, infinities and nan
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -1.1e-308, 2.2250738585072014e-308,
                 1.0, -1.0, np.inf, -np.inf, np.nan]
complex_parts = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(allow_subnormal=True))


@settings(max_examples=200)
@given(complex_parts, complex_parts)
def test_reck_phase_arithmetic_is_np_angle_bit_for_bit(re_part, im_part):
    # reck_decompose takes each rotation's phases as arctan2(z.imag, z.real)
    z = np.complex128(complex(re_part, im_part))
    assert np.arctan2(z.imag, z.real).tobytes() == np.angle(z).tobytes()


def test_synthesis_and_measurement_bases_share_one_unitarity_bound():
    # (1 + e) I has defect 2e + e^2: both checks accept it just inside the bound
    # and refuse it just outside, each with its own message
    for factor, accepted in ((0.9, True), (1.1, False)):
        e = np.sqrt(1.0 + factor * UNITARY_ATOL) - 1.0
        u = (1.0 + e) * np.eye(3, dtype=complex)
        assert unitarity_defect(u) == pytest.approx(factor * UNITARY_ATOL, rel=1e-4)
        if accepted:
            reck_decompose(u)
            check_basis(u, 3)
            continue
        with pytest.raises(ValueError, match=r"^matrix is not unitary: max \|U\^H U - I\| = "):
            reck_decompose(u)
        with pytest.raises(ValueError, match=r"^basis is not orthonormal: max \|B\^H B - I\| = "):
            check_basis(u, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_reck_roundtrip_random(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        u = haar_unitary(n, rng)
        net = reck_decompose(u)
        assert net.beamsplitter_count <= n * (n - 1) // 2
        realized = netlist_unitary(net)
        assert unitarity_defect(realized) <= 1e-10
        assert np.abs(realized - u).max() <= 1e-9


@pytest.mark.parametrize("n", [24, 40, 64])
def test_reck_roundtrip_large(n):
    u = haar_unitary(n, np.random.default_rng(n))
    net = reck_decompose(u)
    assert net.beamsplitter_count <= n * (n - 1) // 2
    assert np.abs(netlist_unitary(net) - u).max() <= 1e-12


def test_reck_of_netlist_roundtrip():
    rng = np.random.default_rng(0)
    u = haar_unitary(4, rng)
    net = reck_decompose(u)
    again = reck_decompose(netlist_unitary(net))
    assert np.abs(netlist_unitary(again) - u).max() <= 1e-9


def test_preset_pair():
    net = fourier_circuit(ring_model(2, 1.0).group)
    assert net == InterferometerNetlist(2, (Beamsplitter(0, 1, np.pi / 4),))
    assert np.abs(netlist_unitary(net) - qft_matrix(AbelianGroup((2,)))).max() <= 1e-12


def test_preset_rect_walsh_two_layers():
    net = fourier_circuit(rectangle_model(1.0, 1.0).group)
    half = np.pi / 4
    walsh_mesh = (Beamsplitter(0, 1, half), Beamsplitter(2, 3, half),  # first layer
                  Beamsplitter(0, 2, half), Beamsplitter(1, 3, half))  # second layer
    assert net == InterferometerNetlist(4, walsh_mesh)
    walsh = qft_matrix(AbelianGroup((2, 2)))
    assert np.abs(netlist_unitary(net) - walsh).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fourier_circuit_of_z2_power_is_the_walsh_transform(k):
    group = AbelianGroup((2,) * k)
    net = fourier_circuit(group)
    assert net.beamsplitter_count == len(net.elements) == group.order // 2 * k
    assert net.output_phases == ()
    assert np.max(np.abs(netlist_unitary(net) - qft_matrix(group))) <= 1e-12


def check_fourier_circuit(group):
    net = fourier_circuit(group)
    n = group.order
    assert np.abs(netlist_unitary(net) - qft_matrix(group)).max() <= 1e-12
    assert net.beamsplitter_count <= n * (n - 1) // 2
    if n >= 3:
        assert to_text(net) == to_text(reck_decompose(qft_matrix(group)))


@pytest.mark.parametrize("n", range(2, 17))
def test_preset_ring_matches_qft(n):
    check_fourier_circuit(AbelianGroup((n,)))


@pytest.mark.parametrize("factors", [(2, 3), (2, 4)])
def test_fourier_circuit_of_mixed_products(factors):
    check_fourier_circuit(AbelianGroup(factors))


def test_preset_ring4_contains_quarter_phases():
    net = fourier_circuit(ring_model(4, 1.0).group)
    phases = [el.phase for el in net.elements if isinstance(el, Beamsplitter)]
    phases += [el.phase for el in net.elements if isinstance(el, PhaseShifter)]
    phases += list(net.output_phases)
    wrapped = np.mod(phases, 2 * np.pi)
    for target in (np.pi / 2, np.pi, 3 * np.pi / 2):  # angles of i, i^2, i^3
        assert np.min(np.abs(wrapped - target)) <= 1e-9


def test_preset_measurement_distributions_match_qft():
    cases = [
        (ring_model(2, 1.0), [0.4]),
        (rectangle_model(1.0, 0.5), [0.5, 0.7]),
        (ring_model(4, 1.0), [0.8]),
        (ring_model(5, 1.0), [0.6]),
    ]
    for model, point in cases:
        u = netlist_unitary(fourier_circuit(model.group))
        assert np.abs(u - qft_matrix(model.group)).max() <= 1e-9
        q_net = outcome_probabilities(model, point, u.conj().T)
        q_qft = outcome_probabilities(model, point, model.qft_basis)
        assert np.max(np.abs(np.sort(q_net) - np.sort(q_qft))) <= 1e-10
        assert np.max(np.abs(q_net - q_qft)) <= 1e-10


def test_text_serialization_roundtrip():
    rng = np.random.default_rng(3)
    u = haar_unitary(4, rng)
    net = reck_decompose(u)
    text = to_text(net)
    parsed = from_text(text, n_modes=4)
    assert np.abs(netlist_unitary(parsed) - u).max() <= 1e-9
    # 17 significant digits survive the round trip exactly
    bs_lines = [ln for ln in text.splitlines() if ln.startswith("BS")]
    assert len(bs_lines) == net.beamsplitter_count
    first = net.elements[0]
    assert f"{first.mixing:.17g}" in bs_lines[0]


def test_text_identity_is_empty():
    assert to_text(reck_decompose(np.eye(3))) == ""


def test_from_text_diagnostics():
    with pytest.raises(ValueError, match="line 2"):
        from_text("BS 0 1 0.5 0.0\nXX 0 1\n", n_modes=2)
    with pytest.raises(ValueError, match="line 1"):
        from_text("BS 0 1 abc 0.0\n", n_modes=2)
    with pytest.raises(ValueError, match="line 1: 'BS 0 1 inf 0': beamsplitter mixing"):
        from_text("BS 0 1 inf 0\n", n_modes=2)
    with pytest.raises(ValueError, match="line 2: 'PS 0 nan': phaseshifter phase"):
        from_text("BS 0 1 0.5 0.0\nPS 0 nan\n", n_modes=2)


def test_json_dict_records_the_netlist():
    net = InterferometerNetlist(
        3, (Beamsplitter(0, 2, 0.3, -1.1), PhaseShifter(1, 0.25)), output_phases=(0.5, 0.0, -2.0))
    assert to_json_dict(net) == {
        "modes": 3,
        "elements": [{"type": "bs", "i": 0, "j": 2, "mixing": 0.3, "phase": -1.1},
                     {"type": "ps", "mode": 1, "phase": 0.25}],
        "output_phases": [0.5, 0.0, -2.0],
    }
    assert to_json_dict(fourier_circuit(AbelianGroup((2, 2))))["output_phases"] == []


def test_netlist_unitary_always_unitary():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = InterferometerNetlist(5, random_netlist(5, rng, 6))
        assert unitarity_defect(netlist_unitary(net)) <= 1e-10


@pytest.mark.parametrize("rows, fault", [
    ([[[1, 0]], [[1, 0], [0, 0]]], "matrix row 1 has 2 entries, row 0 has 1"),
    ([[[1, 0], [0, 0]], [[0, 0], [1, 0]], []], "matrix row 2 has 0 entries, row 0 has 2"),
])
def test_load_unitary_names_a_ragged_row(rows, fault):
    # named before numpy sees the rows, whose own message names neither row nor lengths
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        load_unitary(json.dumps({"matrix": rows}).encode())
