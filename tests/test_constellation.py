import re

import numpy as np
import pytest

from qconstel.constellation import SymmetryError, _check_distinct, make_rectangle, make_ring
from qconstel.estimation import ModelFamily, rectangle_model, ring_model
from qconstel.symmetry import AbelianGroup

from oracles import apply_group_element, psf_comb, validate_symmetry

Z2Z2 = AbelianGroup((2, 2))


def test_two_source_ring_on_axis():
    c = make_ring(2, 1.0, 0.0)
    assert np.allclose(c, [[1.0, 0.0], [-1.0, 0.0]])
    assert ring_model(2, 1.0).group == AbelianGroup((2,))


def test_two_source_ring_axis_swap():
    c = make_ring(2, 1.0, np.pi / 2)
    assert np.allclose(c, [[0.0, 1.0], [0.0, -1.0]], atol=1e-15)


def test_two_source_ring_diagonal():
    c = make_ring(2, 2.0, np.pi / 4)
    s = np.sqrt(2.0)
    assert np.allclose(c, [[s, s], [-s, -s]])


def test_two_source_ring_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        make_ring(2, 0.0)
    with pytest.raises(ValueError):
        make_ring(2, -1.0)


def test_make_rectangle():
    c = make_rectangle(2.0, 1.0)
    assert np.allclose(sorted(map(tuple, c)), sorted([(2, 1), (2, -1), (-2, 1), (-2, -1)]))
    assert c.shape == (4, 2) and c.dtype == float and not c.flags.writeable
    validate_symmetry(c, Z2Z2)
    for bad in ((2.0, 0.0), (-1.0, 1.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="rectangle half-sides must be positive and finite"):
            make_rectangle(*bad)


def test_make_ring_basics():
    c2 = make_ring(2, 1.0, 0.0)
    assert np.allclose(c2, [[1, 0], [-1, 0]], atol=1e-15)

    c4 = make_ring(4, 1.0, 0.0)
    assert np.allclose(c4, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)
    assert c4.shape == (4, 2) and c4.dtype == float and not c4.flags.writeable

    c3 = make_ring(3, 1.0, np.pi / 2)
    validate_symmetry(c3, AbelianGroup((3,)))

    with pytest.raises(ValueError):
        make_ring(1, 1.0)
    # a non-finite radius is refused before it reaches the points
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"ring radius must be positive and finite, got {bad}"):
            make_ring(3, bad)
    # a non-integral n used to build round(n) points under a group of order int(n)
    for bad in (2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match=f"ring needs an integer n >= 2, got {bad!r}"):
            make_ring(bad, 1.0)
    assert make_ring(np.int64(5), 1.0).shape == (5, 2)
    assert ring_model(np.int64(5), 1.0).group == AbelianGroup((5,))


def test_pair_psf_comb():
    momenta = ring_model(2, 1.0, 0.0, 0.0).momenta
    assert np.allclose(momenta, [[1.0, 0.0], [-1.0, 0.0]])
    rotated = ring_model(2, 2.0, 0.0, np.pi / 3).momenta
    assert np.allclose(rotated[0], [2 * np.cos(np.pi / 3), 2 * np.sin(np.pi / 3)])
    assert np.allclose(rotated[1], -rotated[0])


def test_psf_comb_ring_and_rect():
    assert np.allclose(ring_model(4, 1.0).momenta, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)
    assert np.allclose(rectangle_model(1.0, 1.0).momenta, [[1, 1], [1, -1], [-1, 1], [-1, -1]])
    stretched = rectangle_model(1.0, 0.5).momenta
    assert np.allclose(stretched, [[1, 0.5], [1, -0.5], [-1, 0.5], [-1, -0.5]])
    # the model's comb is the written-out comb of its group, bit for bit
    for n in range(2, 17):
        for phase, psf_phase in ((0.0, None), (0.3, 0.0), (-1.2, 2.5)):
            model = ring_model(n, 1.7, phase, psf_phase)
            default = phase + (0.0 if n % 2 == 0 else np.pi / (2 * n))
            angle = default if psf_phase is None else psf_phase
            assert np.array_equal(model.momenta, psf_comb(model.group, 1.7, angle))
            assert np.array_equal(model.momenta, make_ring(n, 1.7, angle))
    assert np.array_equal(rectangle_model(1.3, 0.4).momenta, psf_comb(Z2Z2, 1.3, p_y=0.4))

    with pytest.raises(ValueError):
        ring_model(2, -1.0)
    # non-finite momenta are rejected, by value and with the psf named, before any arithmetic
    for bad in (np.inf, np.nan):
        message = f"^psf momentum magnitude must be positive and finite, got {bad}$"
        for n in (2, 4, 5):
            with pytest.raises(ValueError, match=message):
                ring_model(n, bad)
        with pytest.raises(ValueError, match=message):
            rectangle_model(bad, 1.0)
        with pytest.raises(ValueError, match=f"^p_y must be positive and finite, got {bad}$"):
            rectangle_model(1.0, bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_angles_rejected_before_trigonometry(bad):
    # warnings are errors here, so a cos/sin of the bad angle would fail first
    for n in (2, 5):
        with pytest.raises(ValueError, match=f"ring phase must be finite, got {bad}"):
            make_ring(n, 1.0, bad)
        with pytest.raises(ValueError, match=f"ring phase must be finite, got {bad}"):
            ring_model(n, 1.0, bad)
    for n in (2, 4, 5):
        with pytest.raises(ValueError, match=f"psf phase must be finite, got {bad}"):
            ring_model(n, 1.0, 0.0, bad)


def test_psf_symmetry_matches_constellation():
    for points, group, momenta in [
        (make_ring(2, 0.8, 0.3), AbelianGroup((2,)), make_ring(2, 1.3, 0.4)),
        (make_rectangle(1.2, 0.7), Z2Z2, make_rectangle(1.3, 0.5)),
        (make_ring(5, 0.9, 0.2), AbelianGroup((5,)), make_ring(5, 1.3, 0.1)),
    ]:
        validate_symmetry(points, group)
        validate_symmetry(momenta, group)


def test_apply_group_element_examples():
    z4 = AbelianGroup((4,))
    assert np.allclose(apply_group_element(z4, 1, [[1.0, 0.0]]), [[0.0, 1.0]], atol=1e-15)

    z2 = AbelianGroup((2,))
    assert np.allclose(apply_group_element(z2, 1, [[0.3, -0.4]]), [[-0.3, 0.4]])

    rect = AbelianGroup((2, 2))
    pts = np.array([[0.5, 0.25], [1.0, -1.0]])
    for group in (z4, z2, rect):
        assert np.allclose(apply_group_element(group, 0, pts), pts)
    assert np.array_equal(apply_group_element(rect, 1, pts), pts * [1.0, -1.0])
    assert np.array_equal(apply_group_element(rect, 2, pts), pts * [-1.0, 1.0])

    for group, bad in ((z4, 4), (z2, -1), (z2, 1.0), (rect, np.int64(4))):
        with pytest.raises(ValueError, match="element index"):
            apply_group_element(group, bad, pts)
    assert np.allclose(apply_group_element(z4, np.int64(2), pts), -pts)


def test_group_law_on_random_points():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, 2))
    for group in (AbelianGroup((6,)), AbelianGroup((2,)), AbelianGroup((2, 2))):
        for g in range(group.order):
            for h in range(group.order):
                via_two = apply_group_element(group, g, apply_group_element(group, h, pts))
                direct = apply_group_element(group, int(group.table[g, h]), pts)
                assert np.max(np.abs(via_two - direct)) <= 1e-12


def test_composition_table():
    # the table against the group law written out digit by digit
    for group in (AbelianGroup((5,)), AbelianGroup((2, 3)), AbelianGroup((3, 4, 2))):
        n, d = group.order, group.digits
        for g in range(n):
            for h in range(n):
                summed = [(a + b) % f for a, b, f in zip(d[g], d[h], group.factors)]
                assert list(d[group.table[g, h]]) == summed
        assert np.array_equal(group.table, group.table.T)
        assert np.array_equal(group.table[0], np.arange(n))  # index 0 is the identity
        assert not group.table.flags.writeable and not group.digits.flags.writeable


def test_validate_symmetry_ring4_shift():
    perms = validate_symmetry(make_ring(4, 1.0), AbelianGroup((4,)))
    assert np.array_equal(perms[0], [0, 1, 2, 3])
    assert np.array_equal(perms[1], [1, 2, 3, 0])


def test_validate_symmetry_rect_involutions():
    perms = validate_symmetry(make_rectangle(1.0, 0.5), Z2Z2)
    for g in (1, 2):
        p = perms[g]
        assert np.array_equal(p[p], np.arange(4))
    assert np.array_equal(perms[1][perms[2]], perms[2][perms[1]])
    assert np.array_equal(perms[1][perms[2]], perms[3])


def test_validate_symmetry_detects_perturbation():
    pts = make_ring(4, 1.0).copy()
    pts[2] += 0.1
    with pytest.raises(SymmetryError):
        validate_symmetry(pts, AbelianGroup((4,)))


def test_constructors_validate():
    for c, group in ((make_ring(2, 1.0, 0.2), AbelianGroup((2,))), (make_rectangle(0.5, 0.8), Z2Z2),
                     (make_ring(7, 1.1, 0.3), AbelianGroup((7,)))):
        validate_symmetry(c, group)


def test_constellation_invariants():
    # a family's points and momenta are finite and distinct, and its arrays are read-only copies
    points, momenta = make_ring(4, 1.0), make_ring(4, 1.0, np.pi / 4)
    z4 = AbelianGroup((4,))
    for field, what in ((2, "source points"), (3, "psf momenta")):
        for bad, match in ((np.inf, "must be finite"), (np.nan, "must be finite"),
                           ("coincide", r"must be distinct \(entries 0 and 2 coincide\)")):
            args = [("r",), z4, points, momenta]
            arr = args[field].copy()
            if bad == "coincide":
                arr[2] = arr[0]
            else:
                arr[1, 0] = bad
            args[field] = arr
            with pytest.raises(ValueError, match=f"^{what} {match}"):
                ModelFamily(*args)
        args = [("r",), z4, points, momenta]
        args[field] = args[field][:, :1]
        with pytest.raises(ValueError, match=rf"^{what} must be an \(m, 2\) array"):
            ModelFamily(*args)
    given = points.copy()
    model = ModelFamily(("r",), z4, given, momenta)
    given[0] = 9.0
    assert np.array_equal(model.points, points)
    assert not model.points.flags.writeable and not model.momenta.flags.writeable
    with pytest.raises(ValueError, match="one parameter or two"):
        ModelFamily(("a", "b", "c"), z4, points, momenta)


def distinct_oracle(arr, what):
    """The pairwise loop: message naming the first coinciding (i, j), or None."""
    m = arr.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if np.max(np.abs(arr[i] - arr[j])) == 0.0:
                return f"{what} must be distinct (entries {i} and {j} coincide)"
    return None


def test_check_distinct_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    raised = passed = 0
    for m in range(2, 65):
        for case in range(5):
            if case < 2:  # a small grid with signed zeros: coincidences are common
                pts = rng.integers(-1, 2, (m, 2)) * rng.choice([-1.0, 1.0], (m, 2))
            else:  # distinct, then case - 2 planted copies (0 to 2)
                pts = rng.standard_normal((m, 2))
                for _ in range(case - 2):
                    i, j = rng.choice(m, 2, replace=False)
                    pts[j] = pts[i]
            expected = distinct_oracle(pts, "source points")
            if expected is None:
                _check_distinct(pts, "source points")
                passed += 1
                continue
            raised += 1
            with pytest.raises(ValueError) as err:
                _check_distinct(pts, "source points")
            assert str(err.value) == expected
    assert raised >= 2 * 63 and passed >= 63  # planted copies raise, case 2 passes
    # 0.0 and -0.0 coincide; neighbouring floats do not
    pts = np.array([[0.0, 1.0], [1.0, 2.0], [-0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match=r"^psf momenta must be distinct \(entries 0 and 2 "):
        ModelFamily(("x0", "y0"), Z2Z2, make_rectangle(1.0, 1.0), pts)
    pts[2, 1] = np.nextafter(1.0, 2.0)
    message = r"^source points must be distinct \(entries 1 and 3 coincide\)$"
    with pytest.raises(ValueError, match=message):
        ModelFamily(("x0", "y0"), Z2Z2, pts, make_rectangle(1.0, 1.0))
    pts[3, 0] = np.nextafter(1.0, 0.0)
    _check_distinct(pts, "source points")


def test_group_factor_validation():
    # a non-integral factor used to be truncated: (2.5,) had order 2
    for bad in ((), (1,), (0, 2), (2, -3), (2.5,), (2.0,), (2, 3.5), ("3",), (True, 2)):
        with pytest.raises(ValueError, match="every cyclic factor must be an integer >= 2"):
            AbelianGroup(bad)
    group = AbelianGroup((np.int64(3), np.int32(2)))
    assert group.factors == (3, 2) and all(type(f) is int for f in group.factors)
    assert group.order == 6 and group.digits.shape == (6, 2)
    assert AbelianGroup((5,)).order == 5


@pytest.mark.parametrize("factors", [(3, 4), (2, 2, 2), (4, 2), (2, 3)])
def test_group_without_planar_action_is_refused(factors):
    group = AbelianGroup(factors)
    message = rf"AbelianGroup\({re.escape(str(group.factors))}\) has no planar action"
    pts = make_ring(4, 1.0)
    with pytest.raises(ValueError, match=message):
        apply_group_element(group, 1, pts)
    # a family checks its group against its points and momenta, whatever the group
    message = rf"\(4, 4\) sources x psf momenta, but \|G\| = {group.order}$"
    with pytest.raises(SymmetryError, match=message):
        ModelFamily(("r",), group, pts, pts)


def test_pair_symmetry_is_the_two_source_rotation():
    # the point inversion of a pair is the rotation by pi of its Z_2
    c, group = make_ring(2, 0.7, 0.3), ring_model(2, 1.0, 0.3).group
    assert group == AbelianGroup((2,)) and group.order == 2
    assert np.array_equal(group.digits, [[0], [1]])
    assert np.array_equal(group.table, [[0, 1], [1, 0]])
    assert np.allclose(apply_group_element(group, 1, c), -c, atol=1e-15)
    assert np.allclose(apply_group_element(group, 1, c), c[::-1], atol=1e-15)
    assert np.array_equal(validate_symmetry(c, group), [[0, 1], [1, 0]])
