import numpy as np
import pytest

from qconstel.constellation import (
    AbelianGroup,
    Constellation,
    SymmetryError,
    SymmetrySpec,
    apply_group_element,
    make_pair,
    make_rectangle,
    make_ring,
    matching_psf,
    validate_symmetry,
)


def test_make_pair_on_axis():
    c = make_pair(1.0, 0.0)
    assert np.allclose(c.points, [[1.0, 0.0], [-1.0, 0.0]])
    assert c.symmetry.kind == "cyclic" and c.symmetry.n == 2


def test_make_pair_axis_swap():
    c = make_pair(1.0, np.pi / 2)
    assert np.allclose(c.points, [[0.0, 1.0], [0.0, -1.0]], atol=1e-15)


def test_make_pair_diagonal():
    c = make_pair(2.0, np.pi / 4)
    s = np.sqrt(2.0)
    assert np.allclose(c.points, [[s, s], [-s, -s]])


def test_make_pair_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        make_pair(0.0)
    with pytest.raises(ValueError):
        make_pair(-1.0)


def test_make_rectangle():
    c = make_rectangle(2.0, 1.0)
    assert np.allclose(sorted(map(tuple, c.points)), sorted([(2, 1), (2, -1), (-2, 1), (-2, -1)]))
    validate_symmetry(c.symmetry, c.points)
    with pytest.raises(ValueError):
        make_rectangle(2.0, 0.0)


def test_make_ring_basics():
    c2 = make_ring(2, 1.0, 0.0)
    pair = make_pair(1.0, 0.0)
    assert np.allclose(sorted(map(tuple, c2.points)), sorted(map(tuple, pair.points)), atol=1e-15)

    c4 = make_ring(4, 1.0, 0.0)
    assert np.allclose(c4.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)

    c3 = make_ring(3, 1.0, np.pi / 2)
    validate_symmetry(c3.symmetry, c3.points)

    with pytest.raises(ValueError):
        make_ring(1, 1.0)
    with pytest.raises(ValueError):
        make_ring(3, 0.0)


def test_matching_psf_pair():
    psf = matching_psf(make_pair(0.7, 0.0), 1.0)
    assert np.allclose(psf.momenta, [[1.0, 0.0], [-1.0, 0.0]])
    rotated = matching_psf(make_pair(0.7, 0.0), 2.0, phase=np.pi / 3)
    assert np.allclose(rotated.momenta[0], [2 * np.cos(np.pi / 3), 2 * np.sin(np.pi / 3)])
    assert np.allclose(rotated.momenta[1], -rotated.momenta[0])


def test_matching_psf_ring_and_rect():
    psf4 = matching_psf(make_ring(4, 0.5), 1.0)
    assert np.allclose(psf4.momenta, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)

    rect = matching_psf(make_rectangle(1.0, 1.0), 1.0)
    assert np.allclose(rect.momenta, [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    stretched = matching_psf(make_rectangle(1.0, 1.0), 1.0, p_y=0.5)
    assert np.allclose(stretched.momenta, [[1, 0.5], [1, -0.5], [-1, 0.5], [-1, -0.5]])

    with pytest.raises(ValueError):
        matching_psf(make_ring(4, 0.5), 1.0, p_y=0.3)
    with pytest.raises(ValueError):
        matching_psf(make_rectangle(1.0, 1.0), 1.0, phase=0.2)
    with pytest.raises(ValueError):
        matching_psf(make_pair(1.0), -1.0)
    # non-finite momenta are rejected, by value, before any arithmetic
    for bad in (np.inf, np.nan):
        for c in (make_pair(1.0), make_ring(4, 0.5), make_ring(5, 0.5), make_rectangle(1.0, 1.0)):
            with pytest.raises(ValueError, match=f"finite, got {bad}"):
                matching_psf(c, bad)
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            matching_psf(make_rectangle(1.0, 1.0), 1.0, p_y=bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_angles_rejected_before_trigonometry(bad):
    # warnings are errors here, so a cos/sin of the bad angle would fail first
    with pytest.raises(ValueError, match=f"pair angle theta must be finite, got {bad}"):
        make_pair(1.0, bad)
    with pytest.raises(ValueError, match=f"ring phase must be finite, got {bad}"):
        make_ring(5, 1.0, bad)
    for c in (make_pair(1.0), make_ring(4, 0.5), make_ring(5, 0.5), make_rectangle(1.0, 1.0)):
        with pytest.raises(ValueError, match=f"psf phase must be finite, got {bad}"):
            matching_psf(c, 1.0, phase=bad)


def test_psf_symmetry_matches_constellation():
    for c, kwargs in [
        (make_pair(0.8, 0.3), dict(phase=0.4)),
        (make_rectangle(1.2, 0.7), dict(p_y=0.5)),
        (make_ring(5, 0.9, 0.2), dict(phase=0.1)),
    ]:
        psf = matching_psf(c, 1.3, **kwargs)
        validate_symmetry(c.symmetry, psf.momenta)


def test_apply_group_element_examples():
    spec4 = SymmetrySpec.cyclic(4)
    assert np.allclose(apply_group_element(spec4, 1, [[1.0, 0.0]]), [[0.0, 1.0]], atol=1e-15)

    refl = SymmetrySpec.cyclic(2)
    assert np.allclose(apply_group_element(refl, 1, [[0.3, -0.4]]), [[-0.3, 0.4]])

    rect = SymmetrySpec.rect_reflections()
    pts = np.array([[0.5, 0.25], [1.0, -1.0]])
    for spec in (spec4, refl, rect):
        assert np.allclose(apply_group_element(spec, 0, pts), pts)

    with pytest.raises(ValueError):
        apply_group_element(spec4, 4, pts)
    with pytest.raises(ValueError):
        apply_group_element(refl, -1, pts)


def test_group_law_on_random_points():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, 2))
    for spec in (SymmetrySpec.cyclic(6), SymmetrySpec.cyclic(2), SymmetrySpec.rect_reflections()):
        for g in range(spec.order):
            for h in range(spec.order):
                via_two = apply_group_element(spec, g, apply_group_element(spec, h, pts))
                direct = apply_group_element(spec, spec.group.compose(g, h), pts)
                assert np.max(np.abs(via_two - direct)) <= 1e-12


def test_composition_table():
    for group in (AbelianGroup((5,)), AbelianGroup((2, 3)), AbelianGroup((3, 4, 2))):
        n = group.order
        for g in range(n):
            for h in range(n):
                digits = np.add(group.element_tuple(g), group.element_tuple(h))
                assert group.table[g, h] == group.element_index(digits) == group.compose(g, h)
        assert not group.table.flags.writeable
        for bad in (-1, n, 2.5):
            with pytest.raises(ValueError, match="element index"):
                group.compose(bad, 0)
            with pytest.raises(ValueError, match="element index"):
                group.compose(0, bad)


def test_validate_symmetry_ring4_shift():
    c = make_ring(4, 1.0)
    perms = validate_symmetry(c.symmetry, c.points)
    assert np.array_equal(perms[0], [0, 1, 2, 3])
    assert np.array_equal(perms[1], [1, 2, 3, 0])


def test_validate_symmetry_rect_involutions():
    c = make_rectangle(1.0, 0.5)
    perms = validate_symmetry(c.symmetry, c.points)
    for g in (1, 2):
        p = perms[g]
        assert np.array_equal(p[p], np.arange(4))
    assert np.array_equal(perms[1][perms[2]], perms[2][perms[1]])
    assert np.array_equal(perms[1][perms[2]], perms[3])


def test_validate_symmetry_detects_perturbation():
    pts = make_ring(4, 1.0).points.copy()
    pts[2] += 0.1
    with pytest.raises(SymmetryError):
        validate_symmetry(SymmetrySpec.cyclic(4), pts)


def test_constructors_validate():
    for c in (make_pair(1.0, 0.2), make_rectangle(0.5, 0.8), make_ring(7, 1.1, 0.3)):
        validate_symmetry(c.symmetry, c.points)


def test_constellation_invariants():
    with pytest.raises(ValueError):
        Constellation(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Constellation(np.array([[np.inf, 0.0]]))
    single = Constellation(np.array([[0.2, 0.1]]))
    assert len(single) == 1


def test_symmetry_spec_validation():
    with pytest.raises(ValueError):
        SymmetrySpec.cyclic(1)
    with pytest.raises(ValueError):
        SymmetrySpec("hexagonal")
    assert SymmetrySpec.cyclic(5).order == 5
    assert SymmetrySpec.rect_reflections().factors == (2, 2)


def test_pair_symmetry_is_the_two_source_rotation():
    # the point inversion of a pair is the rotation by pi of cyclic(2)
    with pytest.raises(ValueError, match="unknown symmetry kind"):
        SymmetrySpec("reflection_1d")
    assert make_pair(0.7, 0.3).symmetry == SymmetrySpec.cyclic(2)
