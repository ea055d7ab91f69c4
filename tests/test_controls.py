import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosctl import (
    ControlConfig,
    DomainSpec,
    MapModel,
    apply_control,
    compose_vmtoc,
    conjugate_state,
    controlled_map,
    target_for_state,
)
from chaosctl.controls import controlled_rows
from chaosctl.models import LpaParams, lpa_eval, lpa_jacobian

from conftest import LPA_FIXED_POINT


def linear_model(a, shift=None, dim=2, domain=None):
    shift = np.zeros(dim) if shift is None else np.asarray(shift, float)
    return MapModel(dimension=dim,
                    evaluate=lambda x: a * (np.asarray(x, float) - shift) + shift,
                    domain=domain or DomainSpec.full_space(dim))


def test_vmtoc_c_zero_is_identity_control(lpa):
    x = np.array([7.0, 3.0, 1.0])
    cfg = ControlConfig("VMTOC", 0.0, (1.0, 1.0, 1.0))
    np.testing.assert_array_equal(apply_control(lpa, cfg, x), lpa.evaluate(x))


def test_vmtoc_preserves_fixed_point_target():
    # f(K) = K for the shifted linear map, so K stays an equilibrium for any c.
    k = np.array([2.0, -1.0])
    f = linear_model(3.0, shift=k)
    for c in (0.1, 0.5, 0.9):
        cfg = ControlConfig("VMTOC", c, tuple(k))
        np.testing.assert_allclose(apply_control(f, cfg, k), k, atol=1e-14)


def test_vmtoc_on_lpa_matches_hand_substitution(lpa):
    # Independent scalar evaluation of 0.5*T + 0.5*f(10,10,10).
    p = LpaParams()
    L = P = A = 10.0
    f1 = p.b * A * math.exp(-p.c_el * L - p.c_ea * A)
    f2 = (1.0 - p.mu_l) * L
    f3 = P * math.exp(-p.c_pa * A) + A * (1.0 - p.mu_a)
    T = LPA_FIXED_POINT
    expected = [0.5 * T[0] + 0.5 * f1, 0.5 * T[1] + 0.5 * f2, 0.5 * T[2] + 0.5 * f3]
    cfg = ControlConfig("VMTOC", 0.5, T)
    np.testing.assert_allclose(apply_control(lpa, cfg, [10.0, 10.0, 10.0]),
                               expected, rtol=1e-12)


def test_diag_with_equal_intensities_matches_vmtoc_bitwise(lpa):
    x = np.array([12.0, 8.0, 3.0])
    target = (30.0, 20.0, 10.0)
    scalar = apply_control(lpa, ControlConfig("VMTOC", 0.37, target), x)
    diag = apply_control(lpa, ControlConfig("DIAG-VMTOC", (0.37, 0.37, 0.37), target), x)
    assert np.array_equal(scalar, diag)


def test_pf_mpf_are_zero_target_reductions_bitwise(lpa):
    x = np.array([11.0, 6.0, 2.0])
    zero = (0.0, 0.0, 0.0)
    c = 0.42
    np.testing.assert_array_equal(
        apply_control(lpa, ControlConfig("PF", c, None), x),
        apply_control(lpa, ControlConfig("VTOC", c, zero), x))
    np.testing.assert_array_equal(
        apply_control(lpa, ControlConfig("MPF", c, None), x),
        apply_control(lpa, ControlConfig("VMTOC", c, zero), x))


def test_config_validation():
    with pytest.raises(ValueError, match="intensity"):
        ControlConfig("VMTOC", 1.0, (1.0,))
    with pytest.raises(ValueError, match="intensity"):
        ControlConfig("VMTOC", -0.1, (1.0,))
    with pytest.raises(ValueError, match="scheme"):
        ControlConfig("TOC", 0.5, (1.0,))
    with pytest.raises(ValueError, match="target"):
        ControlConfig("VMTOC", 0.5, None)
    with pytest.raises(ValueError, match="scalar"):
        ControlConfig("VMTOC", (0.5, 0.5), (1.0, 1.0))
    # PF needs no target
    ControlConfig("PF", 0.5, None)


def test_apply_control_rejects_target_outside_domain(lpa):
    cfg = ControlConfig("VMTOC", 0.5, (-1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="target outside"):
        apply_control(lpa, cfg, [1.0, 1.0, 1.0])


def test_apply_control_dimension_mismatch(lpa):
    cfg = ControlConfig("VMTOC", 0.5, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_control(lpa, cfg, [1.0, 1.0])


# --- compose_vmtoc ---------------------------------------------------------


def test_compose_halves():
    t1, t2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    c, t = compose_vmtoc((0.5, t1), (0.5, t2))
    assert c == pytest.approx(0.75)
    np.testing.assert_allclose(t, t1 / 3.0 + 2.0 * t2 / 3.0, rtol=1e-15)


def test_compose_degenerate_zero_intensities():
    t1, t2 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    c, t = compose_vmtoc((0.6, t1), (0.0, t2))
    assert c == 0.6
    np.testing.assert_array_equal(t, t1)
    c, t = compose_vmtoc((0.0, t1), (0.7, t2))
    assert c == 0.7
    np.testing.assert_array_equal(t, t2)
    c, t = compose_vmtoc((0.0, None), (0.0, None))
    assert c == 0.0 and t is None


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.lists(st.floats(0, 100), min_size=3, max_size=3),
       st.lists(st.floats(0, 100), min_size=3, max_size=3),
       st.lists(st.floats(0, 200), min_size=3, max_size=3))
def test_compose_matches_two_stage_application(c1, c2, t1, t2, fx):
    # One step through both stages must equal one step of the composed control.
    t1, t2, fx = np.array(t1), np.array(t2), np.array(fx)
    stage1 = c1 * t1 + (1 - c1) * fx
    stage2 = c2 * t2 + (1 - c2) * stage1
    c, t = compose_vmtoc((c1, t1), (c2, t2))
    composed = c * t + (1 - c) * fx
    np.testing.assert_allclose(composed, stage2, atol=1e-12)
    assert 0.0 < c < 1.0
    # target is a convex combination of the two stage targets
    assert np.all(t >= np.minimum(t1, t2) - 1e-12)
    assert np.all(t <= np.maximum(t1, t2) + 1e-12)


# --- target_for_state ------------------------------------------------------


def test_target_for_state_fixed_point_gives_target_k():
    k = np.array([3.0, 4.0])
    f = linear_model(0.5, shift=k)  # f(K) = K
    c_k, t_k = target_for_state(f, k, alpha=1.7)
    np.testing.assert_allclose(t_k, k, atol=1e-12)
    assert c_k == pytest.approx(1.0 / 1.7)


def test_target_for_state_alpha_two_identity():
    f = linear_model(2.0, shift=np.array([1.0, -2.0]))
    k = np.array([5.0, 5.0])
    c_k, t_k = target_for_state(f, k, alpha=2.0)
    fk = f.evaluate(k)
    np.testing.assert_allclose(t_k, 2.0 * k - fk, rtol=1e-15)
    assert c_k == 0.5
    g_k = apply_control(f, ControlConfig("VMTOC", c_k, tuple(t_k)), k)
    np.testing.assert_allclose(g_k, k, atol=1e-12)


def test_target_for_state_lpa_oracle(lpa):
    # alpha = 1.25 keeps the target inside the orthant; verify the formula
    # componentwise against a direct evaluation and check the equilibrium.
    p = LpaParams()
    k = np.array([30.0, 30.0, 30.0])
    fk = lpa_eval(p, k)
    alpha = 1.25
    c_k, t_k = target_for_state(lpa, k, alpha)
    np.testing.assert_allclose(t_k, alpha * k + (1 - alpha) * fk, rtol=1e-14)
    assert c_k == pytest.approx(0.8)
    back = apply_control(lpa, ControlConfig("VMTOC", c_k, tuple(t_k)), k)
    np.testing.assert_allclose(back, k, atol=1e-12)


def test_target_for_state_alpha_too_large_for_orthant(lpa):
    # At alpha = 1.5 the first target component would go negative.
    with pytest.raises(ValueError, match="alpha too large"):
        target_for_state(lpa, np.array([30.0, 30.0, 30.0]), alpha=1.5)


def test_target_for_state_full_space_allows_large_alpha():
    # Same map on an unbounded domain accepts the ray point and returns K exactly.
    p = LpaParams()
    free = MapModel(dimension=3, evaluate=lambda x: lpa_eval(p, x),
                    jacobian=lambda x: lpa_jacobian(p, x),
                    domain=DomainSpec.full_space(3))
    k = np.array([30.0, 30.0, 30.0])
    c_k, t_k = target_for_state(free, k, alpha=1.5)
    np.testing.assert_allclose(t_k, 1.5 * k - 0.5 * lpa_eval(p, k), rtol=1e-14)
    g_k = c_k * t_k + (1 - c_k) * lpa_eval(p, k)
    np.testing.assert_allclose(g_k, k, atol=1e-12)


def test_target_for_state_boundary_rejected(lpa):
    with pytest.raises(ValueError, match="boundary"):
        target_for_state(lpa, np.array([0.0, 10.0, 10.0]), alpha=1.2)
    with pytest.raises(ValueError, match="alpha"):
        target_for_state(lpa, np.array([10.0, 10.0, 10.0]), alpha=1.0)


# --- conjugacy --------------------------------------------------------------


def test_conjugate_state_basics():
    cfg = ControlConfig("VMTOC", 0.0, (5.0, 5.0))
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(conjugate_state(cfg, x), x)
    cfg = ControlConfig("VTOC", 0.3, (5.0, 5.0))
    np.testing.assert_allclose(conjugate_state(cfg, np.array([5.0, 5.0])),
                               [5.0, 5.0], atol=1e-15)
    with pytest.raises(ValueError, match="scalar"):
        conjugate_state(ControlConfig("DIAG-VMTOC", (0.3, 0.2), (1.0, 1.0)), x)


def test_orbit_correspondence_under_conjugacy(lpa):
    # phi-mapped VTOC orbit == VMTOC orbit started from phi(x0), 100 steps.
    rng = np.random.default_rng(7)
    c = 0.23
    target = tuple(rng.uniform(0, 60, 3))
    vtoc = ControlConfig("VTOC", c, target)
    vmtoc = ControlConfig("VMTOC", c, target)
    x = rng.uniform(0, 50, 3)
    y = conjugate_state(vtoc, x)
    worst = 0.0
    for _ in range(100):
        x = apply_control(lpa, vtoc, x)
        y = apply_control(lpa, vmtoc, y)
        worst = max(worst, float(np.max(np.abs(conjugate_state(vtoc, x) - y))))
    assert worst < 1e-9


def test_controlled_map_jacobian_chain_rule(lpa):
    x = np.array([14.0, 9.0, 3.0])
    for scheme, intensity in (("VMTOC", 0.4), ("VTOC", 0.4), ("PF", 0.25),
                              ("MPF", 0.25), ("DIAG-VMTOC", (0.2, 0.3, 0.4))):
        cfg = ControlConfig(scheme, intensity, (20.0, 20.0, 5.0))
        g = controlled_map(lpa, cfg)
        from chaosctl import fd_jacobian
        np.testing.assert_allclose(g.jacobian_at(x), fd_jacobian(g.evaluate, x),
                                   rtol=2e-5, atol=1e-8)


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF"])
def test_controlled_rows_match_controlled_map_bitwise(lpa, scheme):
    target = (30.0, 30.0, 200.0)
    cs = [0.0, 0.2, 0.55, 0.9]
    rows = np.random.default_rng(5).uniform(0.0, 80.0, (len(cs), 3))
    out = controlled_rows(lpa, scheme, target, cs)(rows)
    for c, x, y in zip(cs, rows, out):
        g = controlled_map(lpa, ControlConfig(scheme, c, target))
        np.testing.assert_array_equal(y, g.evaluate_batch(x[None, :])[0])
    with pytest.raises(ValueError, match="intensities"):
        controlled_rows(lpa, scheme, target, [0.5, 1.0])
