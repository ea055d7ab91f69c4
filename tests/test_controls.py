import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from chaosctl import core, models
from chaosctl.controls import ControlConfigError, controlled_rows
from chaosctl.models import LpaParams, RickerParams, lpa_eval, lpa_jacobian, lpa_map, ricker_lift

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


@pytest.mark.parametrize("model, target", [(lpa_map(), (30.0, 200.0, 30.0)),
                                           (ricker_lift(RickerParams(r=2.0, delay=3)),
                                            (1.0, 2.0, 3.0))], ids=["lpa", "ricker-3"])
@pytest.mark.parametrize("intensity", [0.37, (0.2, 0.5, 0.7)], ids=["scalar", "vector"])
def test_diag_vmtoc_is_vmtoc_bitwise(model, target, intensity):
    # one scheme under two names: every form of the map, at a scalar
    # intensity or one per component
    vmtoc = controlled_map(model, ControlConfig("VMTOC", intensity, target))
    diag = controlled_map(model, ControlConfig("DIAG-VMTOC", intensity, target))
    rows = np.random.default_rng(3).uniform(0.0, 60.0, (50, 3))
    for form in ("evaluate_batch", "jacobian_rows"):
        assert (getattr(diag, form)(rows).tobytes() == getattr(vmtoc, form)(rows).tobytes())
    for x in rows:
        assert diag.evaluate(x).tobytes() == vmtoc.evaluate(x).tobytes()
        assert diag.jacobian(x).tobytes() == vmtoc.jacobian(x).tobytes()
        assert (diag.evaluate_floats(tuple(x.tolist()))
                == vmtoc.evaluate_floats(tuple(x.tolist())))


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
    # every scheme takes a scalar or one intensity per component
    assert ControlConfig("VMTOC", (0.5, 0.25), (1.0, 1.0)).intensity == (0.5, 0.25)
    assert ControlConfig("DIAG-VMTOC", 0.3, (1.0, 1.0)).intensity == 0.3
    with pytest.raises(ControlConfigError) as err:
        ControlConfig("VTOC", ((0.5, 0.5),), (1.0, 1.0))
    assert (err.value.field, str(err.value)) == (
        "intensity", "VTOC takes a scalar or a 1-D vector of intensities, got shape (1, 2)")
    # a vector's length is the model's, checked as the map is built
    with pytest.raises(ControlConfigError) as err:
        controlled_map(linear_model(0.5, dim=3), ControlConfig("VMTOC", (0.5, 0.5), (1.0,) * 3))
    assert (err.value.field, str(err.value)) == (
        "intensity", "dimension mismatch: expected 3 intensities, got 2")
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


@pytest.mark.parametrize("first, second, stage, shape", [
    (((0.1, 0.2, 0.3), (1, 2, 3)), (0.2, (1, 2, 3)), "first", (3,)),
    ((0.2, (1, 2, 3)), (np.array([0.1, 0.2, 0.3]), (1, 2, 3)), "second", (3,)),
    (((0.0, 0.0), (1, 2)), (0.0, None), "first", (2,)),
])
def test_compose_rejects_a_per_component_intensity_by_stage(first, second, stage, shape):
    with pytest.raises(ValueError) as err:
        compose_vmtoc(first, second)
    assert str(err.value) == (f"compose_vmtoc composes scalar stages, but the {stage} stage "
                              f"has intensities of shape {shape}")


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


def test_target_for_state_rejects_an_image_of_the_wrong_size():
    # a 3-D map whose image is a scalar: f(K) would broadcast into T
    f = MapModel(dimension=3, evaluate=lambda x: 0.5 * float(x[0]),
                 domain=DomainSpec.nonnegative_orthant(3))
    with pytest.raises(ValueError) as err:
        target_for_state(f, (1.0, 1.0, 1.0), alpha=2.0)
    assert str(err.value) == "the map gave an image of shape (), but the model has dimension 3"


@pytest.mark.parametrize("beyond", [np.inf, np.nan])
def test_target_for_state_names_a_non_finite_image(beyond):
    # 0.5*x up to 1 and not finite beyond: f(K) would make T non-finite
    f = MapModel(dimension=1, domain=DomainSpec.full_space(1),
                 evaluate=lambda x: np.where(np.asarray(x) > 1.0, beyond, 0.5 * np.asarray(x)))
    assert target_for_state(f, (1.0,), alpha=2.0)[1].tolist() == [1.5]
    with pytest.raises(ValueError) as err:
        target_for_state(f, (2.0,), alpha=2.0)
    assert str(err.value) == "non-finite image at K = (2)"


def test_target_for_state_boundary_rejected(lpa):
    with pytest.raises(ValueError, match="boundary"):
        target_for_state(lpa, np.array([0.0, 10.0, 10.0]), alpha=1.2)
    with pytest.raises(ValueError, match="alpha"):
        target_for_state(lpa, np.array([10.0, 10.0, 10.0]), alpha=1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_target_for_state_rejects_a_non_finite_alpha_before_mapping_k(alpha):
    def evaluate(x):
        raise AssertionError("f(K) was evaluated")

    f = MapModel(dimension=3, evaluate=evaluate, domain=DomainSpec.nonnegative_orthant(3))
    with pytest.raises(ValueError) as err:
        target_for_state(f, (1.0, 1.0, 1.0), alpha)
    assert str(err.value) == f"alpha must be finite and greater than 1, got {alpha}"


@pytest.mark.parametrize("scheme, intensity, target, field, message", [
    ("VMTOC", 0.3, "123", "target", "target must be a 1-D vector, got shape ()"),
    ("VMTOC", 0.3, "1,2,3", "target", "target must be a 1-D vector, got shape ()"),
    ("VMTOC", 0.3, 5.0, "target", "target must be a 1-D vector, got shape ()"),
    ("VMTOC", 0.3, ((1, 2, 3),), "target", "target must be a 1-D vector, got shape (1, 3)"),
    ("PF", 0.3, ((1, 2, 3),), "target", "target must be a 1-D vector, got shape (1, 3)"),
    ("VMTOC", 0.3, ((1, 2), (3,)), "target",
     "target must hold numbers: setting an array element with a sequence"),
    ("DIAG-VMTOC", ((0.1, 0.2, 0.3),), (1, 2, 3), "intensity",
     "DIAG-VMTOC takes a scalar or a 1-D vector of intensities, got shape (1, 3)"),
    ("DIAG-VMTOC", ((0.1,), (0.2, 0.3)), (1, 2, 3), "intensity",
     "intensity must hold numbers: setting an array element with a sequence"),
    ("VMTOC", 0.3, ("a", "b", "c"), "target",
     "target must hold numbers: could not convert string to float: 'a'"),
])
def test_control_config_names_the_field_and_shape_of_a_malformed_input(scheme, intensity,
                                                                      target, field, message):
    with pytest.raises(ControlConfigError) as err:
        ControlConfig(scheme, intensity, target)
    assert err.value.field == field
    # a ragged nesting's message goes on with numpy's own words
    assert str(err.value) == message or str(err.value).startswith(message + ".")


# --- conjugacy --------------------------------------------------------------


def test_conjugate_state_basics():
    cfg = ControlConfig("VMTOC", 0.0, (5.0, 5.0))
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(conjugate_state(cfg, x), x)
    cfg = ControlConfig("VTOC", 0.3, (5.0, 5.0))
    np.testing.assert_allclose(conjugate_state(cfg, np.array([5.0, 5.0])),
                               [5.0, 5.0], atol=1e-15)
    # per-component intensities are C = diag(c)
    c, t = np.array([0.3, 0.2]), np.array([1.0, 4.0])
    np.testing.assert_array_equal(
        conjugate_state(ControlConfig("DIAG-VMTOC", tuple(c), tuple(t)), x),
        c * t + (1.0 - c) * x)
    with pytest.raises(ValueError, match="^dimension mismatch: expected 2 intensities, got 3$"):
        conjugate_state(ControlConfig("VTOC", (0.1, 0.2, 0.3), (1.0, 2.0)), x)
    # the state is checked against the target, and blamed
    with pytest.raises(ValueError, match="^state has 2 components, but the target has 3$"):
        conjugate_state(ControlConfig("VMTOC", 0.3, (1.0, 2.0, 3.0)), x)


def test_orbit_correspondence_under_conjugacy(lpa):
    # phi-mapped VTOC orbit == VMTOC orbit started from phi(x0), 100 steps,
    # at a scalar intensity and at one per component, C = diag(c)
    for c in (0.23, (0.23, 0.5, 0.71), (0.6, 0.05, 0.3)):
        rng = np.random.default_rng(7)
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
        assert worst < 1e-9, c


def test_controlled_map_jacobian_chain_rule(lpa):
    x = np.array([14.0, 9.0, 3.0])
    # a vector intensity scales the Jacobian's rows after the map and its
    # columns before it
    for scheme, intensity in (("VMTOC", 0.4), ("VTOC", 0.4), ("PF", 0.25),
                              ("MPF", 0.25), ("DIAG-VMTOC", (0.2, 0.3, 0.4)),
                              ("VTOC", (0.2, 0.3, 0.4)), ("PF", (0.2, 0.3, 0.4)),
                              ("MPF", (0.2, 0.3, 0.4))):
        cfg = ControlConfig(scheme, intensity, (20.0, 20.0, 5.0))
        g = controlled_map(lpa, cfg)
        from chaosctl import fd_jacobian
        np.testing.assert_allclose(g.jacobian_at(x), fd_jacobian(g.evaluate, x),
                                   rtol=2e-5, atol=1e-8)


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
def test_controlled_array_steps_reject_states_without_the_model_dimension(scheme):
    # a base map that keeps the shape of any input would let the pull
    # broadcast a 1-D map over a state of four components
    def half(x):
        return 0.5 * np.asarray(x, float)

    base = MapModel(dimension=1, evaluate=half, evaluate_batch=half,
                    domain=DomainSpec.full_space(1))
    g = controlled_map(base, ControlConfig(scheme, 0.3, (0.0,)))
    for step, x in ((g.evaluate, np.ones(4)), (g.evaluate_batch, np.ones((2, 4)))):
        with pytest.raises(ValueError) as err:
            step(x)
        assert str(err.value) == (f"the base map gave an image of shape {x.shape}, "
                                  f"but the model has dimension 1")


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("model, target", [(lpa_map(), (30.0, 200.0, 30.0)),
                                           (ricker_lift(RickerParams(r=2.0, delay=3)),
                                            (1.0, 2.0, 3.0))], ids=["lpa", "ricker-3"])
def test_controlled_jacobian_equals_the_written_out_row_scale_bitwise(model, target, scheme):
    # (1-c)*J(x) after the map, (1-c)*J(c*T + (1-c)*x) before it; per
    # component, (1-c_i) scales row i after the map and column i before it
    d = model.dimension
    rng = np.random.default_rng(29)
    before = scheme in ("VTOC", "PF")
    t = np.zeros(d) if scheme in ("PF", "MPF") else np.array(target)
    rows = rng.uniform(0.0, 60.0, (300, d)) * rng.choice([0.0, 1e-3, 1.0, 20.0], (300, d))
    for c in (0.37, rng.uniform(0.0, 1.0, d)):
        g = controlled_map(model, ControlConfig(scheme, c, target))
        keep = 1.0 - c if before else np.reshape(1.0 - c, (-1, 1))
        for x in rows:
            expected = keep * model.jacobian(c * t + (1.0 - c) * x if before else x)
            assert g.jacobian(x).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
            assert (g.jacobian_at(x).view(np.uint64).tolist()
                    == expected.view(np.uint64).tolist())


@pytest.mark.parametrize("scheme, intensity", [("DIAG-VMTOC", (0.3, 0.4, 0.5)),
                                               ("VMTOC", 0.3), ("VTOC", 0.3)])
def test_controlled_jacobian_rejects_a_base_jacobian_of_the_wrong_shape(lpa, scheme, intensity):
    # DIAG-VMTOC's (1-c) column would broadcast a one-row base Jacobian to
    # (3, 3); the scalar schemes would keep its shape
    base = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                    jacobian=lambda x: lpa.jacobian(x)[:1, :])
    g = controlled_map(base, ControlConfig(scheme, intensity, (30.0, 30.0, 200.0)))
    with pytest.raises(ValueError) as err:
        g.jacobian_at(np.array([14.0, 9.0, 3.0]))
    assert str(err.value) == ("the base map gave a Jacobian of shape (1, 3), "
                              "but the model has dimension 3")


def test_controlled_map_evaluates_batches_only_when_its_base_does(lpa):
    cfg = ControlConfig("VMTOC", 0.3, (30.0, 30.0, 200.0))
    plugin = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain)
    assert controlled_map(plugin, cfg).evaluate_batch is None
    g = controlled_map(lpa, cfg)
    rows = np.array([[14.0, 9.0, 3.0], [1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(g.evaluate_batch(rows),
                                  controlled_map(plugin, cfg).evaluate_rows(rows))


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
def test_controlled_batch_steps_call_the_base_batch_step_directly(lpa, monkeypatch, scheme):
    # the controlled step checks the base image itself, so evaluate_rows,
    # which checks it too, is not on its path
    def evaluate_rows(self, rows):
        raise AssertionError("evaluate_rows ran")

    monkeypatch.setattr(MapModel, "evaluate_rows", evaluate_rows)
    rows = np.array([[14.0, 9.0, 3.0], [1.0, 2.0, 3.0]])
    g = controlled_map(lpa, ControlConfig(scheme, 0.3, (30.0, 30.0, 200.0)))
    np.testing.assert_array_equal(g.evaluate_batch(rows), [g.evaluate(x) for x in rows])
    step_for, _ = controlled_rows(lpa, scheme, (30.0, 30.0, 200.0), [0.3, 0.3])
    np.testing.assert_array_equal(_on_rows(step_for(np.arange(2)), rows), g.evaluate_batch(rows))


def _on_rows(step, rows):
    """The images of the rows ``(n, d)`` under a scan's step ``(x, out)`` of columns."""
    out = np.empty(rows.T.shape)
    step(np.ascontiguousarray(rows.T), out)
    return out.T


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
def test_controlled_rows_match_controlled_map_bitwise(lpa, scheme):
    target = (30.0, 30.0, 200.0)
    # every row of a 64-row batch, intensities spread over [0, 1) from 0
    cs = [k / 64 for k in range(64)]
    rows = np.random.default_rng(5).uniform(0.0, 80.0, (len(cs), 3))
    step_for, map_at = controlled_rows(lpa, scheme, target, cs)
    out = _on_rows(step_for(np.arange(len(cs))), rows)
    for r, (c, x, y) in enumerate(zip(cs, rows, out)):
        g = controlled_map(lpa, ControlConfig(scheme, c, target))
        np.testing.assert_array_equal(y, g.evaluate_batch(x[None, :])[0])
        np.testing.assert_array_equal(y, g.evaluate(x))
        np.testing.assert_array_equal(y, map_at(r).evaluate(x))
    # a subset of the grid, in any order, steps as its own rows
    np.testing.assert_array_equal(_on_rows(step_for(np.array([9, 2])), rows[[9, 2]]),
                                  out[[9, 2]])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\), got 1\.0"):
        controlled_rows(lpa, scheme, target, [0.5, 1.0])


# a scan's column step, against the grid points' lone float steps and the
# public batch step: on signed zeros and subnormals, at c = 0 and toward
# targets with zero components
_SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310]
_COLUMN_MODELS = {"lpa": lpa_map(), **{f"ricker-{d}": ricker_lift(RickerParams(r=2.0, delay=d))
                                       for d in (2, 3, 4, 5)}}


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF"])
@pytest.mark.parametrize("kind", sorted(_COLUMN_MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_column_step_equals_the_float_and_batch_steps_bitwise(kind, scheme, data):
    model = _COLUMN_MODELS[kind]
    d = model.dimension
    n = data.draw(st.integers(1, 6), label="n")
    value = st.one_of(st.sampled_from(_SPECIAL), st.floats(0.0, 80.0))
    rows = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                       min_size=n, max_size=n), label="rows"))
    cs = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
                            min_size=n, max_size=n), label="cs")
    target = tuple(data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                                st.floats(0.0, 80.0)),
                                      min_size=d, max_size=d), label="target"))
    step_for, map_at = controlled_rows(model, scheme, target, cs)
    step = step_for(np.arange(n))
    side = "before" if scheme in ("VTOC", "PF") else "after"
    assert step.formula[1] == f"arrays {side}"
    out = np.full((d, n), np.nan)
    step(np.ascontiguousarray(rows.T), out)
    for r, (c, x) in enumerate(zip(cs, rows)):
        g = controlled_map(model, ControlConfig(scheme, c, target))
        lone = np.array(map_at(r).evaluate_floats(tuple(x.tolist())), dtype=float)
        assert out[:, r].tobytes() == lone.tobytes()
        assert out[:, r].tobytes() == g.evaluate_batch(rows)[r].tobytes()


@pytest.mark.parametrize("scheme, cs, message", [
    ("VMTOC", [0.2, math.nan], r"must lie in \[0, 1\), got nan"),
    ("DIAG-VMTOC", [0.2, 1.0], r"must lie in \[0, 1\), got 1\.0"),
])
def test_controlled_rows_rejects_before_mapping(lpa, scheme, cs, message):
    with pytest.raises(ValueError, match=message):
        controlled_rows(lpa, scheme, (30.0, 30.0, 200.0), cs)


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("model, target", [(lpa_map(), (30.0, 200.0, 30.0)),
                                           (ricker_lift(RickerParams(r=2.0, delay=3)),
                                            (1.0, 2.0, 3.0))], ids=["lpa", "ricker-3"])
def test_controlled_float_step_equals_controlled_evaluate_bitwise(model, target, scheme):
    d = model.dimension
    rng = np.random.default_rng(17)
    intensity = tuple(rng.uniform(0.0, 1.0, d)) if scheme == "DIAG-VMTOC" else 0.37
    g = controlled_map(model, ControlConfig(scheme, intensity, target))
    # magnitudes up to 8e5, where exp underflows and overflows, and -0.0
    rows = rng.uniform(-800.0, 800.0, (3000, d)) * rng.choice([0.0, 1e-3, 1.0, 1e3], (3000, d))
    rows[::5] = -0.0
    rows[2::5, 1] = -0.0
    with np.errstate(all="ignore"):
        alone = np.array([g.evaluate(x) for x in rows])
        floats = [g.evaluate_floats(tuple(x.tolist())) for x in rows]
    assert {type(y) for y in floats} == {tuple}
    np.testing.assert_array_equal(np.array(floats, dtype=float).view(np.uint64),
                                  alone.view(np.uint64))
    assert np.isinf(alone).any()


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
def test_controlled_plugin_steps_on_floats_through_its_derived_base_step(lpa, scheme):
    # a plugin with evaluate alone: its controlled float step goes through
    # the float step derived from evaluate, bitwise as the controlled evaluate
    plugin = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain)
    intensity = (0.2, 0.5, 0.7) if scheme == "DIAG-VMTOC" else 0.37
    g = controlled_map(plugin, ControlConfig(scheme, intensity, (30.0, 200.0, 30.0)))
    rng = np.random.default_rng(8)
    rows = rng.uniform(-800.0, 800.0, (1000, 3)) * rng.choice([0.0, 1e-3, 1.0, 1e3], (1000, 3))
    rows[::5] = -0.0
    with np.errstate(all="ignore"):
        alone = np.array([g.evaluate(x) for x in rows])
        floats = np.array([g.evaluate_floats(tuple(x.tolist())) for x in rows], dtype=float)
        own = controlled_map(lpa, ControlConfig(scheme, intensity, (30.0, 200.0, 30.0)))
        builtin = np.array([own.evaluate_floats(tuple(x.tolist())) for x in rows])
    np.testing.assert_array_equal(floats.view(np.uint64), alone.view(np.uint64))
    np.testing.assert_array_equal(floats.view(np.uint64), builtin.view(np.uint64))
    assert np.isinf(alone).any()


def _own_float_step_model(d):
    """A map of dimension ``d`` with its own float step: the delayed Ricker
    lift, or for ``d = 1`` the Ricker map x -> x exp(2 - x)."""
    if d > 1:
        return ricker_lift(RickerParams(r=2.0, delay=d))

    def components(x):
        return (x[0] * np.exp(2.0 - x[0]),)

    return MapModel(dimension=1, evaluate=lambda x: np.stack(components(np.asarray(x, float))),
                    evaluate_floats=components, domain=DomainSpec.nonnegative_orthant(1))


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 13])
def test_controlled_float_step_equals_evaluate_bitwise_in_every_dimension(scheme, d):
    # one written-out pull per dimension, before the map and after it, on
    # signed zeros, infinities, NaN and subnormals
    model = _own_float_step_model(d)
    rng = np.random.default_rng(d)
    intensity = tuple(rng.uniform(0.0, 1.0, d)) if scheme == "DIAG-VMTOC" else 0.37
    g = controlled_map(model, ControlConfig(scheme, intensity, tuple(rng.uniform(0.0, 3.0, d))))
    rows = rng.uniform(0.0, 5.0, (700, d)) * rng.choice([0.0, 1e-310, 1.0, 1e3], (700, d))
    for k, value in enumerate([-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310]):
        rows[k::7, k % d] = value
    with np.errstate(all="ignore"):
        alone = np.array([g.evaluate(x) for x in rows])
        floats = [g.evaluate_floats(tuple(x.tolist())) for x in rows]
    assert {type(y) for y in floats} == {tuple}
    np.testing.assert_array_equal(np.array(floats, dtype=float).view(np.uint64),
                                  alone.view(np.uint64))
    assert np.isnan(alone).any() and np.isinf(alone).any()


@pytest.mark.parametrize("scheme, side", [("VMTOC", "after"), ("MPF", "after"),
                                          ("DIAG-VMTOC", "after"), ("VTOC", "before"),
                                          ("PF", "before")],
                         ids=["VMTOC", "MPF", "DIAG-VMTOC", "VTOC", "PF"])
def test_controlled_maps_of_one_dimension_keep_their_own_constants(scheme, side):
    # a controlled float step is compiled once per formula and side of the
    # map, fused with the formula, and once per dimension and side around
    # the float step of a model without one; its constants are each map's own
    model = ricker_lift(RickerParams(r=2.0, delay=3))
    plugin = MapModel(dimension=3, evaluate=model.evaluate, domain=model.domain)
    other = ricker_lift(RickerParams(r=2.5, delay=3))
    other_side = "before" if side == "after" else "after"

    def config(c, target):
        return ControlConfig(scheme, (c, c / 2, c / 3) if scheme == "DIAG-VMTOC" else c, target)

    formula = models._ricker_formula(3)
    for base, make in [(model, core._formula_maker(formula, side)),
                       (other, core._formula_maker(formula, side)),
                       (plugin, core._wrapper_maker(3, side))]:
        maps = [controlled_map(base, config(0.2, (1.0, 2.0, 3.0))),
                controlled_map(base, config(0.6, (3.0, 1.0, 2.0)))]
        y = (0.5, 1.5, 2.5)
        steps = [g.evaluate_floats(y) for g in maps]
        assert steps[0] != steps[1]
        for g, step in zip(maps, steps):
            # a derived base step gives a list, which the pull before the map returns
            assert tuple(step) == tuple(g.evaluate(np.array(y)).tolist())
        controlled_map(base, config(0.9, (0.1, 0.1, 0.1)))
        assert [g.evaluate_floats(y) for g in maps] == steps
        # one code object, compiled once, for every map of the formula or dimension
        assert {g.evaluate_floats.__code__ for g in maps} <= set(make.__code__.co_consts)
    assert core._formula_maker(formula, side) is core._formula_maker(formula, side)
    assert core._wrapper_maker(3, side) is core._wrapper_maker(3, side)
    assert (core._formula_maker(formula, side).__code__
            is not core._formula_maker(formula, other_side).__code__)
    assert core._wrapper_maker(3, side) is not core._wrapper_maker(3, other_side)
    assert controlled_map(model, config(0.2, (1.0, 2.0, 3.0))).evaluate_floats(y) != (
        controlled_map(other, config(0.2, (1.0, 2.0, 3.0))).evaluate_floats(y))


_RICKER2 = ricker_lift(RickerParams(r=2.0, delay=2))


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "DIAG-VMTOC"])
@pytest.mark.parametrize("c", [math.nan, -0.1, 1.0, math.inf, 1, np.float64(1.5)])
def test_controlled_map_rejects_a_bad_intensity_by_field(scheme, c):
    intensity = (0.3, c) if scheme == "DIAG-VMTOC" else c
    with pytest.raises(ControlConfigError) as err:
        controlled_map(_RICKER2, ControlConfig(scheme, intensity, (1.0, 3.0)))
    assert type(err.value) is ControlConfigError and err.value.field == "intensity"
    assert str(err.value) == f"control intensity must lie in [0, 1), got {float(c)}"


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "DIAG-VMTOC"])
@pytest.mark.parametrize("target, message", [
    ((math.nan, 3.0), "non-finite target"),
    ((1.0, math.inf), "non-finite target"),
    ((1.0, 3.0, 2.0), "dimension mismatch: expected 2 components, got 3"),
    ((1.0,), "dimension mismatch: expected 2 components, got 1"),
    ((math.nan,), "dimension mismatch: expected 2 components, got 1"),
    ((-1.0, 3.0), "target outside the model domain"),
    ((1.0, -1e-300), "target outside the model domain"),
])
def test_controlled_map_rejects_a_bad_target_by_field(scheme, target, message):
    intensity = (0.3, 0.3) if scheme == "DIAG-VMTOC" else 0.3
    with pytest.raises(ControlConfigError) as err:
        controlled_map(_RICKER2, ControlConfig(scheme, intensity, target))
    assert type(err.value) is ControlConfigError and err.value.field == "target"
    assert str(err.value) == message


def test_controlled_map_accepts_a_boundary_target_and_ignores_a_targetless_one():
    # -0.0 lies on the orthant's boundary; PF and MPF ignore any target
    g = controlled_map(_RICKER2, ControlConfig("VMTOC", 0.3, (-0.0, 3.0)))
    assert g.evaluate_floats((1.0, 1.0)) == tuple(g.evaluate(np.ones(2)).tolist())
    for scheme in ("PF", "MPF"):
        controlled_map(_RICKER2, ControlConfig(scheme, 0.3, (math.nan, -1.0, 2.0)))
    controlled_map(_RICKER2, ControlConfig("VMTOC", -0.0, (1.0, 3.0)))
