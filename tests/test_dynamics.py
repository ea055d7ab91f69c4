import contextlib
import functools
import itertools
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosctl import (
    ControlConfig,
    DomainSpec,
    MapModel,
    OrbitError,
    ScanRecord,
    apply_control,
    as_state,
    bifurcation_scan,
    compose_vmtoc,
    controlled_map,
    dynamics,
    detect_bubbles,
    detect_period,
    detect_periods,
    iterate_orbit,
    lpa_recruitment_bound,
    lyapunov_max,
    overall_period,
)
from chaosctl import controls, core
from chaosctl.controls import controlled_rows
from chaosctl.models import LpaParams, RickerParams, lpa_map, ricker_lift

from conftest import LPA_FIXED_POINT, counting_lpa


def test_orbit_constant_at_fixed_point(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.6, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, lpa_k, n_transient=5, n_keep=10)
    assert orbit.shape == (10, 3)
    np.testing.assert_allclose(orbit, np.tile(lpa_k, (10, 1)), atol=1e-10)


def test_orbit_error_reports_step_index():
    f = MapModel(dimension=1, evaluate=lambda x: np.array([x[0] * 1e200]),
                 domain=DomainSpec.full_space(1))
    with pytest.raises(OrbitError, match="step 1") as err:
        iterate_orbit(f, None, np.array([1e100]), 0, 5)
    assert err.value.step == 1


def test_orbit_strict_mode_rejects_domain_exit():
    f = MapModel(dimension=1, evaluate=lambda x: np.array([x[0] - 1.0]),
                 domain=DomainSpec.nonnegative_orthant(1))
    with pytest.raises(OrbitError, match="domain"):
        iterate_orbit(f, None, np.array([2.5]), 0, 5, strict=True)
    # advisory by default
    orbit = iterate_orbit(f, None, np.array([2.5]), 0, 5)
    assert orbit.shape == (5, 1)


def test_uncontrolled_lpa_attractor_stays_in_derived_box(lpa):
    # componentwise bounds implied by the map itself: the first component is
    # capped by the recruitment peak, the second by survival of the first,
    # and the third contracts below sup(P)/(1 - (1-mu_a)) after a transient.
    p = LpaParams()
    l_max = lpa_recruitment_bound(p)
    p_max = (1.0 - p.mu_l) * l_max
    a_max = p_max / (1.0 - (1.0 - p.mu_a))
    orbit = iterate_orbit(lpa, None, np.array([22.0, 27.0, 5.0]),
                          n_transient=3000, n_keep=1000)
    assert np.all(orbit >= 0.0)
    assert np.all(orbit[:, 0] <= l_max)
    assert np.all(orbit[:, 1] <= p_max)
    assert np.all(orbit[:, 2] <= a_max)


def test_vmtoc_above_threshold_converges_to_fixed_point(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, lpa_k + np.array([1.0, -1.0, 0.5]),
                          n_transient=500, n_keep=1)
    assert np.max(np.abs(orbit[0] - lpa_k)) < 1e-6


# --- period detection --------------------------------------------------------


def test_detect_period_constant_and_alternating():
    const = np.tile([3.0, 7.0], (40, 1))
    assert detect_period(const, max_period=8) == (1, 1)
    alt = np.array([[1.0, 5.0] if i % 2 == 0 else [2.0, 5.0] for i in range(40)])
    assert detect_period(alt, max_period=8) == (2, 1)
    assert overall_period((2, 1)) == 2
    assert overall_period((2, 3)) == 6
    assert overall_period((2, None)) is None


def test_detect_period_cyclic_shift_invariance():
    base = [1.0, 4.0, 2.0]  # period 3
    for shift in range(3):
        v = np.array([(base * 20)[shift:shift + 30]]).T
        assert detect_period(v, max_period=10) == (3,)


def test_detect_period_errors():
    with pytest.raises(ValueError, match="too short"):
        detect_period(np.zeros((10, 1)), max_period=8)
    with pytest.raises(ValueError, match="tol"):
        detect_period(np.zeros((40, 1)), tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
        detect_period(np.zeros((40, 1)), tol=math.nan)


def _periods_by_loop(orbit, tol, max_period):
    """The period of each component of one ``(n, d)`` window, one component
    and one candidate period at a time."""
    periods = []
    for j in range(orbit.shape[1]):
        v = orbit[:, j]
        scale = tol * (1.0 + np.abs(v))
        found = None
        for p in range(1, max_period + 1):
            if np.all(np.abs(v[p:] - v[:-p]) < scale[:-p]):
                found = p
                break
        periods.append(found)
    return tuple(periods)


def _cycling_windows(rng, records, n_keep, d, tol):
    """Exact cycles, some nudged just inside or just outside ``tol`` or
    holding NaN, +-inf or -0.0."""
    cycle = rng.integers(1, n_keep // 2 + 3, size=(records, 1, d))
    values = rng.choice([0.0, 1.0, -3.5, 1e6], size=(records, n_keep, d))
    values += rng.uniform(-100.0, 100.0, size=values.shape) * rng.integers(0, 2, size=values.shape)
    steps = np.arange(n_keep)[None, :, None] % cycle
    points = np.take_along_axis(values, steps, axis=1)
    nudged = rng.random(points.shape) < 0.03
    ratio = rng.choice([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0], size=points.shape)
    sign = rng.choice([-1.0, 1.0], size=points.shape)
    points = np.where(nudged, points + sign * ratio * tol * (1.0 + np.abs(points)), points)
    special = rng.random(points.shape) < 0.01
    return np.where(special, rng.choice([np.nan, np.inf, -np.inf, -0.0], size=points.shape),
                    points)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(2, 24),
       st.sampled_from([1e-5, 1e-3, 0.25]), st.integers(0, 2**32 - 1), st.data())
def test_detect_periods_equals_per_component_loop(records, d, n_keep, tol, seed, data):
    max_period = data.draw(st.integers(1, n_keep // 2))
    points = _cycling_windows(np.random.default_rng(seed), records, n_keep, d, tol)
    with np.errstate(all="ignore"):
        got = detect_periods(points, tol=tol, max_period=max_period)
        expected = [_periods_by_loop(w, tol, max_period) for w in points]
        assert got == expected
        assert [detect_period(w, tol=tol, max_period=max_period) for w in points] == expected
    assert all(type(p) is int for periods in got for p in periods if p is not None)


def test_detect_periods_checks_as_detect_period():
    assert detect_periods(np.zeros((0, 40, 2)), max_period=8) == []
    with pytest.raises(ValueError, match=r"points must be a \(records, n, d\) array"):
        detect_periods(np.zeros((40, 2)))
    with pytest.raises(ValueError, match="orbit too short: 10 points for max_period 8"):
        detect_periods(np.zeros((3, 10, 1)), max_period=8)
    with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
        detect_periods(np.zeros((3, 40, 1)), tol=math.nan)
    with pytest.raises(ValueError, match="max_period must be at least 1"):
        detect_periods(np.zeros((3, 40, 1)), max_period=0)


def test_chaotic_lpa_orbit_classified_aperiodic(lpa):
    orbit = iterate_orbit(lpa, None, np.array([22.0, 27.0, 5.0]),
                          n_transient=3000, n_keep=64)
    assert detect_period(orbit, tol=1e-6, max_period=32) == (None, None, None)


# --- scans -------------------------------------------------------------------


def test_scan_c_zero_reproduces_uncontrolled_orbit(lpa):
    records = bifurcation_scan(lpa, "VMTOC", (1.0, 1.0, 1.0), [0.0],
                               seed=9, n_transient=100, n_keep=20)
    rng = np.random.default_rng([9, 0])
    x0 = rng.uniform(np.zeros(3), np.full(3, 50.0))
    manual = iterate_orbit(lpa, None, x0, 100, 20)
    np.testing.assert_array_equal(records[0].points, manual)


def test_scan_determinism_bitwise(lpa, lpa_k):
    grid = [0.1, 0.35, 0.6]
    a = bifurcation_scan(lpa, "VMTOC", tuple(lpa_k), grid, seed=4,
                         n_transient=300, n_keep=20)
    b = bifurcation_scan(lpa, "VMTOC", tuple(lpa_k), grid, seed=4,
                         n_transient=300, n_keep=20)
    for ra, rb in zip(a, b):
        assert ra.c == rb.c and ra.periods == rb.periods and ra.seed == rb.seed
        assert np.array_equal(ra.points, rb.points)


def test_scan_stabilized_records_satisfy_equilibrium_identity(lpa, lpa_k):
    t = tuple(lpa_k)
    records = bifurcation_scan(lpa, "VMTOC", t, [0.4, 0.6, 0.8], seed=2,
                               n_transient=2000, n_keep=20)
    for rec in records:
        assert rec.periods == (1, 1, 1)
        x = rec.points[-1]
        resid = rec.c * np.array(t) + (1 - rec.c) * lpa.evaluate(x) - x
        assert np.max(np.abs(resid)) < 1e-6


def test_scan_matches_composed_two_stage_iteration(lpa):
    t1, t2 = (25.0, 20.0, 6.0), (32.0, 24.0, 5.0)
    c1, c2 = 0.3, 0.45
    c, t = compose_vmtoc((c1, np.array(t1)), (c2, np.array(t2)))
    records = bifurcation_scan(lpa, "VMTOC", tuple(t), [c], seed=13,
                               n_transient=50, n_keep=30)
    rng = np.random.default_rng([13, 0])
    x = rng.uniform(np.zeros(3), np.full(3, 50.0))
    kept = []
    for i in range(80):
        fx = lpa.evaluate(x)
        x = c2 * np.array(t2) + (1 - c2) * (c1 * np.array(t1) + (1 - c1) * fx)
        if i >= 50:
            kept.append(x)
    np.testing.assert_allclose(records[0].points, kept, atol=1e-12)


def test_scan_records_error_instead_of_raising():
    f = MapModel(dimension=1, evaluate=lambda x: np.array([x[0] * 1e160]),
                 domain=DomainSpec.full_space(1))
    records = bifurcation_scan(f, "VMTOC", (1.0,), [0.0, 0.5], seed=0,
                               init_lo=1e160, init_hi=2e160,
                               n_transient=0, n_keep=4)
    assert records[0].error is not None and "non-finite" in records[0].error
    assert records[0].periods == (None,)


def test_scan_rejects_bad_grid(lpa):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\), got 1\.0"):
        bifurcation_scan(lpa, "VMTOC", (1.0, 1.0, 1.0), [1.0])


@pytest.mark.parametrize("scheme, target, message", [
    ("DIAG-VMTOC", (1.0, 1.0, 1.0), "expected 3 intensities"),
    ("VMTOC", (-1.0, 22.0, 4.6), "target outside"),
    ("VTOC", (1.0, 1.0), "dimension mismatch"),
])
def test_scan_rejects_bad_control_before_iterating(lpa, scheme, target, message):
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(lpa, scheme, target, [0.0, 0.5], n_transient=10, n_keep=4)


@pytest.mark.parametrize("scheme, target, message", [
    ("BOGUS", (1.0, 1.0, 1.0), "unknown control scheme"),
    ("DIAG-VMTOC", (1.0, 1.0, 1.0), "got 'DIAG-VMTOC'"),
    ("VMTOC", (-1.0, 22.0, 4.6), "target outside"),
])
def test_scan_rejects_bad_control_with_an_empty_grid(lpa, scheme, target, message):
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(lpa, scheme, target, [])


@pytest.mark.parametrize("continue_orbits", [False, True], ids=["fresh", "chained"])
def test_scan_of_an_empty_grid_returns_no_records(lpa, continue_orbits):
    assert bifurcation_scan(lpa, "VMTOC", (30.0, 30.0, 200.0), [],
                            continue_orbits=continue_orbits) == []


def _never(x):
    raise AssertionError("an orbit ran")


def test_scan_rejects_diag_vmtoc_on_a_one_dimensional_map():
    # one component takes one intensity, so only the scheme name rejects it
    f = MapModel(dimension=1, evaluate=_never, domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError, match="DIAG-VMTOC"):
        bifurcation_scan(f, "DIAG-VMTOC", (1.0,), [0.2, 0.5], n_transient=10, n_keep=4)


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": 0.0}, "tol must be positive"),
    ({"max_period": 0}, "max_period must be at least 1"),
    ({"n_transient": -1}, "nonnegative"),
    ({"n_keep": -1}, "nonnegative"),
    ({"tol": math.nan}, "tol must be positive and finite, got nan"),
    # a period needs two kept states
    ({"n_keep": 1}, "n_keep must be at least 2 to detect a period, got 1"),
    ({"n_keep": 0}, "n_keep must be at least 2 to detect a period, got 0"),
    ({"n_keep": 1, "continue_orbits": True}, "n_keep must be at least 2"),
    ({"n_transient": 10.5}, "^n_transient must be an integer, got 10.5$"),
    ({"n_keep": 4.0}, "^n_keep must be an integer, got 4.0$"),
    ({"seed": -1}, "^seed must be nonnegative, got -1$"),
    ({"seed": -1, "continue_orbits": True}, "^seed must be nonnegative, got -1$"),
    ({"seed": 0.5}, "^seed must be an integer, got 0.5$"),
    ({"init_lo": [0.0, 0.0]}, r"^initial box: lo has shape \(2,\), but the model has dimension 3$"),
])
def test_scan_rejects_bad_parameters_before_iterating(kwargs, message):
    f = MapModel(dimension=3, evaluate=_never, domain=DomainSpec.nonnegative_orthant(3))
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(f, "VMTOC", (28.0, 22.0, 4.6), [0.2, 0.5], **kwargs)


@pytest.mark.parametrize("lo, hi", [(5.0, 1.0), ((0.0, 2.0, 0.0), (1.0, 1.0, 1.0)),
                                    (math.nan, 1.0), (0.0, math.inf), (-1e308, 1e308)])
@pytest.mark.parametrize("chained", [False, True])
def test_scan_rejects_a_bad_initial_box_before_iterating(lo, hi, chained):
    f = MapModel(dimension=3, evaluate=_never, domain=DomainSpec.nonnegative_orthant(3))
    with pytest.raises(ValueError, match="initial box needs lo <= hi with a finite width"):
        bifurcation_scan(f, "VMTOC", (28.0, 22.0, 4.6), [0.2, 0.5], init_lo=lo,
                         init_hi=hi, continue_orbits=chained)


@pytest.mark.parametrize("lo, hi, message", [
    ((0.0, 0.0), 1.0, r"^sample box: lo has shape \(2,\), but the model has dimension 3$"),
    (0.0, np.ones((3, 1)), r"^sample box: hi has shape \(3, 1\), but the model has dimension 3$"),
])
def test_initial_box_names_a_bound_of_the_wrong_shape(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        dynamics.initial_box(lo, hi, 3, "sample box")


def test_iterate_orbit_rejects_a_step_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^n_transient must be an integer, got 10.5$"):
        iterate_orbit(lpa_map(), None, (20, 20, 5), 10.5, 3)
    with pytest.raises(ValueError, match="^n_keep must be an integer, got 3.0$"):
        iterate_orbit(lpa_map(), None, (20, 20, 5), 10, 3.0)
    # numpy integers are integers
    np.testing.assert_array_equal(
        iterate_orbit(lpa_map(), None, (20, 20, 5), np.int64(10), np.int32(3)),
        iterate_orbit(lpa_map(), None, (20, 20, 5), 10, 3))


@pytest.mark.parametrize("max_period, message", [
    (2.5, "^max_period must be an integer, got 2.5$"),
    (4.0, "^max_period must be an integer, got 4.0$"),
    (0, "^max_period must be at least 1, got 0$"),
])
@pytest.mark.parametrize("chained", [False, True])
def test_scan_rejects_a_bad_max_period_before_evaluating(max_period, message, chained):
    model, calls = counting_lpa()
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(model, "VMTOC", LPA_FIXED_POINT, [0.2, 0.5], n_transient=10,
                         n_keep=20, max_period=max_period, continue_orbits=chained)
    assert sum(calls.values()) == 0


@pytest.mark.parametrize("detect", [detect_period, detect_periods])
def test_detect_period_rejects_a_max_period_that_is_not_an_integer(detect):
    points = np.zeros((40, 1)) if detect is detect_period else np.zeros((3, 40, 1))
    with pytest.raises(ValueError, match="^max_period must be an integer, got 2.5$"):
        detect(points, max_period=2.5)
    # numpy integers are integers
    assert detect(points, max_period=np.int64(4)) == detect(points, max_period=4)


def test_scan_takes_a_numpy_integer_max_period():
    kwargs = dict(n_transient=100, n_keep=20, seed=3)
    for rec, want in zip(bifurcation_scan(lpa_map(), "VMTOC", LPA_FIXED_POINT, [0.2, 0.5],
                                          max_period=np.int32(8), **kwargs),
                         bifurcation_scan(lpa_map(), "VMTOC", LPA_FIXED_POINT, [0.2, 0.5],
                                          max_period=8, **kwargs)):
        assert rec.periods == want.periods and rec.points.tobytes() == want.points.tobytes()


# boxes of one and three components: negative bounds, lo == hi, mixed widths
_DRAW_BOXES = [((0.0,), (50.0,)), ((-7.5,), (-0.25,)), ((3.0,), (3.0,)),
               ((0.0, 0.0, 0.0), (50.0, 50.0, 50.0)), ((-1e3, -2.0, 0.0), (-10.0, -2.0, 1e-9)),
               ((-5.0, 1.0, -1e-300), (5.0, 1e6, 1e-300))]


@pytest.mark.parametrize("lo, hi", _DRAW_BOXES)
def test_draw_x0_is_bitwise_the_generators_uniform(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    for seed in (0, 1, 123, 501, 2 ** 63 - 1):
        for index in range(300):
            reference = np.random.default_rng([seed, index]).uniform(lo, hi)
            assert dynamics.draw_x0(seed, index, lo, hi).tobytes() == reference.tobytes()


def test_scan_plugin_exception_fails_its_row_only():
    # no evaluate_batch: each grid point runs alone, and math.exp raises
    # OverflowError at a step that depends on the row's intensity and start
    f = MapModel(dimension=1, evaluate=lambda x: np.array([math.exp(x[0]) - 2.0]),
                 domain=DomainSpec.full_space(1))
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    records = bifurcation_scan(f, "VMTOC", (0.0,), grid, seed=2, init_lo=0.0,
                               init_hi=3.0, n_transient=20, n_keep=10)
    steps, survivors = set(), 0
    for i, (c, rec) in enumerate(zip(grid, records)):
        x0 = np.random.default_rng([2, i]).uniform(np.zeros(1), np.full(1, 3.0))
        cfg = ControlConfig("VMTOC", c, (0.0,))
        if rec.error:
            with pytest.raises(OrbitError) as err:
                iterate_orbit(f, cfg, x0, 20, 10)
            assert rec.error == str(err.value)
            assert f"step {err.value.step}:" in rec.error and "OverflowError" in rec.error
            steps.add(err.value.step)
        else:
            np.testing.assert_array_equal(rec.points, iterate_orbit(f, cfg, x0, 20, 10))
            survivors += 1
    assert len(steps) >= 2 and survivors >= 1


def test_scan_of_a_controlled_plugin_fails_only_its_overflowing_point():
    # the controlled map of a plugin without evaluate_batch has none either,
    # so its grid points run alone and one overflow fails only its own point
    f = MapModel(dimension=1, evaluate=lambda x: np.array([math.exp(x[0]) - 2.0]),
                 domain=DomainSpec.full_space(1))
    g = controlled_map(f, ControlConfig("VMTOC", 0.2, (0.0,)))
    assert g.evaluate_batch is None
    grid = [0.0, 0.3, 0.5, 0.7]
    records = bifurcation_scan(g, "VMTOC", (0.0,), grid, seed=1, init_lo=0.0, init_hi=3.0,
                               n_transient=20, n_keep=10)
    assert [rec.error for rec in records] == [
        "evaluation failed at step 4: OverflowError: math range error", None, None, None]
    for i, (c, rec) in enumerate(zip(grid[1:], records[1:]), start=1):
        x0 = dynamics.draw_x0(1, i, np.zeros(1), np.full(1, 3.0))
        np.testing.assert_array_equal(
            rec.points, iterate_orbit(g, ControlConfig("VMTOC", c, (0.0,)), x0, 20, 10))


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
@pytest.mark.parametrize("kind", ["lpa", "ricker"])
def test_scan_row_does_not_depend_on_its_batch(kind, scheme):
    # chaotic (c = 0), inside the (30,30,200) bubble (c = 0.25) and stable
    if kind == "lpa":
        model, target = lpa_map(), (30.0, 30.0, 200.0)
    else:
        model, target = ricker_lift(RickerParams(r=2.0, delay=2)), (1.0, 3.0)
    grid = [0.0, 0.25, 0.6]
    records = bifurcation_scan(model, scheme, target, grid, seed=21,
                               n_transient=1000, n_keep=40)
    assert None in records[0].periods
    assert all(p == 1 for p in records[2].periods)
    if kind == "lpa":
        assert records[1].periods[:2] == (2, 2)
    dim = model.dimension
    for i, (c, rec) in enumerate(zip(grid, records)):
        x0 = np.random.default_rng([21, i]).uniform(np.zeros(dim), np.full(dim, 50.0))
        alone = iterate_orbit(model, ControlConfig(scheme, c, target), x0, 1000, 40)
        np.testing.assert_array_equal(rec.points, alone)


@pytest.mark.parametrize("chained", [False, True])
def test_scan_periods_equal_per_record_loop(chained):
    # toward (30,30,200): chaotic, bubble (period 2) and stable records;
    # max_period 32 is capped at n_keep // 2 = 15
    grid = [k / 40 for k in range(40)]
    records = bifurcation_scan(lpa_map(), "VMTOC", (30.0, 30.0, 200.0), grid, seed=5,
                               n_transient=600, n_keep=30, max_period=32,
                               continue_orbits=chained)
    periods = [rec.periods for rec in records]
    assert periods == [_periods_by_loop(rec.points, 1e-5, 15) for rec in records]
    assert {None, 1, 2} <= {p for ps in periods for p in ps}


@pytest.mark.parametrize("chained", [False, True])
def test_scan_with_failed_records_classifies_the_others(chained):
    # x -> c*3 + (1-c)*x^2 from 0.5: 0 at c = 0, overflow at c = 0.5, and a
    # stable fixed point at c = 0.95
    f = MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) ** 2,
                 domain=DomainSpec.full_space(1))
    with np.errstate(over="ignore"):
        records = bifurcation_scan(f, "VMTOC", (3.0,), [0.0, 0.5, 0.95], seed=2,
                                   init_lo=0.5, init_hi=0.5, n_transient=300, n_keep=10,
                                   continue_orbits=chained)
    assert [rec.error for rec in records] == [None, "non-finite state at step 12", None]
    assert [rec.periods for rec in records] == [(1,), (None,), (1,)]
    assert records[2].periods == _periods_by_loop(records[2].points, 1e-5, 5)


def test_scan_continuation_chains_orbits(lpa, lpa_k):
    records = bifurcation_scan(lpa, "VMTOC", tuple(lpa_k), [0.5, 0.6],
                               seed=3, n_transient=100, n_keep=5,
                               continue_orbits=True)
    # second orbit starts from the final state of the first
    start = records[0].points[-1]
    manual = iterate_orbit(lpa, ControlConfig("VMTOC", 0.6, tuple(lpa_k)),
                           start, 100, 5)
    np.testing.assert_array_equal(records[1].points, manual)


# --- block-checked orbit loop ------------------------------------------------

# Each counter map sends x to x + 1 until its input reaches _LIMIT, so a row
# started at _LIMIT - s first misbehaves at step s: its image is not finite
# ("diverge"), its evaluate raises ("raise") or its image leaves the box
# [-_LIMIT, _LIMIT] ("leave").  The diverge and leave maps have a numpy
# batch; the raise map has only evaluate, so its orbits only run alone.
_LIMIT = 1000.0
# the batch's block, and the lone orbit's
_B = dynamics._BLOCK
_L = dynamics._LONE_BLOCK
_N_TRANSIENT = 2 * _B + 5
_N_KEEP = 20
# a block's last and first steps, the last transient step, a kept step and
# the final step
_STEPS = (_B - 1, _B, _B + 1, _N_TRANSIENT - 1, _N_TRANSIENT + 7,
          _N_TRANSIENT + _N_KEEP - 1)


def _raising(x):
    if x[0] >= _LIMIT:
        raise OverflowError("boom")
    return x + 1.0


def _counter_floats(y, kind):
    """The counter's step on a tuple of floats, which fails as its evaluate does."""
    if y[0] >= _LIMIT and kind != "leave":
        if kind == "raise":
            raise OverflowError("boom")
        return (math.inf,)
    return (y[0] + 1.0,)


def _counter_map(kind, floats=False):
    """The counter map of ``kind``; with ``floats`` it also has a float step."""
    extra = {"evaluate_floats": functools.partial(_counter_floats, kind=kind)} if floats else {}
    if kind == "diverge":
        def batch(rows):
            return np.where(rows < _LIMIT, rows + 1.0, np.inf)

        return MapModel(dimension=1, evaluate=lambda x: batch(x[None, :])[0],
                        evaluate_batch=batch, domain=DomainSpec.full_space(1), **extra)
    if kind == "raise":
        return MapModel(dimension=1, evaluate=_raising, domain=DomainSpec.full_space(1), **extra)
    return MapModel(dimension=1, evaluate=lambda x: x + 1.0,
                    evaluate_batch=lambda rows: rows + 1.0,
                    domain=DomainSpec.box([-_LIMIT], [_LIMIT]), **extra)


def _expected_message(kind, strict, step):
    if kind == "diverge":
        return f"non-finite state at step {step}"
    if kind == "raise":
        return f"evaluation failed at step {step}: OverflowError: boom"
    return f"state left the domain at step {step}" if strict else None


def _exit_lines(caplog):
    return [r.getMessage() for r in caplog.records if "left the domain" in r.getMessage()]


def _assert_orbit_fails_at_its_step(caplog, model, kind, strict, step):
    x0 = np.array([_LIMIT - step])
    message = _expected_message(kind, strict, step)
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        if message is None:
            orbit = iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP, strict=strict)
            ks = np.arange(_N_TRANSIENT + 1, _N_TRANSIENT + _N_KEEP + 1)
            np.testing.assert_array_equal(orbit[:, 0], x0[0] + ks)
        else:
            with pytest.raises(OrbitError) as err:
                iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP, strict=strict)
            assert err.value.step == step
            assert str(err.value) == message
    expected_lines = ([f"orbit left the domain at step {step} (advisory)"]
                      if kind == "leave" and not strict else [])
    assert _exit_lines(caplog) == expected_lines


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", ["diverge", "raise", "leave"])
@pytest.mark.parametrize("step", _STEPS)
def test_block_loop_single_orbit_fails_at_its_step(caplog, kind, strict, step):
    _assert_orbit_fails_at_its_step(caplog, _counter_map(kind), kind, strict, step)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", ["diverge", "raise", "leave"])
@pytest.mark.parametrize("step", _STEPS)
def test_float_step_orbit_fails_at_its_step_through_evaluate(caplog, kind, strict, step):
    # the failing step runs again through evaluate, so the failure, its
    # message and the exit line are those of an orbit without a float step
    _assert_orbit_fails_at_its_step(caplog, _counter_map(kind, floats=True), kind, strict,
                                    step)


def test_block_loop_warns_as_the_step_by_step_loop():
    _assert_warns_as_the_step_by_step_loop(floats=False)


def test_float_step_block_loop_warns_through_evaluate():
    # Python floats overflow without a warning; the failing step, run again
    # through evaluate, warns as the step-by-step loop does
    _assert_warns_as_the_step_by_step_loop(floats=True)


def _assert_warns_as_the_step_by_step_loop(floats):
    # 1e300 * 1e200 overflows at step 1, where the orbit fails; going on in
    # its block would next compute inf - inf, but that warning must not show
    def batch(rows):
        return rows * 1e200 - rows

    extra = {"evaluate_floats": lambda y: (y[0] * 1e200 - y[0],)} if floats else {}
    model = MapModel(dimension=1, evaluate=lambda x: batch(x[None, :])[0],
                     evaluate_batch=batch, domain=DomainSpec.full_space(1), **extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OrbitError, match="non-finite state at step 1"):
            iterate_orbit(model, None, np.array([1e100]), 0, 10)
    assert [str(w.message) for w in caught] == ["overflow encountered in multiply"]


@pytest.mark.parametrize("floats", [False, True])
@pytest.mark.parametrize("kind", ["diverge", "raise"])
@pytest.mark.parametrize("step, n_transient", [(s, _N_TRANSIENT) for s in _STEPS]
                         + [(s, 2 * _L) for s in (_L - 1, _L, _L + 1)])
def test_failing_lone_orbit_runs_only_its_failing_step_again(kind, step, n_transient, floats):
    # the steps up to the failure run once, in their blocks; then the
    # failing step alone runs again, through evaluate.  A diverging counter
    # runs on to step + 1, where inf recurs, unless its block or orbit ends
    model, calls = _counter_map(kind, floats), {"evaluate": 0, "floats": 0}

    def counting(name, f):
        def counted(x):
            calls[name] += 1
            return f(x)

        return counted

    extra = {"evaluate_floats": counting("floats", model.evaluate_floats)} if floats else {}
    model = MapModel(dimension=1, evaluate=counting("evaluate", model.evaluate),
                     domain=model.domain, **extra)
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, None, [_LIMIT - step], n_transient, _N_KEEP)
    assert err.value.step == step
    in_blocks = step + 1
    if kind == "diverge":
        in_blocks = min(step + 2, (step // _L + 1) * _L, n_transient + _N_KEEP)
    assert calls == ({"evaluate": 1, "floats": in_blocks} if floats
                     else {"evaluate": in_blocks + 1, "floats": 0})


@pytest.mark.parametrize("floats", [False, True])
@pytest.mark.parametrize("step", _STEPS)
def test_failing_step_raises_under_the_callers_errstate(step, floats):
    # doubling from 2**(1023 - step) overflows at `step`; the block runs
    # with warnings off, and the failing step again under all="raise"
    def double(x):
        return np.asarray(x, float) * 2.0

    extra = {"evaluate_floats": lambda y: (y[0] * 2.0,)} if floats else {}
    model = MapModel(dimension=1, evaluate=double, domain=DomainSpec.full_space(1), **extra)
    x0 = [2.0 ** (1023 - step)]
    with np.errstate(all="raise"), pytest.raises(OrbitError) as err:
        iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP)
    assert (err.value.step, str(err.value)) == (
        step, f"evaluation failed at step {step}: FloatingPointError: "
              f"overflow encountered in multiply")
    with np.errstate(over="ignore"), pytest.raises(OrbitError, match=f"non-finite state at "
                                                                     f"step {step}$"):
        iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP)


# (evaluate, evaluate_floats, shape of the image): a step whose image has
# the wrong number of components, on arrays and on tuples of floats
_WRONG_SIZES = {
    "array-scalar": (lambda x: 0.5 * x[0], None, ()),
    "array-long": (lambda x: np.array([0.5 * x[0], 1.0]), None, (2,)),
    "floats-pair": (lambda x: 0.5 * x, lambda y: (0.5 * y[0], 1.0), (2,)),
    "floats-scalar": (lambda x: 0.5 * x, lambda y: 0.5 * y[0], ()),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SIZES))
def test_step_of_the_wrong_size_raises_at_the_first_step(case):
    evaluate, evaluate_floats, shape = _WRONG_SIZES[case]
    calls = []

    def counted(f):
        return lambda x: calls.append(1) or f(x)

    model = MapModel(dimension=1, evaluate=counted(evaluate), domain=DomainSpec.full_space(1),
                     evaluate_floats=evaluate_floats and counted(evaluate_floats))
    with pytest.raises(ValueError) as err:
        iterate_orbit(model, None, [1.0], 2 * _B, 5)
    assert str(err.value) == (f"step 0 gave a state of shape {shape}, "
                              f"but the model has dimension 1")
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("case", ["array-long", "array-scalar"])
def test_controlled_evaluate_rejects_a_base_image_of_the_wrong_size(case, scheme):
    # either side of the map, the single-state step checks the base image
    evaluate, _, shape = _WRONG_SIZES[case]
    model = MapModel(dimension=1, evaluate=evaluate, domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError) as err:
        apply_control(model, ControlConfig(scheme, 0.3, (0.0,)), [1.0])
    assert str(err.value) == (f"the base map gave an image of shape {shape}, "
                              f"but the model has dimension 1")


@pytest.mark.parametrize("scheme", ["VMTOC", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("case", sorted(_WRONG_SIZES))
def test_post_map_control_fails_a_step_of_the_wrong_size_at_the_first_step(case, scheme):
    # the pull after the map would broadcast the image or cut it to size
    evaluate, evaluate_floats, shape = _WRONG_SIZES[case]
    model = MapModel(dimension=1, evaluate=evaluate, domain=DomainSpec.full_space(1),
                     evaluate_floats=evaluate_floats)
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, ControlConfig(scheme, 0.3, (0.0,)), [1.0], 2 * _B, 5)
    assert (err.value.step, str(err.value)) == (
        0, f"evaluation failed at step 0: ValueError: the base map gave an image of shape "
           f"{shape}, but the model has dimension 1")



# a float image one component short, one long, or a scalar, of d components
_WRONG_FLOAT_IMAGES = {
    "short": (lambda y: tuple(0.5 * v for v in y[:-1]), lambda d: (d - 1,)),
    "long": (lambda y: (*(0.5 * v for v in y), 1.0), lambda d: (d + 1,)),
    "scalar": (lambda y: 0.5 * y[0], lambda d: ()),
}


@pytest.mark.parametrize("scheme", ["VMTOC", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_WRONG_FLOAT_IMAGES))
def test_post_map_float_pull_fails_an_image_of_the_wrong_size_at_the_first_step(case, d,
                                                                               scheme):
    # the pull unpacks the image: a wrong size pays for its shape and names it
    image, shape = _WRONG_FLOAT_IMAGES[case]
    model = MapModel(dimension=d, evaluate=lambda x: 0.5 * np.asarray(x, float),
                     evaluate_floats=image, domain=DomainSpec.full_space(d))
    cfg = ControlConfig(scheme, (0.3,) * d if scheme == "DIAG-VMTOC" else 0.3, (0.0,) * d)
    message = (f"the base map gave an image of shape {shape(d)}, "
               f"but the model has dimension {d}")
    with pytest.raises(ValueError) as err:
        controlled_map(model, cfg).evaluate_floats((1.0,) * d)
    assert str(err.value) == message
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, cfg, [1.0] * d, 2 * _B, 5)
    assert (err.value.step, str(err.value)) == (
        0, f"evaluation failed at step 0: ValueError: {message}")

def test_scan_row_failing_in_first_block_leaves_other_rows_exact():
    # x' = c*0 + (1-c)*x^2: without control the square overflows within the
    # first block, while c >= 0.5 pulls every start in [1.5, 1.9] to 0
    model = MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) ** 2,
                     evaluate_batch=lambda rows: rows ** 2,
                     domain=DomainSpec.nonnegative_orthant(1))
    grid = [0.0, 0.5, 0.7, 0.9]
    with np.errstate(over="ignore"):
        records = bifurcation_scan(model, "VMTOC", (0.0,), grid, seed=5, init_lo=1.5,
                                   init_hi=1.9, n_transient=3 * _B, n_keep=10)
    x0 = np.random.default_rng([5, 0]).uniform(1.5, 1.9, 1)
    with pytest.raises(OrbitError) as err, np.errstate(over="ignore"):
        iterate_orbit(model, ControlConfig("VMTOC", 0.0, (0.0,)), x0, 3 * _B, 10)
    assert err.value.step < _B
    assert records[0].error == str(err.value)
    for i, (c, rec) in enumerate(zip(grid[1:], records[1:]), start=1):
        x0 = np.random.default_rng([5, i]).uniform(1.5, 1.9, 1)
        assert rec.error is None and rec.periods == (1,)
        np.testing.assert_array_equal(
            rec.points, iterate_orbit(model, ControlConfig("VMTOC", c, (0.0,)), x0,
                                      3 * _B, 10))


# A fresh scan of a model with evaluate_batch runs its grid points as the
# rows of one batch; a row whose block holds a non-finite state or leaves
# the domain is handed off from the block's start state and first step.  A
# row that recurs retires, and the last rows in the batch are handed off.
# The scan runs each hand-off alone.  The oracle is one iterate_orbit per
# grid point from the start that draw_x0 gives it.


@contextlib.contextmanager
def _handoffs():
    """Record every hand-off that _iterate_batch returns as ``(row, at, state)``."""
    real, handed = dynamics._iterate_batch, []

    def batch(*args):
        handoffs = real(*args)
        handed.extend((r, at, state.tolist()) for r, state, at in handoffs)
        return handoffs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_iterate_batch", batch)
        yield handed


@contextlib.contextmanager
def _scan_spies():
    """Record every hand-off of a batch row, ``(row, at, state)``, and every
    lone run, ``(at, state)``."""
    real, alone = dynamics._iterate_rows, []

    def rows(g, x, *args, **kwargs):
        alone.append((kwargs.get("at", 0), x.tolist()))
        return real(g, x, *args, **kwargs)

    with _handoffs() as handed, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_iterate_rows", rows)
        yield handed, alone


def _assert_scan_runs_each_point_alone(caplog, model, target, grid, lo, hi, n_transient,
                                       n_keep):
    """Scan ``model`` fresh from seed 0 and check it against one lone orbit
    per grid point; returns the hand-offs, ``(row, at, state)``, and the
    records."""
    box = dynamics.initial_box(lo, hi, model.dimension)
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"), _scan_spies() as (
            handed, alone), np.errstate(all="ignore"):
        records = bifurcation_scan(model, "VMTOC", target, grid, seed=0, init_lo=lo,
                                   init_hi=hi, n_transient=n_transient, n_keep=n_keep)
    scan_lines = _exit_lines(caplog)
    caplog.clear()
    starts = [dynamics.draw_x0(0, r, *box) for r in range(len(grid))]
    configs = [ControlConfig("VMTOC", c, target) for c in grid]
    # each hand-off runs alone once, in order, and no other orbit does; each
    # row is handed off at most once, with the batch's state at that step
    assert alone == [(at, state) for _, at, state in handed]
    assert len({r for r, _, _ in handed}) == len(handed)
    for r, at, state in handed:
        assert state == (starts[r] if at == 0 else iterate_orbit(
            model, configs[r], starts[r], at - 1, 1)[0]).tolist()
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"), \
            np.errstate(all="ignore"):
        for r, (cfg, rec) in enumerate(zip(configs, records, strict=True)):
            try:
                orbit = iterate_orbit(model, cfg, starts[r], n_transient, n_keep)
            except OrbitError as exc:
                assert r in {r for r, _, _ in handed}
                assert (rec.error, rec.periods) == (str(exc), (None,) * model.dimension)
                assert rec.points.shape == (0, model.dimension)
            else:
                assert rec.error is None
                assert rec.periods == detect_period(orbit, max_period=min(32, n_keep // 2))
                _assert_same_bytes(rec.points, orbit)
    assert sorted(scan_lines) == sorted(_exit_lines(caplog))
    return handed, records


@pytest.mark.parametrize("kind", ["diverge", "leave"])
def test_fresh_scan_rows_that_fail_leave_the_batch_and_run_alone(monkeypatch, caplog, kind):
    # one row first misbehaves at each step of _STEPS, between rows that
    # never do, in a batch that runs down to its last row
    monkeypatch.setattr(dynamics, "_HANDOFF", 1)
    model = _counter_map(kind)
    starts = [0.0, *(_LIMIT - s for s in _STEPS[:3]), 1.0, *(_LIMIT - s for s in _STEPS[3:]),
              2.0]
    monkeypatch.setattr(dynamics, "draw_x0", lambda seed, r, lo, hi: np.array([starts[r]]))
    handed, records = _assert_scan_runs_each_point_alone(
        caplog, model, (0.0,), [0.0] * len(starts), 0.0, 0.0, n_transient=_N_TRANSIENT,
        n_keep=_N_KEEP)
    # each row runs on alone from the start of the block it fails in
    rows = [r for r, x in enumerate(starts) if x >= _LIMIT - _STEPS[-1]]
    ats = [0, _B, _B, 2 * _B, 2 * _B, 2 * _B]
    assert handed == [(r, at, [starts[r] + at]) for r, at in zip(rows, ats, strict=True)]
    assert [int(_LIMIT - starts[r]) for r in rows] == list(_STEPS)
    if kind == "diverge":
        assert [records[r].error for r in rows] == [f"non-finite state at step {s}"
                                                    for s in _STEPS]
    else:
        # the lone orbits' exit lines, which equal the scan's
        assert sorted(_exit_lines(caplog)) == sorted(
            f"orbit left the domain at step {s} (advisory)" for s in _STEPS)
        assert all(rec.error is None for rec in records)


def _square(x):
    return np.asarray(x, float) ** 2


# (model, target, init_lo, init_hi): starts outside the domain, and a square
# that overflows unless the control pulls it to 0
_LEAVING_SCANS = {
    "lpa": (lpa_map(), (28.0120, 22.4096, 4.6251), -1.0, 5.0),
    "ricker": (ricker_lift(RickerParams(r=2.0, delay=2)), (1.0, 3.0), -0.5, 3.0),
    "square": (MapModel(dimension=1, evaluate=_square, evaluate_batch=_square,
                        domain=DomainSpec.nonnegative_orthant(1)), (0.0,), 1.5, 1.9),
}


@pytest.mark.parametrize("case", sorted(_LEAVING_SCANS))
def test_fresh_scan_equals_a_lone_orbit_per_point_when_rows_leave(caplog, case):
    model, target, lo, hi = _LEAVING_SCANS[case]
    grid = [k / 60 for k in range(1, 60)]
    handed, records = _assert_scan_runs_each_point_alone(caplog, model, target, grid, lo,
                                                         hi, n_transient=400, n_keep=40)
    failed = {r for r, rec in enumerate(records) if rec.error}
    assert failed <= {r for r, _, _ in handed}
    if case != "square":
        # some rows leave the domain, come back and survive
        assert any(r not in failed and at < 400 + 40 - _B for r, at, _ in handed)


def test_failing_batch_block_runs_once(monkeypatch, caplog):
    # rows of the square overflow within the first block, which still costs
    # one batch step per step: the rows that stay keep their states.  Rows
    # leave or retire only at block ends, so the batch never grows and
    # changes size only after a multiple of _B steps.  Toward 0 every other
    # row reaches 0 within the first block; toward 1 some run on, in a
    # batch that runs down to its last row.
    monkeypatch.setattr(dynamics, "_HANDOFF", 1)
    calls = []

    def batch(rows):
        calls.append(rows.shape[0])
        return _square(rows)

    model = MapModel(dimension=1, evaluate=_square, evaluate_batch=batch,
                     domain=DomainSpec.nonnegative_orthant(1))
    grid = [k / 60 for k in range(1, 60)]
    for target in (0.0, 1.0):
        calls.clear()
        caplog.clear()
        _, records = _assert_scan_runs_each_point_alone(caplog, model, (target,), grid, 1.5,
                                                        1.9, n_transient=400, n_keep=40)
        failed = sum(rec.error is not None for rec in records)
        assert 0 < failed < len(grid)
        assert calls[:_B] == [len(grid)] * _B and len(calls) < 400 + 40
        assert all(b <= a for a, b in zip(calls, calls[1:]))
        assert all(k % _B == 0 for k in range(1, len(calls)) if calls[k] != calls[k - 1])
    assert len(calls) > _B and calls[-1] < len(grid) - failed


@contextlib.contextmanager
def _lone_calls():
    """Record, in call order, the intensity of every controlled map a scan
    builds, ``("map", c)``, and the start of every lone run, ``("rows", at,
    state)``; a scan that calls iterate_orbit or controlled_map fails."""
    real_steps, real_rows, calls = dynamics.controlled_rows, dynamics._iterate_rows, []

    def steps(model, scheme, target, intensities):
        step_for, map_at = real_steps(model, scheme, target, intensities)

        def spied(r):
            calls.append(("map", intensities[r]))
            return map_at(r)

        return step_for, spied

    def rows(g, x, *args, **kwargs):
        calls.append(("rows", kwargs.get("at", 0), x.tobytes()))
        return real_rows(g, x, *args, **kwargs)

    def orbit(*args, **kwargs):
        raise AssertionError("a scan called iterate_orbit")

    def checked_map(*args, **kwargs):
        raise AssertionError("a scan called controlled_map")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "controlled_rows", steps)
        mp.setattr(dynamics, "_iterate_rows", rows)
        mp.setattr(dynamics, "iterate_orbit", orbit)
        mp.setattr(dynamics, "controlled_map", checked_map)
        yield calls


@pytest.mark.parametrize("case", ["chained", "plugin"])
def test_every_lone_grid_point_runs_through_iterate_rows_once_from_its_start(case):
    model, target, lo, hi = _LEAVING_SCANS["lpa"]
    if case == "plugin":
        model = MapModel(dimension=3, evaluate=model.evaluate, domain=model.domain)
    grid, box = [k / 60 for k in range(1, 60)], dynamics.initial_box(lo, hi, 3)
    with _lone_calls() as calls, np.errstate(all="ignore"):
        records = bifurcation_scan(model, "VMTOC", target, grid, seed=0, init_lo=lo,
                                   init_hi=hi, n_transient=400, n_keep=40,
                                   continue_orbits=case == "chained")
    if case == "chained":
        # each orbit starts from the last kept state of the one before
        assert [rec.error for rec in records] == [None] * len(grid)
        starts = [dynamics.draw_x0(0, 0, *box)] + [rec.points[-1] for rec in records[:-1]]
    else:
        starts = [dynamics.draw_x0(0, r, *box) for r in range(len(grid))]
    assert calls == [call for r in range(len(grid))
                     for call in (("map", grid[r]), ("rows", 0, starts[r].tobytes()))]
    for r, (c, rec) in enumerate(zip(grid, records, strict=True)):
        _assert_same_bytes(rec.points, iterate_orbit(model, ControlConfig("VMTOC", c, target),
                                                     starts[r], 400, 40))


def test_failing_batch_rows_run_on_alone_from_their_block_start():
    # LPA states drawn below 0 leave the domain in the first block; every
    # lone run of the fresh scan is a hand-off
    model, target, lo, hi = _LEAVING_SCANS["lpa"]
    grid = [k / 60 for k in range(1, 60)]
    with _scan_spies() as (handed, alone), np.errstate(all="ignore"):
        bifurcation_scan(model, "VMTOC", target, grid, seed=0, init_lo=lo, init_hi=hi,
                         n_transient=400, n_keep=40)
    assert alone == [(at, state) for _, at, state in handed]
    # the rows whose first block holds a state outside the domain, each from
    # its start
    box, first = dynamics.initial_box(lo, hi, 3), []
    for r, c in enumerate(grid):
        x0 = dynamics.draw_x0(0, r, *box)
        with np.errstate(all="ignore"):
            block = _per_step_orbit(model, ControlConfig("VMTOC", c, target), x0, 0, _B)
        if not (np.isfinite(block).all() and model.domain.contains_unchecked(block)):
            first.append((r, 0, x0.tolist()))
    assert 0 < len(first) < len(grid)
    assert [h for h in handed if h[1] == 0] == first


def test_clean_batch_never_runs_a_lone_orbit():
    # the rows left in the batch at its end run on alone, all from one step
    grid = [k / 60 for k in range(1, 60)]
    with _scan_spies() as (handed, alone):
        records = bifurcation_scan(lpa_map(), "VMTOC", _LEAVING_SCANS["lpa"][1], grid, seed=1,
                                   n_transient=400, n_keep=40)
    assert alone == [(at, state) for _, at, state in handed]
    assert len({at for _, at, _ in handed}) <= 1
    assert all(rec.error is None for rec in records)


def test_handoff_states_share_no_memory_with_the_batch():
    # toward (30, 200, 30) two rows leave the domain in the first block and
    # the five chaotic rows left after two blocks are handed off; each
    # hand-off state is a copy, so it keeps no array of the batch alive
    # until the scan runs it
    model, target = lpa_map(), (30.0, 200.0, 30.0)
    grid = np.array([k / 300 for k in range(10, 300, 10)])
    box = dynamics.initial_box(-3.0, 5.0, 3)
    x0 = np.array([dynamics.draw_x0(0, r, *box) for r in range(grid.size)])
    stepped, batch_step = [x0], controlled_rows(model, "VMTOC", target, grid)[0]

    def step_for(rows):
        step = batch_step(rows)

        def spied(x, out):
            step(x, out)
            stepped.extend((x, out))

        return spied

    with np.errstate(all="ignore"):
        handoffs = dynamics._iterate_batch(step_for, x0, model.domain, 3000,
                                           np.empty((50, grid.size, 3)), dynamics._HANDOFF)
    assert [(r, at) for r, _, at in handoffs] == [(0, 0), (8, 0)] + [(r, 2 * _B)
                                                                   for r in range(1, 6)]
    for _, state, _ in handoffs:
        assert state.flags.owndata
        assert not any(np.shares_memory(state, a) for a in stepped)


@pytest.mark.parametrize("case", ["fresh", "plugin", "chained"])
def test_a_scan_checks_its_control_once(monkeypatch, case):
    # the hand-off grid and box: a fresh batch retires rows and rebuilds its
    # step, down to six rows, and the rows it hands off run on alone, each
    # on its own map
    monkeypatch.setattr(dynamics, "_HANDOFF_FLOATS", 6)
    model, target = lpa_map(), (30.0, 200.0, 30.0)
    if case == "plugin":
        model = MapModel(dimension=3, evaluate=model.evaluate, domain=model.domain)
    grid = [k / 300 for k in range(10, 300, 10)]
    checks, builds = [], []
    real_check, real_batch = controls._checked_target, dynamics._iterate_batch

    def batch(step_for, *args):
        return real_batch(lambda rows: builds.append(rows.size) or step_for(rows), *args)

    monkeypatch.setattr(controls, "_checked_target",
                        lambda *args: checks.append(args) or real_check(*args))
    monkeypatch.setattr(dynamics, "_iterate_batch", batch)
    with np.errstate(all="ignore"):
        records = bifurcation_scan(model, "VMTOC", target, grid, init_lo=-3.0, init_hi=5.0,
                                   continue_orbits=case == "chained")
    assert len(records) == len(grid)
    assert len(checks) == 1
    assert (len(builds) > 1) == (case == "fresh")


# --- rows that recur retire; the last row runs on alone ----------------------

# At each block end a batch row whose last state equals, bit for bit, one of
# the _B states before it retires and cycles its last p states through the
# rest of its kept window.  A row left alone in the batch runs on through
# the lone loop from its state and step.  The oracle is still one
# iterate_orbit per grid point from its start.


def _cycles(kind="count"):
    """Rows ``(v, p)``: ``v`` counts up by one to the cycle 0, 1, ..., p - 1,
    so a row with ``p = _NEVER`` does not recur within any test's steps.
    With ``kind`` "diverge" an input ``v`` of _LIMIT or more maps to inf;
    with "leave" the box caps ``v`` at _LIMIT."""
    def batch(rows):
        v, p = rows[:, 0], rows[:, 1]
        out = np.where(v < p - 1.0, v + 1.0, 0.0)
        if kind == "diverge":
            out = np.where(v < _LIMIT, out, np.inf)
        return np.stack([out, p], axis=1)

    top = _LIMIT if kind == "leave" else math.inf
    return MapModel(dimension=2, evaluate=lambda x: batch(x[None, :])[0], evaluate_batch=batch,
                    domain=DomainSpec.box([-math.inf] * 2, [top, math.inf]))


_NEVER = 1e9


def _cycle_start(period, step):
    """The start of a ``_cycles`` row that first recurs at ``step``, with ``period``."""
    return np.array([period - step - 1.0, period])


@contextlib.contextmanager
def _batch_rows(model, handoff=1):
    """``model`` with a spy on its batch: the row count of every call, and
    the start step of every lone run a batch hands a row to.  Batches hand
    their rows to the lone loop once they hold at most ``handoff`` rows, by
    default their last row alone."""
    calls, handed = [], []
    real_rows = dynamics._iterate_rows

    def batch(rows):
        calls.append(rows.shape[0])
        return model.evaluate_batch(rows)

    def rows(g, x, *args, **kwargs):
        if kwargs.get("kept") is not None:
            handed.append(kwargs["at"])
        return real_rows(g, x, *args, **kwargs)

    spied = MapModel(dimension=model.dimension, evaluate=model.evaluate,
                     evaluate_batch=batch, domain=model.domain,
                     evaluate_floats=model.evaluate_floats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_iterate_rows", rows)
        mp.setattr(dynamics, "_HANDOFF", handoff)
        mp.setattr(dynamics, "_HANDOFF_FLOATS", handoff)
        yield spied, calls, handed


# (period, first recurrence step): periods 1, 2 and 7 recur in the first
# block, at its last step and in the next block; a cycle of period _B
# matches the state its block started from
_RECURRING_ROWS = ([(p, s) for p in (1, 2, 7) for s in (3, _B - 1, _B, _B + 1)]
                   + [(_B, s) for s in (_B, _B + 1, 2 * _B - 1)])


@pytest.mark.parametrize("n_transient, n_keep",
                         [(3 * _B + 5, 20), (5, 3 * _B), (0, 3 * _B + 7)],
                         ids=["in-transient", "in-kept-window", "no-transient"])
def test_recurring_batch_rows_retire_and_equal_a_lone_orbit(monkeypatch, caplog, n_transient,
                                                            n_keep):
    # two counters that never recur keep the batch going to the last step
    starts = [_cycle_start(p, s) for p, s in _RECURRING_ROWS] + [np.array([0.0, _NEVER])] * 2
    monkeypatch.setattr(dynamics, "draw_x0", lambda seed, r, lo, hi: starts[r])
    with _batch_rows(_cycles()) as (model, calls, handed):
        scan_handed, records = _assert_scan_runs_each_point_alone(
            caplog, model, (0.0, 0.0), [0.0] * len(starts), 0.0, 0.0, n_transient, n_keep)
    assert scan_handed == [] and handed == []
    # a row retires at the first block end at or after its first recurrence
    total = n_transient + n_keep
    assert calls == [2 + sum(s >= u // _B * _B for _, s in _RECURRING_ROWS)
                     for u in range(total)]


def test_signed_zero_batch_row_recurs_with_period_two(caplog):
    # -x from 0 runs -0.0, 0.0, -0.0, ...: equal as numbers, not as bits.
    # With the target -0.0, c*T is -0.0, which keeps the sign of any zero
    # added to it, so every row alternates; the kept window starts at an
    # odd step.
    with _batch_rows(MapModel(dimension=1, evaluate=lambda x: -x, evaluate_batch=lambda r: -r,
                              domain=DomainSpec.full_space(1))) as (model, calls, handed):
        _, records = _assert_scan_runs_each_point_alone(
            caplog, model, (-0.0,), [0.0, 0.5, 0.9], 0.0, 0.0, 2 * _B + 3, 6)
    # the tolerance test sees period 1
    for rec in records:
        assert np.signbit(rec.points[:, 0]).tolist() == [False, True] * 3
        assert rec.periods == (1,)
    assert (calls, handed) == ([3] * _B, [])


@pytest.mark.parametrize("kind", ["count", "leave", "diverge"])
def test_last_batch_row_runs_on_alone_from_its_step(monkeypatch, caplog, kind):
    # the cycles retire after the first and second blocks, so the counter
    # runs on alone from step 2 * _B, inside the kept window; there it leaves
    # the box or diverges at step `late`
    late = 2 * _B + 7
    starts = [_cycle_start(1, 3), _cycle_start(2, _B + 1),
              np.array([0.0 if kind == "count" else _LIMIT - late, _NEVER])]
    monkeypatch.setattr(dynamics, "draw_x0", lambda seed, r, lo, hi: starts[r])
    with _batch_rows(_cycles(kind)) as (model, calls, handed):
        scan_handed, records = _assert_scan_runs_each_point_alone(
            caplog, model, (0.0, 0.0), [0.0] * 3, 0.0, 0.0, n_transient=5, n_keep=3 * _B)
    assert [(r, at) for r, at, _ in scan_handed] == [(2, 2 * _B)] and handed == [2 * _B]
    assert calls == [3] * _B + [2] * _B
    # the oracle's lines, which equal the scan's
    assert _exit_lines(caplog) == (
        [f"orbit left the domain at step {late} (advisory)"] if kind == "leave" else [])
    assert records[2].error == (f"non-finite state at step {late}" if kind == "diverge" else None)


def test_one_point_fresh_scan_runs_alone_from_its_start():
    with _batch_rows(lpa_map()) as (model, calls, handed):
        (record,) = bifurcation_scan(model, "VMTOC", _K, [0.1], seed=3, n_transient=300,
                                     n_keep=40)
    assert (calls, handed) == ([], [0])
    x0 = dynamics.draw_x0(3, 0, np.zeros(3), np.full(3, 50.0))
    _assert_same_bytes(record.points, iterate_orbit(model, ControlConfig("VMTOC", 0.1, _K),
                                                    x0, 300, 40))


def test_scan_fresh_grid_retires_its_rows_early():
    # the benchmark's 29-point grid toward (30, 30, 200): every row but the
    # chaotic ones recurs, and the batch stops well before the last step
    grid = [k / 300 for k in range(10, 300, 10)]
    target = (30.0, 30.0, 200.0)
    with _batch_rows(lpa_map()) as (model, calls, handed):
        records = bifurcation_scan(model, "VMTOC", target, grid, seed=123)
    assert len(calls) < 3000 + 50 and handed == [len(calls)]
    for r, (c, rec) in enumerate(zip(grid, records)):
        x0 = dynamics.draw_x0(123, r, np.zeros(3), np.full(3, 50.0))
        _assert_same_bytes(rec.points, iterate_orbit(model, ControlConfig("VMTOC", c, target),
                                                     x0, 3000, 50))


def test_scan_fresh_grid_hands_several_rows_off_at_once():
    # toward (30, 200, 30) two chaotic rows run to the last step; the rows
    # left once the batch is down to _HANDOFF run alone together, all from
    # the same step, each on tuples of floats
    grid = [k / 300 for k in range(10, 300, 10)]
    target = (30.0, 200.0, 30.0)
    with _batch_rows(lpa_map(), dynamics._HANDOFF_FLOATS) as (model, calls, handed), \
            _one_row_calls() as lone:
        records = bifurcation_scan(model, "VMTOC", target, grid, seed=123)
    assert 1 < len(handed) <= dynamics._HANDOFF_FLOATS and set(handed) == {len(calls)}
    assert len(calls) < 3000 + 50 and calls[-1] > dynamics._HANDOFF_FLOATS
    assert lone == [((3,), True)] * len(handed)
    for r, (c, rec) in enumerate(zip(grid, records)):
        x0 = dynamics.draw_x0(123, r, np.zeros(3), np.full(3, 50.0))
        _assert_same_bytes(rec.points, iterate_orbit(lpa_map(), ControlConfig("VMTOC", c, target),
                                                     x0, 3000, 50))


def test_batch_without_a_float_step_hands_off_at_six_rows(monkeypatch):
    # eight rows: the cycles of periods 1 and 2 retire after blocks 1 and 2,
    # and the six rows left run on alone from step 2 * _B through the float
    # step derived from evaluate, one evaluate call per step; the cycle of
    # period 5 stops at its recurrence, the counters run to the end
    evaluations = []
    base = _cycles()

    def evaluate(x):
        evaluations.append(x.shape)
        return base.evaluate(x)

    model = MapModel(dimension=2, evaluate=evaluate, evaluate_batch=base.evaluate_batch,
                     domain=base.domain)
    starts = ([_cycle_start(1, 3), _cycle_start(2, _B + 1), _cycle_start(5, 3 * _B + 9)]
              + [np.array([float(k), _NEVER]) for k in range(5)])
    monkeypatch.setattr(dynamics, "draw_x0", lambda seed, r, lo, hi: starts[r])
    with _batch_rows(model, dynamics._HANDOFF) as (spied, calls, handed):
        records = bifurcation_scan(spied, "VMTOC", (0.0, 0.0), [0.0] * 8, init_lo=0.0,
                                   init_hi=0.0, n_transient=5, n_keep=5 * _B)
    assert dynamics._HANDOFF == 6
    assert calls == [8] * _B + [7] * _B and handed == [2 * _B] * 6
    assert evaluations == [(2,)] * (_B + 10 + 5 * (5 * _B + 5 - 2 * _B))
    assert all(rec.error is None for rec in records)
    for r, rec in enumerate(records):
        _assert_same_bytes(rec.points, iterate_orbit(base, None, starts[r], 5, 5 * _B))


@pytest.mark.parametrize("own", [False, True], ids=["derived", "own-float-step"])
def test_batch_hands_off_at_the_size_its_lone_step_sets(monkeypatch, caplog, own):
    # fourteen rows: ten cycles of period 1 retire one a block, after blocks
    # 1 to 10, and four counters never recur; a model whose float step is
    # derived from evaluate hands its rows off at _HANDOFF, one with its own
    # at _HANDOFF_FLOATS, every row from the same step
    base = _cycles()

    def floats(y):
        return (y[0] + 1.0 if y[0] < y[1] - 1.0 else 0.0, y[1])

    model = MapModel(dimension=2, evaluate=base.evaluate, evaluate_batch=base.evaluate_batch,
                     domain=base.domain, evaluate_floats=floats if own else None)
    starts = ([_cycle_start(1, j * _B - 5) for j in range(1, 11)]
              + [np.array([float(k), _NEVER]) for k in range(4)])
    monkeypatch.setattr(dynamics, "draw_x0", lambda seed, r, lo, hi: starts[r])
    handed, records = _assert_scan_runs_each_point_alone(
        caplog, model, (0.0, 0.0), [0.0] * len(starts), 0.0, 0.0, n_transient=5,
        n_keep=11 * _B)
    size = dynamics._HANDOFF_FLOATS if own else dynamics._HANDOFF
    assert [at for _, at, _ in handed] == [(len(starts) - size) * _B] * size
    assert all(rec.error is None for rec in records)


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
def test_plugin_batch_step_gets_contiguous_float_rows(scheme):
    # the batch of a model without a formula steps the states as columns and
    # hands the plugin their rows, C-contiguous float64 (n, d), as before
    seen = []

    def batch(rows):
        seen.append((rows.shape, rows.dtype, rows.flags.c_contiguous))
        return 0.5 * rows

    model = MapModel(dimension=3, evaluate=lambda x: 0.5 * np.asarray(x, float),
                     evaluate_batch=batch, domain=DomainSpec.nonnegative_orthant(3))
    grid = [k / 20 for k in range(20)]
    records = bifurcation_scan(model, scheme, (1.0, 2.0, 3.0), grid, init_lo=0.0, init_hi=1.0,
                               n_transient=100, n_keep=10)
    assert seen and {(shape[1], dtype, contiguous) for shape, dtype, contiguous in seen} == {
        (3, np.dtype(float), True)}
    assert seen[0][0] == (20, 3) and seen[-1][0][0] > dynamics._HANDOFF
    cfgs = [ControlConfig(scheme, c, (1.0, 2.0, 3.0)) for c in grid]
    for r, (cfg, rec) in enumerate(zip(cfgs, records)):
        x0 = dynamics.draw_x0(0, r, np.zeros(3), np.ones(3))
        _assert_same_bytes(rec.points, iterate_orbit(model, cfg, x0, 100, 10))


# --- one-row orbits -----------------------------------------------------------

# A lone orbit of a built-in map steps on tuples of floats through the step
# map's evaluate_floats.  Its oracle is the same orbit run as a batch of
# equal rows through evaluate_rows.
_ONE_ROW_CASES = [("lpa", 3, (28.0120, 22.4096, 4.6251), 50.0),
                  ("ricker", 2, (1.0, 3.0), 3.0), ("ricker", 3, (1.0, 1.0, 1.0), 3.0)]


def _one_row_model(kind, dim):
    return lpa_map() if kind == "lpa" else ricker_lift(RickerParams(r=2.0, delay=dim))


def _column_step(on_rows):
    """The batch loop's step ``(x, out)`` on columns of the step ``on_rows`` of rows."""
    def step(x, out):
        out[...] = on_rows(np.ascontiguousarray(x.T)).T
    return step


@contextlib.contextmanager
def _rows_path(model):
    """Run every lone orbit of ``model`` from its start, controlled or not,
    as a batch of two equal rows of the batch loop through the step map's
    ``evaluate_rows``, so that neither is ever left alone in it and no
    tuple of floats is stepped.  Rows that fail a block's check are handed
    off from its start together, with equal states, and run on alone, as in
    a scan; the orbit fails with row 0's error.  Yields the hand-offs,
    ``(row, at, state)``."""
    with _handoffs() as handed, pytest.MonkeyPatch.context() as mp:
        handoff = dynamics._iterate_rows

        def rows(g, x, n_transient, n_keep, strict=False, at=0, kept=None):
            if at:
                return handoff(g, x, n_transient, n_keep, strict, at=at, kept=kept)
            both = np.empty((n_keep, 2, x.shape[0]))
            handoffs = dynamics._iterate_batch(lambda _: _column_step(g.evaluate_rows),
                                               np.array([x, x]), g.domain, n_transient, both, 1)
            if handoffs:
                (r0, x0, at0), (r1, x1, at1) = handoffs
                assert (r0, r1, at0, x0.tobytes()) == (0, 1, at1, x1.tobytes())
            errors = []
            for r, state, step in handoffs:
                try:
                    handoff(g, state, n_transient, n_keep, at=step, kept=both[:, r])
                except OrbitError as exc:
                    errors.append(exc)
            if errors:
                raise errors[0]
            if kept is None:
                return both[:, 0]
            kept[:] = both[:, 0]
            return kept

        mp.setattr(dynamics, "_iterate_rows", rows)
        yield handed


@contextlib.contextmanager
def _one_row_calls():
    """Record, for every call of _iterate_rows, the shape of its state and
    whether its map steps on tuples of floats."""
    real, calls = dynamics._iterate_rows, []

    def spy(g, x, *args, **kwargs):
        calls.append((x.shape, g.evaluate_floats is not None))
        return real(g, x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_iterate_rows", spy)
        yield calls


@pytest.mark.parametrize("scheme", [None, "VMTOC", "VTOC"])
@pytest.mark.parametrize("kind, dim, target, hi", _ONE_ROW_CASES)
def test_one_row_orbit_equals_its_row_bitwise(kind, dim, target, hi, scheme):
    model = _one_row_model(kind, dim)
    cfg = ControlConfig(scheme, 0.3, target) if scheme else None
    x0 = np.random.default_rng([9, dim]).uniform(0.0, hi, dim)
    with _rows_path(model) as handed:
        rows_orbit = iterate_orbit(model, cfg, x0, 700, 60)
        rows_lyapunov = lyapunov_max(model, cfg, x0, n=1200)
    assert handed == []
    with _one_row_calls() as calls:
        orbit = iterate_orbit(model, cfg, x0, 700, 60)
        lyapunov = lyapunov_max(model, cfg, x0, n=1200)
    assert calls == [((dim,), True)] * 2
    np.testing.assert_array_equal(orbit, rows_orbit)
    assert lyapunov == rows_lyapunov


@pytest.mark.parametrize("scheme", [None, "VMTOC", "VTOC"])
@pytest.mark.parametrize("kind, dim, target, hi", _ONE_ROW_CASES)
def test_chained_scan_records_equal_their_rows_bitwise(kind, dim, target, hi, scheme):
    # without control: VMTOC at intensity 0, the uncontrolled map
    model = _one_row_model(kind, dim)
    grid = [0.0] * 4 if scheme is None else [0.0, 0.1, 0.25, 0.4, 0.6]
    kwargs = dict(seed=4, init_hi=hi, n_transient=150, n_keep=40, continue_orbits=True)
    with _rows_path(model) as handed:
        rows_records = bifurcation_scan(model, scheme or "VMTOC", target, grid, **kwargs)
    assert handed == []
    with _one_row_calls() as calls:
        records = bifurcation_scan(model, scheme or "VMTOC", target, grid, **kwargs)
    assert calls == [((dim,), True)] * len(grid)
    for rec, oracle in zip(records, rows_records, strict=True):
        assert (rec.c, rec.periods, rec.error) == (oracle.c, oracle.periods, oracle.error)
        np.testing.assert_array_equal(rec.points, oracle.points)


# A fresh scan of a model without evaluate_batch runs each grid point as a
# lone orbit.  Its oracle is a loop of iterate_orbit, one per grid point,
# from the start state the scan draws for that point.  The plugin raises
# where only the uncontrolled orbit goes, and its box is narrower than the
# orbits of weak controls.
_PLUGIN_CASES = [("lpa", 3, _ONE_ROW_CASES[0][2], 50.0, 250.0, 100.0),
                 ("ricker", 2, (1.0, 3.0), 3.0, 15.0, 5.0)]
_PLUGIN_GRID = [0.0, 0.1, 0.25, 0.5, 0.7]


def _plugin(kind, dim, raise_at, top):
    """The model as a plugin on the box [0, top] x [0, inf)^(d-1): its
    evaluate raises past ``raise_at``, and it has no evaluate_batch."""
    base = _one_row_model(kind, dim)

    def raising(x):
        if x[0] > raise_at:
            raise OverflowError("too many")
        return base.evaluate(x)

    domain = DomainSpec.box([0.0] * dim, [top] + [math.inf] * (dim - 1))
    return MapModel(dimension=dim, evaluate=raising, domain=domain), base


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
@pytest.mark.parametrize("kind, dim, target, hi, raise_at, top", _PLUGIN_CASES)
def test_fresh_plugin_scan_equals_a_lone_orbit_per_point(caplog, kind, dim, target, hi,
                                                         raise_at, top, scheme):
    plugin, base = _plugin(kind, dim, raise_at, top)
    kwargs = dict(seed=3, init_hi=hi, n_transient=400, n_keep=40, max_period=32)
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        records = bifurcation_scan(plugin, scheme, target, _PLUGIN_GRID, **kwargs)
    scan_lines, oracle = _exit_lines(caplog), []
    caplog.clear()
    box = np.zeros(dim), np.full(dim, hi)
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        for i, c in enumerate(_PLUGIN_GRID):
            x0 = dynamics.draw_x0(3, i, *box)
            try:
                orbit = iterate_orbit(plugin, ControlConfig(scheme, c, target), x0, 400, 40)
            except OrbitError as exc:
                oracle.append((None, (None,) * dim, str(exc)))
            else:
                oracle.append((orbit, detect_period(orbit, max_period=20), None))
    assert scan_lines == _exit_lines(caplog) and scan_lines
    for rec, (orbit, periods, error) in zip(records, oracle, strict=True):
        assert (rec.periods, rec.error) == (periods, error)
        if orbit is None:
            assert rec.points.shape == (0, dim)
        else:
            _assert_same_bytes(rec.points, orbit)
    assert "OverflowError: too many" in records[0].error
    assert records[-1].periods == (1,) * dim
    # the same map with a batch runs the points that do not raise as rows
    batched = MapModel(dimension=dim, evaluate=base.evaluate, domain=plugin.domain,
                       evaluate_batch=base.evaluate_batch)
    rows = bifurcation_scan(batched, scheme, target, _PLUGIN_GRID, **kwargs)
    for rec, row in zip(records[1:], rows[1:]):
        assert (rec.periods, rec.error) == (row.periods, row.error)
        _assert_same_bytes(rec.points, row.points)


def test_fresh_plugin_scan_evaluates_lone_states_and_stops_at_recurrence():
    shapes, lpa = [], lpa_map()

    def evaluate(x):
        shapes.append(np.shape(x))
        return lpa.evaluate(x)

    plugin = MapModel(dimension=3, evaluate=evaluate, domain=DomainSpec.nonnegative_orthant(3))
    target = _ONE_ROW_CASES[0][2]
    bifurcation_scan(plugin, "VMTOC", target, _PLUGIN_GRID, seed=3, n_transient=400,
                     n_keep=40)
    assert set(shapes) == {(3,)}
    # a stabilized point stops at its first bitwise recurrence
    shapes.clear()
    (record,) = bifurcation_scan(plugin, "VMTOC", target, [0.7], seed=3,
                                 n_transient=400, n_keep=40)
    assert record.periods == (1, 1, 1)
    assert 0 < len(shapes) < 400 + 40


# A model without its own float step steps alone through the one derived
# from evaluate, and its batches hand off at _HANDOFF rows, not at the
# built-in map's _HANDOFF_FLOATS.  The oracle is the built-in map, which has
# its own float step.
_FLOATLESS_CASES = {"lpa": (lpa_map(), (30.0, 200.0, 30.0), 0.0, 50.0),
                    "lpa-below": (lpa_map(), _LEAVING_SCANS["lpa"][1], -1.0, 5.0),
                    "ricker": (ricker_lift(RickerParams(r=2.0, delay=2)), (1.0, 3.0), 0.0, 3.0),
                    # a square that overflows at weak controls, with its own float step
                    "square": (MapModel(dimension=1, evaluate=_square, evaluate_batch=_square,
                                        evaluate_floats=lambda y: (y[0] * y[0],),
                                        domain=DomainSpec.nonnegative_orthant(1)),
                               (0.0,), 1.5, 1.9)}


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "no-batch"])
@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
@pytest.mark.parametrize("case", sorted(_FLOATLESS_CASES))
def test_plugin_without_a_float_step_gives_the_built_in_records(caplog, case, scheme, batch):
    model, target, lo, hi = _FLOATLESS_CASES[case]
    plugin = MapModel(dimension=model.dimension, evaluate=model.evaluate, domain=model.domain,
                      evaluate_batch=model.evaluate_batch if batch else None)
    grid = [k / 16 for k in range(1, 16)]
    for chained in (False, True):
        kwargs = dict(seed=123, init_lo=lo, init_hi=hi, n_transient=300, n_keep=40,
                      continue_orbits=chained)
        with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"), \
                np.errstate(all="ignore"):
            records = bifurcation_scan(plugin, scheme, target, grid, **kwargs)
            lines = _exit_lines(caplog)
            caplog.clear()
            oracle = bifurcation_scan(model, scheme, target, grid, **kwargs)
        assert sorted(lines) == sorted(_exit_lines(caplog))
        caplog.clear()
        for rec, expected in zip(records, oracle, strict=True):
            assert (rec.c, rec.periods, rec.error) == (expected.c, expected.periods,
                                                       expected.error)
            _assert_same_bytes(rec.points, expected.points)
    box = dynamics.initial_box(lo, hi, model.dimension)
    for r, c in enumerate(grid):
        x0, cfg = dynamics.draw_x0(123, r, *box), ControlConfig(scheme, c, target)
        with np.errstate(all="ignore"):
            try:
                expected = iterate_orbit(model, cfg, x0, 300, 40)
            except OrbitError as exc:
                with pytest.raises(OrbitError, match=f"^{re.escape(str(exc))}$"):
                    iterate_orbit(plugin, cfg, x0, 300, 40)
            else:
                _assert_same_bytes(iterate_orbit(plugin, cfg, x0, 300, 40), expected)


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
def test_batch_image_of_the_wrong_shape_stops_the_scan(scheme):
    # a 3-D plugin whose batch keeps one column: the controlled batch step
    # raises the single-state forms' error instead of broadcasting it
    model = MapModel(dimension=3, evaluate=lambda x: 0.5 * np.asarray(x, float),
                     evaluate_batch=lambda rows: 0.5 * rows[:, :1],
                     domain=DomainSpec.nonnegative_orthant(3))
    message = "the base map gave an image of shape (10, 1), but the model has dimension 3"
    step = controlled_rows(model, scheme, (1.0, 1.0, 1.0), [0.5] * 10)[0](np.arange(10))
    with pytest.raises(ValueError) as err:
        step(np.ones((3, 10)), np.empty((3, 10)))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        bifurcation_scan(model, scheme, (1.0, 1.0, 1.0), [k / 10 for k in range(10)],
                         init_lo=0.0, init_hi=1.0)
    assert str(err.value) == message
    # six rows or fewer run alone, on the right-sized float step
    records = bifurcation_scan(model, scheme, (1.0, 1.0, 1.0), [0.2, 0.4, 0.6],
                               init_lo=0.0, init_hi=1.0)
    assert all(rec.error is None and rec.periods == (1, 1, 1) for rec in records)


def test_one_row_orbit_calls_evaluate_not_the_batch():
    calls = {"evaluate": 0, "batch": 0}

    def evaluate(x):
        calls["evaluate"] += 1
        return 0.5 * x

    def batch(rows):
        calls["batch"] += 1
        return 0.5 * rows

    model = MapModel(dimension=2, evaluate=evaluate, evaluate_batch=batch,
                     domain=DomainSpec.nonnegative_orthant(2))
    iterate_orbit(model, None, [1.0, 2.0], 2 * _B, 7)
    assert calls == {"evaluate": 2 * _B + 7, "batch": 0}


def test_one_row_orbit_feeds_evaluate_float_arrays():
    # evaluate returns a list of ints; as in a batch, the next step gets
    # the state as a float array
    model = MapModel(dimension=2, evaluate=lambda x: [int(v) for v in 0.5 * x],
                     domain=DomainSpec.nonnegative_orthant(2))
    orbit = iterate_orbit(model, None, [40.0, 9.0], 2, 4)
    assert orbit.dtype == float
    np.testing.assert_array_equal(orbit, [[5.0, 1.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("kind", ["diverge", "raise"])
@pytest.mark.parametrize("step", _STEPS)
def test_chained_scan_fails_each_one_row_orbit_at_its_step(kind, step):
    # each orbit starts where the last one stopped: at _LIMIT - step for the
    # first, so it fails at `step`; the chain then restarts from the same
    # start, because a failed orbit has no final state.  The raising map
    # has no batch to compare with.
    model = _counter_map(kind)
    kwargs = dict(init_lo=_LIMIT - step, init_hi=_LIMIT - step, n_transient=_N_TRANSIENT,
                  n_keep=_N_KEEP, continue_orbits=True)
    records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0, 0.0], **kwargs)
    message = _expected_message(kind, False, step)
    assert [r.error for r in records] == [message] * 2
    if kind == "diverge":
        with _rows_path(model) as handed:
            rows_records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0, 0.0], **kwargs)
        # both rows of each orbit run on alone from the block of `step`
        at = step // _B * _B
        assert handed == [(0, at, [_LIMIT - step + at]), (1, at, [_LIMIT - step + at])] * 2
        assert [r.error for r in rows_records] == [message] * 2


@pytest.mark.parametrize("kind", ["diverge", "raise"])
@pytest.mark.parametrize("step", _STEPS)
def test_one_row_orbit_fails_at_the_step_of_its_row(kind, step):
    # the raising map has no evaluate_batch, so it has no (1, d) batch to
    # compare with: its lone orbit fails through the OverflowError of evaluate
    model = _counter_map(kind)
    x0 = np.array([_LIMIT - step])
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP)
    assert (err.value.step, str(err.value)) == (step, _expected_message(kind, False, step))
    if kind == "diverge":
        with _rows_path(model) as handed, pytest.raises(OrbitError) as rows_err:
            iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP)
        at = step // _B * _B
        assert handed == [(r, at, (x0 + at).tolist()) for r in (0, 1)]
        assert (rows_err.value.step, str(rows_err.value)) == (step, str(err.value))


def _too_big(x):
    if x[0] >= _LIMIT:
        raise ValueError("too big")
    return x + 1.0


def _batch_too_big(rows):
    raise ValueError("batch too big")


@pytest.mark.parametrize("entry", ["iterate_orbit", "lyapunov_max", "chained scan"])
@pytest.mark.parametrize("step", _STEPS)
def test_lone_orbit_fails_at_its_step_without_calling_the_batch(entry, step):
    # evaluate raises at `step`, and evaluate_batch raises whenever it is
    # called: a lone orbit, replay included, must only call evaluate
    model = MapModel(dimension=1, evaluate=_too_big, evaluate_batch=_batch_too_big,
                     domain=DomainSpec.full_space(1))
    x0 = np.array([_LIMIT - step])
    message = f"evaluation failed at step {step}: ValueError: too big"
    if entry == "chained scan":
        records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0] * 3,
                                   init_lo=x0, init_hi=x0, n_transient=_N_TRANSIENT,
                                   n_keep=_N_KEEP, continue_orbits=True)
        assert [r.error for r in records] == [message] * 3
        return
    with pytest.raises(OrbitError) as err:
        if entry == "iterate_orbit":
            iterate_orbit(model, None, x0, _N_TRANSIENT, _N_KEEP)
        else:
            lyapunov_max(model, None, x0, n=1200)
    assert (err.value.step, str(err.value)) == (step, message)


def test_chained_scan_logs_one_domain_exit_per_orbit(caplog):
    # the first orbit leaves the box at step 5 and ends outside it, so every
    # later orbit leaves it at step 0
    model = _counter_map("leave")
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0, 0.0, 0.0],
                                   init_lo=_LIMIT - 5, init_hi=_LIMIT - 5,
                                   n_transient=3 * _B, n_keep=10, continue_orbits=True)
    assert [r.error for r in records] == [None] * 3
    assert _exit_lines(caplog) == ["orbit left the domain at step 5 (advisory)",
                                   "orbit left the domain at step 0 (advisory)",
                                   "orbit left the domain at step 0 (advisory)"]
    np.testing.assert_array_equal(records[-1].points[:, 0],
                                  _LIMIT - 5 + 3 * (3 * _B + 10) - np.arange(9, -1, -1))


# --- early exit at an exact recurrence ----------------------------------------

# A lone orbit stops right after the first step whose state equals, bit for
# bit, a state of its current or previous block, and fills the rest of its
# kept window with the cycle.  The oracle is a plain loop over the step map's
# evaluate, one step each, compared byte for byte (-0.0 is not 0.0).


def _per_step_orbit(model, cfg, x0, n_transient, n_keep):
    g = controlled_map(model, cfg) if cfg is not None else model
    x = as_state(x0, model.dimension)
    kept = np.empty((n_keep, model.dimension))
    for i in range(n_transient + n_keep):
        x = np.asarray(g.evaluate(x), dtype=float)
        if i >= n_transient:
            kept[i - n_transient] = x
    return kept


def _first_recurrence(model, cfg, x0, n):
    """``(step, period)`` of the first state equal bitwise to an earlier one."""
    g = controlled_map(model, cfg) if cfg is not None else model
    x, seen = as_state(x0, model.dimension), {}
    for i in range(n):
        x = np.asarray(g.evaluate(x), dtype=float)
        if x.tobytes() in seen:
            return i, i - seen[x.tobytes()]
        seen[x.tobytes()] = i
    return None


def _counted(model, floats=False):
    """``model`` with a counter of its evaluate calls, ``calls[0]``; with
    ``floats`` it keeps ``model``'s float step, whose calls count too."""
    calls = [0]

    def counting(f):
        def counted(x):
            calls[0] += 1
            return f(x)

        return counted

    extra = {"evaluate_floats": counting(model.evaluate_floats)} if floats else {}
    return MapModel(dimension=model.dimension, evaluate=counting(model.evaluate),
                    domain=model.domain, jacobian=model.jacobian, **extra), calls


def _assert_same_bytes(orbit, oracle):
    assert orbit.shape == oracle.shape
    assert orbit.tobytes() == oracle.tobytes()


def _calls_to_recurrence(step, period, total):
    """Evaluations of an orbit that first recurs at ``step`` with ``period``,
    below _L: a recurrence on a state of the block before is caught
    ``period`` steps into its own block."""
    start = step // _L * _L
    return min((step if step - period >= start else start + period) + 1, total)


_K = (28.0120, 22.4096, 4.6251)
# (model, scheme, intensity, target, x0, first recurrence step, bitwise period);
# each orbit first recurs so with numpy's AVX-512 exp and without it
# (NPY_DISABLE_CPU_FEATURES=X86_V4), whose last bits differ
_RECURRING = [
    ("lpa", "VMTOC", 0.6, _K, (22.0, 27.0, 5.0), 61, 1),
    ("lpa", "VMTOC", 0.2, (30.0, 30.0, 200.0), (22.0, 27.0, 5.0), 226, 2),
    ("lpa", "VMTOC", 0.49, _K, (22.0, 27.0, 5.0), 104, 7),
    ("ricker2", "VMTOC", 0.05, (1.0, 3.0), (1.5, 0.5), 99, 6),
    ("ricker2", "VMTOC", 0.01, (1.0, 3.0), (1.5, 0.5), 464, 20),
    ("ricker3", "VTOC", 0.1, (1.0, 1.0, 1.0), (1.5, 0.5, 1.2), 55, 8),
]


def _recurring_model(kind):
    return lpa_map() if kind == "lpa" else ricker_lift(RickerParams(r=2.0, delay=int(kind[-1])))


@pytest.mark.parametrize("n_transient, n_keep", [(3000, 50), (20, 400)],
                         ids=["in-transient", "in-kept-window"])
@pytest.mark.parametrize("kind, scheme, c, target, x0, step, period", _RECURRING)
def test_recurring_orbit_equals_per_step_loop_bitwise(kind, scheme, c, target, x0, step,
                                                     period, n_transient, n_keep):
    _assert_recurring_orbit_equals_per_step_loop(kind, scheme, c, target, x0, step, period,
                                                 n_transient, n_keep, floats=False)


@pytest.mark.parametrize("n_transient, n_keep", [(3000, 50), (20, 400)],
                         ids=["in-transient", "in-kept-window"])
@pytest.mark.parametrize("kind, scheme, c, target, x0, step, period", _RECURRING)
def test_recurring_float_orbit_equals_per_step_loop_bitwise(kind, scheme, c, target, x0, step,
                                                           period, n_transient, n_keep):
    # on tuples of floats the orbit steps through the float step alone, and
    # stops after the same step
    _assert_recurring_orbit_equals_per_step_loop(kind, scheme, c, target, x0, step, period,
                                                 n_transient, n_keep, floats=True)


def _assert_recurring_orbit_equals_per_step_loop(kind, scheme, c, target, x0, step, period,
                                                 n_transient, n_keep, floats):
    model, calls = _counted(_recurring_model(kind), floats)
    cfg = ControlConfig(scheme, c, target)
    assert _first_recurrence(model, cfg, x0, 3050) == (step, period)
    oracle = _per_step_orbit(model, cfg, x0, n_transient, n_keep)
    calls[0] = 0
    _assert_same_bytes(iterate_orbit(model, cfg, x0, n_transient, n_keep), oracle)
    assert calls[0] == _calls_to_recurrence(step, period, n_transient + n_keep)


def _cycle_map(step, period, domain_top=math.inf, raise_on_top=False):
    """``(model, x0)``: counts up by one to a cycle ``0, 1, ..., period - 1``.

    From ``x0`` the orbit first recurs at ``step``, with ``period``; the
    top of the cycle raises when ``raise_on_top``, at ``step``.
    """
    top = float(period - 1)

    def evaluate(x):
        if x[0] < top:
            return x + 1.0
        if raise_on_top:
            raise ValueError("top of the cycle")
        return np.zeros(1)

    domain = DomainSpec.box([-math.inf], [domain_top])
    x0 = np.array([float(period - step - 1)])
    return MapModel(dimension=1, evaluate=evaluate, domain=domain), x0


_EDGE_STEPS = (_L - 1, _L, _L + 1, 2 * _L - 1, 2 * _L)


# a first recurrence at a lone block's first steps, on a state of the block
# before, straddles the edge: the orbit stops `period` steps into its block.
# _L - 1 is the longest period a block catches
@pytest.mark.parametrize("step, period",
                         [(step, period) for period in (1, 2, 3, _B + 1) for step in _EDGE_STEPS]
                         + [(step, _L - 1) for step in _EDGE_STEPS])
@pytest.mark.parametrize("n_transient, n_keep", [(3 * _L + 5, 20), (5, 3 * _L)],
                         ids=["in-transient", "in-kept-window"])
def test_recurrence_near_a_block_edge_stops_at_its_block_end(period, step, n_transient,
                                                             n_keep):
    # the orbit stops right after `step`, or `period` steps into its block
    model, x0 = _cycle_map(step, period)
    model, calls = _counted(model)
    assert _first_recurrence(model, None, x0, 4 * _L) == (step, period)
    oracle = _per_step_orbit(model, None, x0, n_transient, n_keep)
    calls[0] = 0
    _assert_same_bytes(iterate_orbit(model, None, x0, n_transient, n_keep), oracle)
    assert calls[0] == _calls_to_recurrence(step, period, n_transient + n_keep)


@pytest.mark.parametrize("period", [_B + 1, 200, _L - 1])
def test_period_above_the_batch_block_stops_the_lone_orbit_early(period):
    # a chained scan's orbits cycle with a period that a 64-step block could
    # not catch; each stops after its first recurrence, on its float step,
    # and keeps the window of the full run
    model, x0 = _cycle_map(period + 300, period)
    model = MapModel(dimension=1, evaluate=model.evaluate, domain=model.domain,
                     evaluate_floats=lambda y: (y[0] + 1.0,) if y[0] < period - 1 else (0.0,))
    model, calls = _counted(model, floats=True)
    records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0] * 2, init_lo=x0, init_hi=x0,
                               n_transient=3000, n_keep=50, max_period=25,
                               continue_orbits=True)
    # the second orbit starts on the cycle and recurs at its step `period`
    assert calls[0] == _calls_to_recurrence(period + 300, period, 3050) + period + 1 < 2 * 3050
    chained = x0
    for rec in records:
        oracle = _per_step_orbit(model, None, chained, 3000, 50)
        _assert_same_bytes(rec.points, oracle)
        assert rec.error is None and rec.periods == (None,)
        chained = oracle[-1]


def test_long_orbit_never_asks_for_more_than_a_lone_block():
    model = MapModel(dimension=1, evaluate=lambda x: x + 1.0,
                     domain=DomainSpec.full_space(1))
    with _block_calls() as calls:
        orbit = iterate_orbit(model, None, [0.0], 10 ** 5, 3)
    assert orbit[:, 0].tolist() == [100_001.0, 100_002.0, 100_003.0]
    assert [start for start, *_ in calls] == list(range(0, 10 ** 5 + 3, _L))
    assert all(0 < stop - start <= _L for start, stop, *_ in calls)


def test_non_finite_state_is_not_a_recurrence():
    # NaN has the same bytes at steps 0 and 1, but step 0 already failed
    model = MapModel(dimension=1, evaluate=lambda x: np.full(1, np.nan),
                     domain=DomainSpec.full_space(1))
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, None, [0.0], 2 * _B, 5)
    assert (err.value.step, str(err.value)) == (0, "non-finite state at step 0")


def test_orbit_that_never_recurs_keeps_bounded_memory():
    # a dict of every state's bytes would hold 100 000 keys, many megabytes
    model = MapModel(dimension=1, evaluate=lambda x: x + 1.0,
                     domain=DomainSpec.full_space(1))
    tracemalloc.start()
    try:
        orbit = iterate_orbit(model, None, [0.0], 100_000 - 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orbit[:, 0].tolist() == [99_999.0, 100_000.0]
    assert peak < 1_000_000


@pytest.mark.parametrize("step", _EDGE_STEPS)
def test_chained_scan_orbits_stop_at_their_recurrence(step):
    # the first orbit recurs at `step`; each later one starts on the cycle of
    # period 3, so it recurs at its step 3
    model, x0 = _cycle_map(step, 3)
    model, calls = _counted(model)
    records = bifurcation_scan(model, "VMTOC", (0.0,), [0.0] * 3, init_lo=x0, init_hi=x0,
                               n_transient=3 * _L, n_keep=20, continue_orbits=True)
    assert calls[0] == _calls_to_recurrence(step, 3, 3 * _L + 20) + 2 * 4
    chained = x0
    for rec in records:
        oracle = _per_step_orbit(model, None, chained, 3 * _L, 20)
        _assert_same_bytes(rec.points, oracle)
        assert rec.periods == (3,)
        chained = oracle[-1]


@pytest.mark.parametrize("step", [_L - 1, _L, _L + 1])
def test_cycle_outside_the_domain_is_logged_once(caplog, step):
    # the cycle 0, 1, 2 leaves the box (-inf, 1] at 2, first after step - 1 steps
    model, x0 = _cycle_map(step, 3, domain_top=1.0)
    oracle = _per_step_orbit(model, None, x0, 3 * _L, 20)
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        _assert_same_bytes(iterate_orbit(model, None, x0, 3 * _L, 20), oracle)
    assert _exit_lines(caplog) == [f"orbit left the domain at step {step - 1} (advisory)"]
    with pytest.raises(OrbitError, match=f"state left the domain at step {step - 1}$"):
        iterate_orbit(model, None, x0, 3 * _L, 20, strict=True)


@pytest.mark.parametrize("step", _EDGE_STEPS)
def test_evaluation_failing_before_its_recurrence_raises_at_its_step(step):
    model, x0 = _cycle_map(step, 3, raise_on_top=True)
    with pytest.raises(OrbitError) as err:
        iterate_orbit(model, None, x0, 3 * _L, 20)
    assert (err.value.step, str(err.value)) == (
        step, f"evaluation failed at step {step}: ValueError: top of the cycle")


def test_signed_zero_recurs_with_period_two():
    _assert_signed_zero_recurs_with_period_two({})


def test_signed_zero_float_state_recurs_with_period_two():
    # the packed bytes of the floats tell the two zeros apart
    _assert_signed_zero_recurs_with_period_two({"evaluate_floats": lambda y: (-y[0],)})


def _assert_signed_zero_recurs_with_period_two(extra):
    # -x from 0 runs -0.0, 0.0, -0.0, ...: equal as numbers, not as bits
    model = MapModel(dimension=1, evaluate=lambda x: -x, domain=DomainSpec.full_space(1),
                     **extra)
    oracle = _per_step_orbit(model, None, [0.0], 2 * _B, 5)
    assert np.signbit(oracle[:, 0]).tolist() == [True, False, True, False, True]
    _assert_same_bytes(iterate_orbit(model, None, [0.0], 2 * _B, 5), oracle)


def test_chaotic_orbit_never_recurs_and_runs_every_step(lpa):
    model, calls = _counted(lpa)
    x0 = (22.0, 27.0, 5.0)
    assert _first_recurrence(model, None, x0, 3050) is None
    oracle = _per_step_orbit(model, None, x0, 3000, 50)
    calls[0] = 0
    _assert_same_bytes(iterate_orbit(model, None, x0, 3000, 50), oracle)
    assert calls[0] == 3050


def test_simulate_sized_orbit_makes_few_evaluations(lpa):
    # LPA under VMTOC c=0.49 toward K first recurs at step 104, with period 7
    model, calls = _counted(lpa)
    cfg = ControlConfig("VMTOC", 0.49, _K)
    x0 = (22.0, 27.0, 5.0)
    orbit = iterate_orbit(model, cfg, x0, 3000, 50)
    assert calls[0] == 105 < (3000 + 50) // 20
    _assert_same_bytes(orbit, _per_step_orbit(model, cfg, x0, 3000, 50))
    calls[0] = 0
    assert lyapunov_max(model, cfg, x0, n=5000) == _lyapunov_per_step(model, cfg, x0, 5000)
    assert calls[0] == 105 + 5000


# --- bubbles -----------------------------------------------------------------


def _fake_records(period_seq):
    return [ScanRecord(c=(i + 1) / len(period_seq), points=np.empty((0, 1)),
                       periods=(p,), seed=0) for i, p in enumerate(period_seq)]


def test_detect_bubbles_monotone_sequence_is_empty():
    records = _fake_records([None, None, 2, 2, 1, 1, 1])
    assert detect_bubbles(records) == []


def test_detect_bubbles_flags_interior_instability():
    seq = [None, 2, 1, 1, 2, 2, 1, 1]
    records = _fake_records(seq)
    bubbles = detect_bubbles(records)
    assert len(bubbles) == 1
    comp, c_lo, c_hi = bubbles[0]
    assert comp == 0
    assert c_lo == pytest.approx(5 / 8)
    assert c_hi == pytest.approx(6 / 8)


def test_detect_bubbles_requires_sorted_records():
    records = _fake_records([1, 2, 1])
    records.reverse()
    with pytest.raises(ValueError, match="sorted"):
        detect_bubbles(records)


def test_detect_bubbles_multiple_components():
    recs = [ScanRecord(c=(i + 1) / 6.0, points=np.empty((0, 2)),
                       periods=p, seed=0)
            for i, p in enumerate([(1, 1), (2, 1), (1, 2), (1, 2), (1, 1), (1, 1)])]
    bubbles = detect_bubbles(recs)
    assert (0, recs[1].c, recs[1].c) in bubbles
    assert (1, recs[2].c, recs[3].c) in bubbles


def _bubbles_by_definition(records):
    """Every maximal run of records whose period is not 1, with a period-1
    record on each side, component by component."""
    out = []
    for j in range(len(records[0].periods) if records else 0):
        runs = itertools.groupby(range(len(records)), key=lambda i: records[i].periods[j] == 1)
        for stable, run in runs:
            run = list(run)
            # a maximal unstable run has a stable record on each side unless it
            # touches an end of the scan
            if not stable and run[0] > 0 and run[-1] < len(records) - 1:
                out.append((j, records[run[0]].c, records[run[-1]].c))
    return out


@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.sampled_from([1, 1, 2, 3, None])] * dim), max_size=24)))
def test_detect_bubbles_matches_its_definition(periods):
    records = [ScanRecord(c=i / 24, points=np.empty((0, len(p))), periods=p, seed=0)
               for i, p in enumerate(periods)]
    assert detect_bubbles(records) == _bubbles_by_definition(records)


# --- Lyapunov ----------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0, -1.5])
def test_lyapunov_linear_scalar_map(a):
    # start at the fixed point so expanding maps keep a finite orbit
    f = MapModel(dimension=1, evaluate=lambda x: a * np.asarray(x, float),
                 jacobian=lambda x: np.array([[a]]),
                 domain=DomainSpec.full_space(1))
    lam = lyapunov_max(f, None, np.array([0.0]), n=1500)
    assert lam == pytest.approx(math.log(abs(a)), abs=1e-3)


def test_lyapunov_rejects_a_step_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^n must be an integer, got 1000.5$"):
        lyapunov_max(lpa_map(), None, (20, 20, 5), n=1000.5)
    assert lyapunov_max(lpa_map(), None, (20, 20, 5), n=np.int64(1000)) == \
        lyapunov_max(lpa_map(), None, (20, 20, 5), n=1000)


def test_lyapunov_orbit_moves_on_past_a_collapsed_tangent():
    # f(x) = 1 - 2x^2 from 0: f'(0) = 0 collapses the tangent at step 0,
    # then the orbit runs 1, -1, -1, ... where |f'(-1)| = 4
    f = MapModel(dimension=1, evaluate=lambda x: 1.0 - 2.0 * np.asarray(x, float) ** 2,
                 jacobian=lambda x: np.array([[-4.0 * float(x[0])]]),
                 domain=DomainSpec.full_space(1))
    lam = lyapunov_max(f, None, np.array([0.0]), n=1500)
    assert lam == pytest.approx(math.log(4.0), abs=1e-3)


def test_lyapunov_diverging_orbit_raises_with_its_step():
    f = MapModel(dimension=1, evaluate=lambda x: 1e200 * np.asarray(x, float),
                 jacobian=lambda x: np.array([[1e200]]),
                 domain=DomainSpec.full_space(1))
    with np.errstate(over="ignore"), pytest.raises(OrbitError, match="step 1") as err:
        lyapunov_max(f, None, np.array([1.0]), n=1000)
    assert err.value.step == 1


def _lyapunov_per_step(model, cfg, x0, n):
    """The exponent as computed before its orbit came from ``iterate_orbit``:
    one single-state loop that steps the orbit and the tangent together."""
    g = controlled_map(model, cfg) if cfg is not None else model
    x = np.asarray(as_state(x0, model.dimension), float)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(model.dimension)
    v /= np.linalg.norm(v)
    logs = np.empty(n)
    for i in range(n):
        v = np.asarray(g.jacobian_at(x), float) @ v
        growth = float(np.linalg.norm(v))
        if growth == 0.0:
            v = rng.standard_normal(model.dimension)
            v /= np.linalg.norm(v)
            logs[i] = -np.inf
        else:
            logs[i] = math.log(growth)
            v /= growth
        x = np.asarray(g.evaluate(x), float)
        if not math.isfinite(float(np.sum(x))):
            raise OrbitError(f"orbit diverged at step {i}", step=i)
    return float(np.mean(logs[int(0.2 * n):]))


@pytest.mark.parametrize("kind", ["lpa", "ricker"])
@pytest.mark.parametrize("scheme", [None, "VMTOC", "VTOC"])
def test_lyapunov_matches_per_step_loop(kind, scheme):
    if kind == "lpa":
        model, x0, target = lpa_map(), [22.0, 27.0, 5.0], (28.0120, 22.4096, 4.6251)
    else:
        model = ricker_lift(RickerParams(r=2.0, delay=3))
        x0, target = [1.5, 0.5, 1.2], (1.0, 1.0, 1.0)
    cfg = ControlConfig(scheme, 0.3, target) if scheme else None
    assert lyapunov_max(model, cfg, x0, n=2000) == _lyapunov_per_step(model, cfg, x0, 2000)


def test_lyapunov_builds_its_controlled_map_once(monkeypatch):
    model, cfg = lpa_map(), ControlConfig("VMTOC", 0.4, (28.0120, 22.4096, 4.6251))
    x0, built, build = [22.0, 27.0, 5.0], [], controls._controlled

    def spy(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(controls, "_controlled", spy)
    lam = lyapunov_max(model, cfg, x0, n=1000)
    assert len(built) == 1
    assert lam == lyapunov_max(controlled_map(model, cfg), None, x0, n=1000)


def test_lyapunov_failing_evaluation_raises_with_its_step():
    # x_i = i; evaluating x_7 raises, so step 7 fails
    def evaluate(x):
        if x[0] >= 7.0:
            raise ValueError("population model undefined")
        return np.asarray(x, float) + 1.0

    f = MapModel(dimension=1, evaluate=evaluate, jacobian=lambda x: np.eye(1),
                 domain=DomainSpec.nonnegative_orthant(1))
    with pytest.raises(OrbitError, match="evaluation failed at step 7") as err:
        lyapunov_max(f, None, np.array([0.0]), n=1000)
    assert err.value.step == 7


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lyapunov_non_finite_jacobian_raises_with_its_step_and_state(bad):
    # x_i = 0.5^i; the Jacobian is not finite from x_3 = 0.125 on
    f = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),
                 jacobian=lambda x: np.array([[bad if x[0] < 0.2 else 0.5]]),
                 domain=DomainSpec.full_space(1))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        lyapunov_max(f, None, np.array([1.0]), n=1000)
    assert str(err.value) == "non-finite Jacobian at step 3, x = (0.125)"


def test_lyapunov_raising_jacobian_raises_with_its_step_and_state():
    # x_i = 0.5^i; the Jacobian 1/(x - 0.125) divides by zero at x_3
    f = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),
                 jacobian=lambda x: np.array([[1.0 / (float(x[0]) - 0.125)]]),
                 domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError) as err:
        lyapunov_max(f, None, np.array([1.0]), n=1000)
    assert str(err.value) == ("Jacobian failed at step 3, x = (0.125): "
                              "ZeroDivisionError: float division by zero")
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_lyapunov_jacobian_of_the_wrong_shape_raises_with_its_step_and_state():
    # the tangent step J @ v would fail with numpy's words, or broadcast
    lpa = lpa_map()
    f = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                 jacobian=lambda x: lpa.jacobian(x)[:, :2])
    with pytest.raises(ValueError) as err:
        lyapunov_max(f, None, np.array([22.0, 27.0, 5.0]), n=1000)
    assert str(err.value) == ("Jacobian failed at step 0, x = (22, 27, 5): ValueError: the map "
                              "gave a Jacobian of shape (3, 2), but the model has dimension 3")


def _counter_with_faults(faults):
    """x -> x + 1 from 0, so x_i = i, whose Jacobian at step i is NaN where
    ``faults[i]`` is "nan", raises where it is an exception class, and is 1
    otherwise."""
    def jacobian(x):
        fault = faults.get(int(x[0]))
        if fault == "nan":
            return np.array([[math.nan]])
        if fault is not None:
            raise fault("no slope")
        return np.eye(1)

    return MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) + 1.0,
                    jacobian=jacobian, domain=DomainSpec.full_space(1))


@pytest.mark.parametrize("faults, first", [
    ({2: "nan", 5: ZeroDivisionError}, 2), ({2: "nan", 5: TypeError}, 2),
    ({1: ZeroDivisionError, 3: "nan"}, 1), ({3: TypeError, 5: "nan"}, None),
    # past the first stack of 4096 states
    ({4095: "nan", 4096: ZeroDivisionError}, 4095), ({4100: ValueError, 4150: "nan"}, 4100),
    ({4150: "nan"}, 4150),
], ids=["nan-then-raise", "nan-then-typeerror", "raise-then-nan", "typeerror-then-nan",
        "nan-then-raise-next-chunk", "raise-in-second-chunk", "nan-in-second-chunk"])
@pytest.mark.parametrize("scheme", [None, "VMTOC"])
def test_lyapunov_names_the_first_failing_step(faults, first, scheme):
    f = _counter_with_faults(faults)
    # after the map the base Jacobian is taken at the orbit's own states,
    # which the pull toward 0 at c = 0 leaves as they are
    cfg = ControlConfig(scheme, 0.0, (0.0,)) if scheme else None
    if first is None:
        with pytest.raises(TypeError, match="no slope"):
            lyapunov_max(f, cfg, np.array([0.0]), n=5000)
        return
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        lyapunov_max(f, cfg, np.array([0.0]), n=5000)
    fault = faults[first]
    if fault == "nan":
        assert str(err.value) == f"non-finite Jacobian at step {first}, x = ({first})"
    else:
        assert str(err.value) == (f"Jacobian failed at step {first}, x = ({first}): "
                                  f"{fault.__name__}: no slope")
        assert type(err.value.__cause__) is fault


def test_lyapunov_takes_one_stack_per_4096_states(monkeypatch):
    model, calls = counting_lpa()
    g = controlled_map(model, ControlConfig("VMTOC", 0.4, _K))
    stacks, at_calls = [], []
    jacobian_rows, jacobian_at = MapModel.jacobian_rows, MapModel.jacobian_at

    def rows_spy(self, rows, out=None, what="the map"):
        stacks.append(len(rows))
        return jacobian_rows(self, rows, out, what)

    def at_spy(self, x):
        at_calls.append(x)
        return jacobian_at(self, x)

    monkeypatch.setattr(MapModel, "jacobian_rows", rows_spy)
    monkeypatch.setattr(MapModel, "jacobian_at", at_spy)
    lam = lyapunov_max(g, None, (22.0, 27.0, 5.0), n=5000)
    monkeypatch.undo()
    # each stack of the controlled map takes one stack of its base
    assert (stacks, calls["jacobian"], at_calls) == ([4096, 4096, 904, 904], 5000, [])
    assert lam == _lyapunov_per_step(model, ControlConfig("VMTOC", 0.4, _K), (22.0, 27.0, 5.0),
                                     5000)


def test_lyapunov_logs_one_domain_exit(caplog):
    # x_i = 2 - i leaves the orthant at step 2 and stays outside
    f = MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) - 1.0,
                 jacobian=lambda x: np.eye(1), domain=DomainSpec.nonnegative_orthant(1))
    with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"):
        assert lyapunov_max(f, None, np.array([2.0]), n=1000) == 0.0
    assert _exit_lines(caplog) == ["orbit left the domain at step 2 (advisory)"]


def test_lyapunov_requires_long_run(lpa):
    with pytest.raises(ValueError, match="1000"):
        lyapunov_max(lpa, None, np.array([5.0, 5.0, 5.0]), n=100)


def test_lyapunov_signs_on_lpa(lpa, lpa_k):
    chaotic = lyapunov_max(lpa, None, np.array([22.0, 27.0, 5.0]), n=5000)
    assert chaotic > 0.0
    stabilized = lyapunov_max(lpa, ControlConfig("VMTOC", 0.5, tuple(lpa_k)),
                              np.array([22.0, 27.0, 5.0]), n=2000)
    assert stabilized < 0.0


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 64])
def test_repeat_fills_rows_as_the_cycle_index_does(p):
    # the slices of _repeat against out[k] = cycle[(phase + k) % p], for
    # windows shorter than one period and many periods long
    cycle = np.random.default_rng(p).standard_normal((p, 3))
    for n in (0, 1, p - 1, p, p + 1, 2 * p + 1, 50, 400):
        for phase in range(p):
            out = np.full((max(n, 0), 3), np.nan)
            dynamics._repeat(out, cycle, phase)
            np.testing.assert_array_equal(out, cycle[(phase + np.arange(max(n, 0))) % p])


# The lone loop writes a formula's float step, with a control's pull fused
# in, into its compiled block, and calls any other float step from the same
# block source.  Its oracle is the orbit of the same step stripped of its
# formula, as a plain callable, which the block calls once a step.
_INLINE_SCHEMES = ("VMTOC", "VTOC", "MPF", "PF", "DIAG-VMTOC")
_INLINE_MODELS = {"lpa": (lpa_map(), (28.0120, 22.4096, 4.6251), 40.0),
                  "ricker-2": (ricker_lift(RickerParams(r=2.0, delay=2)), (2.0, 2.0), 4.0),
                  "ricker-3": (ricker_lift(RickerParams(r=2.0, delay=3)), (2.0,) * 3, 4.0)}


def _stripped(g):
    """``g`` with its float step as a plain callable, without its formula."""
    step = g.evaluate_floats
    return MapModel(dimension=g.dimension, evaluate=g.evaluate, domain=g.domain,
                    evaluate_floats=lambda y: step(y))


@contextlib.contextmanager
def _block_calls():
    """Record every block call of the lone loop: its start and stop, the
    states it reached, the lag of a recurrence that ended it, and the error
    it met."""
    real, calls = dynamics.step_block, []

    def spy(step, d):
        block = real(step, d)

        def spied(x, start, stop):
            keys, y, p, error = block(x, start, stop)
            calls.append((start, stop, len(keys), p, error and repr(error)))
            return keys, y, p, error

        return spied

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "step_block", spy)
        yield calls


def _run_both(caplog, g, x0, n_transient, n_keep):
    """The orbit of ``g`` through its compiled block and through its stripped
    step, each as ``(window or (step, message), exit lines, block calls)``;
    asserts that the first writes its formula into the block."""
    assert g.evaluate_floats.formula[1] in ("after", "before")
    runs = []
    for model in (g, _stripped(g)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="chaosctl.dynamics"), \
                _block_calls() as calls, np.errstate(all="ignore"):
            try:
                outcome = iterate_orbit(model, None, x0, n_transient, n_keep).tobytes()
            except OrbitError as exc:
                outcome = exc.step, str(exc)
        runs.append((outcome, _exit_lines(caplog), calls))
    assert runs[0] == runs[1]
    return runs[0]


def _inline_config(scheme, c, target):
    d = len(target)
    return ControlConfig(scheme, tuple(c * (j + 1) / d for j in range(d))
                         if scheme == "DIAG-VMTOC" else c, target)


@pytest.mark.parametrize("scheme", _INLINE_SCHEMES)
@pytest.mark.parametrize("name", list(_INLINE_MODELS))
def test_inlined_block_equals_the_called_block(caplog, name, scheme):
    model, target, hi = _INLINE_MODELS[name]
    d, rng = model.dimension, np.random.default_rng([34, model.dimension])
    outcomes = {}
    # weak and strong controls from inside the domain; a start with one
    # population (the LPA's adults, the lift's newest value) so far below 0
    # that its image is too, and one whose last component is so far below 0
    # that an exponential overflows
    below, overflow = rng.uniform(1.0, hi, d), rng.uniform(1.0, hi, d)
    below[-1 if name == "lpa" else 0], overflow[-1] = -50.0, -1e5
    for case, c, x0 in [("weak", 0.1, rng.uniform(0.0, hi, d)),
                        ("strong", 0.6, rng.uniform(0.0, hi, d)),
                        ("below", 0.3, below), ("overflow", 0.3, overflow)]:
        g = controlled_map(model, _inline_config(scheme, c, target))
        outcomes[case] = _run_both(caplog, g, x0, 300, 60)
    # toward a target the strong control recurs, which ends its block early;
    # culling drives the state toward 0, which takes longer to reach
    assert any(p for *_, p, _ in outcomes["strong"][2]) == (scheme not in ("MPF", "PF"))
    assert outcomes["below"][1] == ["orbit left the domain at step 0 (advisory)"]
    assert outcomes["overflow"][0] == (0, "non-finite state at step 0")


# x -> 2x, written as a formula; under a control of intensity 0 the state
# after step k is 2^(e + k + 1) from 2^e, which overflows at step 1023 - e
_DOUBLING = core.Formula(names=("g",), exps=(), components=("g * x0", "g * x1"),
                         jacobian=((0, 0, "g"), (1, 1, "g")))


@pytest.mark.parametrize("step", [1, _L - 1, _L, _L + 1, 2 * _L])
@pytest.mark.parametrize("scheme", _INLINE_SCHEMES)
def test_inlined_block_fails_at_the_called_blocks_step(caplog, scheme, step):
    model = MapModel(dimension=2, evaluate=lambda x: np.asarray(x, float) * 2.0,
                     domain=DomainSpec.full_space(2),
                     evaluate_floats=_DOUBLING.bind("floats", 2.0))
    cfg = ControlConfig(scheme, (0.0, 0.0) if scheme == "DIAG-VMTOC" else 0.0, (1.0, 1.0))
    x0 = np.full(2, 2.0 ** (1023 - step))
    outcome, lines, calls = _run_both(caplog, controlled_map(model, cfg), x0, 2 * _L + 100,
                                      10)
    assert outcome == (step, f"non-finite state at step {step}") and lines == []
    # the last block holds the failing step's state, inf
    start, _, reached, _, _ = calls[-1]
    assert start == step // _L * _L and reached > step % _L
