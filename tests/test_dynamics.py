import math

import numpy as np
import pytest

from chaosctl import (
    ControlConfig,
    DomainSpec,
    MapModel,
    OrbitError,
    ScanRecord,
    bifurcation_scan,
    compose_vmtoc,
    detect_bubbles,
    detect_period,
    iterate_orbit,
    lpa_recruitment_bound,
    lyapunov_max,
    overall_period,
)
from chaosctl.models import LpaParams, RickerParams, lpa_map, ricker_lift


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
    with pytest.raises(ValueError, match="grid intensity"):
        bifurcation_scan(lpa, "VMTOC", (1.0, 1.0, 1.0), [1.0])


@pytest.mark.parametrize("scheme, target, message", [
    ("DIAG-VMTOC", (1.0, 1.0, 1.0), "expected 3 intensities"),
    ("VMTOC", (-1.0, 22.0, 4.6), "target outside"),
    ("VTOC", (1.0, 1.0), "dimension mismatch"),
])
def test_scan_rejects_bad_control_before_iterating(lpa, scheme, target, message):
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(lpa, scheme, target, [0.0, 0.5], n_transient=10, n_keep=4)


def _never(x):
    raise AssertionError("an orbit ran")


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": 0.0}, "tol must be positive"),
    ({"max_period": 0}, "max_period must be at least 1"),
    ({"n_transient": -1}, "nonnegative"),
    ({"n_keep": -1}, "nonnegative"),
])
def test_scan_rejects_bad_parameters_before_iterating(kwargs, message):
    f = MapModel(dimension=3, evaluate=_never, domain=DomainSpec.nonnegative_orthant(3))
    with pytest.raises(ValueError, match=message):
        bifurcation_scan(f, "VMTOC", (28.0, 22.0, 4.6), [0.2, 0.5], **kwargs)


def test_scan_plugin_exception_fails_its_row_only():
    # no evaluate_batch: the scan evaluates row by row, and math.exp raises
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


def test_scan_continuation_chains_orbits(lpa, lpa_k):
    records = bifurcation_scan(lpa, "VMTOC", tuple(lpa_k), [0.5, 0.6],
                               seed=3, n_transient=100, n_keep=5,
                               continue_orbits=True)
    # second orbit starts from the final state of the first
    start = records[0].points[-1]
    manual = iterate_orbit(lpa, ControlConfig("VMTOC", 0.6, tuple(lpa_k)),
                           start, 100, 5)
    np.testing.assert_array_equal(records[1].points, manual)


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


# --- Lyapunov ----------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0, -1.5])
def test_lyapunov_linear_scalar_map(a):
    # start at the fixed point so expanding maps keep a finite orbit
    f = MapModel(dimension=1, evaluate=lambda x: a * np.asarray(x, float),
                 jacobian=lambda x: np.array([[a]]),
                 domain=DomainSpec.full_space(1))
    lam = lyapunov_max(f, None, np.array([0.0]), n=1500)
    assert lam == pytest.approx(math.log(abs(a)), abs=1e-3)


def test_lyapunov_requires_long_run(lpa):
    with pytest.raises(ValueError, match="1000"):
        lyapunov_max(lpa, None, np.array([5.0, 5.0, 5.0]), n=100)


def test_lyapunov_signs_on_lpa(lpa, lpa_k):
    chaotic = lyapunov_max(lpa, None, np.array([22.0, 27.0, 5.0]), n=5000)
    assert chaotic > 0.0
    stabilized = lyapunov_max(lpa, ControlConfig("VMTOC", 0.5, tuple(lpa_k)),
                              np.array([22.0, 27.0, 5.0]), n=2000)
    assert stabilized < 0.0
