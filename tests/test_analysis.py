import math

import numpy as np
import pytest

from chaosctl import (
    ControlConfig,
    ConvergenceError,
    DomainSpec,
    MapModel,
    OrbitError,
    apply_control,
    bound_A,
    compose_vmtoc,
    controlled_map,
    find_fixed_point,
    global_cstar,
    lipschitz_estimate,
    local_cstar,
    lpa_jacobian,
    lpa_map,
    multistart_fixed_points,
    norm,
    spectral_radius,
    stability_report,
    target_for_state,
    verify_contraction,
)
from chaosctl import analysis
from chaosctl.analysis import box_samples
from chaosctl.core import RowError, state_text
from chaosctl.models import LpaParams, RickerParams, ricker_lift

from conftest import LPA_FIXED_POINT, counting_lpa


def shifted_linear(a, k, dim=2, domain=None):
    k = np.asarray(k, float)
    return MapModel(dimension=dim,
                    evaluate=lambda x: a * (np.asarray(x, float) - k) + k,
                    domain=domain or DomainSpec.full_space(dim))


# --- find_fixed_point -------------------------------------------------------


def test_lpa_fixed_point_from_standard_start(lpa):
    k = find_fixed_point(lpa, np.array([20.0, 20.0, 5.0]), tol=1e-10)
    np.testing.assert_allclose(k, LPA_FIXED_POINT, atol=1e-3)


def test_linear_contraction_converges_to_origin():
    f = shifted_linear(0.5, [0.0, 0.0])
    k = find_fixed_point(f, np.array([100.0, -40.0]), tol=1e-12)
    np.testing.assert_allclose(k, [0.0, 0.0], atol=1e-12)


def test_controlled_lpa_equilibrium_positive_components(lpa):
    cfg = ControlConfig("VMTOC", 0.8, (30.0, 200.0, 30.0))
    g = controlled_map(lpa, cfg)
    eq = find_fixed_point(g, np.array([10.0, 10.0, 10.0]), tol=1e-11)
    assert np.all(eq > 0.0)
    # independent residual check of the equilibrium identity
    resid = 0.8 * np.array([30.0, 200.0, 30.0]) + 0.2 * lpa.evaluate(eq) - eq
    assert np.max(np.abs(resid)) < 1e-10


def test_no_convergence_reports_best_residual():
    # rotation by 90 degrees about a center has the center as unique fixed
    # point, but plain then damped Newton from far away with a hostile map:
    # use a map with no fixed point at all: translation.
    f = MapModel(dimension=1, evaluate=lambda x: x + 1.0,
                 domain=DomainSpec.full_space(1))
    with pytest.raises(ConvergenceError) as err:
        find_fixed_point(f, np.array([0.0]), tol=1e-12, max_iter=20)
    assert err.value.best_residual is not None
    assert err.value.best_residual >= 1.0 - 1e-9


def test_newton_step_that_reaches_tol_on_the_last_iteration_is_returned():
    # one Newton step solves the linear map exactly: (0.5 - 1)*s = -(0.5*0 + 1 - 0)
    f = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float) + 1.0,
                 jacobian=lambda x: np.array([[0.5]]), domain=DomainSpec.full_space(1))
    np.testing.assert_array_equal(find_fixed_point(f, np.array([0.0]), max_iter=1), [2.0])


def test_best_residual_includes_the_last_newton_step(lpa):
    # three Newton steps from (20, 20, 5) end below 1e-6 but above the tolerance
    with pytest.raises(ConvergenceError, match=r"within 3 iterations") as err:
        find_fixed_point(lpa, np.array([20.0, 20.0, 5.0]), max_iter=3)
    assert err.value.best_residual < 1e-6
    best = err.value.best_point
    assert np.max(np.abs(lpa.evaluate(best) - best)) == err.value.best_residual


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_fixed_point_search_rejects_a_tolerance_that_is_not_positive(tol):
    f = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),
                 domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
        find_fixed_point(f, np.array([1.0]), tol=tol)


def test_singular_newton_system_falls_back_to_averaging():
    # J - I = 0 makes every Newton system singular (LinAlgError), and the
    # averaging x <- (x + f(x))/2 = 0.75*x + 0.5 reaches the fixed point 2
    f = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float) + 1.0,
                 jacobian=lambda x: np.eye(1), domain=DomainSpec.full_space(1))
    k = find_fixed_point(f, np.array([0.0]), tol=1e-12)
    np.testing.assert_allclose(k, [2.0], atol=1e-12)


def test_non_finite_averaging_iterate_stops_the_search():
    # f(x) = x^2 + 1 has no real fixed point; Newton stalls and averaging
    # overflows to inf, from which no later iterate can return
    calls = []

    def evaluate(x):
        calls.append(1)
        return np.asarray(x, float) ** 2 + 1.0

    f = MapModel(dimension=1, evaluate=evaluate, jacobian=lambda x: np.array([[2.0 * x[0]]]),
                 domain=DomainSpec.full_space(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError, match=r"averaging iterate x = \(inf\) is not finite"
                          ) as err:
        find_fixed_point(f, np.array([0.0]))
    assert len(calls) < 1000
    assert err.value.best_residual == 0.75
    np.testing.assert_array_equal(err.value.best_point, [0.5])


def _exp_map(jacobian=None):
    """f(x) = 0.5*exp(x/100), as a plugin would write it: math.exp overflows
    past x = 70978."""
    return MapModel(dimension=1, evaluate=lambda x: np.array([0.5 * math.exp(x[0] / 100)]),
                    jacobian=jacobian, domain=DomainSpec.nonnegative_orthant(1))


def test_failing_evaluation_ends_the_search_naming_its_state():
    with pytest.raises(ConvergenceError) as err:
        find_fixed_point(_exp_map(), np.array([90000.0]))
    assert str(err.value) == ("no fixed point: evaluation failed at x = (90000): "
                              "OverflowError: math range error (best residual inf)")
    assert (err.value.best_point, err.value.best_residual) == (None, math.inf)
    assert isinstance(err.value.__cause__, OverflowError)


@pytest.mark.parametrize("image, shape", [(lambda x: 0.5 * float(x[0]), ()),
                                          (lambda x: 0.5 * np.asarray(x, float)[:2], (2,))],
                         ids=["scalar", "short"])
def test_image_of_the_wrong_size_ends_the_search_naming_its_state(image, shape):
    # f(x) - x would broadcast the image; its finite-difference Jacobian
    # would index a 0-d image
    f = MapModel(dimension=3, evaluate=image, domain=DomainSpec.full_space(3))
    with pytest.raises(ConvergenceError) as err:
        find_fixed_point(f, np.array([1.0, 2.0, 3.0]))
    assert str(err.value) == (f"no fixed point: evaluation failed at x = (1, 2, 3): ValueError: "
                              f"the map gave an image of shape {shape}, but the model has "
                              f"dimension 3 (best residual inf)")
    assert (err.value.best_point, err.value.best_residual) == (None, math.inf)


def test_failing_jacobian_ends_the_search_with_the_best_point():
    def jacobian(x):
        raise ZeroDivisionError("no slope")

    with pytest.raises(ConvergenceError) as err:
        find_fixed_point(_exp_map(jacobian), np.array([2.0]))
    best = abs(0.5 * math.exp(0.02) - 2.0)
    assert str(err.value) == ("no fixed point: evaluation failed at x = (2): "
                              f"ZeroDivisionError: no slope (best residual {best:.3e})")
    assert err.value.best_residual == best
    np.testing.assert_array_equal(err.value.best_point, [2.0])


def test_multistart_skips_a_start_whose_evaluation_fails():
    # from 90000 the first evaluation overflows; from 1 the search converges
    found = multistart_fixed_points(_exp_map(), [np.array([90000.0]), np.array([1.0])])
    assert len(found) == 1
    assert abs(0.5 * math.exp(found[0][0] / 100) - found[0][0]) < 1e-10


def test_multistart_deduplicates():
    # two fixed points: x = 0 and x = 1 for f(x) = x^2
    f = MapModel(dimension=1, evaluate=lambda x: x * x,
                 domain=DomainSpec.full_space(1))
    pts = multistart_fixed_points(f, [np.array([0.2]), np.array([0.21]),
                                      np.array([1.3]), np.array([0.9])],
                                  tol=1e-12)
    values = sorted(float(p[0]) for p in pts)
    assert values == pytest.approx([0.0, 1.0], abs=1e-10)


# --- spectral radius --------------------------------------------------------


def test_spectral_radius_small_matrices():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0)


def test_spectral_radius_lpa_at_fixed_point(lpa_k):
    assert spectral_radius(lpa_jacobian(LpaParams(), lpa_k)) == pytest.approx(
        1.3803, abs=1e-3)


def test_spectral_radius_large_real_dominant():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    d = np.concatenate([[5.0], rng.uniform(0.0, 2.0, 79)])
    m = q @ np.diag(d) @ q.T
    assert spectral_radius(m) == pytest.approx(5.0, abs=1e-6)


def test_spectral_radius_large_complex_pair():
    # dominant complex pair of modulus 3 via an embedded rotation block
    rng = np.random.default_rng(2)
    m = np.zeros((60, 60))
    theta = 0.7
    m[0, 0] = 3.0 * math.cos(theta)
    m[0, 1] = -3.0 * math.sin(theta)
    m[1, 0] = 3.0 * math.sin(theta)
    m[1, 1] = 3.0 * math.cos(theta)
    m[2:, 2:] = rng.uniform(-0.1, 0.1, (58, 58))
    assert spectral_radius(m) == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("r", [0.05, 2.0])
@pytest.mark.parametrize("delay", [60, 100, 200])
def test_spectral_radius_is_dense_eigenvalue_modulus(delay, r):
    m = ricker_lift(RickerParams(r=r, delay=delay)).jacobian_at(np.full(delay, r))
    assert spectral_radius(m) == float(np.max(np.abs(np.linalg.eigvals(m))))


def test_spectral_radius_validation():
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalue_modulus_bounded_by_row_and_col_sums():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(2, 11)
        m = rng.normal(0, 2, (n, n))
        rho = spectral_radius(m)
        rows = np.max(np.sum(np.abs(m), axis=1))
        cols = np.max(np.sum(np.abs(m), axis=0))
        assert rho <= min(rows, cols) + 1e-9


# --- bound_A ----------------------------------------------------------------


def test_bound_a_constant_map_is_zero():
    f = MapModel(dimension=2, evaluate=lambda x: np.array([3.0, 4.0]),
                 domain=DomainSpec.full_space(2))
    assert bound_A(f, [0.0, 0.0], [10.0, 10.0], n_samples=64) == 0.0


def test_bound_a_linear_slope():
    f = MapModel(dimension=1, evaluate=lambda x: -2.5 * x,
                 domain=DomainSpec.full_space(1))
    assert bound_A(f, [-1.0], [1.0], n_samples=16) == pytest.approx(2.5, rel=1e-7)


def test_bound_a_names_the_sample_whose_jacobian_raises():
    # samples 0 and 1 are the box's corners; finite differences at 100000
    # evaluate math.exp past its range
    with pytest.raises(ValueError) as err:
        bound_A(_exp_map(), [0.0], [100000.0], n_samples=4)
    assert str(err.value) == ("Jacobian failed at sample 1, x = (100000): "
                              "OverflowError: math range error")


def test_bound_a_rejects_non_finite_jacobian():
    # finite differences of 3*sqrt(x) are NaN at every sample below 0; an
    # analytic Jacobian of inf at x = 0 is no usable bound either
    def f(x):
        with np.errstate(invalid="ignore"):
            return 3.0 * np.sqrt(np.asarray(x, float))

    fd = MapModel(dimension=1, evaluate=f, domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError, match=r"non-finite Jacobian .* at sample 0, x = \(-4\)"):
        bound_A(fd, [-4.0], [4.0], n_samples=64)
    # 3*sqrt(x^2 - 1) is NaN on (-1, 1) only: past the two finite corners,
    # the center is the first sample named
    def g(x):
        with np.errstate(invalid="ignore"):
            return 3.0 * np.sqrt(np.asarray(x, float) ** 2 - 1.0)

    hole = MapModel(dimension=1, evaluate=g, domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError, match=r"at sample 2, x = \(0\)"):
        bound_A(hole, [-4.0], [4.0], n_samples=64)
    analytic = MapModel(dimension=1, evaluate=f, domain=DomainSpec.nonnegative_orthant(1),
                        jacobian=lambda x: np.array([[math.inf if x[0] == 0.0
                                                      else 1.5 / math.sqrt(x[0])]]))
    with pytest.raises(ValueError, match=r"at sample 0, x = \(0\)"):
        bound_A(analytic, [0.0], [4.0], n_samples=64)
    assert bound_A(analytic, [1.0], [4.0], n_samples=64) == pytest.approx(1.5)


def test_bound_a_dominates_rho_on_box_containing_k(lpa, lpa_k):
    a = bound_A(lpa, [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], n_samples=512)
    rho = spectral_radius(lpa.jacobian_at(lpa_k))
    assert a >= rho
    # independent dense-grid oracle agrees within sampling slack
    grid_max_rows = 0.0
    grid_max_cols = 0.0
    for l in np.linspace(0, 60, 12):
        for p in np.linspace(0, 60, 12):
            for ad in np.linspace(0, 20, 12):
                j = np.abs(lpa.jacobian_at(np.array([l, p, ad])))
                grid_max_rows = max(grid_max_rows, j.sum(axis=1).max())
                grid_max_cols = max(grid_max_cols, j.sum(axis=0).max())
    assert a == pytest.approx(min(grid_max_rows, grid_max_cols), rel=0.05)


def test_bound_a_monotone_in_samples(lpa):
    values = [bound_A(lpa, [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], n)
              for n in (8, 32, 128, 512)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_bound_a_degenerate_box_is_pointwise(lpa, lpa_k):
    a = bound_A(lpa, lpa_k, lpa_k, n_samples=4)
    j = np.abs(lpa.jacobian_at(lpa_k))
    assert a == pytest.approx(min(j.sum(axis=1).max(), j.sum(axis=0).max()), rel=1e-12)


def _per_sample_bound_a(model, lo, hi, n_samples):
    """bound_A one sample at a time: five reductions of each Jacobian."""
    rows = 0.0
    cols = 0.0
    for x in box_samples(lo, hi, n_samples):
        j = np.abs(model.jacobian_at(x))
        row_max = float(np.max(j.sum(axis=1)))
        col_max = float(np.max(j.sum(axis=0)))
        assert math.isfinite(row_max) and math.isfinite(col_max)
        rows = max(rows, row_max)
        cols = max(cols, col_max)
    return min(rows, cols)


def _bound_a_case(name):
    """A model and its sample box, with a target for the controls."""
    if name == "lpa":
        return lpa_map(), [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], (30.0, 30.0, 200.0)
    if name == "lpa-fd":
        # a plugin without an analytic Jacobian: finite differences
        lpa = lpa_map()
        plugin = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain)
        return plugin, [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], (30.0, 30.0, 200.0)
    delay = int(name.removeprefix("ricker"))
    return (ricker_lift(RickerParams(r=2.0, delay=delay)), [0.5] * delay, [3.5] * delay,
            tuple(np.linspace(1.0, 3.0, delay)))


@pytest.mark.parametrize("scheme", [None, "VMTOC", "VTOC", "DIAG-VMTOC"])
@pytest.mark.parametrize("name", ["lpa", "lpa-fd", "ricker2", "ricker3", "ricker13"])
def test_bound_a_equals_the_per_sample_loop_bitwise(name, scheme):
    # delay 13 is past box_samples' 12-dimension limit on corners
    model, lo, hi, target = _bound_a_case(name)
    if scheme is not None:
        d = model.dimension
        intensity = tuple(np.linspace(0.2, 0.6, d)) if scheme == "DIAG-VMTOC" else 0.35
        model = controlled_map(model, ControlConfig(scheme, intensity, target))
    assert bound_A(model, lo, hi, 512) == _per_sample_bound_a(model, lo, hi, 512)


def test_bound_a_equals_the_per_sample_loop_over_several_chunks(lpa):
    lo, hi = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0]
    assert len(box_samples(lo, hi, 5000)) > analysis._BOUND_CHUNK
    assert bound_A(lpa, lo, hi, 5000) == _per_sample_bound_a(lpa, lo, hi, 5000)


def test_stability_report_on_a_delay_13_lift():
    # no corners are sampled past 12 dimensions; the equilibrium is r everywhere
    lift = ricker_lift(RickerParams(r=2.0, delay=13))
    lo, hi = [1.5] * 13, [2.5] * 13
    rep = stability_report(lift, [1.9] * 13, lo, hi, n_samples=256)
    np.testing.assert_allclose(rep.equilibrium, 2.0, rtol=1e-12)
    assert rep.bound_a == _per_sample_bound_a(lift, lo, hi, 256)


def _sample_keyed_map(lo, hi, n_samples, faults):
    """A 2-D map whose Jacobian at sample i of ``box_samples(lo, hi,
    n_samples)`` is NaN where ``faults[i]`` is "nan", raises where it is an
    exception class, and is 0.5 everywhere otherwise."""
    index = {}
    for i, x in enumerate(box_samples(lo, hi, n_samples)):
        index.setdefault(tuple(x), i)

    def jacobian(x):
        fault = faults.get(index[tuple(x)])
        if fault == "nan":
            return np.full((2, 2), math.nan)
        if fault is not None:
            raise fault("no slope")
        return np.full((2, 2), 0.5)

    return MapModel(dimension=2, evaluate=lambda x: 0.5 * np.asarray(x, float),
                    jacobian=jacobian, domain=DomainSpec.full_space(2))


@pytest.mark.parametrize("faults, n_samples, first", [
    # a non-finite sample before one that raises is named first
    ({2: "nan", 5: ZeroDivisionError}, 16, 2),
    ({2: "nan", 5: TypeError}, 16, 2),
    # a sample that raises before a non-finite one is named first
    ({1: ZeroDivisionError, 3: "nan"}, 16, 1),
    # the same across the first two chunks of 4096 samples
    ({4095: "nan", 4096: ZeroDivisionError}, 4200, 4095),
    ({4100: ValueError, 4150: "nan"}, 4200, 4100),
    ({4150: "nan"}, 4200, 4150),
], ids=["nan-then-raise", "nan-then-typeerror", "raise-then-nan", "nan-then-raise-next-chunk",
        "raise-in-second-chunk", "nan-in-second-chunk"])
def test_bound_a_names_the_first_failing_sample(faults, n_samples, first):
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    f = _sample_keyed_map(lo, hi, n_samples, faults)
    with pytest.raises(ValueError) as err:
        bound_A(f, lo, hi, n_samples)
    x = state_text(box_samples(lo, hi, n_samples)[first])
    fault = faults[first]
    if fault == "nan":
        expected = f"non-finite Jacobian row or column sum at sample {first}, x = {x}"
    else:
        expected = f"Jacobian failed at sample {first}, x = {x}: {fault.__name__}: no slope"
    assert str(err.value) == expected


def test_bound_a_passes_another_exception_on():
    f = _sample_keyed_map([0.0, 0.0], [1.0, 1.0], 16, {3: TypeError, 5: "nan"})
    with pytest.raises(TypeError, match="no slope"):
        bound_A(f, [0.0, 0.0], [1.0, 1.0], 16)


_WRONG_SHAPES = [(lambda j: j[:, :2], (3, 2)), (lambda j: j[:1, :], (1, 3)),
                 (lambda j: float(j[0, 0]), ())]


def _lpa_cut(lpa, cut):
    """The LPA map whose Jacobian is ``cut`` of its own."""
    return MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                    jacobian=lambda x: cut(lpa.jacobian(x)))


@pytest.mark.parametrize("cut, shape", _WRONG_SHAPES, ids=["columns", "row", "scalar"])
def test_bound_a_rejects_a_jacobian_of_the_wrong_shape(lpa, cut, shape):
    # the stack would broadcast it: two columns once gave 2.78 where the
    # LPA map's bound is 21.96
    with pytest.raises(ValueError) as err:
        bound_A(_lpa_cut(lpa, cut), [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], 64)
    assert str(err.value) == (f"Jacobian failed at sample 0, x = (0, 0, 0): ValueError: the map "
                              f"gave a Jacobian of shape {shape}, but the model has dimension 3")


_ALL_SCHEMES = [None, "VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"]


def _controlled_case(model, scheme, target):
    if scheme is None:
        return model
    d = model.dimension
    intensity = tuple(np.linspace(0.2, 0.6, d)) if scheme == "DIAG-VMTOC" else 0.35
    return controlled_map(model, ControlConfig(scheme, intensity, target))


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
@pytest.mark.parametrize("name", ["lpa", "lpa-fd", "ricker2", "ricker3", "ricker13"])
def test_jacobian_rows_equals_a_loop_of_jacobian_at_bitwise(name, scheme):
    model, lo, hi, target = _bound_a_case(name)
    model = _controlled_case(model, scheme, target)
    samples = box_samples(lo, hi, 256)
    stack = model.jacobian_rows(samples)
    loop = np.array([model.jacobian_at(x) for x in samples])
    assert stack.shape == loop.shape and stack.tobytes() == loop.tobytes()
    assert model.jacobian_rows(samples[:0]).shape == (0,) + stack.shape[1:]


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
def test_controlled_bound_a_calls_the_base_jacobian_once_per_sample(monkeypatch, scheme):
    base, calls = counting_lpa()
    lo, hi = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0]
    model = _controlled_case(base, scheme, (30.0, 30.0, 200.0))
    at_calls = []
    jacobian_at = MapModel.jacobian_at

    def spy(self, x):
        at_calls.append(x)
        return jacobian_at(self, x)

    monkeypatch.setattr(MapModel, "jacobian_at", spy)
    a = bound_A(model, lo, hi, 2048)
    assert (calls["jacobian"], at_calls) == (len(box_samples(lo, hi, 2048)), [])
    monkeypatch.undo()
    assert a == _per_sample_bound_a(model, lo, hi, 2048)


def test_bound_a_takes_a_plugin_jacobian_batch_once_per_chunk(lpa):
    lo, hi, batches = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], []

    def jacobian_batch(rows):
        batches.append(len(rows))
        return np.array([lpa.jacobian(x) for x in rows])

    def jacobian(x):
        raise AssertionError("the batch covers every sample")

    plugin = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain, jacobian=jacobian,
                      jacobian_batch=jacobian_batch)
    assert bound_A(plugin, lo, hi, 5000) == _per_sample_bound_a(lpa, lo, hi, 5000)
    assert batches == [analysis._BOUND_CHUNK, len(box_samples(lo, hi, 5000)) - 4096]


@pytest.mark.parametrize("scheme, intensity", [("VMTOC", 0.3), ("VTOC", 0.3),
                                               ("DIAG-VMTOC", (0.3, 0.4, 0.5))])
def test_controlled_stack_names_the_base_map_of_the_wrong_shape(lpa, scheme, intensity):
    g = controlled_map(_lpa_cut(lpa, lambda j: j[:, :2]),
                       ControlConfig(scheme, intensity, (30.0, 30.0, 200.0)))
    words = "the base map gave a Jacobian of shape (3, 2), but the model has dimension 3"
    with pytest.raises(RowError) as err:
        g.jacobian_rows(np.array([[1.0, 2.0, 3.0]]))
    assert str(err.value) == f"Jacobian failed at row 0: ValueError: {words}"
    with pytest.raises(ValueError) as err:
        bound_A(g, [0.0, 0.0, 0.0], [60.0, 60.0, 20.0], 64)
    assert str(err.value) == f"Jacobian failed at sample 0, x = (0, 0, 0): ValueError: {words}"


def test_a_base_jacobian_batch_of_the_wrong_shape_names_the_base_map(lpa):
    def jacobian_batch(rows):
        return np.array([lpa.jacobian(x) for x in rows])[:, :, :2]

    plugin = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                      jacobian=lpa.jacobian, jacobian_batch=jacobian_batch)
    g = controlled_map(plugin, ControlConfig("VMTOC", 0.3, (30.0, 30.0, 200.0)))
    lo, hi = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0]
    for model, what in ((plugin, "the map"), (g, "the base map")):
        with pytest.raises(ValueError) as err:
            bound_A(model, lo, hi, 64)
        assert str(err.value) == (f"{what} gave a Jacobian of shape ({len(box_samples(lo, hi, 64))}"
                                  f", 3, 2), but the model has dimension 3")


@pytest.mark.parametrize("faults, first", [
    ({2: "nan", 5: ZeroDivisionError}, 2), ({2: "nan", 5: TypeError}, 2),
    ({1: ZeroDivisionError, 3: "nan"}, 1), ({3: TypeError, 5: "nan"}, None),
], ids=["nan-then-raise", "nan-then-typeerror", "raise-then-nan", "typeerror-then-nan"])
def test_controlled_bound_a_names_the_first_failing_sample(faults, first):
    # after the map the base Jacobian is taken at the samples themselves;
    # (1-c) keeps a sum finite or not
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    g = controlled_map(_sample_keyed_map(lo, hi, 16, faults),
                       ControlConfig("VMTOC", 0.3, (0.5, 0.5)))
    if first is None:
        with pytest.raises(TypeError, match="no slope"):
            bound_A(g, lo, hi, 16)
        return
    with pytest.raises(ValueError) as err:
        bound_A(g, lo, hi, 16)
    x = state_text(box_samples(lo, hi, 16)[first])
    fault = faults[first]
    if fault == "nan":
        expected = f"non-finite Jacobian row or column sum at sample {first}, x = {x}"
    else:
        expected = f"Jacobian failed at sample {first}, x = {x}: {fault.__name__}: no slope"
    assert str(err.value) == expected


@pytest.mark.parametrize("cut, shape", _WRONG_SHAPES, ids=["columns", "row", "scalar"])
def test_jacobian_of_the_wrong_shape_ends_the_search_naming_its_state(lpa, cut, shape):
    with pytest.raises(ConvergenceError) as err:
        find_fixed_point(_lpa_cut(lpa, cut), np.array([20.0, 20.0, 5.0]))
    assert str(err.value).startswith(
        f"no fixed point: evaluation failed at x = (20, 20, 5): ValueError: the map gave a "
        f"Jacobian of shape {shape}, but the model has dimension 3 (best residual ")


def _halton_one(index, base):
    out, f, i = 0.0, 1.0 / base, index
    while i > 0:
        out += f * (i % base)
        i //= base
        f /= base
    return out


def _per_sample_box_samples(lo, hi, n_samples):
    """Corners, center and Halton points built one sample at a time."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    d = lo.shape[0]
    pts = []
    if d <= 12:
        for mask in range(2 ** d):
            pts.append(np.where([(mask >> j) & 1 for j in range(d)], hi, lo))
    pts.append(0.5 * (lo + hi))
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41][:d]
    for i in range(1, n_samples + 1):
        u = np.array([_halton_one(i, b) for b in bases])
        pts.append(lo + u * (hi - lo))
    return np.asarray(pts)


@pytest.mark.parametrize("n_samples", [1, 7, 2048])
@pytest.mark.parametrize("d", [1, 2, 3, 13])
def test_box_samples_equal_per_sample_loop(d, n_samples):
    rng = np.random.default_rng(d)
    lo = rng.uniform(-5.0, 5.0, d)
    hi = lo + rng.uniform(0.0, 10.0, d)
    pts = box_samples(lo, hi, n_samples)
    expected = _per_sample_box_samples(lo, hi, n_samples)
    # d = 13 is past the 12-dimension limit on corners: center and Halton only
    assert pts.shape == ((2 ** d if d <= 12 else 0) + 1 + n_samples, d)
    np.testing.assert_array_equal(pts, expected)


def test_box_samples_repeated_and_interleaved_equal_per_sample_loop():
    # each (d, n_samples) computes its prefix once and later calls scale the
    # kept one: every call still gives the per-sample reference, bit for bit
    boxes = {}
    for d in (2, 3, 13):
        rng = np.random.default_rng(d)
        lo = rng.uniform(-5.0, 5.0, d)
        boxes[d] = lo, lo + rng.uniform(0.0, 10.0, d)
    analysis._halton_prefix.cache_clear()
    for _ in range(2):
        for d in (2, 3, 13):
            for n_samples in (5, 2048, 5):
                lo, hi = boxes[d]
                expected = _per_sample_box_samples(lo, hi, n_samples)
                assert box_samples(lo, hi, n_samples).tobytes() == expected.tobytes()
                # a second box of the same shape scales the same prefix
                assert (box_samples(lo - 1.0, hi + 2.0, n_samples).tobytes()
                        == _per_sample_box_samples(lo - 1.0, hi + 2.0, n_samples).tobytes())


def test_writing_into_box_samples_changes_no_later_call():
    lo, hi = [0.0, 1.0, 2.0], [4.0, 5.0, 6.0]
    first = box_samples(lo, hi, 64)
    expected = first.copy()
    first[:] = -1.0
    assert box_samples(lo, hi, 64).tobytes() == expected.tobytes()
    # the kept prefix itself cannot be written
    with pytest.raises(ValueError, match="read-only"):
        analysis._halton_prefix(3, 64)[0, 0] = 0.5


def test_box_samples_keep_at_most_their_bound_of_prefixes():
    analysis._halton_prefix.cache_clear()
    bound = analysis._halton_prefix.cache_info().maxsize
    assert bound == analysis._HALTON_PREFIXES == 8
    for n_samples in range(1, 3 * bound):
        for d in (1, 2):
            box_samples([0.0] * d, [1.0] * d, n_samples)
            assert analysis._halton_prefix.cache_info().currsize <= bound
    assert analysis._halton_prefix.cache_info().currsize == bound


def test_stability_reports_back_to_back_give_the_bytes_of_fresh_ones(lpa, lpa_k):
    ricker = ricker_lift(RickerParams(r=2.0, delay=2))
    controlled = controlled_map(lpa, ControlConfig("VMTOC", 0.4, tuple(lpa_k)))
    runs = [(lpa, [20.0, 20.0, 5.0], [10.0, 10.0, 2.0], [40.0, 40.0, 8.0], 512),
            (ricker, [1.5, 2.5], 0.0, 6.0, 512),
            (controlled, [20.0, 20.0, 5.0], [5.0, 5.0, 1.0], [45.0, 45.0, 9.0], 512),
            (ricker, [1.5, 2.5], 1.0, 3.0, 100)]

    def lines(run):
        return stability_report(*run).to_lines()

    fresh = []
    for run in runs:
        analysis._halton_prefix.cache_clear()
        fresh.append(lines(run))
    assert [lines(run) for run in runs + runs] == fresh + fresh


def test_box_samples_validation():
    with pytest.raises(ValueError, match="n_samples"):
        box_samples([0.0], [1.0], 0)
    with pytest.raises(ValueError, match="lo <= hi"):
        box_samples([1.0], [0.0], 4)


@pytest.mark.parametrize("lo, hi", [([math.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.inf]),
                                    ([-1e308, 0.0], [1e308, 1.0])])
def test_box_samples_need_a_finite_width(lo, hi):
    # the rule of the initial box: without it the samples hold NaN or inf
    with pytest.raises(ValueError, match="sample box needs lo <= hi with a finite width"):
        box_samples(lo, hi, 4)


# --- thresholds -------------------------------------------------------------


def test_local_cstar_values():
    assert local_cstar(1.3803) == pytest.approx(0.2756, abs=1e-4)
    assert local_cstar(0.5) == 0.0
    assert local_cstar(2.0) == pytest.approx(0.5)
    assert local_cstar(0.0) == 0.0
    grid = np.linspace(0.0, 5.0, 200)
    vals = [local_cstar(b) for b in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v == 0.0 for b, v in zip(grid, vals) if b <= 1.0)


def test_global_cstar_values():
    assert global_cstar(0.5) == 0.0
    assert global_cstar(1.0) == 0.0
    assert global_cstar(2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        global_cstar(-0.1)


# --- Lipschitz estimate -----------------------------------------------------


def test_lipschitz_constant_map():
    k = np.array([3.0, 4.0])
    f = MapModel(dimension=2, evaluate=lambda x: k.copy(),
                 domain=DomainSpec.full_space(2))
    est = lipschitz_estimate(f, k, [0.0, 0.0], [10.0, 10.0], n_samples=128)
    assert est.ratio_part == 0.0
    assert est.sup_f == pytest.approx(4.0)  # max-norm of K
    assert est.value == pytest.approx(2.0)  # M/||K|| + 1


def test_lipschitz_linear_half_contraction():
    k = np.array([10.0, 10.0])
    f = shifted_linear(0.5, k)
    est = lipschitz_estimate(f, k, [0.0, 0.0], [20.0, 20.0], n_samples=512)
    assert est.ratio_part == pytest.approx(0.5 * 1.05, rel=1e-6)
    assert est.value == pytest.approx(est.bound_part)  # bound part dominates
    assert est.value >= 1.0


def test_lipschitz_validation(lpa, lpa_k):
    with pytest.raises(ValueError, match="not a fixed point"):
        lipschitz_estimate(lpa, np.array([1.0, 1.0, 1.0]), [0.0] * 3, [300.0] * 3)
    origin = MapModel(dimension=2, evaluate=lambda x: 0.5 * np.asarray(x, float),
                      domain=DomainSpec.full_space(2))
    with pytest.raises(ValueError, match="nonzero norm"):
        lipschitz_estimate(origin, np.zeros(2), [-1.0, -1.0], [1.0, 1.0])


def test_fixed_point_checks_reject_an_image_of_the_wrong_size():
    # f(K) = (1.0,) broadcast against K = (1, 1, 1) once passed as a fixed point
    f = MapModel(dimension=3, evaluate=lambda x: np.array([1.0]),
                 domain=DomainSpec.nonnegative_orthant(3))
    k = np.ones(3)
    message = "the map gave an image of shape (1,), but the model has dimension 3"
    with pytest.raises(ValueError) as err:
        lipschitz_estimate(f, k, [0.0] * 3, [2.0] * 3, n_samples=16)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        verify_contraction(f, ControlConfig("VMTOC", 0.5, (1.0, 1.0, 1.0)), k, 1.5, k, n=5)
    assert str(err.value) == message


def test_lipschitz_rejects_a_batch_image_of_the_wrong_shape(lpa, lpa_k):
    # the one-column images once gave L = 58.3 on this box, where L is 6.53
    column = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                      evaluate_batch=lambda rows: lpa.evaluate(rows)[:, :1])
    box = ([10.0, 10.0, 2.0], [40.0, 40.0, 8.0])
    assert lipschitz_estimate(lpa, lpa_k, *box).value < 10.0
    with pytest.raises(ValueError) as err:
        lipschitz_estimate(column, lpa_k, *box)
    assert str(err.value) == ("the map gave an image of shape (2057, 1), "
                              "but the model has dimension 3")


def test_lipschitz_lpa_on_box(lpa, lpa_k):
    est = lipschitz_estimate(lpa, lpa_k, [0.0] * 3, [300.0] * 3, n_samples=4096)
    assert est.value >= 1.0
    assert est.bound_part == pytest.approx(est.sup_f / np.max(np.abs(lpa_k)) + 1.0)
    assert est.ratio_part <= est.value


def _per_sample_lipschitz(model, k, lo, hi, n_samples, norm_kind):
    """The estimate one box sample at a time, with ``evaluate`` and ``norm``:
    ``(ratio_part, bound_part, sup_f)``."""
    nk = norm(k, norm_kind)
    sup_f = 0.0
    ratio = 0.0
    for x in box_samples(lo, hi, n_samples):
        fx = np.asarray(model.evaluate(x), float)
        sup_f = max(sup_f, norm(fx, norm_kind))
        dist = norm(x - k, norm_kind)
        if 0.0 < dist <= nk:
            ratio = max(ratio, norm(fx - k, norm_kind) / dist)
    return 1.05 * ratio, sup_f / nk + 1.0, sup_f


@pytest.mark.parametrize("norm_kind", ["max", "euclidean", "sum"])
@pytest.mark.parametrize("box", ["wide", "far", "degenerate", "at-k"])
@pytest.mark.parametrize("case", ["lpa", "lpa-vmtoc", "ricker"])
def test_lipschitz_equals_per_sample_loop(lpa, lpa_k, case, box, norm_kind):
    if case == "ricker":
        model, k, top = ricker_lift(RickerParams(r=2.0, delay=2)), np.array([2.0, 2.0]), 6.0
    else:
        model, k, top = lpa, np.asarray(lpa_k), 300.0
        if case == "lpa-vmtoc":
            model = controlled_map(lpa, ControlConfig("VMTOC", 0.5, tuple(lpa_k)))
    d = model.dimension
    if box == "wide":
        lo, hi = np.zeros(d), np.full(d, top)
    elif box == "far":
        # every sample lies farther than ||K|| from K, in each of the norms
        lo = np.full(d, 4.0 * np.max(k))
        hi = lo + 10.0
    else:
        # one point, sampled repeatedly; at K itself no sample has a ratio
        lo = hi = 0.5 * k if box == "degenerate" else k
    est = lipschitz_estimate(model, k, lo, hi, n_samples=300, norm_kind=norm_kind)
    ratio_part, bound_part, sup_f = _per_sample_lipschitz(model, k, lo, hi, 300, norm_kind)
    assert (est.ratio_part, est.bound_part, est.sup_f) == (ratio_part, bound_part, sup_f)
    assert est.value == max(ratio_part, bound_part)
    assert (est.ratio_part == 0.0) == (box in ("far", "at-k"))


# --- contraction certificate -------------------------------------------------


def test_verify_contraction_linear_ratio_exact():
    k = np.array([1.0, 2.0])
    f = shifted_linear(2.0, k)
    cfg = ControlConfig("VMTOC", 0.75, tuple(k))
    holds, theta_obs = verify_contraction(f, cfg, k, L=2.0,
                                          x0=np.array([5.0, -3.0]), n=40)
    assert holds
    assert theta_obs == pytest.approx(0.5, abs=1e-12)


def test_verify_contraction_diverging_orbit_raises_with_its_step():
    # controlled, every step doubles the distance to K 99 times, so the
    # state overflows at step 10 (2**1089)
    k = np.array([1.0, 2.0])
    f = shifted_linear(2.0 ** 100, k)
    with pytest.raises(OrbitError, match="non-finite state at step 10") as err:
        verify_contraction(f, ControlConfig("VMTOC", 0.5, tuple(k)), k, L=1.0,
                           x0=k + 1.0, n=40)
    assert err.value.step == 10


def test_verify_contraction_preconditions():
    k = np.array([1.0, 2.0])
    f = shifted_linear(2.0, k)
    with pytest.raises(ValueError, match="global_cstar"):
        verify_contraction(f, ControlConfig("VMTOC", 0.0, tuple(k)), k, 2.0,
                           np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="T = K"):
        verify_contraction(f, ControlConfig("VMTOC", 0.75, (9.0, 9.0)), k, 2.0,
                           np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="VMTOC"):
        verify_contraction(f, ControlConfig("VTOC", 0.75, tuple(k)), k, 2.0,
                           np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="fixed point"):
        verify_contraction(f, ControlConfig("VMTOC", 0.75, (9.0, 9.0)),
                           np.array([9.0, 9.0]), 2.0, np.array([3.0, 3.0]))


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 2.5}, "^n must be an integer, got 2.5$"),
    ({"n": -1}, "^n must be nonnegative, got -1$"),
    ({"L": math.nan}, "^L must be finite and nonnegative, got nan$"),
    ({"L": math.inf}, "^L must be finite and nonnegative, got inf$"),
    ({"L": -0.5}, "^L must be finite and nonnegative, got -0.5$"),
    ({"norm_kind": "l2"}, "^unknown norm kind: 'l2'$"),
])
def test_verify_contraction_checks_its_arguments_before_iterating(kwargs, message):
    # every step doubles the distance to K 99 times under this control, so
    # an orbit that ran would raise OrbitError at step 10
    k = np.array([1.0, 2.0])
    f = shifted_linear(2.0 ** 100, k)
    args = {"L": 1.0, "n": 40, **kwargs}
    with pytest.raises(ValueError, match=message):
        verify_contraction(f, ControlConfig("VMTOC", 0.5, tuple(k)), k, x0=k + 1.0, **args)


def test_verify_contraction_takes_a_numpy_integer_n():
    k = np.array([1.0, 2.0])
    f, cfg = shifted_linear(2.0, k), ControlConfig("VMTOC", 0.75, tuple(k))
    x0 = np.array([5.0, -3.0])
    assert (verify_contraction(f, cfg, k, 2.0, x0, n=np.int64(40))
            == verify_contraction(f, cfg, k, 2.0, x0, n=40))


def test_verify_contraction_rejects_negative_n():
    k = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        verify_contraction(shifted_linear(2.0, k), ControlConfig("VMTOC", 0.75, tuple(k)),
                           k, 2.0, np.array([5.0, -3.0]), n=-1)


def test_geometric_decay_bound():
    k = np.array([4.0, -1.0])
    f = shifted_linear(3.0, k)
    c = 0.8  # theta = 0.6
    cfg = ControlConfig("VMTOC", c, tuple(k))
    g = controlled_map(f, cfg)
    x = np.array([50.0, 30.0])
    d0 = np.max(np.abs(x - k))
    theta = (1 - c) * 3.0
    for n in range(1, 60):
        x = g.evaluate(x)
        # exact in real arithmetic; the absolute floor covers the rounding
        # noise that accumulates once the orbit is within ulps of K
        assert np.max(np.abs(x - k)) <= theta ** n * d0 * (1 + 1e-9) + 1e-12


def test_mpf_drives_origin_for_linearly_bounded_map():
    # ||f(x)|| <= 2*||x||; MPF with c > 1 - 1/2 contracts monotonically to 0.
    f = MapModel(dimension=2, evaluate=lambda x: 2.0 * np.asarray(x, float),
                 domain=DomainSpec.full_space(2))
    cfg = ControlConfig("MPF", 0.6, None)
    x = np.array([7.0, -3.0])
    prev = np.max(np.abs(x))
    for _ in range(80):
        x = apply_control(f, cfg, x)
        cur = np.max(np.abs(x))
        assert cur <= prev + 1e-15
        prev = cur
    assert prev < 1e-6


def test_stabilizing_arbitrary_state_by_double_control():
    # pick any interior state K of a Lipschitz map, make it an equilibrium,
    # then add a second pull toward K strong enough to contract globally.
    k = np.array([2.0, 1.0])
    w = np.array([0.5, 0.5])
    f = MapModel(dimension=2,
                 evaluate=lambda x: np.array([3.0, -1.0]) + 8.0 * (np.asarray(x, float) - w),
                 domain=DomainSpec.full_space(2))
    c_k, t_k = target_for_state(f, k, alpha=1.25)   # c_k = 0.8
    l_inner = (1 - c_k) * 8.0                       # Lipschitz constant of stage one
    assert l_inner == pytest.approx(1.6)
    c_hat = 0.6
    assert c_hat > global_cstar(l_inner)
    inner = ControlConfig("VMTOC", c_k, tuple(t_k))
    theta = (1 - c_hat) * l_inner
    x = np.array([40.0, -25.0])
    d = np.max(np.abs(x - k))
    for n in range(1, 50):
        x = c_hat * k + (1 - c_hat) * apply_control(f, inner, x)
        assert np.max(np.abs(x - k)) <= theta ** n * d * (1 + 1e-9)
    np.testing.assert_allclose(x, k, atol=1e-8)
    # the two stages collapse into one control with the composed parameters
    c, t = compose_vmtoc((c_k, t_k), (c_hat, k))
    y = np.array([40.0, -25.0])
    z = np.array([40.0, -25.0])
    for _ in range(5):
        y = c_hat * k + (1 - c_hat) * apply_control(f, inner, y)
        z = c * t + (1 - c) * f.evaluate(z)
    np.testing.assert_allclose(y, z, atol=1e-12)


def test_global_cstar_is_local_cstar():
    for b in [0.0, 0.5, 1.0, 1.0 + 1e-15, 1.3803, 2.0, 1e10, 1e300, float("inf")]:
        assert global_cstar(b) == local_cstar(b)


@pytest.mark.parametrize("cstar", [local_cstar, global_cstar])
def test_cstar_rejects_nan(cstar):
    with pytest.raises(ValueError, match="must be nonnegative, got nan"):
        cstar(float("nan"))


# --- stability report -------------------------------------------------------


def test_stability_report_rejects_unknown_norm_before_searching(lpa, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the fixed-point search ran")

    monkeypatch.setattr(analysis, "find_fixed_point", search)
    with pytest.raises(ValueError, match="unknown norm kind: 'euclidian'"):
        stability_report(lpa, np.array([20.0, 20.0, 5.0]), [10.0, 10.0, 2.0],
                         [40.0, 40.0, 8.0], norm_kind="euclidian")


def test_stability_report_rejects_a_reversed_box_before_any_evaluation(lpa):
    calls = []
    model = MapModel(dimension=3, evaluate=lambda x: calls.append(1) or lpa.evaluate(x),
                     domain=lpa.domain, jacobian=lpa.jacobian)
    with pytest.raises(ValueError, match="sample box needs lo <= hi with a finite width"):
        stability_report(model, np.array([20.0, 20.0, 5.0]), [40.0] * 3, [10.0] * 3,
                         n_samples=64)
    assert calls == []


def test_stability_report_lpa(lpa):
    rep = stability_report(lpa, np.array([20.0, 20.0, 5.0]),
                           [0.0] * 3, [300.0] * 3, n_samples=256)
    np.testing.assert_allclose(rep.equilibrium, LPA_FIXED_POINT, atol=1e-3)
    assert rep.rho == pytest.approx(1.3803, abs=1e-3)
    assert rep.local_cstar_rho == pytest.approx(0.2756, abs=1e-3)
    assert rep.local_cstar_rho <= rep.local_cstar_a
    assert 0.0 <= rep.local_cstar_a < 1.0
    assert rep.global_cstar is not None and 0.0 <= rep.global_cstar < 1.0
    lines = rep.to_lines()
    assert any(line.startswith("rho = ") for line in lines)
    assert any("sampled estimate" in line for line in lines)


_PROVENANCE_LINES = {
    "bound_a": "provenance.bound_a = sampled estimate: min of max row/col sums over the box, "
               "64 samples",
    "global_cstar": "provenance.global_cstar = 0 if L <= 1 else 1 - 1/L",
    "lipschitz": "provenance.lipschitz = sampled estimate on the box only; not valid beyond it "
                 "if f is unbounded on the domain",
    "local_cstar_a": "provenance.local_cstar_a = max(0, 1 - 1/bound_a)",
    "local_cstar_rho": "provenance.local_cstar_rho = max(0, 1 - 1/rho)",
    "rho": "provenance.rho = spectral radius of the Jacobian at the equilibrium",
}


def _value_lines(rep, keys):
    """``key = value`` with 17 significant digits, each value read off ``rep``."""
    values = {f"equilibrium.{i}": v for i, v in enumerate(rep.equilibrium)}
    if rep.lipschitz is not None:
        values.update({"lipschitz": rep.lipschitz.value,
                       "lipschitz.ratio_part": rep.lipschitz.ratio_part,
                       "lipschitz.bound_part": rep.lipschitz.bound_part,
                       "lipschitz.sup_f": rep.lipschitz.sup_f})
    return [f"{key} = {values[key] if key in values else getattr(rep, key):.17g}"
            for key in keys]


def test_stability_report_lines_with_the_lipschitz_part(lpa):
    rep = stability_report(lpa, np.array([20.0, 20.0, 5.0]), [10.0, 10.0, 2.0],
                           [40.0, 40.0, 8.0], n_samples=64)
    assert rep.lipschitz is not None
    assert rep.to_lines() == _value_lines(rep, [
        "equilibrium.0", "equilibrium.1", "equilibrium.2", "residual", "rho", "bound_a",
        "local_cstar_rho", "local_cstar_a", "lipschitz", "lipschitz.ratio_part",
        "lipschitz.bound_part", "lipschitz.sup_f", "global_cstar"]) + [
        _PROVENANCE_LINES[key] for key in ("bound_a", "global_cstar", "lipschitz",
                                           "local_cstar_a", "local_cstar_rho", "rho")]


def test_stability_report_lines_without_the_lipschitz_part(lpa):
    # extinction is an equilibrium of norm 0, which has no Lipschitz estimate
    # and lies on the boundary of the orthant
    rep = stability_report(lpa, np.zeros(3), [10.0, 10.0, 2.0], [40.0, 40.0, 8.0],
                           n_samples=64)
    assert rep.lipschitz is None and rep.global_cstar is None
    assert rep.to_lines() == [
        "equilibrium.0 = 0", "equilibrium.1 = 0", "equilibrium.2 = 0", "residual = 0",
        *_value_lines(rep, ["rho", "bound_a", "local_cstar_rho", "local_cstar_a"]),
        _PROVENANCE_LINES["bound_a"],
        "provenance.boundary = warning: equilibrium lies on the domain boundary",
        "provenance.box = warning: equilibrium lies outside the sampling box",
        "provenance.lipschitz = unavailable: K must have nonzero norm",
        *[_PROVENANCE_LINES[key] for key in ("local_cstar_a", "local_cstar_rho", "rho")]]


@pytest.mark.parametrize("n_samples, message", [
    (2.5, "^n_samples must be an integer, got 2.5$"),
    (64.0, "^n_samples must be an integer, got 64.0$"),
    (0, "^n_samples must be at least 1, got 0$"),
    (-3, "^n_samples must be at least 1, got -3$"),
])
@pytest.mark.parametrize("entry", ["stability_report", "bound_A", "lipschitz_estimate",
                                   "box_samples"])
def test_bad_sample_count_is_rejected_by_name_before_evaluating(entry, n_samples, message):
    model, calls = counting_lpa()
    lo, hi = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0]
    run = {"stability_report": lambda: stability_report(model, LPA_FIXED_POINT, lo, hi,
                                                        n_samples=n_samples),
           "bound_A": lambda: bound_A(model, lo, hi, n_samples=n_samples),
           "lipschitz_estimate": lambda: lipschitz_estimate(model, LPA_FIXED_POINT, lo, hi,
                                                            n_samples=n_samples),
           "box_samples": lambda: box_samples(lo, hi, n_samples)}[entry]
    with pytest.raises(ValueError, match=message):
        run()
    assert sum(calls.values()) == 0


def test_bound_a_and_lipschitz_broadcast_scalar_bounds_as_the_report_does(lpa, lpa_k):
    lo, hi = np.zeros(3), np.full(3, 50.0)
    assert bound_A(lpa, 0.0, 50.0, 64) == bound_A(lpa, lo, hi, 64)
    assert (lipschitz_estimate(lpa, lpa_k, 0.0, 50.0, 64)
            == lipschitz_estimate(lpa, lpa_k, lo, hi, 64))
    # a one-component bound broadcasts too, as in initial_box
    assert bound_A(lpa, [0.0], hi, 64) == bound_A(lpa, lo, hi, 64)


@pytest.mark.parametrize("entry", ["bound_A", "lipschitz_estimate"])
def test_a_sample_box_of_the_wrong_length_fails_by_name_before_evaluating(entry):
    model, calls = counting_lpa()
    run = {"bound_A": lambda lo, hi: bound_A(model, lo, hi, 64),
           "lipschitz_estimate": lambda lo, hi: lipschitz_estimate(model, LPA_FIXED_POINT,
                                                                   lo, hi, 64)}[entry]
    with pytest.raises(ValueError, match=r"^sample box: lo has shape \(2,\), "
                                         "but the model has dimension 3$"):
        run([0.0, 0.0], [50.0, 50.0, 50.0])
    with pytest.raises(ValueError, match=r"^sample box: hi has shape \(4,\), "):
        run(0.0, [50.0] * 4)
    with pytest.raises(ValueError, match="^sample box needs lo <= hi"):
        run(50.0, 0.0)
    assert sum(calls.values()) == 0


def test_numpy_integer_sample_count_is_an_integer(lpa):
    lo, hi = [0.0, 0.0, 0.0], [60.0, 60.0, 20.0]
    assert box_samples(lo, hi, np.int64(9)).tobytes() == box_samples(lo, hi, 9).tobytes()
    assert bound_A(lpa, lo, hi, n_samples=np.int32(9)) == bound_A(lpa, lo, hi, n_samples=9)
