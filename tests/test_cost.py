import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosctl import (
    ControlConfig,
    DomainSpec,
    MapModel,
    controlled_map,
    bifurcation_scan,
    cost_per_step,
    costs_per_step,
    find_fixed_point,
    iterate_orbit,
    norm,
)
from chaosctl.cli import main
from chaosctl.core import norm_rows
from chaosctl.models import RickerParams, lpa_map, ricker_lift


def test_zero_intensity_costs_nothing(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.0, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 10, 20)
    assert cost_per_step(lpa, cfg, orbit).value == 0.0


def test_cost_vanishes_when_target_is_uncontrolled_fixed_point(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 2000, 50)
    est = cost_per_step(lpa, cfg, orbit)
    assert est.value < 1e-9


def test_cost_at_off_equilibrium_target_matches_formula(lpa):
    t = (30.0, 200.0, 30.0)
    c = 0.8
    cfg = ControlConfig("VMTOC", c, t)
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 3000, 50)
    est = cost_per_step(lpa, cfg, orbit)
    x_star = find_fixed_point(controlled_map(lpa, cfg),
                              np.array([10.0, 10.0, 10.0]), tol=1e-12)
    expected = c * norm(lpa.evaluate(x_star) - np.array(t), "euclidean")
    assert est.value == pytest.approx(expected, rel=1e-9)
    assert est.window == (0, 50)


@given(st.lists(st.floats(0, 300), min_size=3, max_size=3),
       st.lists(st.floats(0, 300), min_size=3, max_size=3),
       st.floats(0.0, 0.99))
def test_summand_forms_agree(fx, t, c):
    fx, t = np.array(fx), np.array(t)
    direct = norm(c * t + (1 - c) * fx - fx, "euclidean")
    factored = c * norm(fx - t, "euclidean")
    assert abs(direct - factored) < 1e-12 * (1 + factored)


def test_cost_nonincreasing_in_window_start():
    # linear contraction toward x*; target = f(x*) so the summand decays
    k = np.array([5.0, 5.0])
    f = MapModel(dimension=2,
                 evaluate=lambda x: 0.5 * (np.asarray(x, float) - k) + k,
                 domain=DomainSpec.full_space(2))
    cfg = ControlConfig("VMTOC", 0.3, tuple(k))
    orbit = iterate_orbit(f, cfg, np.array([40.0, -10.0]), 0, 30)
    costs = [cost_per_step(f, cfg, orbit, window=(s, 10)).value
             for s in range(0, 20)]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_diagonal_control_cost():
    k = np.array([2.0, 3.0])
    f = MapModel(dimension=2, evaluate=lambda x: np.array([1.0, 1.0]),
                 domain=DomainSpec.full_space(2))
    cfg = ControlConfig("DIAG-VMTOC", (0.5, 0.0), tuple(k))
    orbit = np.array([[0.0, 0.0], [1.0, 1.0]])
    est = cost_per_step(f, cfg, orbit, norm_kind="max")
    # only the first component is controlled: |0.5*(1 - 2)| = 0.5 each step
    assert est.value == pytest.approx(0.5)


@pytest.mark.parametrize("window, message", [
    ((2.7, 5.9), "^window start must be an integer, got 2.7$"),
    ((2, 5.0), "^window length must be an integer, got 5.0$"),
    (("2", 5), "^window start must be an integer, got 2$"),
])
def test_a_non_integer_window_is_rejected_by_name(lpa, lpa_k, window, message):
    cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 5, 10)
    with pytest.raises(ValueError, match=message):
        cost_per_step(lpa, cfg, orbit, window=window)
    with pytest.raises(ValueError, match=message):
        costs_per_step(lpa, lpa_k, [0.5], orbit[None], window=window)


def test_a_numpy_integer_window_prices_and_reports_as_ints(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 5, 10)
    est = cost_per_step(lpa, cfg, orbit, window=(np.int64(2), np.int32(5)))
    assert est == cost_per_step(lpa, cfg, orbit, window=(2, 5))
    assert [type(v) for v in est.window] == [int, int]


def test_cost_window_validation(lpa, lpa_k):
    cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
    orbit = iterate_orbit(lpa, cfg, np.array([10.0, 10.0, 10.0]), 5, 10)
    with pytest.raises(ValueError, match="window"):
        cost_per_step(lpa, cfg, orbit, window=(0, 0))
    with pytest.raises(ValueError, match="window"):
        cost_per_step(lpa, cfg, orbit, window=(5, 20))
    with pytest.raises(ValueError, match="post-map"):
        cost_per_step(lpa, ControlConfig("PF", 0.5, None), orbit)


def _per_state_cost(model, cfg, orbit, norm_kind):
    """The window average one state at a time, with ``evaluate``."""
    d = model.dimension
    t, c = cfg.target_vector(d), cfg.intensity_vector(d)
    total = 0.0
    for x in orbit:
        total += norm(c * (np.asarray(model.evaluate(x), float) - t), norm_kind)
    return total / len(orbit)


@pytest.mark.parametrize("kind, scheme, intensity, target, norm_kind", [
    ("lpa", "VMTOC", 0.25, (30.0, 30.0, 200.0), "euclidean"),   # in the bubble
    ("lpa", "VMTOC", 0.5, (28.0120, 22.4096, 4.6251), "max"),   # converged, T ~ K
    ("lpa", "DIAG-VMTOC", (0.1, 0.2, 0.3), (30.0, 30.0, 200.0), "sum"),
    ("ricker", "VMTOC", 0.3, (1.0, 3.0), "euclidean"),
    ("ricker", "VMTOC", 0.05, (1.0, 3.0), "sum"),               # chaotic
    ("ricker", "DIAG-VMTOC", (0.2, 0.4), (1.0, 3.0), "max"),
    ("lpa", "VMTOC", 0.5, (28.0120, 22.4096, 4.6251), "euclidean"),  # f(x) - T cancels
])
def test_batched_cost_matches_per_state_loop(kind, scheme, intensity, target, norm_kind):
    model = lpa_map() if kind == "lpa" else ricker_lift(RickerParams(r=2.0, delay=2))
    cfg = ControlConfig(scheme, intensity, target)
    orbit = iterate_orbit(model, cfg, np.full(model.dimension, 10.0), 500, 60)
    got = cost_per_step(model, cfg, orbit, norm_kind=norm_kind).value
    assert got == _per_state_cost(model, cfg, orbit, norm_kind)
    window = cost_per_step(model, cfg, orbit, window=(7, 30), norm_kind=norm_kind)
    assert window.value == _per_state_cost(model, cfg, orbit[7:37], norm_kind)


def _cost_by_loop(model, cfg, orbit, window, norm_kind):
    """One orbit's window average with a running total over its states."""
    start, length = window
    d = model.dimension
    t, c = cfg.target_vector(d), cfg.intensity_vector(d)
    total = 0.0
    fx = model.evaluate_rows(orbit[start:start + length])
    for v in norm_rows(c * (fx - t), norm_kind).tolist():
        total += v
    return total / length


def _stacked_orbits(kind, scheme):
    """Orbits under one target and several intensities, chaotic to stable."""
    if kind == "lpa":
        model, target = lpa_map(), (30.0, 30.0, 200.0)
    else:
        model, target = ricker_lift(RickerParams(r=2.0, delay=2)), (1.0, 3.0)
    d = model.dimension
    if scheme == "VMTOC":
        grid = [k / 25 for k in range(1, 25)]
        records = bifurcation_scan(model, scheme, target, grid, seed=8, n_transient=300,
                                   n_keep=40)
        return model, target, grid, np.stack([rec.points for rec in records])
    rng = np.random.default_rng(8)
    intensities = [tuple(rng.uniform(0.0, 0.9, d)) for _ in range(12)]
    orbits = np.stack([iterate_orbit(model, ControlConfig(scheme, c, target),
                                     np.full(d, 10.0), 300, 40) for c in intensities])
    return model, target, intensities, orbits


@pytest.mark.parametrize("norm_kind", ["max", "euclidean", "sum"])
@pytest.mark.parametrize("scheme", ["VMTOC", "DIAG-VMTOC"])
@pytest.mark.parametrize("kind", ["lpa", "ricker"])
def test_costs_per_step_equal_per_orbit_loop_bitwise(kind, scheme, norm_kind):
    model, target, intensities, orbits = _stacked_orbits(kind, scheme)
    for window in [None, (0, 40), (7, 30), (39, 1), (0, 1)]:
        got = costs_per_step(model, target, intensities, orbits, window=window,
                             norm_kind=norm_kind)
        expected = [_cost_by_loop(model, ControlConfig(scheme, c, target), orbit,
                                  window or (0, 40), norm_kind)
                    for c, orbit in zip(intensities, orbits)]
        assert got.tolist() == expected
        assert [cost_per_step(model, ControlConfig(scheme, c, target), orbit, window=window,
                              norm_kind=norm_kind).value
                for c, orbit in zip(intensities, orbits)] == expected


def test_costs_per_step_checks_its_arguments(lpa):
    target = (30.0, 30.0, 200.0)
    orbits = np.full((2, 5, 3), 10.0)
    with pytest.raises(ValueError, match=r"orbits must be a \(records, n, d\) array"):
        costs_per_step(lpa, target, [0.1, 0.2], orbits[0])
    with pytest.raises(ValueError, match="window"):
        costs_per_step(lpa, target, [0.1, 0.2], orbits, window=(3, 3))
    with pytest.raises(ValueError, match=r"intensities must have shape \(2,\) or \(2, 3\)"):
        costs_per_step(lpa, target, [0.1, 0.2, 0.3], orbits)
    with pytest.raises(ValueError, match="control intensity must lie in"):
        costs_per_step(lpa, target, [0.1, 1.0], orbits)
    with pytest.raises(ValueError, match="dimension mismatch"):
        costs_per_step(lpa, (1.0, 2.0), [0.1, 0.2], orbits)
    assert costs_per_step(lpa, target, np.empty(0), np.empty((0, 5, 3))).shape == (0,)


@pytest.mark.parametrize("c", [0.0, 0.5])
@np.errstate(invalid="ignore")
def test_costs_per_step_reject_a_non_finite_image(c):
    # the image of 6 is infinite, and 0 * inf is NaN
    f = MapModel(dimension=1,
                 evaluate=lambda x: np.array([np.inf if x[0] > 5.0 else 2.0 * x[0]]),
                 domain=DomainSpec.full_space(1))
    orbits = np.array([[[1.0], [2.0], [3.0]], [[4.0], [6.0], [1.0]]])
    with pytest.raises(ValueError, match=r"^non-finite nudge at state 1 of orbit 1: the image "
                                         r"of \[6.0\] is \[inf\]$"):
        costs_per_step(f, (1.0,), [c, c], orbits)
    with pytest.raises(ValueError, match=r"^non-finite nudge at state 1 of orbit 0: the image "
                                         r"of \[6.0\] is \[inf\]$"):
        cost_per_step(f, ControlConfig("VMTOC", c, (1.0,)), orbits[1])
    assert costs_per_step(f, (1.0,), [c, c], orbits, window=(0, 1)).tolist() == [
        c * 1.0, c * 7.0]


def test_costs_per_step_name_the_orbit_and_state_whose_image_overflows():
    # a finite VMTOC orbit of x -> 1e100 x whose last image overflows; the
    # windows start at state 1, and the first orbit's images stay finite
    f = MapModel(dimension=1, evaluate=lambda x: 1e100 * np.asarray(x, float),
                 domain=DomainSpec.full_space(1))
    with np.errstate(over="ignore"):
        orbit = iterate_orbit(f, ControlConfig("VMTOC", 0.5, (0.0,)), [1.0], 0, 3)
    assert orbit.ravel().tolist() == [5e99, 2.5e199, 1.25e299]
    orbits = np.stack([orbit * 1e-200, orbit])
    message = "non-finite nudge at state 2 of orbit 1: the image of [1.25e+299] is [inf]"
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        costs_per_step(f, (0.0,), [0.5, 0.5], orbits, window=(1, 2))
    assert str(err.value) == message
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        cost_per_step(f, ControlConfig("VMTOC", 0.5, (0.0,)), orbit)
    assert str(err.value) == message.replace("orbit 1", "orbit 0")


def test_costs_per_step_name_a_raising_row_across_the_stack():
    def double(x):
        if x[0] >= 32.0:
            raise OverflowError("too big")
        return 2.0 * np.asarray(x, float)

    f = MapModel(dimension=1, evaluate=double, domain=DomainSpec.full_space(1))
    orbits = np.array([[[1.0], [2.0], [4.0]], [[8.0], [16.0], [32.0]]])
    with pytest.raises(ValueError, match="^evaluation failed at row 5: OverflowError: too big$"):
        costs_per_step(f, (1.0,), [0.5, 0.5], orbits)
    with pytest.raises(ValueError, match="at row 3: OverflowError"):  # 1 * 2 + 1
        costs_per_step(f, (1.0,), [0.5, 0.5], orbits, window=(1, 2))


def test_cost_per_step_rejects_an_image_of_the_wrong_size():
    # the row-by-row images of a model without evaluate_batch: a scalar
    # image would be broadcast over its row and priced
    f = MapModel(dimension=3, evaluate=lambda x: 0.5 * float(x[0]),
                 domain=DomainSpec.full_space(3))
    with pytest.raises(ValueError, match=r"^evaluation failed at row 0: ValueError: the map "
                                         r"gave an image of shape \(\), but the model has "
                                         r"dimension 3$"):
        cost_per_step(f, ControlConfig("VMTOC", 0.5, (1.0, 1.0, 1.0)), np.ones((5, 3)))


def test_costs_per_step_reject_a_batch_image_of_the_wrong_shape():
    # 2 orbits of 5 states: the images of the 10 rows once failed to reshape
    lpa = lpa_map()
    column = MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                      evaluate_batch=lambda rows: lpa.evaluate(rows)[:, :1])
    with pytest.raises(ValueError) as err:
        costs_per_step(column, (1.0, 1.0, 1.0), [0.5, 0.5], np.ones((2, 5, 3)))
    assert str(err.value) == ("the map gave an image of shape (10, 1), "
                              "but the model has dimension 3")


_DOUBLER = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def double(x):\n"
    "    if x[0] >= 32.0:\n"
    "        raise OverflowError('too big')\n"
    "    return 2.0 * np.asarray(x, float)\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=double, domain=DomainSpec.full_space(1))\n")


def test_cost_surfaces_evaluation_exception_as_value_error(tmp_path, monkeypatch, capsys):
    # the orbit 2, 4, ..., 32 never evaluates 32; the cost, which evaluates
    # f at every kept state, does
    (tmp_path / "doubler.py").write_text(_DOUBLER)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    from doubler import make

    model = make()
    cfg = ControlConfig("VMTOC", 0.0, (1.0,))
    orbit = iterate_orbit(model, cfg, np.array([1.0]), 0, 5)
    with pytest.raises(ValueError, match="^evaluation failed at row 4: OverflowError: too big$"):
        cost_per_step(model, cfg, orbit)
    rc = main(["cost", "--out", "dbl", "--set", "model.kind=plugin",
               "--set", "model.plugin=doubler:make",
               "--set", "control.scheme=VMTOC", "--set", "control.intensity=0",
               "--set", "control.target=1", "--set", "run.x0=1",
               "--set", "run.n_transient=0", "--set", "run.n_keep=5"])
    assert rc == 1
    assert ("error: evaluation failed at row 4: OverflowError: too big"
            in capsys.readouterr().err)
