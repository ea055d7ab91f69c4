import math

import numpy as np
import pytest

from chaosctl import (
    LpaParams,
    ParamError,
    RickerParams,
    fd_jacobian,
    lpa_eval,
    lpa_jacobian,
    lpa_map,
    lpa_recruitment_bound,
    ricker_eval,
    ricker_lift,
    spectral_radius,
)

from conftest import LPA_FIXED_POINT


def test_lpa_origin_is_fixed():
    p = LpaParams()
    np.testing.assert_array_equal(lpa_eval(p, np.zeros(3)), np.zeros(3))


def test_lpa_known_fixed_point_residual():
    p = LpaParams()
    k = np.array(LPA_FIXED_POINT)
    np.testing.assert_allclose(lpa_eval(p, k), k, atol=1e-3)


def test_lpa_param_validation():
    with pytest.raises(ValueError):
        LpaParams(b=0.0)
    with pytest.raises(ValueError):
        LpaParams(c_el=-0.1)
    with pytest.raises(ValueError):
        LpaParams(mu_a=1.0)


def test_lpa_recruitment_bound_value_and_sharpness():
    p = LpaParams()
    bound = lpa_recruitment_bound(p)
    assert bound == pytest.approx(p.b / (math.e * p.c_ea), rel=1e-15)
    # b*A*exp(-c_ea*A) peaks at A = 1/c_ea with value exactly the bound
    peak = p.b * (1 / p.c_ea) * math.exp(-1.0)
    assert bound == pytest.approx(peak, rel=1e-12)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0, 500, size=(2000, 3)):
        assert lpa_eval(p, x)[0] <= bound + 1e-9


def test_lpa_self_maps_orthant():
    p = LpaParams()
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 1000, size=(10_000, 3))
    for x in xs:
        y = lpa_eval(p, x)
        assert np.all(y >= 0.0)


def test_lpa_max_norm_shrinks_beyond_recruitment_bound():
    p = LpaParams()
    bound = lpa_recruitment_bound(p)
    rng = np.random.default_rng(29)
    # draw directions with unit max-norm, then scale into [bound, 1e4]
    for _ in range(10_000):
        direction = rng.uniform(0, 1, 3)
        direction /= direction.max()
        size = rng.uniform(bound + 0.01, 1e4)
        x = size * direction
        assert np.max(np.abs(lpa_eval(p, x))) <= size


def test_lpa_jacobian_zero_pattern():
    p = LpaParams()
    rng = np.random.default_rng(5)
    for x in rng.uniform(0, 300, size=(50, 3)):
        j = lpa_jacobian(p, x)
        assert j[0, 1] == 0.0
        assert j[1, 1] == 0.0 and j[1, 2] == 0.0
        assert j[2, 0] == 0.0
        assert j[1, 0] == 1.0 - p.mu_l


def test_lpa_jacobian_spectral_radius_at_fixed_point(lpa_k):
    rho = spectral_radius(lpa_jacobian(LpaParams(), lpa_k))
    assert rho == pytest.approx(1.3803, abs=1e-3)


def test_lpa_jacobian_matches_finite_differences():
    p = LpaParams()
    rng = np.random.default_rng(17)
    worst = 0.0
    for x in rng.uniform(0, 300, size=(100, 3)):
        analytic = lpa_jacobian(p, x)
        numeric = fd_jacobian(lambda y: lpa_eval(p, y), x)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) /
                                        (1.0 + np.abs(analytic)))))
    assert worst < 1e-5


# --- delayed Ricker ---------------------------------------------------------


def test_ricker_lift_fixed_point():
    lift = ricker_lift(RickerParams(r=2.0, delay=2))
    np.testing.assert_allclose(lift.evaluate(np.array([2.0, 2.0])), [2.0, 2.0],
                               rtol=1e-15)


def test_ricker_lift_direct_substitution():
    lift = ricker_lift(RickerParams(r=2.0, delay=2))
    np.testing.assert_allclose(lift.evaluate(np.array([1.0, 0.0])),
                               [math.e ** 2, 1.0], rtol=1e-15)


def test_ricker_lift_reproduces_scalar_recursion():
    r, d = 1.3, 4
    lift = ricker_lift(RickerParams(r=r, delay=d))
    u = [0.7] * d  # u[n], newest last
    x = np.full(d, 0.7)
    for _ in range(50):
        u.append(u[-1] * math.exp(r - u[-d]))
        x = lift.evaluate(x)
        assert abs(x[0] - u[-1]) < 1e-12


def test_ricker_lift_shift_structure_exact():
    lift = ricker_lift(RickerParams(r=0.5, delay=5))
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 3.0, 5)
    y = lift.evaluate(x)
    np.testing.assert_array_equal(y[1:], x[:-1])


@pytest.mark.parametrize("params, field", [
    *[(lambda f=f: LpaParams(**{f: math.nan}), f)
      for f in ("b", "c_el", "c_ea", "c_pa", "mu_l", "mu_a")],
    (lambda: LpaParams(b=math.inf), "b"),
    (lambda: LpaParams(c_pa=-1.0), "c_pa"),
    (lambda: LpaParams(mu_l=0.0), "mu_l"),
    (lambda: RickerParams(r=math.nan, delay=2), "r"),
    (lambda: RickerParams(r=math.inf, delay=2), "r"),
    (lambda: RickerParams(r=2.0, delay=math.nan), "delay"),
    (lambda: RickerParams(r=2.0, delay=0), "delay"),
    *[(lambda f=f: LpaParams(**{f: math.inf}), f) for f in ("c_el", "c_ea", "c_pa")],
], ids=["b-nan", "c_el-nan", "c_ea-nan", "c_pa-nan", "mu_l-nan", "mu_a-nan", "b-inf",
        "c_pa-negative", "mu_l-zero", "r-nan", "r-inf", "delay-nan", "delay-zero",
        "c_el-inf", "c_ea-inf", "c_pa-inf"])
def test_bad_parameter_raises_naming_its_field(params, field):
    with pytest.raises(ParamError, match=f"^{field} must ") as err:
        params()
    assert err.value.field == field


def test_ricker_delay_validation():
    with pytest.raises(ValueError, match="delay"):
        RickerParams(r=2.0, delay=1)
    with pytest.raises(ValueError, match="delay"):
        RickerParams(r=2.0, delay=2.5)


def test_ricker_jacobian_matches_finite_differences():
    lift = ricker_lift(RickerParams(r=2.0, delay=3))
    rng = np.random.default_rng(8)
    for x in rng.uniform(0.1, 4.0, size=(20, 3)):
        np.testing.assert_allclose(lift.jacobian_at(x),
                                   fd_jacobian(lift.evaluate, x),
                                   rtol=1e-6, atol=1e-8)


def test_batched_models_match_single_state_evaluation():
    rng = np.random.default_rng(3)
    for evaluate, p, d in ((lpa_eval, LpaParams(), 3),
                           (ricker_eval, RickerParams(r=2.0, delay=2), 2),
                           (ricker_eval, RickerParams(r=2.0, delay=3), 3)):
        rows = rng.uniform(0.0, 300.0, (64, d))
        rows[[0, 17, 63]] = 0.0
        out = evaluate(p, rows)
        assert out.shape == rows.shape
        for x, y in zip(rows, out):
            np.testing.assert_array_equal(y, evaluate(p, x))


# --- the float step -----------------------------------------------------------

# Each built-in formula is written once, on components, and runs on numpy
# columns and on tuples of Python floats alike.  That rests on np.exp giving
# a Python float, a numpy scalar and an element of any array bitwise the same
# value; IEEE +, - and * round alike in Python and numpy.  Comparisons are of
# uint64 bit patterns, so -0.0 is not 0.0 and NaNs must match too.


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_np_exp_of_a_float_equals_its_array_element_bitwise():
    rng = np.random.default_rng(21)
    edges = [0.0, -0.0, -750.0, -745.2, -745.1, -744.4, -708.4, -708.3, 709.78, 709.79,
             710.0, math.inf, -math.inf]
    args = np.concatenate([rng.uniform(-750.0, 710.0, 100_000), edges])
    with np.errstate(over="ignore", under="ignore"):
        contiguous = np.exp(args)
        strided = np.exp(np.stack([args, -args], axis=1)[:, 0])
        of_scalars = [np.exp(a) for a in args]
        of_floats = [np.exp(a) for a in args.tolist()]
    for other in (strided, of_scalars, of_floats):
        np.testing.assert_array_equal(_bits(other), _bits(contiguous))
    # the arguments reach subnormal results, underflow to 0 and overflow
    tiny = np.finfo(float).tiny
    assert ((contiguous > 0.0) & (contiguous < tiny)).any()
    assert (contiguous == 0.0).any() and np.isinf(contiguous).any()


def _wide_states(rng, d, n=4000):
    """States of magnitudes from 0 to 8e5, either sign, with rows of signed
    zeros, infinities, NaN and subnormals, so that the maps' exp underflows
    and overflows."""
    x = rng.uniform(-800.0, 800.0, (n, d)) * rng.choice([0.0, 1e-3, 1.0, 1e3], (n, d))
    x[::7] = -0.0
    x[3::7, 0] = -0.0
    for k, value in enumerate([math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300]):
        x[k::11, k % d] = value
    return x


_FLOAT_STEP_MODELS = {
    "lpa": lpa_map(),
    "lpa-other": lpa_map(LpaParams(b=7.25, c_el=0.0213, c_ea=0.0041, c_pa=0.875,
                                   mu_l=0.5125, mu_a=0.1)),
    "lpa-no-cannibalism": lpa_map(LpaParams(c_el=0.0, c_ea=0.0, c_pa=0.0)),
    **{f"ricker-{d}" + (f"-r{r}" if r != 2.0 else ""): ricker_lift(RickerParams(r=r, delay=d))
       for d in range(2, 7) for r in (-1.5, 0.0, 2.0, 3.7)},
}


@pytest.mark.parametrize("name", sorted(_FLOAT_STEP_MODELS))
def test_float_step_equals_evaluate_bitwise(name):
    model = _FLOAT_STEP_MODELS[name]
    d = model.dimension
    rows = _wide_states(np.random.default_rng(d), d)
    # the batch reads its rows through strides in both axes
    padded = np.full((2 * rows.shape[0], 3 * d), 7.0)
    padded[::2, ::3] = rows
    strided = padded[::2, ::3]
    assert not strided.flags.c_contiguous
    with np.errstate(all="ignore"):
        batch = model.evaluate_batch(strided)
        alone = np.array([model.evaluate(x) for x in rows])
        floats = [model.evaluate_floats(tuple(x.tolist())) for x in rows]
    assert {type(y) for y in floats} == {tuple}
    assert {len(y) for y in floats} == {model.dimension}
    assert {type(v) for y in floats for v in y} == {float}
    np.testing.assert_array_equal(_bits(alone), _bits(batch))
    np.testing.assert_array_equal(_bits(floats), _bits(batch))
    # the cases the states were drawn for
    assert np.isnan(batch).any()
    assert np.isinf(batch).any() and (batch == 0.0).any() and np.signbit(batch[batch == 0.0]).any()
