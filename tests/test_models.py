import collections
import dataclasses
import math
import pickle

import numpy as np
import pytest

from chaosctl import (
    ControlConfig,
    LpaParams,
    ParamError,
    RickerParams,
    fd_jacobian,
    lpa_eval,
    lpa_jacobian,
    lpa_map,
    lpa_recruitment_bound,
    ricker_eval,
    ricker_jacobian,
    controlled_map,
    ricker_lift,
    spectral_radius,
)
from chaosctl import models
from chaosctl.analysis import box_samples
from chaosctl.core import Formula

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


_NOT_NUMBER_FIELDS = (("b", lambda v: LpaParams(b=v)), ("c_pa", lambda v: LpaParams(c_pa=v)),
                      ("r", lambda v: RickerParams(r=v, delay=2)),
                      ("delay", lambda v: RickerParams(r=2.0, delay=v)))


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
    # values that are not numbers
    *[(lambda v=v, make=make: make(v), f) for f, make in _NOT_NUMBER_FIELDS
      for v in ("10", None, "x")],
], ids=["b-nan", "c_el-nan", "c_ea-nan", "c_pa-nan", "mu_l-nan", "mu_a-nan", "b-inf",
        "c_pa-negative", "mu_l-zero", "r-nan", "r-inf", "delay-nan", "delay-zero",
        "c_el-inf", "c_ea-inf", "c_pa-inf",
        *[f"{f}-{v}" for f, _ in _NOT_NUMBER_FIELDS for v in ("str10", "None", "strx")]])
def test_bad_parameter_raises_naming_its_field(params, field):
    with pytest.raises(ParamError, match=f"^{field} must ") as err:
        params()
    assert err.value.field == field


def test_ricker_params_defaults():
    assert RickerParams() == RickerParams(r=2.0, delay=2)


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


@pytest.mark.parametrize("shape", ["state", "batch"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("model", [lpa_map(), ricker_lift(RickerParams(r=2.0, delay=3))],
                         ids=["lpa", "ricker-3"])
def test_built_in_array_forms_reject_a_state_of_the_wrong_length(model, extra, shape):
    # a too-long state would leave its last entries unset, a too-short one
    # would fail on numpy's IndexError
    d = model.dimension
    x = np.append(np.arange(1.0, d + extra), 1e300)
    x = np.tile(x, (4, 1)) if shape == "batch" else x
    for step in (model.evaluate, model.evaluate_batch):
        with pytest.raises(ValueError) as err:
            step(x)
        assert str(err.value) == (f"dimension mismatch: expected {d} components, "
                                  f"got an array of shape {x.shape}")


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("model", [lpa_map(), ricker_lift(RickerParams(r=2.0, delay=3))],
                         ids=["lpa", "ricker-3"])
def test_built_in_jacobians_reject_a_state_of_the_wrong_length(model, extra):
    # a Jacobian that indexes its components would ignore a too-long state's
    # last entry, and fail on numpy's IndexError for a too-short one
    d = model.dimension
    x = np.append(np.arange(1.0, d + extra), 1e300)
    for jacobian in (model.jacobian, model.jacobian_at):
        with pytest.raises(ValueError) as err:
            jacobian(x)
        assert str(err.value) == (f"dimension mismatch: expected {d} components, "
                                  f"got an array of shape {x.shape}")


@pytest.mark.parametrize("model, shape", [
    (lpa_map(), (3, 3)), (lpa_map(), (5, 3)), (lpa_map(), (1, 3)), (lpa_map(), (2, 4, 3)),
    (ricker_lift(RickerParams(r=2.0, delay=2)), (2, 2)),
    (ricker_lift(RickerParams(r=2.0, delay=3)), (4, 3))],
    ids=["lpa-3x3", "lpa-5x3", "lpa-1x3", "lpa-2x4x3", "ricker-2-2x2", "ricker-3-4x3"])
def test_built_in_jacobians_take_one_state_alone(model, shape):
    # a batch of states, even of one state, would fail in Python's words on
    # the list of lists its tolist gives
    for jacobian in (model.jacobian, model.jacobian_at):
        with pytest.raises(ValueError) as err:
            jacobian(np.ones(shape))
        assert str(err.value) == (f"dimension mismatch: expected {model.dimension} "
                                  f"components, got an array of shape {shape}")


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


def _lpa_oracle(p):
    """The LPA arithmetic as written before it became a compiled formula: a
    closure that takes ``exp`` and a conversion ``fl`` of exp's result."""
    b, c_el, c_ea, c_pa = p.b, p.c_el, p.c_ea, p.c_pa
    keep_l, keep_a = 1.0 - p.mu_l, 1.0 - p.mu_a

    def formula(x, exp=np.exp, fl=float):
        L, P, A = x[0], x[1], x[2]
        return (b * A * fl(exp(-c_el * L - c_ea * A)),
                keep_l * L,
                P * fl(exp(-c_pa * A)) + A * keep_a)

    return formula


def _ricker_oracle(p):
    """The Ricker lift's arithmetic as :func:`_lpa_oracle` gives the LPA map's."""
    r, oldest = p.r, p.delay - 1

    def formula(x, exp=np.exp, fl=float):
        return (x[0] * fl(exp(r - x[oldest])), *x[:-1])

    return formula


def _oracle_rows(formula, rows):
    """The oracle's array form on the components of a batch of rows."""
    return np.stack([np.broadcast_to(v, rows.shape[:1])
                     for v in formula(rows.T, np.exp, lambda v: v)], axis=1)


_ORACLE_MODELS = {
    **{name: (lpa_map(p), _lpa_oracle(p)) for name, p in [
        ("lpa", LpaParams()),
        ("lpa-other", LpaParams(b=7.25, c_el=0.0213, c_ea=0.0041, c_pa=0.875, mu_l=0.5125,
                                mu_a=0.1)),
        ("lpa-no-cannibalism", LpaParams(c_el=0.0, c_ea=0.0, c_pa=0.0))]},
    **{f"ricker-{d}-r{r}": (ricker_lift(RickerParams(r=r, delay=d)),
                            _ricker_oracle(RickerParams(r=r, delay=d)))
       for d in range(2, 14) for r in (-1.5, 2.0, 3.7)},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_formula_equals_the_written_out_arithmetic_bitwise(name):
    # every form compiled from a formula, against the arithmetic written out
    # by hand, on signed zeros, infinities, NaN and subnormals
    model, oracle = _ORACLE_MODELS[name]
    rows = _wide_states(np.random.default_rng(model.dimension + 40), model.dimension)
    with np.errstate(all="ignore"):
        expected = [oracle(tuple(x.tolist())) for x in rows]
        floats = [model.evaluate_floats(tuple(x.tolist())) for x in rows]
        alone = np.array([model.evaluate(x) for x in rows])
        batch = model.evaluate_batch(rows)
        expected_rows = _oracle_rows(oracle, rows)
    assert {type(v) for y in floats for v in y} == {float}
    np.testing.assert_array_equal(_bits(floats), _bits(expected))
    np.testing.assert_array_equal(_bits(alone), _bits(expected))
    np.testing.assert_array_equal(_bits(batch), _bits(expected_rows))
    assert np.isnan(batch).any() and np.isinf(batch).any()


def _pulled_oracle(oracle, scheme, c, t):
    """The controlled float step as a pull written out around ``oracle``:
    ``ct[j] + keep[j]*v[j]`` after the map or before it."""
    ct, keep = (np.asarray(c, float) * np.asarray(t, float)).tolist(), 1.0 - np.asarray(c, float)
    keep = np.broadcast_to(keep, (len(ct),)).tolist()

    def pull(v):
        return tuple(a + k * w for a, k, w in zip(ct, keep, v))

    if scheme in ("VTOC", "PF"):
        return lambda x: oracle(pull(x))
    return lambda x: pull(oracle(x))


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"])
@pytest.mark.parametrize("name", ["lpa", "lpa-other", "ricker-2-r2.0", "ricker-3-r3.7",
                                  "ricker-7-r-1.5", "ricker-13-r2.0"])
def test_controlled_float_step_equals_the_written_out_pull_bitwise(name, scheme):
    model, oracle = _ORACLE_MODELS[name]
    d = model.dimension
    rng = np.random.default_rng(d + 7)
    target = tuple(rng.uniform(0.0, 40.0, d))
    c = tuple(rng.uniform(0.0, 1.0, d)) if scheme == "DIAG-VMTOC" else 0.37
    g = controlled_map(model, ControlConfig(scheme, c, target))
    # PF and MPF pull toward 0
    step = _pulled_oracle(oracle, scheme, c, (0.0,) * d if scheme in ("PF", "MPF") else target)
    rows = _wide_states(rng, d, n=2000)
    with np.errstate(all="ignore"):
        expected = [step(tuple(x.tolist())) for x in rows]
        floats = [g.evaluate_floats(tuple(x.tolist())) for x in rows]
    assert {type(y) for y in floats} == {tuple}
    np.testing.assert_array_equal(_bits(floats), _bits(expected))


# --- the Jacobian form ----------------------------------------------------------


def _lpa_jacobian_oracle(p, x):
    """The LPA Jacobian written out by hand, on ``math.exp``."""
    L, P, A = float(x[0]), float(x[1]), float(x[2])
    e_rec = math.exp(-p.c_el * L - p.c_ea * A)
    e_pa = math.exp(-p.c_pa * A)
    return np.array([
        [-p.b * p.c_el * A * e_rec, 0.0, p.b * (1.0 - p.c_ea * A) * e_rec],
        [1.0 - p.mu_l, 0.0, 0.0],
        [0.0, e_pa, 1.0 - p.mu_a - p.c_pa * P * e_pa],
    ])


def _ricker_jacobian_oracle(p, x):
    """The Ricker lift's Jacobian written out by hand, on ``math.exp``."""
    d = p.delay
    growth = math.exp(p.r - float(x[d - 1]))
    out = np.zeros((d, d))
    out[0, 0] = growth
    out[0, d - 1] = -float(x[0]) * growth
    for i in range(1, d):
        out[i, i - 1] = 1.0
    return out


_JACOBIAN_MODELS = {
    **{name: (lpa_map(p), p, _lpa_jacobian_oracle, 300.0) for name, p in [
        ("lpa", LpaParams()), ("lpa-c_pa-0", LpaParams(c_pa=0.0)),
        ("lpa-c_el-0", LpaParams(c_el=0.0))]},
    **{f"ricker-{d}-r{r}": (ricker_lift(RickerParams(r=r, delay=d)), RickerParams(r=r, delay=d),
                            _ricker_jacobian_oracle, 8.0)
       for d in (*range(2, 14), 60) for r in (-1.5, 2.0, 3.7)},
}


@pytest.mark.parametrize("name", sorted(_JACOBIAN_MODELS))
def test_formula_jacobians_equal_the_written_out_jacobians_bitwise(name):
    # the Jacobian compiled from the map's formula, alone and under every
    # control scheme, against the one written out by hand
    model, p, oracle, hi = _JACOBIAN_MODELS[name]
    d = model.dimension
    rng = np.random.default_rng(d + 90)
    # box states and Halton states (with the corners for d <= 12), 0, and
    # states with a zero or a negative zero component
    box = rng.uniform(0.0, hi, (200, d))
    edge = box[:40].copy()
    edge[np.arange(40), np.arange(40) % d] = np.where(np.arange(40) % 2, 0.0, -0.0)
    states = np.concatenate([box, box_samples(np.zeros(d), np.full(d, hi), 128),
                             np.zeros((1, d)), edge])
    for x in states:
        assert _bits(model.jacobian_at(x)).tolist() == _bits(oracle(p, x)).tolist()
    target = tuple(rng.uniform(0.0, hi, d))
    for scheme in ("VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC"):
        c = rng.uniform(0.0, 1.0, d) if scheme == "DIAG-VMTOC" else 0.37
        g = controlled_map(model, ControlConfig(scheme, c, target))
        # PF and MPF pull toward 0; (1-c_i) scales row i
        t = np.zeros(d) if scheme in ("PF", "MPF") else np.array(target)
        keep = np.reshape(1.0 - c, (-1, 1))
        for x in states[::3]:
            at = c * t + (1.0 - c) * x if scheme in ("VTOC", "PF") else x
            assert _bits(g.jacobian_at(x)).tolist() == _bits(keep * oracle(p, at)).tolist()


def test_a_negative_zero_parameter_is_stored_as_zero():
    assert math.copysign(1.0, LpaParams(c_el=-0.0).c_el) == 1.0
    assert math.copysign(1.0, RickerParams(r=-0.0, delay=2).r) == 1.0
    # an integer zero stays an integer
    assert type(LpaParams(c_pa=0).c_pa) is int


def test_equal_parameter_sets_give_the_same_bits_in_either_order():
    # equal sets share one cache entry, so the first one bound must not
    # decide the sign of zero of the Jacobian's entry (0, 0)
    x = (20.0, 20.0, 5.0)
    models._lpa_forms.cache_clear()
    alone = lpa_jacobian(LpaParams(c_el=-0.0), x)[0, 0]
    models._lpa_forms.cache_clear()
    lpa_jacobian(LpaParams(c_el=0.0), x)
    after = lpa_jacobian(LpaParams(c_el=-0.0), x)[0, 0]
    assert np.float64(alone).tobytes() == np.float64(after).tobytes()


def test_lpa_params_hash_their_fields_once():
    p = LpaParams(b=9.5, c_el=-0.0)
    fields = (p.b, p.c_el, p.c_ea, p.c_pa, p.mu_l, p.mu_a)
    # the stored hash is the one the generated hash gives
    assert hash(p) == hash(fields) == hash(LpaParams(b=9.5, c_el=0.0))
    assert hash(LpaParams(c_pa=0)) == hash(LpaParams(c_pa=0.0))
    assert hash(dataclasses.replace(p, b=8.0)) == hash(LpaParams(b=8.0, c_el=0.0))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    # the stored hash is no field: not in the CLI's keys, repr or equality
    assert "_hash" not in [f.name for f in dataclasses.fields(LpaParams)]
    assert "_hash" not in repr(p)


def test_built_in_maps_look_up_their_module_names_at_call_time(monkeypatch):
    # the maps are built before the names are replaced, and each call must
    # still reach the replacement: the benchmark's tracer hooks these names
    built = {"lpa": lpa_map(), "ricker": ricker_lift(RickerParams(r=2.0, delay=2))}
    calls = collections.Counter()
    for name in ("lpa_eval", "lpa_jacobian", "ricker_eval", "ricker_jacobian"):
        def counting(p, x, name=name, original=getattr(models, name)):
            calls[name] += 1
            return original(p, x)
        monkeypatch.setattr(models, name, counting)
    for name, model in built.items():
        d = model.dimension
        model.evaluate(np.ones(d))
        model.evaluate_batch(np.ones((4, d)))
        model.jacobian(np.ones(d))
        assert (calls[f"{name}_eval"], calls[f"{name}_jacobian"]) == (2, 1)


def test_each_form_is_bound_once_per_parameter_set(monkeypatch):
    bound = collections.Counter()
    bind = Formula.bind

    def counting(self, form, *values):
        bound[form] += 1
        return bind(self, form, *values)

    monkeypatch.setattr(Formula, "bind", counting)
    models._lpa_forms.cache_clear()
    models._ricker_forms.cache_clear()
    p, q = LpaParams(b=9.5), RickerParams(r=2.5, delay=3)
    for _ in range(5):
        lpa_eval(p, np.ones(3))
        lpa_eval(LpaParams(b=9.5), np.ones((4, 3)))
        lpa_jacobian(p, np.ones(3))
        ricker_eval(q, np.ones(3))
        ricker_eval(RickerParams(r=2.5, delay=3), np.ones((4, 3)))
        ricker_jacobian(q, np.ones(3))
    assert bound == {"arrays": 2, "jacobian": 2}
