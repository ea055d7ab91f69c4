import math

import numpy as np
import pytest

from chaosctl import (
    LpaParams,
    RickerParams,
    fd_jacobian,
    lpa_eval,
    lpa_eval_batch,
    lpa_jacobian,
    lpa_recruitment_bound,
    ricker_eval,
    ricker_eval_batch,
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


def test_lpa_strict_rejects_negative_input():
    with pytest.raises(ValueError, match="negative"):
        lpa_eval(LpaParams(), np.array([-1.0, 0.0, 0.0]), strict=True)


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
    # np.exp and math.exp may differ in the last bit, so the batched rows
    # agree with the single-state maps to a few ulp, not bitwise
    rng = np.random.default_rng(3)
    lpa_p, ricker_p = LpaParams(), RickerParams(r=2.0, delay=3)
    for batch, single, p, d in ((lpa_eval_batch, lpa_eval, lpa_p, 3),
                                (ricker_eval_batch, ricker_eval, ricker_p, 3)):
        rows = rng.uniform(0.0, 300.0, (64, d))
        out = batch(p, rows)
        assert out.shape == rows.shape
        for x, y in zip(rows, out):
            np.testing.assert_allclose(y, single(p, x), rtol=1e-14, atol=0.0)
