"""The design of a control that holds a chosen state, on ``target_for_state``.

For VMTOC at intensity ``c`` the state ``K*`` is an equilibrium exactly when
``T = (K* - (1-c) f(K*)) / c``, which is ``target_for_state`` at ``alpha =
1/c``.  It is locally stable exactly when ``c > c_stab =
local_cstar(rho(J(K*)))``, and on the orthant its target lies in the domain
exactly when ``c >= c_dom = max_i (1 - K*_i / f_i(K*))`` over the
components with ``f_i(K*) > 0``; the least usable intensity is ``c_min =
max(c_stab, c_dom)``.  On the LPA, ``K* = (30, 30, 200)`` has ``c_stab =
0.3618`` and ``c_dom = 0.6686``, so the domain sets ``c_min``.  On the
delay-2 Ricker lift, criterion 6's state has ``c_stab = 0.1203`` and ``c_dom
= 0.0905``, so stability sets it.  The asymptotic cost ``c ||f(K*) - T||``
equals ``||f(K*) - K*||`` for every ``c``.

The same design on the second iterate ``f∘f``, pulsed once every two steps,
holds a chosen point ``P`` of a 2-cycle: the free step between two pulses
visits ``f(P)``.  There ``c_stab = local_cstar(rho(J(f(P)) J(P)))`` and
``c_dom`` is the formula above with ``f(f(P))`` in place of ``f(K*)``.  On
the delay-2 Ricker lift at ``r = 2``, ``P = (1.5, 2.5)`` has ``c_stab =
0.1440`` and ``c_dom = 0``, so stability sets ``c_min``; on the LPA, ``P =
(30, 30, 200)`` has ``c_stab = 0`` and ``c_dom = 0.5857``, so the domain
sets it.  The second iterate is built by hand here, from ``evaluate`` and
``jacobian_at``.
"""

import numpy as np
import pytest

from chaosctl import (ControlConfig, MapModel, RickerParams, controlled_map, cost_per_step,
                      detect_period, find_fixed_point, iterate_orbit, local_cstar, lpa_map,
                      ricker_lift, spectral_radius, target_for_state)

K_STAR = np.array([30.0, 30.0, 200.0])
# ||f(K*) - K*||_2 of the default LPA map
NUDGE = 201.40308361467


def _held_orbit(lpa, c):
    """The last 50 of 5000 VMTOC steps from (20, 20, 5) toward ``K*`` at ``c``."""
    c_k, t = target_for_state(lpa, K_STAR, 1.0 / c)
    cfg = ControlConfig("VMTOC", c_k, tuple(t))
    return cfg, iterate_orbit(lpa, cfg, [20.0, 20.0, 5.0], 4950, 50)


@pytest.mark.parametrize("c", [0.67, 0.714])
def test_a_control_above_c_min_holds_the_chosen_state(lpa, c):
    _, orbit = _held_orbit(lpa, c)
    assert np.max(np.abs(orbit - K_STAR)) <= 1e-12 * (1.0 + np.max(np.abs(K_STAR)))


@pytest.mark.parametrize("c", [0.67, 0.714])
def test_the_held_state_costs_its_uncontrolled_step_at_every_intensity(lpa, c):
    nudge = float(np.linalg.norm(lpa.evaluate(K_STAR) - K_STAR))
    assert nudge == pytest.approx(NUDGE, rel=1e-12)
    cfg, orbit = _held_orbit(lpa, c)
    for window in ((0, 50), (25, 25), (49, 1)):
        assert cost_per_step(lpa, cfg, orbit, window=window).value == pytest.approx(
            nudge, rel=1e-9)


def test_an_intensity_below_c_dom_has_no_target_in_the_domain(lpa):
    with pytest.raises(ValueError, match="^alpha too large for domain$"):
        target_for_state(lpa, K_STAR, 1.0 / 0.66)


# criterion 6: the delay-2 Ricker lift held by VMTOC 0.4 toward (1, 3)
CRITERION_6 = ControlConfig("VMTOC", 0.4, (1.0, 3.0))


@pytest.fixture(scope="module")
def ricker():
    return ricker_lift(RickerParams(r=2.0, delay=2))


@pytest.fixture(scope="module")
def k6(ricker):
    return find_fixed_point(controlled_map(ricker, CRITERION_6), (1.0, 2.0))


def _c_stab(ricker, k):
    return local_cstar(spectral_radius(ricker.jacobian_at(k)))


def test_criterion_6_state_gives_back_its_control(ricker, k6):
    np.testing.assert_allclose(k6, (1.17532, 1.90519), atol=1e-5)
    c, t = target_for_state(ricker, k6, 1.0 / 0.4)
    assert (c, t.tolist()) == (0.4, [1.0, 3.0])


def test_stability_not_the_domain_sets_c_min_at_criterion_6(ricker, k6):
    fk = ricker.evaluate(k6)
    c_dom = max(1.0 - k6[i] / fk[i] for i in range(2) if fk[i] > 0.0)
    c_stab = _c_stab(ricker, k6)
    assert c_stab == pytest.approx(0.120300, abs=1e-6)
    assert c_dom == pytest.approx(0.090451, abs=1e-6)
    assert c_stab > c_dom
    with pytest.raises(ValueError, match="^alpha too large for domain$"):
        target_for_state(ricker, k6, 1.0 / (c_dom - 0.005))


def _ricker_orbit(ricker, k6, c):
    """The last 50 of 5000 VMTOC steps from ``1.3 K6`` toward the target
    that holds ``K6`` at ``c``."""
    c_k, t = target_for_state(ricker, k6, 1.0 / c)
    return iterate_orbit(ricker, ControlConfig("VMTOC", c_k, tuple(t)), 1.3 * k6, 4950, 50)


def test_a_control_just_above_c_stab_holds_criterion_6(ricker, k6):
    orbit = _ricker_orbit(ricker, k6, _c_stab(ricker, k6) + 0.005)
    assert np.max(np.abs(orbit[-1] - k6)) <= 1e-12


def test_a_feasible_control_just_below_c_stab_does_not_hold_criterion_6(ricker, k6):
    # the target is in the domain, but K6 is unstable: the orbit moves on
    # about it, none of its last 50 states near it
    orbit = _ricker_orbit(ricker, k6, _c_stab(ricker, k6) - 0.005)
    dist = np.max(np.abs(orbit - k6), axis=1)
    assert np.min(dist) > 0.15 and np.max(dist) > 0.3


def _twice(f):
    """The second iterate ``f∘f``, built by hand: the image ``f(f(x))`` and
    the chained Jacobian ``J(f(x)) J(x)``."""
    return MapModel(dimension=f.dimension, evaluate=lambda x: f.evaluate(f.evaluate(x)),
                    domain=f.domain,
                    jacobian=lambda x: f.jacobian_at(f.evaluate(x)) @ f.jacobian_at(x))


# the two cases of a chosen 2-cycle point P: (map, P)
_CYCLES = {"ricker": (ricker_lift(RickerParams(r=2.0, delay=2)), np.array([1.5, 2.5])),
           "lpa": (lpa_map(), K_STAR)}


def _cycle_thresholds(name):
    """``(f, f∘f, P, c_stab, c_dom)`` of a case of :data:`_CYCLES`."""
    f, p = _CYCLES[name]
    f2 = _twice(f)
    f2p = f2.evaluate(p)
    c_dom = max(1.0 - p[i] / f2p[i] for i in range(len(p)) if f2p[i] > 0.0)
    return f, f2, p, local_cstar(spectral_radius(f2.jacobian_at(p))), c_dom


def _pulsed_orbit(f2, p, c):
    """The last 50 of 5000 VMTOC pulses on ``f∘f`` from ``1.3 P`` toward the
    target that holds ``P`` at ``c``."""
    c_k, t = target_for_state(f2, p, 1.0 / c)
    return iterate_orbit(f2, ControlConfig("VMTOC", c_k, tuple(t)), 1.3 * p, 4950, 50)


def test_stability_sets_c_min_of_the_delayed_ricker_2_cycle():
    f, _, p, c_stab, c_dom = _cycle_thresholds("ricker")
    np.testing.assert_allclose(f.evaluate(p), (0.909796, 1.5), atol=1e-6)
    assert c_stab == pytest.approx(0.143983, abs=1e-6)
    assert c_dom == pytest.approx(0.0, abs=1e-12)
    assert c_stab > c_dom


def test_a_pulse_just_above_c_stab_holds_a_true_ricker_2_cycle():
    f, f2, p, c_stab, _ = _cycle_thresholds("ricker")
    orbit = _pulsed_orbit(f2, p, c_stab + 0.005)
    assert np.max(np.abs(orbit - p)) <= 1e-12
    # the free step between two pulses visits f(P), not P: the period is 2
    free = f.evaluate(orbit[-1])
    np.testing.assert_allclose(free, f.evaluate(p), atol=1e-12)
    assert np.max(np.abs(free - p)) > 0.5


def test_a_feasible_pulse_just_below_c_stab_does_not_hold_the_ricker_2_cycle():
    _, f2, p, c_stab, _ = _cycle_thresholds("ricker")
    orbit = _pulsed_orbit(f2, p, c_stab - 0.005)
    assert np.min(np.max(np.abs(orbit - p), axis=1)) > 0.1


def test_the_domain_sets_c_min_of_the_lpa_2_cycle():
    _, f2, p, c_stab, c_dom = _cycle_thresholds("lpa")
    assert c_stab == 0.0
    assert c_dom == pytest.approx(0.585747, abs=1e-6)
    orbit = _pulsed_orbit(f2, p, c_dom + 0.02)
    assert np.max(np.abs(orbit - p)) <= 1e-12 * (1.0 + np.max(np.abs(p)))
    assert detect_period(orbit, max_period=25) == (1, 1, 1)
    with pytest.raises(ValueError, match="^alpha too large for domain$"):
        target_for_state(f2, p, 1.0 / (c_dom - 0.02))
