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
= 0.0905``, so stability sets it.  A component with ``f_i(K*) = 0`` sets
no domain term, and a ``K*`` that is already stable has ``c_min = 0``.
The asymptotic cost ``c ||f(K*) - T||`` equals ``||f(K*) - K*||`` for
every ``c``.

The same design on the second iterate ``f∘f``, pulsed once every two steps,
holds a chosen point ``P`` of a 2-cycle: the free step between two pulses
visits ``f(P)``.  There ``c_stab = local_cstar(rho(J(f(P)) J(P)))`` and
``c_dom`` is the formula above with ``f(f(P))`` in place of ``f(K*)``.  On
the delay-2 Ricker lift at ``r = 2``, ``P = (1.5, 2.5)`` has ``c_stab =
0.1440`` and ``c_dom = 0``, so stability sets ``c_min``; on the LPA, ``P =
(30, 30, 200)`` has ``c_stab = 0`` and ``c_dom = 0.5857``, so the domain
sets it.

A delay equation's cycle can also be held by pulling only its newest value
at every step, toward a target that cycles with it: on the delay-2 Ricker
lift at ``r = 2``, the steps ``g_i`` of DIAG-VMTOC with the intensities
``(c, 0)`` toward ``(τ_i, 1)`` make the cycle ``(1.5, 2.5) -> (2.5, 1.5)``
an orbit of ``g_1∘g_0`` for every ``c`` at which both targets lie in the
domain, ``c >= 0.636082``.  It is stable exactly when ``rho(J_{g_1∘g_0})
< 1``, which holds at ``c = 0.8`` (0.772026) and not at ``c = 0.7``
(1.117454).  The compositions are built by hand here, from ``evaluate``
and ``jacobian_at``.
"""

import numpy as np
import pytest

from chaosctl import (ControlConfig, DomainSpec, MapModel, RickerParams, controlled_map,
                      cost_per_step, detect_period, find_fixed_point, iterate_orbit, local_cstar,
                      lpa_map, ricker_lift, spectral_radius, target_for_state)

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


def _orthant_c_dom(k, fk):
    """``c_dom = max_i (1 - K*_i / f_i(K*))`` over the components with
    ``f_i(K*) > 0``: a component with ``f_i(K*) = 0`` has the target ``K*_i /
    c``, in the orthant at every intensity."""
    return max(1.0 - k[i] / fk[i] for i in range(len(k)) if fk[i] > 0.0)


# a 2-D orthant map whose second component vanishes at K* = (1, 2)
_VANISHING = MapModel(dimension=2, domain=DomainSpec.nonnegative_orthant(2),
                      evaluate=lambda x: np.array([0.5 * (x[0] + x[1]), (x[0] - 1.0) ** 2]),
                      jacobian=lambda x: np.array([[0.5, 0.5], [2.0 * (x[0] - 1.0), 0.0]]))
_K_VANISHING = np.array([1.0, 2.0])


def test_a_component_with_a_zero_image_sets_no_domain_term():
    k = _K_VANISHING
    fk = _VANISHING.evaluate(k)
    assert fk.tolist() == [1.5, 0.0]
    rho = spectral_radius(_VANISHING.jacobian_at(k))
    assert rho == pytest.approx(0.5, abs=1e-15)
    assert local_cstar(rho) == 0.0
    # component 0 alone: 1 - 1/1.5
    c_dom = _orthant_c_dom(k, fk)
    assert c_dom == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError, match="^alpha too large for domain$"):
        target_for_state(_VANISHING, k, 1.0 / (c_dom - 0.005))


def test_a_control_just_above_c_dom_holds_a_state_with_a_zero_image():
    k = _K_VANISHING
    c_dom = _orthant_c_dom(k, _VANISHING.evaluate(k))
    c, t = target_for_state(_VANISHING, k, 1.0 / (c_dom + 0.02))
    np.testing.assert_allclose(t, (0.084906, 5.660377), atol=1e-6)
    orbit = iterate_orbit(_VANISHING, ControlConfig("VMTOC", c, tuple(t)), 1.3 * k, 4950, 50)
    assert np.max(np.abs(orbit[-1] - k)) <= 1e-12


def test_an_already_stable_state_needs_no_control():
    f = ricker_lift(RickerParams(r=0.5, delay=2))
    k = np.array([0.5, 0.5])
    fk = f.evaluate(k)
    assert fk.tolist() == k.tolist()
    rho = spectral_radius(f.jacobian_at(k))
    assert rho == pytest.approx(0.707107, abs=1e-6)
    # c_stab = c_dom = c_min = 0
    assert local_cstar(rho) == 0.0 and _orthant_c_dom(k, fk) == 0.0
    c, t = target_for_state(f, k, 1.0 / 0.01)
    assert t.tolist() == k.tolist()
    orbit = iterate_orbit(f, ControlConfig("VMTOC", c, tuple(t)), 1.3 * k, 4950, 50)
    assert np.max(np.abs(orbit[-1] - k)) <= 1e-12


def _composed(maps):
    """``maps[-1] ∘ ... ∘ maps[0]``, built by hand: the image through each map
    in turn and the chained Jacobian, each map's Jacobian at its own input
    multiplied on the left."""
    def evaluate(x):
        for f in maps:
            x = f.evaluate(x)
        return x

    def jacobian(x):
        j = np.eye(len(x))
        for f in maps:
            j, x = f.jacobian_at(x) @ j, f.evaluate(x)
        return j

    return MapModel(dimension=maps[0].dimension, evaluate=evaluate, domain=maps[0].domain,
                    jacobian=jacobian)


def _twice(f):
    """The second iterate ``f∘f``: the image ``f(f(x))`` and the chained
    Jacobian ``J(f(x)) J(x)``."""
    return _composed([f, f])


# the two cases of a chosen 2-cycle point P: (map, P)
_CYCLES = {"ricker": (ricker_lift(RickerParams(r=2.0, delay=2)), np.array([1.5, 2.5])),
           "lpa": (lpa_map(), K_STAR)}


def _cycle_thresholds(name):
    """``(f, f∘f, P, c_stab, c_dom)`` of a case of :data:`_CYCLES`."""
    f, p = _CYCLES[name]
    f2 = _twice(f)
    c_dom = _orthant_c_dom(p, f2.evaluate(p))
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


# the 2-cycle 1.5, 2.5 of the delayed Ricker recursion u[n+1] = u[n] exp(2 -
# u[n-1]) as its two lifted states, the newest value first
_NEWEST_CYCLE = (np.array([1.5, 2.5]), np.array([2.5, 1.5]))


def _newest_value_targets(c):
    """``τ_i = (p_{i+1} - (1-c) g(P_i)) / c``, which make ``P_0 -> P_1 ->
    P_0`` an orbit of the steps that pull only the newest value, at
    intensity ``c``, toward ``τ_0`` and then ``τ_1``."""
    f = _CYCLES["ricker"][0]
    p0, p1 = _NEWEST_CYCLE
    return [(nxt[0] - (1.0 - c) * f.evaluate(p)[0]) / c for p, nxt in ((p0, p1), (p1, p0))]


def _newest_value_steps(c):
    """The two steps ``g_0``, ``g_1`` of the delay-2 Ricker lift at ``r = 2``:
    DIAG-VMTOC with the intensities ``(c, 0)`` toward ``(τ_i, 1)``."""
    return [controlled_map(_CYCLES["ricker"][0], ControlConfig("DIAG-VMTOC", (c, 0.0), (tau, 1.0)))
            for tau in _newest_value_targets(c)]


def _newest_value_orbit(c):
    """``rho(J_{g_1∘g_0}(P_0))`` and the last 50 of 6000 pulses of ``g_1∘g_0``
    from ``1.3 P_0``, at intensity ``c``."""
    g = _composed(_newest_value_steps(c))
    p0 = _NEWEST_CYCLE[0]
    return spectral_radius(g.jacobian_at(p0)), iterate_orbit(g, None, 1.3 * p0, 5950, 50)


@pytest.mark.parametrize("c", [0.8, 0.7])
def test_newest_value_targets_make_the_ricker_2_cycle_an_orbit(c):
    f = _CYCLES["ricker"][0]
    p0, p1 = _NEWEST_CYCLE
    np.testing.assert_allclose([f.evaluate(p0)[0], f.evaluate(p1)[0]], (0.909796, 4.121803),
                               atol=1e-6)
    g0, g1 = _newest_value_steps(c)
    assert g0.evaluate(p0).tolist() == p1.tolist()
    assert g1.evaluate(p1).tolist() == p0.tolist()


def test_newest_value_control_at_0_8_holds_the_ricker_2_cycle():
    rho, orbit = _newest_value_orbit(0.8)
    assert rho == pytest.approx(0.772026, abs=1e-6)
    assert np.max(np.abs(orbit - _NEWEST_CYCLE[0])) <= 1e-12


def test_feasible_newest_value_control_at_0_7_does_not_hold_the_ricker_2_cycle():
    np.testing.assert_allclose(_newest_value_targets(0.7), (3.181516, 0.376370), atol=1e-6)
    rho, orbit = _newest_value_orbit(0.7)
    assert rho == pytest.approx(1.117454, abs=1e-6)
    assert np.min(np.max(np.abs(orbit - _NEWEST_CYCLE[0]), axis=1)) > 0.5


def test_newest_value_target_leaves_the_domain_below_its_edge():
    # τ_1 = (1.5 - (1-c) g(P_1)) / c is negative below c = 1 - 1.5 / g(P_1)
    edge = 1.0 - 1.5 / _CYCLES["ricker"][0].evaluate(_NEWEST_CYCLE[1])[0]
    assert edge == pytest.approx(0.636082, abs=1e-6)
    for c in (0.6, edge - 1e-6):
        with pytest.raises(ValueError, match="^target outside the model domain$"):
            _newest_value_steps(c)
    assert len(_newest_value_steps(edge + 1e-6)) == 2
