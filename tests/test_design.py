"""The design of a control that holds a chosen state, on ``target_for_state``.

For VMTOC at intensity ``c`` the state ``K*`` is an equilibrium exactly when
``T = (K* - (1-c) f(K*)) / c``, which is ``target_for_state`` at ``alpha =
1/c``.  On the LPA orthant, ``K* = (30, 30, 200)`` is stable for ``c >
c_stab = 0.3618`` and has its target in the domain for ``c >= c_dom =
0.6686``, so ``c_min = c_dom``.  The asymptotic cost ``c ||f(K*) - T||``
equals ``||f(K*) - K*||`` for every ``c``.
"""

import numpy as np
import pytest

from chaosctl import ControlConfig, cost_per_step, iterate_orbit, target_for_state

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
