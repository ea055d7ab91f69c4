"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from chaosctl import (
    ControlConfig,
    apply_control,
    bifurcation_scan,
    compose_vmtoc,
    conjugate_state,
    detect_bubbles,
    detect_period,
    find_fixed_point,
    lipschitz_estimate,
    local_cstar,
    lyapunov_max,
    ricker_lift,
    spectral_radius,
    verify_contraction,
)
from chaosctl.core import DomainSpec, MapModel
from chaosctl.models import LpaParams, RickerParams, lpa_eval, lpa_jacobian, \
    lpa_recruitment_bound

from conftest import LPA_FIXED_POINT

SCAN_SEED = 123
GRID = [k / 300 for k in range(1, 300)]


@contextmanager
def criterion(num, desc, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, \
                f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {num:2d} PASS  {desc} ({elapsed:.2f}s)")


def run_scan(lpa, target):
    return bifurcation_scan(lpa, "VMTOC", target, GRID, seed=SCAN_SEED,
                            init_lo=0.0, init_hi=50.0,
                            n_transient=3000, n_keep=50)


def test_criterion_01_lpa_fixed_point(lpa):
    with criterion(1, "LPA fixed point from (20,20,5) within 1e-3", budget=1.0):
        k = find_fixed_point(lpa, np.array([20.0, 20.0, 5.0]), tol=1e-10)
        np.testing.assert_allclose(k, LPA_FIXED_POINT, atol=1e-3)


def test_criterion_02_spectral_radius_and_threshold(lpa):
    with criterion(2, "spectral radius 1.3803 and threshold 0.2756", budget=1.0):
        k = find_fixed_point(lpa, np.array([20.0, 20.0, 5.0]), tol=1e-12)
        rho = spectral_radius(lpa.jacobian_at(k))
        assert rho == pytest.approx(1.3803, abs=1e-3)
        assert local_cstar(rho) == pytest.approx(0.2756, abs=1e-3)


def test_criterion_03_stabilization_threshold_scan(lpa, lpa_k):
    with criterion(3, "scan with T=K: stable for c>=0.30, unstable below 0.20",
                   budget=30.0):
        records = run_scan(lpa, tuple(lpa_k))
        high = [r for r in records if r.c >= 0.30 - 1e-12]
        assert high and all(r.periods == (1, 1, 1) for r in high)
        low = [r for r in records if r.c <= 0.20 + 1e-12]
        assert any(r.periods != (1, 1, 1) for r in low)


def test_criterion_04_bubble_phenomenon(lpa):
    with criterion(4, "target (30,30,200): larvae/pupae bubble, adults stable",
                   budget=30.0):
        records = run_scan(lpa, (30.0, 30.0, 200.0))
        bubbles = detect_bubbles(records)
        assert any(b[0] == 0 for b in bubbles), "no larvae bubble flagged"
        assert any(b[0] == 1 for b in bubbles), "no pupae bubble flagged"

        def in_bubble(rec, comp):
            return any(b[0] == comp and b[1] - 1e-12 <= rec.c <= b[2] + 1e-12
                       for b in bubbles)

        # the interval where both flagged components oscillate while the
        # adult component has already settled back to period 1
        joint = [r.c for r in records
                 if in_bubble(r, 0) and in_bubble(r, 1) and r.periods[2] == 1]
        assert joint, "no interval with L,P flagged and A stable"
        c_lo, c_hi = min(joint), max(joint)
        assert 0.15 < c_lo and c_hi < 0.40, (c_lo, c_hi)
        assert c_lo < 0.33 and c_hi > 0.20, (c_lo, c_hi)  # overlaps (0.20, 0.33)
        # contiguity: every grid point between the ends is in the joint set
        expected = [r.c for r in records if c_lo <= r.c <= c_hi]
        assert joint == expected
        tail = [r for r in records if r.c >= 0.45 - 1e-12]
        assert tail and all(r.periods == (1, 1, 1) for r in tail)


def test_criterion_05_no_bubbles_for_other_targets(lpa):
    with criterion(5, "targets (30,200,30) and (200,30,30): stabilization is "
                      "monotone above threshold", budget=60.0):
        for target in ((30.0, 200.0, 30.0), (200.0, 30.0, 30.0)):
            records = run_scan(lpa, target)
            first = next((i for i, r in enumerate(records)
                          if r.periods == (1, 1, 1)), None)
            assert first is not None, f"never stabilized for {target}"
            later = records[first + 1:]
            losses = [r.c for r in later if r.periods != (1, 1, 1)]
            assert not losses, f"stability lost at {losses[:5]} for {target}"


def test_criterion_06_delayed_ricker_two_cycle():
    with criterion(6, "delayed Ricker: control locks a 2-cycle, uncontrolled "
                      "orbit stays irregular", budget=5.0):
        lift = ricker_lift(RickerParams(r=2.0, delay=2))
        cfg = ControlConfig("VMTOC", 0.4, (1.0, 3.0))
        x = np.array([1.0, 2.0])
        for _ in range(2000):
            x = apply_control(lift, cfg, x)
        # the state must have settled (one more step moves it below tol)...
        nxt = apply_control(lift, cfg, x)
        assert np.max(np.abs(nxt - x)) < 1e-6
        # ...on a state whose delay-line reading alternates two distinct
        # population values: a fixed point of the controlled lift, not a
        # 2-cycle of the scalar recursion, whose two components tile the
        # delay line with period 2
        cycle = np.tile(x[::-1], 40)
        assert detect_period(cycle, tol=1e-6, max_period=8) == (2,)
        assert abs(x[0] - x[1]) > 1e-3

        uncontrolled = ricker_lift(RickerParams(r=2.0, delay=2))
        u = np.array([1.0, 2.0])
        orbit = np.empty((64, 2))
        for i in range(2000 + 64):
            u = uncontrolled.evaluate(u)
            if i >= 2000:
                orbit[i - 2000] = u
        periods = detect_period(orbit, tol=1e-6, max_period=32)
        assert all(p is None or p > 2 for p in periods)


def test_criterion_07_conjugacy_property(lpa):
    with criterion(7, "VTOC and VMTOC orbits correspond through phi "
                      "(100 random controls, 100 steps, 1e-9)"):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            c = float(rng.uniform(0.0, 0.95))
            target = tuple(rng.uniform(0.0, 60.0, 3))
            vtoc = ControlConfig("VTOC", c, target)
            vmtoc = ControlConfig("VMTOC", c, target)
            x = rng.uniform(0.0, 50.0, 3)
            y = conjugate_state(vtoc, x)
            for _ in range(100):
                x = apply_control(lpa, vtoc, x)
                y = apply_control(lpa, vmtoc, y)
                worst = max(worst, float(np.max(np.abs(conjugate_state(vtoc, x) - y))))
        assert worst < 1e-9


def test_criterion_08_composition_property(lpa):
    with criterion(8, "two control stages collapse to one VMTOC "
                      "(100 random tuples, 1e-12)"):
        rng = np.random.default_rng(88)
        for _ in range(100):
            c1, c2 = rng.uniform(0.01, 0.99, 2)
            t1 = rng.uniform(0.0, 60.0, 3)
            t2 = rng.uniform(0.0, 60.0, 3)
            x = rng.uniform(0.0, 50.0, 3)
            fx = lpa.evaluate(x)
            two_stage = c2 * t2 + (1 - c2) * (c1 * t1 + (1 - c1) * fx)
            c, t = compose_vmtoc((c1, t1), (c2, t2))
            composed = apply_control(lpa, ControlConfig("VMTOC", c, tuple(t)), x)
            assert np.max(np.abs(two_stage - composed)) < 1e-12


def test_criterion_09_contraction_certificate(lpa, lpa_k):
    with criterion(9, "contraction certificate: exact linear ratio and sampled "
                      "LPA bound at c=0.95"):
        k = np.array([1.0, 2.0])
        linear = MapModel(dimension=2,
                          evaluate=lambda x: 2.0 * (np.asarray(x, float) - k) + k,
                          domain=DomainSpec.full_space(2))
        holds, ratio = verify_contraction(
            linear, ControlConfig("VMTOC", 0.75, tuple(k)), k, L=2.0,
            x0=np.array([5.0, -3.0]), n=50)
        assert holds
        assert ratio == pytest.approx(0.5, abs=1e-12)

        est = lipschitz_estimate(lpa, lpa_k, [0.0] * 3, [300.0] * 3,
                                 n_samples=4096)
        cfg = ControlConfig("VMTOC", 0.95, tuple(lpa_k))
        rng = np.random.default_rng(9)
        for _ in range(5):
            holds, ratio = verify_contraction(lpa, cfg, lpa_k, est.value,
                                              x0=rng.uniform(0.0, 50.0, 3),
                                              n=300)
            assert holds, f"ratio {ratio} exceeded theta"


def test_criterion_10_eigenvalue_bound_property():
    with criterion(10, "spectral radius within row/column sum bound "
                       "(1000 random matrices)"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            m = rng.normal(0.0, 3.0, (n, n))
            rho = spectral_radius(m)
            rows = float(np.max(np.sum(np.abs(m), axis=1)))
            cols = float(np.max(np.sum(np.abs(m), axis=0)))
            assert rho <= min(rows, cols) + 1e-9


def test_criterion_11_jacobian_consistency():
    with criterion(11, "analytic LPA Jacobian matches central differences "
                       "(100 points, 1e-5)"):
        p = LpaParams()
        rng = np.random.default_rng(11)
        step = 1e-6
        for x in rng.uniform(0.0, 300.0, size=(100, 3)):
            analytic = lpa_jacobian(p, x)
            numeric = np.empty((3, 3))
            for j in range(3):
                h = step * (1.0 + abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                numeric[:, j] = (lpa_eval(p, xp) - lpa_eval(p, xm)) / (2.0 * h)
            rel = np.abs(analytic - numeric) / (1.0 + np.abs(analytic))
            assert float(np.max(rel)) < 1e-5


def test_criterion_12_lpa_norm_bound():
    with criterion(12, "max-norm never grows past the recruitment bound "
                       "(10^4 samples, zero violations)"):
        p = LpaParams()
        bound = lpa_recruitment_bound(p)
        rng = np.random.default_rng(12)
        violations = 0
        for _ in range(10_000):
            direction = rng.uniform(0.0, 1.0, 3)
            direction /= direction.max()
            size = rng.uniform(bound, 1e4)
            x = size * direction
            if np.max(np.abs(lpa_eval(p, x))) > size:
                violations += 1
        assert violations == 0


def test_criterion_13_lyapunov_sign_check(lpa, lpa_k):
    with criterion(13, "largest Lyapunov exponent: positive uncontrolled, "
                       "negative under control"):
        chaotic = lyapunov_max(lpa, None, np.array([22.0, 27.0, 5.0]), n=10_000)
        assert chaotic > 0.0
        cfg = ControlConfig("VMTOC", 0.5, tuple(lpa_k))
        stabilized = lyapunov_max(lpa, cfg, np.array([22.0, 27.0, 5.0]), n=3000)
        assert stabilized < 0.0
