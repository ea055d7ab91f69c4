"""Orbit machinery: iteration, period classification, intensity scans, bubbles.

A bifurcation scan runs one controlled orbit per grid intensity, discards a
transient, keeps a short window and classifies each component's period on
that window.  Scans are deterministic: the initial condition for grid index
``i`` comes from an RNG stream derived from ``(seed, i)``, so records are
bit-identical across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controls import ControlConfig, controlled_map
from .core import MapModel, as_state

log = logging.getLogger(__name__)


class OrbitError(RuntimeError):
    """A non-finite state appeared while iterating; ``step`` is the 0-based index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


def _step_map(model: MapModel, cfg: Optional[ControlConfig]) -> MapModel:
    return controlled_map(model, cfg) if cfg is not None else model


def iterate_orbit(model: MapModel, cfg: Optional[ControlConfig], x0,
                  n_transient: int, n_keep: int, strict: bool = False) -> np.ndarray:
    """Iterate the (controlled) map and return the last ``n_keep`` states.

    Runs ``n_transient + n_keep`` steps from ``x0``.  A non-finite state
    raises :class:`OrbitError` with the offending step index.  Domain
    violations are advisory (logged once per orbit) unless ``strict``.
    """
    if n_transient < 0 or n_keep < 0:
        raise ValueError("n_transient and n_keep must be nonnegative")
    g = _step_map(model, cfg)
    x = np.asarray(as_state(x0, model.dimension), float)
    kept = np.empty((n_keep, model.dimension))
    warned = False
    domain = model.domain
    for i in range(n_transient + n_keep):
        x = np.asarray(g.evaluate(x), float)
        # float() of the sum is NaN/Inf whenever any component is.
        if not math.isfinite(float(np.sum(x))):
            raise OrbitError(f"non-finite state at step {i}", step=i)
        if not domain.contains_unchecked(x):
            if strict:
                raise OrbitError(f"state left the domain at step {i}", step=i)
            if not warned:
                log.warning("orbit left the domain at step %d (advisory)", i)
                warned = True
        if i >= n_transient:
            kept[i - n_transient] = x
    return kept


def detect_period(orbit: np.ndarray, tol: float = 1e-5,
                  max_period: int = 32) -> tuple:
    """Smallest period of each component over the whole window, or None.

    Component j gets the smallest p <= max_period with
    |v[i+p] - v[i]| < tol*(1 + |v[i]|) for every index i in the window, and
    None (aperiodic) when no p fits.  The orbit must be at least twice
    ``max_period`` long so that every candidate sees a full extra cycle.
    """
    orbit = np.asarray(orbit, dtype=float)
    if orbit.ndim == 1:
        orbit = orbit[:, None]
    n = orbit.shape[0]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    if n < 2 * max_period:
        raise ValueError(f"orbit too short: {n} points for max_period {max_period}")
    periods = []
    for j in range(orbit.shape[1]):
        v = orbit[:, j]
        scale = tol * (1.0 + np.abs(v))
        found = None
        for p in range(1, max_period + 1):
            if np.all(np.abs(v[p:] - v[:-p]) < scale[:-p]):
                found = p
                break
        periods.append(found)
    return tuple(periods)


def overall_period(periods: Sequence[Optional[int]]) -> Optional[int]:
    """Least common multiple of the component periods; None if any is aperiodic."""
    if any(p is None for p in periods):
        return None
    return math.lcm(*(int(p) for p in periods))


@dataclass
class ScanRecord:
    """One intensity sample of a scan: kept states, per-component periods, seed."""

    c: float
    points: np.ndarray
    periods: tuple
    seed: int
    error: Optional[str] = None


def _draw_x0(seed: int, index: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.uniform(lo, hi)


def bifurcation_scan(model: MapModel, scheme: str, target, c_grid,
                     *, seed: int = 0, init_lo=0.0, init_hi=50.0,
                     n_transient: int = 3000, n_keep: int = 50,
                     tol: float = 1e-5, max_period: int = 32,
                     continue_orbits: bool = False) -> list:
    """One :class:`ScanRecord` per grid intensity, in grid order.

    Fresh initial conditions are drawn per grid point from the box
    [init_lo, init_hi] using streams seeded by ``(seed, index)``;
    ``continue_orbits`` instead chains each orbit from the previous final
    state.  ``max_period`` is capped at half the kept window.  An invalid
    scheme or target raises ``ValueError`` before any orbit runs; failures
    of single orbits are recorded on their records, not raised.
    """
    c_grid = [float(c) for c in c_grid]
    for c in c_grid:
        if not (0.0 <= c < 1.0):
            raise ValueError(f"grid intensity must lie in [0, 1), got {c}")
    # Validate scheme and target once, so that a bad control raises here
    # instead of being recorded as the error of every grid point.
    controlled_map(model, ControlConfig(scheme=scheme, intensity=0.0, target=target))
    lo = np.broadcast_to(np.asarray(init_lo, float), (model.dimension,)).copy()
    hi = np.broadcast_to(np.asarray(init_hi, float), (model.dimension,)).copy()
    eff_period = min(max_period, n_keep // 2)

    def classify(points):
        if eff_period >= 1:
            return detect_period(points, tol=tol, max_period=eff_period)
        return tuple(None for _ in range(model.dimension))

    records = []
    for i, c in enumerate(c_grid):
        if i == 0 or not continue_orbits:
            x0 = _draw_x0(seed, i, lo, hi)
        cfg = ControlConfig(scheme=scheme, intensity=c, target=target) if c > 0.0 else None
        try:
            pts = iterate_orbit(model, cfg, x0, n_transient, n_keep)
            records.append(ScanRecord(c=c, points=pts, periods=classify(pts), seed=seed))
        except (OrbitError, ValueError) as exc:
            records.append(ScanRecord(c=c, points=np.empty((0, model.dimension)),
                                      periods=tuple(None for _ in range(model.dimension)),
                                      seed=seed, error=str(exc)))
        if continue_orbits and records[-1].points.shape[0]:
            x0 = records[-1].points[-1]
    return records


def detect_bubbles(records: Sequence[ScanRecord]) -> list:
    """Intervals of lost stability bracketed by stability on both sides.

    For each component, returns maximal grid intervals where the period is
    not 1 (aperiodic counts) while some smaller and some larger grid
    intensity both give period 1 -- the signature of non-monotone
    stabilization.  Endpoints are reported at grid resolution as
    ``(component, c_lo, c_hi)`` tuples.  Requires records sorted by c.
    """
    cs = [r.c for r in records]
    if any(b < a for a, b in zip(cs, cs[1:])):
        raise ValueError("scan records must be sorted by intensity")
    if not records:
        return []
    dim = len(records[0].periods)
    out = []
    for j in range(dim):
        stable = [i for i, r in enumerate(records) if r.periods[j] == 1]
        if len(stable) < 2:
            continue
        run_start = None
        for i in range(stable[0], stable[-1] + 1):
            if records[i].periods[j] != 1:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                out.append((j, records[run_start].c, records[i - 1].c))
                run_start = None
    return out


def lyapunov_max(model: MapModel, cfg: Optional[ControlConfig], x0,
                 n: int = 5000) -> float:
    """Largest Lyapunov exponent along one orbit of the (controlled) map.

    Propagates a tangent vector through the Jacobian, renormalizing every
    step, and averages the log growth over the last 80% of the ``n`` steps
    (the first fifth is treated as transient).  Positive means sensitive
    dependence; a stabilized equilibrium gives a negative value.
    """
    if n < 1000:
        raise ValueError("n must be at least 1000 for a stable average")
    g = _step_map(model, cfg)
    x = np.asarray(as_state(x0, model.dimension), float)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(model.dimension)
    v /= np.linalg.norm(v)
    logs = np.empty(n)
    for i in range(n):
        v = np.asarray(g.jacobian_at(x), float) @ v
        growth = float(np.linalg.norm(v))
        if growth == 0.0:
            # Tangent collapsed (exactly singular Jacobian); restart it.
            v = rng.standard_normal(model.dimension)
            v /= np.linalg.norm(v)
            logs[i] = -np.inf
            continue
        logs[i] = math.log(growth)
        v /= growth
        x = np.asarray(g.evaluate(x), float)
        if not math.isfinite(float(np.sum(x))):
            raise OrbitError(f"orbit diverged at step {i}", step=i)
    tail = logs[int(0.2 * n):]
    return float(np.mean(tail))
