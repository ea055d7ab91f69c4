"""Orbit machinery: iteration, period classification, intensity scans, bubbles.

A bifurcation scan runs one controlled orbit per grid intensity, discards a
transient, keeps a short window and classifies each component's period on
that window, every record's in one pass.  Every orbit runs through one
loop, which advances one state through ``evaluate`` or the rows of an
``(n, d)`` array, one orbit each, through ``evaluate_batch``.  Only a
fresh scan of a model with ``evaluate_batch`` runs a batch; every other
orbit runs alone.  The loop checks finiteness and domain membership once
per block of steps; a block that fails the check is
replayed one checked step at a time from its start state, so failures,
their steps and messages, and the domain-exit log lines are those of a
step-by-step check.  A lone state stops at the exact step of its first
recurrence: once a state equals, bit for bit, a state of its current or
previous block, the rest of the orbit repeats that cycle.  Every period up to
``_BLOCK`` is caught there, and memory stays bounded by two blocks of
states whatever the orbit's length.
Scans are deterministic: the initial condition for grid index ``i`` comes
from an RNG stream derived from ``(seed, i)``, so records are bit-identical
across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controls import ControlConfig, controlled_map, controlled_rows
from .core import DomainSpec, MapModel, as_state, check_tol

log = logging.getLogger(__name__)


class OrbitError(RuntimeError):
    """An orbit failed while iterating; ``step`` is the 0-based index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


def _step_map(model: MapModel, cfg: Optional[ControlConfig]) -> MapModel:
    return controlled_map(model, cfg) if cfg is not None else model


def _check_lengths(n_transient: int, n_keep: int) -> None:
    if n_transient < 0 or n_keep < 0:
        raise ValueError("n_transient and n_keep must be nonnegative")


# Steps between two checks of a batch: long enough that the two checks
# cost little per step, short enough that a failing block's replay is cheap.
_BLOCK = 64


class _RowWatch:
    """Failure bookkeeping of the rows of one orbit batch, kept across blocks.

    A single state is watched as one row.  ``failures`` maps each failed row
    to ``(step, message)``; ``parked`` marks the failed rows, which are held
    at NaN and checked no more; ``warned`` marks the rows whose domain exit
    has been logged.
    """

    def __init__(self, x: np.ndarray, domain: DomainSpec, strict: bool):
        self.domain, self.strict, self.single = domain, strict, x.ndim == 1
        # a lone state's evaluation may raise; anything a batch raises propagates
        self.errors = (ValueError, ArithmeticError) if self.single else ()
        n = 1 if self.single else x.shape[0]
        self.failures = {}
        self.parked = np.zeros(n, dtype=bool)
        self.warned = np.zeros(n, dtype=bool)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """A state, a batch or a block of either as a view with a row axis."""
        return x[..., None, :] if self.single else x

    def block_ok(self, block: np.ndarray) -> bool:
        """Whether a block of ``b`` steps of the orbit passes every check.

        Parked rows are left out, and so, from the domain check, are rows
        whose exit was already logged, so that a failed row does not send
        every later block to the replay.
        """
        if self.parked.any() or self.warned.any():
            rows = self._rows(block)
            checked = ~self.parked
            inside = checked & ~self.warned
            return (math.isfinite(rows[:, checked].sum())
                    and (not inside.any()
                         or self.domain.contains_unchecked(rows[:, inside])))
        return math.isfinite(block.sum()) and self.domain.contains_unchecked(block)

    def checked_step(self, step, x: np.ndarray, i: int) -> np.ndarray:
        """Step ``i`` from ``x``, checked: failing rows are recorded and parked.

        A lone state whose evaluation raises is row 0, recorded and parked.
        """
        parked = self.parked
        try:
            y = np.asarray(step(x), dtype=float)
        except self.errors as exc:
            self.failures[0] = (i, f"evaluation failed at step {i}: "
                                   f"{type(exc).__name__}: {exc}")
            parked[0] = True
            return x
        if math.isfinite(y.sum()) and self.domain.contains_unchecked(y):
            return y
        rows = self._rows(y)
        bad = ~parked & ~np.all(np.isfinite(rows), axis=1)
        outside = ~parked & ~bad & ~self.domain.contains_rows(rows)
        for r in np.flatnonzero(bad).tolist():
            self.failures[r] = (i, f"non-finite state at step {i}")
        if self.strict:
            for r in np.flatnonzero(outside).tolist():
                self.failures[r] = (i, f"state left the domain at step {i}")
            bad |= outside
        else:
            for _ in np.flatnonzero(outside & ~self.warned).tolist():
                log.warning("orbit left the domain at step %d (advisory)", i)
            self.warned |= outside
        parked |= bad
        if parked.any() and not parked.all():
            y = y.copy()
            self._rows(y)[parked] = np.nan
        return y


def _iterate_rows(step, x: np.ndarray, domain: DomainSpec, n_transient: int,
                  n_keep: int, strict: bool = False):
    """Advance ``x`` by ``n_transient + n_keep`` steps of ``step``.

    ``x`` is one state ``(d,)``, which is row 0, or an ``(n, d)`` array of
    rows, and ``step`` maps it to an array of its shape.  Returns ``(kept, failures)``:
    ``kept[k]`` is ``x`` after step ``n_transient + k``, and ``failures``
    maps each failed row to ``(step, message)``.  A row fails at the first
    step whose state is not finite or, under ``strict``, that left the
    domain; a single state also fails at a step that raises ``ValueError``
    or ``ArithmeticError``, while anything a batch step raises propagates.
    A failed row is parked at NaN, which the shipped maps carry through
    without a warning, and is checked no more; its kept states are
    meaningless.  Leaving the domain is otherwise advisory and logged once
    per row.

    The steps run in blocks of ``_BLOCK``, each written to a buffer and
    checked as a whole by one finiteness and one domain check, with
    floating-point warnings off.  When that check fails, or a single
    state's step raises, the block is replayed from its saved start state one checked step at a
    time, which finds each failing row, its step and its message, logs
    each domain exit and raises each floating-point warning as a
    step-by-step loop would.  Steps are pure, so the replay recomputes
    exactly the states that the block computed.

    A single state stops at its first exact recurrence: right after the first
    step whose state equals, bit for bit (``-0.0`` is not ``0.0``), a state
    of its current or previous block, ``p`` steps earlier.  From there the
    orbit repeats those ``p`` states forever.  The block so far gets the same
    check; when it passes, the rest of ``kept`` is filled by cycling the
    ``p`` states, without calling ``step`` again.  Those states have passed
    every check, so the result, the failures and the log lines are those of
    the full run; a partial block that fails its check goes to the replay
    instead, and the recurrence is dropped.  Every period up to ``_BLOCK``
    is caught at its first recurrence.  The states of the two blocks sit in
    a ring buffer, state ``u`` at ``u % (2 * _BLOCK)``, and their bytes in
    two dicts that rotate at each block end, so memory stays bounded
    whatever the orbit's length.  A batch runs every step.
    """
    total = n_transient + n_keep
    kept = np.empty((n_keep,) + x.shape)
    watch = _RowWatch(x, domain, strict)
    # a lone state's two-block ring and the steps of its states' bytes, by block
    ring = np.empty((min(2 * _BLOCK if watch.single else _BLOCK, total),) + x.shape)
    seen, older = {}, {}
    for start in range(0, total, _BLOCK):
        at = start % ring.shape[0]
        block = ring[at:at + min(_BLOCK, total - start)]
        hit = None
        try:
            with np.errstate(all="ignore"):
                y = x
                for k in range(block.shape[0]):
                    y = block[k] = np.asarray(step(y), dtype=float)
                    if watch.single:
                        key = y.tobytes()
                        u = seen.get(key, older.get(key))
                        if u is not None:
                            hit = start + k, start + k - u
                            break
                        seen[key] = start + k
            ok = watch.block_ok(block[:k + 1])
        except watch.errors:
            ok = False
        if not ok:
            hit = None
            y = x
            for k in range(block.shape[0]):
                y = watch.checked_step(step, y, start + k)
                if watch.parked.all():
                    return kept, watch.failures
                block[k] = y
        x = y
        stop = start + block.shape[0] if hit is None else hit[0] + 1
        if stop > n_transient:
            first = max(start, n_transient)
            kept[first - n_transient:stop - n_transient] = block[first - start:stop - start]
        if hit is not None:
            # the p states up to the recurrence repeat forever
            t, p = hit
            rest = np.arange(max(stop, n_transient), total)
            kept[rest - n_transient] = ring[(t - p + 1 + (rest - stop) % p) % ring.shape[0]]
            return kept, watch.failures
        seen, older = {}, seen
    return kept, watch.failures


def iterate_orbit(model: MapModel, cfg: Optional[ControlConfig], x0,
                  n_transient: int, n_keep: int, strict: bool = False) -> np.ndarray:
    """Iterate the (controlled) map and return the last ``n_keep`` states.

    Runs ``n_transient + n_keep`` steps from ``x0`` through the single-state
    ``evaluate``; ``evaluate_batch`` is never called.  An orbit whose state
    recurs bit for bit stops calling ``evaluate`` right after the step of
    its first recurrence and repeats its cycle, which gives the same states,
    because ``evaluate`` is pure.  Every period up to 64 steps is caught at
    that step, and memory stays bounded whatever the orbit's length.  A
    non-finite state, or an evaluation that raises ``ValueError`` or
    ``ArithmeticError``, raises :class:`OrbitError` with the offending step
    index.  Domain violations are advisory (logged once per orbit) unless
    ``strict``.
    """
    _check_lengths(n_transient, n_keep)
    g = _step_map(model, cfg)
    kept, failures = _iterate_rows(g.evaluate, as_state(x0, model.dimension),
                                   model.domain, n_transient, n_keep, strict)
    if failures:
        step, message = failures[0]
        raise OrbitError(message, step=step)
    return kept


def detect_periods(points, tol: float = 1e-5, max_period: int = 32) -> list:
    """:func:`detect_period` of every record of a ``(records, n, d)`` array, in one pass.

    Every record's components are stacked as the columns of one
    ``(n, records * d)`` array.  Each candidate ``p`` tests all columns still
    open with the same expression, ``|v[p:] - v[:-p]| < tol*(1 + |v|)[:-p]``,
    and closes those that pass, so each column gets the period the
    per-component test gives, bit for bit.  Returns one tuple of
    ``d`` periods (None for aperiodic) per record, in record order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        raise ValueError(f"points must be a (records, n, d) array, got shape {points.shape}")
    records, n, d = points.shape
    check_tol(tol)
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    if n < 2 * max_period:
        raise ValueError(f"orbit too short: {n} points for max_period {max_period}")
    v = points.transpose(1, 0, 2).reshape(n, records * d)
    scale = tol * (1.0 + np.abs(v))
    found = np.zeros(records * d, dtype=int)  # 0: no period found
    columns = np.arange(records * d)
    for p in range(1, max_period + 1):
        if not columns.size:
            break
        passed = np.all(np.abs(v[p:] - v[:-p]) < scale[:-p], axis=0)
        if passed.any():
            found[columns[passed]] = p
            columns, v, scale = columns[~passed], v[:, ~passed], scale[:, ~passed]
    return [tuple(p or None for p in row) for row in found.reshape(records, d).tolist()]


def detect_period(orbit: np.ndarray, tol: float = 1e-5,
                  max_period: int = 32) -> tuple:
    """Smallest period of each component over the whole window, or None.

    Component j gets the smallest p <= max_period with
    |v[i+p] - v[i]| < tol*(1 + |v[i]|) for every index i in the window, and
    None (aperiodic) when no p fits.  The orbit must be at least twice
    ``max_period`` long so that every candidate sees a full extra cycle.
    This is the one-record case of :func:`detect_periods`, which a scan
    calls once for all of its records.
    """
    orbit = np.asarray(orbit, dtype=float)
    if orbit.ndim == 1:
        orbit = orbit[:, None]
    return detect_periods(orbit[None], tol=tol, max_period=max_period)[0]


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


def initial_box(lo, hi, dim: int, what: str = "initial box") -> tuple:
    """The box ``[lo, hi]`` of initial states, as two ``(dim,)`` arrays.

    ``lo`` and ``hi`` are scalars or ``(dim,)`` vectors.  Raises
    ``ValueError``, which names the box ``what``, unless ``lo <= hi``
    componentwise with a finite width, which drawing a uniform state from
    the box needs, and so does sampling it (``analysis.box_samples``).
    """
    lo = np.broadcast_to(np.asarray(lo, float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, float), (dim,)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    if not np.all((width >= 0.0) & (width < np.inf)):
        raise ValueError(f"{what} needs lo <= hi with a finite width, got "
                         f"lo = {lo.tolist()}, hi = {hi.tolist()}")
    return lo, hi


def draw_x0(seed: int, index: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The uniform start state in ``[lo, hi]`` of the RNG stream ``(seed, index)``."""
    return np.random.default_rng([seed, index]).uniform(lo, hi)


def bifurcation_scan(model: MapModel, scheme: str, target, c_grid,
                     *, seed: int = 0, init_lo=0.0, init_hi=50.0,
                     n_transient: int = 3000, n_keep: int = 50,
                     tol: float = 1e-5, max_period: int = 32,
                     continue_orbits: bool = False) -> list:
    """One :class:`ScanRecord` per grid intensity, in grid order.

    Fresh initial conditions are drawn per grid point from the box
    [init_lo, init_hi] by :func:`draw_x0` with ``(seed, index)``;
    ``continue_orbits`` instead chains each orbit from the previous final
    state.  A fresh scan of a model with ``evaluate_batch`` advances all
    grid points together as the rows of one array, which run every step.
    Every other scan runs one grid point at a time through the single-state
    ``evaluate`` of its :func:`controlled_map`, so each orbit stops, as
    :func:`iterate_orbit` does, right after the step of its first bitwise
    recurrence (every period up to 64 steps is caught there, in bounded
    memory), and a model without ``evaluate_batch`` never sees a batch.
    Both ways give the same records bit for bit.  Once every orbit has
    run, one :func:`detect_periods` call classifies all the records that did
    not fail, which gives each the periods of :func:`detect_period` on its
    own window.  ``max_period`` is capped at half the kept window.  Invalid
    arguments raise ``ValueError`` before any orbit runs: an ``n_keep``
    below 2, a ``tol`` that is not positive (NaN included), a box that
    :func:`initial_box` rejects, and what building the step,
    ``controlled_rows``, rejects: a bad scheme (``DIAG-VMTOC`` too), target
    or grid.  Orbit failures are recorded.
    """
    c_grid = [float(c) for c in c_grid]
    _check_lengths(n_transient, n_keep)
    if n_keep < 2:
        raise ValueError(f"n_keep must be at least 2 to detect a period, got {n_keep}")
    check_tol(tol)
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    step = controlled_rows(model, scheme, target, c_grid)
    dim = model.dimension
    lo, hi = initial_box(init_lo, init_hi, dim)
    eff_period = min(max_period, n_keep // 2)
    if not c_grid:
        return []
    if model.evaluate_batch is not None and not continue_orbits:
        x0 = np.array([draw_x0(seed, i, lo, hi) for i in range(len(c_grid))])
        kept, failures = _iterate_rows(step, x0, model.domain, n_transient, n_keep)
        points = np.ascontiguousarray(kept.transpose(1, 0, 2))
    else:
        points = np.empty((len(c_grid), n_keep, dim))
        failures = {}
        for r, c in enumerate(c_grid):
            if r == 0 or not continue_orbits:
                x0 = draw_x0(seed, r, lo, hi)
            g = controlled_map(model, ControlConfig(scheme=scheme, intensity=c, target=target))
            kept, failed = _iterate_rows(g.evaluate, x0, model.domain, n_transient, n_keep)
            if failed:
                failures[r] = failed[0]
            else:
                points[r] = kept
                x0 = kept[-1]
    ok = [r for r in range(len(c_grid)) if r not in failures]
    classified = iter(detect_periods(points[ok], tol=tol, max_period=eff_period))
    # Records with equal periods share one tuple: a scan's periods take few
    # distinct values, and callers often keep the periods of many records.
    shared = {}
    records = []
    for r, c in enumerate(c_grid):
        if r in failures:
            records.append(ScanRecord(c=c, points=np.empty((0, dim)), periods=(None,) * dim,
                                      seed=seed, error=failures[r][1]))
        else:
            periods = next(classified)
            records.append(ScanRecord(c=c, points=points[r],
                                      periods=shared.setdefault(periods, periods), seed=seed))
    return records


def detect_bubbles(records: Sequence[ScanRecord]) -> list:
    """Intervals of lost stability bracketed by stability on both sides.

    A bubble of component j is the run of records strictly between two
    consecutive records whose component-j period is 1: the signature of
    non-monotone stabilization.  Returns ``(component, c_lo, c_hi)`` tuples
    at grid resolution, component by component in order of c.  Requires
    records sorted by c.
    """
    cs = [r.c for r in records]
    if any(b < a for a, b in zip(cs, cs[1:])):
        raise ValueError("scan records must be sorted by intensity")
    dim = len(records[0].periods) if records else 0
    stable = [[i for i, r in enumerate(records) if r.periods[j] == 1] for j in range(dim)]
    return [(j, records[a + 1].c, records[b - 1].c)
            for j, s in enumerate(stable) for a, b in zip(s, s[1:]) if b > a + 1]


def lyapunov_max(model: MapModel, cfg: Optional[ControlConfig], x0,
                 n: int = 5000) -> float:
    """Largest Lyapunov exponent along one orbit of the (controlled) map.

    The orbit x_0 ... x_n comes from :func:`iterate_orbit`, so it fails as
    every orbit does: a non-finite state, or an evaluation that raises
    ``ValueError`` or ``ArithmeticError``, raises :class:`OrbitError` with
    its step, and leaving the domain is logged once.  A tangent vector is
    then propagated through the Jacobians at x_0 ... x_{n-1}, renormalized
    every step, and the log growth is averaged over the last 80% of the
    ``n`` steps (the first fifth is treated as transient).  Positive means
    sensitive dependence; a stabilized equilibrium gives a negative value.
    """
    if n < 1000:
        raise ValueError("n must be at least 1000 for a stable average")
    x0 = as_state(x0, model.dimension)
    states = np.vstack([x0, iterate_orbit(model, cfg, x0, 0, n)[:-1]])
    g = _step_map(model, cfg)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(model.dimension)
    v /= np.linalg.norm(v)
    logs = np.empty(n)
    for i, x in enumerate(states):
        v = np.asarray(g.jacobian_at(x), float) @ v
        growth = float(np.linalg.norm(v))
        if growth == 0.0:
            # Tangent collapsed (exactly singular Jacobian); restart it.
            v = rng.standard_normal(model.dimension)
            v /= np.linalg.norm(v)
            logs[i] = -np.inf
        else:
            logs[i] = math.log(growth)
            v /= growth
    tail = logs[int(0.2 * n):]
    return float(np.mean(tail))
