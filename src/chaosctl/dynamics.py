"""Orbit machinery: iteration, period classification, intensity scans, bubbles.

A bifurcation scan runs one controlled orbit per grid intensity, discards a
transient, keeps a short window and classifies each component's period on
that window, every record's in one pass.  Two loops run orbits, and both
check finiteness and domain membership once per block of steps.  The lone
loop, behind every :func:`iterate_orbit` and every lone grid point of a
scan, advances one state on tuples of Python floats, in blocks compiled from
the step map's ``evaluate_floats`` (:func:`~chaosctl.core.step_block`),
which every model has, its own or one derived from ``evaluate``.  A failure
is read off its block, with the step, message and log line of a
step-by-step check; only the failing step runs again, through ``evaluate``.
Each lone block of ``_LONE_BLOCK`` steps keeps one table of its states'
bytes; the state stops at the first step whose state equals, bit for bit,
an earlier one of its block, its first recurrence or at most a period after
it, and repeats that cycle, since the map is pure.  The batch loop
only batches: it advances the grid points of a fresh scan of a model with
``evaluate_batch`` together, each block once, as the component columns
``(d, n)`` of one array, and returns the rows it hands off.  A model whose
batch step carries its formula steps the formula's columns, each grid
point's pull written in; any other model's ``evaluate_batch`` gets the
states as rows ``(n, d)``.  A row whose block holds a non-finite state or
leaves the domain is handed off from the block's start; a row whose last
state in a block equals, bit for bit, one of the ``_BLOCK`` states before
it retires and repeats that cycle.  Once the batch holds at most
``_HANDOFF_FLOATS`` rows, for a model with its own float step, or
``_HANDOFF``, for one whose float step is derived from ``evaluate``, each
row left is handed off from its state and step.  The scan then runs every
hand-off, and every grid point of a chained scan or of a model without
``evaluate_batch``, through one lone-orbit call.  Scans are deterministic:
the initial condition for grid index ``i`` comes from an RNG stream derived
from ``(seed, i)``, so records are bit-identical across runs.
"""

from __future__ import annotations

import logging
import math
import operator
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controls import ControlConfig, controlled_map, controlled_rows
from .core import (DomainSpec, MapModel, RowError, as_state, check_tol, state_text,
                   step_block)

log = logging.getLogger(__name__)


class OrbitError(RuntimeError):
    """An orbit failed while iterating; ``step`` is the 0-based index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


def _check_count(name: str, n, least: Optional[int] = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``n`` is an integer, a
    numpy integer included, of at least ``least``, when given."""
    try:
        operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n}") from None
    if least is not None and n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")


def _check_lengths(n_transient: int, n_keep: int) -> None:
    _check_count("n_transient", n_transient)
    _check_count("n_keep", n_keep)
    if n_transient < 0 or n_keep < 0:
        raise ValueError("n_transient and n_keep must be nonnegative")


# Steps between two checks of the batch: long enough that the two checks
# cost little per step, short enough that a failure wastes little of a
# block; a row retires, on a recurrence or a hand-off, only at a block's end.
_BLOCK = 64

# Steps of one lone block: one call, one table of its states' bytes and one
# check.  A lone orbit stops inside its block at a recurrence or a failure;
# only a recurrence whose earlier state lies in the block before runs on, by
# at most its period.  Memory stays bounded by one block's keys.  Against
# 64-step blocks with two rotating tables, 3050-step orbits that never recur
# took 0.61 us a step, from 0.74, for the LPA under VMTOC c = 0.02 toward K,
# and 0.36, from 0.49, for the uncontrolled delay-2 Ricker lift at r = 3.2
# (best of 15 in-process timings, one pinned core of a shared 2-vCPU VM,
# Python 3.11, numpy 2.4).
_LONE_BLOCK = 1024

# The most rows a fresh batch holds before it hands them all to the lone
# loop: _HANDOFF_FLOATS for a model with its own float step, _HANDOFF for
# one whose float step is derived from evaluate.  Numpy call overhead
# dominates a batch step, which costs about the same from 10 rows to 30:
# 8.9 us for a controlled LPA column step, against 0.66 us a step for a lone
# controlled LPA orbit in its compiled block and 4.0 us for one through the
# float step derived from evaluate (delay-3 Ricker lift: 4.2 and 0.43 us;
# best of 15 in-process timings, one pinned core of a shared 2-vCPU VM,
# Python 3.11, numpy 2.4).  Timed whole and interleaved (thread time, median
# of 8 rounds), the 29-point LPA VMTOC grid k/300, k = 10, 20, ..., 290,
# toward K, (30,30,200), (30,200,30) and (200,30,30) at four seeds took
# 10.55, 10.19, 9.91 and 10.02 ms per scan at 6, 8, 10 and 12 rows, and the
# delay-3 lift's grid on [0, 3]^3 toward (3,1,1) 25.1, 25.2, 25.5 and
# 32.7 ms: at 12 rows some of its chaotic rows run most of the orbit alone.
# The logistic map 4.2x(1-x), whose float step is derived, took 74 ms at 6
# rows and 87 ms at 12.
_HANDOFF = 6
_HANDOFF_FLOATS = 10


def _iterate_rows(g: MapModel, x: np.ndarray, n_transient: int, n_keep: int,
                  strict: bool = False, at: int = 0, kept=None):
    """Run one state ``x`` ``(d,)`` of the map ``g`` to the end of its
    ``n_transient + n_keep``-step orbit.

    ``x`` is the orbit's state after ``at`` steps (0 at its start, the end
    of a batch's block for a hand-off).  Returns ``kept``, where ``kept[k]``
    is the state after step ``n_transient + k``; a given ``kept``, an
    ``(n_keep, d)`` array, gets the states from step ``at`` on.  Raises
    :class:`OrbitError` at the first step, counted from the orbit's start,
    that raises ``ValueError`` or ``ArithmeticError``, whose state is not
    finite or, under ``strict``, that left the domain, which is otherwise
    logged once; a state of the wrong size raises ``ValueError``.

    Each block of ``_LONE_BLOCK`` steps from ``at`` is one call of
    ``core.step_block``'s block, with floating-point warnings off, which
    stops at a recurrence or a failure, and its states become one
    array, which one finiteness and one domain check test as a whole and
    which fills the kept window.  A failure is read off its block: the first
    non-finite state, or the step that raised, fails the orbit, and the
    first state before it outside the domain is the exit.  Only the failing
    step runs again, once, through ``g.evaluate`` under the caller's
    ``np.errstate``, which gives its exception and warnings.

    The orbit stops right after the first step whose state equals, bit for
    bit (``-0.0`` is not ``0.0``), a state ``p`` steps earlier in its block.
    A recurrence whose earlier state lies in the block before is caught
    ``p`` steps into its own block at the latest, so every period below
    ``_LONE_BLOCK`` is caught.  The rest of ``kept`` cycles those ``p``
    states, the block's last, which gives the states, failure and log lines
    of the full run, because the step is pure.
    """
    total, d, domain = n_transient + n_keep, x.shape[0], g.domain
    if kept is None:
        kept = np.empty((n_keep, d))
    run, x = step_block(g.evaluate_floats, d), tuple(x.tolist())
    # whether an exit was logged, and the failing step, its state and error
    warned, failed = False, None
    with np.errstate(all="ignore"):
        for start in range(at, total, _LONE_BLOCK):
            keys, y, p, error = run(x, start, min(start + _LONE_BLOCK, total))
            if isinstance(error, (struct.error, TypeError)):  # a state of the wrong size
                if np.shape(y) != (d,):
                    raise ValueError(f"step {start + len(keys)} gave a state of shape "
                                     f"{np.shape(y)}, but the model has dimension {d}")
                raise error
            block = np.frombuffer(b"".join(keys)).reshape(-1, d)
            if not (error is None and math.isfinite(block.sum()) and (
                    warned or domain.contains_unchecked(block))):
                # the block's failing step, if any: its first non-finite state
                # or the step that raised, which follows the block's last state
                finite = np.isfinite(block).all(axis=1).tolist() + [error is None]
                j = finite.index(False) if False in finite else None
                inside = domain.contains_rows(block[:j])
                if not (warned or inside.all()):
                    i = start + int(inside.argmin())
                    if strict:
                        raise OrbitError(f"state left the domain at step {i}", i)
                    log.warning("orbit left the domain at step %d (advisory)", i)
                    warned = True
                if j is not None:
                    failed = start + j, block[j - 1] if j else np.array(x, float), error
                    break
            x = y
            stop = start + block.shape[0]
            if stop > n_transient:
                first = max(start, n_transient)
                kept[first - n_transient:stop - n_transient] = block[first - start:]
            if p:
                # the p states up to the recurrence, the block's last, repeat forever
                first = max(stop, n_transient)
                _repeat(kept[first - n_transient:], block[-p:], (first - stop) % p)
                return kept
    if failed is None:
        return kept
    # the failing step runs again, alone, under the caller's np.errstate
    i, state, error = failed
    try:
        image = g.evaluate(state)
        if not np.isfinite(np.asarray(image, float)).all():
            error = None
    except (ValueError, ArithmeticError) as exc:
        error = exc
    if error is None:
        raise OrbitError(f"non-finite state at step {i}", i)
    raise OrbitError(f"evaluation failed at step {i}: {type(error).__name__}: {error}", i)


def _repeat(out: np.ndarray, cycle: np.ndarray, phase: int) -> None:
    """Fill the rows of ``out`` with the ``p`` rows of ``cycle`` repeated
    from row ``phase`` on: ``out[k] = cycle[(phase + k) % p]``, by slices."""
    p, n = cycle.shape[0], out.shape[0]
    if p == 1:
        out[:] = cycle
        return
    # the first period, then copies of what is filled, which doubles it
    head = cycle[phase:phase + n]
    out[:head.shape[0]] = head
    out[head.shape[0]:p] = cycle[:min(p, n) - head.shape[0]]
    filled = p
    while filled < n:
        size = min(filled, n - filled)
        out[filled:filled + size] = out[:size]
        filled += size


def _iterate_batch(step_for, x: np.ndarray, domain: DomainSpec, n_transient: int,
                   kept: np.ndarray, handoff: int) -> list:
    """Advance the rows of ``x`` ``(n, d)`` as one batch, as the module
    docstring says, and return the rows it hands off once it holds at most
    ``handoff`` rows.

    ``step_for(rows)`` builds the step of the original rows ``rows``, an
    index array: ``step(x, out)`` writes the image of the states ``x``, as
    columns ``(d, n)``, into ``out``.  ``kept[k, r]`` of the ``(n_keep, n,
    d)`` array ``kept`` gets row ``r`` after step ``n_transient + k``, for
    every step the row takes in the batch or in the cycle it retires into.
    The hand-offs are ``(row, state, step)``, the row's state after ``step``
    steps as a copy: each block's failing rows, block by block in row order,
    then the rows left at the end.  Each block runs once, with
    floating-point warnings off, and is checked as a whole.  A row recurs
    when its last state equals, bit for bit, one of the ``_BLOCK`` states
    before it (the block's and its start); the smallest such lag is its
    period.  The step is rebuilt over the rows that remain, whose states in
    the block stand, since each row's steps depend on that row alone.
    Anything a batch step raises propagates.
    """
    total = n_transient + kept.shape[0]
    handoffs = []
    rows, done, step, x = np.arange(x.shape[0]), 0, None, x.T
    while done < total and rows.size > handoff:
        if step is None:
            step = step_for(rows)
        size = min(_BLOCK, total - done)
        # the state the block starts from, then the block's states, each as
        # its columns (d, n), and the same states as rows (n, d)
        columns = np.empty((size + 1,) + x.shape)
        columns[0] = x
        block = columns[1:].transpose(0, 2, 1)
        with np.errstate(all="ignore"):
            for k in range(size):
                step(columns[k], columns[k + 1])
            ok = math.isfinite(columns[1:].sum()) and domain.contains_unchecked(block)
        stop = done + size
        if stop > n_transient:
            first = max(done, n_transient)
            kept[first - n_transient:stop - n_transient, rows] = block[first - done:]
        stay = np.ones(rows.size, dtype=bool)
        if not ok:
            # a finite block whose sum overflows has no bad row and passes
            stay = (domain.contains_rows(block) & np.isfinite(block).all(axis=2)).all(axis=0)
            handoffs += [(int(rows[i]), x[:, i].copy(), done) for i in np.flatnonzero(~stay)]
        if stop < total:
            # bit patterns, so -0.0 is not 0.0; first components alone rule
            # out most rows that do not recur
            bits = columns.view(np.uint64)
            maybe = bits[:-1, 0] == bits[-1, 0]
            for i in (np.flatnonzero(maybe.any(axis=0) & stay) if maybe.any() else ()):
                same = (bits[:-1, :, i] == bits[-1, :, i]).all(axis=1)
                if same.any():
                    # the smallest lag of a match: its p states repeat forever
                    p, first = int(same[::-1].argmax()) + 1, max(stop, n_transient)
                    _repeat(kept[first - n_transient:, rows[i]], block[-p:, i], (first - stop) % p)
                    stay[i] = False
        x = columns[-1]
        if not stay.all():
            rows, x, step = rows[stay], x[:, stay], None
        done = stop
    if done < total:
        handoffs += [(r, x[:, i].copy(), done) for i, r in enumerate(rows.tolist())]
    return handoffs


def iterate_orbit(model: MapModel, cfg: Optional[ControlConfig], x0,
                  n_transient: int, n_keep: int, strict: bool = False) -> np.ndarray:
    """Iterate the (controlled) map and return the last ``n_keep`` states.

    Runs ``n_transient + n_keep`` steps from ``x0`` on tuples of floats, in
    1024-step blocks compiled from the step map's ``evaluate_floats``: the
    model's own, or the one derived from its ``evaluate``.
    ``evaluate_batch`` is never called.  An orbit whose state recurs bit for
    bit within a block stops stepping right there and repeats its cycle,
    which gives the same states, because the step is pure.  Every period
    below 1024 steps is caught, at its first recurrence or, when that
    straddles two blocks, at most a period later; memory stays bounded by one
    block's states whatever the orbit's length.  A non-finite state, or an
    evaluation that raises ``ValueError`` or ``ArithmeticError``, raises
    :class:`OrbitError` with the offending step index, read off its block;
    that step alone runs again through ``evaluate`` under the caller's
    ``np.errstate``.  Domain violations are advisory (logged once per orbit)
    unless ``strict``.  A step whose state does not have the model's
    dimension raises ``ValueError``, and so does a step count that is not a
    nonnegative integer, naming it.  This is the public single-orbit entry;
    a scan runs its lone grid points through the same loop directly.
    """
    _check_lengths(n_transient, n_keep)
    g = controlled_map(model, cfg) if cfg is not None else model
    return _iterate_rows(g, as_state(x0, model.dimension), n_transient, n_keep, strict)


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
    _check_count("max_period", max_period, 1)
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
    ``ValueError``, which names the box ``what``, for a bound of another
    shape, and unless ``lo <= hi`` componentwise with a finite width, which
    drawing a uniform state from the box needs, and so does sampling it
    (``analysis.box_samples``).
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    for name, bound in (("lo", lo), ("hi", hi)):
        if bound.shape not in ((), (1,), (dim,)):
            raise ValueError(f"{what}: {name} has shape {bound.shape}, "
                             f"but the model has dimension {dim}")
    lo, hi = np.broadcast_to(lo, (dim,)).copy(), np.broadcast_to(hi, (dim,)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    if not np.all((width >= 0.0) & (width < np.inf)):
        raise ValueError(f"{what} needs lo <= hi with a finite width, got "
                         f"lo = {lo.tolist()}, hi = {hi.tolist()}")
    return lo, hi


def draw_x0(seed: int, index: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The uniform start state in ``[lo, hi]`` of the RNG stream ``(seed, index)``.

    ``lo + (hi - lo) * u`` of the stream's first ``d`` doubles ``u``, bitwise
    the generator's ``uniform(lo, hi)``, without its broadcasting of array
    bounds."""
    return lo + (hi - lo) * np.random.default_rng([seed, index]).random(lo.shape[0])


def bifurcation_scan(model: MapModel, scheme: str, target, c_grid,
                     *, seed: int = 0, init_lo=0.0, init_hi=50.0,
                     n_transient: int = 3000, n_keep: int = 50,
                     tol: float = 1e-5, max_period: int = 32,
                     continue_orbits: bool = False) -> list:
    """One :class:`ScanRecord` per grid intensity, in grid order.

    Fresh initial conditions are drawn per grid point from the box [init_lo,
    init_hi] by :func:`draw_x0` with ``(seed, index)``; ``continue_orbits``
    instead chains each orbit from the last kept state of the one before,
    or, after a failure, from the state the failed one started from.  A
    fresh scan of a model with ``evaluate_batch`` runs its grid points as
    the rows of one batch, :func:`_iterate_batch`, down to the hand-off size
    that its lone step sets.  Then one call runs each row it hands off, and
    each grid point of any other scan, alone from its state and step, into
    the scan's kept array; it fails (the record's error is the
    :class:`OrbitError` message) or logs its domain exit as a lone orbit
    from its start would, so all ways give the same records bit for bit.
    Last, one :func:`detect_periods` call classifies all the records
    that did not fail, each as :func:`detect_period` would on its own
    window.  ``max_period`` is capped at half the kept window.
    Invalid arguments raise ``ValueError``, naming the argument, before any
    orbit runs: a step count or ``seed`` that is not an integer, a negative
    ``seed`` or ``n_transient``, an ``n_keep`` below 2, a ``tol`` that is
    not positive and finite (NaN included), a box that :func:`initial_box`
    rejects, and what the one check of the control, ``controlled_rows``,
    rejects: a bad scheme (``DIAG-VMTOC`` too), target or grid.  Orbit
    failures are recorded; what a batch step raises, such as the
    ``ValueError`` of a base image of the wrong shape, propagates.
    """
    c_grid = [float(c) for c in c_grid]
    _check_lengths(n_transient, n_keep)
    if n_keep < 2:
        raise ValueError(f"n_keep must be at least 2 to detect a period, got {n_keep}")
    check_tol(tol)
    _check_count("max_period", max_period, 1)
    _check_count("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    step_for, map_at = controlled_rows(model, scheme, target, c_grid)
    dim = model.dimension
    lo, hi = initial_box(init_lo, init_hi, dim)
    eff_period = min(max_period, n_keep // 2)
    if not c_grid:
        return []

    kept, failures = np.empty((n_keep, len(c_grid), dim)), {}

    def alone(r, x, at=0):
        try:
            _iterate_rows(map_at(r), x, n_transient, n_keep, at=at, kept=kept[:, r])
        except OrbitError as exc:
            failures[r] = str(exc)

    if continue_orbits:
        x = draw_x0(seed, 0, lo, hi)
        for r in range(len(c_grid)):
            alone(r, x)
            if r not in failures:
                x = kept[-1, r]
    else:
        x0 = np.array([draw_x0(seed, r, lo, hi) for r in range(len(c_grid))])
        if model.evaluate_batch is not None:
            derived = getattr(model.evaluate_floats, "derived_from", None) is not None
            handoffs = _iterate_batch(step_for, x0, model.domain, n_transient, kept,
                                      _HANDOFF if derived else _HANDOFF_FLOATS)
        else:
            handoffs = [(r, x, 0) for r, x in enumerate(x0)]
        for handoff in handoffs:
            alone(*handoff)
    points = np.ascontiguousarray(kept.transpose(1, 0, 2))
    ok = [r for r in range(len(c_grid)) if r not in failures]
    classified = iter(detect_periods(points[ok], tol=tol, max_period=eff_period))
    # Records with equal periods share one tuple: a scan's periods take few
    # distinct values, and callers often keep the periods of many records.
    shared = {}
    records = []
    for r, c in enumerate(c_grid):
        if r in failures:
            records.append(ScanRecord(c=c, points=np.empty((0, dim)), periods=(None,) * dim,
                                      seed=seed, error=failures[r]))
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


# states whose Jacobians lyapunov_max takes in one stack
_TANGENT_CHUNK = 4096


def lyapunov_max(model: MapModel, cfg: Optional[ControlConfig], x0, n: int = 5000) -> float:
    """Largest Lyapunov exponent along one orbit of the (controlled) map g.

    g is built once.  Its orbit x_0 ... x_n comes from :func:`iterate_orbit`
    and fails as every orbit does: a non-finite state, or an evaluation
    raising ``ValueError`` or ``ArithmeticError``, raises :class:`OrbitError`
    with its step; leaving the domain is logged once.  A tangent vector is
    propagated through g's Jacobians at x_0 ... x_{n-1}, renormalized every
    step, and the log growth is averaged over the last 80% of the ``n``
    steps.  The Jacobians come in stacks of at most 4096 states, each from
    one :meth:`~chaosctl.core.MapModel.jacobian_rows` call (g's
    ``jacobian_batch``, or its ``jacobian`` once per state).  A Jacobian
    that is not finite, or that raises ``ValueError`` or
    ``ArithmeticError`` (a Jacobian of the wrong shape included), raises
    ``ValueError`` naming its step and state, the first step that fails
    whichever way it fails.  Positive means sensitive dependence; a
    stabilized equilibrium gives a negative value.  An ``n`` that is not an
    integer of at least 1000 raises ``ValueError``.
    """
    _check_count("n", n)
    if n < 1000:
        raise ValueError("n must be at least 1000 for a stable average")
    d = model.dimension
    x0 = as_state(x0, d)
    g = controlled_map(model, cfg) if cfg is not None else model
    states = np.vstack([x0, iterate_orbit(g, None, x0, 0, n)[:-1]])
    rng = np.random.default_rng(0)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    logs = np.empty(n)
    for start in range(0, n, _TANGENT_CHUNK):
        # zeros: the rows that a failing state leaves unwritten are finite
        stack, failure = np.zeros((min(_TANGENT_CHUNK, n - start), d, d)), None
        try:
            g.jacobian_rows(states[start:start + len(stack)], stack)
        except Exception as exc:
            failure = exc
        # a step before the failing one with a non-finite Jacobian fails first
        for i, jac in enumerate(stack, start):
            v = jac @ v
            growth = float(np.linalg.norm(v))
            # a non-finite entry makes v, and so the growth, non-finite
            if not math.isfinite(growth) and not np.isfinite(jac).all():
                raise ValueError(f"non-finite Jacobian at step {i}, x = {state_text(states[i])}")
            if growth == 0.0:
                # Tangent collapsed (exactly singular Jacobian); restart it.
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                logs[i] = -np.inf
            else:
                logs[i] = math.log(growth)
                v /= growth
        if isinstance(failure, RowError):
            i, cause = start + failure.row, failure.__cause__
            raise ValueError(f"Jacobian failed at step {i}, x = {state_text(states[i])}: "
                             f"{type(cause).__name__}: {cause}") from cause
        if failure is not None:
            raise failure
    tail = logs[int(0.2 * n):]
    return float(np.mean(tail))
