"""Equilibria, spectral radii and minimum-control-intensity estimates.

The module answers two questions about a map f and a state K:

* locally, how strong must the control be so that every equilibrium in a
  compact region becomes asymptotically stable?  That threshold is
  ``local_cstar`` applied to either the spectral radius of the Jacobian at
  the equilibrium, taken from its dense eigenvalues at every dimension, or
  to the sampled row/column-sum bound ``bound_A``.
* globally, how strong must it be so that every orbit converges?  That is
  ``global_cstar`` applied to a Lipschitz-style constant L with
  ||f(x) - K|| <= L*||x - K||, estimated by ``lipschitz_estimate``.

All the sampled constants (A, L, M) are estimates from below of the true
suprema: grids plus low-discrepancy points keep the gap small and a 5%
inflation is applied to the sampled ratio, but none of them is certified.
The samples of a box (``box_samples``) scale a Halton prefix of the unit
cube that depends only on ``(d, n_samples)``; it is computed once per such
pair and kept for the last 8 pairs used, 82 KB for the 2048-sample
reports of the 2- and 3-dimensional built-in maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .controls import ControlConfig
from .core import (MapModel, RowError, as_state, check_image, check_norm_kind, check_tol,
                   norm, norm_rows, state_text)
from .dynamics import _check_count, initial_box, iterate_orbit

_FIXED_POINT_RESIDUAL = 1e-8


class ConvergenceError(RuntimeError):
    """Fixed-point search ran out of iterations; carries the best residual seen."""

    def __init__(self, message, best_point=None, best_residual=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_residual = best_residual


def find_fixed_point(model: MapModel, x0, tol: float = 1e-10,
                     max_iter: int = 500) -> np.ndarray:
    """Solve f(x) = x by damped Newton iteration from ``x0``.

    Newton steps on f(x) - x use the model Jacobian (analytic when present,
    finite differences otherwise) and are halved up to 30 times whenever the
    residual would grow.  If damping stalls, 200 averaging steps
    x <- (x + f(x))/2 are interleaved, which converge whenever the map is a
    contraction in the averaged sense.  Iterates are projected onto the
    model domain.  Raises :class:`ConvergenceError` after ``max_iter``
    Newton steps without reaching ``tol`` in the max-norm, at once when a
    projected averaging iterate is not finite, since no later iterate can
    be finite again, and at once when the model's ``evaluate`` or Jacobian
    raises ``ValueError`` or ``ArithmeticError``, or ``evaluate`` gives an
    image without the model's dimension, naming the state; each
    error carries the best point and residual evaluated so far, the last
    step's included.
    """
    check_tol(tol)
    d = model.dimension
    x = np.asarray(model.domain.project(as_state(x0, d)), float)
    eye = np.eye(d)
    best = [math.inf, None]  # the smallest residual evaluated and its point

    def image(y):
        return check_image(model.evaluate(y), (d,), d)

    def at(func, y):
        """``func(y)`` as a float array; a failing model call ends the search."""
        try:
            return np.asarray(func(y), float)
        except (ValueError, ArithmeticError) as exc:
            raise ConvergenceError(f"no fixed point: evaluation failed at x = {state_text(y)}: "
                                   f"{type(exc).__name__}: {exc} (best residual {best[0]:.3e})",
                                   best_point=best[1], best_residual=best[0]) from exc

    def residual(y):
        """f(y) - y and its max-norm; records ``y`` if that is the best yet."""
        r = at(image, y) - y
        rnorm = float(np.max(np.abs(r)))
        if best[1] is None or rnorm < best[0]:
            best[:] = rnorm, y.copy()
        return r, rnorm

    r, rnorm = residual(x)
    for _ in range(max_iter):
        if rnorm < tol:
            break
        try:
            step = np.linalg.solve(at(model.jacobian_at, x) - eye, -r)
        except np.linalg.LinAlgError:
            step = None
        finite = step is not None and np.all(np.isfinite(step))
        for scale in [0.5 ** k for k in range(30)] if finite else []:
            cand = model.domain.project(x + scale * step)
            rc, rc_norm = residual(cand)
            if rc_norm < rnorm:  # a non-finite residual fails
                x, r, rnorm = cand, rc, rc_norm
                break
        else:
            # Newton stalled: fall back to Krasnoselskii-Mann averaging.
            for _ in range(200):
                x = model.domain.project(0.5 * (x + at(image, x)))
                if not np.all(np.isfinite(x)):
                    # no later iterate can be finite again: stop here
                    raise ConvergenceError(
                        f"no fixed point: averaging iterate x = {state_text(x)} "
                        f"is not finite (best residual {best[0]:.3e})",
                        best_point=best[1], best_residual=best[0])
                r, rnorm = residual(x)
                if rnorm < tol:
                    break
    if rnorm < tol:
        out = x.copy()
        out.flags.writeable = False
        return out
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations (best residual {best[0]:.3e})",
        best_point=best[1], best_residual=best[0])


def multistart_fixed_points(model: MapModel, seeds, tol: float = 1e-10,
                            dedup: float = 1e-6) -> list:
    """Fixed points reached from each seed, deduplicated at max-norm distance ``dedup``."""
    found = []
    for s in seeds:
        try:
            x = find_fixed_point(model, s, tol=tol)
        except ConvergenceError:
            continue
        if all(np.max(np.abs(x - y)) > dedup for y in found):
            found.append(x)
    return found


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix, from its dense eigenvalues."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix entries")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse in ``base`` of each entry of an integer index array."""
    out, f, i = np.zeros(index.shape), 1.0 / base, index
    while i.any():
        # an index whose digits ran out adds 0.0, which leaves its value as it is
        out += f * (i % base)
        i = i // base
        f /= base
    return out


def _primes(count: int) -> list:
    out, cand = [], 2
    while len(out) < count:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


# the most Halton prefixes kept at once, each (n_samples, d) floats
_HALTON_PREFIXES = 8


@lru_cache(maxsize=_HALTON_PREFIXES)
def _halton_prefix(d: int, n_samples: int) -> np.ndarray:
    """The first ``n_samples`` Halton points of the unit cube of dimension
    ``d``, one per row, in the first ``d`` primes as bases; read-only, as
    the cache hands the same array to every caller."""
    index = np.arange(1, n_samples + 1)
    u = np.reshape([_halton(index, b) for b in _primes(d)], (d, n_samples)).T
    u.flags.writeable = False
    return u


def box_samples(lo, hi, n_samples: int) -> np.ndarray:
    """Deterministic samples of a box: corners, center, then a Halton prefix.

    The ``2**d`` corners are drawn only for ``d <= 12``; a box of more
    dimensions gets no corners.  Prefixes are nested, so enlarging
    ``n_samples`` only ever adds points; estimates built on these samples
    are monotone in ``n_samples``.  The box must satisfy ``lo <= hi`` with
    a finite width, as :func:`~chaosctl.dynamics.initial_box` checks.
    The prefix in the unit cube is computed once per ``(d, n_samples)``
    and kept, for the last 8 such pairs used, so that a report's
    ``bound_A`` and ``lipschitz_estimate`` and every later report of that
    size share it; each call scales it into a new array of its own.
    """
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box bounds must be vectors of equal length")
    lo, hi = initial_box(lo, hi, lo.shape[0], "sample box")
    _check_count("n_samples", n_samples, 1)
    d = lo.shape[0]
    bits = np.arange(2 ** d if d <= 12 else 0)[:, None] >> np.arange(d)
    corners = np.where((bits & 1).astype(bool), hi, lo)
    u = _halton_prefix(d, int(n_samples))
    return np.vstack([corners, 0.5 * (lo + hi), lo + u * (hi - lo)])


# samples whose Jacobians one pass of bound_A stacks and reduces together
_BOUND_CHUNK = 4096


def bound_A(model: MapModel, lo, hi, n_samples: int = 512) -> float:
    """min(max abs row sum, max abs col sum) of the Jacobian, sampled over a box.

    The row and column maxima are taken over the deterministic sample set of
    ``box_samples``; since any eigenvalue modulus is bounded by both the
    maximal row and column sums, the result bounds the spectral radius at
    every sampled state.  The Jacobians come in stacks of at most 4096
    samples, each from one :meth:`~chaosctl.core.MapModel.jacobian_rows`
    call (the model's ``jacobian_batch``, or its ``jacobian`` once per
    sample), whose absolute row and column sums and their maxima are then
    taken in a few whole-stack reductions, so memory stays bounded for any
    ``n_samples``; each sum is bitwise the one of its sample's own matrix.
    The first sample whose Jacobian has a non-finite row or column sum, or
    whose Jacobian raises ``ValueError`` or ``ArithmeticError`` (a Jacobian
    of the wrong shape included), raises ``ValueError`` naming the sample
    and state, whichever way it fails; another exception of a Jacobian
    passes on unless an earlier sample failed.  The box is taken as
    :func:`stability_report` takes it: scalar bounds broadcast to the
    model's dimension, and bounds of another length raise ``ValueError``
    naming the sample box before any Jacobian.
    """
    d = model.dimension
    samples = box_samples(*initial_box(lo, hi, d, "sample box"), n_samples)
    rows = cols = 0.0
    for start in range(0, len(samples), _BOUND_CHUNK):
        chunk = samples[start:start + _BOUND_CHUNK]
        # zeros: the rows that a failing sample leaves unwritten have finite sums
        jac, failure = np.zeros((len(chunk), d, d)), None
        try:
            model.jacobian_rows(chunk, jac)
        except Exception as exc:
            failure = exc
        # a sample before the failing one with a non-finite sum fails first
        row, col = _abs_sum_maxima(jac, samples, start)
        if isinstance(failure, RowError):
            k, cause = start + failure.row, failure.__cause__
            raise ValueError(f"Jacobian failed at sample {k}, x = {state_text(samples[k])}: "
                             f"{type(cause).__name__}: {cause}") from cause
        if failure is not None:
            raise failure
        rows = max(rows, float(row.max()))
        cols = max(cols, float(col.max()))
    return min(rows, cols)


def _abs_sum_maxima(jac: np.ndarray, samples: np.ndarray, start: int):
    """Each Jacobian's max abs row sum and max abs col sum, for the stack
    ``jac`` of the Jacobians at ``samples[start:]``, which it overwrites
    with their absolute values; the first sample with a non-finite sum
    raises ``ValueError``."""
    np.abs(jac, out=jac)
    row = jac.sum(axis=2).max(axis=1)
    col = jac.sum(axis=1).max(axis=1)
    # max() would silently skip a NaN and an inf is no usable bound
    finite = np.isfinite(row) & np.isfinite(col)
    if not finite.all():
        i = start + int(np.argmin(finite))
        raise ValueError(f"non-finite Jacobian row or column sum at sample {i}, "
                         f"x = {state_text(samples[i])}")
    return row, col


def local_cstar(bound: float) -> float:
    """Minimum intensity that locally stabilizes: max(0, 1 - 1/bound).

    ``bound`` is a spectral radius or a row/column-sum bound; anything at or
    below 1 needs no control at all, so the threshold is 0 there.  A
    negative or NaN bound raises ``ValueError``.
    """
    bound = float(bound)
    if not bound >= 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    return 0.0 if bound <= 1.0 else 1.0 - 1.0 / bound


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled Lipschitz-style constant L = max(ratio_part, bound_part).

    ratio_part  1.05 * sampled max of ||f(x)-K|| / ||x-K|| over box points
                within ||x-K|| <= ||K||
    bound_part  M/||K|| + 1 with M the sampled sup of ||f|| over the box
    """

    value: float
    ratio_part: float
    bound_part: float
    sup_f: float
    norm_kind: str
    n_samples: int

    def __float__(self):
        return self.value


def _check_fixed_point(model: MapModel, k: np.ndarray) -> None:
    """Raise ``ValueError`` unless the state ``k`` is a fixed point of the
    model: its image, of the model's dimension, within 1e-8 of it."""
    d = model.dimension
    fk = check_image(np.asarray(model.evaluate(k), float), (d,), d)
    if norm(fk - k, "max") >= _FIXED_POINT_RESIDUAL:
        raise ValueError("K is not a fixed point of the model")


def lipschitz_estimate(model: MapModel, k, lo, hi, n_samples: int = 2048,
                       norm_kind: str = "max") -> LipschitzEstimate:
    """Estimate L with ||f(x) - K|| <= L*||x - K|| from box samples.

    ``k`` must be a fixed point (an image of the model's dimension, residual
    below 1e-8) with nonzero norm.
    Near K the secant ratio is sampled directly (inflated by 5%); far from K
    the bound M/||K|| + 1 applies wherever the sampled sup M really bounds
    ||f||, i.e. on the sampled box only -- for maps unbounded on their full
    domain the estimate is valid on that compact restriction and nowhere
    else.  The samples are mapped with one ``evaluate_rows`` call.  The box
    is taken as in :func:`bound_A`, and checked before any evaluation.
    """
    _check_count("n_samples", n_samples, 1)
    lo, hi = initial_box(lo, hi, model.dimension, "sample box")
    k = as_state(k, model.dimension)
    _check_fixed_point(model, k)
    nk = norm(k, norm_kind)
    if nk == 0.0:
        raise ValueError("K must have nonzero norm")
    pts = box_samples(lo, hi, n_samples)
    fx = model.evaluate_rows(pts)
    sup_f = float(np.max(norm_rows(fx, norm_kind), initial=0.0))
    dist = norm_rows(pts - k, norm_kind)
    near = (dist > 0.0) & (dist <= nk)
    ratio = float(np.max(norm_rows(fx[near] - k, norm_kind) / dist[near], initial=0.0))
    ratio_part = 1.05 * ratio
    bound_part = sup_f / nk + 1.0
    return LipschitzEstimate(value=max(ratio_part, bound_part),
                             ratio_part=ratio_part, bound_part=bound_part,
                             sup_f=sup_f, norm_kind=norm_kind,
                             n_samples=n_samples)


def global_cstar(L) -> float:
    """Minimum intensity guaranteeing global convergence: 0 for L <= 1, else 1 - 1/L.

    This is :func:`local_cstar` of the Lipschitz-style constant ``L``.
    """
    return local_cstar(L)


def verify_contraction(model: MapModel, cfg: ControlConfig, k, L, x0,
                       n: int = 200, norm_kind: str = "max") -> Tuple[bool, float]:
    """Check the geometric-decay certificate along one controlled orbit.

    Requires a VMTOC control with T = K, K a fixed point of the model and
    c > global_cstar(L).  Iterates ``n`` steps from ``x0`` with
    :func:`~chaosctl.dynamics.iterate_orbit` and tests the per-step ratio
    ||x' - K|| / ||x - K|| against theta = (1-c)*L, skipping steps with
    ||x - K|| below 1e-12.  Returns (all ratios within theta, maximum
    observed ratio).  An orbit that diverges raises
    :class:`~chaosctl.dynamics.OrbitError` with the failing step.  ``n``
    must be a nonnegative integer, ``L`` finite and nonnegative and
    ``norm_kind`` known, lest ``ValueError`` naming it before any step.
    """
    _check_count("n", n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    L = float(L)
    if not 0.0 <= L < math.inf:
        raise ValueError(f"L must be finite and nonnegative, got {L}")
    check_norm_kind(norm_kind)
    k = as_state(k, model.dimension)
    if cfg.scheme != "VMTOC":
        raise ValueError("contraction certificate requires a VMTOC control")
    t = cfg.target_vector(model.dimension)
    if norm(t - k, "max") > 1e-12 * (1.0 + norm(k, "max")):
        raise ValueError("certificate requires target T = K")
    _check_fixed_point(model, k)
    if cfg.intensity <= global_cstar(L):
        raise ValueError("intensity must exceed global_cstar(L)")
    theta = (1.0 - cfg.intensity) * L
    x0 = as_state(x0, model.dimension)
    orbit = np.vstack([x0, iterate_orbit(model, cfg, x0, 0, n)])
    dist = norm_rows(orbit - k, norm_kind)
    d0, d1 = dist[:-1], dist[1:]
    moved = d0 >= 1e-12
    worst = float(np.max(d1[moved] / d0[moved], initial=0.0))
    return worst <= theta + 1e-12, worst


# what a report says of an equilibrium that is not in its domain's interior,
# such as the extinction state 0 of the LPA map
BOUNDARY_NOTE = "warning: equilibrium lies on the domain boundary"


@dataclass(frozen=True)
class StabilityReport:
    """Everything the stability command measures, with provenance strings."""

    equilibrium: tuple
    residual: float
    rho: float
    bound_a: float
    lipschitz: Optional[LipschitzEstimate]
    local_cstar_rho: float
    local_cstar_a: float
    global_cstar: Optional[float]
    provenance: dict = field(default_factory=dict)

    def to_lines(self) -> list:
        pairs = [(f"equilibrium.{i}", v) for i, v in enumerate(self.equilibrium)]
        pairs += [("residual", self.residual), ("rho", self.rho), ("bound_a", self.bound_a),
                  ("local_cstar_rho", self.local_cstar_rho), ("local_cstar_a", self.local_cstar_a)]
        lip = self.lipschitz
        if lip is not None:
            pairs += [("lipschitz", lip.value), ("lipschitz.ratio_part", lip.ratio_part),
                      ("lipschitz.bound_part", lip.bound_part), ("lipschitz.sup_f", lip.sup_f)]
        if self.global_cstar is not None:
            pairs.append(("global_cstar", self.global_cstar))
        return ([f"{key} = {value:.17g}" for key, value in pairs]
                + [f"provenance.{key} = {note}" for key, note in sorted(self.provenance.items())])


def stability_report(model: MapModel, x0, lo, hi, n_samples: int = 2048,
                     tol: float = 1e-12, norm_kind: str = "max") -> StabilityReport:
    """Assemble the full stability picture around the equilibrium reached from ``x0``.

    The sampling box [lo, hi] feeds both the row/column-sum bound and the
    Lipschitz estimate.  Every constant is a sampled estimate, not a
    certified supremum; the provenance entries say which formula produced
    each number, and warn when the equilibrium escaped the box.  An unknown
    ``norm_kind``, or a box that :func:`~chaosctl.dynamics.initial_box`
    rejects, raises ``ValueError`` before the fixed-point search.  An
    equilibrium on the domain's boundary gets the ``boundary`` entry
    :data:`BOUNDARY_NOTE`.  A Jacobian at the equilibrium that raises
    ``ValueError`` or ``ArithmeticError``, or that is not finite, raises
    ``ValueError`` naming the equilibrium.
    """
    check_norm_kind(norm_kind)
    _check_count("n_samples", n_samples, 1)
    lo, hi = initial_box(lo, hi, model.dimension, "sample box")
    eq = find_fixed_point(model, x0, tol=tol)
    res = norm(np.asarray(model.evaluate(eq), float) - eq, "max")
    try:
        jac = model.jacobian_at(eq)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"Jacobian failed at the equilibrium x = {state_text(eq)}: "
                         f"{type(exc).__name__}: {exc}") from exc
    if not np.isfinite(jac).all():
        raise ValueError(f"non-finite Jacobian at the equilibrium x = {state_text(eq)}")
    rho = spectral_radius(jac)
    a = bound_A(model, lo, hi, n_samples)
    prov = {
        "rho": "spectral radius of the Jacobian at the equilibrium",
        "bound_a": f"sampled estimate: min of max row/col sums over the box, {n_samples} samples",
        "local_cstar_rho": "max(0, 1 - 1/rho)",
        "local_cstar_a": "max(0, 1 - 1/bound_a)",
    }
    if np.any(eq < lo) or np.any(eq > hi):
        prov["box"] = "warning: equilibrium lies outside the sampling box"
    if not model.domain.is_interior(eq):
        prov["boundary"] = BOUNDARY_NOTE
    lip = None
    gc = None
    try:
        lip = lipschitz_estimate(model, eq, lo, hi, n_samples, norm_kind)
        gc = global_cstar(lip.value)
        prov["lipschitz"] = ("sampled estimate on the box only; "
                            "not valid beyond it if f is unbounded on the domain")
        prov["global_cstar"] = "0 if L <= 1 else 1 - 1/L"
    except ValueError as exc:
        prov["lipschitz"] = f"unavailable: {exc}"
    return StabilityReport(
        equilibrium=tuple(float(v) for v in eq), residual=res, rho=rho,
        bound_a=a, lipschitz=lip,
        local_cstar_rho=local_cstar(rho), local_cstar_a=local_cstar(a),
        global_cstar=gc, provenance=prov)
