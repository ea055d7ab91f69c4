"""State-space primitives: vectors, norms, domains and the map interface.

States are plain 1-D float64 numpy arrays.  Everything in this module is
an immutable value (arrays are returned read-only), so models, domains and
states can be shared freely between threads; map evaluation is expected to
be a pure function of its input.  A domain is a closed box whose bounds
may be infinite; a state holding NaN lies outside every domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

NORM_KINDS = ("max", "euclidean", "sum")


def as_state(values, dim: Optional[int] = None, what: str = "state") -> np.ndarray:
    """Coerce ``values`` to a finite, read-only float64 vector.

    Raises ``ValueError`` for non-vector input, a dimension mismatch or any
    NaN/Inf component; the shape and non-finite messages name ``what``.
    """
    x = np.array(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{what} must be a 1-D vector, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim} components, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite {what}")
    x.flags.writeable = False
    return x


def check_image(y, shape, dim: int, what: str = "the map"):
    """The image ``y`` that ``what`` gave, which must have the ``shape``
    that the dimension ``dim`` implies, lest it be broadcast or cut to fit;
    otherwise ``ValueError``."""
    if np.shape(y) != shape:
        raise ValueError(f"{what} gave an image of shape {np.shape(y)}, "
                         f"but the model has dimension {dim}")
    return y


def check_jacobian(j: np.ndarray, dim: int, what: str = "the map") -> np.ndarray:
    """The Jacobian array ``j`` that ``what`` gave, which must be
    ``(dim, dim)``, lest it be broadcast; otherwise ``ValueError`` in
    :func:`check_image`'s words."""
    if j.shape != (dim, dim):
        raise ValueError(f"{what} gave a Jacobian of shape {j.shape}, "
                         f"but the model has dimension {dim}")
    return j


def state_text(x) -> str:
    """A state in an error message, with every digit of every component."""
    return f"({', '.join(f'{v:.17g}' for v in x)})"


def check_norm_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` is one of :data:`NORM_KINDS`."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind: {kind!r}")


def check_tol(tol) -> None:
    """Raise ``ValueError`` unless the tolerance ``tol`` is positive and finite; NaN fails."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


class ParamError(ValueError):
    """An invalid parameter; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def norm(x, kind: str = "max") -> float:
    """Norm of a state vector; zero iff ``x`` is the zero vector.

    ``kind`` is one of ``"max"`` (sup norm), ``"euclidean"`` or ``"sum"``
    (taxicab).  Non-finite components raise ``ValueError``.  This is
    :func:`norm_rows` of ``x`` as a one-row array.
    """
    return float(norm_rows(np.reshape(x, (1, -1)), kind)[0])


def norm_rows(rows, kind: str = "max") -> np.ndarray:
    """:func:`norm` of every row of an ``(n, d)`` array."""
    check_norm_kind(kind)
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite state")
    if kind == "max":
        return np.max(np.abs(rows), axis=1, initial=0.0)
    if kind == "euclidean":
        # scale by the largest magnitude so squaring cannot underflow to zero;
        # a zero row divides by 1 instead, and its norm stays 0 * 0
        peak = np.max(np.abs(rows), axis=1, initial=0.0)
        scale = np.where(peak == 0.0, 1.0, peak)
        return peak * np.sqrt(np.sum((rows / scale[:, None]) ** 2, axis=1))
    return np.sum(np.abs(rows), axis=1)


@dataclass(frozen=True)
class DomainSpec:
    """The closed box ``[lo, hi]`` of R^d that a map sends into itself.

    A bound may be infinite: the nonnegative orthant is ``[0, inf)^d`` and
    the full space ``(-inf, inf)^d``.  Membership is closed (boundary
    points belong to the domain), and a state holding NaN lies outside
    every domain.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float, ndmin=1)
        hi = np.array(self.hi, dtype=float, ndmin=1)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("box bounds must be two vectors of one positive length")
        if not np.all(lo <= hi):  # NaN fails too
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        lo.flags.writeable = hi.flags.writeable = False
        # tuples to compare and hash, arrays to compute with, and the common
        # bounds max(lo) and min(hi) that every component of a state inside
        # an orthant or the full space lies within
        for name, value in (("lo", tuple(lo.tolist())), ("hi", tuple(hi.tolist())),
                            ("_lo", lo), ("_hi", hi),
                            ("_floor", float(lo.max())), ("_ceil", float(hi.min()))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def nonnegative_orthant(dim: int) -> "DomainSpec":
        return DomainSpec((0.0,) * dim, (math.inf,) * dim)

    @staticmethod
    def box(lo, hi) -> "DomainSpec":
        return DomainSpec(lo, hi)

    @staticmethod
    def full_space(dim: int) -> "DomainSpec":
        return DomainSpec((-math.inf,) * dim, (math.inf,) * dim)

    def contains(self, x) -> bool:
        x = as_state(x, self.dim)
        return self.contains_unchecked(x)

    def contains_unchecked(self, x) -> bool:
        """Membership without input validation, for hot iteration loops.

        ``x`` may also be an ``(n, d)`` array of states, or a block of them
        with more leading axes: the answer is then whether every state
        belongs to the domain.  An array within the common bounds is
        accepted by two reductions; only otherwise is each component tested
        against its own bounds.
        """
        if self._floor <= x.min() and x.max() <= self._ceil:
            return True
        return bool(np.all(x >= self._lo) and np.all(x <= self._hi))

    def contains_rows(self, rows) -> np.ndarray:
        """Boolean mask of the rows of an ``(n, d)`` array that lie in the
        domain, without input validation; a block ``(b, n, d)`` gives a
        ``(b, n)`` mask."""
        return np.all((rows >= self._lo) & (rows <= self._hi), axis=-1)

    def is_interior(self, x) -> bool:
        """True iff ``x`` lies strictly inside the domain (not on its boundary)."""
        x = as_state(x, self.dim)
        return bool(np.all(x > self._lo) and np.all(x < self._hi))

    def project(self, x) -> np.ndarray:
        """Closest point of the domain (componentwise clip)."""
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self._lo), self._hi)


def fd_jacobian(func: Callable, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian with step ``rel_step*(1+|x_i|)``."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    fx = np.asarray(func(x), dtype=float)
    out = np.empty((fx.shape[0], d))
    for j in range(d):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (np.asarray(func(xp), float) - np.asarray(func(xm), float)) / (2.0 * h)
    return out


@dataclass(frozen=True)
class MapModel:
    """A continuous self-map of a convex domain, with optional analytic Jacobian.

    ``evaluate`` maps a length-``dimension`` vector to its image, a vector
    of the same length, and must be pure: a state always gives the same
    image, bit for bit.  ``evaluate_batch``, when given, maps an
    ``(n, dimension)`` array of states to the array of their images and
    must be row-wise pure: each output row depends on its own input row
    only, never on the other rows or on where the row sits in the batch.
    ``evaluate_floats`` maps a tuple of ``dimension`` Python floats to the
    sequence of its image's components.  When omitted, it is ``evaluate``
    of the state as a float array, its image returned by ``tolist``, so
    every model has the one lone step form: every lone orbit steps through
    it, and a fresh batch of any model hands its last six rows to it.  Both
    must agree with ``evaluate`` bit for bit, a batch row for row (``-0.0``,
    infinities and NaN included): :mod:`chaosctl.dynamics` runs an orbit
    through whichever suits it.  ``jacobian`` maps a state to its
    ``(dimension, dimension)`` Jacobian matrix; without it,
    :meth:`jacobian_at` falls back to central finite differences.
    """

    dimension: int
    evaluate: Callable
    domain: DomainSpec
    jacobian: Optional[Callable] = None
    name: str = ""
    evaluate_batch: Optional[Callable] = None
    evaluate_floats: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension != self.domain.dim:
            raise ValueError("model dimension must match its domain")
        f, given = self.evaluate, self.evaluate_floats
        # derived again where dataclasses.replace passes on the old evaluate's
        if given is None or getattr(given, "derived_from", f) is not f:
            def derived(x):
                return np.asarray(f(np.array(x, float)), float).tolist()
            derived.derived_from = f
            object.__setattr__(self, "evaluate_floats", derived)

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def evaluate_rows(self, rows) -> np.ndarray:
        """Images of the rows of the ``(n, dimension)`` float array ``rows``.

        Uses ``evaluate_batch`` when the model has one, whose image must
        have the shape of ``rows``, lest ``ValueError``.  Otherwise calls
        ``evaluate`` row by row, and the first row on which it raises
        ``ValueError`` or ``ArithmeticError``, or gives an image without
        the model's dimension, raises ``ValueError`` naming that row and its
        cause.
        """
        d = self.dimension
        if self.evaluate_batch is not None:
            return check_image(np.asarray(self.evaluate_batch(rows), dtype=float), rows.shape, d)
        out = np.empty(rows.shape)
        for r, x in enumerate(rows):
            try:
                out[r] = check_image(self.evaluate(x), (d,), d)
            except (ValueError, ArithmeticError) as exc:
                raise ValueError(f"evaluation failed at row {r}: "
                                 f"{type(exc).__name__}: {exc}") from exc
        return out

    def jacobian_at(self, x) -> np.ndarray:
        """The Jacobian at ``x`` as a float array, which must have shape
        ``(dimension, dimension)``, lest :func:`check_jacobian`'s
        ``ValueError``."""
        if self.jacobian is not None:
            return check_jacobian(np.asarray(self.jacobian(x), dtype=float), self.dimension)
        return check_jacobian(fd_jacobian(self.evaluate, x), self.dimension)
