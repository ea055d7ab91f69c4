"""State-space primitives: vectors, norms, domains and the map interface.

States are plain 1-D float64 numpy arrays.  Everything in this module is
an immutable value (arrays are returned read-only), so models, domains and
states can be shared freely between threads; map evaluation is expected to
be a pure function of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

NORM_KINDS = ("max", "euclidean", "sum")

ORTHANT = "nonnegative-orthant"
BOX = "box"
FULL = "full-space"


def as_state(values, dim: Optional[int] = None, what: str = "state") -> np.ndarray:
    """Coerce ``values`` to a finite, read-only float64 vector.

    Raises ``ValueError`` for non-vector input, a dimension mismatch or any
    NaN/Inf component.
    """
    x = np.array(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{what} must be a 1-D vector, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim} components, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state")
    x.flags.writeable = False
    return x


def norm(x, kind: str = "max") -> float:
    """Norm of a state vector; zero iff ``x`` is the zero vector.

    ``kind`` is one of ``"max"`` (sup norm), ``"euclidean"`` or ``"sum"``
    (taxicab).  Non-finite components raise ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state")
    if kind == "max":
        return float(np.max(np.abs(x))) if x.size else 0.0
    if kind == "euclidean":
        # scale by the largest magnitude so squaring cannot underflow to zero
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        if peak == 0.0:
            return 0.0
        return peak * float(np.sqrt(np.sum((x / peak) ** 2)))
    if kind == "sum":
        return float(np.sum(np.abs(x)))
    raise ValueError(f"unknown norm kind: {kind!r}")


@dataclass(frozen=True)
class DomainSpec:
    """A convex subset of R^d that a map sends into itself.

    Three kinds are supported: the nonnegative orthant, a compact
    axis-aligned box and the full space.  Membership is closed (boundary
    points belong to the domain).
    """

    kind: str
    dim: int
    lo: Optional[tuple] = None
    hi: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (ORTHANT, BOX, FULL):
            raise ValueError(f"unknown domain kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("domain dimension must be positive")
        if self.kind == BOX:
            lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
            if lo.shape != (self.dim,) or hi.shape != (self.dim,):
                raise ValueError("box bounds must match the domain dimension")
            if np.any(lo > hi):
                raise ValueError("box bounds must satisfy lo <= hi componentwise")

    @staticmethod
    def nonnegative_orthant(dim: int) -> "DomainSpec":
        return DomainSpec(ORTHANT, dim)

    @staticmethod
    def box(lo, hi) -> "DomainSpec":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        return DomainSpec(BOX, len(lo), lo, hi)

    @staticmethod
    def full_space(dim: int) -> "DomainSpec":
        return DomainSpec(FULL, dim)

    def contains(self, x) -> bool:
        x = as_state(x, self.dim)
        return self.contains_unchecked(x)

    def contains_unchecked(self, x) -> bool:
        """Membership without input validation, for hot iteration loops.

        ``x`` may also be an ``(n, d)`` array of states: the answer is then
        whether every row belongs to the domain.
        """
        if self.kind == ORTHANT:
            return bool(x.min() >= 0.0)
        if self.kind == BOX:
            return bool(np.all(x >= self.lo) and np.all(x <= self.hi))
        return True

    def contains_rows(self, rows) -> np.ndarray:
        """Boolean mask of the rows of an ``(n, d)`` array that lie in the
        domain, without input validation.  Rows holding NaN are outside the
        orthant and the box."""
        if self.kind == ORTHANT:
            return np.all(rows >= 0.0, axis=1)
        if self.kind == BOX:
            return np.all((rows >= self.lo) & (rows <= self.hi), axis=1)
        return np.ones(rows.shape[0], dtype=bool)

    def is_interior(self, x) -> bool:
        """True iff ``x`` lies strictly inside the domain (not on its boundary)."""
        x = as_state(x, self.dim)
        if self.kind == ORTHANT:
            return bool(np.all(x > 0.0))
        if self.kind == BOX:
            return bool(np.all(x > self.lo) and np.all(x < self.hi))
        return True

    def project(self, x) -> np.ndarray:
        """Closest point of the domain (componentwise clip)."""
        x = np.asarray(x, dtype=float)
        if self.kind == ORTHANT:
            return np.maximum(x, 0.0)
        if self.kind == BOX:
            return np.clip(x, self.lo, self.hi)
        return x


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


class RowError(ValueError):
    """``evaluate`` raised on some rows of a batch; ``causes`` maps each of
    those row indices to what it raised."""

    def __init__(self, causes: dict):
        row, cause = next(iter(causes.items()))
        super().__init__(f"{len(causes)} row(s) failed, first row {row}: "
                         f"{type(cause).__name__}: {cause}")
        self.causes = causes


@dataclass(frozen=True)
class MapModel:
    """A continuous self-map of a convex domain, with optional analytic Jacobian.

    ``evaluate`` takes and returns a length-``dimension`` vector and must be
    pure.  When ``jacobian`` is omitted, :meth:`jacobian_at` falls back to
    central finite differences.  ``evaluate_batch``, when given, maps an
    ``(n, dimension)`` array of states to the array of their images and must
    be row-wise pure: each output row depends on its own input row only,
    never on the other rows or on where the row sits in the batch.
    """

    dimension: int
    evaluate: Callable
    domain: DomainSpec
    jacobian: Optional[Callable] = None
    name: str = ""
    evaluate_batch: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension != self.domain.dim:
            raise ValueError("model dimension must match its domain")

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def evaluate_rows(self, rows) -> np.ndarray:
        """Images of the rows of the ``(n, dimension)`` float array ``rows``.

        Uses ``evaluate_batch`` when the model has one.  Otherwise calls
        ``evaluate`` row by row: a row holding a non-finite value comes back
        as NaN without being evaluated.  When ``evaluate`` raises
        ``ValueError`` or ``ArithmeticError`` on some rows, the other rows
        are still evaluated, and then :class:`RowError` names every row that
        raised.
        """
        if self.evaluate_batch is not None:
            return np.asarray(self.evaluate_batch(rows), dtype=float)
        out = np.empty(rows.shape)
        causes = {}
        for r, x in enumerate(rows):
            if not np.all(np.isfinite(x)):
                out[r] = np.nan
                continue
            try:
                out[r] = self.evaluate(x)
            except (ValueError, ArithmeticError) as exc:
                causes[r] = exc
        if causes:
            raise RowError(causes)
        return out

    def jacobian_at(self, x) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        return fd_jacobian(self.evaluate, x)
