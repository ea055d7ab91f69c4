"""State-space primitives: vectors, norms, domains and the map interface.

States are plain 1-D float64 numpy arrays.  Everything in this module is
an immutable value (arrays are returned read-only), so models, domains and
states can be shared freely between threads; map evaluation is expected to
be a pure function of its input.  A domain is a closed box whose bounds
may be infinite; a state holding NaN lies outside every domain.  A
:class:`Formula` writes a map once, as component expressions, and compiles
every form of it: the step of a tuple of floats, the step of arrays, the
steps of floats and of columns with a pull before or after the map fused
in, the lone orbit's block of a float step, and the Jacobian.
:func:`pulled_float_step` writes a control's pull, and :func:`step_block`
the block, into any float step: fused into its formula when it has one,
around it otherwise.  :func:`pulled_columns` writes a pull of per-state
columns into a formula's batch step; no other module writes them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

NORM_KINDS = ("max", "euclidean", "sum")

# the reductions of every element, without the wrappers of ndarray.min and max
_least, _most = np.minimum.reduce, np.maximum.reduce


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


def check_jacobian(j: np.ndarray, dim: int, what: str = "the map",
                   shape: Optional[tuple] = None) -> np.ndarray:
    """The Jacobian array ``j`` that ``what`` gave, which must be
    ``(dim, dim)``, or ``shape`` when given, a stack's ``(n, dim, dim)``,
    lest it be broadcast; otherwise ``ValueError`` in :func:`check_image`'s
    words."""
    if j.shape != (shape or (dim, dim)):
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


class RowError(ValueError):
    """The Jacobian at a row of an array of states failed with
    ``ValueError`` or ``ArithmeticError`` (:meth:`MapModel.jacobian_rows`):
    ``row`` is its index, the message names it and what it raised, and
    ``__cause__`` is that exception."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


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
        # an orthant or the full space lies within.  NaN fails a test of
        # either bound, so an infinite bound needs a test only when the
        # other one is infinite too
        floor, ceil = float(lo.max()), float(hi.min())
        for name, value in (("lo", tuple(lo.tolist())), ("hi", tuple(hi.tolist())),
                            ("_lo", lo), ("_hi", hi), ("_floor", floor), ("_ceil", ceil),
                            ("_test_floor", floor > -math.inf),
                            ("_test_ceil", ceil < math.inf or floor == -math.inf)):
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
        accepted by at most two reductions; only otherwise is each component
        tested against its own bounds.
        """
        if ((not self._test_floor or self._floor <= _least(x, None))
                and (not self._test_ceil or _most(x, None) <= self._ceil)):
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


@cache
def compiled(source: str):
    """The function ``make`` that the Python ``source`` defines, compiled
    once per source and kept, as ``dataclasses`` builds ``__init__``:
    compiling it for each map would cost more than a chained scan point's
    whole orbit.  In ``source``, ``exp`` is ``np.exp`` and ``zeros`` is
    ``np.zeros``; a warning raised in it names the file ``<chaosctl
    compiled step>``."""
    namespace = dict(exp=np.exp, math=math, zeros=np.zeros, check_image=check_image, struct=struct)
    exec(compile(source, "<chaosctl compiled step>", "exec"), namespace)
    return namespace["make"]


@dataclass(frozen=True, eq=False)
class Formula:
    """A map of R^d written once, as Python expressions.

    ``components`` holds the ``d`` components of the image, and ``exps``
    the arguments of the exponentials ``e0, e1, ...`` they use, each an
    expression in the state's components ``x0, x1, ...``, the constants
    named in ``names`` and the earlier exponentials.  ``jacobian`` holds
    the nonzero entries ``(i, j, expression)`` of the ``d x d`` Jacobian, in
    the same names.  Every form is compiled from these once per formula and
    kept; :meth:`bind` binds it to the constants' values:

    * ``"floats"`` steps a tuple of Python floats to the tuple of its
      image's.  An exponential is ``np.exp`` converted by ``float``, which
      keeps its bits, so the rest is IEEE arithmetic on Python floats, and
      the image is bitwise the array form's.
    * ``"arrays"`` steps ``(x, out)``: it writes the image of the
      components of one state ``(d,)``, or of the columns ``(d, n)`` of a
      batch, into ``out``, of the same shape, which must not overlap ``x``.
    * ``"after"`` and ``"before"`` step floats as ``"floats"`` does, with
      the pull ``v -> (c0 + k0*v0, ...)`` written in after the map or
      before it; the ``2d`` values of ``c`` and ``k`` follow the constants'.
    * ``"arrays after"`` and ``"arrays before"`` write the pull into
      ``"arrays"`` the same way, on the whole ``(d, n)`` array of columns,
      its values ``c`` and ``k`` arrays (:func:`pulled_columns`).
    * ``"jacobian"`` takes the components of one state as a sequence of
      Python floats and writes the entries of ``jacobian`` into a zero
      ``(d, d)`` array.  Its exponentials are ``math.exp``: ``np.exp``
      may differ in the last bit, which moves the last digits of the
      sampled ``bound_A`` and of ``lyapunov_max``.  It keeps ``math.exp``
      until a batched form, the same entries on columns with ``np.exp``,
      replaces it and documents each digit that moves.

    A formula compares by identity.
    """

    names: tuple
    exps: tuple
    components: tuple
    jacobian: tuple

    def bind(self, form: str, *values):
        """The step of ``form`` at ``values``; its ``formula`` is ``(self, form, values)``."""
        step = _formula_maker(self, form)(*values)
        step.formula = self, form, values
        return step


def _step_maker(params: list, body: list, args: str = "x"):
    """``make(*params)``, which returns ``step(args)`` running the source
    lines ``body``; every compiled step shares this header."""
    return compiled(f"def make({', '.join(params)}):\n    def step({args}):\n"
                    + "".join(f"        {line}\n" for line in body) + "    return step\n")


@cache
def _block_maker(d: int, params: tuple, head: tuple, body: tuple, state: str, packed: str):
    """``make(*params)``, which returns :func:`step_block`'s block running
    ``head`` once and ``body`` a step, to the state ``state`` of ``packed``."""
    lines = [f"pack = struct.Struct('{d}d').pack", f"def make({', '.join(params)}):",
             "    def block(x, start, stop):", *(f"        {line}" for line in head),
             "        keys, seen = [], {}", "        append, mark = keys.append, seen.setdefault",
             "        try:", "            for i in range(start, stop):",
             *(f"                {line}" for line in body),
             f"                key = pack({packed})", "                append(key)",
             "                j = mark(key, i)", "                if j != i:",
             f"                    return keys, {state}, i - j, None",
             "        except (ValueError, ArithmeticError, TypeError, struct.error) as error:",
             f"            return keys, {state}, 0, error",
             f"        return keys, {state}, 0, None", "    return block"]
    return compiled("".join(f"{line}\n" for line in lines))


@cache
def _formula_maker(formula: Formula, form: str, block: bool = False):
    """``make(*values)`` of :meth:`Formula.bind` or its block, one source per formula and form."""
    d = len(formula.components)
    arrays, side = form.startswith("arrays"), form.split()[-1]
    xs, pull = [f"x{j}" for j in range(d)], [f"c{j} + k{j} * " for j in range(d)]
    params = list(formula.names)
    if side in ("after", "before"):
        params += ["c", "k"] if arrays else [f"{v}{j}" for v in "ck" for j in range(d)]
    # columns are pulled whole; an array is indexed, not unpacked, which
    # would iterate it slowly
    body = ["x = c + k * x"] if arrays and side == "before" else []
    body += [f"x{j} = x[{j}]" for j in range(d)] if arrays else [f"{', '.join(xs)}, = x"]
    if side == "before" and not arrays:
        body.append(f"{', '.join(xs)}, = {', '.join(p + x for p, x in zip(pull, xs))},")
    exp = "math.exp({})" if form == "jacobian" else "exp({})" if arrays else "float(exp({}))"
    body += [f"e{i} = {exp.format(arg)}" for i, arg in enumerate(formula.exps)]
    if form == "jacobian":
        body += [f"jac = zeros(({d}, {d}))",
                 *(f"jac[{i}, {j}] = {v}" for i, j, v in formula.jacobian), "return jac"]
        return _step_maker(params, body)
    if arrays:
        # after the map, out = c + k*out, as out*k + c: both operations commute
        body += [f"out[{j}] = {v}" for j, v in enumerate(formula.components)]
        return _step_maker(params, body + ["out *= k", "out += c"] * (side == "after"),
                           "x, out")
    image = ([f"{p}({v})" for p, v in zip(pull, formula.components)] if side == "after"
             else list(formula.components))
    if block:
        state = ", ".join(xs)
        return _block_maker(d, tuple(params), tuple(body[:1]),
                            (*body[1:], f"{state}, = {', '.join(image)},"), f"({state},)", state)
    body.append(f"return ({', '.join(image)},)")
    return _step_maker(params, body)


@cache
def _wrapper_maker(d: int, side: str):
    """``make(f, c_0, ..., c_{d-1}, k_0, ..., k_{d-1})``, which returns the
    float step ``f`` of ``d`` components with the pull written out ``side``
    of it, its constants bound in the closure: a third of the time or less
    of mapping ``add`` and ``mul`` over the tuples, for the same operations
    in the same order.  After the map, a base image that does not unpack
    into ``d`` components and add raises ``check_image``'s ``ValueError``
    rather than being cut to fit."""
    xs = ", ".join(f"x{j}" for j in range(d))
    pulled = ", ".join(f"c{j} + k{j} * x{j}" for j in range(d))
    body = ([f"{xs}, = x", f"return f(({pulled},))"] if side == "before" else
            ["y = f(x)", "try:", f"    {xs}, = y", f"    return ({pulled},)",
             "except (ValueError, TypeError):", f"    check_image(y, ({d},), {d}, 'the base map')",
             "    raise"])
    return _step_maker(["f"] + [f"{v}{j}" for v in "ck" for j in range(d)], body)


def pulled_float_step(step: Callable, side: str, pulls: list) -> Callable:
    """The float step ``step`` of ``d`` components with the pull ``v -> (c_0
    + k_0*v_0, ...)`` written in ``side`` of it, ``"after"`` or
    ``"before"``; ``pulls`` holds the ``2d`` values of ``c`` and then ``k``.

    A formula's ``"floats"`` step, from :meth:`Formula.bind`, is its ``side``
    form, with no call to ``step``; any other runs inside a wrapper compiled
    once per dimension and side.
    """
    formula, form, values = getattr(step, "formula", (None, None, None))
    if form == "floats":
        return formula.bind(side, *values, *pulls)
    return _wrapper_maker(len(pulls) // 2, side)(step, *pulls)


def pulled_columns(step: Callable, side: str, c, k) -> Optional[Callable]:
    """The column step of the batch step ``step`` with the pull ``v -> c +
    k*v`` written in ``side`` of it, ``"after"`` or ``"before"``, bitwise as
    :func:`pulled_float_step` writes it into a float step: ``c`` is ``(d,
    n)`` and ``k`` broadcasts to it, column ``r`` of each pulling state
    ``r``.

    ``step(x, out)`` writes the image of the states ``x``, as the ``d``
    columns ``(d, n)`` of their components, into ``out``, of the same shape,
    which must not overlap ``x``.  Only a batch step that carries a formula's
    ``"arrays"`` form has one, its ``"arrays {side}"`` form; for any other
    this is None."""
    formula, form, values = getattr(step, "formula", (None, None, None))
    return formula.bind(f"arrays {side}", *values, c, k) if form == "arrays" else None


def step_block(step: Callable, d: int) -> Callable:
    """The lone orbit's block of the float step ``step`` of ``d`` components.

    ``block(x, start, stop)`` runs steps ``start`` to ``stop - 1`` from the
    tuple of floats ``x`` and returns ``(keys, y, p, error)``: each state's
    ``struct`` bytes and the last state.  The block keeps one table of the
    step of each key; a key already in it, from ``p`` steps earlier, ends the
    block, and otherwise ``p`` is 0.  A step raising ``ValueError``,
    ``ArithmeticError`` or ``TypeError``, or a state that does not pack, ends
    it as ``error``, at step ``start + len(keys)``.  A formula's step is
    written into the block; any other is called from it."""
    formula, form, values = getattr(step, "formula", (None, None, None))
    if form in ("floats", "after", "before"):
        return _formula_maker(formula, form, True)(*values)
    return _block_maker(d, ("f",), (), ("x = f(x)",), "x", "*x")(step)


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
    it, and a fresh batch hands the rows it has left to it.  A
    float step bound by :meth:`Formula.bind` carries its formula, into
    which :func:`pulled_float_step` writes a control's pull.  Both
    must agree with ``evaluate`` bit for bit, a batch row for row (``-0.0``,
    infinities and NaN included): :mod:`chaosctl.dynamics` runs an orbit
    through whichever suits it.  ``jacobian`` maps a state to its
    ``(dimension, dimension)`` Jacobian matrix, and must be pure too;
    without it, :meth:`jacobian_at` and :meth:`jacobian_rows` fall back to
    central finite differences.  ``jacobian_batch``, which needs
    ``jacobian``, maps an ``(n, dimension)`` array of states to the
    ``(n, dimension, dimension)`` stack of their Jacobians, row-wise pure
    and bitwise ``jacobian`` row for row; :meth:`jacobian_rows` uses it.
    """

    dimension: int
    evaluate: Callable
    domain: DomainSpec
    jacobian: Optional[Callable] = None
    name: str = ""
    evaluate_batch: Optional[Callable] = None
    evaluate_floats: Optional[Callable] = None
    jacobian_batch: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension != self.domain.dim:
            raise ValueError("model dimension must match its domain")
        if self.jacobian_batch is not None and self.jacobian is None:
            raise ValueError("a model with jacobian_batch needs the jacobian it agrees with")
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

    def jacobian_rows(self, rows, out: Optional[np.ndarray] = None,
                      what: str = "the map") -> np.ndarray:
        """The ``(n, dimension, dimension)`` stack of the Jacobians at the
        rows of the ``(n, dimension)`` float array ``rows``, bitwise
        :meth:`jacobian_at` of each row, written into ``out`` when given.

        Uses ``jacobian_batch`` when the model has one, whose stack must have
        that shape, lest :func:`check_jacobian`'s ``ValueError``, which
        names the model as ``what``.  Otherwise each row's Jacobian, from
        ``jacobian`` or by finite differences, is checked so and stored, and
        the first row on which it raises ``ValueError`` or
        ``ArithmeticError``, or has the wrong shape, raises
        :class:`RowError` naming that row and its cause; another exception
        passes on.  The rows before a failing row have then been written
        into ``out``, and no later row.  A batch that raises is replayed row
        by row through ``jacobian``, so that its first failing row fails so;
        should none fail, the batch's exception passes on.
        """
        d = self.dimension
        shape = (len(rows), d, d)
        if out is None:
            out = np.empty(shape)
        if self.jacobian_batch is None:
            self._fill_jacobians(rows, out, what)
            return out
        try:
            stack = np.asarray(self.jacobian_batch(rows), dtype=float)
        except Exception:
            self._fill_jacobians(rows, out, what)
            raise
        out[...] = check_jacobian(stack, d, what, shape)
        return out

    def _fill_jacobians(self, rows, out: np.ndarray, what: str) -> None:
        """:meth:`jacobian_rows` row by row, without ``jacobian_batch``."""
        d, jacobian = self.dimension, self.jacobian
        if jacobian is None:
            def jacobian(x):
                return fd_jacobian(self.evaluate, x)
        shape = (d, d)
        for r, x in enumerate(rows):
            try:
                j = np.asarray(jacobian(x), dtype=float)
                if j.shape != shape:
                    check_jacobian(j, d, what)
            except (ValueError, ArithmeticError) as exc:
                raise RowError(f"Jacobian failed at row {r}: "
                               f"{type(exc).__name__}: {exc}", r) from exc
            out[r] = j
