"""Control laws for discrete maps and the algebra that combines them.

Five schemes are provided.  With intensity ``c`` and target ``T``:

* ``VMTOC``      x' = c*T + (1-c)*f(x)      (nudge after the map)
* ``VTOC``       x' = f(c*T + (1-c)*x)      (nudge before the map)
* ``MPF``        x' = (1-c)*f(x)            (proportional culling after)
* ``PF``         x' = f((1-c)*x)            (proportional culling before)
* ``DIAG-VMTOC`` x' = C*T + (I-C)*f(x)      (per-component intensities C)

PF and MPF are exactly VTOC and VMTOC with a zero target.  One builder
writes every form of every scheme's step (single state, batch, tuple of
floats, Jacobian) from one split, the pull before the map or after it, so
the reduction and the agreement of the forms are bit-for-bit.  The step on
a tuple of floats of a model written as a :class:`~chaosctl.core.Formula`,
as the built-in models are, is that formula with the pull written in,
compiled once per formula and side of the map, with no call to the base
step inside it.  For any other model it is one function, compiled once per
dimension and side of the map, around the base model's float step.
Either side of the map, the single-state and batch steps check the base
image: one without the model's dimension, or a batch image without the
rows' shape, raises ``ValueError``; the batch steps call the base
``evaluate_batch`` itself, so its image is checked once a step.  A
control is checked apart from building its maps, so a scan checks its
control once (``controlled_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Tuple, Union

import numpy as np

from .core import MapModel, ParamError, as_state, check_image, check_jacobian, compiled

SCHEMES = ("VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC")
_TARGETLESS = ("PF", "MPF")


class ControlConfigError(ParamError):
    """An invalid :class:`ControlConfig`; ``field`` names the offending field."""


def check_intensity(c) -> None:
    """Raise unless every intensity in ``c``, a scalar or an array, lies in [0, 1); NaN fails."""
    c = np.asarray(c, dtype=float)
    bad = c[~((c >= 0.0) & (c < 1.0))]
    if bad.size:
        raise ControlConfigError("intensity",
                                 f"control intensity must lie in [0, 1), got {bad[0]}")


def _floats(values, field: str, ndims: Tuple[int, ...], message: str) -> np.ndarray:
    """``values`` as a float array of one of the numbers of dimensions
    ``ndims``, a string being a scalar; otherwise ``ControlConfigError``
    naming ``field``, with ``message`` formatted with the shape of
    ``values``, or with numpy's message for values without a float array."""
    try:
        shape = np.shape(values)  # a ragged nesting raises ValueError
        if len(shape) in ndims:
            return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ControlConfigError(field, f"{field} must hold numbers: {exc}") from None
    raise ControlConfigError(field, message.format(shape=shape))


@dataclass(frozen=True)
class ControlConfig:
    """Scheme tag, control intensity and target state.

    ``intensity`` is a scalar in [0, 1) for the scalar schemes, or a
    sequence of per-component values (each in [0, 1)) for ``DIAG-VMTOC``.
    ``target`` is ignored by PF/MPF, where it is implicitly zero.
    """

    scheme: str
    intensity: Union[float, Tuple[float, ...]]
    target: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ControlConfigError("scheme", f"unknown control scheme: {self.scheme!r}")
        if self.scheme == "DIAG-VMTOC":
            cs = _floats(self.intensity, "intensity", (0, 1),
                         "DIAG-VMTOC takes a scalar or a 1-D vector of intensities, "
                         "got shape {shape}")
            object.__setattr__(self, "intensity", tuple(np.atleast_1d(cs).tolist()))
        else:
            c = _floats(self.intensity, "intensity", (0,),
                        f"{self.scheme} takes a scalar intensity")
            object.__setattr__(self, "intensity", float(c))
        check_intensity(self.intensity)
        if self.target is not None:
            t = _floats(self.target, "target", (1,),
                        "target must be a 1-D vector, got shape {shape}")
            object.__setattr__(self, "target", tuple(t.tolist()))
        elif self.scheme not in _TARGETLESS:
            raise ControlConfigError("target", f"{self.scheme} requires a target")

    @property
    def is_scalar(self) -> bool:
        return self.scheme != "DIAG-VMTOC"

    def intensity_vector(self, dim: int) -> np.ndarray:
        c = np.asarray(self.intensity, dtype=float)
        if c.ndim == 0:
            return np.full(dim, float(c))
        if c.shape != (dim,):
            raise ControlConfigError(
                "intensity", f"dimension mismatch: expected {dim} intensities, got {c.shape[0]}")
        return c

    def target_vector(self, dim: int) -> np.ndarray:
        if self.scheme in _TARGETLESS or self.target is None:
            return np.zeros(dim)
        try:
            return as_state(self.target, dim, what="target")
        except ValueError as exc:
            raise ControlConfigError("target", str(exc)) from None


def _checked_target(model: MapModel, cfg: ControlConfig) -> np.ndarray:
    """``cfg``'s target as a ``(d,)`` array, zero for a scheme without one;
    otherwise it must be finite, of the model's dimension and in its domain."""
    t = cfg.target_vector(model.dimension)
    # target_vector has checked that t is a finite vector of the right length
    if cfg.scheme not in _TARGETLESS and not model.domain.contains_unchecked(t):
        raise ControlConfigError("target", "target outside the model domain")
    return t


@cache
def _float_step(d: int, after: bool):
    """``make(f, c_0, ..., c_{d-1}, k_0, ..., k_{d-1})``, which returns the
    controlled step of a tuple of ``d`` floats through the float step ``f``
    of a model without a formula, with the pull ``v -> (c_0 + k_0*v_0, ...)``
    after ``f`` or before it.

    The pull is written out component by component, its constants bound in
    the closure: a third of the time or less of mapping ``add`` and ``mul``
    over the tuples, for the same operations in the same order.  After the
    map, a base image that does not unpack into ``d`` components and add
    raises ``check_image``'s ``ValueError`` rather than being cut to fit.
    The source is compiled once per dimension and side, by ``core.compiled``.
    """
    cs, ks, vs = ([f"{v}{j}" for j in range(d)] for v in "ckv")
    unpack, pull = ", ".join(vs), ", ".join(f"{c} + {k} * {v}" for c, k, v in zip(cs, ks, vs))
    if after:
        body = (f"        y = f(x)\n"
                f"        try:\n"
                f"            {unpack}, = y\n"
                f"            return ({pull},)\n"
                f"        except (ValueError, TypeError):\n"
                f"            check_image(y, ({d},), {d}, 'the base map')\n"
                f"            raise\n")
    else:
        body = f"        {unpack}, = x\n        return f(({pull},))\n"
    return compiled(f"def make(f, {', '.join(cs + ks)}):\n    def step(x):\n{body}"
                    f"    return step\n")


def _controlled(model: MapModel, scheme: str, c, t: np.ndarray):
    """``(evaluate, evaluate_batch, evaluate_floats, jacobian)`` of the
    controlled map: the pull ``y -> c*T + (1-c)*y`` toward ``t`` before the
    base map (VTOC, PF) or after it (VMTOC, MPF, DIAG-VMTOC).

    ``c`` is a float, a ``(d,)`` vector of per-component intensities or an
    ``(n, 1)`` column of per-row intensities, for which only
    ``evaluate_batch`` applies: row r is pulled with intensity ``c[r]``.
    c*T and 1-c are computed once; each form's pull is bitwise
    ``c*T + (1-c)*y`` computed whole.
    """
    d = model.dimension
    ct, keep = c * t, 1.0 - c
    f, f_batch, f_floats, f_jac = (model.evaluate, model.evaluate_batch,
                                   model.evaluate_floats, model.jacobian)
    vector = isinstance(keep, np.ndarray)
    # (1-c) scales row i of the Jacobian: a scalar or a (d, 1) column
    scale = keep.reshape(-1, 1) if vector else keep
    after = scheme not in ("VTOC", "PF")
    # the float pull of component j, ct[j] + keep[j]*y[j], is bitwise the
    # array pull's; a column of intensities steps batches only
    evaluate_floats = None
    if ct.ndim == 1:
        pulls = ct.tolist() + (keep.tolist() if vector else [keep] * d)
        written = getattr(f_floats, "formula", None)
        if written is not None:
            formula, values = written
            evaluate_floats = formula.bind("after" if after else "before", *values, *pulls)
        else:
            evaluate_floats = _float_step(d, after)(f_floats, *pulls)

    def pull(y):
        return ct + keep * y

    # the pull, or the batch loop that stores a batch image, would cut an
    # image of the wrong shape or broadcast it; the base batch step is
    # called directly, not through evaluate_rows, so its image is checked once;
    # the (1-c) row scale would broadcast a base Jacobian of the wrong shape
    sized = partial(check_image, dim=d, what="the base map")

    if not after:
        def evaluate(x):
            return sized(np.asarray(f(pull(np.asarray(x, float))), float), (d,))

        def evaluate_batch(rows):
            return sized(np.asarray(f_batch(pull(rows)), float), rows.shape)

        def jacobian(x):
            j = np.asarray(f_jac(pull(np.asarray(x, float))), float)
            return scale * check_jacobian(j, d, "the base map")

    else:
        def evaluate(x):
            return pull(sized(np.asarray(f(x), float), (d,)))

        def evaluate_batch(rows):
            return pull(sized(np.asarray(f_batch(rows), float), rows.shape))

        def jacobian(x):
            return scale * check_jacobian(np.asarray(f_jac(x), float), d, "the base map")

    return evaluate, evaluate_batch, evaluate_floats, jacobian


def _controlled_map(model: MapModel, scheme: str, c, t: np.ndarray) -> MapModel:
    """:func:`controlled_map` at intensity ``c`` toward ``t``, checking nothing."""
    evaluate, evaluate_batch, evaluate_floats, jacobian = _controlled(model, scheme, c, t)
    name = f"{scheme}({model.name})" if model.name else scheme
    return MapModel(dimension=model.dimension, evaluate=evaluate, domain=model.domain,
                    name=name, jacobian=jacobian if model.jacobian is not None else None,
                    evaluate_batch=evaluate_batch if model.evaluate_batch is not None else None,
                    evaluate_floats=evaluate_floats)


def apply_control(model: MapModel, cfg: ControlConfig, x) -> np.ndarray:
    """One step of the controlled map at state ``x``."""
    return controlled_map(model, cfg).evaluate(as_state(x, model.dimension))


def controlled_map(model: MapModel, cfg: ControlConfig) -> MapModel:
    """Wrap ``model`` into the controlled self-map of the same domain.

    The wrapped model steps on floats through the base model's formula or
    float step and has an ``evaluate_batch`` when the base model does, each
    bitwise as its ``evaluate``; it chains the analytic Jacobian through
    when the base model has one, and otherwise falls back to finite
    differences.
    """
    t = _checked_target(model, cfg)
    c = cfg.intensity if cfg.is_scalar else cfg.intensity_vector(model.dimension)
    return _controlled_map(model, cfg.scheme, c, t)


def controlled_rows(model: MapModel, scheme: str, target, intensities):
    """Check a scan's control once; return ``(step_for, map_at)``, which check nothing.

    The checks: the scheme, ``DIAG-VMTOC`` rejected by name since its
    intensities have no rows, every intensity, also for none, then the
    target.  ``map_at(r)`` is the controlled map of grid point ``r``, and
    ``step_for(rows)`` the batched step of the grid points in the index
    array ``rows``: it maps row k bitwise as ``map_at(rows[k])`` maps it.
    """
    cfg = ControlConfig(scheme=scheme, intensity=0.0, target=target)
    if not cfg.is_scalar:
        raise ControlConfigError(
            "scheme", f"scans take a scalar-intensity scheme, got {scheme!r}, whose step "
                      f"expected {model.dimension} intensities, one per component")
    column = np.asarray(intensities, dtype=float).reshape(-1, 1)
    check_intensity(column)
    t, cs = _checked_target(model, cfg), column.ravel().tolist()

    def step_for(rows):
        return _controlled(model, scheme, column[rows], t)[1]

    def map_at(r):
        return _controlled_map(model, scheme, cs[r], t)

    return step_for, map_at


def compose_vmtoc(first, second):
    """Collapse two VMTOC stages applied in one step into a single VMTOC.

    ``first`` and ``second`` are ``(c, T)`` pairs, ``first`` being the stage
    applied to the map output first.  The combined control is

        c = c1*(1-c2) + c2,   T = [c1*(1-c2)/c]*T1 + [c2/c]*T2,

    a convex combination, so T stays in any convex domain containing T1 and
    T2.  A zero intensity acts as the identity stage: the other pair is
    returned unchanged, and ``(0.0, None)`` signals that both stages were
    trivial.
    """
    c1, t1 = first
    c2, t2 = second
    c1, c2 = float(c1), float(c2)
    check_intensity((c1, c2))
    if c1 == 0.0 and c2 == 0.0:
        return 0.0, None
    if c1 == 0.0:
        return c2, as_state(t2, what="target")
    if c2 == 0.0:
        return c1, as_state(t1, what="target")
    t1 = as_state(t1, what="target")
    t2 = as_state(t2, dim=t1.shape[0], what="target")
    c = c1 * (1.0 - c2) + c2
    t = (c1 * (1.0 - c2) / c) * t1 + (c2 / c) * t2
    t.flags.writeable = False
    return c, t


def target_for_state(model: MapModel, k, alpha: float):
    """Intensity and target that make an arbitrary interior state an equilibrium.

    For ``alpha > 1`` returns ``c = 1/alpha`` and ``T = alpha*K + (1-alpha)*f(K)``,
    which satisfy ``c*T + (1-c)*f(K) = K`` exactly.  Larger ``alpha`` pushes the
    target further out along the ray from f(K) through K while weakening the
    control, so the target may leave the domain; that raises ``ValueError``,
    and so does an image f(K) without the model's dimension.
    """
    k = as_state(k, model.dimension)
    alpha = float(alpha)
    if not 1.0 < alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be finite and greater than 1, got {alpha}")
    if not model.domain.contains(k):
        raise ValueError("K outside the model domain")
    if not model.domain.is_interior(k):
        raise ValueError("K lies on the domain boundary")
    fk = check_image(np.asarray(model.evaluate(k), dtype=float), k.shape, model.dimension)
    t = alpha * k + (1.0 - alpha) * fk
    if not model.domain.contains(t):
        raise ValueError("alpha too large for domain")
    t.flags.writeable = False
    return 1.0 / alpha, t


def conjugate_state(cfg: ControlConfig, x) -> np.ndarray:
    """The change of variables phi(x) = c*T + (1-c)*x linking VTOC and VMTOC.

    Orbits of the two schemes correspond through phi: if y0 = phi(x0), the
    VMTOC orbit from y0 equals phi of the VTOC orbit from x0.  phi is
    invertible for every c < 1.  Only scalar-intensity schemes are accepted.
    """
    if not cfg.is_scalar:
        raise ValueError("conjugate_state requires a scalar-intensity scheme")
    x = as_state(x)
    c, t = cfg.intensity, cfg.target_vector(x.shape[0])
    return c * t + (1.0 - c) * x
