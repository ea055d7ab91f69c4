"""Control laws for discrete maps and the algebra that combines them.

Five schemes are provided.  With intensity ``c`` and target ``T``:

* ``VMTOC``      x' = c*T + (1-c)*f(x)      (nudge after the map)
* ``VTOC``       x' = f(c*T + (1-c)*x)      (nudge before the map)
* ``MPF``        x' = (1-c)*f(x)            (proportional culling after)
* ``PF``         x' = f((1-c)*x)            (proportional culling before)
* ``DIAG-VMTOC`` x' = C*T + (I-C)*f(x)      (VMTOC by another name)

Every scheme takes one kind of intensity: a scalar, the same on every
component, or a vector of one per component, ``C = diag(c)``, each in [0,
1), and every product with ``c`` is element by element.  PF and MPF are
exactly VTOC and VMTOC with a zero target, and DIAG-VMTOC is VMTOC.
``SCHEMES`` maps each scheme to its side of the base map, ``"after"`` or
``"before"``, and is the one place the side is stated: the schemes after
the map, ``POST_MAP_SCHEMES`` (VMTOC, MPF, DIAG-VMTOC), nudge the image by
``c*(T - f(x))``, with ``T = 0`` for MPF, which is what a control costs
and what the contraction certificate bounds.  One
unchecked builder, ``_controlled``, makes the controlled map of every
scheme: the side of the map picks which of the pull and the identity runs
inside the base step and which outside it, once, and every form (single
state, batch, Jacobian) follows from that pair, so the reduction and the
agreement of the forms are bit-for-bit.  One array step wraps the base
``evaluate`` and ``evaluate_batch`` alike and checks the base image: one
without the input's shape, its last axis the model's dimension, raises
``ValueError``; the batch step calls the base ``evaluate_batch`` itself,
so its image is checked once a step.  One Jacobian scales the base one by ``1-c``, its rows
after the map and its columns before it, and one Jacobian stack the base
model's stack (:meth:`~chaosctl.core.MapModel.jacobian_rows`) at the
pulled states.  The step on a tuple of floats is
:func:`~chaosctl.core.pulled_float_step` of the base model's: its formula
with the pull written in, for the built-in models, or a compiled wrapper
around its float step.  A control is checked apart from building its maps,
so a scan checks its control once (``controlled_rows``).  A fresh scan's
batch steps the states as columns: for a model whose batch step carries
its formula, the formula's column form with each grid point's pull written
in (:func:`~chaosctl.core.pulled_columns`), and otherwise the one array
step on the states' rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import (MapModel, ParamError, as_state, check_image, check_jacobian,
                   pulled_columns, pulled_float_step, state_text)

# each scheme's side of the base map: the one place it is stated
SCHEMES = {"VMTOC": "after", "VTOC": "before", "PF": "before", "MPF": "after",
           "DIAG-VMTOC": "after"}
_TARGETLESS = ("PF", "MPF")
# the controls after the map, whose nudge c*(T - f(x)) is the cost, T = 0 for MPF
POST_MAP_SCHEMES = tuple(s for s, side in SCHEMES.items() if side == "after")


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

    ``intensity`` is, for every scheme, a float in [0, 1), the same on every
    component, or a tuple of per-component values, each in [0, 1); its
    length is checked against the model's dimension when a map is built
    (:meth:`intensity_vector`).  ``target`` is ignored by PF/MPF, where it
    is implicitly zero.
    """

    scheme: str
    intensity: Union[float, Tuple[float, ...]]
    target: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ControlConfigError("scheme", f"unknown control scheme: {self.scheme!r}")
        c = _floats(self.intensity, "intensity", (0, 1),
                    f"{self.scheme} takes a scalar or a 1-D vector of intensities, "
                    "got shape {shape}")
        object.__setattr__(self, "intensity", float(c) if c.ndim == 0 else tuple(c.tolist()))
        check_intensity(self.intensity)
        if self.target is not None:
            t = _floats(self.target, "target", (1,),
                        "target must be a 1-D vector, got shape {shape}")
            object.__setattr__(self, "target", tuple(t.tolist()))
        elif self.scheme not in _TARGETLESS:
            raise ControlConfigError("target", f"{self.scheme} requires a target")

    def intensity_vector(self, dim: int) -> np.ndarray:
        c = np.asarray(self.intensity, dtype=float)
        if c.ndim == 0:
            return np.full(dim, float(c))
        if c.shape != (dim,):
            raise ControlConfigError(
                "intensity", f"dimension mismatch: expected {dim} intensities, got {c.shape[0]}")
        return c

    def target_vector(self, dim: int) -> np.ndarray:
        if self.scheme in _TARGETLESS:
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


def _float_step(model: MapModel, scheme: str, c, t: np.ndarray):
    """:func:`_controlled`'s float step at a float or ``(d,)`` ``c``, bitwise its array pull."""
    ct, keep = c * t, 1.0 - c
    keeps = keep.tolist() if isinstance(keep, np.ndarray) else [keep] * model.dimension
    return pulled_float_step(model.evaluate_floats, SCHEMES[scheme], ct.tolist() + keeps)


class _GridPointMap:
    """:func:`_controlled` of a scan's grid point: the domain and float step
    its lone orbit runs, and the rest, built on first use to replay a failure."""

    def __init__(self, model: MapModel, scheme: str, c: float, t: np.ndarray):
        self._args = model, scheme, c, t
        self.domain, self.evaluate_floats = model.domain, _float_step(*self._args)

    def __getattr__(self, name):  # reached only for what __init__ does not set
        self.full = self.__dict__.get("full") or _controlled(*self._args)
        return getattr(self.full, name)


def _controlled(model: MapModel, scheme: str, c, t: np.ndarray) -> MapModel:
    """:func:`controlled_map` at intensity ``c`` toward ``t``, checking
    nothing: the pull ``y -> c*T + (1-c)*y`` on the side of the base map
    that ``SCHEMES[scheme]`` names, before it (VTOC, PF) or after it
    (VMTOC, MPF, DIAG-VMTOC).

    ``c`` is a float, a ``(d,)`` vector of per-component intensities or an
    ``(n, 1)`` column of per-row intensities, for which only
    ``evaluate_batch`` applies: row r is pulled with intensity ``c[r]``.
    c*T and 1-c are computed once; each form's pull is bitwise
    ``c*T + (1-c)*y`` computed whole.  By the chain rule ``1-c`` scales row
    i of the base Jacobian after the map, ``diag(1-c) J(x)``, and column j
    before it, ``J(c*T + (1-c)*x) diag(1-c)``.
    """
    d = model.dimension
    ct, keep = c * t, 1.0 - c

    def pull(y):
        return ct + keep * y

    def same(y):
        return y

    inner, outer = (pull, same) if SCHEMES[scheme] == "before" else (same, pull)
    # the pull would cut an image of the wrong shape or broadcast it, so the
    # base image must have the input's shape with a last axis of d; the base
    # batch step is called directly, not through evaluate_rows, so it is
    # checked once
    def array_step(f):
        def step(x):
            x = np.asarray(x, float)
            y = np.asarray(f(inner(x)), float)
            return outer(check_image(y, x.shape[:-1] + (d,), d, "the base map"))
        return step

    # (1-c) scales the Jacobian's rows after the map, as a (d, 1) column,
    # and its columns before it; either would broadcast a base Jacobian of
    # the wrong shape, which is checked first
    scale = keep if SCHEMES[scheme] == "before" else np.reshape(keep, (-1, 1))

    def jacobian(x):
        j = np.asarray(model.jacobian(inner(np.asarray(x, float))), float)
        return scale * check_jacobian(j, d, "the base map")

    def jacobian_batch(rows):
        # the rows pulled once and the base's stack, checked once as the base
        # made it, scaled once: bitwise each row's product.  A failing row
        # makes jacobian_rows replay the rows through the jacobian above, so
        # that the caller's stack holds the rows before it
        stack = model.jacobian_rows(inner(rows), what="the base map")
        stack *= scale
        return stack

    analytic = model.jacobian is not None
    name = f"{scheme}({model.name})" if model.name else scheme
    # a column of intensities steps batches only
    return MapModel(dimension=d, evaluate=array_step(model.evaluate), domain=model.domain,
                    name=name, jacobian=jacobian if analytic else None,
                    jacobian_batch=jacobian_batch if analytic else None,
                    evaluate_batch=(array_step(model.evaluate_batch)
                                    if model.evaluate_batch is not None else None),
                    evaluate_floats=None if ct.ndim > 1 else _float_step(model, scheme, c, t))


def apply_control(model: MapModel, cfg: ControlConfig, x) -> np.ndarray:
    """One step of the controlled map at state ``x``."""
    return controlled_map(model, cfg).evaluate(as_state(x, model.dimension))


def controlled_map(model: MapModel, cfg: ControlConfig) -> MapModel:
    """Wrap ``model`` into the controlled self-map of the same domain.

    The map runs at ``cfg``'s intensity as a ``(d,)`` vector
    (:meth:`ControlConfig.intensity_vector`), which for a scalar is the
    same arithmetic element by element.  The wrapped model steps on floats
    through the base model's formula or float step and has an
    ``evaluate_batch`` when the base model does, each bitwise as its
    ``evaluate``; it chains the analytic Jacobian through when the base
    model has one, and with it a ``jacobian_batch`` that scales the base
    model's stack of Jacobians once, bitwise row by row as its
    ``jacobian``; otherwise it falls back to finite differences.
    """
    t = _checked_target(model, cfg)
    return _controlled(model, cfg.scheme, cfg.intensity_vector(model.dimension), t)


def controlled_rows(model: MapModel, scheme: str, target, intensities):
    """Check a scan's control once; return ``(step_for, map_at)``, which check nothing.

    Every scheme of ``SCHEMES`` scans, pulled on its side of the base map.
    The checks: the scheme, every intensity, also for none, then the
    target.  Each grid point's intensity is a scalar, so a ``DIAG-VMTOC``
    scan is the ``VMTOC`` scan.  ``map_at(r)`` is the controlled map of grid
    point ``r``, built but for its float step on first use, and
    ``step_for(rows)`` the batched step of the grid points in the index
    array ``rows``: ``step(x, out)`` writes the image of the states ``x``,
    as columns ``(d, n)``, into ``out``
    (:func:`~chaosctl.core.pulled_columns`), and maps state k bitwise as
    ``map_at(rows[k])`` maps it.  A model's batch step with a formula has
    the pull of column k written in; any other gets the ``(n, d)`` rows of
    the states from :func:`_controlled`'s batch step, which checks its image.
    """
    cfg = ControlConfig(scheme=scheme, intensity=0.0, target=target)
    column = np.asarray(intensities, dtype=float).reshape(-1, 1)
    check_intensity(column)
    t, cs = _checked_target(model, cfg), column.ravel().tolist()
    side = SCHEMES[scheme]

    def step_for(rows):
        c = column[rows]
        step = pulled_columns(model.evaluate_batch, side, np.outer(t, c), 1.0 - c.ravel())
        if step is not None:
            return step
        on_rows = _controlled(model, scheme, c, t).evaluate_batch

        def on_columns(x, out):
            out[...] = on_rows(np.ascontiguousarray(x.T)).T
        return on_columns

    def map_at(r):
        return _GridPointMap(model, scheme, cs[r], t)

    return step_for, map_at


def compose_vmtoc(first, second):
    """Collapse two VMTOC stages applied in one step into a single VMTOC.

    ``first`` and ``second`` are ``(c, T)`` pairs, ``first`` being the stage
    applied to the map output first.  The combined control is

        c = c1*(1-c2) + c2,   T = [c1*(1-c2)/c]*T1 + [c2/c]*T2,

    a convex combination, so T stays in any convex domain containing T1 and
    T2.  A zero intensity acts as the identity stage: the other pair is
    returned unchanged, and ``(0.0, None)`` signals that both stages were
    trivial.  The stages' intensities must be scalars: a per-component
    one raises ``ValueError`` naming its stage.
    """
    c1, t1 = first
    c2, t2 = second
    for stage, c in (("first", c1), ("second", c2)):
        if np.ndim(c):
            raise ValueError(f"compose_vmtoc composes scalar stages, but the {stage} stage "
                             f"has intensities of shape {np.shape(c)}")
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
    and so does an image f(K) without the model's dimension, or one that is
    not finite, named with K before T is formed.
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
    if not np.isfinite(fk).all():
        raise ValueError(f"non-finite image at K = {state_text(k)}")
    t = alpha * k + (1.0 - alpha) * fk
    if not model.domain.contains(t):
        raise ValueError("alpha too large for domain")
    t.flags.writeable = False
    return 1.0 / alpha, t


def conjugate_state(cfg: ControlConfig, x) -> np.ndarray:
    """The change of variables phi(x) = C*T + (I-C)*x linking VTOC and VMTOC.

    ``C = diag(c)``, a scalar ``c`` being the same on every component.
    Orbits of the two schemes correspond through phi: if y0 = phi(x0), the
    VMTOC orbit from y0 equals phi of the VTOC orbit from x0.  phi is
    invertible for every c < 1.  A state of another length than the target
    or the intensities raises ``ValueError``.
    """
    x = as_state(x)
    if cfg.scheme not in _TARGETLESS and len(cfg.target) != x.shape[0]:
        raise ValueError(f"state has {x.shape[0]} components, but the target has "
                         f"{len(cfg.target)}")
    c, t = cfg.intensity_vector(x.shape[0]), cfg.target_vector(x.shape[0])
    return c * t + (1.0 - c) * x
