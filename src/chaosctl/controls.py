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
a tuple of floats of every scheme and model is one function, compiled once
per dimension and side of the map, around the base model's float step.
After the map, a base image without the model's dimension raises
``ValueError``, and so does, either side of it, a batch image without the
rows' shape.
A scan builds one controlled map per lone grid point, so building one of a
scalar scheme checks its intensity and target on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from operator import le
from typing import Optional, Tuple, Union

import numpy as np

from .core import MapModel, ParamError, as_state, check_image

SCHEMES = ("VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC")
_TARGETLESS = ("PF", "MPF")


class ControlConfigError(ParamError):
    """An invalid :class:`ControlConfig`; ``field`` names the offending field."""


def check_intensity(c) -> None:
    """Raise unless every intensity in ``c``, a scalar or an array, lies in [0, 1); NaN fails."""
    # a float in range needs no array; any other value takes the array path,
    # which names the first bad one
    if isinstance(c, float) and 0.0 <= c < 1.0:
        return
    c = np.asarray(c, dtype=float)
    bad = c[~((c >= 0.0) & (c < 1.0))]
    if bad.size:
        raise ControlConfigError("intensity",
                                 f"control intensity must lie in [0, 1), got {bad[0]}")


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
            cs = tuple(float(c) for c in np.atleast_1d(self.intensity))
            object.__setattr__(self, "intensity", cs)
        else:
            if not isinstance(self.intensity, float) and np.ndim(self.intensity) != 0:
                raise ControlConfigError("intensity", f"{self.scheme} takes a scalar intensity")
            object.__setattr__(self, "intensity", float(self.intensity))
        check_intensity(self.intensity)
        if self.target is not None:
            object.__setattr__(self, "target", tuple(map(float, self.target)))
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
    d, t = model.dimension, cfg.target
    if cfg.scheme in _TARGETLESS or t is None:
        return np.zeros(d)
    # t is a tuple of floats: only a bad one pays for target_vector's checks,
    # which raise with their messages
    if len(t) != d or not all(map(math.isfinite, t)):
        cfg.target_vector(d)
    # a finite t lies in the box exactly when lo <= t <= hi componentwise
    if not (all(map(le, model.domain.lo, t)) and all(map(le, t, model.domain.hi))):
        raise ControlConfigError("target", "target outside the model domain")
    return np.array(t)


@cache
def _float_step(d: int, after: bool):
    """``make(f, c_0, ..., c_{d-1}, k_0, ..., k_{d-1})``, which returns the
    controlled step of a tuple of ``d`` floats through the base float step
    ``f``, with the pull ``v -> (c_0 + k_0*v_0, ...)`` after ``f`` or before it.

    The pull is written out component by component, its constants bound in
    the closure: a third of the time or less of mapping ``add`` and ``mul``
    over the tuples, for the same operations in the same order.  After the
    map, a base image that does not unpack into ``d`` components and add
    raises ``check_image``'s ``ValueError`` rather than being cut to fit.
    The source is compiled once per dimension and side, as ``dataclasses``
    builds ``__init__``: compiling it for each map would cost more than a
    chained scan point's whole orbit.
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
    namespace = {"check_image": check_image}
    exec(f"def make(f, {', '.join(cs + ks)}):\n    def step(x):\n{body}    return step\n",
         namespace)
    return namespace["make"]


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
    f, f_rows, f_floats, f_jac = (model.evaluate, model.evaluate_rows,
                                  model.evaluate_floats, model.jacobian)
    vector = isinstance(keep, np.ndarray)
    # (1-c) scales row i of the Jacobian: a scalar or a (d, 1) column
    scale = keep.reshape(-1, 1) if vector else keep
    after = scheme not in ("VTOC", "PF")
    # the float pull of component j, ct[j] + keep[j]*y[j], is bitwise the
    # array pull's; a column of intensities steps batches only
    evaluate_floats = (_float_step(d, after)(f_floats, *ct.tolist(),
                                             *(keep.tolist() if vector else [keep] * d))
                       if ct.ndim == 1 else None)

    def pull(y):
        return ct + keep * y

    # the pull, or the batch loop that stores a batch image, would cut an
    # image of the wrong shape or broadcast it
    sized = partial(check_image, dim=d, what="the base map")

    if not after:
        def evaluate(x):
            return np.asarray(f(pull(np.asarray(x, float))), float)

        def evaluate_batch(rows):
            return sized(f_rows(pull(rows)), rows.shape)

        def jacobian(x):
            return scale * np.asarray(f_jac(pull(np.asarray(x, float))), float)

    else:
        def evaluate(x):
            return pull(sized(np.asarray(f(x), float), (d,)))

        def evaluate_batch(rows):
            return pull(sized(f_rows(rows), rows.shape))

        def jacobian(x):
            return scale * np.asarray(f_jac(x), float)

    return evaluate, evaluate_batch, evaluate_floats, jacobian


def apply_control(model: MapModel, cfg: ControlConfig, x) -> np.ndarray:
    """One step of the controlled map at state ``x``."""
    return controlled_map(model, cfg).evaluate(as_state(x, model.dimension))


def controlled_map(model: MapModel, cfg: ControlConfig) -> MapModel:
    """Wrap ``model`` into the controlled self-map of the same domain.

    The wrapped model steps on floats through the base model's float step
    and has an ``evaluate_batch`` when the base model does, each bitwise as
    its ``evaluate``; it chains the analytic Jacobian through when the base
    model has one, and otherwise falls back to finite differences.
    """
    t = _checked_target(model, cfg)
    c = cfg.intensity if cfg.is_scalar else cfg.intensity_vector(model.dimension)
    evaluate, evaluate_batch, evaluate_floats, jacobian = _controlled(model, cfg.scheme, c, t)
    name = f"{cfg.scheme}({model.name})" if model.name else cfg.scheme
    return MapModel(dimension=model.dimension, evaluate=evaluate, domain=model.domain,
                    name=name, jacobian=jacobian if model.jacobian is not None else None,
                    evaluate_batch=evaluate_batch if model.evaluate_batch is not None else None,
                    evaluate_floats=evaluate_floats)


def controlled_rows(model: MapModel, scheme: str, target, intensities):
    """Batched step of one scheme and target at many intensities.

    Returns a function that maps an ``(n, d)`` array of states to their
    images, row r controlled with intensity ``intensities[r]``; ``n`` is the
    number of intensities.  Row r is bitwise the row that the
    ``evaluate_batch`` of ``controlled_map`` at that intensity gives.
    Building it checks the scheme, the target and every intensity, also for
    none, and rejects ``DIAG-VMTOC`` by name: its intensities have no rows.
    """
    cfg = ControlConfig(scheme=scheme, intensity=0.0, target=target)
    if not cfg.is_scalar:
        raise ControlConfigError(
            "scheme", f"scans take a scalar-intensity scheme, got {scheme!r}, whose step "
                      f"expected {model.dimension} intensities, one per component")
    c = np.asarray(intensities, dtype=float).reshape(-1, 1)
    check_intensity(c)
    return _controlled(model, cfg.scheme, c, _checked_target(model, cfg))[1]


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
    control, so the target may leave the domain; that raises ``ValueError``.
    """
    k = as_state(k, model.dimension)
    alpha = float(alpha)
    if alpha <= 1.0:
        raise ValueError("alpha must be greater than 1")
    if not model.domain.contains(k):
        raise ValueError("K outside the model domain")
    if not model.domain.is_interior(k):
        raise ValueError("K lies on the domain boundary")
    fk = np.asarray(model.evaluate(k), dtype=float)
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
