"""Control laws for discrete maps and the algebra that combines them.

Five schemes are provided.  With intensity ``c`` and target ``T``:

* ``VMTOC``      x' = c*T + (1-c)*f(x)      (nudge after the map)
* ``VTOC``       x' = f(c*T + (1-c)*x)      (nudge before the map)
* ``MPF``        x' = (1-c)*f(x)            (proportional culling after)
* ``PF``         x' = f((1-c)*x)            (proportional culling before)
* ``DIAG-VMTOC`` x' = C*T + (I-C)*f(x)      (per-component intensities C)

PF and MPF are exactly VTOC and VMTOC with a zero target; the code paths
are shared so the reduction is bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import MapModel, as_state

SCHEMES = ("VMTOC", "VTOC", "PF", "MPF", "DIAG-VMTOC")
_TARGETLESS = ("PF", "MPF")


class ControlConfigError(ValueError):
    """An invalid :class:`ControlConfig`; ``field`` names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
            if np.ndim(self.intensity) != 0:
                raise ControlConfigError("intensity", f"{self.scheme} takes a scalar intensity")
            object.__setattr__(self, "intensity", float(self.intensity))
        for c in np.atleast_1d(self.intensity):
            if not (0.0 <= c < 1.0):
                raise ControlConfigError(
                    "intensity", f"control intensity must lie in [0, 1), got {c}")
        if self.target is not None:
            object.__setattr__(self, "target", tuple(float(t) for t in self.target))
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
            raise ValueError(f"dimension mismatch: expected {dim} intensities, got {c.shape[0]}")
        return c

    def target_vector(self, dim: int) -> np.ndarray:
        if self.scheme in _TARGETLESS or self.target is None:
            return np.zeros(dim)
        return as_state(self.target, dim, what="target")


def _pull(c, target: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The affine transform c*T + (1-c)*y shared by every scheme."""
    return c * target + (1.0 - c) * y


def apply_control(model: MapModel, cfg: ControlConfig, x) -> np.ndarray:
    """One step of the controlled map at state ``x``."""
    return controlled_map(model, cfg).evaluate(as_state(x, model.dimension))


def controlled_map(model: MapModel, cfg: ControlConfig) -> MapModel:
    """Wrap ``model`` into the controlled self-map of the same domain.

    Every scheme is the pull toward the target, applied to the state before
    ``f`` (VTOC, PF) or to its image after it (VMTOC, MPF, DIAG-VMTOC).  The
    analytic Jacobian is chained through when the base model has one;
    otherwise the wrapped model falls back to finite differences.
    """
    dim = model.dimension
    t = cfg.target_vector(dim)
    if cfg.scheme not in _TARGETLESS and not model.domain.contains(t):
        raise ValueError("target outside the model domain")
    c = cfg.intensity if cfg.is_scalar else cfg.intensity_vector(dim)
    # (1-c) scales row i of the Jacobian: a (1, 1) or (dim, 1) column.
    rows = np.reshape(1.0 - np.asarray(c), (-1, 1))

    if cfg.scheme in ("VTOC", "PF"):
        def evaluate(x):
            return np.asarray(model.evaluate(_pull(c, t, np.asarray(x, float))), float)

        def jac(x):
            return rows * np.asarray(model.jacobian(_pull(c, t, np.asarray(x, float))), float)

    else:
        def evaluate(x):
            return _pull(c, t, np.asarray(model.evaluate(x), float))

        def jac(x):
            return rows * np.asarray(model.jacobian(x), float)

    name = f"{cfg.scheme}({model.name})" if model.name else cfg.scheme
    return MapModel(dimension=dim, evaluate=evaluate, domain=model.domain,
                    jacobian=jac if model.jacobian is not None else None, name=name)


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
    for c in (c1, c2):
        if not (0.0 <= c < 1.0):
            raise ValueError(f"control intensity must lie in [0, 1), got {c}")
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
    t = cfg.target_vector(x.shape[0])
    return _pull(cfg.intensity, t, x)
