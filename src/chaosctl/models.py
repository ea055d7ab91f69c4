"""Built-in benchmark maps.

Two models ship with the package:

* the three-stage LPA (larvae-pupae-adults) flour beetle model, whose
  default parameters put it in a chaotic regime with a strange attractor,
* the delayed Ricker map, lifted from a scalar higher-order recursion to a
  first-order system via a delay line.

Both expose an analytic Jacobian and self-map the nonnegative orthant.
Each map's arithmetic is written once, as a closure over the model's
parameters that takes the components of a state, ``exp`` and a conversion
``fl`` of exp's result.  The float step, bound when the model is built,
passes ``np.exp``, which gives a Python float bitwise the value it gives an
array element, and ``float``, which keeps those bits, so the rest is IEEE
arithmetic on Python floats.  The array form passes a no-op conversion and
numpy columns or the components of one state ``(d,)``, so a row of a batch,
one state alone and a tuple of floats all have bitwise the same image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainSpec, MapModel, ParamError


@dataclass(frozen=True)
class LpaParams:
    """LPA model parameters.

    b       larval recruits per adult per unit time (> 0, finite)
    c_el    cannibalism of eggs by larvae (>= 0, finite)
    c_ea    cannibalism of eggs by adults (>= 0, finite)
    c_pa    cannibalism of pupae by adults (>= 0, finite)
    mu_l    larval mortality rate, in (0, 1)
    mu_a    adult mortality rate, in (0, 1)

    The defaults are the classic chaotic flour-beetle set.  A field out of
    range, NaN included, raises :class:`~chaosctl.core.ParamError` naming it.
    """

    b: float = 10.45
    c_el: float = 0.01731
    c_ea: float = 0.01310
    c_pa: float = 0.35
    mu_l: float = 0.200
    mu_a: float = 0.96

    def __post_init__(self):
        _check_fields(self, (("b", lambda v: 0.0 < v < math.inf, "be positive and finite"),
                             *[(f, lambda v: 0.0 <= v < math.inf, "be nonnegative and finite")
                               for f in ("c_el", "c_ea", "c_pa")],
                             *[(f, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
                               for f in ("mu_l", "mu_a")]))


def _check_fields(params, rules) -> None:
    """Raise :class:`ParamError` naming the first ``(field, test, rule)`` of
    ``rules`` whose test the field's value fails; NaN fails every test."""
    for name, test, rule in rules:
        value = getattr(params, name)
        if not test(value):
            raise ParamError(name, f"{name} must {rule}, got {value}")


def _same(v):
    return v


def _on_arrays(formula, x) -> np.ndarray:
    """``formula`` of one state ``(d,)`` or of an ``(n, d)`` array of states, as an array."""
    x = np.asarray(x, dtype=float)
    # the transpose puts the component axis first: for one state the
    # components are numpy scalars, for a batch they are columns
    out = np.empty_like(x)
    o = out.T
    for j, v in enumerate(formula(x.T, np.exp, _same)):
        o[j] = v
    return out


def _lpa_formula(p: LpaParams):
    """One generation of the LPA map, ``formula(x, exp=np.exp, fl=float)``,
    on the components (L, P, A) of ``x``:

        L' = b*A*exp(-c_el*L - c_ea*A)
        P' = (1 - mu_l)*L
        A' = P*exp(-c_pa*A) + A*(1 - mu_a)

    Returns the tuple of the image's components.  With nonnegative input
    every exponent argument is <= 0, so the evaluation cannot overflow.
    """
    b, c_el, c_ea, c_pa = p.b, p.c_el, p.c_ea, p.c_pa
    keep_l, keep_a = 1.0 - p.mu_l, 1.0 - p.mu_a

    def formula(x, exp=np.exp, fl=float):
        # indexing, not unpacking, which would iterate an array slowly
        L, P, A = x[0], x[1], x[2]
        return (b * A * fl(exp(-c_el * L - c_ea * A)),
                keep_l * L,
                P * fl(exp(-c_pa * A)) + A * keep_a)

    return formula


def lpa_eval(p: LpaParams, x) -> np.ndarray:
    """The LPA map of one state ``(3,)`` or of an ``(n, 3)`` array of states."""
    return _on_arrays(_lpa_formula(p), x)


def lpa_jacobian(p: LpaParams, x) -> np.ndarray:
    """Analytic Jacobian of the LPA map.

    Zero pattern: entries (0,1), (1,1), (1,2) and (2,0) vanish identically,
    and entry (1,0) equals 1 - mu_l exactly.
    """
    L, P, A = float(x[0]), float(x[1]), float(x[2])
    e_rec = math.exp(-p.c_el * L - p.c_ea * A)
    e_pa = math.exp(-p.c_pa * A)
    return np.array([
        [-p.b * p.c_el * A * e_rec, 0.0, p.b * (1.0 - p.c_ea * A) * e_rec],
        [1.0 - p.mu_l, 0.0, 0.0],
        [0.0, e_pa, 1.0 - p.mu_a - p.c_pa * P * e_pa],
    ])


def lpa_recruitment_bound(p: LpaParams) -> float:
    """Supremum of the larval recruitment b*A*exp(-c_ea*A) over A >= 0.

    Equals b/(e*c_ea); beyond this size the max-norm of the state can only
    shrink under the map, which is what guarantees equilibria of the
    controlled system inside a bounded region.
    """
    return p.b / (math.e * p.c_ea)


def lpa_map(p: LpaParams | None = None) -> MapModel:
    """The LPA model as a ``MapModel`` on the nonnegative orthant."""
    p = p or LpaParams()

    def evaluate(x):
        return lpa_eval(p, x)

    def jacobian(x):
        return lpa_jacobian(p, x)

    return MapModel(dimension=3, evaluate=evaluate, domain=DomainSpec.nonnegative_orthant(3),
                    jacobian=jacobian, name="lpa", evaluate_batch=evaluate,
                    evaluate_floats=_lpa_formula(p))


@dataclass(frozen=True)
class RickerParams:
    """Delayed Ricker parameters: finite growth rate ``r`` and integer delay
    ``delay`` >= 2; a field out of range raises :class:`~chaosctl.core.ParamError`."""

    r: float
    delay: int

    def __post_init__(self):
        _check_fields(self, [("r", math.isfinite, "be finite"),
                             ("delay", lambda v: float(v).is_integer() and v >= 2,
                              "be an integer >= 2")])
        object.__setattr__(self, "delay", int(self.delay))
        object.__setattr__(self, "r", float(self.r))


def _ricker_formula(p: RickerParams):
    """The lifted delayed Ricker map, as :func:`_lpa_formula` gives the LPA map.

    The state holds the last ``delay`` population values, newest first; the
    update multiplies the newest value by exp(r - oldest) and shifts the
    rest down the delay line, so iterating the lift reproduces the scalar
    recursion u[n+1] = u[n]*exp(r - u[n-delay+1]).
    """
    r, oldest = p.r, p.delay - 1

    def formula(x, exp=np.exp, fl=float):
        return (x[0] * fl(exp(r - x[oldest])), *x[:-1])

    return formula


def ricker_eval(p: RickerParams, x) -> np.ndarray:
    """The Ricker lift of one state ``(delay,)`` or of an ``(n, delay)`` array of states."""
    return _on_arrays(_ricker_formula(p), x)


def ricker_jacobian(p: RickerParams, x) -> np.ndarray:
    d = p.delay
    growth = math.exp(p.r - float(x[d - 1]))
    out = np.zeros((d, d))
    out[0, 0] = growth
    out[0, d - 1] = -float(x[0]) * growth
    for i in range(1, d):
        out[i, i - 1] = 1.0
    return out


def ricker_lift(p: RickerParams) -> MapModel:
    """The delayed Ricker recursion as a first-order system of dimension ``delay``."""

    def evaluate(x):
        return ricker_eval(p, x)

    def jacobian(x):
        return ricker_jacobian(p, x)

    return MapModel(dimension=p.delay, evaluate=evaluate,
                    domain=DomainSpec.nonnegative_orthant(p.delay),
                    jacobian=jacobian, name="ricker", evaluate_batch=evaluate,
                    evaluate_floats=_ricker_formula(p))
