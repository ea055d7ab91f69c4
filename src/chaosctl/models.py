"""Built-in benchmark maps.

Two models ship with the package:

* the three-stage LPA (larvae-pupae-adults) flour beetle model, whose
  default parameters put it in a chaotic regime with a strange attractor,
* the delayed Ricker map, lifted from a scalar higher-order recursion to a
  first-order system via a delay line.

Both expose an analytic Jacobian and self-map the nonnegative orthant.  A
single state is evaluated with plain ``math`` calls; the batched versions
evaluate every row of an ``(n, d)`` array with one ``numpy`` call per term,
for the orbit loop of ``dynamics``.  ``np.exp`` and ``math.exp`` may differ
in the last bit, so the two are equal only up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainSpec, MapModel


@dataclass(frozen=True)
class LpaParams:
    """LPA model parameters.

    b       larval recruits per adult per unit time (> 0)
    c_el    cannibalism of eggs by larvae (>= 0)
    c_ea    cannibalism of eggs by adults (>= 0)
    c_pa    cannibalism of pupae by adults (>= 0)
    mu_l    larval mortality rate, in (0, 1)
    mu_a    adult mortality rate, in (0, 1)

    The defaults are the classic chaotic flour-beetle set.
    """

    b: float = 10.45
    c_el: float = 0.01731
    c_ea: float = 0.01310
    c_pa: float = 0.35
    mu_l: float = 0.200
    mu_a: float = 0.96

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("b must be positive")
        if min(self.c_el, self.c_ea, self.c_pa) < 0:
            raise ValueError("cannibalism coefficients must be nonnegative")
        if not (0.0 < self.mu_l < 1.0) or not (0.0 < self.mu_a < 1.0):
            raise ValueError("mortality rates must lie in (0, 1)")


def lpa_eval(p: LpaParams, x, strict: bool = False) -> np.ndarray:
    """One generation of the LPA map at state (L, P, A).

        L' = b*A*exp(-c_el*L - c_ea*A)
        P' = (1 - mu_l)*L
        A' = P*exp(-c_pa*A) + A*(1 - mu_a)

    With nonnegative input every exponent argument is <= 0, so the
    evaluation cannot overflow.  ``strict`` rejects negative components.
    """
    L, P, A = float(x[0]), float(x[1]), float(x[2])
    if strict and (L < 0.0 or P < 0.0 or A < 0.0):
        raise ValueError("negative component outside the nonnegative orthant")
    return np.array([
        p.b * A * math.exp(-p.c_el * L - p.c_ea * A),
        (1.0 - p.mu_l) * L,
        P * math.exp(-p.c_pa * A) + A * (1.0 - p.mu_a),
    ])


def lpa_eval_batch(p: LpaParams, rows: np.ndarray) -> np.ndarray:
    """:func:`lpa_eval` of every row of an ``(n, 3)`` float array."""
    L, P, A = rows[:, 0], rows[:, 1], rows[:, 2]
    out = np.empty_like(rows)
    out[:, 0] = p.b * A * np.exp(-p.c_el * L - p.c_ea * A)
    out[:, 1] = (1.0 - p.mu_l) * L
    out[:, 2] = P * np.exp(-p.c_pa * A) + A * (1.0 - p.mu_a)
    return out


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


def lpa_map(p: LpaParams | None = None, domain: DomainSpec | None = None) -> MapModel:
    """The LPA model as a ``MapModel`` on the nonnegative orthant."""
    p = p or LpaParams()
    domain = domain or DomainSpec.nonnegative_orthant(3)

    def evaluate(x, _p=p):
        return lpa_eval(_p, x)

    def evaluate_batch(rows, _p=p):
        return lpa_eval_batch(_p, rows)

    def jacobian(x, _p=p):
        return lpa_jacobian(_p, x)

    return MapModel(dimension=3, evaluate=evaluate, domain=domain,
                    jacobian=jacobian, name="lpa", evaluate_batch=evaluate_batch)


@dataclass(frozen=True)
class RickerParams:
    """Delayed Ricker parameters: growth rate ``r`` and delay ``delay`` >= 2."""

    r: float
    delay: int

    def __post_init__(self):
        if int(self.delay) != self.delay or self.delay < 2:
            raise ValueError("delay must be an integer >= 2")
        object.__setattr__(self, "delay", int(self.delay))
        object.__setattr__(self, "r", float(self.r))


def ricker_eval(p: RickerParams, x) -> np.ndarray:
    """One step of the lifted delayed Ricker map.

    The state holds the last ``delay`` population values, newest first; the
    update multiplies the newest value by exp(r - oldest) and shifts the
    rest down the delay line, so iterating the lift reproduces the scalar
    recursion u[n+1] = u[n]*exp(r - u[n-delay+1]).
    """
    out = np.empty(p.delay)
    out[0] = float(x[0]) * math.exp(p.r - float(x[p.delay - 1]))
    out[1:] = x[:-1]
    return out


def ricker_eval_batch(p: RickerParams, rows: np.ndarray) -> np.ndarray:
    """:func:`ricker_eval` of every row of an ``(n, delay)`` float array."""
    out = np.empty_like(rows)
    out[:, 0] = rows[:, 0] * np.exp(p.r - rows[:, p.delay - 1])
    out[:, 1:] = rows[:, :-1]
    return out


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

    def evaluate(x, _p=p):
        return ricker_eval(_p, x)

    def evaluate_batch(rows, _p=p):
        return ricker_eval_batch(_p, rows)

    def jacobian(x, _p=p):
        return ricker_jacobian(_p, x)

    return MapModel(dimension=p.delay, evaluate=evaluate,
                    domain=DomainSpec.nonnegative_orthant(p.delay),
                    jacobian=jacobian, name="ricker", evaluate_batch=evaluate_batch)
