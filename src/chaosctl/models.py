"""Built-in benchmark maps.

Two models ship with the package:

* the three-stage LPA (larvae-pupae-adults) flour beetle model, whose
  default parameters put it in a chaotic regime with a strange attractor,
* the delayed Ricker map, lifted from a scalar higher-order recursion to a
  first-order system via a delay line.

Each kind is declared once, in :data:`KINDS`: its parameter dataclass,
whose fields, with their ``float`` or ``int`` annotations and defaults,
are the CLI's ``model.<field>`` keys, and its builder.  Both self-map the
nonnegative orthant.  Each map is written once, as a
:class:`~chaosctl.core.Formula` of component expressions over named
constants, with the nonzero entries of its Jacobian in the same names, and
every form is compiled from it once per formula and form, its constants
passed as arguments: the model's float step, its array form, the fused
controlled steps of floats and of a scan's columns, and its analytic
Jacobian, bound by :meth:`~chaosctl.core.Formula.bind`: the array form
and the Jacobian once per parameter set, the float step once per model.
The float step runs ``np.exp``, which gives a Python float bitwise the
value it gives an array element, converted by ``float``, which keeps
those bits, so the rest is IEEE arithmetic on Python floats.  The array
form writes the image of numpy columns, or of the components of one state
``(d,)``, into the caller's array, so a row of a batch, one state alone
and a tuple of floats all have bitwise the same image.  The Jacobian runs
``math.exp`` on one state's floats.  A state of another length, or more
than one state for a Jacobian, raises ``ValueError`` in every form, in
:func:`_states`' words in the array forms and the Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cache, lru_cache

import numpy as np

from .core import DomainSpec, Formula, MapModel, ParamError


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
        # the generated hash of the fields, taken once: _lpa_forms looks the
        # set up at every evaluation and Jacobian, where hashing the six
        # fields anew takes two to three times as long as reading it
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self):
        return self._hash


def _check_fields(params, rules) -> None:
    """Raise :class:`ParamError` naming the first ``(field, test, rule)`` of
    ``rules`` whose test the field's value fails; NaN fails every test, and
    so does a value the test cannot take, such as a string or None.  A
    field given as ``-0.0`` is stored as ``0.0``: sets that compare equal
    share their bound forms, so they must compute the same bits."""
    for name, test, rule in rules:
        value = getattr(params, name)
        try:
            passed = bool(test(value))
        except (TypeError, ValueError):
            passed = False
        if not passed:
            raise ParamError(name, f"{name} must {rule}, got {value}")
        if value == 0:
            object.__setattr__(params, name, abs(value))


def _states(x, d: int, one: bool = False) -> np.ndarray:
    """``x`` as a float array of one state ``(d,)`` or, unless ``one``, of
    states ``(n, d)``; any other shape, which a form would cut or fail on,
    raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if (x.shape != (d,)) if one else (x.ndim == 0 or x.shape[-1] != d):
        raise ValueError(f"dimension mismatch: expected {d} components, "
                         f"got an array of shape {x.shape}")
    return x


def _on_arrays(step, x, d: int) -> np.ndarray:
    """The array step ``step`` of one state ``(d,)`` or of an ``(n, d)``
    array of states, as an array, the states checked by :func:`_states`."""
    x = _states(x, d)
    out = np.empty_like(x)
    # the transpose puts the component axis first: for one state the
    # components are numpy scalars, for a batch they are columns
    step(x.T, out.T)
    return out


# One generation of the LPA map on the components (L, P, A) = (x0, x1, x2):
#
#     L' = b*A*exp(-c_el*L - c_ea*A)
#     P' = (1 - mu_l)*L
#     A' = P*exp(-c_pa*A) + A*(1 - mu_a)
#
# With nonnegative input every exponent argument is <= 0, so the evaluation
# cannot overflow.  The Jacobian's entries (0,1), (1,1), (1,2) and (2,0)
# vanish identically, and entry (1,0) is 1 - mu_l exactly.
_LPA = Formula(names=("b", "c_el", "c_ea", "c_pa", "keep_l", "keep_a"),
               exps=("-c_el * x0 - c_ea * x2", "-c_pa * x2"),
               components=("b * x2 * e0", "keep_l * x0", "x1 * e1 + x2 * keep_a"),
               jacobian=((0, 0, "-b * c_el * x2 * e0"), (0, 2, "b * (1.0 - c_ea * x2) * e0"),
                         (1, 0, "keep_l"), (2, 1, "e1"), (2, 2, "keep_a - c_pa * x1 * e1")))


@lru_cache(maxsize=128)
def _lpa_forms(p: LpaParams) -> tuple:
    """``_LPA``'s ``"arrays"`` and ``"jacobian"`` forms at ``p``, bound once
    per parameter set."""
    values = p.b, p.c_el, p.c_ea, p.c_pa, 1.0 - p.mu_l, 1.0 - p.mu_a
    return _LPA.bind("arrays", *values), _LPA.bind("jacobian", *values)


def lpa_eval(p: LpaParams, x) -> np.ndarray:
    """The LPA map of one state ``(3,)`` or of an ``(n, 3)`` array of states."""
    return _on_arrays(_lpa_forms(p)[0], x, 3)


def lpa_jacobian(p: LpaParams, x) -> np.ndarray:
    """The Jacobian ``(3, 3)`` of the LPA map at one state ``(3,)``, checked
    by :func:`_states`."""
    return _lpa_forms(p)[1](_states(x, 3, one=True).tolist())


def lpa_recruitment_bound(p: LpaParams) -> float:
    """Supremum of the larval recruitment b*A*exp(-c_ea*A) over A >= 0.

    Equals b/(e*c_ea); beyond this size the max-norm of the state can only
    shrink under the map, which is what guarantees equilibria of the
    controlled system inside a bounded region.
    """
    return p.b / (math.e * p.c_ea)


def _built_in(name: str, p, arrays) -> MapModel:
    """The built-in model ``name`` at the parameters ``p`` on the
    nonnegative orthant, whose formula and constants are those of its bound
    ``"arrays"`` form ``arrays``.  Its ``evaluate``, also its
    ``evaluate_batch``, and its ``jacobian`` call ``<name>_eval`` and
    ``<name>_jacobian`` of this module, looked up at each call, so that a
    hook set on either name sees every call of them.  The batch step
    carries the tag of ``arrays``, whose columns a fresh scan steps in its
    place (:func:`~chaosctl.core.pulled_columns`)."""
    formula, _, values = arrays.formula
    d, space = len(formula.components), globals()

    def calling(function: str):
        def call(x):
            return space[function](p, x)
        return call

    evaluate = calling(f"{name}_eval")
    evaluate.formula = arrays.formula
    return MapModel(dimension=d, evaluate=evaluate, domain=DomainSpec.nonnegative_orthant(d),
                    jacobian=calling(f"{name}_jacobian"), name=name, evaluate_batch=evaluate,
                    evaluate_floats=formula.bind("floats", *values))


def lpa_map(p: LpaParams | None = None) -> MapModel:
    """The LPA model as a ``MapModel`` on the nonnegative orthant."""
    p = p or LpaParams()
    return _built_in("lpa", p, _lpa_forms(p)[0])


@dataclass(frozen=True)
class RickerParams:
    """Delayed Ricker parameters: finite growth rate ``r`` and integer delay
    ``delay`` >= 2; a field out of range raises :class:`~chaosctl.core.ParamError`."""

    r: float = 2.0
    delay: int = 2

    def __post_init__(self):
        _check_fields(self, [("r", math.isfinite, "be finite"),
                             ("delay", lambda v: float(v).is_integer() and v >= 2,
                              "be an integer >= 2")])
        object.__setattr__(self, "delay", int(self.delay))
        object.__setattr__(self, "r", float(self.r))


@cache
def _ricker_formula(delay: int) -> Formula:
    """The lifted delayed Ricker map of delay ``delay``, with the constant ``r``.

    The state holds the last ``delay`` population values, newest first; the
    update multiplies the newest value by exp(r - oldest) and shifts the
    rest down the delay line, so iterating the lift reproduces the scalar
    recursion u[n+1] = u[n]*exp(r - u[n-delay+1]).
    """
    return Formula(names=("r",), exps=(f"r - x{delay - 1}",),
                   components=("x0 * e0", *(f"x{j}" for j in range(delay - 1))),
                   jacobian=((0, 0, "e0"), (0, delay - 1, "-x0 * e0"),
                             *((i, i - 1, "1.0") for i in range(1, delay))))


@lru_cache(maxsize=128)
def _ricker_forms(delay: int, r: float) -> tuple:
    """The ``"arrays"`` and ``"jacobian"`` forms of the lift of ``delay`` at
    ``r``, bound once per parameter set; keyed on the two numbers, which
    hash in less time than a ``RickerParams``."""
    formula = _ricker_formula(delay)
    return formula.bind("arrays", r), formula.bind("jacobian", r)


def ricker_eval(p: RickerParams, x) -> np.ndarray:
    """The Ricker lift of one state ``(delay,)`` or of an ``(n, delay)`` array of states."""
    return _on_arrays(_ricker_forms(p.delay, p.r)[0], x, p.delay)


def ricker_jacobian(p: RickerParams, x) -> np.ndarray:
    """The Jacobian ``(delay, delay)`` of the Ricker lift at one state
    ``(delay,)``, checked by :func:`_states`."""
    return _ricker_forms(p.delay, p.r)[1](_states(x, p.delay, one=True).tolist())


def ricker_lift(p: RickerParams) -> MapModel:
    """The delayed Ricker recursion as a first-order system of dimension ``delay``."""
    return _built_in("ricker", p, _ricker_forms(p.delay, p.r)[0])


# The built-in model kinds, each declared once: kind -> (parameter class,
# builder of a MapModel from its parameters).  The CLI's ``model.<field>``
# keys, their types and their defaults are the fields of these classes, and
# its default kind is the first.  Each builder looks its model function up
# when it is called, so that a hook set on the name sees every model built.
KINDS = {"lpa": (LpaParams, lambda p: lpa_map(p)),
         "ricker": (RickerParams, lambda p: ricker_lift(p))}
