"""Control-cost accounting.

The per-step cost of a post-map target control is the size of the nudge it
applies, ``||c*T + (1-c)*f(x) - f(x)|| = c*||f(x) - T||``.  Averaged over a
window of a converged orbit this tends to ``c*||f(x*) - T||``, which is zero
exactly when the target is the image of the stabilized state -- steering
toward an equilibrium of the uncontrolled map eventually costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .controls import ControlConfig, check_intensity
from .core import MapModel, as_state, norm_rows
from .dynamics import _check_count

# the post-map target controls, whose nudge c*(T - f(x)) is the cost
POST_MAP_SCHEMES = ("VMTOC", "DIAG-VMTOC")


@dataclass(frozen=True)
class CostEstimate:
    """Average per-step control effort over a window, in norm units."""

    value: float
    window: Tuple[int, int]
    norm_kind: str

    def __float__(self):
        return self.value


def _window(window, n: int) -> Tuple[int, int]:
    """``window`` as ``(start, length)`` Python ints, all ``n`` states when
    it is None.  Raises ``ValueError`` naming the entry that is not an
    integer (a numpy integer passes), and for an empty window or one that
    reaches past the ``n`` states."""
    if window is None:
        return 0, n
    _check_count("window start", window[0])
    _check_count("window length", window[1])
    start, length = int(window[0]), int(window[1])
    if length <= 0 or start < 0 or start + length > n:
        raise ValueError("empty or out-of-range window")
    return start, length


def costs_per_step(model: MapModel, target, intensities, orbits,
                   window: Optional[Tuple[int, int]] = None,
                   norm_kind: str = "euclidean") -> np.ndarray:
    """:func:`cost_per_step` of every orbit of a ``(records, n, d)`` stack, in one pass.

    Orbit ``r`` must have been produced by a post-map target control toward
    ``target`` with intensity ``intensities[r]``: ``intensities`` is
    ``(records,)`` for VMTOC or ``(records, d)`` for DIAG-VMTOC.  ``window``
    is ``(start, length)`` into every orbit, defaulting to the whole orbit;
    an entry that is not an integer raises ``ValueError`` naming it.
    The images of every window's states come from one ``evaluate_rows``
    call, and their nudges are measured by one ``norm_rows`` call.  An
    evaluation that raises raises ``ValueError`` naming its row (state
    ``k`` of orbit ``r``'s window is row ``r * length + k``), and the first
    non-finite nudge one naming its orbit, state and image.  Each orbit's
    total is a running sum in window order (``np.cumsum`` is sequential,
    unlike numpy's pairwise ``sum``), so its average is the one a loop over
    the states gives.  Returns the ``(records,)`` averages.
    """
    d = model.dimension
    orbits = np.asarray(orbits, dtype=float)
    if orbits.ndim != 3 or orbits.shape[2] != d:
        raise ValueError("orbits must be a (records, n, d) array of states")
    records, n = orbits.shape[:2]
    start, length = _window(window, n)
    c = np.asarray(intensities, dtype=float)
    if c.shape not in ((records,), (records, d)):
        raise ValueError(f"intensities must have shape ({records},) or ({records}, {d}), "
                         f"got {c.shape}")
    check_intensity(c)
    t = as_state(target, d, what="target")
    fx = model.evaluate_rows(orbits[:, start:start + length].reshape(-1, d))
    c = c[:, None, None] if c.ndim == 1 else c[:, None]
    fx = fx.reshape(records, length, d)
    nudges = c * (fx - t)
    bad = np.argwhere(~np.isfinite(nudges).all(axis=2))
    if bad.size:
        r, k = bad[0].tolist()
        raise ValueError(f"non-finite nudge at state {start + k} of orbit {r}: the image "
                         f"of {orbits[r, start + k].tolist()} is {fx[r, k].tolist()}")
    sizes = norm_rows(nudges.reshape(-1, d), norm_kind).reshape(records, length)
    return np.cumsum(sizes, axis=1)[:, -1] / length


def cost_per_step(model: MapModel, cfg: ControlConfig, orbit,
                  window: Optional[Tuple[int, int]] = None,
                  norm_kind: str = "euclidean") -> CostEstimate:
    """Window average of the control perturbation along ``orbit``.

    ``orbit`` must have been produced under ``cfg`` (VMTOC or DIAG-VMTOC);
    ``window`` is ``(start, length)`` into it, defaulting to the whole
    orbit, checked as :func:`costs_per_step` checks it.  The
    infinite-horizon average is not computable from finite data, so the
    window rides along in the estimate to keep the number falsifiable.
    This is the one-orbit case of :func:`costs_per_step`, which prices a
    whole scan in one call: the images of the window's states come from
    one ``evaluate_rows`` call, and an image that is not finite, or an
    evaluation that raises, raises ``ValueError``.  Asymmetric
    culling/restocking prices and per-component weights are out of scope.
    """
    if cfg.scheme not in POST_MAP_SCHEMES:
        raise ValueError("cost accounting applies to post-map target controls")
    orbit = np.asarray(orbit, dtype=float)
    if orbit.ndim != 2 or orbit.shape[1] != model.dimension:
        raise ValueError("orbit must be an (n, d) array of states")
    window = _window(window, orbit.shape[0])
    value = costs_per_step(model, cfg.target_vector(model.dimension),
                           cfg.intensity_vector(model.dimension)[None], orbit[None],
                           window=window, norm_kind=norm_kind)[0]
    return CostEstimate(value=float(value), window=window, norm_kind=norm_kind)
