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

from .controls import ControlConfig
from .core import MapModel, norm_rows

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


def cost_per_step(model: MapModel, cfg: ControlConfig, orbit,
                  window: Optional[Tuple[int, int]] = None,
                  norm_kind: str = "euclidean") -> CostEstimate:
    """Window average of the control perturbation along ``orbit``.

    ``orbit`` must have been produced under ``cfg`` (VMTOC or DIAG-VMTOC);
    ``window`` is ``(start, length)`` into it, defaulting to the whole
    orbit.  The infinite-horizon average is not computable from finite
    data, so the window rides along in the estimate to keep the number
    falsifiable.  The images of the window's states come from one
    ``evaluate_rows`` call; an image that is not finite, or an evaluation
    that raises, raises ``ValueError``.  Asymmetric culling/restocking
    prices and per-component weights are out of scope.
    """
    if cfg.scheme not in POST_MAP_SCHEMES:
        raise ValueError("cost accounting applies to post-map target controls")
    orbit = np.asarray(orbit, dtype=float)
    if orbit.ndim != 2 or orbit.shape[1] != model.dimension:
        raise ValueError("orbit must be an (n, d) array of states")
    n = orbit.shape[0]
    if window is None:
        window = (0, n)
    start, length = int(window[0]), int(window[1])
    if length <= 0 or start < 0 or start + length > n:
        raise ValueError("empty or out-of-range window")
    t = cfg.target_vector(model.dimension)
    c = cfg.intensity_vector(model.dimension)
    fx = model.evaluate_rows(orbit[start:start + length])
    total = 0.0
    # a running total in window order, not numpy's pairwise sum, so the value
    # is the one a loop over the states gives
    for v in norm_rows(c * (fx - t), norm_kind).tolist():
        total += v
    return CostEstimate(value=total / length, window=(start, length),
                        norm_kind=norm_kind)
