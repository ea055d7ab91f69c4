"""chaosctl: target-oriented control of chaotic discrete dynamical systems.

The package stabilizes multidimensional maps x' = f(x) by pulling each step
toward a chosen target state, estimates how strong that pull must be (from
spectral radii, Jacobian sum bounds or sampled Lipschitz constants), and
provides the orbit machinery (bifurcation scans over the control intensity,
period and bubble detection, Lyapunov exponents) to inspect the result.
"""

from .analysis import (
    ConvergenceError,
    LipschitzEstimate,
    StabilityReport,
    bound_A,
    find_fixed_point,
    global_cstar,
    lipschitz_estimate,
    local_cstar,
    multistart_fixed_points,
    spectral_radius,
    stability_report,
    verify_contraction,
)
from .controls import (
    SCHEMES,
    ControlConfig,
    apply_control,
    compose_vmtoc,
    conjugate_state,
    controlled_map,
    target_for_state,
)
from .core import DomainSpec, MapModel, ParamError, as_state, fd_jacobian, norm
from .cost import CostEstimate, cost_per_step, costs_per_step
from .dynamics import (
    OrbitError,
    ScanRecord,
    bifurcation_scan,
    detect_bubbles,
    detect_period,
    detect_periods,
    iterate_orbit,
    lyapunov_max,
    overall_period,
)
from .models import (
    LpaParams,
    RickerParams,
    lpa_eval,
    lpa_jacobian,
    lpa_map,
    lpa_recruitment_bound,
    ricker_eval,
    ricker_jacobian,
    ricker_lift,
)

__version__ = "0.1.0"

__all__ = [
    "ControlConfig", "ConvergenceError", "CostEstimate", "DomainSpec",
    "LipschitzEstimate", "LpaParams", "MapModel", "OrbitError",
    "ParamError", "RickerParams", "SCHEMES", "ScanRecord", "StabilityReport",
    "apply_control", "as_state", "bifurcation_scan", "bound_A",
    "compose_vmtoc", "conjugate_state", "controlled_map",
    "cost_per_step", "costs_per_step", "detect_bubbles", "detect_period",
    "detect_periods", "fd_jacobian",
    "find_fixed_point", "global_cstar", "iterate_orbit",
    "lipschitz_estimate", "local_cstar", "lpa_eval", "lpa_jacobian",
    "lpa_map", "lpa_recruitment_bound", "lyapunov_max",
    "multistart_fixed_points", "norm", "overall_period", "ricker_eval",
    "ricker_jacobian", "ricker_lift", "spectral_radius",
    "stability_report", "target_for_state", "verify_contraction",
]
