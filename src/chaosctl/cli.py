"""Command-line surface.

A run is described by a flat ``key = value`` config (dotted section names,
``#`` comments) plus repeatable ``--set key=value`` overrides; every
numeric default matches the bundled case studies (3000 transient steps, 50
kept, intensity grid k/300).  Outputs are plain CSV and ``key = value``
report files written with 17 significant digits, so reruns with the same
config and seed are byte-identical.

Commands: simulate | equilibrium | stability | bifurcate | bubbles |
lyapunov | cost.  ``bifurcate`` and ``bubbles`` exit 1 when every grid
point failed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, cost as cost_mod, dynamics, models
from .controls import ControlConfig, ControlConfigError, controlled_map
from .core import MapModel

COMMANDS = ("simulate", "equilibrium", "stability", "bifurcate", "bubbles",
            "lyapunov", "cost")

# key -> (type tag, default).  Type tags: str, int, float, bool,
# floats (comma list), opt_floats (comma list or "none"), opt_str.
FIELDS = {
    "run.command": ("str", "simulate"),
    "model.kind": ("str", "lpa"),
    "model.b": ("float", 10.45),
    "model.c_el": ("float", 0.01731),
    "model.c_ea": ("float", 0.01310),
    "model.c_pa": ("float", 0.35),
    "model.mu_l": ("float", 0.200),
    "model.mu_a": ("float", 0.96),
    "model.r": ("float", 2.0),
    "model.delay": ("int", 2),
    "model.plugin": ("opt_str", None),
    "control.scheme": ("str", "none"),
    "control.intensity": ("floats", (0.5,)),
    "control.target": ("opt_floats", None),
    "run.n_transient": ("int", 3000),
    "run.n_keep": ("int", 50),
    "run.tol": ("float", 1e-10),
    "run.seed": ("int", 0),
    "run.x0": ("opt_floats", None),
    "run.lyapunov_steps": ("int", 5000),
    "init.lo": ("floats", (0.0,)),
    "init.hi": ("floats", (50.0,)),
    "scan.grid": ("int", 300),
    "scan.c_list": ("opt_floats", None),
    "scan.tol": ("float", 1e-5),
    "scan.max_period": ("int", 32),
    "scan.continue": ("bool", False),
    "scan.cost": ("bool", False),
    "sample.lo": ("floats", (0.0,)),
    "sample.hi": ("floats", (300.0,)),
    "sample.n": ("int", 2048),
    "analysis.norm": ("str", "max"),
    "cost.norm": ("str", "euclidean"),
    "cost.window_start": ("int", 0),
    "cost.window_length": ("int", 0),
    "out.prefix": ("str", "chaosctl"),
}


class ConfigError(ValueError):
    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


def _parse_value(key, raw):
    if key not in FIELDS:
        raise ConfigError(key, "unknown configuration key")
    kind = FIELDS[key][0]
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "opt_str":
            return None if raw.lower() == "none" else raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind in ("floats", "opt_floats"):
            if kind == "opt_floats" and raw.lower() == "none":
                return None
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc
    raise ConfigError(key, f"unhandled type {kind!r}")


def _format_value(key, value):
    kind = FIELDS[key][0]
    if value is None:
        return "none"
    if kind in ("floats", "opt_floats"):
        return ",".join(f"{v:.17g}" for v in value)
    if kind == "float":
        return f"{value:.17g}"
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


@dataclass
class RunConfig:
    """All settings for one run, keyed by the dotted names in ``FIELDS``."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: entry[1] for k, entry in FIELDS.items()}
        for k, v in self.values.items():
            if k not in FIELDS:
                raise ConfigError(k, "unknown configuration key")
            merged[k] = v
        self.values = merged

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, raw):
        self.values[key] = _parse_value(key, raw)

    def to_text(self) -> str:
        return "".join(f"{k} = {_format_value(k, self.values[k])}\n"
                       for k in sorted(self.values))

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        cfg = RunConfig()
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
            key, raw = body.split("=", 1)
            cfg.set(key.strip(), raw)
        return cfg


def _broadcast(values, dim, key):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 1:
        return np.full(dim, arr[0])
    if arr.size != dim:
        raise ConfigError(key, f"expected 1 or {dim} values, got {arr.size}")
    return arr


def build_model(cfg: RunConfig) -> MapModel:
    kind = cfg["model.kind"]
    if kind == "lpa":
        p = models.LpaParams(b=cfg["model.b"], c_el=cfg["model.c_el"],
                             c_ea=cfg["model.c_ea"], c_pa=cfg["model.c_pa"],
                             mu_l=cfg["model.mu_l"], mu_a=cfg["model.mu_a"])
        return models.lpa_map(p)
    if kind == "ricker":
        return models.ricker_lift(models.RickerParams(r=cfg["model.r"],
                                                      delay=cfg["model.delay"]))
    if kind == "plugin":
        ref = cfg["model.plugin"]
        if not ref or ":" not in ref:
            raise ConfigError("model.plugin", "expected 'module:attribute'")
        mod_name, attr = ref.split(":", 1)
        try:
            obj = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError("model.plugin", str(exc)) from exc
        model = obj() if callable(obj) and not isinstance(obj, MapModel) else obj
        if not isinstance(model, MapModel):
            raise ConfigError("model.plugin", "plugin did not produce a MapModel")
        return model
    raise ConfigError("model.kind", f"unknown model kind {kind!r}")


def build_control(cfg: RunConfig, model: MapModel):
    scheme = cfg["control.scheme"]
    if scheme == "none":
        return None
    intensity = cfg["control.intensity"]
    if scheme != "DIAG-VMTOC":
        if len(intensity) != 1:
            raise ConfigError("control.intensity", "scalar scheme takes one intensity")
        intensity = intensity[0]
    target = cfg["control.target"]
    try:
        return ControlConfig(scheme=scheme, intensity=intensity, target=target)
    except ControlConfigError as exc:
        raise ConfigError(f"control.{exc.field}", str(exc)) from exc


def _initial_state(cfg: RunConfig, model: MapModel) -> np.ndarray:
    if cfg["run.x0"] is not None:
        x0 = np.asarray(cfg["run.x0"], dtype=float)
        if x0.size != model.dimension:
            raise ConfigError("run.x0", f"expected {model.dimension} components")
        return x0
    lo = _broadcast(cfg["init.lo"], model.dimension, "init.lo")
    hi = _broadcast(cfg["init.hi"], model.dimension, "init.hi")
    return np.random.default_rng([cfg["run.seed"], 0]).uniform(lo, hi)


def _c_grid(cfg: RunConfig):
    if cfg["scan.c_list"] is not None:
        return list(cfg["scan.c_list"])
    n = cfg["scan.grid"]
    if n < 2:
        raise ConfigError("scan.grid", "grid size must be at least 2")
    # k/n for k = 1..n-1; the top endpoint is excluded because an intensity
    # of exactly 1 is outside the valid range of every scheme
    return [k / n for k in range(1, n)]


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _write_orbit_csv(path, orbit):
    lines = ["step,component,value"]
    for i, state in enumerate(orbit):
        for j, v in enumerate(state):
            lines.append(f"{i},{j},{v:.17g}")
    _write(path, lines)


def _write_scan_csv(path, records, costs=None):
    header = "c,step,component,value,period"
    if costs is not None:
        header += ",cost"
    lines = [header]
    for idx, rec in enumerate(records):
        for i, state in enumerate(rec.points):
            for j, v in enumerate(state):
                period = rec.periods[j]
                ptxt = "aperiodic" if period is None else str(period)
                row = f"{rec.c:.17g},{i},{j},{v:.17g},{ptxt}"
                if costs is not None:
                    row += f",{costs[idx]:.17g}"
                lines.append(row)
    _write(path, lines)


def _scan(cfg: RunConfig, model: MapModel):
    scheme = cfg["control.scheme"]
    if scheme not in ("VMTOC", "VTOC"):
        raise ConfigError("control.scheme", "scans support VMTOC and VTOC only")
    target = cfg["control.target"]
    if target is None:
        raise ConfigError("control.target", "scans need a target")
    if cfg["scan.cost"] and scheme != "VMTOC":
        raise ConfigError("scan.cost", "cost column applies to VMTOC scans only")
    lo = _broadcast(cfg["init.lo"], model.dimension, "init.lo")
    hi = _broadcast(cfg["init.hi"], model.dimension, "init.hi")
    return dynamics.bifurcation_scan(
        model, scheme, target, _c_grid(cfg), seed=cfg["run.seed"],
        init_lo=lo, init_hi=hi, n_transient=cfg["run.n_transient"],
        n_keep=cfg["run.n_keep"], tol=cfg["scan.tol"],
        max_period=cfg["scan.max_period"], continue_orbits=cfg["scan.continue"])


def _scan_costs(cfg, model, records):
    if not cfg["scan.cost"]:
        return None
    out = []
    for rec in records:
        if rec.c <= 0.0 or rec.points.shape[0] == 0:
            out.append(0.0)
            continue
        ctrl = ControlConfig(scheme="VMTOC", intensity=rec.c,
                             target=cfg["control.target"])
        out.append(cost_mod.cost_per_step(model, ctrl, rec.points,
                                          norm_kind=cfg["cost.norm"]).value)
    return out


def run(cfg: RunConfig, strict: bool = False) -> int:
    """Execute the configured command; returns the process exit status."""
    command = cfg["run.command"]
    if command not in COMMANDS:
        raise ConfigError("run.command", f"unknown command {command!r}")
    model = build_model(cfg)
    control = build_control(cfg, model)
    prefix = cfg["out.prefix"]
    report = [f"command = {command}", f"model = {model.name or cfg['model.kind']}",
              f"seed = {cfg['run.seed']}"]
    failure = None

    if command == "simulate":
        orbit = dynamics.iterate_orbit(model, control, _initial_state(cfg, model),
                                       cfg["run.n_transient"], cfg["run.n_keep"],
                                       strict=strict)
        _write_orbit_csv(f"{prefix}.orbit.csv", orbit)
        eff = min(cfg["scan.max_period"], cfg["run.n_keep"] // 2)
        if eff >= 1:
            periods = dynamics.detect_period(orbit, tol=cfg["scan.tol"], max_period=eff)
            report.append("periods = " + ",".join(
                "aperiodic" if p is None else str(p) for p in periods))
        for j, v in enumerate(orbit[-1]):
            report.append(f"final.{j} = {v:.17g}")

    elif command == "equilibrium":
        target_model = controlled_map(model, control) if control else model
        eq = analysis.find_fixed_point(target_model, _initial_state(cfg, model),
                                       tol=cfg["run.tol"])
        res = float(np.max(np.abs(np.asarray(target_model.evaluate(eq)) - eq)))
        for j, v in enumerate(eq):
            report.append(f"equilibrium.{j} = {v:.17g}")
        report.append(f"residual = {res:.17g}")

    elif command == "stability":
        target_model = controlled_map(model, control) if control else model
        lo = _broadcast(cfg["sample.lo"], model.dimension, "sample.lo")
        hi = _broadcast(cfg["sample.hi"], model.dimension, "sample.hi")
        rep = analysis.stability_report(target_model, _initial_state(cfg, model),
                                        lo, hi, n_samples=cfg["sample.n"],
                                        tol=cfg["run.tol"],
                                        norm_kind=cfg["analysis.norm"])
        report.extend(rep.to_lines())

    elif command in ("bifurcate", "bubbles"):
        records = _scan(cfg, model)
        _write_scan_csv(f"{prefix}.scan.csv", records, _scan_costs(cfg, model, records))
        failures = [r for r in records if r.error]
        report.append(f"grid_points = {len(records)}")
        report.append(f"errors = {len(failures)}")
        if records and len(failures) == len(records):
            failure = f"every grid point failed: {failures[0].error}"
        stable = [r.c for r in records if all(p == 1 for p in r.periods)]
        report.append("first_all_stable_c = " +
                      (f"{stable[0]:.17g}" if stable else "none"))
        if command == "bubbles":
            bubbles = dynamics.detect_bubbles(records)
            report.append(f"bubbles = {len(bubbles)}")
            for idx, (comp, c_lo, c_hi) in enumerate(bubbles):
                report.append(f"bubble.{idx} = {comp},{c_lo:.17g},{c_hi:.17g}")

    elif command == "lyapunov":
        lam = dynamics.lyapunov_max(model, control, _initial_state(cfg, model),
                                    n=cfg["run.lyapunov_steps"])
        report.append(f"lyapunov_max = {lam:.17g}")

    elif command == "cost":
        if control is None:
            raise ConfigError("control.scheme", "cost needs a control")
        orbit = dynamics.iterate_orbit(model, control, _initial_state(cfg, model),
                                       cfg["run.n_transient"], cfg["run.n_keep"],
                                       strict=strict)
        _write_orbit_csv(f"{prefix}.orbit.csv", orbit)
        length = cfg["cost.window_length"] or orbit.shape[0] - cfg["cost.window_start"]
        est = cost_mod.cost_per_step(model, control, orbit,
                                     window=(cfg["cost.window_start"], length),
                                     norm_kind=cfg["cost.norm"])
        report.append(f"cost_per_step = {est.value:.17g}")
        report.append(f"cost.window = {est.window[0]},{est.window[1]}")
        report.append(f"cost.norm = {est.norm_kind}")

    _write(f"{prefix}.report.txt", report)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaosctl",
        description="Stabilize and analyze chaotic discrete dynamical systems.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", help="override out.prefix")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--strict", action="store_true",
                        help="treat domain violations as fatal")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.from_text(fh.read())
        else:
            cfg = RunConfig()
        cfg.values["run.command"] = args.command
        for item in args.set:
            if "=" not in item:
                raise ConfigError("--set", f"expected KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            cfg.set(key.strip(), raw)
        if args.seed is not None:
            cfg.values["run.seed"] = args.seed
        if args.out is not None:
            cfg.values["out.prefix"] = args.out
        return run(cfg, strict=args.strict)
    except ConfigError as exc:
        print(f"error: {exc.key}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
