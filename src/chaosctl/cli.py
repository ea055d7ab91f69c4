"""Command-line surface.

A run is described by a flat ``key = value`` config (dotted section names,
``#`` comments) plus repeatable ``--set key=value`` overrides; every
numeric default matches the bundled case studies (3000 transient steps, 50
kept, intensity grid k/300).  Outputs are plain CSV and ``key = value``
report files written with 17 significant digits, so reruns with the same
config and seed are byte-identical.

Commands: simulate | equilibrium | stability | bifurcate | bubbles |
lyapunov | cost.  ``bifurcate`` and ``bubbles`` exit 1 when every grid
point failed.  ``--strict`` applies to ``simulate`` and ``cost``; the other
commands reject it.  ``CHECKS`` holds the rule of every key that a command
checks before it builds its model.  The ``model.<field>`` keys, with their
types and defaults, are the fields of the built-in kinds' parameter classes
in :data:`chaosctl.models.KINDS`, one flat namespace, and ``build_model``
builds every built-in kind from them the same way.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import analysis, cost as cost_mod, dynamics, models
from .controls import (POST_MAP_SCHEMES, ControlConfig, ControlConfigError, check_intensity,
                       controlled_map)
from .core import MapModel, ParamError, as_state, check_norm_kind, check_tol

COMMANDS = ("simulate", "equilibrium", "stability", "bifurcate", "bubbles",
            "lyapunov", "cost")
SCANS = ("bifurcate", "bubbles")

# key -> (type tag, default).  Type tags: str, int, float, bool,
# floats (comma list), opt_floats (comma list or "none"), opt_str.
FIELDS = {
    "run.command": ("str", "simulate"),
    "model.kind": ("str", next(iter(models.KINDS))),
    # the fields of every built-in kind's parameters, annotated "float" or "int"
    **{f"model.{f.name}": (f.type, f.default)
       for params, _ in models.KINDS.values() for f in fields(params)},
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

# (key, commands that read it, test of the config, message), checked in this
# order before the model is built.  A message is a str.format template of the
# key's value, the command and v, the config.  A test that raises ValueError,
# as the library's checkers do, gives its own message.
CHECKS = (
    ("run.seed", COMMANDS, lambda v: v["run.seed"] >= 0, "must be nonnegative, got {value}"),
    # periods need two kept states, a final state or a cost window one
    ("run.n_keep", ("simulate", "cost"), lambda v: v["run.n_keep"] >= 1,
     "{command} needs at least 1 kept states"),
    ("run.n_keep", SCANS, lambda v: v["run.n_keep"] >= 2,
     "{command} needs at least 2 kept states"),
    ("run.n_transient", ("simulate", "cost") + SCANS, lambda v: v["run.n_transient"] >= 0,
     "{command} needs a nonnegative transient, got {value}"),
    ("scan.max_period", ("simulate",) + SCANS, lambda v: v["scan.max_period"] >= 1,
     "{command} needs a period bound of at least 1, got {value}"),
    ("scan.tol", ("simulate",) + SCANS, lambda v: check_tol(v["scan.tol"]) is None, None),
    ("run.tol", ("equilibrium", "stability"), lambda v: check_tol(v["run.tol"]) is None, None),
    ("sample.n", ("stability",), lambda v: v["sample.n"] >= 1,
     "stability needs at least 1 sample, got {value}"),
    # a window of length 0 runs to the last of the run.n_keep kept states
    ("cost.window_start", ("cost",), lambda v: 0 <= v["cost.window_start"] < v["run.n_keep"],
     "must lie in [0, {v[run.n_keep]}) for {v[run.n_keep]} kept states, got {value}"),
    ("cost.window_length", ("cost",),
     lambda v: 0 <= v["cost.window_length"] <= v["run.n_keep"] - v["cost.window_start"],
     "must be at least 0 and end by the last of {v[run.n_keep]} kept states from window "
     "start {v[cost.window_start]}, got {value}"),
    ("run.lyapunov_steps", ("lyapunov",), lambda v: v["run.lyapunov_steps"] >= 1000,
     "lyapunov needs at least 1000 steps, got {value}"),  # lyapunov_max's bound
    # scans take every scheme; cost and the cost column price the nudge of a
    # control after the map, POST_MAP_SCHEMES
    ("control.scheme", SCANS, lambda v: v["control.scheme"] != "none", "scans need a control"),
    ("control.scheme", ("cost",), lambda v: v["control.scheme"] in POST_MAP_SCHEMES,
     "cost accounting applies to post-map controls only, got {value}"),
    ("scan.cost", SCANS, lambda v: not v["scan.cost"] or v["control.scheme"] in POST_MAP_SCHEMES,
     "cost column applies to post-map controls only, got {v[control.scheme]}"),
    ("scan.c_list", SCANS, lambda v: v["scan.c_list"] != (), "intensity list is empty"),
    ("scan.c_list", SCANS, lambda v: check_intensity(v["scan.c_list"] or ()) is None, None),
    # a chained bifurcate may run downward; bubbles need increasing c
    ("scan.c_list", ("bubbles",),
     lambda v: list(v["scan.c_list"] or ()) == sorted(v["scan.c_list"] or ()),
     "bubbles needs intensities in increasing order"),
    ("scan.grid", SCANS, lambda v: v["scan.c_list"] is not None or v["scan.grid"] >= 2,
     "grid size must be at least 2"),
    ("analysis.norm", ("stability",), lambda v: check_norm_kind(v["analysis.norm"]) is None, None),
    ("cost.norm", ("cost",), lambda v: check_norm_kind(v["cost.norm"]) is None, None),
    ("cost.norm", SCANS, lambda v: not v["scan.cost"] or check_norm_kind(v["cost.norm"]) is None,
     None),
)


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
    if kind in models.KINDS:
        params, build = models.KINDS[kind]
        try:
            return build(params(**{f.name: cfg[f"model.{f.name}"] for f in fields(params)}))
        except ParamError as exc:
            raise ConfigError(f"model.{exc.field}", str(exc)) from None
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


def build_control(cfg: RunConfig, model: MapModel, intensity=None):
    """``(control, g)``: the configured control and the controlled map ``g``
    of ``model`` that checks it, the one map a command runs on; ``(None,
    model)`` without a control.  ``intensity`` replaces ``control.intensity``."""
    scheme = cfg["control.scheme"]
    if scheme == "none":
        return None, model
    if intensity is None:
        intensity = cfg["control.intensity"]
        intensity = intensity[0] if len(intensity) == 1 else intensity
    try:
        control = ControlConfig(scheme=scheme, intensity=intensity, target=cfg["control.target"])
        return control, controlled_map(model, control)
    except ControlConfigError as exc:
        raise ConfigError(f"control.{exc.field}", str(exc)) from exc


def _box(cfg: RunConfig, model: MapModel, section: str, what: str):
    """The box of ``section.lo`` and ``section.hi``, checked by ``initial_box``."""
    lo = _broadcast(cfg[f"{section}.lo"], model.dimension, f"{section}.lo")
    hi = _broadcast(cfg[f"{section}.hi"], model.dimension, f"{section}.hi")
    try:
        return dynamics.initial_box(lo, hi, model.dimension, what)
    except ValueError as exc:
        raise ConfigError(f"{section}.lo",
                          f"{exc} (lo is {section}.lo, hi is {section}.hi)") from None


def _initial_state(cfg: RunConfig, model: MapModel) -> np.ndarray:
    if cfg["run.x0"] is not None:
        try:
            return as_state(cfg["run.x0"], model.dimension)
        except ValueError as exc:
            raise ConfigError("run.x0", str(exc)) from None
    lo, hi = _box(cfg, model, "init", "initial box")
    return dynamics.draw_x0(cfg["run.seed"], 0, lo, hi)


def _c_grid(cfg: RunConfig):
    if cfg["scan.c_list"] is not None:
        return list(cfg["scan.c_list"])
    n = cfg["scan.grid"]
    # k/n for k = 1..n-1; the top endpoint is excluded because an intensity
    # of exactly 1 is outside the valid range of every scheme
    return [k / n for k in range(1, n)]


def _write(path, blocks):
    """Write the text ``blocks`` to ``path`` one by one, as they come."""
    with open(path, "w") as fh:
        fh.writelines(blocks)
    print(f"wrote {path}")


def _state_text(points, prefix="", ends=None, heads=None) -> str:
    """The lines ``{prefix}{step},{component},{value}{ends[component]}`` for
    every component of every row of the ``(n, d)`` array ``points``, as one
    text; ``heads``, when given, holds ``"{step},"`` of at least ``n`` steps.

    A kept window repeats its states once its orbit cycles, so the distinct
    rows are formatted once, all in one ``%`` call, which gives each value
    as ``{value:.17g}`` does.  Rows are told apart by their bytes:
    ``-0.0 == 0.0``, but the two print apart.  Each step's lines are then
    its head ``{step},`` joined with its row: the prefix and its cells.
    """
    d = points.shape[1]
    ends = ends or ("",) * d
    keys = np.ascontiguousarray(points, dtype=float).view(f"V{8 * d}").ravel().tolist()
    slots = {}
    index = [slots.setdefault(key, len(slots)) for key in keys]
    values = np.frombuffer(b"".join(slots), dtype=float).tolist()
    # a cell is "{j},{value}{end}\n" and the prefix of its row's next line; "\0" starts it
    row = "\0" + f"\n{prefix}\0".join(f"{j},%.17g{end}" for j, end in enumerate(ends)) + "\n"
    cells = ((row * len(slots)) % tuple(values)).split("\0")
    rows = [[prefix] + cells[1 + u * d:1 + (u + 1) * d] for u in range(len(slots))]
    heads = heads or [f"{i}," for i in range(len(index))]
    return "".join(map(str.join, heads, map(rows.__getitem__, index)))


def _scan_csv(records, costs=None):
    """The scan CSV, one text block a record."""
    yield "c,step,component,value,period" + ("" if costs is None else ",cost") + "\n"
    heads = [f"{i}," for i in range(max((rec.points.shape[0] for rec in records), default=0))]
    for idx, rec in enumerate(records):
        # everything but the step and the value is fixed per record and component
        tail = "" if costs is None else f",{costs[idx]:.17g}"
        ends = [f",{'aperiodic' if p is None else p}{tail}" for p in rec.periods]
        yield _state_text(rec.points, f"{rec.c:.17g},", ends, heads)


def _write_scan_csv(path, records, costs=None):
    _write(path, _scan_csv(records, costs))


def _scan(cfg: RunConfig, model: MapModel):
    lo, hi = _box(cfg, model, "init", "initial box")
    return dynamics.bifurcation_scan(
        model, cfg["control.scheme"], cfg["control.target"], _c_grid(cfg),
        seed=cfg["run.seed"], init_lo=lo, init_hi=hi, n_transient=cfg["run.n_transient"],
        n_keep=cfg["run.n_keep"], tol=cfg["scan.tol"],
        max_period=cfg["scan.max_period"], continue_orbits=cfg["scan.continue"])


def _scan_costs(cfg, model, control, records):
    """The cost column: one :func:`cost.costs_per_step` call toward
    ``control``'s target, zero for MPF, over the records that ran under
    control and did not fail, and 0 for the others."""
    if not cfg["scan.cost"]:
        return None
    priced = [r for r, rec in enumerate(records) if rec.c > 0.0 and rec.points.shape[0]]
    out = [0.0] * len(records)
    if priced:
        values = cost_mod.costs_per_step(
            model, control.target_vector(model.dimension), [records[r].c for r in priced],
            np.stack([records[r].points for r in priced]), norm_kind=cfg["cost.norm"])
        for r, value in zip(priced, values.tolist()):
            out[r] = value
    return out


def run(cfg: RunConfig, strict: bool = False) -> int:
    """Execute the configured command; returns the process exit status."""
    command = cfg["run.command"]
    if command not in COMMANDS:
        raise ConfigError("run.command", f"unknown command {command!r}")
    if strict and command not in ("simulate", "cost"):
        raise ConfigError("--strict", f"applies to simulate and cost only, not {command}")
    for key, commands, test, message in CHECKS:
        if command not in commands:
            continue
        try:
            passed = test(cfg)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
        if not passed:
            raise ConfigError(key, message.format(value=cfg[key], command=command, v=cfg))
    model = build_model(cfg)
    # a scan takes its intensities from its grid, never from control.intensity,
    # and its control is checked at intensity 0; every other command runs on g
    control, g = build_control(cfg, model, 0.0 if command in SCANS else None)
    prefix = cfg["out.prefix"]
    report = [f"command = {command}", f"model = {model.name or cfg['model.kind']}",
              f"seed = {cfg['run.seed']}"]
    failure = None
    writes = []  # run last, so that a command that raises writes no file

    if command in ("simulate", "cost"):
        orbit = dynamics.iterate_orbit(g, None, _initial_state(cfg, model),
                                       cfg["run.n_transient"], cfg["run.n_keep"],
                                       strict=strict)
        writes.append(partial(_write, f"{prefix}.orbit.csv",
                              ["step,component,value\n", _state_text(orbit)]))

    if command == "simulate":
        if cfg["run.n_keep"] < 2:
            report.append("periods = none (1 kept state; a period needs at least 2)")
        else:
            eff = min(cfg["scan.max_period"], cfg["run.n_keep"] // 2)
            periods = dynamics.detect_period(orbit, tol=cfg["scan.tol"], max_period=eff)
            report.append("periods = " + ",".join(
                "aperiodic" if p is None else str(p) for p in periods))
        for j, v in enumerate(orbit[-1]):
            report.append(f"final.{j} = {v:.17g}")

    elif command == "equilibrium":
        eq = analysis.find_fixed_point(g, _initial_state(cfg, model), tol=cfg["run.tol"])
        res = float(np.max(np.abs(np.asarray(g.evaluate(eq)) - eq)))
        for j, v in enumerate(eq):
            report.append(f"equilibrium.{j} = {v:.17g}")
        report.append(f"residual = {res:.17g}")
        if not model.domain.is_interior(eq):
            report.append(f"boundary = {analysis.BOUNDARY_NOTE}")

    elif command == "stability":
        lo, hi = _box(cfg, model, "sample", "sample box")
        rep = analysis.stability_report(g, _initial_state(cfg, model), lo, hi,
                                        n_samples=cfg["sample.n"], tol=cfg["run.tol"],
                                        norm_kind=cfg["analysis.norm"])
        report.extend(rep.to_lines())

    elif command in SCANS:
        records = _scan(cfg, model)
        writes.append(partial(_write_scan_csv, f"{prefix}.scan.csv", records,
                              _scan_costs(cfg, model, control, records)))
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
        lam = dynamics.lyapunov_max(g, None, _initial_state(cfg, model),
                                    n=cfg["run.lyapunov_steps"])
        report.append(f"lyapunov_max = {lam:.17g}")

    elif command == "cost":
        start = cfg["cost.window_start"]
        window = (start, cfg["cost.window_length"] or cfg["run.n_keep"] - start)
        est = cost_mod.cost_per_step(model, control, orbit, window=window,
                                     norm_kind=cfg["cost.norm"])
        report.append(f"cost_per_step = {est.value:.17g}")
        report.append(f"cost.window = {est.window[0]},{est.window[1]}")
        report.append(f"cost.norm = {est.norm_kind}")

    for write in writes:
        write()
    _write(f"{prefix}.report.txt", [f"{line}\n" for line in report])
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
                        help="treat domain violations as fatal (simulate and cost)")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.from_text(fh.read())
        else:
            cfg = RunConfig()
        for item in args.set:
            if "=" not in item:
                raise ConfigError("--set", f"expected KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            cfg.set(key.strip(), raw)
        cfg.values["run.command"] = args.command
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
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
