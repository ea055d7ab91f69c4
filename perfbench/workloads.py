"""The three benchmark workloads and the verdict checks on their outputs.

Each workload is a closed loop with one client: ``request(i)`` runs the i-th
request to completion and returns an :class:`Outcome`; the next request is
sent only after it returns.  Request inputs come from ``(seed, i)`` alone.

The untimed checks test scientific verdicts (periods, bubbles, spectral
radii), never trajectory bytes, so a faster engine whose chaotic
trajectories differ in the last bits still passes.

Timed requests reach the program only through ``bifurcation_scan`` (without
``max_workers``), ``stability_report``, ``ControlConfig``/``controlled_map``
and ``cli.main``, looked up on their modules at call time so that the
tracer's hooks apply.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Scans: the acceptance grid k/300 thinned to every tenth point.  It keeps
# points on both sides of the LPA threshold c* ~ 0.2756 and inside the
# (30,30,200) bubble, which spans about 0.12-0.36.
SCAN_GRID = tuple(k / 300 for k in range(10, 300, 10))
SCAN_TRANSIENT = 3000
SCAN_KEEP = 50
SCAN_TARGETS = ("T=K", "(30,30,200)", "(30,200,30)", "(200,30,30)")

# Chained CLI scan of the delayed Ricker lift; the chain carries each
# orbit's last state into the next intensity, so a short transient suffices.
CHAIN_GRID = 150
CHAIN_TRANSIENT = 250

# Stability reports.
REPORT_SAMPLES = 2048
REPORT_TOL = 1e-12
LPA_RHO = 1.3803           # spectral radius at the LPA equilibrium (paper value)
RICKER_RHO = math.sqrt(2)  # delayed Ricker, r=2, delay 2, at its equilibrium (2, 2)
SWEEP_KINDS = ("lpa", "lpa+VMTOC", "ricker", "ricker+VMTOC")

WARMUP_INDEX = 1_000_000   # request index reserved for the untimed warm-up


@dataclass
class Outcome:
    """What one request produced, reduced to what the checks need."""

    items: int
    evidence: object
    error: str = ""
    bytes_written: int = 0


def _draw(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def bubbles(rows, component):
    """Maximal runs of rows where ``component`` is not period 1, bracketed by
    period-1 rows on both sides; returns (c_lo, c_hi) pairs.  Rows are
    ``(c, periods, error)`` sorted by c."""
    stable = [i for i, (_, periods, _) in enumerate(rows) if periods[component] == 1]
    if len(stable) < 2:
        return []
    out, start = [], None
    for i in range(stable[0], stable[-1] + 1):
        if rows[i][1][component] != 1:
            start = i if start is None else start
        elif start is not None:
            out.append((rows[start][0], rows[i - 1][0]))
            start = None
    return out


def check_scan(target: str, rows) -> list:
    """Verdicts of one LPA scan, as a list of problems (empty when it passes)."""
    problems = [f"c={c:.4f}: {err}" for c, _, err in rows if err]
    if target == "T=K":
        high = [periods for c, periods, _ in rows if c >= 0.30 - 1e-12]
        low = [periods for c, periods, _ in rows if c <= 0.20 + 1e-12]
        if not high or not all(p == (1, 1, 1) for p in high):
            problems.append("T=K: some c >= 0.30 is not period (1,1,1)")
        if not any(p != (1, 1, 1) for p in low):
            problems.append("T=K: every c <= 0.20 is already stable")
    elif target == "(30,30,200)":
        runs = {j: bubbles(rows, j) for j in (0, 1)}
        if not runs[0] or not runs[1]:
            problems.append("(30,30,200): no larvae or no pupae bubble")

        def inside(c, j):
            return any(lo - 1e-12 <= c <= hi + 1e-12 for lo, hi in runs[j])

        joint = [c for c, periods, _ in rows
                 if inside(c, 0) and inside(c, 1) and periods[2] == 1]
        if not joint:
            problems.append("(30,30,200): no interval with L,P in a bubble and A stable")
        else:
            lo, hi = min(joint), max(joint)
            if not (0.15 < lo and hi < 0.40):
                problems.append(f"(30,30,200): joint bubble ({lo:.4f}, {hi:.4f}) "
                                "not inside (0.15, 0.40)")
            if joint != [c for c, _, _ in rows if lo <= c <= hi]:
                problems.append("(30,30,200): joint bubble is not contiguous")
        tail = [periods for c, periods, _ in rows if c >= 0.45 - 1e-12]
        if not tail or not all(p == (1, 1, 1) for p in tail):
            problems.append("(30,30,200): some c >= 0.45 is not period (1,1,1)")
    else:
        first = next((i for i, (_, p, _) in enumerate(rows) if p == (1, 1, 1)), None)
        if first is None:
            problems.append(f"{target}: never stabilized")
        elif any(p != (1, 1, 1) for _, p, _ in rows[first + 1:]):
            problems.append(f"{target}: stability lost after c={rows[first][0]:.4f}")
    return problems


def check_cli(exit_code: int, report: str) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"bifurcate exited with {exit_code}")
    lines = set(report.splitlines())
    if "errors = 0" not in lines:
        problems.append("report does not say 'errors = 0'")
    if f"grid_points = {CHAIN_GRID - 1}" not in lines:
        problems.append(f"report does not say 'grid_points = {CHAIN_GRID - 1}'")
    return problems


def check_report(kind: str, c: float, k, tol: float, eq, residual: float, rho: float) -> list:
    problems = []
    if not residual <= tol:
        problems.append(f"{kind}: residual {residual:.3e} above tol {tol:.0e}")
    if np.max(np.abs(np.asarray(eq) - np.asarray(k)) / (1.0 + np.abs(k))) > 1e-6:
        problems.append(f"{kind}: equilibrium {eq} is not K")
    if kind.startswith("lpa"):
        expected, atol = (1.0 - c) * LPA_RHO, 1e-3
    else:
        expected, atol = (1.0 - c) * RICKER_RHO, 1e-9
    if abs(rho - expected) > atol:
        problems.append(f"{kind}: rho {rho:.6f} != (1-c)*{expected / (1.0 - c):.4f}"
                        f" = {expected:.6f} at c={c:.4f}")
    return problems


class ScanFresh:
    """Library ``bifurcation_scan`` of LPA under VMTOC, fresh initial states."""

    name = "scan-fresh"
    trace_cycle = 4  # one scan per target

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from chaosctl import analysis, dynamics, models
        self.dynamics = dynamics
        self.model = models.lpa_map()
        k = analysis.find_fixed_point(self.model, np.array([20.0, 20.0, 5.0]), tol=1e-13)
        self.targets = {"T=K": tuple(float(v) for v in k), "(30,30,200)": (30.0, 30.0, 200.0),
                        "(30,200,30)": (30.0, 200.0, 30.0), "(200,30,30)": (200.0, 30.0, 30.0)}

    def request(self, i: int) -> Outcome:
        target = SCAN_TARGETS[i % len(SCAN_TARGETS)]
        scan_seed = int(_draw(self.seed, i).integers(2**31))
        records = self.dynamics.bifurcation_scan(
            self.model, "VMTOC", self.targets[target], SCAN_GRID, seed=scan_seed,
            init_lo=0.0, init_hi=50.0, n_transient=SCAN_TRANSIENT, n_keep=SCAN_KEEP)
        rows = [(r.c, tuple(r.periods), r.error) for r in records]
        return Outcome(items=len(rows), evidence=(target, rows))

    @staticmethod
    def check(outcome: Outcome) -> list:
        return check_scan(*outcome.evidence)


class ScanChained:
    """In-process ``chaosctl bifurcate`` of the delayed Ricker lift, chained orbits."""

    name = "scan-chained"
    trace_cycle = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        from chaosctl import cli
        self.cli = cli
        os.makedirs(self.workdir, exist_ok=True)

    def argv(self, i: int) -> list:
        run_seed = int(_draw(self.seed, i).integers(2**31))
        settings = {"model.kind": "ricker", "model.r": "2", "model.delay": "2",
                    "control.scheme": "VMTOC", "control.target": "1,3",
                    "scan.grid": str(CHAIN_GRID), "scan.continue": "true",
                    "scan.cost": "true", "run.n_transient": str(CHAIN_TRANSIENT)}
        argv = ["bifurcate", "--seed", str(run_seed),
                "--out", os.path.join(self.workdir, "chain")]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def request(self, i: int) -> Outcome:
        prefix = os.path.join(self.workdir, "chain")
        exit_code = self.cli.main(self.argv(i))
        written = 0
        report = ""
        for suffix in (".scan.csv", ".report.txt"):
            path = prefix + suffix
            if os.path.exists(path):
                written += os.path.getsize(path)
                if suffix == ".report.txt":
                    with open(path) as fh:
                        report = fh.read()
                os.remove(path)
        return Outcome(items=CHAIN_GRID - 1, evidence=(exit_code, report),
                       bytes_written=written)

    @staticmethod
    def check(outcome: Outcome) -> list:
        return check_cli(*outcome.evidence)


class StabilitySweep:
    """``stability_report`` on LPA and Ricker, uncontrolled and VMTOC with T=K."""

    name = "stability-sweep"
    trace_cycle = 8  # each model kind twice

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from chaosctl import analysis, controls, models
        self.analysis, self.controls = analysis, controls
        self.models = {"lpa": models.lpa_map(),
                       "ricker": models.ricker_lift(models.RickerParams(r=2.0, delay=2))}
        starts = {"lpa": [20.0, 20.0, 5.0], "ricker": [1.5, 2.5]}
        self.k = {name: analysis.find_fixed_point(m, np.array(starts[name]), tol=1e-13)
                  for name, m in self.models.items()}

    def params(self, i: int):
        kind = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        base = kind.split("+")[0]
        k = np.asarray(self.k[base])
        rng = _draw(self.seed, i)
        c = float(rng.uniform(0.05, 0.6)) if kind.endswith("VMTOC") else 0.0
        half = float(rng.uniform(0.2, 0.8)) * k
        x0 = k * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, k.shape[0]))
        return kind, base, k, c, k - half, k + half, x0

    def request(self, i: int) -> Outcome:
        kind, base, k, c, lo, hi, x0 = self.params(i)
        model = self.models[base]
        if c > 0.0:
            cfg = self.controls.ControlConfig("VMTOC", c, tuple(k))
            model = self.controls.controlled_map(model, cfg)
        rep = self.analysis.stability_report(model, x0, lo, hi, n_samples=REPORT_SAMPLES,
                                             tol=REPORT_TOL)
        return Outcome(items=1, evidence=(kind, c, tuple(k), REPORT_TOL, rep.equilibrium,
                                          rep.residual, rep.rho))

    @staticmethod
    def check(outcome: Outcome) -> list:
        return check_report(*outcome.evidence)


WORKLOADS = {w.name: w for w in (ScanFresh, ScanChained, StabilitySweep)}
