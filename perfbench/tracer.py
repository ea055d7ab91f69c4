"""Per-layer tracing of chaosctl from outside the package.

The tracer replaces public entry points that the program looks up at call
time (module attributes and one class method) with wrappers, and puts the
originals back on ``uninstall``.  No program file is edited.

Every wrapper keeps a call count and busy time for its layer.  Busy time is
split into self time with a stack of child-time accumulators: when a
wrapped call returns, its duration is added to the caller's accumulator, and
its self time is its duration minus what its own wrapped callees took.  The
bottom of the stack is the benchmark client, so the self times of one
request sum to the request's wall time.

Hot per-step layers (map evaluation, the controlled closure, the domain
check) keep only these counters.  Coarser layers (orbit, classification,
scan, report, CLI run and the analysis steps) also record a span
``(request id, layer, start, end, parent layer)`` kept in memory and written
out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import logging
import time

CLIENT = "bench.client"

# (layer, module, attribute path, kind).  A layer may have several hooks; it
# is reported absent only when none of them resolves.
HOOKS = (
    ("models.eval", "chaosctl.models", "lpa_eval", "hot"),
    ("models.eval", "chaosctl.models", "ricker_eval", "hot"),
    ("models.jacobian", "chaosctl.models", "lpa_jacobian", "hot"),
    ("models.jacobian", "chaosctl.models", "ricker_jacobian", "hot"),
    ("core.contains", "chaosctl.core", "DomainSpec.contains_unchecked", "hot"),
    ("controls.wrap", "chaosctl.dynamics", "controlled_map", "wrap"),
    ("controls.wrap", "chaosctl.controls", "controlled_map", "wrap"),
    ("dynamics.orbit", "chaosctl.dynamics", "iterate_orbit", "orbit"),
    ("dynamics.classify", "chaosctl.dynamics", "detect_period", "classify"),
    ("dynamics.scan", "chaosctl.dynamics", "bifurcation_scan", "scan"),
    ("analysis.report", "chaosctl.analysis", "stability_report", "span"),
    ("analysis.fixed_point", "chaosctl.analysis", "find_fixed_point", "fixed_point"),
    ("analysis.spectral_radius", "chaosctl.analysis", "spectral_radius", "span"),
    ("analysis.box_samples", "chaosctl.analysis", "box_samples", "box_samples"),
    ("analysis.bound_a", "chaosctl.analysis", "bound_A", "span"),
    ("analysis.lipschitz", "chaosctl.analysis", "lipschitz_estimate", "span"),
    ("cost.per_step", "chaosctl.cost", "cost_per_step", "span"),
    ("cli.main", "chaosctl.cli", "main", "span"),
)

# Layers built by wrapping the models that ``controlled_map`` returns.
DERIVED = ("controls.eval", "controls.jacobian")

LAYERS = tuple(dict.fromkeys([h[0] for h in HOOKS] + list(DERIVED) + [CLIENT]))

# Counts kept besides calls and self time, taken from arguments and results.
EXTRA_COUNTS = {
    "dynamics.orbit": ("steps",),
    "dynamics.classify": ("components", "aperiodic"),
    "dynamics.scan": ("failed_records",),
    "analysis.fixed_point": ("model_evals",),
    "analysis.box_samples": ("points",),
}


class Stat:
    """Counters of one layer."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self, extra=()):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(extra, 0)

    def add(self, key, value):
        self.extra[key] += value


class _DomainExitCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "left the domain" in record.getMessage():
            self.count += 1


class Tracer:
    """Installs the hooks, keeps the counters and the span list."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {layer: Stat(EXTRA_COUNTS.get(layer, ())) for layer in LAYERS}
        self.spans = []
        self.request_id = None
        self._stack = [0.0]        # child time of each open frame
        self._names = [CLIENT]     # layer of each open frame
        self._saved = []
        self._exits = _DomainExitCounter()
        self.absent = []

    # -- installing -------------------------------------------------------

    def install(self):
        resolved = set()
        for layer, mod_name, path, kind in self.hooks:
            try:
                owner = importlib.import_module(mod_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, kind))
            resolved.add(layer)
        self.absent = sorted({h[0] for h in self.hooks} - resolved)
        logging.getLogger("chaosctl.dynamics").addHandler(self._exits)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        logging.getLogger("chaosctl.dynamics").removeHandler(self._exits)

    # -- requests ---------------------------------------------------------

    def run_request(self, request_id, fn, *args):
        """Call ``fn(*args)`` as one request; returns (result, wall seconds)."""
        self.request_id = request_id
        self._stack[:] = [0.0]
        self._names[:] = [CLIENT]
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            client = self.stats[CLIENT]
            client.calls += 1
            client.self_s += wall - self._stack[0]
            self.spans.append((request_id, CLIENT, start, start + wall, None))
            self.request_id = None
        return result, wall

    def domain_exits(self):
        return self._exits.count

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rid, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"request": rid, "layer": layer, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, kind):
        stat = self.stats[layer]
        stack, names, clock = self._stack, self._names, time.perf_counter

        if kind == "hot":
            def hot(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stack[-1] += elapsed
                    stat.calls += 1
                    stat.self_s += elapsed - child
            return hot

        evals = self.stats["models.eval"]
        spans, tracer = self.spans, self
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            evals_before = evals.calls
            stack.append(0.0)
            names.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                names.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - child
                spans.append((tracer.request_id, layer, start, start + elapsed, names[-1]))
            # Bookkeeping below is charged to the caller's self time.
            if kind == "wrap":
                return tracer._wrap_model(result)
            if kind == "orbit":
                bound = signature.bind_partial(*args, **kwargs).arguments
                stat.add("steps", len(result) + int(bound.get("n_transient", 0)))
            elif kind == "classify":
                stat.add("components", len(result))
                stat.add("aperiodic", sum(p is None for p in result))
            elif kind == "scan":
                stat.add("failed_records", sum(1 for r in result if getattr(r, "error", None)))
            elif kind == "box_samples":
                stat.add("points", len(result))
            elif kind == "fixed_point":
                stat.add("model_evals", evals.calls - evals_before)
            return result

        return spanned

    def _wrap_model(self, model):
        """Time the controlled closure and its Jacobian as their own layers."""
        if not dataclasses.is_dataclass(model):
            return model
        changes = {"evaluate": self._wrap(model.evaluate, "controls.eval", "hot")}
        if getattr(model, "jacobian", None) is not None:
            changes["jacobian"] = self._wrap(model.jacobian, "controls.jacobian", "hot")
        return dataclasses.replace(model, **changes)

