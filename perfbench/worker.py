"""One benchmark process: set up, warm up, then serve a closed loop of requests.

Started by ``run.py`` in the checkout's root, with its ``src`` on ``PYTHONPATH``.  It
writes ``READY <reference clock reading>`` on standard output when set-up
(imports, model build, the equilibrium K, one untimed warm-up request) is
done, and in the ``run`` and ``trace`` modes one ``RESULT <json>`` line at
the end.  Anything the program itself prints is discarded, so the protocol
lines stay parseable.

Modes:
  setup  stop after ``READY`` (one more set-up sample for ``setup_s``);
  run    untraced requests until ``--seconds`` have passed;
  trace  repeat one fixed cycle of requests, each cycle first untraced and
         then traced, until ``--seconds`` have passed; per-layer numbers are
         averaged per cycle, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import refclock
from tracer import LAYERS, Tracer
from workloads import WARMUP_INDEX, WORKLOADS, Outcome


def _serve(workload, i):
    """Run request ``i``; a raised exception becomes a failed outcome."""
    try:
        return workload.request(i)
    except Exception as exc:  # the loop must go on and count the failure
        return Outcome(items=0, evidence=None, error=f"{type(exc).__name__}: {exc}")


def _problems(workload, outcome):
    if outcome.error:
        return [outcome.error]
    return workload.check(outcome)


def _provenance():
    import numpy
    import chaosctl
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "chaosctl": getattr(chaosctl, "__version__", "unknown"),
            "nproc": os.cpu_count(), "cpus_used": len(os.sched_getaffinity(0))}


def run_loop(workload, seconds, ref):
    """Untraced closed loop; request times are in reference-speed seconds."""
    windows, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while not windows or clock() - start < seconds:
        before, t0 = ref.read(), clock()
        outcomes.append(_serve(workload, i))
        windows.append((clock() - t0, before, ref.read()))
        i += 1
    steps = windows[-1][2][0] - windows[0][1][0]
    cpu = windows[-1][2][1] - windows[0][1][1]
    mean_speed = steps / cpu if steps and cpu > 0 else refclock.REF_STEPS_PER_S
    return {"loop_wall_s": clock() - start,
            "latencies_s": [refclock.normalized(*w, mean_speed) for w in windows],
            "speed": mean_speed / refclock.REF_STEPS_PER_S,
            "items": sum(o.items for o in outcomes), "outcomes": outcomes}


def trace_loop(workload, seconds, root, seed, ref):
    """Untraced then traced passes over one fixed cycle of requests.

    Each traced request's self times are scaled by the request's ratio of
    reference-speed time to wall time, so they sum to its normalized time.
    """
    tracer = Tracer()
    clock = time.perf_counter
    self_s = dict.fromkeys(LAYERS, 0.0)
    untraced = traced = 0.0
    outcomes, worst_sum_error, written = [], 0.0, 0
    cycles = 0
    start = clock()
    while cycles == 0 or clock() - start < seconds:
        for i in range(workload.trace_cycle):
            before, t0 = ref.read(), clock()
            _serve(workload, i)
            untraced += refclock.normalized(clock() - t0, before, ref.read())
        tracer.install()
        try:
            for i in range(workload.trace_cycle):
                before, mark = ref.read(), {k: s.self_s for k, s in tracer.stats.items()}
                outcome, wall = tracer.run_request(f"c{cycles}r{i}", _serve, workload, i)
                scale = refclock.normalized(wall, before, ref.read()) / wall
                deltas = {k: s.self_s - mark[k] for k, s in tracer.stats.items()}
                worst_sum_error = max(worst_sum_error, abs(sum(deltas.values()) - wall))
                for layer, delta in deltas.items():
                    self_s[layer] += delta * scale
                traced += wall * scale
                written += outcome.bytes_written
                outcomes.append(outcome)
        finally:
            tracer.uninstall()
        cycles += 1
    os.makedirs(os.path.join(root, ".perfbench_traces"), exist_ok=True)
    tracer.write_spans(os.path.join(root, ".perfbench_traces",
                                    f"{workload.name}-seed{seed}.jsonl"))
    return {"outcomes": outcomes, "layers": _layer_metrics(tracer, self_s, cycles, written),
            "overhead": traced / untraced, "cycles": cycles,
            "traced_s": traced / cycles, "untraced_s": untraced / cycles,
            "sum_error_s": worst_sum_error, "absent": tracer.absent}


def _layer_metrics(tracer, self_s, cycles, written):
    """Per-cycle totals of every layer's counters."""
    out = {}
    for layer in LAYERS:
        stat = tracer.stats[layer]
        out[f"{layer}.calls"] = stat.calls / cycles
        out[f"{layer}.self_s"] = self_s[layer] / cycles
        for key, value in stat.extra.items():
            out[f"{layer}.{key}"] = value / cycles
    classify = tracer.stats["dynamics.classify"].extra
    out["dynamics.classify.aperiodic_share"] = \
        classify["aperiodic"] / classify["components"] if classify["components"] else 0.0
    out["dynamics.orbit.domain_exits"] = tracer.domain_exits() / cycles
    out["cli.bytes_written"] = written / cycles
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = parser.parse_args()
    root = os.getcwd()

    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w")
    refclock.pin_to_one_core()
    ref = refclock.ReferenceClock().start()
    try:
        import chaosctl
        src = os.path.realpath(os.path.join(root, "src"))
        if not os.path.realpath(chaosctl.__file__).startswith(src + os.sep):
            raise SystemExit(f"chaosctl imported from {chaosctl.__file__}, not {src}")
        workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        warm = _serve(workload, WARMUP_INDEX)
        if warm.error:
            raise SystemExit(f"warm-up request failed: {warm.error}")
        protocol.write("READY " + json.dumps(ref.read()) + "\n")
        protocol.flush()
        if args.mode == "setup":
            return
        if args.mode == "run":
            result = run_loop(workload, args.seconds, ref)
        else:
            result = trace_loop(workload, args.seconds, root, args.seed, ref)
        outcomes = result.pop("outcomes")
        per_request = [_problems(workload, o) for o in outcomes]
        result.update(
            attempted=len(outcomes),
            failed=sum(1 for p in per_request if p),
            problems=[p for ps in per_request for p in ps][:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=_provenance())
        protocol.write("RESULT " + json.dumps(result) + "\n")
        protocol.flush()
    finally:
        ref.stop()
        sys.stdout.close()
        sys.stdout = protocol


if __name__ == "__main__":
    main()
