"""chaosctl benchmark: one workload, one run, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-fresh --seed 123 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``scan-fresh``, ``scan-chained`` and
``stability-sweep``.  Each runs in a fresh worker process started with the
checkout's ``src`` first on ``PYTHONPATH``, ``CHAOSCTL_THREADS`` unset,
native thread pools limited to one thread and the process pinned to one core.

Every time reported is a reference-speed time (see ``refclock.py``): wall
time corrected for the drifting speed of a shared core, so that runs taken
while the host is busy and while it is idle agree.  The raw wall figures are
printed alongside.

With ``--trace 0`` the run measures the end-to-end metrics:

  setup_s          median over several worker processes of the time from
                   process start to the first timed request (imports, model
                   build, solving K, one warm-up request)
  items_per_s      grid points per second on the scan workloads, reports per
                   second on stability-sweep
  request_ms_p50   median request latency
  request_ms_tail  highest percentile with at least ten requests beyond it
                   (the maximum when fewer than eleven requests ran)
  peak_rss_mb      peak resident memory of the measuring worker

With ``--trace 1`` it measures the per-layer metrics named in
``BENCHMARK.json`` (see ``tracer.py``) and the tracing overhead.

Every request's scientific verdict is checked; ``failed`` counts requests
that raised, reported an error or failed their check, and ``correct`` is
false if any did.  Lines before the last one give provenance and details;
the last line is the JSON result.  Exits non-zero without a result when the
checkout holds no ``src/chaosctl`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refclock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5          # set-up-only workers before the measuring one
DEADLINE_S = 170.0         # whole run, including set-up workers
SUM_TOLERANCE_S = 1e-6     # per-request self times must sum to its wall time
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    pass


def _env(root):
    env = dict(os.environ)
    env.pop("CHAOSCTL_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(root, args, mode, deadline):
    """Start one worker; returns (reference-speed seconds from start to READY,
    result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                wall = time.perf_counter() - start
                reading = json.loads(line[len("READY "):])
                ready = refclock.normalized(wall, (0, 0.0), reading)
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise WorkerError(f"{mode} worker exited with code {code}")
    return ready, result


def _commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (checkout is not a git repository)"


def _tail(latencies):
    """(value, percentile, samples beyond it) of the tail latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND          # 1-based rank with TAIL_BEYOND samples above it
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def end_to_end(args, root, deadline):
    setups = [_spawn(root, args, "setup", deadline)[0] for _ in range(SETUP_REPEATS)]
    ready, res = _spawn(root, args, "run", deadline)
    setups.append(ready)
    lat = res["latencies_s"]
    busy = sum(lat)
    tail, pct, beyond = _tail(lat)
    unit = "reports" if args.workload == "stability-sweep" else "grid points"
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"{len(lat)} requests, {res['items']} {unit}: {busy:.3f} reference-speed s, "
          f"{res['loop_wall_s']:.3f} wall s, core at {res['speed']:.3f}x reference speed")
    print(f"{'reports_per_s' if unit == 'reports' else 'scan_points_per_s'} = "
          f"{res['items'] / busy:.4f} (wall: {res['items'] / res['loop_wall_s']:.4f})")
    print(f"request_ms_tail is p{pct:.1f} of {len(lat)} requests, {beyond} beyond it")
    return res, {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (res["items"] / busy, "items/s"),
        "request_ms_p50": (1000.0 * statistics.median(lat), "ms"),
        "request_ms_tail": (1000.0 * tail, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(args, root, deadline):
    _, res = _spawn(root, args, "trace", deadline)
    for layer in res["absent"]:
        print(f"layer {layer} absent: none of its hooks exists in this program")
    layers = res["layers"]
    print(f"tracing overhead: {res['overhead']:.3f}x (traced {res['traced_s']:.3f} s / "
          f"untraced {res['untraced_s']:.3f} s per cycle, {res['cycles']} cycles)")
    print(f"dynamics.classify.aperiodic_share base: "
          f"{layers['dynamics.classify.components']:g} classified components per cycle")
    print(f"largest |sum of self times - request wall| = {res['sum_error_s']:.3e} s")
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_share") else \
            "bytes" if name.endswith("bytes_written") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead"] = (res["overhead"], "ratio")
    metrics["trace.wall_s"] = (res["traced_s"], "s")
    metrics["trace.absent_layers"] = (len(res["absent"]), "count")
    if res["sum_error_s"] > SUM_TOLERANCE_S:
        res["problems"].append("per-layer self times do not sum to the request wall time")
    return res, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaosctl", "__init__.py")):
        print(f"error: no chaosctl sources under {root}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, metrics = per_layer(args, root, deadline)
        else:
            res, metrics = end_to_end(args, root, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_work"), ignore_errors=True)

    prov = dict(res["provenance"], commit=_commit(root))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"failed_share = {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']} requests)")
    for problem in res["problems"]:
        print(f"verdict failed: {problem}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
