"""Self-test of the benchmark harness (under a minute on two cores).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  * a short run of every workload prints exactly the end-to-end metrics of
    BENCHMARK.json, and a short traced run exactly its per-layer metrics,
    each with its unit and with correct verdicts;
  * the verdict checks reject corrupted results: a flipped period in a copy
    of a real scan, an erroring CLI report, a wrong spectral radius;
  * the tracer reports a layer whose hook no longer exists as absent;
  * the benchmark exits non-zero without a result in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from workloads import WORKLOADS, ScanFresh, check_cli, check_report, check_scan  # noqa: E402


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def _expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_emission(spec):
    for workload in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = _run(["--workload", workload, "--seed", "123", "--seconds", "1",
                                "--trace", str(trace)])
            _expect(code == 0 and lines, f"{workload} --trace {trace} exits 0")
            result = json.loads(lines[-1])
            _expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                    f"{workload} --trace {trace} prints the four result keys")
            _expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                    f"{workload} --trace {trace} passes its verdicts")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == want, f"{workload} --trace {trace} emits every {key} metric")


def check_verdicts():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scans = ScanFresh(seed=123, workdir="")
    scans.setup()
    for i in range(4):
        target, rows = scans.request(i).evidence
        _expect(not check_scan(target, rows), f"scan {target} passes as computed")
        bad = copy.deepcopy(rows)
        flip = next(j for j, (c, _, _) in enumerate(bad) if c >= 0.45)
        c, periods, err = bad[flip]
        bad[flip] = (c, (2,) + periods[1:], err)
        _expect(check_scan(target, bad), f"scan {target} with one period flipped is rejected")
        if target == "(30,30,200)":
            inner = next(j for j, (c, _, _) in enumerate(bad) if 0.25 <= c)
            bad = copy.deepcopy(rows)
            bad[inner] = (bad[inner][0], (1, 1, 1), None)
            _expect(check_scan(target, bad), "a bubble split in two is rejected")
    report = "grid_points = 149\nerrors = 0\n"
    _expect(not check_cli(0, report), "a clean CLI report passes")
    _expect(check_cli(0, report.replace("errors = 0", "errors = 3")), "CLI errors are rejected")
    _expect(check_cli(1, report), "a non-zero CLI exit is rejected")
    k = (28.012, 22.41, 4.625)
    good = ("lpa+VMTOC", 0.5, k, 1e-12, k, 0.0, 0.5 * 1.38027)
    _expect(not check_report(*good), "a correct stability report passes")
    _expect(check_report(*good[:-1], 0.5 * 1.38027 + 2e-3), "a wrong rho is rejected")
    _expect(check_report(*good[:5], 1e-9, good[6]), "a residual above tol is rejected")


def check_absent_hook():
    import chaosctl.models
    from tracer import HOOKS, Tracer
    original = chaosctl.models.lpa_eval
    hooks = tuple(h for h in HOOKS if h[0] != "core.contains") + \
        (("core.contains", "chaosctl.core", "DomainSpec.no_such_method", "hot"),)
    tracer = Tracer(hooks=hooks)
    tracer.install()
    try:
        tracer.run_request("r0", chaosctl.models.lpa_map().evaluate, [1.0, 2.0, 3.0])
    finally:
        tracer.uninstall()
    _expect(tracer.absent == ["core.contains"], "a missing hook is reported as an absent layer")
    _expect(tracer.stats["models.eval"].calls == 1, "the other hooks still count")
    _expect(chaosctl.models.lpa_eval is original, "uninstall restores the program")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(["--workload", "scan-fresh", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
        _expect(code != 0 and not any(line.startswith("{") for line in lines),
                "a directory without the program exits non-zero and prints no result")
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"), ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_verdicts()
    check_absent_hook()
    check_bare_directory()
    check_emission(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
