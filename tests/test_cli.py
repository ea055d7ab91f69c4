import os
import warnings

import numpy as np
import pytest

from chaosctl import (ControlConfig, DomainSpec, MapModel, ScanRecord, analysis,
                      bifurcation_scan, controlled_map, controls, cost_per_step, dynamics,
                      iterate_orbit, lpa_map, models)
from chaosctl.cli import (CHECKS, COMMANDS, FIELDS, ConfigError, RunConfig, _state_text,
                          _write_scan_csv, build_control, build_model, main)

from conftest import LPA_FIXED_POINT


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_config_round_trip():
    cfg = RunConfig()
    cfg.set("control.scheme", "VMTOC")
    cfg.set("control.target", "28.0120,22.4096,4.6251")
    cfg.set("run.n_transient", "100")
    cfg.set("scan.continue", "true")
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


def test_lpa_keys_are_the_fields_of_lpa_params(monkeypatch):
    # the config's defaults are LpaParams' own, and every key reaches its field
    lpa = ("b", "c_ea", "c_el", "c_pa", "mu_a", "mu_l")
    assert [line for line in RunConfig().to_text().splitlines()
            if line.split(" = ")[0] in {f"model.{name}" for name in lpa}] == [
        "model.b = 10.449999999999999", "model.c_ea = 0.013100000000000001",
        "model.c_el = 0.017309999999999999", "model.c_pa = 0.34999999999999998",
        "model.mu_a = 0.95999999999999996", "model.mu_l = 0.20000000000000001"]
    built = []
    monkeypatch.setattr(models, "lpa_map", built.append)
    cfg = RunConfig()
    for k, name in enumerate(lpa):
        cfg.set(f"model.{name}", f"0.{k + 1}")
    build_model(cfg)
    assert built == [models.LpaParams(b=0.1, c_ea=0.2, c_el=0.3, c_pa=0.4, mu_a=0.5, mu_l=0.6)]


def test_config_parsing_errors():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("no.such.key = 1\n")
    assert err.value.key == "no.such.key"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("run.n_keep = many\n")
    assert err.value.key == "run.n_keep"
    with pytest.raises(ConfigError):
        RunConfig.from_text("just a line without equals\n")


def test_config_comments_and_none():
    cfg = RunConfig.from_text("""
# comment line
run.seed = 7    # trailing comment
control.target = none
""")
    assert cfg["run.seed"] == 7
    assert cfg["control.target"] is None


def test_build_model_variants():
    assert build_model(RunConfig()).name == "lpa"
    cfg = RunConfig()
    cfg.set("model.kind", "ricker")
    cfg.set("model.r", "2.0")
    cfg.set("model.delay", "4")
    model = build_model(cfg)
    assert model.dimension == 4
    cfg = RunConfig()
    cfg.set("model.kind", "hopfield")
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    assert err.value.key == "model.kind"


def test_build_model_plugin(tmp_path, monkeypatch):
    mod = tmp_path / "myplugin.py"
    mod.write_text(
        "import numpy as np\n"
        "from chaosctl import DomainSpec, MapModel\n"
        "def make():\n"
        "    return MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),\n"
        "                    domain=DomainSpec.full_space(1), name='halver')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = RunConfig()
    cfg.set("model.kind", "plugin")
    cfg.set("model.plugin", "myplugin:make")
    assert build_model(cfg).name == "halver"
    cfg.set("model.plugin", "myplugin:missing")
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    assert err.value.key == "model.plugin"


def test_build_control_errors():
    for key, raw in (("control.intensity", "1.5"), ("control.scheme", "TOC"),
                     ("control.target", "none")):
        cfg = RunConfig()
        cfg.set("control.scheme", "VMTOC")
        cfg.set("control.target", "1,1,1")
        cfg.set(key, raw)
        with pytest.raises(ConfigError) as err:
            build_control(cfg, build_model(cfg))
        assert err.value.key == key
    # a valid control comes with the map that checked it
    cfg = RunConfig()
    model = build_model(cfg)
    assert build_control(cfg, model) == (None, model)
    cfg.set("control.scheme", "VMTOC")
    cfg.set("control.target", "1,1,1")
    control, g = build_control(cfg, model)
    assert control == ControlConfig("VMTOC", 0.5, (1.0, 1.0, 1.0))
    assert g.name == "VMTOC(lpa)"
    x = np.array([20.0, 20.0, 5.0])
    assert g.evaluate(x).tolist() == controlled_map(model, control).evaluate(x).tolist()


def run_cli(tmp_path, *args):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(args))
    finally:
        os.chdir(cwd)


def test_equilibrium_command(tmp_path):
    rc = run_cli(tmp_path, "equilibrium", "--out", "eq", "--set", "run.x0=20,20,5")
    assert rc == 0
    report = read_report(tmp_path / "eq.report.txt")
    eq = [float(report[f"equilibrium.{j}"]) for j in range(3)]
    np.testing.assert_allclose(eq, LPA_FIXED_POINT, atol=1e-3)
    assert float(report["residual"]) < 1e-9


def test_stability_command_degenerate_box(tmp_path):
    k = ",".join(str(v) for v in LPA_FIXED_POINT)
    rc = run_cli(tmp_path, "stability", "--out", "st",
                 "--set", "run.x0=20,20,5",
                 "--set", f"sample.lo={k}", "--set", f"sample.hi={k}",
                 "--set", "sample.n=8")
    assert rc == 0
    report = read_report(tmp_path / "st.report.txt")
    assert float(report["rho"]) == pytest.approx(1.3803, abs=1e-3)
    assert float(report["local_cstar_rho"]) == pytest.approx(0.2756, abs=1e-3)


def test_simulate_command_csv(tmp_path):
    rc = run_cli(tmp_path, "simulate", "--out", "sim", "--seed", "5",
                 "--set", "run.n_transient=50", "--set", "run.n_keep=8")
    assert rc == 0
    lines = (tmp_path / "sim.orbit.csv").read_text().splitlines()
    assert lines[0] == "step,component,value"
    assert len(lines) == 1 + 8 * 3


def test_simulate_with_one_kept_state_says_why_it_has_no_periods(tmp_path):
    rc = run_cli(tmp_path, "simulate", "--out", "one", "--seed", "5",
                 "--set", "run.n_transient=50", "--set", "run.n_keep=1")
    assert rc == 0
    report = read_report(tmp_path / "one.report.txt")
    assert report["periods"] == "none (1 kept state; a period needs at least 2)"
    assert list(report) == ["command", "model", "seed", "periods",
                            "final.0", "final.1", "final.2"]
    assert len((tmp_path / "one.orbit.csv").read_text().splitlines()) == 1 + 3


def test_bifurcate_deterministic_output(tmp_path):
    args = ("bifurcate", "--out", "scan", "--seed", "11",
            "--set", "control.scheme=VMTOC",
            "--set", "control.target=28.0120,22.4096,4.6251",
            "--set", "scan.grid=12", "--set", "run.n_transient=400",
            "--set", "run.n_keep=10")
    assert run_cli(tmp_path, *args) == 0
    first = (tmp_path / "scan.scan.csv").read_bytes()
    assert run_cli(tmp_path, *args) == 0
    assert (tmp_path / "scan.scan.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "c,step,component,value,period"
    rows = first.decode().splitlines()[1:]
    assert len(rows) == 11 * 10 * 3  # grid k/12, k = 1..11


def test_chained_scan_warnings_name_the_lines_of_the_compiled_step(tmp_path):
    # a chained scan of the delay-2 Ricker lift at r = 800 toward (1000, 1000)
    # overflows at weak controls; each failing step replays through the
    # array form, whose warnings name its exponential and its product
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(tmp_path, "bifurcate", "--seed", "7", "--out", "chainfail",
                     "--set", "model.kind=ricker", "--set", "model.r=800",
                     "--set", "model.delay=2", "--set", "control.scheme=VMTOC",
                     "--set", "control.target=1000,1000", "--set", "scan.grid=30",
                     "--set", "scan.continue=true", "--set", "run.n_transient=250",
                     "--set", "init.lo=0", "--set", "init.hi=800")
    assert rc == 0
    assert "errors = 7\n" in (tmp_path / "chainfail.report.txt").read_text()
    lines = {(w.lineno, str(w.message).split()[-1]) for w in caught
             if w.filename == "<chaosctl compiled step>"}
    assert lines == {(5, "exp"), (6, "multiply")}


def test_bifurcate_with_cost_column(tmp_path):
    rc = run_cli(tmp_path, "bifurcate", "--out", "sc", "--seed", "1",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251",
                 "--set", "scan.c_list=0.5", "--set", "run.n_transient=200",
                 "--set", "run.n_keep=6", "--set", "scan.cost=true")
    assert rc == 0
    lines = (tmp_path / "sc.scan.csv").read_text().splitlines()
    assert lines[0] == "c,step,component,value,period,cost"
    assert all(len(line.split(",")) == 6 for line in lines[1:])


_SQUARE = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) ** 2,\n"
    "                    domain=DomainSpec.full_space(1))\n")


@pytest.mark.parametrize("chained", ["false", "true"])
def test_scan_cost_column_skips_zero_intensity_and_failed_records(tmp_path, monkeypatch,
                                                                  chained):
    # x -> 3c + (1-c) x^2 from 0.5: 0 at c = 0, overflow at step 12 at c = 0.5,
    # and a stable fixed point at c = 0.95 and 0.97
    (tmp_path / "square.py").write_text(_SQUARE)
    monkeypatch.syspath_prepend(str(tmp_path))
    from square import make

    with np.errstate(over="ignore"):
        rc = run_cli(tmp_path, "bifurcate", "--out", "sq", "--seed", "2",
                     "--set", "model.kind=plugin", "--set", "model.plugin=square:make",
                     "--set", "control.scheme=VMTOC", "--set", "control.target=3",
                     "--set", "scan.c_list=0,0.5,0.95,0.97", "--set", "init.lo=0.5",
                     "--set", "init.hi=0.5", "--set", "run.n_transient=30",
                     "--set", "run.n_keep=6", "--set", "scan.cost=true",
                     "--set", "cost.norm=sum", "--set", f"scan.continue={chained}")
        records = bifurcation_scan(make(), "VMTOC", (3.0,), [0.0, 0.5, 0.95, 0.97], seed=2,
                                   init_lo=0.5, init_hi=0.5, n_transient=30, n_keep=6,
                                   continue_orbits=chained == "true")
    assert rc == 0
    assert read_report(tmp_path / "sq.report.txt")["errors"] == "1"
    # the cost column as priced one record at a time
    costs = [0.0 if rec.c <= 0.0 or rec.error else
             cost_per_step(make(), ControlConfig("VMTOC", rec.c, (3.0,)), rec.points,
                           norm_kind="sum").value
             for rec in records]
    assert costs[0] == 0.0 and costs[2] > 0.0
    lines = (tmp_path / "sq.scan.csv").read_text().splitlines()
    assert lines == _scan_csv_lines_per_line(records, costs)
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "0.94999999999999996",
                                                          "0.96999999999999997"}


def _scan_csv_lines_per_line(records, costs=None):
    """The scan CSV as formatted before per-record formatting: every field
    of every line formatted on its own."""
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
    return lines


def test_scan_csv_matches_per_line_formatting(tmp_path, capsys):
    # chaotic (aperiodic), in the (30,30,200) bubble (period 2) and stable,
    # then a failed record, which writes no line
    records = bifurcation_scan(lpa_map(), "VMTOC", (30.0, 30.0, 200.0), [0.0, 0.25, 0.5],
                               seed=3, n_transient=500, n_keep=40)
    records.append(ScanRecord(c=0.75, points=np.empty((0, 3)), periods=(None,) * 3,
                              seed=3, error="non-finite state at step 9"))
    assert None in records[0].periods and 2 in records[1].periods
    for costs in (None, [0.0, 0.1 + 0.2, 1.0 / 3.0, 2.5e-17]):
        _write_scan_csv(tmp_path / "s.csv", records, costs)
        expected = "\n".join(_scan_csv_lines_per_line(records, costs)) + "\n"
        assert (tmp_path / "s.csv").read_text() == expected
    assert "aperiodic" in expected


def _orbit_csv_lines_per_line(orbit):
    """The orbit CSV as formatted before it shared the scan's row formatter."""
    lines = ["step,component,value"]
    for i, state in enumerate(orbit):
        for j, v in enumerate(state):
            lines.append(f"{i},{j},{v:.17g}")
    return lines


def test_orbit_csv_matches_per_line_formatting(tmp_path):
    rc = run_cli(tmp_path, "simulate", "--out", "o", "--set", "run.x0=20,20,5",
                 "--set", "run.n_transient=100", "--set", "run.n_keep=30")
    assert rc == 0
    orbit = iterate_orbit(lpa_map(), None, [20.0, 20.0, 5.0], 100, 30)
    expected = "\n".join(_orbit_csv_lines_per_line(orbit)) + "\n"
    assert (tmp_path / "o.orbit.csv").read_text() == expected
    odd = np.array([[-0.0, 1e-300, 0.1 + 0.2], [np.nan, -np.inf, 2.0 ** 60]])
    assert (["step,component,value"] + _state_text(odd).splitlines()
            == _orbit_csv_lines_per_line(odd))



def test_csv_rows_are_formatted_once_each_but_as_every_value_alone(tmp_path):
    # a component holding 0.0 and -0.0, which compare equal but print apart,
    # and kept windows of period 1, of period 3 and of no period
    rng = np.random.default_rng(5)
    windows = {
        (1, None): np.array([[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5], [0.0, -1.5]] * 3),
        (1, 1): np.tile([[2.0, -0.0]], (12, 1)),
        (3, 3): np.tile([[0.1, 1e-300], [-0.0, -5e-324], [0.1 + 0.2, 2.0 ** 60]], (4, 1)),
        (None, None): rng.standard_normal((12, 2)) * [1.0, 1e300],
    }
    records = [ScanRecord(c=c, points=points, periods=periods, seed=0)
               for c, (periods, points) in zip([0.0, 0.1, 1 / 3, 0.9], windows.items())]
    for costs in (None, [0.0, 0.1 + 0.2, 1.0 / 3.0, -0.0]):
        _write_scan_csv(tmp_path / "s.csv", records, costs)
        expected = "\n".join(_scan_csv_lines_per_line(records, costs)) + "\n"
        assert (tmp_path / "s.csv").read_text() == expected
    assert "-0," in expected and ",0,0," in expected
    for points in list(windows.values()) + [windows[(3, 3)][::2], windows[(1, None)].T.copy()]:
        assert (["step,component,value"] + _state_text(points).splitlines()
                == _orbit_csv_lines_per_line(points))
    # a simulated orbit that recurs at step 61, inside its kept window
    settings = ["run.x0=22,27,5", "control.scheme=VMTOC", "control.intensity=0.6",
                "control.target=28.0120,22.4096,4.6251", "run.n_transient=20", "run.n_keep=400"]
    assert run_cli(tmp_path, "simulate", "--out", "o",
                   *[arg for kv in settings for arg in ("--set", kv)]) == 0
    orbit = iterate_orbit(lpa_map(), ControlConfig("VMTOC", 0.6, LPA_FIXED_POINT),
                          [22.0, 27.0, 5.0], 20, 400)
    assert len(np.unique(orbit, axis=0)) < 50
    expected = "\n".join(_orbit_csv_lines_per_line(orbit)) + "\n"
    assert (tmp_path / "o.orbit.csv").read_text() == expected

def test_bubbles_command(tmp_path):
    rc = run_cli(tmp_path, "bubbles", "--out", "bb", "--seed", "123",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.target=30,30,200",
                 "--set", "scan.grid=60")
    assert rc == 0
    report = read_report(tmp_path / "bb.report.txt")
    assert int(report["bubbles"]) >= 2
    flagged = {int(v.split(",")[0]) for k, v in report.items()
               if k.startswith("bubble.")}
    assert {0, 1} <= flagged  # larvae and pupae both bubble


_SQRT_PLUGIN = (
    "import math\n"
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def sqrt3(x):\n"
    "    with np.errstate(invalid='ignore'):\n"
    "        return 3.0 * np.sqrt(np.asarray(x, float))\n"
    "def fd():\n"
    "    return MapModel(dimension=1, evaluate=sqrt3, domain=DomainSpec.full_space(1))\n"
    "def analytic():\n"
    "    return MapModel(dimension=1, evaluate=sqrt3,\n"
    "                    jacobian=lambda x: np.array([[math.inf if x[0] == 0.0\n"
    "                                                  else 1.5 / math.sqrt(x[0])]]),\n"
    "                    domain=DomainSpec.nonnegative_orthant(1))\n")


@pytest.mark.parametrize("plugin, lo, first", [
    # finite differences: NaN at every sample below 0, the first corner
    ("fd", "-4", "sample 0, x = (-4)"),
    # analytic: inf at the corner x = 0
    ("analytic", "0", "sample 0, x = (0)"),
])
def test_stability_rejects_non_finite_jacobian(tmp_path, monkeypatch, capsys, plugin, lo,
                                               first):
    (tmp_path / "sqrtmap.py").write_text(_SQRT_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    rc = run_cli(tmp_path, "stability", "--out", "sq",
                 "--set", "model.kind=plugin", "--set", f"model.plugin=sqrtmap:{plugin}",
                 "--set", "run.x0=5", "--set", f"sample.lo={lo}", "--set", "sample.hi=4")
    assert rc == 1
    assert (f"error: non-finite Jacobian row or column sum at {first}"
            in capsys.readouterr().err)
    assert not (tmp_path / "sq.report.txt").exists()


_EXP_PLUGIN = (
    "import math\n"
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=1,\n"
    "                    evaluate=lambda x: np.array([0.5 * math.exp(x[0] / 100)]),\n"
    "                    domain=DomainSpec.nonnegative_orthant(1))\n")


@pytest.mark.parametrize("command, settings", [
    # the finite-difference Jacobian of bound_A overflows at the box's far corner
    ("stability", ["run.x0=0.5", "sample.lo=0", "sample.hi=100000"]),
    # the fixed-point search evaluates exp(900)
    ("equilibrium", ["run.x0=90000"]),
])
def test_plugin_arithmetic_error_exits_1_and_writes_no_file(tmp_path, monkeypatch, capsys,
                                                            command, settings):
    plugins, out = tmp_path / "plugins", tmp_path / "out"
    plugins.mkdir()
    out.mkdir()
    (plugins / "expmap.py").write_text(_EXP_PLUGIN)
    monkeypatch.syspath_prepend(str(plugins))
    rc = run_cli(out, command, "--out", "ex", "--set", "model.kind=plugin",
                 "--set", "model.plugin=expmap:make",
                 *[arg for s in settings for arg in ("--set", s)])
    assert rc == 1
    where = {"stability": "Jacobian failed at sample 1, x = (100000)",
             "equilibrium": "no fixed point: evaluation failed at x = (90000)"}[command]
    best = " (best residual inf)" if command == "equilibrium" else ""
    assert capsys.readouterr().err == (f"error: {where}: OverflowError: math range error"
                                       f"{best}\n")
    assert os.listdir(out) == []


def test_simulate_ricker_controlled_settles_on_pattern(tmp_path):
    rc = run_cli(tmp_path, "simulate", "--out", "rk",
                 "--set", "model.kind=ricker", "--set", "model.r=2",
                 "--set", "model.delay=2",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.intensity=0.4",
                 "--set", "control.target=1,3",
                 "--set", "run.x0=1,2", "--set", "run.n_transient=2000",
                 "--set", "run.n_keep=10")
    assert rc == 0
    report = read_report(tmp_path / "rk.report.txt")
    assert report["periods"] == "1,1"
    final = [float(report["final.0"]), float(report["final.1"])]
    # settles on a state with distinct components: the delay-line reading of
    # a two-value population cycle
    assert abs(final[0] - final[1]) > 0.5


def test_lyapunov_command(tmp_path):
    rc = run_cli(tmp_path, "lyapunov", "--out", "ly", "--seed", "2",
                 "--set", "run.x0=22,27,5", "--set", "run.lyapunov_steps=3000")
    assert rc == 0
    report = read_report(tmp_path / "ly.report.txt")
    assert float(report["lyapunov_max"]) > 0.0


_NAN_JACOBIAN_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),\n"
    "                    jacobian=lambda x: np.array([[np.nan]]),\n"
    "                    domain=DomainSpec.full_space(1))\n")


def test_lyapunov_rejects_a_non_finite_jacobian(tmp_path, monkeypatch, capsys):
    (tmp_path / "nanjac.py").write_text(_NAN_JACOBIAN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    with np.errstate(invalid="ignore"):
        rc = run_cli(tmp_path, "lyapunov", "--out", "nj", "--set", "model.kind=plugin",
                     "--set", "model.plugin=nanjac:make", "--set", "run.x0=1")
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite Jacobian at step 0, x = (1)\n"
    assert sorted(os.listdir(tmp_path)) == ["nanjac.py"]


def test_lyapunov_rejects_a_raising_jacobian(tmp_path, monkeypatch, capsys):
    # x_i = 0.5^i; the Jacobian 1/(x - 0.125) divides by zero at x_3
    (tmp_path / "raisejac.py").write_text(_NAN_JACOBIAN_PLUGIN.replace(
        "np.array([[np.nan]])", "np.array([[1.0 / (float(x[0]) - 0.125)]])"))
    monkeypatch.syspath_prepend(str(tmp_path))
    rc = run_cli(tmp_path, "lyapunov", "--out", "rj", "--set", "model.kind=plugin",
                 "--set", "model.plugin=raisejac:make", "--set", "run.x0=1")
    assert rc == 1
    assert capsys.readouterr().err == ("error: Jacobian failed at step 3, x = (0.125): "
                                       "ZeroDivisionError: float division by zero\n")
    assert sorted(os.listdir(tmp_path)) == ["raisejac.py"]


@pytest.mark.parametrize("command, builds", [
    ("simulate", 1), ("cost", 1), ("equilibrium", 1), ("stability", 1), ("lyapunov", 1),
    # a chained scan checks its control at intensity 0; each of its 9 grid
    # points builds only its float step, since none fails and replays a step
    ("bifurcate", 1),
])
def test_a_controlled_command_builds_its_map_once(tmp_path, monkeypatch, command, builds):
    built = []
    build = controls._controlled

    def spy(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(controls, "_controlled", spy)
    rc = run_cli(tmp_path, command, "--out", "once", "--set", "control.scheme=VMTOC",
                 "--set", "control.intensity=0.4", "--set", _K_TARGET,
                 "--set", "run.x0=20,20,5", "--set", "run.lyapunov_steps=1000",
                 "--set", "sample.n=16", "--set", "scan.grid=10",
                 "--set", "scan.continue=true")
    assert rc == 0
    assert len(built) == builds


def test_cost_command(tmp_path):
    rc = run_cli(tmp_path, "cost", "--out", "co",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251",
                 "--set", "control.intensity=0.5",
                 "--set", "run.x0=10,10,10", "--set", "run.n_transient=1500",
                 "--set", "run.n_keep=20")
    assert rc == 0
    report = read_report(tmp_path / "co.report.txt")
    # the 4-decimal target sits ~5e-5 away from the exact fixed point, so the
    # converged per-step cost settles at that scale rather than at zero
    assert 0.0 < float(report["cost_per_step"]) < 1e-3


@pytest.mark.parametrize("start, length, window", [(0, 0, "0,20"), (5, 0, "5,15"),
                                                   (5, 15, "5,15"), (19, 1, "19,1")])
def test_cost_window_keys(tmp_path, start, length, window):
    rc = run_cli(tmp_path, "cost", "--out", "cw", "--set", "control.scheme=VMTOC",
                 "--set", _K_TARGET, "--set", "run.x0=10,10,10", "--set", "run.n_keep=20",
                 "--set", f"cost.window_start={start}", "--set", f"cost.window_length={length}")
    assert rc == 0
    assert read_report(tmp_path / "cw.report.txt")["cost.window"] == window


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = run_cli(tmp_path, "bifurcate", "--set", "control.scheme=none")
    assert rc == 2
    assert "control.scheme" in capsys.readouterr().err
    rc = run_cli(tmp_path, "simulate", "--set", "bogus.key=1")
    assert rc == 2
    assert "bogus.key" in capsys.readouterr().err


@pytest.mark.parametrize("command, settings, message", [
    ("simulate", ["model.kind=ricker", "run.x0=-1000,0"], "non-finite state at step 1"),
    ("cost", ["model.kind=ricker", "run.x0=-1000,0", "control.scheme=VMTOC",
              "control.target=1,3"], "non-finite state at step 2"),
])
def test_failing_command_writes_no_file(tmp_path, capsys, command, settings, message):
    rc = run_cli(tmp_path, command, "--out", "fail",
                 *[arg for s in settings for arg in ("--set", s)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "explode")
    assert exc.value.code == 2


def test_config_file_plus_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("control.scheme = VMTOC\n"
                   "control.target = 28.0120,22.4096,4.6251\n"
                   "control.intensity = 0.5\n"
                   "run.n_transient = 100\n"
                   "run.n_keep = 8\n"
                   "run.x0 = 10,10,10\n")
    rc = run_cli(tmp_path, "simulate", "--config", str(cfg), "--out", "cf",
                 "--set", "run.n_keep=4")
    assert rc == 0
    lines = (tmp_path / "cf.orbit.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 3


@pytest.mark.parametrize("setting, code, needle", [
    ("control.scheme=DIAG-VMTOC", 2, "control.scheme"),
    ("control.target=-1,22,4.6", 2, "control.target: target outside the model domain"),
    ("control.target=none", 2, "control.target: VMTOC requires a target"),
])
def test_bifurcate_rejects_bad_control_before_scanning(tmp_path, capsys, setting, code,
                                                       needle):
    rc = run_cli(tmp_path, "bifurcate", "--out", "bad",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251",
                 "--set", setting, "--set", "scan.grid=4",
                 "--set", "run.n_transient=10", "--set", "run.n_keep=4")
    assert rc == code
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "bad.scan.csv").exists()


def test_bifurcate_rejects_cost_column_before_scanning(tmp_path, monkeypatch, capsys):
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(dynamics, "bifurcation_scan", scan)
    rc = run_cli(tmp_path, "bifurcate", "--out", "vt",
                 "--set", "control.scheme=VTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251",
                 "--set", "scan.cost=true")
    assert rc == 2
    assert "scan.cost" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bifurcate", "bubbles"])
def test_scan_with_every_grid_point_failed_exits_1(tmp_path, monkeypatch, capsys,
                                                   command):
    (tmp_path / "blowup.py").write_text(
        "import numpy as np\n"
        "from chaosctl import DomainSpec, MapModel\n"
        "def make():\n"
        "    return MapModel(dimension=1, evaluate=lambda x: np.array([x[0] * 1e160]),\n"
        "                    domain=DomainSpec.full_space(1))\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    rc = run_cli(tmp_path, command, "--out", "bl",
                 "--set", "model.kind=plugin", "--set", "model.plugin=blowup:make",
                 "--set", "control.scheme=VMTOC", "--set", "control.target=1",
                 "--set", "scan.c_list=0.25,0.5", "--set", "init.lo=1e160",
                 "--set", "init.hi=2e160", "--set", "run.n_transient=0",
                 "--set", "run.n_keep=4")
    assert rc == 1
    assert "error: every grid point failed: non-finite state" in capsys.readouterr().err
    assert read_report(tmp_path / "bl.report.txt")["errors"] == "2"
    assert (tmp_path / "bl.scan.csv").read_text() == "c,step,component,value,period\n"


@pytest.mark.parametrize("command, least", [
    ("simulate", 1), ("cost", 1), ("bifurcate", 2), ("bubbles", 2),
])
def test_orbit_commands_need_enough_kept_states(tmp_path, capsys, command, least):
    args = (command, "--out", "nk", "--set", "control.scheme=VMTOC",
            "--set", "control.target=28.0120,22.4096,4.6251",
            "--set", "scan.grid=4", "--set", "run.n_transient=100")
    few = tmp_path / "few"
    few.mkdir()
    for n_keep in range(least):
        assert run_cli(few, *args, "--set", f"run.n_keep={n_keep}") == 2
        assert "run.n_keep" in capsys.readouterr().err
    assert list(few.iterdir()) == []
    assert run_cli(tmp_path, *args, "--set", f"run.n_keep={least}") == 0


@pytest.mark.parametrize("command, c_list", [
    ("bifurcate", ","), ("bubbles", ","), ("bubbles", "0.5,0.2,0.3"),
    ("bifurcate", "0.5,1.5"), ("bubbles", "-0.1,0.5"),
])
def test_scan_rejects_bad_c_list_before_scanning(tmp_path, monkeypatch, capsys,
                                                 command, c_list):
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(dynamics, "bifurcation_scan", scan)
    rc = run_cli(tmp_path, command, "--out", "cl",
                 "--set", "control.scheme=VMTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251",
                 "--set", f"scan.c_list={c_list}")
    assert rc == 2
    assert "scan.c_list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_chained_bifurcate_runs_down_an_unsorted_c_list(tmp_path):
    rc = run_cli(tmp_path, "bifurcate", "--out", "down",
                 "--set", "model.kind=ricker", "--set", "control.scheme=VMTOC",
                 "--set", "control.target=1,3", "--set", "scan.continue=true",
                 "--set", "scan.c_list=0.5,0.2,0.3", "--set", "run.n_transient=200",
                 "--set", "run.n_keep=8")
    assert rc == 0
    assert read_report(tmp_path / "down.report.txt")["grid_points"] == "3"
    rows = (tmp_path / "down.scan.csv").read_text().splitlines()[1:]
    cs = [f"{c:.17g}" for c in (0.5, 0.2, 0.3)]
    assert list(dict.fromkeys(line.split(",")[0] for line in rows)) == cs


@pytest.mark.parametrize("command", ["bifurcate", "bubbles"])
def test_scan_ignores_control_intensity(tmp_path, command):
    args = (command, "--set", "control.scheme=VMTOC",
            "--set", "control.target=28.0120,22.4096,4.6251", "--set", "scan.grid=4")
    assert run_cli(tmp_path, *args, "--out", "plain") == 0
    assert run_cli(tmp_path, *args, "--set", "control.intensity=1.5", "--out", "odd") == 0
    for suffix in (".scan.csv", ".report.txt"):
        assert ((tmp_path / f"odd{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())


@pytest.mark.parametrize("command, key, settings", [
    ("stability", "analysis.norm", ["run.x0=20,20,5", "sample.lo=10,10,2",
                                    "sample.hi=40,40,8"]),
    ("bifurcate", "cost.norm", ["control.scheme=VMTOC", "scan.cost=true",
                                "control.target=28.0120,22.4096,4.6251"]),
    ("cost", "cost.norm", ["control.scheme=VMTOC", "control.target=28.0120,22.4096,4.6251"]),
])
def test_unknown_norm_kind_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command,
                                                   key, settings):
    def work(*args, **kwargs):
        raise AssertionError("the command's work ran")

    for module, name in ((analysis, "stability_report"), (dynamics, "bifurcation_scan"),
                         (dynamics, "iterate_orbit")):
        monkeypatch.setattr(module, name, work)
    rc = run_cli(tmp_path, command, "--out", "nrm", "--set", f"{key}=euclidian",
                 *[arg for s in settings for arg in ("--set", s)])
    assert rc == 2
    assert f"error: {key}: unknown norm kind: 'euclidian'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_K_TARGET = "control.target=28.0120,22.4096,4.6251"


_BAD_SETTINGS = [
    ("bifurcate", ["scan.tol=nan"], "scan.tol"),
    ("bubbles", ["scan.tol=nan"], "scan.tol"),
    ("bifurcate", ["scan.tol=0", "scan.continue=true"], "scan.tol"),
    ("equilibrium", ["run.tol=nan"], "run.tol"),
    ("stability", ["run.tol=nan"], "run.tol"),
    ("bifurcate", ["run.n_transient=-1"], "run.n_transient"),
    ("bubbles", ["run.n_transient=-1"], "run.n_transient"),
    ("simulate", ["run.n_transient=-1"], "run.n_transient"),
    ("cost", ["run.n_transient=-1"], "run.n_transient"),
    ("bifurcate", ["scan.max_period=0"], "scan.max_period"),
    ("bubbles", ["scan.max_period=0", "scan.continue=true"], "scan.max_period"),
    ("bifurcate", ["init.lo=5", "init.hi=1"], "init.lo"),
    ("bifurcate", ["init.lo=5", "init.hi=1", "scan.continue=true"], "init.lo"),
    ("simulate", ["init.lo=5", "init.hi=1"], "init.lo"),
    ("lyapunov", ["init.lo=0", "init.hi=inf"], "init.lo"),
    ("simulate", ["scan.tol=nan"], "scan.tol"),
    ("simulate", ["scan.tol=0"], "scan.tol"),
    ("simulate", ["scan.max_period=0"], "scan.max_period"),
    ("stability", ["sample.lo=40", "sample.hi=10"], "sample.lo"),
    ("stability", ["sample.lo=nan"], "sample.lo"),
    ("stability", ["sample.hi=inf"], "sample.lo"),
    ("stability", ["sample.n=0"], "sample.n"),
    ("lyapunov", ["run.lyapunov_steps=10"], "run.lyapunov_steps"),
    ("cost", ["cost.window_start=-5"], "cost.window_start"),
    ("cost", ["cost.window_length=-3"], "cost.window_length"),
    ("cost", ["run.n_keep=50", "cost.window_start=40", "cost.window_length=20"],
     "cost.window_length"),
    ("cost", ["cost.window_start=50"], "cost.window_start"),
    *[(command, ["run.seed=-1"], "run.seed") for command in COMMANDS],
    ("simulate", ["run.n_keep=0"], "run.n_keep"),
    ("cost", ["run.n_keep=0"], "run.n_keep"),
    ("bifurcate", ["run.n_keep=1"], "run.n_keep"),
    ("bubbles", ["run.n_keep=1"], "run.n_keep"),
    ("bifurcate", ["control.scheme=DIAG-VMTOC"], "control.scheme"),
    ("bubbles", ["control.scheme=none"], "control.scheme"),
    ("cost", ["control.scheme=none"], "control.scheme"),
    ("bifurcate", ["control.scheme=VTOC", "scan.cost=true"], "scan.cost"),
    ("bubbles", ["control.scheme=VTOC", "scan.cost=true"], "scan.cost"),
    ("bifurcate", ["scan.grid=1"], "scan.grid"),
    ("bubbles", ["scan.grid=1"], "scan.grid"),
    ("bifurcate", ["scan.c_list=0.5,1.5"], "scan.c_list"),
    ("bubbles", ["scan.c_list=0.5,0.2,0.3"], "scan.c_list"),
    ("stability", ["analysis.norm=euclidian"], "analysis.norm"),
    ("cost", ["cost.norm=taxi"], "cost.norm"),
    ("bifurcate", ["scan.cost=true", "cost.norm=taxi"], "cost.norm"),
    ("bubbles", ["scan.cost=true", "cost.norm=taxi"], "cost.norm"),
    # checked where the model is built, which gives the dimension and the domain
    ("simulate", ["run.x0=nan,1,1"], "run.x0"),
    ("simulate", ["run.x0=1,1"], "run.x0"),
    ("equilibrium", ["run.x0=nan,1,1"], "run.x0"),
    ("equilibrium", ["run.x0=1,1"], "run.x0"),
    ("simulate", ["control.target=-1,22,4.6"], "control.target"),
    ("cost", ["control.target=-1,22,4.6"], "control.target"),
    ("stability", ["control.target=-1,22,4.6"], "control.target"),
    ("simulate", ["control.target=1,2"], "control.target"),
    ("bifurcate", ["control.target=1,2"], "control.target"),
    ("simulate", ["control.target=1,nan,1"], "control.target"),
    ("stability", ["control.target=1,nan,1"], "control.target"),
    ("simulate", ["control.intensity=0.1,0.2"], "control.intensity"),
    ("simulate", ["control.scheme=DIAG-VMTOC", "control.intensity=0.1,0.2"],
     "control.intensity"),
    ("simulate", ["model.kind=ricker", "model.delay=0"], "model.delay"),
    ("simulate", ["model.b=nan"], "model.b"),
    ("bifurcate", ["model.b=nan"], "model.b"),
    ("simulate", ["model.kind=ricker", "model.r=nan"], "model.r"),
    # cost prices the nudge of a post-map control only
    *[("cost", [f"control.scheme={scheme}", "control.target=28,22,4"], "control.scheme")
      for scheme in ("VTOC", "PF", "MPF")],
    ("simulate", ["model.c_el=inf"], "model.c_el"),
    # an infinite tolerance would call every orbit periodic and every state
    # an equilibrium
    ("bifurcate", ["scan.tol=inf"], "scan.tol"),
    ("simulate", ["scan.tol=inf"], "scan.tol"),
    ("equilibrium", ["run.x0=1,2,3", "run.tol=inf"], "run.tol"),
    ("stability", ["run.tol=inf"], "run.tol"),
]


@pytest.mark.parametrize("command, settings, key", _BAD_SETTINGS)
def test_bad_run_setting_exits_2_naming_its_key_before_any_work(tmp_path, monkeypatch, capsys,
                                                                command, settings, key):
    def work(*args, **kwargs):
        raise AssertionError("the command's work ran")

    for module, name in ((analysis, "stability_report"), (analysis, "find_fixed_point"),
                         (dynamics, "bifurcation_scan"), (dynamics, "iterate_orbit"),
                         (dynamics, "lyapunov_max")):
        monkeypatch.setattr(module, name, work)
    rc = run_cli(tmp_path, command, "--out", "bad", "--set", "control.scheme=VMTOC",
                 "--set", _K_TARGET, "--set", "scan.grid=4",
                 *[arg for s in settings for arg in ("--set", s)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_target_message_names_the_target(tmp_path, capsys):
    rc = run_cli(tmp_path, "simulate", "--set", "control.scheme=VMTOC",
                 "--set", "control.target=1,nan,1")
    assert rc == 2
    assert capsys.readouterr().err == "error: control.target: non-finite target\n"


def test_every_key_check_has_a_failing_case():
    cases = {(key, command) for command, _, key in _BAD_SETTINGS}
    for key, commands, _, _ in CHECKS:
        assert key in FIELDS
        assert set(commands) <= set(COMMANDS), key
        assert {(key, command) for command in commands} <= cases, key


def test_positional_command_wins_over_run_command_setting(tmp_path):
    rc = run_cli(tmp_path, "simulate", "--out", "pos", "--set", "run.command=bubbles",
                 "--set", "run.n_transient=10", "--set", "run.n_keep=4")
    assert rc == 0
    assert sorted(os.listdir(tmp_path)) == ["pos.orbit.csv", "pos.report.txt"]
    assert read_report(tmp_path / "pos.report.txt")["command"] == "simulate"


def test_initial_box_error_names_both_bounds(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", "--set", "init.lo=5", "--set", "init.hi=1") == 2
    assert capsys.readouterr().err == (
        "error: init.lo: initial box needs lo <= hi with a finite width, got "
        "lo = [5.0, 5.0, 5.0], hi = [1.0, 1.0, 1.0] (lo is init.lo, hi is init.hi)\n")


_LEAVER_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=lambda x: np.asarray(x, float) - 1.0,\n"
    "                    domain=DomainSpec.nonnegative_orthant(1))\n")


def test_simulate_strict_fails_where_the_orbit_leaves_the_domain(tmp_path, monkeypatch,
                                                                 capsys):
    # x_i = 3 - i leaves the orthant at step 3
    (tmp_path / "leaver.py").write_text(_LEAVER_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    args = ("simulate", "--set", "model.kind=plugin", "--set", "model.plugin=leaver:make",
            "--set", "run.x0=3", "--set", "run.n_transient=0", "--set", "run.n_keep=8")
    assert run_cli(tmp_path, *args, "--out", "st", "--strict") == 1
    assert "error: state left the domain at step 3" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["leaver.py"]
    assert run_cli(tmp_path, *args, "--out", "lax") == 0
    assert (tmp_path / "lax.orbit.csv").exists()


_PAIR_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),\n"
    "                    evaluate_floats=lambda y: (0.5 * y[0], 0.0),\n"
    "                    domain=DomainSpec.full_space(1))\n")


def test_simulate_rejects_a_step_of_the_wrong_size(tmp_path, monkeypatch, capsys):
    # the plugin's float step gives two components for a 1-dimensional model
    (tmp_path / "pair.py").write_text(_PAIR_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, "simulate", "--out", "pr", "--set", "model.kind=plugin",
                   "--set", "model.plugin=pair:make", "--set", "run.x0=1") == 1
    assert capsys.readouterr().err == (
        "error: step 0 gave a state of shape (2,), but the model has dimension 1\n")
    assert sorted(os.listdir(tmp_path)) == ["pair.py"]


_SCALAR3_PLUGIN = (
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=3, evaluate=lambda x: 0.5 * float(x[0]),\n"
    "                    domain=DomainSpec.full_space(3))\n")


@pytest.mark.parametrize("name, dim, settings, shape", [
    ("pair", 1, ["run.x0=1", "control.scheme=VMTOC", "control.target=0"], (2,)),
    ("pair", 1, ["run.x0=1", "control.scheme=MPF"], (2,)),
    ("pair", 1, ["run.x0=1", "control.scheme=DIAG-VMTOC", "control.target=0"], (2,)),
    ("scalar3", 3, ["run.x0=1,1,1", "control.scheme=VMTOC", "control.target=1,1,1"], ()),
], ids=["vmtoc", "mpf", "diag-vmtoc", "vmtoc-scalar"])
def test_simulate_rejects_a_base_step_of_the_wrong_size_under_control(
        tmp_path, monkeypatch, capsys, name, dim, settings, shape):
    # the pull after the map would broadcast the base map's image or cut it
    plugin = {"pair": _PAIR_PLUGIN, "scalar3": _SCALAR3_PLUGIN}[name]
    (tmp_path / f"{name}.py").write_text(plugin)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, "simulate", "--out", "ws", "--set", "model.kind=plugin",
                   "--set", f"model.plugin={name}:make", "--set", "control.intensity=0.3",
                   *[arg for s in settings for arg in ("--set", s)]) == 1
    assert capsys.readouterr().err == (
        f"error: evaluation failed at step 0: ValueError: the base map gave an image of "
        f"shape {shape}, but the model has dimension {dim}\n")
    assert sorted(os.listdir(tmp_path)) == [f"{name}.py"]


_SHORT3_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=3, evaluate=lambda x: 0.5 * np.asarray(x, float)[:2],\n"
    "                    domain=DomainSpec.full_space(3))\n")


@pytest.mark.parametrize("command", ["equilibrium", "stability"])
@pytest.mark.parametrize("name, shape", [("scalar3", ()), ("short3", (2,))])
def test_uncontrolled_fixed_point_rejects_an_image_of_the_wrong_size(
        tmp_path, monkeypatch, capsys, command, name, shape):
    # the residual would broadcast the image, and the finite-difference
    # Jacobian of a 0-d image would raise IndexError
    plugin = {"scalar3": _SCALAR3_PLUGIN, "short3": _SHORT3_PLUGIN}[name]
    (tmp_path / f"{name}.py").write_text(plugin)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, command, "--out", "ws", "--set", "model.kind=plugin",
                   "--set", f"model.plugin={name}:make", "--set", "run.x0=1,1,1") == 1
    assert capsys.readouterr().err == (
        f"error: no fixed point: evaluation failed at x = (1, 1, 1): ValueError: the map gave "
        f"an image of shape {shape}, but the model has dimension 3 (best residual inf)\n")
    assert sorted(os.listdir(tmp_path)) == [f"{name}.py"]


_COLUMN_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def make():\n"
    "    return MapModel(dimension=3, evaluate=lambda x: 0.5 * np.asarray(x, float),\n"
    "                    evaluate_batch=lambda rows: 0.5 * rows[:, :1],\n"
    "                    domain=DomainSpec.nonnegative_orthant(3))\n")


@pytest.mark.parametrize("scheme", ["VMTOC", "VTOC"])
def test_fresh_scan_rejects_a_batch_image_of_the_wrong_shape(tmp_path, monkeypatch, capsys,
                                                             scheme):
    # the plugin's batch keeps one column of its nine rows: the controlled
    # batch step raises, either side of the map, before the scan writes
    (tmp_path / "column.py").write_text(_COLUMN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, "bifurcate", "--out", "col", "--set", "model.kind=plugin",
                   "--set", "model.plugin=column:make", "--set", "scan.grid=10",
                   "--set", "init.lo=0", "--set", "init.hi=1", "--set", f"control.scheme={scheme}",
                   "--set", "control.target=1,1,1") == 1
    assert capsys.readouterr().err == (
        "error: the base map gave an image of shape (9, 1), but the model has dimension 3\n")
    assert sorted(os.listdir(tmp_path)) == ["column.py"]


# the LPA map, whose batch step keeps one column of its rows
_LPA_COLUMN_PLUGIN = (
    "from chaosctl import MapModel, lpa_map\n"
    "def make():\n"
    "    lpa = lpa_map()\n"
    "    return MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,\n"
    "                    jacobian=lpa.jacobian,\n"
    "                    evaluate_batch=lambda rows: lpa.evaluate(rows)[:, :1])\n")


def test_stability_omits_a_lipschitz_constant_from_a_batch_image_of_the_wrong_shape(
        tmp_path, monkeypatch, capsys):
    # the samples' one-column images once gave L = 58.3 where the LPA map's
    # is 6.53; every other line is the LPA map's own
    (tmp_path / "lpacolumn.py").write_text(_LPA_COLUMN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    box = ("--set", "run.x0=20,20,5", "--set", "sample.lo=10,10,2",
           "--set", "sample.hi=40,40,8", "--set", "sample.n=64")
    assert run_cli(tmp_path, "stability", "--out", "col", "--set", "model.kind=plugin",
                   "--set", "model.plugin=lpacolumn:make", *box) == 0
    assert run_cli(tmp_path, "stability", "--out", "lpa", *box) == 0
    column = read_report(tmp_path / "col.report.txt")
    lpa = read_report(tmp_path / "lpa.report.txt")
    assert column.pop("provenance.lipschitz") == (
        "unavailable: the map gave an image of shape (73, 1), but the model has dimension 3")
    assert column.pop("model") == "plugin"
    assert float(lpa["lipschitz"]) < 10.0
    assert column == {key: value for key, value in lpa.items() if key != "model"
                      and not key.startswith(("lipschitz", "global_cstar",
                                              "provenance.lipschitz", "provenance.global_cstar"))}


# the LPA map whose Jacobian keeps two columns of its three
_LPA_TWO_COLUMN_JACOBIAN_PLUGIN = (
    "from chaosctl import MapModel, lpa_map\n"
    "def make():\n"
    "    lpa = lpa_map()\n"
    "    return MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,\n"
    "                    jacobian=lambda x: lpa.jacobian(x)[:, :2])\n")


@pytest.mark.parametrize("command, where", [
    ("stability", "no fixed point: evaluation failed at x = (20, 20, 5)"),
    ("equilibrium", "no fixed point: evaluation failed at x = (20, 20, 5)"),
    ("lyapunov", "Jacobian failed at step 0, x = (20, 20, 5)"),
])
def test_jacobian_of_the_wrong_shape_exits_1_and_writes_no_file(tmp_path, monkeypatch, capsys,
                                                                command, where):
    # numpy once failed to broadcast it (stability, equilibrium) or to
    # multiply by it (lyapunov), naming no state
    (tmp_path / "lpajac.py").write_text(_LPA_TWO_COLUMN_JACOBIAN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, command, "--out", "jac", "--set", "model.kind=plugin",
                   "--set", "model.plugin=lpajac:make", "--set", "run.x0=20,20,5",
                   "--set", "run.lyapunov_steps=1000") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ValueError: the map gave a Jacobian of shape (3, 2), "
                          f"but the model has dimension 3")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["lpajac.py"]


def test_cost_rejects_a_batch_image_of_the_wrong_shape(tmp_path, monkeypatch, capsys):
    (tmp_path / "lpacolumn.py").write_text(_LPA_COLUMN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert run_cli(tmp_path, "cost", "--out", "col", "--seed", "2", "--set", "model.kind=plugin",
                   "--set", "model.plugin=lpacolumn:make", "--set", "control.scheme=VMTOC",
                   "--set", _K_TARGET) == 1
    assert capsys.readouterr().err == (
        "error: the map gave an image of shape (50, 1), but the model has dimension 3\n")
    assert sorted(os.listdir(tmp_path)) == ["lpacolumn.py"]


_OVERFLOW_BATCH_PLUGIN = (
    "import numpy as np\n"
    "from chaosctl import DomainSpec, MapModel\n"
    "def batch(rows):\n"
    "    raise OverflowError('boom')\n"
    "def make():\n"
    "    return MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),\n"
    "                    evaluate_batch=batch, domain=DomainSpec.full_space(1))\n")


def test_bifurcate_reports_an_arithmetic_error_of_the_batch_step(tmp_path, monkeypatch, capsys):
    # an exception of evaluate_batch stops the whole scan
    plugins, out = tmp_path / "plugins", tmp_path / "out"
    plugins.mkdir()
    out.mkdir()
    (plugins / "overflow.py").write_text(_OVERFLOW_BATCH_PLUGIN)
    monkeypatch.syspath_prepend(str(plugins))
    assert run_cli(out, "bifurcate", "--out", "ob", "--set", "model.kind=plugin",
                   "--set", "model.plugin=overflow:make", "--set", "scan.grid=10",
                   "--set", "control.scheme=VMTOC", "--set", "control.target=0") == 1
    assert capsys.readouterr().err == "error: OverflowError: boom\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["equilibrium", "stability", "bifurcate", "bubbles",
                                     "lyapunov"])
def test_strict_is_rejected_where_it_does_not_apply(tmp_path, capsys, command):
    rc = run_cli(tmp_path, command, "--strict", "--set", "control.scheme=VMTOC",
                 "--set", "control.target=28.0120,22.4096,4.6251", "--set", "scan.grid=4",
                 "--set", "run.x0=20,20,5")
    assert rc == 2
    assert "error: --strict: applies to simulate and cost only" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_jacobian_failing_at_the_equilibrium_names_it(tmp_path, monkeypatch, capsys):
    # from K to 17 digits the search needs no Jacobian, so the first one the
    # report takes is the one at the equilibrium
    (tmp_path / "lpajac.py").write_text(_LPA_TWO_COLUMN_JACOBIAN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    k = "28.012016246691726,22.409612997353381,4.6251512541631303"
    assert run_cli(tmp_path, "stability", "--out", "jac", "--set", "model.kind=plugin",
                   "--set", "model.plugin=lpajac:make", "--set", f"run.x0={k}") == 1
    assert capsys.readouterr().err == (
        "error: Jacobian failed at the equilibrium x = (28.012016246691726, 22.409612997353381, "
        "4.6251512541631303): ValueError: the map gave a Jacobian of shape (3, 2), but the "
        "model has dimension 3\n")
    assert sorted(os.listdir(tmp_path)) == ["lpajac.py"]


def test_stability_report_names_a_non_finite_jacobian_at_the_equilibrium():
    model = MapModel(dimension=1, evaluate=lambda x: 0.5 * np.asarray(x, float),
                     jacobian=lambda x: np.array([[np.nan]]), domain=DomainSpec.full_space(1))
    with pytest.raises(ValueError, match=r"^non-finite Jacobian at the equilibrium x = \(0\)$"):
        analysis.stability_report(model, [0.0], [-1.0], [1.0], n_samples=8)


@pytest.mark.parametrize("command, key", [("stability", "provenance.boundary"),
                                          ("equilibrium", "boundary")])
def test_report_says_when_the_equilibrium_lies_on_the_boundary(tmp_path, command, key):
    # from (20, 20, 20) the search lands on the extinction state 0; from
    # (20, 20, 5) on the interior K, whose report has no such line
    for x0, out in [("20,20,20", "zero"), ("20,20,5", "k")]:
        assert run_cli(tmp_path, command, "--out", out, "--set", f"run.x0={x0}") == 0
    zero, k = (read_report(tmp_path / f"{out}.report.txt") for out in ("zero", "k"))
    assert [zero[f"equilibrium.{j}"] for j in range(3)] == ["0", "0", "0"]
    assert zero[key] == "warning: equilibrium lies on the domain boundary"
    assert not any("boundary" in line for line in (tmp_path / "k.report.txt").read_text()
                   .splitlines())
    assert float(k["equilibrium.0"]) > 28.0
    if command == "stability":
        assert zero["rho"] == "2.0429822344213564"


@pytest.mark.parametrize("scheme, cost", [("VMTOC", "true"), ("VTOC", "false")])
def test_chained_ricker_scan_csv_matches_per_line_formatting(tmp_path, scheme, cost):
    # the benchmark's chained delay-2 Ricker scan, on a shorter grid
    settings = {"model.kind": "ricker", "model.r": "2", "model.delay": "2",
                "control.scheme": scheme, "control.target": "1,3", "scan.grid": "60",
                "scan.continue": "true", "scan.cost": cost, "run.n_transient": "250"}
    assert run_cli(tmp_path, "bifurcate", "--out", "chain", "--seed", "7",
                   *[arg for kv in settings.items() for arg in ("--set", "=".join(kv))]) == 0
    model = models.ricker_lift(models.RickerParams(r=2.0, delay=2))
    records = bifurcation_scan(model, scheme, (1.0, 3.0), [k / 60 for k in range(1, 60)],
                               seed=7, n_transient=250, continue_orbits=True)
    costs = None
    if cost == "true":
        costs = [cost_per_step(model, ControlConfig(scheme, rec.c, (1.0, 3.0)), rec.points,
                               norm_kind="euclidean").value for rec in records]
    assert len({rec.periods for rec in records}) > 2
    expected = "\n".join(_scan_csv_lines_per_line(records, costs)) + "\n"
    assert (tmp_path / "chain.scan.csv").read_text() == expected
