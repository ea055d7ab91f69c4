import os

import numpy as np
import pytest

from chaosctl import dynamics
from chaosctl.cli import ConfigError, RunConfig, build_control, build_model, main

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


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = run_cli(tmp_path, "bifurcate", "--set", "control.scheme=none")
    assert rc == 2
    assert "control.scheme" in capsys.readouterr().err
    rc = run_cli(tmp_path, "simulate", "--set", "bogus.key=1")
    assert rc == 2
    assert "bogus.key" in capsys.readouterr().err


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
    ("control.target=-1,22,4.6", 1, "target outside the model domain"),
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
