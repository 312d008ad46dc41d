import csv
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fdtdq import cli
from fdtdq import scenarios as sc
from fdtdq.cli import (EXIT_CONFIG_ERROR, EXIT_DIVERGED, EXIT_OK,
                       EXIT_VERIFY_FAILED, ConfigError, RunConfig, main)
from fdtdq.constants import EV, number
from fdtdq.coupling import run_coupled
from fdtdq.diagnostics import CSV_COLUMNS
from fdtdq.stepper import load_checkpoint


def write_config(tmp_path, obj, name="config.json"):
    """Path of a config file holding obj: a JSON string as it is, any
    other object as JSON."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_quantity_parsing():
    assert number("q", 3.0) == 3.0
    assert number("q", {"value": 30, "unit": "nm"}) == pytest.approx(30e-9)
    assert number("q", {"value": 1, "unit": "eV"}) == pytest.approx(EV)
    for bad in ({"value": 1, "unit": "parsec"}, "thirty", True,
                float("nan"), {"value": 30, "units": "nm"},
                10**400):  # the last is beyond float range
        with pytest.raises(ConfigError, match="^q: "):
            number("q", bad)


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.load(bad)
    bad.write_bytes(b'\xff\xfe{"scenario": "infinite_well"}')  # not UTF-8
    with pytest.raises(ConfigError):
        RunConfig.load(bad)
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, {"n_t": 3}, "noscenario.json"))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(
            tmp_path, {"scenario": "infinite_well", "n_t": -1},
            "negnt.json"))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(
            tmp_path, {"scenario": "infinite_well", "diag_stride": 0},
            "stride.json"))
    cfg, spec = RunConfig.load(write_config(
        tmp_path, {"scenario": "infinite_well", "n_t": 5,
                   "diag_stride": 2}, "good.json"))
    assert cfg.n_t == 5 and cfg.diag_stride == 2
    assert spec == sc.InfiniteWellSpec()


def test_run_well_success(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "infinite_well",
        "a": {"value": 30, "unit": "nm"},
        "n_cells": 8,
        "n_t": 50,
    })
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["scenario"] == "infinite_well"
    assert summary["n_t"] == 50
    assert summary["diag_stride"] == 1
    assert summary["steps_completed"] == 50
    assert summary["diverged"] is False
    well = summary["regions"]["well"]
    assert abs(well["max_P"] - 1.0) <= 1e-10
    assert well["max_residual_P"] <= 1e-12
    rows = read_csv(out / "well.csv")
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 52


def test_run_zero_steps_header_only(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "infinite_well", "n_cells": 6, "n_t": 0,
    })
    out = tmp_path / "out0"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "well.csv")
    assert rows == [list(CSV_COLUMNS)]


def test_run_unknown_scenario_is_config_error(tmp_path):
    config = write_config(tmp_path, {"scenario": "hydrodynamics"})
    assert main(["run", "--config", config,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR


def test_run_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("config,region", [
    ({"scenario": "infinite_well", "n_cells": 6, "dt_factor": 1.2}, "well"),
    # The barrier state and sources are uniform across y and z, so the
    # fastest modes are never excited; the x modes go unstable only well
    # past the limit.
    ({"scenario": "barrier", "dt_factor": 3.5, "x0": 0.0}, "barrier"),
    ({"scenario": "tunneling", "dt_factor": 1.2,
      "cell": {"value": 0.1, "unit": "angstrom"},
      "u0": 1.6021766551777526e-19}, "barrier"),
], ids=["infinite_well", "barrier", "tunneling"])
def test_run_unstable_dt_rejected_then_diverges(tmp_path, capsys, config,
                                                region):
    config = write_config(tmp_path, {**config, "n_t": 5000,
                                     "guard_factor": 1e3})
    out = tmp_path / "unstable"
    assert main(["run", "--config", config,
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: dt = ")
    assert "exceeds the generalized limit" in err[0]
    assert err[0].endswith(f"of region {region!r}; pass --allow-unstable "
                           "to run anyway")
    assert not out.exists()
    code = main(["run", "--config", config, "--out", str(out),
                 "--allow-unstable"])
    assert code == EXIT_DIVERGED
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    assert 0 < summary["diverged_at"] <= 5000
    assert summary["steps_completed"] == summary["diverged_at"]


def test_driven_region_filling_from_empty_does_not_trip_the_guard(tmp_path):
    # The packet starts 200 nm west of the region, whose initial largest
    # |psi| is tiny; a guard scaled by it alone tripped at step 2181 with
    # P about 1e-21.  The drive's running amplitude scales it too.
    config = write_config(tmp_path, {"scenario": "barrier", "n_t": 3000,
                                     "guard_factor": 1e3})
    out = tmp_path / "filling"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is False
    assert summary["steps_completed"] == 3000


def test_summary_write_is_atomic(tmp_path, monkeypatch):
    config = write_config(tmp_path, {
        "scenario": "infinite_well", "n_cells": 4, "n_t": 5,
    })
    out = tmp_path / "atomic"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    earlier = (out / "summary.json").read_bytes()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"schema_version": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "json", SimpleNamespace(
        load=json.load, JSONDecodeError=json.JSONDecodeError,
        dump=failing_dump))
    with pytest.raises(OSError):
        main(["run", "--config", config, "--out", str(out),
              "--stride", "2"])
    assert (out / "summary.json").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["summary.json",
                                                      "well.csv"]


def test_run_stride_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "infinite_well", "n_cells": 6, "n_t": 20,
        "diag_stride": 1,
    })
    out = tmp_path / "strided"
    assert main(["run", "--config", config, "--out", str(out),
                 "--stride", "10"]) == EXIT_OK
    rows = read_csv(out / "well.csv")
    assert [r[0] for r in rows[1:]] == ["0", "10", "20"]


# Tiny configs of the three scenarios; no stride tested below (other than
# 1) divides their step count.
TINY = {
    "infinite_well": {"scenario": "infinite_well", "n_cells": 4, "n_t": 23},
    "barrier": {"scenario": "barrier", "x0": 0.0, "n_t": 23},
    "tunneling": {"scenario": "tunneling", "n_t": 23,
                  "cell": {"value": 0.1, "unit": "angstrom"},
                  "u0": 1.6021766551777526e-19},
}


def test_a_graph_built_after_another_is_dropped_writes_its_own_bytes(
        tmp_path, monkeypatch):
    # The face and interface constants are kept by the operators and the
    # region graph they describe.  A cache keyed by id() would hand a
    # graph that reuses a dropped graph's id the dropped graph's constants;
    # every id() in the package reads one value here, so any such cache
    # sees that reuse.
    for name, module in list(sys.modules.items()):
        if name == "fdtdq" or name.startswith("fdtdq."):
            monkeypatch.setattr(module, "id", lambda obj: 1, raising=False)
    coarse = TINY["tunneling"]
    fine = dict(coarse, cell={"value": 0.05, "unit": "angstrom"})

    def csvs(settings, name):
        out = tmp_path / name
        config = write_config(tmp_path, settings, f"{name}.json")
        assert main(["run", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        gc.collect()
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    first = csvs(fine, "first")
    assert len(first) == 3
    assert csvs(coarse, "coarse") != first
    assert csvs(fine, "second") == first


def _run_strided_and_reference(tmp_path, monkeypatch, settings, stride):
    """Exit codes and output directories of `fdtdq run --stride stride`
    and of the same run recorded at stride 1 (every row evaluated) but
    written at stride stride."""
    config = write_config(tmp_path, settings)
    args = ["run", "--config", config, "--stride", str(stride)]
    out = tmp_path / "strided"
    code = main(args + ["--out", str(out)])

    def every_row(driver):
        def drive(*drive_args, stride, **kwargs):
            return driver(*drive_args, stride=1, **kwargs)
        return drive

    # cmd_run calls both drivers through these module attributes.
    for name in ("run", "run_coupled"):
        monkeypatch.setattr(cli, name, every_row(getattr(cli, name)))
    ref = tmp_path / "reference"
    ref_code = main(args + ["--out", str(ref)])
    return code, out, ref_code, ref


@pytest.mark.parametrize("stride", [1, 3, 7, 10])
@pytest.mark.parametrize("scenario", sorted(TINY))
def test_strided_run_writes_the_bytes_of_a_stride_1_recording(
        tmp_path, monkeypatch, scenario, stride):
    # A strided run evaluates P and H only on the rows it writes (and
    # n = 1); the residuals on those rows sum the per-step fluxes, so the
    # CSV must not change by a single byte.
    code, out, ref_code, ref = _run_strided_and_reference(
        tmp_path, monkeypatch, TINY[scenario], stride)
    assert code == ref_code == EXIT_OK
    csvs = sorted(p.name for p in ref.glob("*.csv"))
    assert csvs == sorted(p.name for p in out.glob("*.csv")) and csvs
    for name in csvs:
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diag_stride"] == stride


@pytest.mark.parametrize("stride", [3, 7, 23])
def test_strided_diverging_run_writes_the_same_partial_csv(
        tmp_path, monkeypatch, stride):
    # The guard trips at step 46: a written row for stride 23, between
    # written rows for 3 and 7.
    settings = {"scenario": "infinite_well", "n_cells": 6, "dt_factor": 1.2,
                "n_t": 5000, "guard_factor": 1e3, "allow_unstable": True}
    code, out, ref_code, ref = _run_strided_and_reference(
        tmp_path, monkeypatch, settings, stride)
    assert code == ref_code == EXIT_DIVERGED
    assert (out / "well.csv").read_bytes() == (ref / "well.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    assert 0 < summary["steps_completed"] < 5000


def test_run_checkpoints_written(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "infinite_well", "n_cells": 6, "n_t": 10,
        "checkpoint_interval": 5,
    })
    out = tmp_path / "ckpt"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out.glob("checkpoint_*.npz"))
    assert names == ["checkpoint_00000005.npz", "checkpoint_00000010.npz"]
    state = load_checkpoint(out / names[-1])
    assert state.n == 10


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_run_csv_byte_identical(tmp_path, scenario):
    config = write_config(tmp_path, TINY[scenario])
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["run", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs == sorted(p.name for p in outs[1].glob("*.csv")) and csvs
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_tunneling_short(tmp_path):
    config = write_config(tmp_path, {"scenario": "tunneling", "n_t": 20})
    out = tmp_path / "tun"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["regions"]) == {"reactant", "barrier", "product"}
    assert summary["total_P_max_drift"] <= 1e-12
    assert abs(summary["analytic_H_ev"] - 77.51e-3) <= 0.5e-3
    for name in summary["regions"]:
        assert (out / f"{name}.csv").exists()


def test_run_barrier_short(tmp_path):
    config = write_config(tmp_path, {"scenario": "barrier", "n_t": 25})
    out = tmp_path / "bar"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "barrier"
    assert summary["max_analytic_P"] > 0.0
    assert (out / "barrier.csv").exists()


def test_barrier_run_evaluates_sources_once_per_block(tmp_path,
                                                      monkeypatch):
    # The bench times the barrier's sources by wrapping
    # scenarios.barrier_gradient_x, so a run must reach the drive's block
    # evaluations through that module attribute: 130 steps, three blocks.
    calls = []
    direct = sc.barrier_gradient_x

    def counted(*args):
        calls.append(args[2])
        return direct(*args)

    monkeypatch.setattr(sc, "barrier_gradient_x", counted)
    config = write_config(tmp_path, {"scenario": "barrier", "x0": 0.0,
                                     "n_t": 130})
    assert main(["run", "--config", config,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    block = sc.SOURCE_BLOCK_STEPS
    assert len(calls) == -(-130 // block) == 3
    dt = json.loads((tmp_path / "out" / "summary.json").read_text())[
        "dt_seconds"]
    assert [t[0] for t in calls] == [n * block * dt for n in range(3)]


def test_cfl_report(tmp_path, capsys):
    config = write_config(tmp_path, {
        "scenario": "infinite_well", "n_cells": 6,
    })
    out = tmp_path / "cfl"
    assert main(["cfl", "--config", config, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "dt_CFL" in captured and "[well]" in captured
    report = json.loads((out / "stability.json").read_text())
    assert report["well"]["P_positive_definite"] is True
    assert report["well"]["ordering_holds"] is True
    assert report["well"]["dt_below_cfl"] is True


def test_cfl_tunneling_all_regions(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": "tunneling"})
    out = tmp_path / "cfl3"
    assert main(["cfl", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "stability.json").read_text())
    assert set(report) == {"reactant", "barrier", "product"}
    # The shared dt is fixed by the barrier region and is stable everywhere.
    for region in report.values():
        assert region["dt_below_cfl_gen"] is True


def test_verify_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_compares_the_per_axis_spectrum_with_dense():
    checks = {name: (residual, tol)
              for name, residual, tol in cli._verify_checks()}
    residual, tol = checks["per-axis rho(Sigma) vs dense"]
    assert tol == 1e-13 and residual <= tol


def test_verify_compares_the_structured_lambda_min_P_with_dense():
    checks = {name: (residual, tol)
              for name, residual, tol in cli._verify_checks()}
    residual, tol = checks["lambda_min(P) structured vs dense"]
    assert tol == 1e-13 and residual <= tol


def _modules_loaded_by(subcommand, tmp_path, settings, prefixes):
    """The modules named by prefixes that a fresh `fdtdq SUBCOMMAND`
    process of settings has loaded once it finishes."""
    config = write_config(tmp_path, settings)
    script = (
        "import sys\n"
        "from fdtdq.cli import main\n"
        f"code = main([{subcommand!r}, '--config', sys.argv[1],"
        " '--out', sys.argv[2]])\n"
        f"loaded = [m for m in sorted(sys.modules) if m.startswith({prefixes!r})]\n"
        "print('loaded:', ','.join(loaded))\n"
        "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, config, str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout.splitlines()[-1]


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Put ahead of every other finder, this makes `import scipy` and the
# import of any scipy submodule raise ImportError, as without scipy.
_NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(f'No module named {name!r}')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
    "try:\n"
    "    import scipy\n"
    "except ImportError:\n"
    "    pass\n"
    "else:\n"
    "    sys.exit('scipy was imported')\n")


def _main_without_scipy(argvs):
    """Exit codes and printed lines of `fdtdq` main(argv) for each argv,
    run in turn in one fresh process in which no scipy import succeeds."""
    script = _NO_SCIPY + (
        "import json\n"
        "from fdtdq.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print('codes:', json.dumps(codes))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    return json.loads(last.removeprefix("codes: ")), lines


def test_well_run_loads_no_sparse_or_optimize_scipy(tmp_path):
    # The cold start of a run stays cheap only while no module imports
    # scipy.sparse or scipy.optimize at top level.
    assert _modules_loaded_by(
        "run", tmp_path, {"scenario": "infinite_well", "n_cells": 4,
                          "n_t": 3},
        ("scipy.sparse", "scipy.optimize")) == "loaded: "


def test_tunneling_run_loads_no_scipy(tmp_path):
    # The mode energies come from scenarios._brentq, not scipy.optimize,
    # whose import alone took about half a second of the set-up.
    assert _modules_loaded_by(
        "run", tmp_path, {**TINY["tunneling"], "n_t": 3},
        "scipy") == "loaded: "


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_cfl_loads_no_scipy(tmp_path, scenario):
    # The stability report runs on numpy alone; scipy's linalg and
    # sparse.linalg imports cost 0.2-0.3 s per process.
    assert _modules_loaded_by(
        "cfl", tmp_path, TINY[scenario], "scipy") == "loaded: "
    assert (tmp_path / "out" / "stability.json").is_file()


def test_verify_run_and_cfl_need_no_scipy(tmp_path):
    argvs = [["verify"]]
    for scenario, settings in sorted(TINY.items()):
        config = write_config(tmp_path, settings, f"{scenario}.json")
        for command in ("run", "cfl"):
            argvs.append([command, "--config", config,
                          "--out", str(tmp_path / scenario)])
    codes, lines = _main_without_scipy(argvs)
    assert codes == [EXIT_OK] * len(argvs)
    assert "11/11 checks passed" in lines
    for scenario in TINY:
        assert (tmp_path / scenario / "summary.json").is_file()
        assert (tmp_path / scenario / "stability.json").is_file()


def _strict_json(path):
    """The JSON file at path, read by a parser that refuses the
    non-standard constants NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_cfl_writes_null_for_an_undefined_kappa(tmp_path):
    # Past the generalized limit P is indefinite, so kappa(P) is infinite.
    config = write_config(tmp_path, {"scenario": "infinite_well",
                                     "n_cells": 6, "dt_factor": 1.5})
    out = tmp_path / "out"
    assert main(["cfl", "--config", config, "--out", str(out)]) == EXIT_OK
    report = _strict_json(out / "stability.json")["well"]
    assert report["P_positive_definite"] is False
    assert report["kappa_P"] is None


@pytest.mark.parametrize("n_t", [0, 1])
def test_run_writes_null_for_an_undefined_drift(tmp_path, n_t):
    # H^n exists for 1 <= n <= n_t - 1 only, so a run of at most one step
    # has no energy to drift and the drift is NaN.
    config = write_config(tmp_path, {**TINY["tunneling"], "n_t": n_t})
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    summary = _strict_json(out / "summary.json")
    assert summary["total_H_max_drift_normalized"] is None
    assert summary["total_P_max_drift"] is not None


@pytest.mark.parametrize("key,settings", [
    ("lz", {"scenario": "tunneling", "u0": 1.6021766551777526e-19,
            "cell": {"value": 1.0 / 6.0, "unit": "angstrom"}}),
    ("lx", {"scenario": "barrier", "cell": {"value": 0.3, "unit": "nm"}}),
])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_cell_must_divide_region_lengths(tmp_path, capsys, command, key,
                                         settings):
    # A 1/6 A cell spans 5 cells = 0.833 A of the 0.9 A tunneling depth:
    # the pinned wall nodes would sit inside the modes and break the
    # probability balance, so the config is refused rather than rounded.
    config = write_config(tmp_path, {**settings, "n_t": 5})
    out = tmp_path / "o"
    argv = [command, "--config", config, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: {key} = ")
    assert "not a whole number of cells" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("cell,reason", [
    (1.0 / 6.0, "not a whole number of cells"),
    (0.1, "no sign change in bracket"),
])
def test_tunneling_geometry_without_modes_is_config_error(tmp_path, capsys,
                                                          cell, reason):
    # With the default barrier height (which depends on the cell), neither
    # cell reproduces the tabulated mode energies: 1/6 A fails the cell
    # check first, 0.1 A fits the lengths but the root bracket has no sign
    # change.  Both used to end in a ValueError traceback.
    config = write_config(tmp_path, {
        "scenario": "tunneling", "n_t": 5,
        "cell": {"value": cell, "unit": "angstrom"},
    })
    assert main(["run", "--config", config,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert reason in err[0]


WELL = {"scenario": "infinite_well", "n_cells": 6, "n_t": 2}


@pytest.mark.parametrize("config,message", [
    ({**WELL, "n_t": "abc"}, "n_t must be an integer, got 'abc'"),
    ({**WELL, "dt_factor": -1}, "dt_factor must be positive, got -1"),
    ({**WELL, "n_cels": 4}, "unknown config key 'n_cels'"),
    ({**WELL, "n_cells": 2.5}, "n_cells must be an integer, got 2.5"),
    ({**WELL, "n_cells": 1000}, "nodes, more than"),
    ({**WELL, "n_t": 10**8}, "n_t = 100000000 is more than 10000000 steps"),
    ({"scenario": "barrier", "horizon": 1.0}, "is more than 10000000 steps"),
    ({**WELL, "diag_stride": 0}, "diag_stride must be >= 1"),
    ({**WELL, "checkpoint_interval": -1}, "checkpoint_interval must be >= 0"),
    ({**WELL, "guard_factor": "big"}, "guard_factor: expected a number"),
    ({**WELL, "allow_unstable": "yes"}, "allow_unstable must be true or"),
    ({**WELL, "a": {"value": 30, "units": "nm"}}, "expected the keys value"),
    ({**WELL, "phase": None}, "phase: expected a number"),
    ({"scenario": "barrier", "n_t": 2, "lx": -1}, "lx must be positive"),
    ({"scenario": "barrier", "n_t": 2, "n_cells": 4},
     "unknown config key 'n_cells' for scenario 'barrier'"),
    ({"scenario": "tunneling", "n_t": 2, "temperature": 0},
     "temperature must be positive"),
    ({"scenario": ["well"]}, "unknown scenario"),
    pytest.param('{"scenario": "infinite_well", "n_cells": 4, "n_t": 3, '
                 '"n_t": 5}', "duplicate config key 'n_t'",
                 id="duplicate-key"),
    pytest.param('{"scenario": "infinite_well", "n_t": 3, '
                 '"a": {"value": 30, "unit": "nm", "unit": "m"}}',
                 "duplicate config key 'unit'", id="duplicate-unit"),
    pytest.param('{"scenario": "infinite_well", "n_t": 3, "a": 1%0400d}' % 0,
                 "a: bad quantity 1000", id="integer-beyond-float"),
    pytest.param('{"scenario": "infinite_well", "n_t": 1%05000d}' % 0,
                 "Exceeds the limit", id="integer-beyond-str-limit"),
])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_bad_config_fails_closed(tmp_path, capsys, command, config, message):
    out = tmp_path / "o"
    argv = [command, "--config", write_config(tmp_path, config),
            "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert message in err[0]
    assert not out.exists()


def test_tunneling_barrier_below_mode_energy_is_config_error(tmp_path,
                                                             capsys):
    config = write_config(tmp_path, {
        "scenario": "tunneling", "n_t": 2,
        "u0": {"value": 0.01, "unit": "eV"},
    })
    assert main(["run", "--config", config,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "does not exceed x-energy 1" in err[0]


def test_every_scenario_key_is_accepted(tmp_path, capsys):
    # The keys come from the dataclass fields, so a field added to a spec
    # or to RunConfig is covered here without a hand-kept list.
    def fails(settings):
        out = tmp_path / "o"
        argv = ["run", "--config", write_config(tmp_path, settings),
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and not out.exists()
        return err[0].removeprefix("configuration error: ")

    for scenario, spec_cls in cli.SCENARIOS.items():
        fields = dataclasses.fields(RunConfig) + dataclasses.fields(spec_cls)
        keys = [f.name for f in fields if f.name != "constants"]
        assert len(keys) == len(fields) - 1
        # Every key at its default, or at the TINY value where there is
        # none (scenario, n_t, the tunneling u0) or it is too large to run.
        config = {f.name: f.default for f in fields if f.name in keys
                  and f.default not in (None, dataclasses.MISSING)}
        config.update(TINY[scenario])
        assert sorted(config) == sorted(keys)
        cfg, spec = RunConfig.load(write_config(tmp_path, config))
        for key in keys:
            if not isinstance(config[key], dict):
                value = getattr(cfg if hasattr(cfg, key) else spec, key)
                assert value == config[key], key

        assert fails({**config, "constants": 1.0}).startswith(
            f"unknown config key 'constants' for scenario {scenario!r}")
        for key in keys:
            message = fails({**config, key: "abc"})
            if key == "scenario":
                assert message == "unknown scenario 'abc'"
            else:
                assert re.match(rf"{key}\b", message), message
                assert "'abc'" in message, message


@pytest.mark.parametrize("command", ["run", "cfl"])
@pytest.mark.parametrize("target", ["file", "below-a-file"])
def test_bad_out_is_a_config_error(tmp_path, capsys, command, target):
    # An --out that names a file, or a path below one, cannot be created:
    # one line and exit 2, not a FileExistsError or NotADirectoryError
    # traceback.
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if target == "file" else blocker / "x"
    argv = [command, "--config", write_config(tmp_path, TINY["barrier"]),
            "--out", str(out)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"configuration error: cannot create output directory {out}: ")
    assert blocker.read_text() == "not a directory\n"


def test_tunneling_checkpoints_written_per_region(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "tunneling", "n_t": 4, "checkpoint_interval": 2,
    })
    out = tmp_path / "tun_ckpt"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out.glob("*.npz"))
    assert names == sorted(f"{region}_checkpoint_{n:08d}.npz"
                           for region in ("reactant", "barrier", "product")
                           for n in (2, 4))
    graph, dt = sc.build_tunneling_graph(sc.TunnelingSpec())
    run_coupled(graph, dt, 4)
    for region, r in graph.regions.items():
        state = load_checkpoint(out / f"{region}_checkpoint_00000004.npz")
        assert state.n == 4
        assert np.array_equal(state.psiR, r.state.psiR)
        assert np.array_equal(state.psiI, r.state.psiI)


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFY_FAILED, EXIT_CONFIG_ERROR,
                EXIT_DIVERGED}) == 4


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_package_version_is_read_from_the_package():
    from setuptools.config.pyprojecttoml import read_configuration

    import fdtdq
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["version"] == fdtdq.__version__
    assert project["name"] == "artifact"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scipy_is_a_test_dependency_only():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]

    def names(requirements):
        return [re.split(r"[\s<>=!~\[;]", r, maxsplit=1)[0]
                for r in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
