"""Command-line front end: scenario runs, stability reports, verification.

Subcommands:

  run     execute a scenario from a JSON config, writing per-region CSV
          diagnostics and a summary JSON
  cfl     print time-step limits and spectral analysis per region
  verify  run the built-in invariant suite at desk scale

Exit codes: 0 success, 2 configuration error, 3 divergence-guard abort,
1 verification failure.

Config files are JSON objects; physical quantities may be plain numbers
(SI) or unit-tagged objects like {"value": 30, "unit": "nm"}.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import scenarios as sc
from .constants import EV, to_si
from .coupling import (UnstableTimeStep, cross_region_conservation,
                       run_coupled)
from .grid import PotentialField, RegionGrid
from .operators import DiscreteOperators
from .stability import cfl_gen_limit, cfl_limit, check_theorems
from .stepper import (DivergenceError, StaggeredState, run,
                      save_checkpoint)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3

SUMMARY_SCHEMA_VERSION = 1

THREADS_ENV_VAR = "FDTDQ_THREADS"


class ConfigError(ValueError):
    pass


def _quantity(obj):
    """A finite config number: plain (SI) or {"value": v, "unit": u}."""
    number, unit = obj, "1"
    if isinstance(obj, dict):
        if "value" not in obj or set(obj) - {"value", "unit"}:
            raise ConfigError(
                f"bad quantity {obj!r}: expected the keys value and unit")
        number, unit = obj["value"], obj.get("unit", "1")
    if isinstance(number, bool) or not isinstance(number, (int, float)):
        raise ConfigError(
            f"expected a number or value/unit object, got {obj!r}")
    try:
        value = to_si(number, unit)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad quantity {obj!r}: {exc}") from None
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {obj!r}")
    return value


def _number(key, obj):
    try:
        return _quantity(obj)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _positive(key, obj):
    value = _number(key, obj)
    if not value > 0.0:
        raise ConfigError(f"{key} must be positive, got {value:g}")
    return value


def _integer(key, obj, minimum):
    if isinstance(obj, float) and obj.is_integer():
        obj = int(obj)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{key} must be an integer, got {obj!r}")
    if obj < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {obj}")
    return obj


def _cell_count(key, obj):
    return _integer(key, obj, 1)


# Scenario name -> (spec class, {config key: parser}).  The keys are the
# spec's constructor arguments; together with RUN_KEYS they are the only
# keys a config of that scenario may hold.
SCENARIOS = {
    "infinite_well": (sc.InfiniteWellSpec, {
        "a": _positive, "n_cells": _cell_count, "dt_factor": _positive,
        "phase": _number}),
    "barrier": (sc.GaussianBarrierSpec, {
        "x0": _number, "lambda_bar": _positive, "u0": _number, "a": _number,
        "lx": _positive, "ly": _positive, "lz": _positive,
        "cell": _positive, "horizon": _positive, "dt_factor": _positive}),
    "tunneling": (sc.TunnelingSpec, {
        "lx_reactant": _positive, "lx_barrier": _positive,
        "lx_product": _positive, "ly": _positive, "lz": _positive,
        "cell": _positive, "u0": _positive, "temperature": _positive,
        "dt_factor": _positive}),
}

RUN_KEYS = ("scenario", "n_t", "diag_stride", "checkpoint_interval",
            "guard_factor", "allow_unstable")

# Input size limits.  The diagnostics keep about 100 bytes per step and
# the stepper about 20 node-length float64 arrays per region, so these
# bound a run to roughly 1 GB and 2 GB.
MAX_STEPS = 10**7
MAX_REGION_NODES = 10**7

# Default simulated time of a tunneling run (s).
TUNNELING_HORIZON = 1e-12


@dataclass
class RunConfig:
    """Parsed run settings common to all scenarios, plus the scenario spec.

    n_t is resolved: the config's value or the scenario's default.
    """

    scenario: str
    spec: object = None
    n_t: int = None
    diag_stride: int = 1
    checkpoint_interval: int = 0
    guard_factor: float = 1e6
    allow_unstable: bool = False

    @classmethod
    def load(cls, path, stride=None, allow_unstable=False):
        """Read and validate a config; any bad or unknown key is a
        ConfigError."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "scenario" not in raw:
            raise ConfigError("config is missing the 'scenario' key")
        scenario = raw["scenario"]
        if not isinstance(scenario, str) or scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        spec_cls, parsers = SCENARIOS[scenario]
        unknown = sorted(set(raw) - set(RUN_KEYS) - set(parsers))
        if unknown:
            raise ConfigError(
                f"unknown config key {unknown[0]!r} for scenario "
                f"{scenario!r}; accepted keys: "
                f"{', '.join(sorted(RUN_KEYS + tuple(parsers)))}")

        cfg = cls(scenario=scenario)
        cfg.diag_stride = _integer("diag_stride", raw.get("diag_stride", 1),
                                   1)
        if stride is not None:
            cfg.diag_stride = _integer("--stride", stride, 1)
        cfg.checkpoint_interval = _integer(
            "checkpoint_interval", raw.get("checkpoint_interval", 0), 0)
        if "guard_factor" in raw:
            cfg.guard_factor = _positive("guard_factor", raw["guard_factor"])
        unstable = raw.get("allow_unstable", False)
        if not isinstance(unstable, bool):
            raise ConfigError(
                f"allow_unstable must be true or false, got {unstable!r}")
        cfg.allow_unstable = allow_unstable or unstable
        cfg.spec = spec_cls(**{key: parse(key, raw[key])
                               for key, parse in parsers.items()
                               if key in raw})
        for name, grid in _region_grids(cfg).items():
            if grid.n_nodes > MAX_REGION_NODES:
                raise ConfigError(
                    f"region {name!r} has {grid.n_nodes} nodes, more than "
                    f"{MAX_REGION_NODES}")
        if "n_t" in raw:
            cfg.n_t = _integer("n_t", raw["n_t"], 0)
        elif scenario == "tunneling":
            cfg.n_t = int(round(TUNNELING_HORIZON / cfg.spec.time_step()))
        else:
            cfg.n_t = cfg.spec.default_n_t()
        if cfg.n_t > MAX_STEPS:
            raise ConfigError(
                f"n_t = {cfg.n_t} is more than {MAX_STEPS} steps")
        return cfg


def _region_grids(cfg):
    """Region name -> grid of the configured scenario."""
    if cfg.scenario == "tunneling":
        return {r: cfg.spec.region_grid(r) for r in sc.TUNNELING_REGIONS}
    name = "well" if cfg.scenario == "infinite_well" else "barrier"
    return {name: cfg.spec.grid()}


def _finite_extreme(arr, fn):
    if arr is None:
        return None
    vals = np.asarray(arr)
    vals = vals[np.isfinite(vals)]
    return float(fn(vals)) if vals.size else None


def _region_summary(series):
    min_h = _finite_extreme(series.H, np.min)
    return {
        "max_residual_P": _finite_extreme(
            None if series.residual_P is None
            else np.abs(series.residual_P), np.max),
        "max_residual_H": _finite_extreme(
            None if series.residual_H is None
            else np.abs(series.residual_H), np.max),
        "min_P": _finite_extreme(series.P, np.min),
        "max_P": _finite_extreme(series.P, np.max),
        "min_H_joules": min_h,
        "min_H_ev": min_h / EV if min_h is not None else None,
    }


def _checkpoint_observer(out_dir, interval, coupled=False):
    """Observer writing the state every interval steps.

    For run it writes checkpoint_{n:08d}.npz; for run_coupled (coupled
    True, the observer gets the per-region window dict) one
    {region}_checkpoint_{n:08d}.npz per region.
    """
    if interval <= 0:
        return ()

    def observer(arg):
        windows = ({f"{name}_": w for name, w in arg.items()} if coupled
                   else {"": arg})
        for prefix, window in windows.items():
            n = window.n + 1
            if n % interval == 0:
                state = StaggeredState(
                    psiR=window.psiR_np1, psiI=window.psiI_np, n=n,
                    psiR_prev=window.psiR_n, gradR_prev=window.gradR_n,
                    gradI_prev=window.gradI_np)
                save_checkpoint(
                    out_dir / f"{prefix}checkpoint_{n:08d}.npz", state)

    return (observer,)


def _run_single(cfg, prep, out_dir, region_name="region"):
    """Drive a single-region scenario; returns (exit code, summary dict)."""
    diverged_at = None
    try:
        _, series = run(prep.state, prep.ops, prep.boundary, prep.dt,
                        prep.n_t, guard_factor=cfg.guard_factor,
                        observers=_checkpoint_observer(
                            out_dir, cfg.checkpoint_interval))
    except DivergenceError as exc:
        series = exc.series
        diverged_at = exc.step
    series.compute_residuals(norm_P=prep.norm_P, norm_H=prep.norm_H)
    series.write_csv(out_dir / f"{region_name}.csv",
                     stride=cfg.diag_stride)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "dt_seconds": prep.dt,
        "n_t": prep.n_t,
        "steps_completed": series.steps_completed,
        "diverged": diverged_at is not None,
        "diverged_at": diverged_at,
        "regions": {region_name: _region_summary(series)},
    }
    return (EXIT_DIVERGED if diverged_at is not None else EXIT_OK), summary


def _reference_times(series, max_samples=700):
    stride = max(1, series.n_t // max_samples)
    idx = np.arange(0, series.steps_completed + 1, stride)
    return idx, idx * series.dt


def cmd_run(args):
    cfg = RunConfig.load(args.config, stride=args.stride,
                         allow_unstable=args.allow_unstable)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.scenario == "infinite_well":
        prep = sc.prepare_infinite_well(cfg.spec, n_t=cfg.n_t)
        _check_single_region_dt(prep, cfg)
        code, summary = _run_single(cfg, prep, out_dir, "well")
    elif cfg.scenario == "barrier":
        prep = sc.prepare_barrier(cfg.spec, n_t=cfg.n_t)
        _check_single_region_dt(prep, cfg)
        code, summary = _run_barrier(cfg, prep, out_dir)
    else:
        code, summary = _run_tunneling(cfg, out_dir)

    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {summary_path}")
    return code


def _check_single_region_dt(prep, cfg):
    if cfg.allow_unstable:
        return
    closed = cfl_limit(prep.ops.grid, prep.ops.potential,
                       prep.ops.constants)
    if prep.dt < closed:
        return
    gen = cfl_gen_limit(prep.ops)
    if prep.dt >= gen:
        raise ConfigError(
            f"dt = {prep.dt:.6e} s exceeds the generalized limit "
            f"{gen:.6e} s; pass --allow-unstable to run anyway")


def _run_barrier(cfg, prep, out_dir):
    spec = cfg.spec
    diverged_at = None
    try:
        _, series = run(prep.state, prep.ops, prep.boundary, prep.dt,
                        prep.n_t, guard_factor=cfg.guard_factor,
                        observers=_checkpoint_observer(
                            out_dir, cfg.checkpoint_interval))
    except DivergenceError as exc:
        series = exc.series
        diverged_at = exc.step
    idx, times = _reference_times(series)
    ref_p = sc.analytic_region_probability(spec, times)
    ref_h = sc.analytic_region_energy(spec, times)
    norm_p = float(ref_p.max())
    norm_h = float(ref_h.max())
    series.compute_residuals(norm_P=norm_p, norm_H=norm_h)
    series.write_csv(out_dir / "barrier.csv", stride=cfg.diag_stride)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "dt_seconds": prep.dt,
        "n_t": prep.n_t,
        "steps_completed": series.steps_completed,
        "diverged": diverged_at is not None,
        "diverged_at": diverged_at,
        "max_analytic_P": norm_p,
        "max_analytic_H_joules": norm_h,
        "max_analytic_H_ev": norm_h / EV,
        "regions": {"barrier": _region_summary(series)},
    }
    return (EXIT_DIVERGED if diverged_at is not None else EXIT_OK), summary


def _run_tunneling(cfg, out_dir):
    spec = cfg.spec
    graph, dt = sc.build_tunneling_graph(spec)
    n_t = cfg.n_t
    diverged_at = None
    try:
        series_map = run_coupled(
            graph, dt, n_t, guard_factor=cfg.guard_factor,
            allow_unstable=cfg.allow_unstable,
            observers=_checkpoint_observer(
                out_dir, cfg.checkpoint_interval, coupled=True))
    except UnstableTimeStep as exc:
        raise ConfigError(str(exc)) from None
    except DivergenceError as exc:
        series_map = exc.series
        diverged_at = exc.step
    norm_h = sc.analytic_total_energy(spec)
    regions = {}
    for name, series in series_map.items():
        series.compute_residuals(norm_P=1.0, norm_H=norm_h)
        series.write_csv(out_dir / f"{name}.csv", stride=cfg.diag_stride)
        regions[name] = _region_summary(series)
    cons = cross_region_conservation(series_map)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "dt_seconds": dt,
        "n_t": n_t,
        "steps_completed": max(s.steps_completed
                               for s in series_map.values()),
        "diverged": diverged_at is not None,
        "diverged_at": diverged_at,
        "analytic_H_joules": norm_h,
        "analytic_H_ev": norm_h / EV,
        "total_P_max_drift": cons["max_P_drift"],
        "total_H_max_drift_normalized": cons["max_H_drift_normalized"],
        "regions": regions,
    }
    return (EXIT_DIVERGED if diverged_at is not None else EXIT_OK), summary


def _scenario_region_setups(cfg):
    """(name, grid, potential, constants, dt) per region of a scenario."""
    spec = cfg.spec
    dt = spec.time_step()
    out = []
    for name, grid in _region_grids(cfg).items():
        potential = (spec.region_potential(name, grid)
                     if cfg.scenario == "tunneling" else spec.potential(grid))
        out.append((name, grid, potential, spec.constants, dt))
    return out


def cmd_cfl(args):
    cfg = RunConfig.load(args.config, allow_unstable=True)
    out_dir = Path(args.out) if args.out else None
    reports = {}
    for name, grid, potential, constants, dt in _scenario_region_setups(cfg):
        report = check_theorems(grid, potential, constants, dt)
        reports[name] = report.as_dict()
        print(f"[{name}]")
        print(report.as_text())
        print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "stability.json"
        with open(path, "w") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return EXIT_OK


def _verify_checks():
    """Desk-scale invariant suite: (name, residual, tolerance) triples."""
    from .stability import (lambda_min_P, per_cell_cfl_gen,
                            single_cell_sigma_eigvals, spectral_radius)

    checks = []
    rng = np.random.default_rng(20240817)
    grid = RegionGrid(5, 4, 3, 0.9e-9, 1.1e-9, 1.3e-9)
    u = PotentialField(grid, rng.uniform(-1.0, 1.0, grid.n_nodes) * EV)
    from .constants import ELECTRON
    ops = DiscreteOperators(grid, u, ELECTRON)

    h = ops.assemble_H()
    v = rng.standard_normal(grid.n_nodes)
    ref = h @ v
    checks.append(("matrix-free H matches assembled H",
                   float(np.max(np.abs(ops.apply_H(v) - ref))
                         / np.max(np.abs(ref))), 1e-14))
    b = rng.standard_normal(grid.n_hanging)
    hb = ops.assemble_Hbot()
    refb = hb @ b
    scale = max(float(np.max(np.abs(refb))), 1e-300)
    checks.append(("matrix-free H_bot matches assembled H_bot",
                   float(np.max(np.abs(ops.apply_Hbot(b) - refb))) / scale,
                   1e-14))

    cell = RegionGrid(1, 1, 1, 0.7e-9, 0.9e-9, 1.2e-9)
    cops = DiscreteOperators(cell, PotentialField.uniform(cell, 0.3 * EV),
                             ELECTRON)
    analytic = np.sort(single_cell_sigma_eigvals(
        cell.dx, cell.dy, cell.dz, 0.3 * EV, ELECTRON))
    dense = np.linalg.eigvalsh(cops.assemble_sigma_dense())
    checks.append(("single-cell analytic eigenvalues vs dense solve",
                   float(np.max(np.abs(analytic - dense))
                         / np.max(np.abs(dense))), 1e-13))

    rho = spectral_radius(ops, method="dense")
    dt_gen = 2.0 / rho
    cell_min, _ = per_cell_cfl_gen(grid, u, ELECTRON)
    dt_cfl = cfl_limit(grid, u, ELECTRON)
    checks.append(("ordering dt_CFL <= per-cell min (relative margin)",
                   float((dt_cfl - cell_min) / dt_gen), 1e-13))
    checks.append(("ordering per-cell min <= dt_CFL,gen (relative margin)",
                   float((cell_min - dt_gen) / dt_gen), 1e-13))
    checks.append(("P positive definite below the generalized limit",
                   0.0 if lambda_min_P(ops, 0.5 * dt_gen) > 0.0 else 1.0,
                   0.5))
    checks.append(("P indefinite above the generalized limit",
                   0.0 if lambda_min_P(ops, 1.01 * dt_gen) < 0.0 else 1.0,
                   0.5))

    spec = sc.InfiniteWellSpec(n_cells=8)
    prep = sc.prepare_infinite_well(spec, n_t=200)
    _, series = run(prep.state, prep.ops, prep.boundary, prep.dt, 200)
    series.compute_residuals(norm_P=1.0, norm_H=spec.ground_energy)
    checks.append(("closed-box probability conservation",
                   float(np.nanmax(np.abs(series.P - 1.0))), 1e-13))
    checks.append(("closed-box energy balance residual",
                   float(np.nanmax(np.abs(series.residual_H))), 1e-13))
    return checks


def cmd_verify(args):
    checks = _verify_checks()
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, residual, tol in checks:
        ok = residual <= tol
        failed += 0 if ok else 1
        mark = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {residual: .3e}  (tol {tol:.0e})  {mark}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _apply_thread_limit(threads):
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is None:
            return
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}") \
                from None
    if threads < 1:
        raise ConfigError("thread count must be >= 1")
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(threads)
    except ImportError:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdtdq",
        description="Staggered-grid quantum wavepacket solver with "
                    "conservation diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--stride", type=int, default=None,
                       help="diagnostic CSV row stride")
    p_run.add_argument("--allow-unstable", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cfl = sub.add_parser("cfl", help="print time-step limits")
    p_cfl.add_argument("--config", required=True)
    p_cfl.add_argument("--out", default=None)
    p_cfl.add_argument("--threads", type=int, default=None)
    p_cfl.set_defaults(func=cmd_cfl)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_thread_limit(getattr(args, "threads", None))
        return args.func(args)
    except (ConfigError, sc.GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
