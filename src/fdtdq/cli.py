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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import scenarios as sc
from .constants import EV, to_si
from .coupling import (UnstableTimeStep, cross_region_conservation,
                       enforce_time_step, run_coupled)
from .diagnostics import atomic_open
from .grid import PotentialField, RegionGrid
from .operators import DiscreteOperators
from .stability import cfl_limit, check_theorems
from .stepper import DivergenceError, StaggeredState, run, save_checkpoint

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3

SUMMARY_SCHEMA_VERSION = 1


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


RUN_KEYS = ("scenario", "n_t", "diag_stride", "checkpoint_interval",
            "guard_factor", "allow_unstable")

# Input size limits.  The diagnostics keep about 100 bytes per step and
# the stepper about 20 node-length float64 arrays per region, so these
# bound a run to roughly 1 GB and 2 GB.
MAX_STEPS = 10**7
MAX_REGION_NODES = 10**7


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
        entry = SCENARIOS[scenario]
        parsers = entry.parsers
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
        cfg.spec = entry.spec(**{key: parse(key, raw[key])
                                 for key, parse in parsers.items()
                                 if key in raw})
        for name, grid in entry.grids(cfg.spec).items():
            if grid.n_nodes > MAX_REGION_NODES:
                raise ConfigError(
                    f"region {name!r} has {grid.n_nodes} nodes, more than "
                    f"{MAX_REGION_NODES}")
        if "n_t" in raw:
            cfg.n_t = _integer("n_t", raw["n_t"], 0)
        else:
            cfg.n_t = cfg.spec.default_n_t()
        if cfg.n_t > MAX_STEPS:
            raise ConfigError(
                f"n_t = {cfg.n_t} is more than {MAX_STEPS} steps")
        return cfg


def _finite_extreme(arr, fn):
    vals = np.asarray(arr)
    vals = vals[np.isfinite(vals)]
    return float(fn(vals)) if vals.size else None


def _region_summary(series):
    """Summary of a series whose residuals have been computed.

    The extrema range over the rows the run evaluated: with diag_stride k,
    every k-th row, n = 1 and the final row (see SeriesBuilder).
    """
    min_h = _finite_extreme(series.H, np.min)
    return {
        "max_residual_P": _finite_extreme(np.abs(series.residual_P), np.max),
        "max_residual_H": _finite_extreme(np.abs(series.residual_H), np.max),
        "min_P": _finite_extreme(series.P, np.min),
        "max_P": _finite_extreme(series.P, np.max),
        "min_H_joules": min_h,
        "min_H_ev": min_h / EV if min_h is not None else None,
    }


def _checkpoint_observer(out_dir, interval):
    """Observer writing every region's state every interval steps.

    A one-region run writes checkpoint_{n:08d}.npz, a coupled run one
    {region}_checkpoint_{n:08d}.npz per region.
    """
    if interval <= 0:
        return ()

    def observer(windows):
        for name, window in windows.items():
            n = window.n + 1
            if n % interval == 0:
                prefix = f"{name}_" if len(windows) > 1 else ""
                state = StaggeredState(
                    psiR=window.psiR_np1, psiI=window.psiI_np, n=n,
                    psiR_prev=window.psiR_n, gradR_prev=window.gradR_n,
                    gradI_prev=window.gradI_np)
                save_checkpoint(
                    out_dir / f"{prefix}checkpoint_{n:08d}.npz", state)

    return (observer,)


def _run_one(graph, dt, n_t, **driver_args):
    """run on a one-region graph; the series keyed by the region's name."""
    (name, r), = graph.regions.items()
    try:
        return {name: run(r.state, r.ops, r.boundary, dt, n_t,
                          **driver_args)[1]}
    except DivergenceError as exc:
        exc.series = {name: exc.series}
        raise


def _barrier_references(spec, series):
    """Peak analytic probability and energy of the region, sampled every
    max(1, n_t // 700) steps: at most 1 400 times (1 001 at n_t = 1 000)."""
    (s,) = series.values()
    stride = max(1, s.n_t // 700)
    times = np.arange(0, s.steps_completed + 1, stride) * s.dt
    norm_p = float(sc.analytic_region_probability(spec, times).max())
    norm_h = float(sc.analytic_region_energy(spec, times).max())
    return norm_p, norm_h, {"max_analytic_P": norm_p,
                            "max_analytic_H_joules": norm_h,
                            "max_analytic_H_ev": norm_h / EV}


def _tunneling_references(spec, series):
    norm_h = sc.analytic_total_energy(spec)
    cons = cross_region_conservation(series)
    return 1.0, norm_h, {
        "analytic_H_joules": norm_h,
        "analytic_H_ev": norm_h / EV,
        "total_P_max_drift": cons["max_P_drift"],
        "total_H_max_drift_normalized": cons["max_H_drift_normalized"]}


@dataclass(frozen=True)
class Scenario:
    """All that the CLI does differently per scenario.

    spec is the spec class and parsers maps each config key to its
    parser; the keys are the spec's constructor arguments, and together
    with RUN_KEYS they are the only keys a config of the scenario may hold.
    grids(spec) gives region name -> grid and potential(spec, name, grid)
    that region's potential.  prepare(spec) gives (RegionGraph, dt)
    holding the initial state.  drive(graph, dt, n_t, observers=...,
    guard_factor=..., stride=...) runs it and returns region name ->
    series, with P and H evaluated only on the rows a CSV of that stride
    writes (plus n = 1 and the final row), raising DivergenceError with
    exc.series in the same form.  references(spec, series) gives (norm_P,
    norm_H, extra summary keys).
    """

    spec: type
    parsers: dict
    grids: Callable
    potential: Callable
    prepare: Callable
    drive: Callable
    references: Callable


# The entries look up run, run_coupled and the scenarios functions when
# called, not when this table is built, so that a wrapper installed on a
# module after import (as bench/child.py does to time them) sees every
# call.
SCENARIOS = {
    "infinite_well": Scenario(
        sc.InfiniteWellSpec,
        {"a": _positive, "n_cells": _cell_count, "dt_factor": _positive,
         "phase": _number},
        grids=lambda spec: {"well": spec.grid()},
        potential=lambda spec, name, grid: spec.potential(grid),
        prepare=lambda spec: sc.prepare_infinite_well(spec),
        drive=_run_one,
        references=lambda spec, series: (1.0, spec.ground_energy, {})),
    "barrier": Scenario(
        sc.GaussianBarrierSpec,
        {"x0": _number, "lambda_bar": _positive, "u0": _number,
         "a": _number, "lx": _positive, "ly": _positive, "lz": _positive,
         "cell": _positive, "horizon": _positive, "dt_factor": _positive},
        grids=lambda spec: {"barrier": spec.grid()},
        potential=lambda spec, name, grid: spec.potential(grid),
        prepare=lambda spec: sc.prepare_barrier(spec),
        drive=_run_one,
        references=_barrier_references),
    "tunneling": Scenario(
        sc.TunnelingSpec,
        {"lx_reactant": _positive, "lx_barrier": _positive,
         "lx_product": _positive, "ly": _positive, "lz": _positive,
         "cell": _positive, "u0": _positive, "temperature": _positive,
         "dt_factor": _positive},
        grids=lambda spec: {r: spec.region_grid(r)
                            for r in sc.TUNNELING_REGIONS},
        potential=lambda spec, name, grid: spec.region_potential(name, grid),
        prepare=lambda spec: sc.build_tunneling_graph(spec),
        drive=lambda *args, **kw: run_coupled(*args, **kw),
        references=_tunneling_references),
}


def _finite_or_null(obj):
    """obj with every non-finite float, in nested dicts too, as None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(path, obj):
    """Indented JSON plus a newline, written atomically.

    JSON has no NaN or infinity, so non-finite values are written as null.
    """
    with atomic_open(path) as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_run(args):
    cfg = RunConfig.load(args.config, stride=args.stride,
                         allow_unstable=args.allow_unstable)
    scenario = SCENARIOS[cfg.scenario]
    graph, dt = scenario.prepare(cfg.spec)
    if not cfg.allow_unstable:
        try:
            enforce_time_step(graph, dt)
        except UnstableTimeStep as exc:
            raise ConfigError(str(exc)) from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    diverged_at = None
    try:
        series = scenario.drive(
            graph, dt, cfg.n_t, guard_factor=cfg.guard_factor,
            observers=_checkpoint_observer(out_dir, cfg.checkpoint_interval),
            stride=cfg.diag_stride)
    except DivergenceError as exc:
        series, diverged_at = exc.series, exc.step
    norm_p, norm_h, extra = scenario.references(cfg.spec, series)
    regions = {}
    for name, s in series.items():
        s.compute_residuals(norm_P=norm_p, norm_H=norm_h)
        s.write_csv(out_dir / f"{name}.csv", stride=cfg.diag_stride)
        regions[name] = _region_summary(s)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "dt_seconds": dt,
        "n_t": cfg.n_t,
        "diag_stride": cfg.diag_stride,
        "steps_completed": max(s.steps_completed for s in series.values()),
        "diverged": diverged_at is not None,
        "diverged_at": diverged_at,
        **extra,
        "regions": regions,
    }
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    print(f"wrote {summary_path}")
    return EXIT_DIVERGED if diverged_at is not None else EXIT_OK


def cmd_cfl(args):
    cfg = RunConfig.load(args.config)
    scenario = SCENARIOS[cfg.scenario]
    out_dir = Path(args.out) if args.out else None
    dt = cfg.spec.time_step()
    reports = {}
    for name, grid in scenario.grids(cfg.spec).items():
        report = check_theorems(grid, scenario.potential(cfg.spec, name, grid),
                                cfg.spec.constants, dt)
        reports[name] = report.as_dict()
        print(f"[{name}]")
        print(report.as_text())
        print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "stability.json"
        _write_json(path, reports)
        print(f"wrote {path}")
    return EXIT_OK


def _verify_checks():
    """Desk-scale invariant suite: (name, residual, tolerance) triples."""
    from .stability import (lambda_min_P, per_cell_cfl_gen,
                            single_cell_sigma_eigvals, spectral_radius)

    def dense_rho(region_ops):
        return float(np.max(np.abs(np.linalg.eigvalsh(
            region_ops.assemble_sigma_dense()))))

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

    # The verify grid's U is 3-D, so spectral_radius falls back to the
    # dense solve there; this grid's U varies along y only.
    agrid = RegionGrid(6, 3, 2, 0.8e-9, 1.1e-9, 1.4e-9)
    profile = rng.uniform(-1.0, 1.0, agrid.ny + 1) * EV
    aops = DiscreteOperators(agrid, PotentialField(agrid, np.broadcast_to(
        profile[None, :, None], agrid.node_shape)), ELECTRON)
    rho_dense = dense_rho(aops)
    checks.append(("per-axis rho(Sigma) vs dense",
                   abs(spectral_radius(aops) - rho_dense)
                   / rho_dense, 1e-13))
    # The same grid's P blocks, by fast diagonalization and densely.
    dt_a = 1.8 / rho_dense
    c = dt_a / (2.0 * ELECTRON.hbar)
    ha = aops.assemble_H()
    ends = [np.linalg.eigvalsh(np.diag(aops.metrics.v) + s * c * ha)
            for s in (-1.0, 1.0)]
    lo = min(e[0] for e in ends)
    checks.append(("lambda_min(P) structured vs dense",
                   abs(lambda_min_P(aops, dt_a) - lo)
                   / max(e[-1] for e in ends), 1e-13))

    rho = dense_rho(ops)
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
    graph, dt = sc.prepare_infinite_well(spec)
    series = _run_one(graph, dt, 200)["well"]
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdtdq",
        description="Staggered-grid quantum wavepacket solver with "
                    "conservation diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--stride", type=int, default=None,
                       help="diagnostic CSV row stride")
    p_run.add_argument("--allow-unstable", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cfl = sub.add_parser("cfl", help="print time-step limits")
    p_cfl.add_argument("--config", required=True)
    p_cfl.add_argument("--out", default=None)
    p_cfl.set_defaults(func=cmd_cfl)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, sc.GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
