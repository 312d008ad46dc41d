"""Command-line front end: scenario runs, stability reports, verification.

Subcommands:

  run     execute a scenario from a JSON config, writing per-region CSV
          diagnostics and a summary JSON
  cfl     print time-step limits and spectral analysis per region
  verify  run the built-in invariant suite at desk scale

Exit codes: 0 success, 2 configuration error, 3 divergence-guard abort,
1 verification failure.

Config files are JSON objects; physical quantities may be plain numbers
(SI) or unit-tagged objects like {"value": 30, "unit": "nm"}.  A config's
keys are the fields of RunConfig plus the config keys of its scenario's
spec class (see fdtdq.scenarios), which SCENARIOS maps from the scenario's
name; each field carries its own parser.  Every scenario takes the same
run path: the spec prepares its region graph, run_coupled drives a graph
with interfaces and run a one-region graph, and the spec gives the
references that the residuals are normalized by.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import scenarios as sc
from .constants import (EV, ConfigError, boolean, config_key, integer,
                        parse_config, positive)
from .coupling import UnstableTimeStep, enforce_time_step, run_coupled
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

SCENARIOS = {"infinite_well": sc.InfiniteWellSpec,
             "barrier": sc.GaussianBarrierSpec,
             "tunneling": sc.TunnelingSpec}

# Input size limits.  The diagnostics keep about 100 bytes per step and
# the stepper about 20 node-length float64 arrays per region, so these
# bound a run to roughly 1 GB and 2 GB.
MAX_STEPS = 10**7
MAX_REGION_NODES = 10**7


def _scenario(key, name):
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    return name


def _unique_keys(pairs):
    """A JSON object's pairs as a dict; a repeated key is a ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate config key {key!r}")
        obj[key] = value
    return obj


@dataclass
class RunConfig:
    """Run settings common to all scenarios; every field is a config key.

    n_t None stands for the scenario's default; load resolves it.
    """

    scenario: str = field(metadata={"parse": _scenario})
    n_t: int = config_key(None, integer(0))
    diag_stride: int = config_key(1, integer(1))
    checkpoint_interval: int = config_key(0, integer(0))
    guard_factor: float = config_key(1e6, positive)
    allow_unstable: bool = config_key(False, boolean)

    @classmethod
    def load(cls, path, stride=None, allow_unstable=False):
        """Read and validate a config: (RunConfig, scenario spec).

        Any bad, unknown or repeated key is a ConfigError.
        """
        # Bad JSON or UTF-8, an integer past Python's digit limit and a
        # repeated key (ConfigError) all raise ValueErrors.
        try:
            with open(path) as fh:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "scenario" not in raw:
            raise ConfigError("config is missing the 'scenario' key")
        spec_cls = SCENARIOS[_scenario("scenario", raw["scenario"])]
        keys = {f.name for f in fields(cls) + fields(spec_cls)
                if "parse" in f.metadata}
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise ConfigError(
                f"unknown config key {unknown[0]!r} for scenario "
                f"{raw['scenario']!r}; accepted keys: "
                f"{', '.join(sorted(keys))}")

        cfg = cls(**parse_config(cls, raw))
        if stride is not None:
            cfg.diag_stride = integer(1)("--stride", stride)
        cfg.allow_unstable |= allow_unstable
        spec = spec_cls(**parse_config(spec_cls, raw))
        for name, grid in spec.grids().items():
            if grid.n_nodes > MAX_REGION_NODES:
                raise ConfigError(
                    f"region {name!r} has {grid.n_nodes} nodes, more than "
                    f"{MAX_REGION_NODES}")
        if cfg.n_t is None:
            cfg.n_t = spec.default_n_t()
        if cfg.n_t > MAX_STEPS:
            raise ConfigError(
                f"n_t = {cfg.n_t} is more than {MAX_STEPS} steps")
        return cfg, spec


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


def _output_dir(path):
    """path as a directory, created if missing; failing that, a
    ConfigError."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc}") from None
    return out_dir


def cmd_run(args):
    cfg, spec = RunConfig.load(args.config, stride=args.stride,
                               allow_unstable=args.allow_unstable)
    graph, dt = spec.prepare()
    if not cfg.allow_unstable:
        try:
            enforce_time_step(graph, dt)
        except UnstableTimeStep as exc:
            raise ConfigError(str(exc)) from None
    out_dir = _output_dir(args.out)

    drive = run_coupled if graph.interfaces else _run_one
    diverged_at = None
    try:
        series = drive(
            graph, dt, cfg.n_t, guard_factor=cfg.guard_factor,
            observers=_checkpoint_observer(out_dir, cfg.checkpoint_interval),
            stride=cfg.diag_stride)
    except DivergenceError as exc:
        series, diverged_at = exc.series, exc.step
    norm_p, norm_h, extra = spec.references(series)
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
    _, spec = RunConfig.load(args.config)
    out_dir = _output_dir(args.out) if args.out else None
    dt = spec.time_step()
    reports = {}
    for name, grid in spec.grids().items():
        report = check_theorems(grid, spec.potential(name, grid),
                                spec.constants, dt)
        reports[name] = report.as_dict()
        print(f"[{name}]")
        print(report.as_text())
        print()
    if out_dir is not None:
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
