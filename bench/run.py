#!/usr/bin/env python3
"""fdtdq benchmark: end-to-end and per-layer costs of the `fdtdq` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere; the program measured is the `src/` tree next to this
directory.  Each attempt runs the workload's `fdtdq` command(s) in fresh
processes (closed loop, one process at a time); attempts repeat for about
S seconds.  Every attempt's outputs are checked, and the last line printed
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (medians over attempts);
with `--trace 1` they are the per-layer ones from traced attempts.
`--workload all` runs every workload both ways and prints a table.
See bench/README.md for the workloads, metrics and baseline.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Acceptance tolerances pinned by tests/test_acceptance.py.
RESIDUAL_TOL = 1e-13
DRIFT_TOL = 1e-12

# One BLAS thread: steadier timings on a shared machine, and CSV bytes that
# do not depend on the core count (BLAS reductions split by thread).
BLAS_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0

NM = 1e-9
ANGSTROM = 1e-10

# Grid sizes and horizons.  The seed never changes these, so every seed
# does the same work; "tiny" is for the smoke test only.
SIZES = {
    "full": {"well_cells": 30, "well_steps": 500,
             "barrier_lx": 200 * NM, "barrier_a": 100 * NM,
             "barrier_steps": 1000,
             "tunneling_cell": ANGSTROM / 30.0, "tunneling_steps": 300},
    "tiny": {"well_cells": 16, "well_steps": 20,
             "barrier_lx": 20 * NM, "barrier_a": 10 * NM,
             "barrier_steps": 40,
             "tunneling_cell": ANGSTROM / 10.0, "tunneling_steps": 20},
}
# Default barrier height of the tunneling spec at its standard cell; pinned
# so that a coarser cell keeps the same mode energies.
TUNNELING_U0 = 1.6021766551777526e-19

# Per workload: (subcommand, scenario, CSV row stride) per process.
WORKLOADS = {
    "well": (("run", "well", 1),),
    "barrier": (("run", "barrier", 1),),
    "tunneling": (("run", "tunneling", 10),),
    "cfl": (("cfl", "well", None), ("cfl", "barrier", None),
            ("cfl", "tunneling", None)),
}

_RUN_SPANS = {
    "cli.main", "operators.init", "operators.apply_H",
    "operators.apply_Hbot", "stepper.hanging_at", "diagnostics.record",
    "diagnostics.supplied_power", "diagnostics.probability_current_by_face",
    "diagnostics.compute_residuals", "diagnostics.write_csv",
    "scenarios.prepare"}
# Spans each workload must fire at least once in a traced attempt.
EXPECTED_SPANS = {
    "well": _RUN_SPANS | {"stepper.run", "stepper.step"},
    "barrier": _RUN_SPANS | {"stepper.run", "stepper.step",
                             "scenarios.barrier_source",
                             "scenarios.analytic_refs"},
    "tunneling": _RUN_SPANS | {"coupling.run_coupled",
                               "coupling.coupled_step",
                               "coupling.enforce_time_step",
                               "scenarios.analytic_refs"},
    "cfl": {"cli.main", "operators.init", "operators.apply_H",
            "operators.assemble", "stability.check_theorems",
            "stability.spectral_radius", "stability.per_cell_cfl_gen",
            "stability.lambda_min_P", "stability.kappa_P"},
}
# Spans measured by the tracemalloc pass.
ALLOC_SPANS = ("stepper.step", "coupling.coupled_step", "diagnostics.record")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer statistics reported for each span.
SPAN_STATS = {
    "operators.apply_H": ("calls", "us_per_call", "self_s"),
    "operators.apply_Hbot": ("calls", "us_per_call", "self_s"),
    "operators.init": ("s", "self_s"),
    "operators.assemble": ("s", "self_s"),
    "stepper.run": ("self_s",),
    "stepper.step": ("calls", "us_per_call", "us_p99", "self_s"),
    "stepper.hanging_at": ("calls", "us_per_call", "self_s"),
    "coupling.run_coupled": ("self_s",),
    "coupling.coupled_step": ("calls", "us_per_call", "us_p99", "self_s"),
    "coupling.enforce_time_step": ("s", "self_s"),
    "diagnostics.record": ("calls", "us_per_call", "self_s"),
    "diagnostics.supplied_power": ("us_per_call", "self_s"),
    "diagnostics.probability_current_by_face": ("us_per_call", "self_s"),
    "diagnostics.compute_residuals": ("s", "self_s"),
    "diagnostics.write_csv": ("s", "self_s"),
    "scenarios.prepare": ("s", "self_s"),
    "scenarios.barrier_source": ("calls", "us_per_call", "self_s"),
    "scenarios.analytic_refs": ("s", "self_s"),
    "stability.check_theorems": ("s", "self_s"),
    "stability.spectral_radius": ("s", "self_s"),
    "stability.per_cell_cfl_gen": ("s", "self_s"),
    "stability.lambda_min_P": ("s", "self_s"),
    "stability.kappa_P": ("s", "self_s"),
}
STAT_UNITS = {"calls": "count", "us_per_call": "us", "us_p99": "us",
              "self_s": "s", "s": "s"}
EXTRA_LAYER = (
    ("operators.apply_Hbot.zero_input_ratio", "ratio", "lower"),
    ("diagnostics.write_csv.bytes", "B", "lower"),
    ("stability.sigma_matvecs", "count", "lower"),
    ("stepper.step.peak_alloc_bytes", "B", "lower"),
    ("coupling.coupled_step.peak_alloc_bytes", "B", "lower"),
    ("diagnostics.record.peak_alloc_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    # The output phase (driver exit to cli.main return) of the untraced
    # attempts.  It is mostly interpreted Python (CSV formatting), whose
    # speed on a shared host swings too much for an end-to-end bound.
    ("cli.output_s", "s", "lower"),
    ("trace.cli_main_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.driver_coverage", "ratio", "higher"),
    ("trace.output_coverage", "ratio", "higher"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", STAT_UNITS[stat], "lower")
           for span, stats in SPAN_STATS.items() for stat in stats]
    return out + list(EXTRA_LAYER)


# ---- inputs ---------------------------------------------------------------

def scenario_configs(seed, size="full"):
    """The three scenario configs for a seed.

    The seed draws physical values only: the well phase, the barrier
    packet start x0 (between 0.5 and 0.1 region lengths west of the
    region, so the packet is inside the region within the horizon) and
    the tunneling temperature.
    """
    p = SIZES[size]
    rng = random.Random(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    x0 = -rng.uniform(0.1, 0.5) * p["barrier_lx"]
    temperature = rng.uniform(250.0, 350.0)
    return {
        "well": {"scenario": "infinite_well", "a": 30 * NM,
                 "n_cells": p["well_cells"], "n_t": p["well_steps"],
                 "phase": phase},
        "barrier": {"scenario": "barrier", "x0": x0,
                    "lx": p["barrier_lx"], "ly": 2 * NM, "lz": 2 * NM,
                    "cell": 1 * NM, "a": p["barrier_a"],
                    "n_t": p["barrier_steps"]},
        "tunneling": {"scenario": "tunneling", "lx_reactant": ANGSTROM,
                      "lx_barrier": 0.5 * ANGSTROM, "lx_product": ANGSTROM,
                      "ly": ANGSTROM, "lz": 0.9 * ANGSTROM,
                      "cell": p["tunneling_cell"], "u0": TUNNELING_U0,
                      "temperature": temperature,
                      "n_t": p["tunneling_steps"]},
    }


def largest_node_count(config):
    """Nodes of the largest region a config builds."""
    if config["scenario"] == "infinite_well":
        return (config["n_cells"] + 1) ** 3
    cell = config["cell"]
    transverse = ((round(config["ly"] / cell) + 1)
                  * (round(config["lz"] / cell) + 1))
    if config["scenario"] == "barrier":
        return (round(config["lx"] / cell) + 1) * transverse
    return max(round(config[k] / cell) + 1 for k in
               ("lx_reactant", "lx_barrier", "lx_product")) * transverse


# ---- one attempt ----------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "FDTDQ_THREADS")}
    env.update(BLAS_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env["FDTDQ_BENCH_SRC"] = str(SRC)
    return env


def launch(mode, argv, timings_path, log_path):
    """Run one child to completion.

    Returns (exit code, launch time, exit time, rusage of the child).
    """
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(timings_path),
           "--", *argv]
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_outputs(subcommand, out_dir):
    """Correctness gate on one command's outputs.

    Returns (failures, digests of the outputs, units of solver work done).
    """
    fails = []
    if subcommand == "cfl":
        path = out_dir / "stability.json"
        reports = json.loads(path.read_text())
        for region, rep in reports.items():
            for key in ("ordering_holds", "P_positive_definite",
                        "dt_below_cfl_gen"):
                if rep.get(key) is not True:
                    fails.append(f"{region}: {key} is {rep.get(key)}")
        return fails, {path.name: sha256(path)}, len(reports)
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["diverged"]:
        fails.append(f"diverged at step {summary['diverged_at']}")
    if summary["steps_completed"] != summary["n_t"]:
        fails.append(f"steps_completed {summary['steps_completed']} "
                     f"!= n_t {summary['n_t']}")
    for region, rep in summary["regions"].items():
        for key in ("max_residual_P", "max_residual_H"):
            value = rep[key]
            if value is None or not value <= RESIDUAL_TOL:
                fails.append(f"{region}: {key} = {value}")
    for key in ("total_P_max_drift", "total_H_max_drift_normalized"):
        if key in summary and not summary[key] <= DRIFT_TOL:
            fails.append(f"{key} = {summary[key]}")
    digests = {p.name: sha256(p) for p in sorted(out_dir.glob("*.csv"))}
    return fails, digests, summary["steps_completed"]


def merge_traces(traces):
    """Sum the per-process trace summaries of one attempt."""
    out = {"spans": {}, "counters": {}}
    for tr in traces:
        for name, agg in tr["spans"].items():
            dst = out["spans"].setdefault(
                name, {"calls": 0, "durs": [], "self_s": 0.0, "s": 0.0})
            dst["calls"] += agg["calls"]
            dst["durs"] += agg["durs"]
            dst["self_s"] += agg["self_s"]
            dst["s"] += agg["s"]
        for key, n in tr["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + n
        for key in ("root_s", "self_sum_s", "driver_s", "driver_self_s",
                    "output_s", "output_covered_s"):
            out[key] = out.get(key, 0.0) + tr[key]
    return out


def attempt(workload, mode, configs, workdir):
    """One attempt of a workload; returns a dict of raw results."""
    res = {"mode": mode, "fails": [], "digests": {}, "wall_s": 0.0,
           "setup_s": 0.0, "solve_s": 0.0, "output_s": 0.0,
           "main_s": 0.0, "units": 0, "peak_rss_mb": 0.0,
           "traces": [], "peaks": {}}
    for sub, scenario, stride in WORKLOADS[workload]:
        tag = f"{scenario}-{sub}"
        d = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=workdir))
        cfg_path = d / f"{scenario}.json"
        cfg_path.write_text(json.dumps(configs[scenario], indent=1))
        out_dir = d / "out"
        argv = [sub, "--config", str(cfg_path), "--out", str(out_dir)]
        if stride is not None:
            argv += ["--stride", str(stride)]
        code, t_launch, t_exit, usage = launch(
            mode, argv, d / "timings.json", d / "log.txt")
        if code != 0:
            log = (d / "log.txt").read_text()[-2000:]
            res["fails"].append(f"{tag}: exit code {code}: {log}")
            shutil.rmtree(d)
            continue
        rec = json.loads((d / "timings.json").read_text())
        try:
            fails, digests, units = check_outputs(sub, out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fails, digests, units = [f"unreadable output: {exc!r}"], {}, 0
        res["fails"] += [f"{tag}: {f}" for f in fails]
        for name, digest in digests.items():
            res["digests"][f"{tag}/{name}"] = digest
        res["env"] = rec["env"]
        res["wall_s"] += t_exit - t_launch
        res["main_s"] += rec["main"][1] - rec["main"][0]
        res["peak_rss_mb"] = max(res["peak_rss_mb"],
                                 usage.ru_maxrss / 1024.0)
        res["units"] += units
        if mode == "plain":
            windows = rec["driver"]
            if not windows:
                res["fails"].append(f"{tag}: solver driver never called")
            else:
                res["setup_s"] += windows[0][0] - t_launch
                res["solve_s"] += windows[-1][1] - windows[0][0]
                res["output_s"] += rec["main"][1] - windows[-1][1]
        elif mode == "trace":
            tr = rec["trace"]
            if abs(tr["self_sum_s"] - tr["root_s"]) > 1e-9 * tr["root_s"]:
                res["fails"].append(
                    f"{tag}: span self times sum to {tr['self_sum_s']} s, "
                    f"cli.main took {tr['root_s']} s")
            res["traces"].append(tr)
        else:
            for name, peaks in rec["peaks"].items():
                res["peaks"].setdefault(name, []).extend(peaks)
        shutil.rmtree(d)
    if mode == "trace" and res["traces"]:
        res["trace"] = merge_traces(res["traces"])
        missing = sorted(s for s in EXPECTED_SPANS[workload]
                         if s not in res["trace"]["spans"])
        if missing:
            res["fails"].append(f"spans never fired: {missing}")
    del res["traces"]
    return res


# ---- metrics --------------------------------------------------------------

def phase_medians(plain):
    """Medians over untraced attempts (the correct ones, if any)."""
    good = [a for a in plain if not a["fails"]] or plain
    values = {
        "wall_s": [a["wall_s"] for a in good],
        "setup_s": [a["setup_s"] for a in good],
        "steps_per_s": [a["units"] / a["solve_s"] if a["solve_s"] else 0.0
                        for a in good],
        "output_s": [a["output_s"] for a in good],
        "peak_rss_mb": [a["peak_rss_mb"] for a in good],
    }
    return {name: statistics.median(v) for name, v in values.items()}


def end_to_end_metrics(plain):
    med = phase_medians(plain)
    return {name: {"value": med[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def per_layer_metrics(traced, plain, alloc):
    """Per-layer values: counts and seconds from the traced attempt with
    the median cli.main time (so its self times add up to that time),
    per-call microseconds pooled over all traced attempts."""
    ranked = sorted((a["trace"] for a in traced if "trace" in a),
                    key=lambda t: t["root_s"])
    if not ranked:
        return {name: {"value": 0.0, "unit": unit}
                for name, unit, _ in per_layer_spec()}
    med = ranked[len(ranked) // 2]
    spans = med["spans"]
    values = {}
    for span, stats in SPAN_STATS.items():
        agg = spans.get(span, {"calls": 0, "self_s": 0.0, "s": 0.0})
        durs = sorted(d for t in ranked
                      for d in t["spans"].get(span, {"durs": []})["durs"])
        for stat in stats:
            if stat == "us_per_call":
                v = statistics.median(durs) * 1e6 if durs else 0.0
            elif stat == "us_p99":
                v = (statistics.quantiles(durs, n=100)[98] * 1e6
                     if len(durs) > 1 else sum(durs) * 1e6)
            else:
                v = agg[stat]
            values[f"{span}.{stat}"] = v
    counters = med["counters"]
    hbot_calls = spans.get("operators.apply_Hbot", {"calls": 0})["calls"]
    values["operators.apply_Hbot.zero_input_ratio"] = (
        counters.get("operators.apply_Hbot.zero_inputs", 0) / hbot_calls
        if hbot_calls else 0.0)
    values["diagnostics.write_csv.bytes"] = counters.get(
        "diagnostics.write_csv.bytes", 0)
    values["stability.sigma_matvecs"] = counters.get(
        "stability.sigma_matvecs", 0)
    peaks = {}
    for a in alloc:
        for name, vals in a["peaks"].items():
            peaks.setdefault(name, []).extend(vals)
    for span in ALLOC_SPANS:
        vals = peaks.get(span)
        values[f"{span}.peak_alloc_bytes"] = (
            statistics.median(vals) if vals else 0)
    values["cli.self_s"] = spans["cli.main"]["self_s"]
    values["cli.output_s"] = phase_medians(plain)["output_s"]
    values["trace.cli_main_s"] = med["root_s"]
    plain_main = [a["main_s"] for a in plain if a["main_s"]]
    values["trace.overhead_ratio"] = (
        statistics.median(t["root_s"] for t in ranked)
        / statistics.median(plain_main) if plain_main else 0.0)
    values["trace.driver_coverage"] = (
        1.0 - med["driver_self_s"] / med["driver_s"]
        if med["driver_s"] else 0.0)
    values["trace.output_coverage"] = (
        med["output_covered_s"] / med["output_s"] if med["output_s"]
        else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


# ---- environment ----------------------------------------------------------

def environment(configs):
    def command_output(args):
        try:
            return subprocess.run(args, capture_output=True, text=True,
                                  timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    llc = command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    commit = (command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
              if (ROOT / ".git").exists() else None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_caps": BLAS_CAPS,
        "git_commit": commit,
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "largest_node_vector_bytes": {
            name: 8 * largest_node_count(cfg)
            for name, cfg in configs.items()},
    }


# ---- driver ---------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, size="full"):
    """Attempts for about `seconds`; returns (result, record)."""
    configs = scenario_configs(seed, size)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    plain, traced, alloc = [], [], []
    start = time.perf_counter()
    try:
        if trace and workload != "cfl":
            alloc.append(attempt(workload, "alloc", configs, workdir))
        # Stop before an attempt (or traced pair) that would, going by the
        # last one, end after `seconds`; always make at least one.
        while True:
            t0 = time.perf_counter()
            plain.append(attempt(workload, "plain", configs, workdir))
            if trace:
                traced.append(attempt(workload, "trace", configs, workdir))
            now = time.perf_counter()
            if now - start + (now - t0) > min(seconds, RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempts = plain + traced + alloc
    reference = plain[0]["digests"]
    for a in attempts:
        if a["digests"] != reference and not a["fails"]:
            a["fails"].append("output digests differ from the first "
                              "attempt of this seed")
    failed = sum(1 for a in attempts if a["fails"])
    metrics = (per_layer_metrics(traced, plain, alloc) if trace
               else end_to_end_metrics(plain))
    result = {"correct": failed == 0, "attempted": len(attempts),
              "failed": failed, "metrics": metrics}
    env = environment(configs)
    env.update(plain[0].get("env", {}))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "environment": env,
        "configs": {s: configs[s] for _, s, _ in WORKLOADS[workload]},
        "digests": reference,
        "fail_ratio": failed / len(attempts),
        "failures": [f for a in attempts for f in a["fails"]],
        "attempts": [{k: a[k] for k in ("mode", "wall_s", "setup_s",
                                         "solve_s", "output_s", "units",
                                         "main_s", "peak_rss_mb")}
                     for a in attempts],
    }
    return result, record


def report_all(seed, seconds):
    """Every workload untraced and traced, as one table; True if correct."""
    ok = True
    layer_names = [name for name, _, _ in per_layer_spec()]
    tables = {}
    for workload in WORKLOADS:
        e2e, rec = run_workload(workload, seed, seconds, trace=False)
        layer, rec_t = run_workload(workload, seed, seconds, trace=True)
        ok = ok and e2e["correct"] and layer["correct"]
        attempted = e2e["attempted"] + layer["attempted"]
        failed = e2e["failed"] + layer["failed"]
        tables[workload] = (e2e["metrics"], layer["metrics"],
                            failed / attempted)
        for f in rec["failures"] + rec_t["failures"]:
            print(f"FAIL {workload}: {f}")
    names = list(WORKLOADS)
    print(f"{'metric':<46} {'unit':>6} "
          + " ".join(f"{w:>12}" for w in names))
    for name, unit, _ in END_TO_END:
        print(f"{name:<46} {unit:>6} " + " ".join(
            f"{tables[w][0][name]['value']:>12.5g}" for w in names))
    print(f"{'output_s':<46} {'s':>6} " + " ".join(
        f"{tables[w][1]['cli.output_s']['value']:>12.5g}" for w in names))
    print(f"{'fail_ratio':<46} {'ratio':>6} " + " ".join(
        f"{tables[w][2]:>12.5g}" for w in names))
    for name in layer_names:
        unit = tables[names[0]][1][name]["unit"]
        print(f"{name:<46} {unit:>6} " + " ".join(
            f"{tables[w][1][name]['value']:>12.5g}" for w in names))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fdtdq" / "cli.py").is_file():
        print(f"bench: no fdtdq source tree at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    if args.workload == "all":
        return 0 if report_all(args.seed, args.seconds) else 1
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for f in record["failures"]:
        print(f"FAIL: {f}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
