"""The functions that bench/child.py wraps by name must exist, and the
CLI must reach them through the attributes that child.py replaces.

The benchmark patches package attributes by their dotted paths, so a
renamed or removed target, or a caller that holds its own reference,
would otherwise show only in the slow bench smoke test.  The names are
read from the file's source: it is neither imported nor edited here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from fdtdq import cli, diagnostics
from fdtdq import scenarios as sc
from fdtdq.operators import DiscreteOperators
from fdtdq.stepper import BoundaryCondition
from test_cli import TINY, write_config

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"
LISTS = ("TRACE_TARGETS", "ALLOC_TARGETS", "DRIVERS")


def _patch_targets():
    """(module, attribute path) of every target child.py names."""
    tree = ast.parse(CHILD.read_text())
    lists = {}
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for name in node.targets:
                if isinstance(name, ast.Name) and name.id in LISTS:
                    lists[name.id] = ast.literal_eval(node.value)
        # patch("fdtdq.module", "Class.attr", ...) calls outside the lists
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "patch"
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            targets.append((node.args[0].value, node.args[1].value))
    assert set(lists) == set(LISTS)
    for _, module, attr in lists["TRACE_TARGETS"] + lists["ALLOC_TARGETS"]:
        targets.append((module, attr))
    targets += [("fdtdq.cli", name) for name in lists["DRIVERS"]]
    return targets


def _resolve(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_bench_patch_target_resolves():
    targets = _patch_targets()
    assert len(targets) > 30
    missing = [f"{module}:{attr}" for module, attr in targets
               if not callable(_resolve(module, attr))]
    assert not missing


# The functions bench/child.py replaces on their modules to time the
# drivers, the preparation and the analytic references.
DRIVERS = ("run", "run_coupled", "check_theorems")
PREPARE = ("prepare_infinite_well", "prepare_barrier",
           "build_tunneling_graph")
ANALYTIC = ("analytic_region_probability", "analytic_region_energy",
            "analytic_total_energy")
# The per-step functions it replaces on their module or class: the face
# fluxes that record calls, and the two boundary calls of each half step.
FLUXES = ("probability_current_by_face", "supplied_power")
HALF_STEP = ((DiscreteOperators, "apply_Hbot"),
             (BoundaryCondition, "hanging_at"))


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_cli_calls_the_bench_targets_through_their_modules(
        tmp_path, monkeypatch, scenario):
    # A stored reference (say, a table built at import) would keep the
    # unwrapped function, and only the slow bench smoke test would see it.
    calls = []
    per_step = dict.fromkeys(FLUXES + tuple(n for _, n in HALF_STEP), 0)

    def counting(owner, name, log=calls.append):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            log(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def tally(name):
        per_step[name] += 1

    for name in DRIVERS:
        counting(cli, name)
    for name in PREPARE + ANALYTIC:
        counting(sc, name)
    for name in FLUXES:
        counting(diagnostics, name, tally)
    for owner, name in HALF_STEP:
        counting(owner, name, tally)
    config = write_config(tmp_path, TINY[scenario])

    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    prepare = {"infinite_well": "prepare_infinite_well",
               "barrier": "prepare_barrier",
               "tunneling": "build_tunneling_graph"}[scenario]
    driver = "run_coupled" if scenario == "tunneling" else "run"
    references = {"infinite_well": [],
                  "barrier": ["analytic_region_probability",
                              "analytic_region_energy"],
                  "tunneling": ["analytic_total_energy"]}[scenario]
    assert calls == [prepare, driver] + references
    # record: I_P every step, s on steps 1..n_t-2; two half steps a step.
    regions = 3 if scenario == "tunneling" else 1
    n_t = TINY[scenario]["n_t"]
    assert per_step == {
        "probability_current_by_face": regions * n_t,
        "supplied_power": regions * (n_t - 2),
        "apply_Hbot": 2 * regions * n_t,
        "hanging_at": 2 * regions * n_t}

    calls.clear()
    assert cli.main(["cfl", "--config", config]) == cli.EXIT_OK
    assert calls == ["check_theorems"] * regions
