"""Every function that bench/child.py wraps by name must exist.

The benchmark patches package attributes by their dotted paths, so a
renamed or removed target would otherwise show only in the slow bench
smoke test.  The names are read from the file's source: it is neither
imported nor edited here.
"""

import ast
import importlib
from pathlib import Path

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
