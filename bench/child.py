"""One benchmark attempt: a single `fdtdq` CLI command in a fresh process.

    python3 bench/child.py MODE TIMINGS_JSON -- <fdtdq arguments>

MODE selects what is recorded around `fdtdq.cli.main`:

  plain  one timestamp at entry to and exit from the solver driver as
         `fdtdq.cli` calls it (`run`, `run_coupled`, `check_theorems`);
         nothing else is wrapped, so these runs give the end-to-end times.
  trace  span wrappers around the public functions of every layer, with
         self time from a span stack and a few exact counters.
  alloc  tracemalloc transient peak per call of the step and record
         functions.  tracemalloc slows every allocation, so this pass is
         kept apart from the timed ones.

The timings file is written after `cli.main` returns; the process exits
with the code `cli.main` returned.  All times are `time.perf_counter`,
which on Linux is CLOCK_MONOTONIC and so comparable with the parent's
launch timestamp.
"""

import functools
import json
import os
import sys
from time import perf_counter

# Functions through which `fdtdq.cli` enters the solver; their first entry
# ends set-up and their last exit starts the output phase.
DRIVERS = ("run", "run_coupled", "check_theorems")
DRIVER_SPANS = ("stepper.run", "coupling.run_coupled",
                "stability.check_theorems")

# (span name, module, attribute) for every function the traced run wraps.
# Several functions may share one span name.
TRACE_TARGETS = (
    ("operators.init", "fdtdq.operators", "DiscreteOperators.__init__"),
    ("operators.apply_H", "fdtdq.operators", "DiscreteOperators.apply_H"),
    ("operators.apply_Hbot", "fdtdq.operators",
     "DiscreteOperators.apply_Hbot"),
    ("operators.assemble", "fdtdq.operators", "DiscreteOperators.assemble_H"),
    ("operators.assemble", "fdtdq.operators",
     "DiscreteOperators.assemble_Hbot"),
    ("operators.assemble", "fdtdq.operators", "DiscreteOperators.assemble_P"),
    ("operators.assemble", "fdtdq.operators",
     "DiscreteOperators.assemble_sigma_dense"),
    ("stepper.run", "fdtdq.stepper", "run"),
    ("stepper.step", "fdtdq.stepper", "step"),
    ("stepper.hanging_at", "fdtdq.stepper", "BoundaryCondition.hanging_at"),
    ("coupling.run_coupled", "fdtdq.coupling", "run_coupled"),
    ("coupling.coupled_step", "fdtdq.coupling", "coupled_step"),
    ("coupling.enforce_time_step", "fdtdq.coupling", "enforce_time_step"),
    ("diagnostics.record", "fdtdq.diagnostics", "SeriesBuilder.record"),
    ("diagnostics.supplied_power", "fdtdq.diagnostics", "supplied_power"),
    ("diagnostics.probability_current_by_face", "fdtdq.diagnostics",
     "probability_current_by_face"),
    ("diagnostics.compute_residuals", "fdtdq.diagnostics",
     "DiagnosticsSeries.compute_residuals"),
    ("diagnostics.write_csv", "fdtdq.diagnostics",
     "DiagnosticsSeries.write_csv"),
    ("scenarios.prepare", "fdtdq.scenarios", "prepare_infinite_well"),
    ("scenarios.prepare", "fdtdq.scenarios", "prepare_barrier"),
    ("scenarios.prepare", "fdtdq.scenarios", "build_tunneling_graph"),
    ("scenarios.barrier_source", "fdtdq.scenarios", "barrier_gradient_x"),
    ("scenarios.analytic_refs", "fdtdq.scenarios",
     "analytic_region_probability"),
    ("scenarios.analytic_refs", "fdtdq.scenarios", "analytic_region_energy"),
    ("scenarios.analytic_refs", "fdtdq.scenarios", "analytic_total_energy"),
    ("stability.check_theorems", "fdtdq.stability", "check_theorems"),
    ("stability.spectral_radius", "fdtdq.stability", "spectral_radius"),
    ("stability.per_cell_cfl_gen", "fdtdq.stability", "per_cell_cfl_gen"),
    ("stability.lambda_min_P", "fdtdq.stability", "lambda_min_P"),
    ("stability.kappa_P", "fdtdq.stability", "kappa_P"),
)

ALLOC_TARGETS = (
    ("stepper.step", "fdtdq.stepper", "step"),
    ("coupling.coupled_step", "fdtdq.coupling", "coupled_step"),
    ("diagnostics.record", "fdtdq.diagnostics", "SeriesBuilder.record"),
)


def patch(module_name, attr, make_wrapper):
    """Replace module_name.attr by make_wrapper(original).

    A module-level function is also replaced under every name another
    fdtdq module bound with `from ... import`, so that no caller keeps the
    unwrapped function.  Methods are replaced on their class, which every
    importer shares.
    """
    owner = sys.modules[module_name]
    *cls, name = attr.split(".")
    for part in cls:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    wrapped = functools.wraps(original)(make_wrapper(original))
    setattr(owner, name, wrapped)
    if not cls:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fdtdq" and not mod_name.startswith("fdtdq."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class Tracer:
    """Nested spans kept in memory; self time from a stack of open spans."""

    def __init__(self):
        self.spans = []      # [name, start, end, self seconds, parent index]
        self.stack = []      # indices of open spans
        self.covered = []    # per open span: time covered by its children
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrapper(self, name, pre=None, post=None):
        spans, stack, covered = self.spans, self.stack, self.covered

        def make(fn):
            def traced(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                rec = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                covered.append(0.0)
                rec[1] = t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    inner = covered.pop()
                    if covered:
                        covered[-1] += t1 - t0
                    rec[2] = t1
                    rec[3] = (t1 - t0) - inner
                    if post is not None:
                        post(args, kwargs)
            return traced
        return make

    def summary(self):
        """Per span name: calls, durations, self and inclusive seconds.

        The inclusive time `s` counts a call only when no enclosing span
        has the same name, so nested calls are not counted twice.
        """
        spans = self.spans
        out = {}
        for name, t0, t1, self_s, parent in spans:
            agg = out.setdefault(name, {"calls": 0, "durs": [],
                                        "self_s": 0.0, "s": 0.0})
            agg["calls"] += 1
            agg["durs"].append(t1 - t0)
            agg["self_s"] += self_s
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][4]
            if p < 0:
                agg["s"] += t1 - t0
        root = spans[0]
        drivers = [s for s in spans if s[4] == 0 and s[0] in DRIVER_SPANS]
        driver_end = max((s[2] for s in drivers), default=root[2])
        after = sum(s[2] - s[1] for s in spans
                    if s[4] == 0 and s[1] >= driver_end)
        return {
            "spans": out,
            "counters": self.counters,
            "root_s": root[2] - root[1],
            "self_sum_s": sum(s[3] for s in spans),
            "driver_s": sum(s[2] - s[1] for s in drivers),
            "driver_self_s": sum(s[3] for s in drivers),
            "output_s": root[2] - driver_end,
            "output_covered_s": after,
        }


def install_tracer(tracer):
    def zero_input(args, kwargs):
        hanging = args[1] if len(args) > 1 else kwargs["b"]
        if not hanging.any():
            tracer.count("operators.apply_Hbot.zero_inputs")

    def csv_bytes(args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("diagnostics.write_csv.bytes", os.path.getsize(path))

    hooks = {"operators.apply_Hbot": {"pre": zero_input},
             "diagnostics.write_csv": {"post": csv_bytes}}
    for span, module_name, attr in TRACE_TARGETS:
        patch(module_name, attr,
              tracer.wrapper(span, **hooks.get(span, {})))

    def count_matvecs(fn):
        def counted(*args, **kwargs):
            tracer.count("stability.sigma_matvecs")
            return fn(*args, **kwargs)
        return counted

    patch("fdtdq.operators", "DiscreteOperators.apply_sigma", count_matvecs)


def install_alloc(peaks):
    import tracemalloc

    def make(name):
        calls = peaks.setdefault(name, [])

        def wrap(fn):
            def measured(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls.append(tracemalloc.get_traced_memory()[1] - base)
            return measured
        return wrap

    for span, module_name, attr in ALLOC_TARGETS:
        patch(module_name, attr, make(span))
    tracemalloc.start()


def install_driver_stamps(windows):
    def stamp(fn):
        def stamped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                windows.append((t0, perf_counter()))
        return stamped

    cli = sys.modules["fdtdq.cli"]
    for name in DRIVERS:
        setattr(cli, name, functools.wraps(getattr(cli, name))(
            stamp(getattr(cli, name))))


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    mode, timings_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "alloc"):
        sys.exit("usage: child.py plain|trace|alloc TIMINGS_JSON -- ARGS")
    from fdtdq import cli
    src = os.environ["FDTDQ_BENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"fdtdq imported from {cli.__file__}, not from {src}")

    record = {"mode": mode}
    main_fn = cli.main
    if mode == "plain":
        windows = []
        install_driver_stamps(windows)
        record["driver"] = windows
    elif mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
        main_fn = tracer.wrapper("cli.main")(cli.main)
    else:
        peaks = {}
        install_alloc(peaks)
        record["peaks"] = peaks

    t0 = perf_counter()
    code = main_fn(argv)
    t1 = perf_counter()
    record["main"] = (t0, t1)
    record["code"] = code
    if mode == "trace":
        record["trace"] = tracer.summary()
    record["env"] = environment()
    with open(timings_path, "w") as fh:
        json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
