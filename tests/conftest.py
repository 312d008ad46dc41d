"""Shared fixtures: the expensive scenario runs are executed once per
session and reused by the module and acceptance tests."""

from dataclasses import replace

import numpy as np
import pytest

from fdtdq import scenarios as sc
from fdtdq.coupling import (instability_demo, interface_current_mismatch,
                            run_coupled)
from fdtdq.stepper import run


@pytest.fixture(scope="session")
def well_runs():
    """Full-horizon closed-box runs at 10, 20 and 30 cells per side."""
    out = {}
    for n in (10, 20, 30):
        spec = sc.InfiniteWellSpec(n_cells=n)
        prep = sc.prepare_infinite_well(spec)
        _, series = run(prep.state, prep.ops, prep.boundary, prep.dt,
                        prep.n_t)
        series.compute_residuals(norm_P=1.0, norm_H=spec.ground_energy)
        out[n] = {"spec": spec, "prep": prep, "series": series}
    return out


@pytest.fixture(scope="session")
def reflection_run():
    """Full wavepacket run with analytic references on a time subgrid."""
    spec = sc.GaussianBarrierSpec()
    prep = sc.prepare_barrier(spec)
    _, series = run(prep.state, prep.ops, prep.boundary, prep.dt,
                    prep.n_t)
    stride = 20
    idx = np.arange(0, series.steps_completed + 1, stride)
    times = idx * series.dt
    ref_p = sc.analytic_region_probability(spec, times)
    idx_h = idx[(idx >= 1) & (idx <= series.n_t - 1)]
    ref_h = sc.analytic_region_energy(spec, idx_h * series.dt)
    series.compute_residuals(norm_P=float(ref_p.max()),
                             norm_H=float(ref_h.max()))
    return {"spec": spec, "prep": prep, "series": series,
            "idx": idx, "ref_p": ref_p, "idx_h": idx_h, "ref_h": ref_h}


@pytest.fixture(scope="session")
def tunneling_run():
    """1 ps three-region coupled run with per-step interface-current
    antisymmetry tracking."""
    spec = sc.TunnelingSpec()
    graph, dt = sc.build_tunneling_graph(spec)
    n_t = spec.default_n_t()
    worst = {"mismatch": 0.0, "scale": 0.0}

    def track(windows):
        m, s = interface_current_mismatch(graph, windows)
        worst["mismatch"] = max(worst["mismatch"], m)
        worst["scale"] = max(worst["scale"], s)

    series = run_coupled(graph, dt, n_t, observers=(track,))
    norm_h = sc.analytic_total_energy(spec)
    for s in series.values():
        s.compute_residuals(norm_P=1.0, norm_H=norm_h)
    return {"spec": spec, "graph": graph, "dt": dt, "n_t": n_t,
            "series": series, "worst": worst, "norm_h": norm_h}


@pytest.fixture(scope="session")
def unstable_run():
    """Deliberately unstable tunneling run (dt above the barrier limit)."""
    spec = replace(sc.TunnelingSpec(), dt_factor=1.005)
    graph, _ = sc.build_tunneling_graph(spec)
    return instability_demo(graph, 1.005)
