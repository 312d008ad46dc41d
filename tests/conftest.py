"""Shared fixtures: the expensive scenario runs are executed once per
session and reused by the module and acceptance tests."""

from dataclasses import replace

import numpy as np
import pytest

from fdtdq import scenarios as sc
from fdtdq.coupling import interface_current_mismatch, run_coupled
from fdtdq.stepper import DivergenceError, run


def run_prepared(prepared, n_t):
    """run on a prepared one-region graph; returns the series."""
    graph, dt = prepared
    (r,) = graph.regions.values()
    return run(r.state, r.ops, r.boundary, dt, n_t)[1]


@pytest.fixture(scope="session")
def well_runs():
    """Full-horizon closed-box runs at 10, 20 and 30 cells per side."""
    out = {}
    for n in (10, 20, 30):
        spec = sc.InfiniteWellSpec(n_cells=n)
        series = run_prepared(sc.prepare_infinite_well(spec),
                              spec.default_n_t())
        series.compute_residuals(norm_P=1.0, norm_H=spec.ground_energy)
        out[n] = {"spec": spec, "series": series}
    return out


@pytest.fixture(scope="session")
def reflection_run():
    """Full wavepacket run with analytic references on a time subgrid."""
    spec = sc.GaussianBarrierSpec()
    series = run_prepared(sc.prepare_barrier(spec), spec.default_n_t())
    stride = 20
    idx = np.arange(0, series.steps_completed + 1, stride)
    times = idx * series.dt
    # Both references on the same times: the second call is then the
    # scenario's memo of the first, and ref_h keeps the interior rows.
    ref_p = sc.analytic_region_probability(spec, times)
    interior = (idx >= 1) & (idx <= series.n_t - 1)
    idx_h = idx[interior]
    ref_h = sc.analytic_region_energy(spec, times)[interior]
    series.compute_residuals(norm_P=float(ref_p.max()),
                             norm_H=float(ref_h.max()))
    return {"spec": spec, "series": series,
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
    """Deliberately unstable tunneling run (dt 1.005 times the barrier
    region's closed-form limit, the smallest of the three) up to the
    divergence guard, with the largest |psi| after every step."""
    spec = replace(sc.TunnelingSpec(), dt_factor=1.005)
    graph, dt = sc.build_tunneling_graph(spec)
    norms = []

    def track(windows):
        norms.append(max(max(np.max(np.abs(w.psiR_np1)),
                             np.max(np.abs(w.psiI_np)))
                         for w in windows.values()))

    norm0 = max(max(np.max(np.abs(r.state.psiR)),
                    np.max(np.abs(r.state.psiI)))
                for r in graph.regions.values())
    with pytest.raises(DivergenceError) as exc_info:
        run_coupled(graph, dt, 100_000, observers=(track,))
    return {"series": exc_info.value.series,
            "diverged_at": exc_info.value.step,
            "norms": np.array(norms), "initial_norm": norm0}
