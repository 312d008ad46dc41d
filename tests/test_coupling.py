import numpy as np
import pytest

from fdtdq.constants import ELECTRON, EV, PhysicalConstants
from fdtdq.coupling import (Interface, Region, RegionGraph, UnstableTimeStep,
                            coupled_step, cross_region_conservation,
                            enforce_time_step, interface_current_mismatch,
                            run_coupled)
from fdtdq.grid import FACES, RegionGrid, PotentialField, face_node_slices
from fdtdq.operators import DiscreteOperators
from fdtdq.stability import cfl_limit
from fdtdq.stepper import (BoundaryCondition, DIRICHLET0, INTERFACE,
                           DivergenceError, StaggeredState, step)

NX_A, NX_B, NY, NZ = 3, 2, 3, 3
DX = 1e-9


def interior_random(grid, bc, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.n_nodes)
    psi.reshape(grid.node_shape)[bc.pinned_mask(grid)] = 0.0
    return psi


def split_setup(seed=0, u_scale=0.1 * EV):
    """Monolithic Dirichlet box plus the equivalent two-region split."""
    gm = RegionGrid(NX_A + NX_B, NY, NZ, DX, DX, DX)
    rng = np.random.default_rng(seed)
    um = u_scale * rng.uniform(-1.0, 1.0, gm.n_nodes)
    bcm = BoundaryCondition.all_dirichlet()
    psi_r = interior_random(gm, bcm, seed + 1)
    psi_i = interior_random(gm, bcm, seed + 2)
    ops_m = DiscreteOperators(gm, PotentialField(gm, um), ELECTRON)
    state_m = StaggeredState(psiR=psi_r.copy(), psiI=psi_i.copy())

    ga = RegionGrid(NX_A, NY, NZ, DX, DX, DX)
    gb = RegionGrid(NX_B, NY, NZ, DX, DX, DX, origin=(NX_A * DX, 0.0, 0.0))
    u3 = um.reshape(gm.node_shape)
    ua = np.ascontiguousarray(u3[:, :, :NX_A + 1]).reshape(-1)
    ub = np.ascontiguousarray(u3[:, :, NX_A:]).reshape(-1)
    bca = BoundaryCondition({**{f: DIRICHLET0 for f in FACES},
                             "E": INTERFACE})
    bcb = BoundaryCondition({**{f: DIRICHLET0 for f in FACES},
                             "W": INTERFACE})
    r3 = psi_r.reshape(gm.node_shape)
    i3 = psi_i.reshape(gm.node_shape)
    ra = Region.build("A", ga, PotentialField(ga, ua), ELECTRON, bca,
                      r3[:, :, :NX_A + 1], i3[:, :, :NX_A + 1])
    rb = Region.build("B", gb, PotentialField(gb, ub), ELECTRON, bcb,
                      r3[:, :, NX_A:], i3[:, :, NX_A:])
    graph = RegionGraph([ra, rb], [Interface("A", "E", "B", "W")])
    return ops_m, bcm, state_m, graph


def stable_dt(graph):
    return 0.5 * min(
        cfl_limit(r.grid, r.ops.potential, r.ops.constants)
        for r in graph.regions.values())


def test_split_region_matches_monolithic():
    # A box split into two regions with an interface must reproduce the
    # monolithic trajectory: the merged interface update is algebraically
    # identical to the full-stencil update.
    ops_m, bcm, state_m, graph = split_setup(seed=0)
    dt = stable_dt(graph)
    for _ in range(50):
        state_m, _ = step(state_m, ops_m, bcm, dt)
        coupled_step(graph, dt)
    r3 = state_m.psiR.reshape(ops_m.grid.node_shape)
    i3 = state_m.psiI.reshape(ops_m.grid.node_shape)
    scale = np.max(np.abs(state_m.psiR))
    ra = graph.regions["A"]
    rb = graph.regions["B"]
    assert np.max(np.abs(ra.state.psiR.reshape(ra.grid.node_shape)
                         - r3[:, :, :NX_A + 1])) <= 1e-13 * scale
    assert np.max(np.abs(rb.state.psiR.reshape(rb.grid.node_shape)
                         - r3[:, :, NX_A:])) <= 1e-13 * scale
    assert np.max(np.abs(ra.state.psiI.reshape(ra.grid.node_shape)
                         - i3[:, :, :NX_A + 1])) <= 1e-13 * scale
    assert np.max(np.abs(rb.state.psiI.reshape(rb.grid.node_shape)
                         - i3[:, :, NX_A:])) <= 1e-13 * scale


def test_zero_state_stays_zero_coupled():
    _, _, _, graph = split_setup(seed=3)
    for r in graph.regions.values():
        r.state.psiR[:] = 0.0
        r.state.psiI[:] = 0.0
    series = run_coupled(graph, stable_dt(graph), 5)
    for s in series.values():
        assert np.all(s.P == 0.0)


def test_dirichlet_box_balance_holds_from_any_initial_state_coupled():
    # The coupled driver zeroes pinned samples after every half step; the
    # initial ones must be projected too, before P^0, for the balance.
    grid = RegionGrid(4, 3, 3, DX, DX, DX)
    rng = np.random.default_rng(11)
    box = Region.build("box", grid, PotentialField.uniform(grid), ELECTRON,
                       BoundaryCondition.all_dirichlet(),
                       rng.standard_normal(grid.n_nodes),
                       rng.standard_normal(grid.n_nodes))
    graph = RegionGraph([box], [])
    series = run_coupled(graph, stable_dt(graph), 20)["box"]
    res_p, _ = series.compute_residuals()
    assert np.nanmax(np.abs(res_p)) <= 1e-13


def test_interface_hanging_recovery_agrees_between_sides():
    # Interior interface nodes: both regions recover the same derivative
    # samples from their own update equations.
    _, _, _, graph = split_setup(seed=5)
    dt = stable_dt(graph)
    ga = graph.regions["A"].grid
    gb = graph.regions["B"].grid
    oa, na = ga.hanging_offsets()["E"], ga.face_size("E")
    ob, nb = gb.hanging_offsets()["W"], gb.face_size("W")
    shape = ga.face_shape("E")
    interior = np.zeros(shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    for _ in range(10):
        w = coupled_step(graph, dt)
        for attr in ("gradR_n", "gradI_np"):
            a = getattr(w["A"], attr)[oa:oa + na].reshape(shape)
            b = getattr(w["B"], attr)[ob:ob + nb].reshape(shape)
            scale = max(np.max(np.abs(a[interior])), 1e-300)
            assert np.max(np.abs((a - b)[interior])) <= 1e-12 * scale


def test_interface_current_antisymmetry_per_step():
    _, _, _, graph = split_setup(seed=7)
    dt = stable_dt(graph)
    for _ in range(20):
        windows = coupled_step(graph, dt)
        mismatch, scale = interface_current_mismatch(graph, windows)
        assert mismatch <= 1e-11 * max(scale, 1e-300)


def test_cross_region_conservation_closed_system():
    _, _, _, graph = split_setup(seed=9)
    dt = stable_dt(graph)
    series = run_coupled(graph, dt, 200)
    totals = cross_region_conservation(series)
    p0 = totals["total_P"][0]
    assert totals["max_P_drift"] <= 1e-11 * abs(p0)
    assert totals["max_H_drift_normalized"] <= 1e-10


def test_unstable_time_step_rejected_and_override():
    _, _, _, graph = split_setup(seed=11)
    dt_big = 1.5 * min(
        cfl_limit(r.grid, r.ops.potential, r.ops.constants)
        for r in graph.regions.values())
    with pytest.raises(UnstableTimeStep):
        enforce_time_step(graph, dt_big)
    # run_coupled leaves the check to its caller, so an unstable dt runs
    # (and is caught by the guard once it diverges).
    series = run_coupled(graph, dt_big, 3)
    assert set(series) == {"A", "B"}


def test_graph_validation_errors():
    _, _, _, graph = split_setup(seed=15)
    ra = graph.regions["A"]
    rb = graph.regions["B"]
    itf = Interface("A", "E", "B", "W")
    with pytest.raises(ValueError):
        Interface("A", "E", "B", "N")   # faces do not oppose
    with pytest.raises(ValueError):
        RegionGraph([ra, ra], [itf])    # duplicate names
    with pytest.raises(ValueError):
        RegionGraph([ra, rb], [])       # unmatched interface faces
    with pytest.raises(ValueError):
        RegionGraph([ra, rb], [itf, itf])  # face claimed twice
    with pytest.raises(ValueError):
        RegionGraph([ra, rb], [Interface("A", "E", "C", "W")])
    # Face shape mismatch.
    g_small = RegionGrid(NX_B, NY - 1, NZ, DX, DX, DX)
    bcb = rb.boundary
    rb_small = Region.build(
        "B", g_small, PotentialField.uniform(g_small), ELECTRON, bcb,
        np.zeros(g_small.n_nodes), np.zeros(g_small.n_nodes))
    with pytest.raises(ValueError):
        RegionGraph([ra, rb_small], [itf])
    # Transverse spacing mismatch.
    g_aniso = RegionGrid(NX_B, NY, NZ, DX, 2 * DX, DX)
    rb_aniso = Region.build(
        "B", g_aniso, PotentialField.uniform(g_aniso), ELECTRON, bcb,
        np.zeros(g_aniso.n_nodes), np.zeros(g_aniso.n_nodes))
    with pytest.raises(ValueError):
        RegionGraph([ra, rb_aniso], [itf])
    # hbar disagreement.
    other = PhysicalConstants(mass=ELECTRON.mass, hbar=1e-34)
    rb_hbar = Region.build(
        "B", rb.grid, rb.ops.potential, other, bcb,
        rb.state.psiR, rb.state.psiI)
    with pytest.raises(ValueError):
        RegionGraph([ra, rb_hbar], [itf])
    # Disagreeing initial interface samples.
    rb_bad = Region.build(
        "B", rb.grid, rb.ops.potential, ELECTRON, bcb,
        rb.state.psiR + 1.0, rb.state.psiI)
    with pytest.raises(ValueError):
        RegionGraph([ra, rb_bad], [itf])


def test_coupled_step_rejects_bad_dt_and_step_counts():
    _, _, _, graph = split_setup(seed=17)
    with pytest.raises(ValueError):
        coupled_step(graph, 0.0)
    with pytest.raises(ValueError):
        run_coupled(graph, 1e-18, -1)


def test_divergence_error_carries_partial_series():
    _, _, _, graph = split_setup(seed=19)
    dt_big = 1.5 * min(
        cfl_limit(r.grid, r.ops.potential, r.ops.constants)
        for r in graph.regions.values())
    norm0 = max(max(np.max(np.abs(r.state.psiR)),
                    np.max(np.abs(r.state.psiI)))
                for r in graph.regions.values())
    with pytest.raises(DivergenceError) as exc_info:
        run_coupled(graph, dt_big, 20_000, guard_factor=1e3)
    exc = exc_info.value
    # The guard, not the finiteness check, stopped the run.
    assert np.isfinite(exc.norm) and exc.norm > 1e3 * norm0
    assert set(exc.series) == {"A", "B"}
    assert exc.series["A"].steps_completed == exc.step


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_second_vector_of_second_region_aborts_before_commit(
        monkeypatch, bad):
    # One non-finite sample, put into region B's psi_I^{n+1/2} after the
    # step has used it, is seen by leapfrog's check of the new vectors:
    # the run stops at that step and neither region takes the step.
    from fdtdq import stepper
    _, _, _, graph = split_setup(seed=23)
    half_step = stepper._half_step

    def spoiled(parts, interfaces, dt, t, real_half, acting, before):
        out = half_step(parts, interfaces, dt, t, real_half, acting, before)
        if real_half and parts["B"][2].n == 2:
            acting["B"][-1] = bad
        return out

    monkeypatch.setattr(stepper, "_half_step", spoiled)
    with pytest.raises(DivergenceError) as exc_info:
        run_coupled(graph, stable_dt(graph), 10)
    exc = exc_info.value
    assert exc.step == 3 and exc.norm == np.inf
    for name, r in graph.regions.items():
        assert r.state.n == 2
        assert np.all(np.isfinite(r.state.psiR))
        assert np.all(np.isfinite(r.state.psiI))
        assert exc.series[name].steps_completed == 2
