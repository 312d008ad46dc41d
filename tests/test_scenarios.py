import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtdq import scenarios as sc
from fdtdq.constants import EV, BOLTZMANN
from fdtdq.diagnostics import total_probability
from fdtdq.grid import FACES, face_node_slices
from fdtdq.operators import DiscreteOperators
from references import barrier_mode_sum, tunneling_mode_dfx


# ---------------------------------------------------------------------------
# Infinite well
# ---------------------------------------------------------------------------

def test_well_ground_energy_value():
    spec = sc.InfiniteWellSpec()
    assert spec.ground_energy / (1e-3 * EV) == pytest.approx(
        1.2534338738531192, rel=1e-12)
    # Scaling law: E_1 ~ 1/a^2, independent of the cell count.
    half = sc.InfiniteWellSpec(a=15e-9, n_cells=10)
    assert half.ground_energy == pytest.approx(4.0 * spec.ground_energy,
                                               rel=1e-13)


def test_well_horizon_is_fixed_in_physical_time():
    # Refining the grid shrinks dt but keeps the simulated duration, which
    # is pinned to 10^4 steps of the 30-cell discretization.
    s30 = sc.InfiniteWellSpec(n_cells=30)
    s10 = sc.InfiniteWellSpec(n_cells=10)
    assert s30.default_n_t() == 10_000
    assert s10.horizon() == pytest.approx(s30.horizon(), rel=1e-15)
    assert s10.default_n_t() == int(round(s10.horizon() / s10.time_step()))
    assert s10.time_step() > s30.time_step()


def test_well_sample_normalized_and_zero_on_walls():
    spec = sc.InfiniteWellSpec(n_cells=8)
    grid = spec.grid()
    dt = spec.time_step()
    psi_r, psi_i = sc.infinite_well_sample(spec, grid, dt)
    ops = DiscreteOperators(grid, spec.potential("well", grid),
                            spec.constants)
    assert total_probability(psi_r, psi_i, ops, dt) == pytest.approx(
        1.0, abs=1e-14)
    # Wall samples vanish up to the roundoff of sin(pi) at the far walls.
    scale = max(np.max(np.abs(psi_r)), np.max(np.abs(psi_i)))
    for face in ("W", "E", "S", "N", "B", "T"):
        sl = face_node_slices(grid, face)
        assert np.max(np.abs(psi_r.reshape(grid.node_shape)[sl])) \
            <= 1e-14 * scale
        assert np.max(np.abs(psi_i.reshape(grid.node_shape)[sl])) \
            <= 1e-14 * scale


def test_well_sample_phase_convention():
    # psi_R is sampled at t, psi_I a half step earlier; at t = 0 with phase
    # delta the center value goes as cos(delta) and -sin(delta - E dt/2hbar).
    spec = sc.InfiniteWellSpec(n_cells=8, phase=np.pi / 3.0)
    grid = spec.grid()
    dt = spec.time_step()
    psi_r, psi_i = sc.infinite_well_sample(spec, grid, dt, amplitude=1.0)
    mid = grid.n_nodes // 2
    c = spec.constants
    i, j, k = 4, 4, 4
    x, y, z = grid.node_coordinates()
    f = (np.sin(np.pi * x[i] / spec.a) * np.sin(np.pi * y[j] / spec.a)
         * np.sin(np.pi * z[k] / spec.a))
    idx = i + j * (grid.nx + 1) + k * (grid.nx + 1) * (grid.ny + 1)
    assert psi_r[idx] == pytest.approx(f * np.cos(spec.phase), rel=1e-13)
    theta = spec.ground_energy * (-0.5 * dt) / c.hbar + spec.phase
    assert psi_i[idx] == pytest.approx(-f * np.sin(theta), rel=1e-13)


def test_prepare_infinite_well():
    spec = sc.InfiniteWellSpec(n_cells=6)
    graph, dt = sc.prepare_infinite_well(spec)
    assert dt == spec.time_step()
    assert list(graph.regions) == ["well"] and graph.interfaces == []
    well = graph.regions["well"]
    assert well.boundary.kinds == {f: "dirichlet0" for f in FACES}
    psi_r, psi_i = sc.infinite_well_sample(spec, spec.grid(), dt)
    assert np.array_equal(well.state.psiR, psi_r)
    assert np.array_equal(well.state.psiI, psi_i)


# ---------------------------------------------------------------------------
# Wavepacket on a potential step
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def barrier_spec():
    return sc.GaussianBarrierSpec()


def test_step_mode_coefficients(barrier_spec):
    g = barrier_spec
    # Continuity of value and derivative at the step: 1 + R = T and
    # k (1 - R) = K T for every mode.
    assert np.max(np.abs(1.0 + g.R - g.T)) <= 1e-14
    assert np.max(np.abs(g.k * (1.0 - g.R) - g.K * g.T)) \
        <= 1e-14 * np.max(np.abs(g.k))
    # Dispersion: K^2 = k^2 - 2 m U0 / hbar^2.
    m, hbar = g.constants.mass, g.constants.hbar
    assert np.max(np.abs(g.K**2 - (g.k**2 - 2.0 * m * g.u0 / hbar**2))) \
        <= 1e-12 * np.max(np.abs(g.k**2))


def test_step_total_reflection_below_barrier(barrier_spec):
    g = barrier_spec
    below = g.constants.hbar * g.omega < g.u0
    assert np.any(below) and np.any(~below)
    assert np.max(np.abs(np.abs(g.R[below]) - 1.0)) <= 1e-13
    assert np.all(np.abs(g.R[~below]) < 1.0)


def test_wavepacket_continuity_at_step(barrier_spec):
    g = barrier_spec
    eps = 1e-15
    t = 5e-12
    # The probe points sit eps on either side of the step, so the residual
    # scale is |k| eps ~ 3e-7 relative; a genuine jump would be O(1).
    lo = sc.barrier_wavefunction(g, g.a - eps, t)[0]
    hi = sc.barrier_wavefunction(g, g.a + eps, t)[0]
    assert abs(lo - hi) <= 1e-5 * abs(lo)
    dlo = sc.barrier_gradient_x(g, g.a - eps, t)[0]
    dhi = sc.barrier_gradient_x(g, g.a + eps, t)[0]
    assert abs(dlo - dhi) <= 1e-4 * abs(dlo)


def test_gradient_matches_finite_difference(barrier_spec):
    g = barrier_spec
    t = 3e-12
    for x in (10e-9, 150e-9):
        h = 1e-13
        fd = (sc.barrier_wavefunction(g, x + h, t)[0]
              - sc.barrier_wavefunction(g, x - h, t)[0]) / (2.0 * h)
        an = sc.barrier_gradient_x(g, x, t)[0]
        assert abs(fd - an) <= 1e-6 * abs(an)


def test_step_potential_midpoint_value(barrier_spec):
    g = barrier_spec
    grid = g.grid()
    u3 = g.potential("barrier", grid).as_3d()
    x, _, _ = grid.node_coordinates()
    i_step = int(np.argmin(np.abs(x - g.a)))
    assert x[i_step] == pytest.approx(g.a, abs=1e-15)
    assert u3[0, 0, i_step] == pytest.approx(0.5 * g.u0, rel=1e-15)
    assert u3[0, 0, i_step - 1] == 0.0
    assert u3[0, 0, i_step + 1] == pytest.approx(g.u0, rel=1e-15)


def test_analytic_references_positive_and_finite(barrier_spec):
    g = barrier_spec
    times = np.linspace(0.0, g.horizon, 9)
    p = sc.analytic_region_probability(g, times)
    h = sc.analytic_region_energy(g, times)
    assert np.all(p > 0.0) and np.all(np.isfinite(p))
    assert np.all(h > 0.0) and np.all(np.isfinite(h))
    # The quadrature is converged at the default resolution.
    p_fine = sc.analytic_region_probability(g, times, intervals=2000)
    assert np.max(np.abs(p - p_fine)) <= 1e-6 * np.max(p_fine)


def _two_pass_spatial_matrix(spec, x, derivative):
    """Per-mode spatial factors, built as the two-pass references did."""
    phi = np.empty((x.size, spec.k.size), dtype=complex)
    left = x <= spec.a
    xl, xr = x[left], x[~left]
    inc = np.exp(1j * np.outer(xl - spec.x0, spec.k))
    ref = np.exp(1j * np.outer(2.0 * spec.a - spec.x0 - xl, spec.k))
    tran = np.exp(1j * np.outer(xr - spec.a, spec.K))
    if derivative:
        inc = inc * (1j * spec.k)
        ref = ref * (-1j * spec.k)
        tran = tran * (1j * spec.K)
    coef = spec.T * np.exp(1j * spec.k * (spec.a - spec.x0))
    phi[left] = inc + ref * spec.R[None, :]
    phi[~left] = tran * coef[None, :]
    return phi


def _two_pass_references(spec, times, intervals=1000, chunk=256):
    """Probability and energy, each from its own pass over the modes."""
    xm, h = sc._barrier_midpoints(spec, intervals)
    phi = _two_pass_spatial_matrix(spec, xm, derivative=False)
    phi_g = _two_pass_spatial_matrix(spec, xm, derivative=True)
    u = np.where(xm < spec.a, 0.0,
                 np.where(xm == spec.a, 0.5 * spec.u0, spec.u0))
    kin = spec.constants.kinetic_factor
    area = spec.cross_section()
    prob, energy = np.empty(times.shape), np.empty(times.shape)
    for s in range(0, times.size, chunk):
        w = spec.amps[None, :] * np.exp(-1j * np.outer(times[s:s + chunk],
                                                       spec.omega))
        vals = w @ phi.T
        prob[s:s + chunk] = area * h * np.sum(np.abs(vals)**2, axis=1)
        vals = w @ phi.T
        grads = w @ phi_g.T
        dens = kin * np.abs(grads)**2 + u[None, :] * np.abs(vals)**2
        energy[s:s + chunk] = area * h * np.sum(dens, axis=1)
    return prob, energy


def test_one_pass_references_are_bit_identical_to_two_passes():
    spec = sc.GaussianBarrierSpec(x0=-60e-9)
    times = np.linspace(0.0, spec.horizon, 300)  # two chunks of times
    prob, energy = _two_pass_references(spec, times)
    p = sc.analytic_region_probability(spec, times)
    h = sc.analytic_region_energy(spec, times)
    assert p.tobytes() == prob.tobytes() and h.tobytes() == energy.tobytes()
    # A kept result is handed out as a copy, and other times miss it.
    p[:] = 0.0
    again = sc.analytic_region_probability(spec, times)
    assert again.tobytes() == prob.tobytes()
    h_tail = sc.analytic_region_energy(spec, times[257:])
    assert h_tail.tobytes() == _two_pass_references(
        spec, times[257:])[1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 65, 129, 130, 255, 257, 300, 1001])
def test_threaded_references_keep_the_bits_of_one_call_per_chunk(
        n, monkeypatch):
    # 129 and 257 times end in a one-row remainder of 128-row pieces; only
    # at 257 is it a chunk of its own, and so a one-row GEMM, at 256 rows
    # per chunk.  At 130 a piece has two rows.
    times = np.linspace(0.0, sc.GaussianBarrierSpec().horizon, n)
    prob, energy = _two_pass_references(sc.GaussianBarrierSpec(), times)
    for workers in (1, 3):
        monkeypatch.setattr(sc, "_workers", lambda pieces: workers)
        spec = sc.GaussianBarrierSpec()  # no result kept from the last pass
        p = sc.analytic_region_probability(spec, times)
        h = sc.analytic_region_energy(spec, times)
        assert p.tobytes() == prob.tobytes(), workers
        assert h.tobytes() == energy.tobytes(), workers


def test_reference_pass_peak_memory(monkeypatch):
    # One spatial matrix of 1 000 positions x 2 001 modes is 32 MB and the
    # potential-energy rows 8 MB; the rest is the workers' pieces (about
    # 8 MB each) and blocks.  Full-size temporaries in the matrix build
    # peaked at 80 MB.
    spec = sc.GaussianBarrierSpec()
    times = np.arange(1001) * spec.time_step()
    monkeypatch.setattr(sc, "_workers", lambda pieces: min(2, pieces))
    tracemalloc.start()
    try:
        sc.analytic_region_probability(spec, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_barrier_sources_sample_analytic_gradient(barrier_spec):
    g = barrier_spec
    sources = sc.barrier_sources(g, g.time_step())
    t = 1e-12
    assert sources["W"]("W", t) == sc.barrier_gradient_x(g, 0.0, t)[0]
    assert sources["E"]("E", t) == sc.barrier_gradient_x(g, g.lx, t)[0]


def bits(values):
    """Raw 64-bit patterns of complex values, for bitwise comparison."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def test_barrier_tables_match_the_per_mode_sum(barrier_spec):
    # Several positions on each side of the step, one time or a table of
    # times: every value is the mode-by-mode sum up to roundoff of the
    # terms it adds, whatever the other positions and times are.
    g = barrier_spec
    x = np.array([0.0, 40e-9, g.a, 150e-9, g.lx])
    times = np.array([0.0, 3.3e-13, 1e-12, 2.5e-12])
    for derivative, fn in ((True, sc.barrier_gradient_x),
                           (False, sc.barrier_wavefunction)):
        table = fn(g, x, times)
        assert table.shape == (times.size, x.size)
        for i, t in enumerate(times):
            row = fn(g, x, t)
            assert row.shape == x.shape
            for j, xj in enumerate(x):
                ref, scale = barrier_mode_sum(g, xj, t, derivative)
                assert abs(table[i, j] - ref) <= 1e-14 * scale
                assert abs(row[j] - ref) <= 1e-14 * scale


@pytest.mark.parametrize("n0", [0, 101, 12_160])
def test_barrier_drive_returns_its_block_call_and_fills_per_block(
        barrier_spec, monkeypatch, n0):
    # Step times in stepper order over more than two blocks; a first ask at
    # n0 > 0 is what a resumed run does.  Every value is the entry of the
    # drive's block call, a repeat ask gives the same bits, the drive
    # calls barrier_gradient_x once per block, from a multiple of the block
    # length, and the phase recurrence stays within roundoff of the exact
    # sum of the modes.
    g = barrier_spec
    dt = g.time_step()
    direct = sc.barrier_gradient_x
    calls = []

    def counted(*args):
        calls.append((args, direct(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sc, "barrier_gradient_x", counted)
    sources = sc.barrier_sources(g, dt)
    assert sources["W"] is sources["E"]
    drive = sources["W"]
    n_steps = 2 * sc.SOURCE_BLOCK_STEPS + 3
    for n in range(n0, n0 + n_steps):
        for t in (n * dt, (n + 0.5) * dt):
            for col, face in enumerate(("W", "E")):
                value = drive(face, t)
                (_, x, times, _), table = calls[-1]
                assert list(x) == [0.0, g.lx]
                expected = table[list(times).index(t), col]
                assert np.array_equal(bits(value), bits(expected))
                assert np.array_equal(bits(drive(face, t)), bits(value))
    assert len(calls) == 3
    assert calls[0][0][2][0] == (n0 - n0 % sc.SOURCE_BLOCK_STEPS) * dt
    scale = [barrier_mode_sum(g, xj, 0.0, True)[1] for xj in (0.0, g.lx)]
    for (_, x, times, _), table in calls:
        drift = np.abs(table - direct(g, x, times))
        assert np.all(drift <= 1e-14 * np.array(scale))

    # An off-grid time is evaluated directly and leaves the table alone.
    t = (n0 + 0.25) * dt
    assert np.array_equal(bits(drive("E", t)), bits(direct(g, g.lx, t)))
    assert len(calls) == 4
    drive("W", (n0 + n_steps - 1) * dt)
    assert len(calls) == 4


def test_barrier_drive_values_depend_on_the_step_alone(barrier_spec):
    # Blocks start at multiples of the block length, so a drive first
    # asked mid-block (a resumed run) has the bits of one started at 0.
    g = barrier_spec
    dt = g.time_step()

    def asked_from(first):
        drive = sc.BarrierDrive(g, dt)
        return np.concatenate([
            bits(drive(face, t))
            for n in range(first, 2 * sc.SOURCE_BLOCK_STEPS)
            for t in (n * dt, (n + 0.5) * dt) for face in ("W", "E")])

    resumed = asked_from(101)
    assert resumed.size == 27 * 2 * 2 * 2  # steps, times, faces, words
    assert np.array_equal(asked_from(0)[-resumed.size:], resumed)


def test_barrier_drive_block_forms_two_rows_of_exponentials(barrier_spec,
                                                            monkeypatch):
    # The rows of n0 dt and (n0 + 1/2) dt are exact; the other 126 come
    # from the phase row, which like the faces' spatial matrix is formed
    # once, when the drive is built.
    g = barrier_spec
    drive = sc.BarrierDrive(g, g.time_step())
    exp_i = sc._exp_i
    sizes = []

    def counted(a):
        sizes.append(a.size)
        return exp_i(a)

    monkeypatch.setattr(sc, "_exp_i", counted)
    drive("W", 0.0)
    assert sum(sizes) == 2 * g.omega.size
    drive("E", 0.5 * g.time_step())
    assert sum(sizes) == 2 * g.omega.size


def test_prepare_barrier_defaults(barrier_spec):
    graph, dt = sc.prepare_barrier(barrier_spec)
    assert dt == barrier_spec.time_step()
    assert list(graph.regions) == ["barrier"] and graph.interfaces == []
    region = graph.regions["barrier"]
    assert sc.GaussianBarrierSpec().default_n_t() == 12208
    assert region.boundary.kinds["W"] == "prescribed"
    assert region.boundary.kinds["N"] == "neumann0"
    # The sampled state is uniform transversally.
    r3 = region.state.psiR.reshape(region.grid.node_shape)
    assert np.max(np.abs(r3 - r3[:1, :1, :])) == 0.0


def test_barrier_spec_is_frozen_and_replace_rebuilds_the_modes(barrier_spec):
    moved = replace(barrier_spec, x0=-150e-9)
    fresh = sc.GaussianBarrierSpec(x0=-150e-9)
    assert moved == fresh
    for name in ("k", "amps", "omega", "K", "R", "T"):
        assert np.array_equal(bits(getattr(moved, name)),
                              bits(getattr(fresh, name)))
        assert not getattr(moved, name).flags.writeable
    assert (moved.kbar, moved.sigma) == (fresh.kbar, fresh.sigma)
    with pytest.raises(FrozenInstanceError):
        moved.x0 = 0.0
    with pytest.raises(FrozenInstanceError):
        moved.lambda_bar = 20e-9


# ---------------------------------------------------------------------------
# Proton tunneling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tunneling_spec():
    return sc.TunnelingSpec()


@pytest.fixture(scope="module")
def tunneling_modes_list(tunneling_spec):
    return sc.tunneling_modes(tunneling_spec)


def test_default_barrier_height_inverts_time_step(tunneling_spec):
    spec = tunneling_spec
    assert spec.barrier_height / EV == pytest.approx(1.0000000132181135,
                                                     rel=1e-12)
    assert spec.time_step() == pytest.approx(
        0.999 * sc._BARRIER_DT_CFL, rel=1e-15)
    explicit = sc.TunnelingSpec(u0=1.0 * EV)
    assert explicit.barrier_height == 1.0 * EV


def test_mode_x_energies_match_table(tunneling_spec):
    e_x = sc.tunneling_mode_energies(tunneling_spec)
    table = np.array(sc.TUNNELING_EX_MEV) * 1e-3 * EV
    assert np.max(np.abs(e_x - table) / table) <= 1e-9
    for i, e in enumerate(e_x):
        even = (i % 2 == 0)
        assert abs(sc._matching_residual(tunneling_spec, e, even)) \
            <= 1e-4 * abs(sc._matching_residual(tunneling_spec,
                                                e * 1.001, even))


def test_mode_x_energies_are_scipy_brentq_bitwise(tunneling_spec):
    from scipy.optimize import brentq

    e_x = sc.tunneling_mode_energies(tunneling_spec)
    for i, e_mev in enumerate(sc.TUNNELING_EX_MEV):
        even = (i % 2 == 0)
        e0 = e_mev * 1e-3 * EV
        root = brentq(
            lambda e: sc._matching_residual(tunneling_spec, e, even),
            e0 * (1.0 - 5e-3), e0 * (1.0 + 5e-3), xtol=1e-30, rtol=1e-15)
        assert float(e_x[i]) == root


@settings(max_examples=300, deadline=None)
@given(root=st.floats(-3.0, 3.0), left=st.floats(1e-6, 5.0),
       right=st.floats(1e-6, 5.0), kind=st.integers(0, 3),
       log_xtol=st.floats(-30.0, -1.0), log_rtol=st.floats(-15.0, -3.0))
def test_brentq_port_is_scipy_brentq_bitwise(root, left, right, kind,
                                             log_xtol, log_rtol):
    from scipy.optimize import brentq

    f = {0: lambda x: (x - root) ** 3 + 0.1 * (x - root),
         1: lambda x: np.sinh(x - root) * (1.0 + 0.3 * np.cos(3.0 * x)),
         2: lambda x: np.tanh(4.0 * (x - root)) + 0.01 * (x - root),
         3: lambda x: np.expm1(x - root) - 0.5 * (x - root) ** 2}[kind]
    a, b = root - left, root + right
    xtol, rtol = 10.0 ** log_xtol, 10.0 ** log_rtol
    assert float(sc._brentq(f, a, b, xtol, rtol)) \
        == brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_mode_profiles_continuous_across_interfaces(tunneling_spec,
                                                    tunneling_modes_list):
    spec = tunneling_spec
    for md in tunneling_modes_list:
        # Reactant/barrier interface.
        left = sc.tunneling_mode_fx(spec, md, "reactant", spec.lx_reactant)
        right = sc.tunneling_mode_fx(spec, md, "barrier", 0.0)
        scale = max(abs(float(left)), 1e-300)
        assert abs(float(left) - float(right)) <= 1e-12 * scale
        dl = tunneling_mode_dfx(spec, md, "reactant", spec.lx_reactant)
        dr = tunneling_mode_dfx(spec, md, "barrier", 0.0)
        assert abs(float(dl) - float(dr)) <= 1e-12 * abs(float(dl))
        # Barrier/product interface.
        left = sc.tunneling_mode_fx(spec, md, "barrier", spec.lx_barrier)
        right = sc.tunneling_mode_fx(spec, md, "product", 0.0)
        assert abs(float(left) - float(right)) <= 1e-12 * max(
            abs(float(left)), 1e-300)
        dl = tunneling_mode_dfx(spec, md, "barrier", spec.lx_barrier)
        dr = tunneling_mode_dfx(spec, md, "product", 0.0)
        assert abs(float(dl) - float(dr)) <= 1e-12 * abs(float(dl))
        # Outer walls vanish.
        assert sc.tunneling_mode_fx(spec, md, "reactant", 0.0) == 0.0
        assert abs(sc.tunneling_mode_fx(spec, md, "product",
                                        spec.lx_product)) <= 1e-25


def test_mode_x_profiles_normalized(tunneling_spec, tunneling_modes_list):
    spec = tunneling_spec
    n = 20_000
    for md in tunneling_modes_list[:4]:
        total = 0.0
        for region in sc.TUNNELING_REGIONS:
            length = spec.region_length(region)
            xm = (np.arange(n) + 0.5) * (length / n)
            f = sc.tunneling_mode_fx(spec, md, region, xm)
            total += (length / n) * float(np.sum(f * f))
        assert total == pytest.approx(1.0, rel=1e-7)


def test_mode_weights_thermal_and_normalized(tunneling_spec,
                                             tunneling_modes_list):
    modes = tunneling_modes_list
    assert sum(abs(md.weight)**2 for md in modes) == pytest.approx(
        1.0, abs=1e-13)
    # Boltzmann ratios of |weight|^2 survive the overall normalization.
    kbt = BOLTZMANN * tunneling_spec.temperature
    r_weights = abs(modes[0].weight)**2 / abs(modes[2].weight)**2
    r_boltz = np.exp(-(modes[0].energy - modes[2].energy) / kbt)
    assert r_weights == pytest.approx(r_boltz, rel=1e-10)
    # Phases follow the tabulated offsets.
    for md, delta in zip(modes, sc.TUNNELING_MODE_DELTAS):
        assert np.angle(md.weight) == pytest.approx(
            np.angle(np.exp(1j * np.pi * delta)), abs=1e-12)


def test_analytic_energy_and_period(tunneling_spec, tunneling_modes_list):
    h = sc.analytic_total_energy(tunneling_spec, tunneling_modes_list)
    assert h / (1e-3 * EV) == pytest.approx(77.51079756870061, rel=1e-10)
    # The period 2 pi hbar / E of the fastest mode.
    period = 2.0 * np.pi * tunneling_spec.constants.hbar / max(
        md.energy for md in tunneling_modes_list)
    assert period / 1e-15 == pytest.approx(29.25730449859044, rel=1e-10)


def test_graph_initial_probability_normalized(tunneling_spec,
                                              tunneling_modes_list):
    graph, dt = sc.build_tunneling_graph(tunneling_spec,
                                         modes=tunneling_modes_list)
    total = sum(
        total_probability(r.state.psiR, r.state.psiI, r.ops, dt)
        for r in graph.regions.values())
    assert total == pytest.approx(1.0, abs=1e-13)
    assert set(graph.regions) == set(sc.TUNNELING_REGIONS)
    assert len(graph.interfaces) == 2
    # Transverse walls are impenetrable in every region.
    for r in graph.regions.values():
        for f in ("S", "N", "B", "T"):
            assert r.boundary.kinds[f] == "dirichlet0"


def test_matching_rejects_asymmetric_outer_regions():
    bad = sc.TunnelingSpec(lx_reactant=1e-10, lx_product=2e-10)
    with pytest.raises(ValueError):
        sc.tunneling_mode_energies(bad)


def test_cell_must_fit_every_region_length():
    with pytest.raises(sc.GeometryError, match="lz"):
        sc.TunnelingSpec(cell=1e-10 / 6.0)
    with pytest.raises(sc.GeometryError, match="lx"):
        sc.GaussianBarrierSpec(cell=0.3e-9)
    # Lengths that fit up to float roundoff are accepted.
    assert sc.TunnelingSpec().region_grid("barrier").nx == 15
    assert sc.GaussianBarrierSpec().grid().nx == 200
