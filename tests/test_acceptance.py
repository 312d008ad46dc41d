"""End-to-end acceptance suite.

Each test pins one externally stated guarantee of the solver: closed-form
and spectral time-step limits, discrete conservation of probability and
energy in closed, driven and coupled setups, accuracy against analytic
references, the instability mechanism past the stable step, and the
algebraic property checks that hold at every scale.
"""

import numpy as np
import pytest

from fdtdq import scenarios as sc
from fdtdq.constants import ELECTRON, EV
from fdtdq.coupling import cross_region_conservation
from fdtdq.grid import RegionGrid, PotentialField
from fdtdq.operators import DiscreteOperators
from fdtdq.stability import (cfl_gen_limit, cfl_limit, lambda_min_P,
                             per_cell_cfl_gen, single_cell_sigma_eigvals,
                             spectral_radius)
from references import dense_rho

FS = 1e-15
AS = 1e-18

# Table of closed-box discretization errors by cells per side:
# (P_simple deviation, relative H error).
WELL_TABLE = {
    10: (2.51e-2, 8.20e-3),
    20: (6.19e-3, 2.05e-3),
    30: (2.74e-3, 9.14e-4),
}


# ---------------------------------------------------------------------------
# 1. Closed-form time-step limits
# ---------------------------------------------------------------------------

def test_cfl_closed_form_well():
    spec = sc.InfiniteWellSpec()
    grid = spec.grid()
    dt = cfl_limit(grid, spec.potential(grid), spec.constants)
    assert abs(dt - 2.879 * FS) <= 0.001 * FS


def test_cfl_closed_form_reflection():
    spec = sc.GaussianBarrierSpec()
    grid = spec.grid()
    dt = cfl_limit(grid, spec.potential(grid), spec.constants)
    assert abs(dt - 2.869915 * FS) <= 1e-5 * FS


def test_cfl_closed_form_tunneling_regions():
    spec = sc.TunnelingSpec()
    expected = {"reactant": 58.318879645754819 * AS,
                "barrier": 55.844895610996282 * AS,
                "product": 58.318879645754819 * AS}
    for region, dt_ref in expected.items():
        grid = spec.region_grid(region)
        dt = cfl_limit(grid, spec.region_potential(region, grid),
                       spec.constants)
        assert abs(dt - dt_ref) <= 1e-6 * AS, region


# ---------------------------------------------------------------------------
# 2. Generalized (spectral) time-step limits
# ---------------------------------------------------------------------------

def test_cfl_gen_equals_closed_form_for_well():
    spec = sc.InfiniteWellSpec()
    grid = spec.grid()
    ops = DiscreteOperators(grid, spec.potential(grid), spec.constants)
    dt_cfl = cfl_limit(grid, spec.potential(grid), spec.constants)
    dt_gen = cfl_gen_limit(ops)
    assert abs(dt_gen - dt_cfl) / dt_gen <= 1e-12


def test_cfl_gen_reflection_grid():
    spec = sc.GaussianBarrierSpec()
    grid = spec.grid()
    ops = DiscreteOperators(grid, spec.potential(grid), spec.constants)
    assert abs(cfl_gen_limit(ops) - 2.869968 * FS) <= 1e-4 * FS


def test_cfl_ordering_randomized_instances():
    # dt_CFL <= dt_CFL,gen on 100 randomized grids and potentials, with
    # relative margin no worse than -1e-15.
    rng = np.random.default_rng(20250101)
    for _ in range(100):
        dims = rng.integers(1, 5, size=3)
        spacing = rng.uniform(0.5, 2.0, size=3) * 1e-9
        grid = RegionGrid(*map(int, dims), *spacing)
        u = rng.uniform(-1.0, 1.0, grid.n_nodes) * rng.uniform(0.0, 1.0) * EV
        pot = PotentialField(grid, u)
        ops = DiscreteOperators(grid, pot, ELECTRON)
        dt_cfl = cfl_limit(grid, pot, ELECTRON)
        dt_gen = 2.0 / dense_rho(ops)
        assert (dt_gen - dt_cfl) / dt_gen >= -1e-15


# ---------------------------------------------------------------------------
# 3. Probability conservation in a closed box
# ---------------------------------------------------------------------------

def test_well_probability_conserved(well_runs):
    series = well_runs[30]["series"]
    assert series.steps_completed == 10_000
    assert np.nanmax(np.abs(series.P - 1.0)) <= 1e-13


@pytest.mark.parametrize("n_cells", sorted(WELL_TABLE))
def test_well_simple_probability_deviation_table(well_runs, n_cells):
    series = well_runs[n_cells]["series"]
    dev = float(np.nanmax(np.abs(series.P_simple - 1.0)))
    expected = WELL_TABLE[n_cells][0]
    assert expected / 2.0 <= dev <= expected * 2.0


# ---------------------------------------------------------------------------
# 4. Energy accuracy and conservation in a closed box
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_cells", sorted(WELL_TABLE))
def test_well_energy_constant(well_runs, n_cells):
    series = well_runs[n_cells]["series"]
    h = series.H[np.isfinite(series.H)]
    assert np.max(np.abs(h - h[0])) / abs(h[0]) <= 1e-12


@pytest.mark.parametrize("n_cells", sorted(WELL_TABLE))
def test_well_energy_error_table(well_runs, n_cells):
    spec = well_runs[n_cells]["spec"]
    series = well_runs[n_cells]["series"]
    e1 = spec.ground_energy
    err = float(np.nanmax(np.abs(series.H - e1)) / e1)
    expected = WELL_TABLE[n_cells][1]
    assert abs(err - expected) <= 0.2 * expected


@pytest.mark.parametrize("n_cells", sorted(WELL_TABLE))
def test_well_simple_energy_less_accurate(well_runs, n_cells):
    spec = well_runs[n_cells]["spec"]
    series = well_runs[n_cells]["series"]
    e1 = spec.ground_energy
    err = float(np.nanmax(np.abs(series.H - e1)))
    err_simple = float(np.nanmax(np.abs(series.H_simple - e1)))
    assert err_simple > err


# ---------------------------------------------------------------------------
# 5. Open-region balance identities and accuracy (driven reflection run)
# ---------------------------------------------------------------------------

def test_reflection_balance_residuals(reflection_run):
    series = reflection_run["series"]
    assert np.nanmax(np.abs(series.residual_P)) <= 1e-13
    assert np.nanmax(np.abs(series.residual_H)) <= 1e-13


def test_reflection_simple_observables_break_the_balances(reflection_run):
    # Substituting the uncorrected quadratic forms into the same balance
    # identities leaves residuals orders of magnitude above roundoff, so
    # the identities discriminate the corrected forms.
    series = reflection_run["series"]
    m = series.steps_completed
    norm_p = float(reflection_run["ref_p"].max())
    norm_h = float(reflection_run["ref_h"].max())
    flux = np.concatenate([[0.0], np.cumsum(series.I_P[:m])])
    res_p = (series.P_simple[:m + 1] - series.P_simple[0]
             + series.dt * flux) / norm_p
    assert np.max(np.abs(res_p)) >= 1e-4
    power = np.cumsum(series.s[1:m - 1])
    res_h = (series.H_simple[2:m] - series.H_simple[1]
             - series.dt * power) / norm_h
    assert np.max(np.abs(res_h)) >= 1e-4


def test_reflection_probability_accuracy(reflection_run):
    series = reflection_run["series"]
    idx = reflection_run["idx"]
    ref = reflection_run["ref_p"]
    err = np.abs(series.P[idx] - ref) / ref.max()
    assert np.max(err) <= 2e-2


def test_reflection_energy_accuracy(reflection_run):
    series = reflection_run["series"]
    idx_h = reflection_run["idx_h"]
    ref = reflection_run["ref_h"]
    err = np.abs(series.H[idx_h] - ref) / ref.max()
    assert np.max(err) <= 3e-2


# ---------------------------------------------------------------------------
# 6. Coupled three-region tunneling run
# ---------------------------------------------------------------------------

def test_tunneling_global_conservation(tunneling_run):
    totals = cross_region_conservation(tunneling_run["series"])
    assert totals["max_P_drift"] <= 1e-12
    assert totals["max_H_drift_normalized"] <= 1e-12


def test_tunneling_interface_current_antisymmetry(tunneling_run):
    worst = tunneling_run["worst"]
    assert worst["mismatch"] <= 1e-13 * worst["scale"]


def test_tunneling_per_region_probability_bounds(tunneling_run):
    for series in tunneling_run["series"].values():
        p = series.P[np.isfinite(series.P)]
        assert np.min(p) >= -1e-15
        assert np.max(p) <= 1.0 + 1e-12


def test_tunneling_mode_energy_table(tunneling_run):
    e_x = sc.tunneling_mode_energies(tunneling_run["spec"])
    e1_ref = 18.858713602402805e-3 * EV
    e4_ref = 75.370616971460279e-3 * EV
    assert abs(e_x[0] - e1_ref) / e1_ref <= 1e-9
    assert abs(e_x[3] - e4_ref) / e4_ref <= 1e-9


# ---------------------------------------------------------------------------
# 7. Instability mechanism past the stable step
# ---------------------------------------------------------------------------

def test_instability_negative_probability_and_growth(unstable_run):
    m = unstable_run["diverged_at"]
    p_barrier = unstable_run["series"]["barrier"].P
    # The quadratic form loses positivity once the step passes the limit.
    assert np.nanmin(p_barrier[:m + 1]) < 0.0
    # Monotone growth of the unstable mode over the final decade of steps.
    tail = np.abs(p_barrier[int(0.9 * m):m + 1])
    assert np.all(np.diff(tail) > 0.0)


def test_instability_guard_trips_on_the_first_step_past_it(unstable_run):
    # The guard reads leapfrog's largest |psi| of each step, which is the
    # largest |psi| of every region's new vectors: it trips on the first
    # step past 10^6 times the initial largest |psi| and reports that
    # step's value: step 917 and 3.2224992092084445e21, as a guard that
    # reduces the states themselves does.
    norms, m = unstable_run["norms"], unstable_run["diverged_at"]
    guard = 1e6 * unstable_run["initial_norm"]
    assert norms.size == m
    assert np.all(norms[:-1] <= guard) and norms[-1] > guard
    assert unstable_run["norm"] == norms[-1]
    assert m == 917
    assert unstable_run["norm"] == pytest.approx(3.2224992092084445e21,
                                                 rel=1e-12)


def test_instability_probability_tracks_until_blowup(unstable_run):
    series = unstable_run["series"]
    total = sum(s.P for s in series.values())
    # norms[i] is the solution magnitude after step i + 1.
    over = unstable_run["norms"] > 1e3 * unstable_run["initial_norm"]
    assert np.any(over)
    first = int(np.argmax(over)) + 1
    assert np.nanmax(np.abs(total[:first + 1] - 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# 8. Always-on property suite
# ---------------------------------------------------------------------------

def test_property_cell_sum_decomposition():
    # The assembled operator is exactly the sum of single-cell operators
    # scattered to the global numbering (secondary areas and volumes split
    # per cell).
    rng = np.random.default_rng(7)
    grid = RegionGrid(3, 2, 2, 0.8e-9, 1.0e-9, 1.2e-9)
    u = 0.5 * EV * rng.uniform(-1.0, 1.0, grid.n_nodes)
    ops = DiscreteOperators(grid, PotentialField(grid, u), ELECTRON)
    h = ops.assemble_H()
    acc = np.zeros_like(h)
    u3 = u.reshape(grid.node_shape)
    cell = RegionGrid(1, 1, 1, grid.dx, grid.dy, grid.dz)
    nx1, ny1 = grid.nx + 1, grid.ny + 1
    for kk in range(grid.nz):
        for jj in range(grid.ny):
            for ii in range(grid.nx):
                corners = np.array(
                    [u3[kk + dk, jj + dj, ii + di]
                     for dk in (0, 1) for dj in (0, 1) for di in (0, 1)])
                cops = DiscreteOperators(
                    cell, PotentialField(cell, corners), ELECTRON)
                hc = cops.assemble_H()
                idx = [(ii + di) + (jj + dj) * nx1 + (kk + dk) * nx1 * ny1
                       for dk in (0, 1) for dj in (0, 1) for di in (0, 1)]
                acc[np.ix_(idx, idx)] += hc
    assert np.max(np.abs(acc - h)) <= 1e-13 * np.max(np.abs(h))


def test_property_positivity_threshold_matches_spectral_limit():
    rng = np.random.default_rng(11)
    grid = RegionGrid(3, 3, 2, 1.1e-9, 0.9e-9, 1.3e-9)
    pot = PotentialField(grid, 0.4 * EV * rng.uniform(-1, 1, grid.n_nodes))
    ops = DiscreteOperators(grid, pot, ELECTRON)
    dt_gen = 2.0 / dense_rho(ops)
    lo, hi = 0.5 * dt_gen, 2.0 * dt_gen
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lambda_min_P(ops, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(lo - dt_gen) / dt_gen <= 1e-12


def test_property_matrix_free_equals_assembled():
    rng = np.random.default_rng(13)
    grid = RegionGrid(4, 3, 2, 0.7e-9, 1.2e-9, 0.9e-9)
    pot = PotentialField(grid, 0.6 * EV * rng.uniform(-1, 1, grid.n_nodes))
    ops = DiscreteOperators(grid, pot, ELECTRON)
    v = rng.standard_normal(grid.n_nodes)
    ref = ops.assemble_H() @ v
    assert np.max(np.abs(ops.apply_H(v) - ref)) \
        <= 1e-14 * np.max(np.abs(ref))
    b = rng.standard_normal(grid.n_hanging)
    refb = ops.assemble_Hbot() @ b
    assert np.max(np.abs(ops.apply_Hbot(b) - refb)) \
        <= 1e-14 * max(np.max(np.abs(refb)), 1e-300)


def test_property_single_cell_analytic_eigenvalues():
    dx, dy, dz = 0.8e-10, 1.1e-10, 0.9e-10
    u = 0.4 * EV
    grid = RegionGrid(1, 1, 1, dx, dy, dz)
    ops = DiscreteOperators(grid, PotentialField.uniform(grid, u), ELECTRON)
    dense = np.sort(np.linalg.eigvalsh(ops.assemble_sigma_dense()))
    analytic = np.sort(single_cell_sigma_eigvals(dx, dy, dz, u, ELECTRON))
    assert np.max(np.abs(dense - analytic)) \
        <= 1e-13 * np.max(np.abs(analytic))


def test_property_limit_sign_pattern():
    # Uniform nonnegative potential: closed-form and per-cell limits agree;
    # negative or randomized potentials make the closed form strictly
    # conservative.
    grid = RegionGrid(3, 3, 3, 1e-9, 1e-9, 1e-9)
    uniform = PotentialField.uniform(grid, 0.3 * EV)
    dt_cfl = cfl_limit(grid, uniform, ELECTRON)
    cell_min, _ = per_cell_cfl_gen(grid, uniform, ELECTRON)
    assert abs(cell_min - dt_cfl) / dt_cfl <= 1e-12

    negative = PotentialField.uniform(grid, -0.3 * EV)
    dt_cfl = cfl_limit(grid, negative, ELECTRON)
    cell_min, _ = per_cell_cfl_gen(grid, negative, ELECTRON)
    assert cell_min > dt_cfl * (1.0 + 1e-9)

    rng = np.random.default_rng(17)
    random_pot = PotentialField(
        grid, 0.3 * EV * rng.uniform(-1.0, 1.0, grid.n_nodes))
    dt_cfl = cfl_limit(grid, random_pot, ELECTRON)
    cell_min, _ = per_cell_cfl_gen(grid, random_pot, ELECTRON)
    assert cell_min > dt_cfl * (1.0 + 1e-12)
