import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdtdq.constants import ELECTRON, EV, HBAR, PhysicalConstants
from fdtdq.grid import RegionGrid, PotentialField
from fdtdq.operators import DiscreteOperators
from fdtdq import stability
from fdtdq.stability import (StabilityError, _lcg_start_vector,
                             cfl_gen_limit, cfl_limit, check_theorems,
                             kappa_P, lambda_min_P, per_cell_cfl_gen,
                             power_iteration, single_cell_sigma_eigvals,
                             spectral_radius, spectral_radius_power)


def make_ops(nx, ny, nz, spacing=1e-9, u_scale=0.0, seed=0, u_offset=0.0):
    grid = RegionGrid(nx, ny, nz, spacing, spacing, spacing)
    rng = np.random.default_rng(seed)
    u = u_offset + u_scale * rng.uniform(-1.0, 1.0, grid.n_nodes)
    return DiscreteOperators(grid, PotentialField(grid, u), ELECTRON)


def test_cfl_closed_form_value():
    grid = RegionGrid(4, 4, 4, 1e-9, 1e-9, 1e-9)
    pot = PotentialField.uniform(grid, 0.5 * EV)
    dt = cfl_limit(grid, pot, ELECTRON)
    expected = 2.0 / ((2.0 * HBAR / ELECTRON.mass) * 3.0 / 1e-18
                      + 0.5 * EV / HBAR)
    assert dt == pytest.approx(expected, rel=1e-15)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
@example(7251)
def test_power_iteration_matches_dense_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 5, size=3)
    ops = make_ops(*dims, u_scale=0.3 * EV, seed=seed)
    dense = spectral_radius(ops, method="dense")
    power = spectral_radius_power(ops)
    assert abs(power - dense) / dense <= 1e-11


def test_lanczos_matches_dense():
    ops = make_ops(4, 3, 5, u_scale=0.2 * EV, seed=3)
    dense = spectral_radius(ops, method="dense")
    lanczos = spectral_radius(ops, method="lanczos")
    assert abs(lanczos - dense) / dense <= 1e-11
    with pytest.raises(ValueError):
        spectral_radius(ops, method="magic")


def test_power_iteration_is_deterministic():
    ops = make_ops(3, 3, 3, u_scale=0.1 * EV, seed=5)
    assert spectral_radius_power(ops) == spectral_radius_power(ops)


def test_power_iteration_nonconvergence_reports_state():
    # With near-degenerate eigenvalues and a tiny iteration budget the
    # Rayleigh quotient cannot settle to tolerance; the error carries the
    # last estimate for post-mortem use.
    def apply(v):
        return np.array([v[0], 0.999 * v[1], 0.5 * v[2]])

    with pytest.raises(StabilityError) as exc_info:
        power_iteration(apply, 3, seed=1, tol=1e-16, max_iter=4)
    assert exc_info.value.last_estimate is not None


def test_single_cell_closed_form_matches_dense():
    dx, dy, dz = 0.7e-10, 1.0e-10, 1.3e-10
    u = 0.8 * EV
    grid = RegionGrid(1, 1, 1, dx, dy, dz)
    ops = DiscreteOperators(grid, PotentialField.uniform(grid, u), ELECTRON)
    dense = np.sort(np.linalg.eigvalsh(ops.assemble_sigma_dense()))
    closed = np.sort(single_cell_sigma_eigvals(dx, dy, dz, u, ELECTRON))
    assert np.max(np.abs(dense - closed)) / np.max(np.abs(closed)) <= 1e-13
    with pytest.raises(ValueError):
        single_cell_sigma_eigvals(dx, dy, dz, np.array([0.0, 1.0]), ELECTRON)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_time_step_ordering(seed):
    # Conventional limit <= min per-cell generalized limit <= generalized
    # limit, for randomized grids and potentials.
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 5, size=3)
    ops = make_ops(*dims, u_scale=0.5 * EV, seed=seed + 1)
    dt_cfl = cfl_limit(ops.grid, ops.potential, ops.constants)
    cell_min, table = per_cell_cfl_gen(ops.grid, ops.potential,
                                       ops.constants)
    dt_gen = cfl_gen_limit(ops, method="dense")
    tol = 1e-12
    assert dt_cfl <= cell_min * (1.0 + tol)
    assert cell_min <= dt_gen * (1.0 + tol)
    assert table.shape == (ops.grid.nz, ops.grid.ny, ops.grid.nx)
    assert table.min() == cell_min


def test_ordering_equality_for_uniform_nonnegative_potential():
    # With a uniform nonnegative potential the conventional limit equals
    # the per-cell limit exactly (up to roundoff).
    ops = make_ops(3, 3, 3, u_offset=0.4 * EV)
    dt_cfl = cfl_limit(ops.grid, ops.potential, ops.constants)
    cell_min, _ = per_cell_cfl_gen(ops.grid, ops.potential, ops.constants)
    assert abs(cell_min - dt_cfl) / dt_cfl <= 1e-12


def test_ordering_strict_for_negative_potential():
    # A uniform negative potential makes the conventional limit strictly
    # conservative: |U| enters the closed form but cancels part of the
    # kinetic spectrum in the exact one.
    ops = make_ops(3, 3, 3, u_offset=-0.4 * EV)
    dt_cfl = cfl_limit(ops.grid, ops.potential, ops.constants)
    cell_min, _ = per_cell_cfl_gen(ops.grid, ops.potential, ops.constants)
    assert cell_min > dt_cfl * (1.0 + 1e-9)


def test_generalized_limit_is_exact_positivity_threshold():
    # Bisection on lambda_min(P(dt)) > 0 must recover 2/rho(Sigma).
    ops = make_ops(3, 2, 4, u_scale=0.3 * EV, seed=9)
    dt_gen = cfl_gen_limit(ops, method="dense")
    lo, hi = 0.5 * dt_gen, 2.0 * dt_gen
    assert lambda_min_P(ops, lo) > 0.0
    assert lambda_min_P(ops, hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lambda_min_P(ops, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(lo - dt_gen) / dt_gen <= 1e-12


def test_lambda_min_P_small_dt_limit():
    # As dt -> 0, P tends to diag(V'', V''), so lambda_min tends to the
    # smallest secondary volume (a corner cell octant).
    ops = make_ops(3, 3, 3, u_scale=0.1 * EV, seed=11)
    lam = lambda_min_P(ops, 1e-30)
    v_min = ops.metrics.v.min()
    assert lam == pytest.approx(v_min, rel=1e-9)
    assert v_min == pytest.approx(ops.grid.cell_volume / 8.0, rel=1e-15)
    with pytest.raises(ValueError):
        lambda_min_P(ops, 0.0)


def test_kappa_P_behaviour():
    ops = make_ops(3, 2, 2, u_scale=0.2 * EV, seed=13)
    dt_gen = cfl_gen_limit(ops, method="dense")
    k_small = kappa_P(ops, 0.1 * dt_gen)
    k_large = kappa_P(ops, 0.9 * dt_gen)
    assert k_small >= 1.0
    assert k_large > k_small  # conditioning degrades toward the limit
    with pytest.raises(StabilityError):
        kappa_P(ops, 2.0 * dt_gen)


def test_check_theorems_report():
    ops = make_ops(3, 3, 3, u_scale=0.2 * EV, seed=15)
    dt_cfl = cfl_limit(ops.grid, ops.potential, ops.constants)
    report = check_theorems(ops.grid, ops.potential, ops.constants,
                            0.999 * dt_cfl)
    assert report.dt_below_cfl and report.dt_below_cfl_gen
    assert report.P_positive_definite
    assert report.ordering_holds
    d = report.as_dict()
    assert d["dt_cfl_seconds"] == report.dt_cfl
    assert "rho(Sigma)" in report.as_text()
    import json
    assert json.loads(report.as_json()) == d
    bad = check_theorems(ops.grid, ops.potential, ops.constants,
                         3.0 * report.dt_cfl_gen)
    assert not bad.P_positive_definite
    assert bad.kappa_P == float("inf")


def test_mass_scaling_of_limits():
    grid = RegionGrid(2, 2, 2, 1e-10, 1e-10, 1e-10)
    pot = PotentialField.uniform(grid)
    light = DiscreteOperators(grid, pot, PhysicalConstants(mass=1e-30))
    heavy = DiscreteOperators(grid, pot, PhysicalConstants(mass=2e-30))
    assert cfl_gen_limit(heavy, method="dense") == pytest.approx(
        2.0 * cfl_gen_limit(light, method="dense"), rel=1e-12)


def _scalar_lcg_start_vector(n, seed):
    state = np.uint64(seed)
    mult = np.uint64(6364136223846793005)
    inc = np.uint64(1442695040888963407)
    out = np.empty(n)
    with np.errstate(over="ignore"):
        for i in range(n):
            state = state * mult + inc
            out[i] = float(state) / 2.0**64 - 0.5
    return out / np.linalg.norm(out)


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1809])
@pytest.mark.parametrize("seed", [0, 1, 27_000_031, 2**63, 2**64 - 1])
def test_lcg_start_vector_matches_the_scalar_run(n, seed):
    assert np.array_equal(_lcg_start_vector(n, seed),
                          _scalar_lcg_start_vector(n, seed))


@st.composite
def one_axis_potentials(draw):
    """A grid with unequal spacings and a U uniform or along one axis."""
    cells = [draw(st.integers(1, 6)) for _ in range(3)]
    spacing = [draw(st.floats(0.3e-9, 2e-9)) for _ in range(3)]
    grid = RegionGrid(*cells, *spacing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = draw(st.sampled_from([None, 0, 1, 2]))
    u3 = np.full(grid.node_shape, draw(st.floats(-1.0, 1.0)) * EV)
    if axis is not None:
        profile = rng.uniform(-1.0, 1.0, cells[axis] + 1) * EV
        shape = [1, 1, 1]
        shape[2 - axis] = cells[axis] + 1
        u3 = u3 + profile.reshape(shape)
    return grid, PotentialField(grid, u3)


@settings(max_examples=40, deadline=None)
@given(one_axis_potentials())
def test_per_axis_spectral_radius_matches_dense(case):
    grid, pot = case
    assert stability._one_axis_potential(pot) is not None
    ops = DiscreteOperators(grid, pot, ELECTRON)
    dense = spectral_radius(ops, method="dense")
    assert abs(spectral_radius(ops) - dense) / dense <= 1e-13


def _per_cell_every_cell(grid, pot):
    """The per-cell table with one 8x8 solve for every cell."""
    kin = stability._cell_kinetic_sigma(grid, ELECTRON)
    u3 = pot.as_3d()
    ncells = grid.nx * grid.ny * grid.nz
    mats = np.broadcast_to(kin, (ncells, 8, 8)).copy()
    for m in range(8):
        di, dj, dk = m & 1, (m >> 1) & 1, m >> 2
        mats[:, m, m] += u3[dk:dk + grid.nz, dj:dj + grid.ny,
                            di:di + grid.nx].reshape(-1) / ELECTRON.hbar
    rho = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
    return (2.0 / rho).reshape(grid.nz, grid.ny, grid.nx)


def _random_potential(seed):
    ops = make_ops(4, 3, 2, u_scale=0.5 * EV, seed=seed)
    return ops.grid, ops.potential


def _step_potential(axis):
    """A step along one axis: cells on either side of it share corners."""
    grid = RegionGrid(5, 4, 6, 1e-9, 1e-9, 1e-9)
    coords = np.meshgrid(*grid.node_coordinates()[::-1], indexing="ij")
    u3 = np.where(coords[2 - axis] >= 2.5e-9, 0.3 * EV, 0.0)
    return grid, PotentialField(grid, u3)


@settings(max_examples=25, deadline=None)
@given(st.one_of(one_axis_potentials(),
                 st.integers(0, 10_000).map(_random_potential),
                 st.sampled_from([0, 1, 2]).map(_step_potential)))
def test_per_cell_limits_solve_each_corner_set_once(case):
    grid, pot = case
    cell_min, table = per_cell_cfl_gen(grid, pot, ELECTRON)
    expected = _per_cell_every_cell(grid, pot)
    assert table.tobytes() == expected.tobytes()
    assert cell_min == expected.min()


def test_three_dimensional_potential_takes_the_fallback():
    ops = make_ops(4, 3, 2, u_scale=0.5 * EV, seed=21)
    assert stability._one_axis_potential(ops.potential) is None
    assert spectral_radius(ops) == spectral_radius(ops, method="dense")


def _one_axis_ops():
    grid = RegionGrid(4, 3, 2, 0.8e-9, 1.1e-9, 1.4e-9)
    pot = PotentialField.from_function(
        grid, lambda x, y, z: 0.3 * EV * np.sin(7e8 * x) + 0.0 * y + 0.0 * z)
    return grid, pot


def _count_solves(monkeypatch):
    """Count Lanczos runs, and record the order of every single-matrix
    eigvalsh or eigh outside them (Lanczos solves its own T_k)."""
    counts = {"lanczos": 0, "orders": []}
    lanczos = stability._lanczos_extreme
    inside = []

    def counted_lanczos(*args, **kwargs):
        counts["lanczos"] += 1
        inside.append(True)
        try:
            return lanczos(*args, **kwargs)
        finally:
            inside.pop()

    def counting(solve):
        def counted(a, *args, **kwargs):
            # The per-cell pass solves a stack at once.
            if np.ndim(a) == 2 and not inside:
                counts["orders"].append(len(a))
            return solve(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(stability, "_lanczos_extreme", counted_lanczos)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    return counts


def _dense_block_ends(ops, dt):
    """(lambda_min, lambda_max) of P from dense solves of its two blocks."""
    h = ops.assemble_H().toarray()
    c = dt / (2.0 * ops.constants.hbar)
    ends = [np.linalg.eigvalsh(np.diag(ops.metrics.v) + s * c * h)
            for s in (-1.0, 1.0)]
    return min(e[0] for e in ends), max(e[-1] for e in ends)


@pytest.mark.parametrize("lanczos", [False, True])
def test_check_theorems_solves_each_block_once(monkeypatch, lanczos):
    # U >= 0 along x: one shift-invert run for the smallest end of V'' - cH
    # and one Lanczos run for the largest end of V'' + cH, whatever the
    # dense threshold (it governs only rho(Sigma) of 3-D potentials).
    grid, pot = _one_axis_ops()
    assert pot.min >= 0.0
    dt = 0.9 * cfl_limit(grid, pot, ELECTRON)
    fresh = [DiscreteOperators(grid, pot, ELECTRON) for _ in range(2)]
    if lanczos:
        monkeypatch.setattr(stability, "DENSE_EIG_MAX_NODES", 0)
    counts = _count_solves(monkeypatch)
    report = check_theorems(grid, pot, ELECTRON, dt)
    # rho(Sigma) and the Kronecker modes each solve the three per-axis
    # factors (orders 5, 4 and 3); no N x N matrix is solved.
    assert counts == {"lanczos": 2, "orders": [5, 4, 3, 5, 4, 3]}
    assert report.lambda_min_P == lambda_min_P(fresh[0], dt)
    assert report.kappa_P == kappa_P(fresh[1], dt)
    assert report.P_positive_definite and report.ordering_holds
    lo, hi = _dense_block_ends(fresh[0], dt)
    assert abs(report.lambda_min_P - lo) <= 1e-13 * hi
    assert abs(report.kappa_P * report.lambda_min_P - hi) <= 1e-13 * hi


@pytest.mark.parametrize("lanczos", [False, True])
def test_unstable_dt_gives_infinite_kappa(monkeypatch, lanczos):
    grid, pot = _one_axis_ops()
    dt = 3.0 * cfl_gen_limit(DiscreteOperators(grid, pot, ELECTRON))
    if lanczos:
        monkeypatch.setattr(stability, "DENSE_EIG_MAX_NODES", 0)
    counts = _count_solves(monkeypatch)
    report = check_theorems(grid, pot, ELECTRON, dt)
    assert not report.P_positive_definite
    assert report.kappa_P == float("inf")
    # V'' - cH is indefinite, so its smallest end is one Lanczos run, and
    # kappa_P stops at it, which lambda_min_P has solved.
    assert counts == {"lanczos": 1, "orders": [5, 4, 3, 5, 4, 3]}


def test_check_theorems_raises_when_kappa_does_not_converge(monkeypatch):
    # kappa_P reads inf only where P is not positive definite; here P is,
    # and the Lanczos run for its largest end stops at maxiter 3.
    grid, pot = _one_axis_ops()
    dt = 0.9 * cfl_limit(grid, pot, ELECTRON)
    lanczos = stability._lanczos_extreme
    runs = []

    def starve_second_run(matvec, start, which):
        runs.append(which)
        if len(runs) == 2:
            return lanczos(matvec, start, which, maxiter=3)
        return lanczos(matvec, start, which)

    monkeypatch.setattr(stability, "_lanczos_extreme", starve_second_run)
    with pytest.raises(StabilityError, match="did not converge"):
        check_theorems(grid, pot, ELECTRON, dt)
    assert len(runs) == 2


def _block_case(cells, spacing, seed, shape, offset, ratio):
    """(ops, dt) for a grid of the given cells and spacings, a U uniform
    (offset eV) or along one axis (0, 1, 2) or 3-D, drawn from seed, and
    dt = ratio times the generalized limit."""
    grid = RegionGrid(*cells, *spacing)
    rng = np.random.default_rng(seed)
    offset *= EV
    if shape == "uniform":
        u3 = np.full(grid.node_shape, offset)
    elif shape == "3-D":
        u3 = offset + rng.uniform(0.0, 1.0, grid.node_shape) * EV
    else:
        profile = rng.uniform(0.0, 1.0, cells[shape] + 1) * EV
        dims = [1, 1, 1]
        dims[2 - shape] = cells[shape] + 1
        u3 = np.broadcast_to(offset + profile.reshape(dims), grid.node_shape)
    ops = DiscreteOperators(grid, PotentialField(grid, u3), ELECTRON)
    return ops, ratio * cfl_gen_limit(ops, method="dense")


@st.composite
def block_cases(draw):
    """Arguments of _block_case: a grid of 1-8 cells per axis, a U
    uniform, along one axis or 3-D, and a time step between 0.05 and 1.5
    times the generalized limit."""
    return ([draw(st.integers(1, 8)) for _ in range(3)],
            [draw(st.floats(0.3e-9, 2e-9)) for _ in range(3)],
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(["uniform", 0, 1, 2, "3-D"])),
            draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.5)))


@pytest.mark.parametrize("dense_max", [stability.DENSE_EIG_MAX_NODES, 0])
@settings(max_examples=40, deadline=None)
@given(block_cases())
# 18 nodes: a Lanczos run capped at n steps stopped 8.6e-6 hi short.
@example(([1, 2, 2], [1.4442619914724259e-09, 1.1267963271858197e-09,
                      1.2499519383660124e-09], 3099886206, "3-D",
          -0.883026005427086, 0.19761609360960591))
# Accepting a stagnant Ritz value with r <= 1e-7 ||T|| stopped 2.6e-11 hi
# away from lambda_min here.
@example(([4, 7, 2], [1.0258151123346875e-09, 1.3630473405175666e-09,
                      1.0945738393585769e-09], 1181312477, 0,
          0.13720370467255227, 0.5508588078529937))
def test_lambda_min_and_kappa_P_match_dense_blocks(dense_max, case):
    ops, dt = _block_case(*case)
    lo, hi = _dense_block_ends(ops, dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "DENSE_EIG_MAX_NODES", dense_max)
        lam = lambda_min_P(ops, dt)
        assert abs(lam - lo) <= 1e-13 * hi
        if lo > 1e-12 * hi:
            assert abs(kappa_P(ops, dt) * lam - hi) <= 1e-13 * hi
        elif lo < -1e-12 * hi:
            with pytest.raises(StabilityError):
                kappa_P(ops, dt)


def test_lambda_min_P_beyond_the_dense_size_matches_shift_invert():
    # 4 913 nodes: past DENSE_EIG_MAX_NODES, with U along z and the
    # well's dt ratio, where the unscaled Lanczos run stopped early.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    grid = RegionGrid(16, 16, 16, 0.9e-9, 1.0e-9, 1.1e-9)
    assert grid.n_nodes > stability.DENSE_EIG_MAX_NODES
    pot = PotentialField.from_function(
        grid, lambda x, y, z: 0.2 * EV * (z / 17.6e-9) ** 2 + 0.0 * x * y)
    ops = DiscreteOperators(grid, pot, ELECTRON)
    dt = 0.999 * cfl_limit(grid, pot, ELECTRON)
    c = dt / (2.0 * ELECTRON.hbar)
    vol = grid.cell_volume
    minus = ((sp.diags(ops.metrics.v) - c * ops.assemble_H()) / vol).tocsc()
    ref = vol * spla.eigsh(minus, k=1, sigma=0.0, which="LM", tol=0,
                           return_eigenvectors=False)[0]
    lam = lambda_min_P(ops, dt)
    assert abs(lam - ref) <= 1e-11 * ref


def _symmetric_with_repeated_top(n, seed):
    """A random symmetric matrix of order n whose top eigenvalue is
    repeated (three times when n >= 3), as the cubic well's Sigma's."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(-1.0, 1.0, n)
    lam[:3] = lam.max()
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T), rng


def _wanted_end(vals, which):
    return {"SA": vals[0], "LA": vals[-1],
            "LM": vals[np.argmax(np.abs(vals))]}[which]


@pytest.mark.parametrize("which", ["SA", "LA", "LM"])
@pytest.mark.parametrize("n", range(1, 31))
def test_lanczos_matches_eigvalsh(n, which):
    a, rng = _symmetric_with_repeated_top(n, seed=n)
    vals = np.linalg.eigvalsh(a)
    got = stability._lanczos_extreme(lambda x: a @ x,
                                     rng.standard_normal(n), which, 100 * n)
    assert abs(got - _wanted_end(vals, which)) <= 1e-13 * np.abs(vals).max()


@pytest.mark.parametrize("which", ["SA", "LA"])
@pytest.mark.parametrize("n", [10, 20, 30])
def test_lanczos_from_a_start_nearly_orthogonal_to_the_end(n, which):
    # The wanted eigenvector makes up 1e-8 of the start vector.
    rng = np.random.default_rng(100 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.uniform(0.0, 1.0, n))
    a = (q * lam) @ q.T
    end = 0 if which == "SA" else n - 1
    others = np.delete(q, end, axis=1)
    start = others @ rng.standard_normal(n - 1) + 1e-8 * q[:, end]
    got = stability._lanczos_extreme(lambda x: a @ x, start, which, 100 * n)
    assert abs(got - lam[end]) <= 1e-13


@pytest.mark.parametrize("rank", [1, 2])
def test_lanczos_stops_on_breakdown(rank):
    # A start vector in an invariant subspace of dimension rank makes
    # beta_rank vanish; the next Lanczos vector would be 0/0.
    a = np.diag(np.arange(1.0, 9.0))
    start = np.zeros(8)
    start[[2, 5][:rank]] = 1.0
    applied = []

    def matvec(x):
        applied.append(x)
        return a @ x

    got = stability._lanczos_extreme(matvec, start, "LA", 800)
    assert len(applied) == rank
    assert got == pytest.approx([3.0, 6.0][rank - 1], rel=1e-15)


def test_lanczos_nonconvergence_reports_state():
    a, rng = _symmetric_with_repeated_top(30, seed=1)
    with pytest.raises(StabilityError) as exc_info:
        stability._lanczos_extreme(lambda x: a @ x, rng.standard_normal(30),
                                   "LA", 3)
    err = exc_info.value
    assert err.last_estimate is not None and err.residual > 0.0
    assert err.last_estimate <= np.linalg.eigvalsh(a)[-1] * (1.0 + 1e-15)
    with pytest.raises(ValueError):
        stability._lanczos_extreme(lambda x: a @ x, rng.standard_normal(30),
                                   "BE", 3)


def test_lanczos_matches_arpack_on_the_barrier_plus_block():
    # The barrier's V'' + cH at its time step: kappa(P) ~ 3 800, the
    # largest block end converges slowest (about 335 Lanczos steps).
    import scipy.sparse.linalg as spla

    from fdtdq.scenarios import GaussianBarrierSpec

    spec = GaussianBarrierSpec()
    grid = spec.grid()
    ops = DiscreteOperators(grid, spec.potential(grid), spec.constants)
    c = spec.time_step() / (2.0 * spec.constants.hbar)
    vol = grid.cell_volume
    d = ops.metrics.v / vol

    def matvec(x):
        x = x.reshape(-1)
        return d * x + (c / vol) * ops.apply_H(x)

    n = grid.n_nodes
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    ref = vol * spla.eigsh(op, k=1, which="LA", tol=0,
                           v0=_lcg_start_vector(n, 1),
                           return_eigenvectors=False)[0]
    got = stability._block_extreme(ops, c, 1.0, "LA")
    assert abs(got - ref) <= 1e-13 * ref


def test_well_plus_block_converges_despite_ghost_copies(monkeypatch):
    # The 30^3-cell well's largest end of V'' + cH.  Once it converges,
    # ghost copies of it keep the residual of the extreme Ritz value from
    # falling: a rule that waited for that residual took 1 939 steps with
    # one BLAS thread, where the best of the cluster is accepted in 119.
    from fdtdq.scenarios import InfiniteWellSpec

    spec = InfiniteWellSpec()
    grid = spec.grid()
    ops = DiscreteOperators(grid, spec.potential(grid), spec.constants)
    lanczos = stability._lanczos_extreme
    steps = []

    def counted(matvec, start, which):
        steps.append(0)

        def counted_matvec(x):
            steps[-1] += 1
            return matvec(x)

        return lanczos(counted_matvec, start, which)

    monkeypatch.setattr(stability, "_lanczos_extreme", counted)
    assert kappa_P(ops, spec.time_step()) > 1.0
    assert len(steps) == 2 and max(steps) <= 200
