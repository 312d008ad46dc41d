import numpy as np
import pytest

from fdtdq.constants import ELECTRON
from fdtdq.grid import FACES, RegionGrid, PotentialField, face_node_slices
from fdtdq.operators import DiscreteOperators
from fdtdq.stepper import (BoundaryCondition, DIRICHLET0, DivergenceError,
                           NEUMANN0, PRESCRIBED, StaggeredState, _largest,
                           load_checkpoint, run, save_checkpoint, step)
from references import all_neumann, split_hanging


def make_ops(nx=4, ny=3, nz=3, u=0.0):
    grid = RegionGrid(nx, ny, nz, 1e-9, 1e-9, 1e-9)
    return DiscreteOperators(grid, PotentialField.uniform(grid, u), ELECTRON)


def random_state(ops, seed=0):
    rng = np.random.default_rng(seed)
    return StaggeredState(psiR=rng.standard_normal(ops.grid.n_nodes),
                          psiI=rng.standard_normal(ops.grid.n_nodes))


def stable_dt(ops):
    from fdtdq.stability import cfl_limit
    return 0.9 * cfl_limit(ops.grid, ops.potential, ops.constants)


def test_zero_state_stays_zero():
    ops = make_ops()
    bc = BoundaryCondition.all_dirichlet()
    n = ops.grid.n_nodes
    state = StaggeredState(psiR=np.zeros(n), psiI=np.zeros(n))
    state, series = run(state, ops, bc, stable_dt(ops), 5)
    assert np.all(state.psiR == 0.0) and np.all(state.psiI == 0.0)
    assert np.all(series.P == 0.0)


def test_dirichlet_faces_stay_pinned():
    ops = make_ops()
    bc = BoundaryCondition.all_dirichlet()
    state = random_state(ops, seed=1)
    mask = bc.pinned_mask(ops.grid).reshape(-1)
    state.psiR[mask] = 0.0
    state.psiI[mask] = 0.0
    dt = stable_dt(ops)
    for _ in range(10):
        state, _ = step(state, ops, bc, dt)
    assert np.all(state.psiR[mask] == 0.0)
    assert np.all(state.psiI[mask] == 0.0)
    assert np.max(np.abs(state.psiR[~mask])) > 0.0


def test_dirichlet_box_balance_holds_from_any_initial_state():
    # A random state is nonzero on the walls.  The update never moves a
    # pinned sample, so run projects them to zero before P^0; otherwise
    # they sit in P^n and the probability balance is off from step one.
    ops = make_ops()
    bc = BoundaryCondition.all_dirichlet()
    state0 = random_state(ops, seed=7)
    psi_r0 = state0.psiR.copy()
    _, series = run(state0, ops, bc, stable_dt(ops), 20)
    res_p, _ = series.compute_residuals()
    assert np.nanmax(np.abs(res_p)) <= 1e-13
    assert np.array_equal(state0.psiR, psi_r0)


def test_step_matches_explicit_update_formula():
    ops = make_ops(u=1e-20)
    bc = all_neumann()
    state = random_state(ops, seed=2)
    dt = stable_dt(ops)
    hbar = ops.constants.hbar
    v = ops.v3.reshape(-1)
    psi_i = state.psiI + (dt / hbar) * (-ops.apply_H(state.psiR)) / v
    psi_r = state.psiR + (dt / hbar) * ops.apply_H(psi_i) / v
    new, window = step(state, ops, bc, dt)
    assert np.array_equal(new.psiI, psi_i)
    assert np.array_equal(new.psiR, psi_r)
    assert window.n == 0
    assert window.psiR_n is state.psiR
    assert np.array_equal(window.h_psiI_np, ops.apply_H(psi_i))


def test_prescribed_source_complex_parts():
    # Real part of the source must drive the imaginary half step at t = n dt,
    # imaginary part the real half step at t = (n + 1/2) dt.
    ops = make_ops()
    calls = []

    def src(face, t):
        calls.append(t)
        return 3.0 + 4.0j

    kinds = {f: NEUMANN0 for f in FACES}
    kinds["W"] = PRESCRIBED
    bc = BoundaryCondition(kinds, sources={"W": src})
    dt = stable_dt(ops)
    state = random_state(ops, seed=3)
    state.n = 2
    step(state, ops, bc, dt)
    assert calls == [pytest.approx(2 * dt), pytest.approx(2.5 * dt)]
    grad_r = bc.hanging_at(ops, 0.0, part="real")
    grad_i = bc.hanging_at(ops, 0.0, part="imag")
    w = split_hanging(ops, grad_r)["W"]
    assert np.all(w == 3.0)
    assert np.all(split_hanging(ops, grad_i)["W"] == 4.0)
    for f in FACES[1:]:
        assert np.all(split_hanging(ops, grad_r)[f] == 0.0)


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition({"W": DIRICHLET0})  # missing faces
    kinds = {f: NEUMANN0 for f in FACES}
    with pytest.raises(ValueError):
        BoundaryCondition({**kinds, "E": "absorbing"})
    with pytest.raises(ValueError):
        BoundaryCondition({**kinds, "E": PRESCRIBED})  # no source


def test_step_rejects_bad_dt():
    ops = make_ops()
    with pytest.raises(ValueError):
        step(random_state(ops), ops, all_neumann(), 0.0)
    with pytest.raises(ValueError):
        run(random_state(ops), ops, all_neumann(),
            1e-18, -1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergence_guard_attaches_partial_series():
    ops = make_ops()
    bc = BoundaryCondition.all_dirichlet()
    state = random_state(ops, seed=4)
    mask = bc.pinned_mask(ops.grid).reshape(-1)
    state.psiR[mask] = 0.0
    state.psiI[mask] = 0.0
    from fdtdq.stability import cfl_limit
    dt = 1.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    with pytest.raises(DivergenceError) as exc_info:
        run(state, ops, bc, dt, 2000, guard_factor=1e3)
    exc = exc_info.value
    assert exc.step > 0
    assert hasattr(exc, "series")
    assert exc.series.steps_completed == exc.step
    # A guard level that overflows to inf never trips; leapfrog's check
    # then stops the run at the first step that leaves a non-finite
    # sample, before that step is recorded.
    state2 = random_state(ops, seed=4)
    state2.psiR[mask] = 0.0
    state2.psiI[mask] = 0.0
    with pytest.raises(DivergenceError) as exc_info:
        run(state2, ops, bc, dt, 20000, guard_factor=1e308)
    exc = exc_info.value
    assert exc.norm == np.inf
    assert exc.series.steps_completed == exc.step - 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_largest_reads_any_non_finite_sample_as_inf(bad):
    # Whatever the order of the arrays: Python's max drops a NaN that
    # follows a number, so a NaN once gave 1.0 in one order, nan in the
    # other.
    ones, spoiled = np.ones(3), np.array([bad, 0.0])
    assert _largest([ones, spoiled]) == np.inf
    assert _largest([spoiled, ones]) == np.inf


def test_largest_of_finite_samples_never_overflows():
    # The extremes of finite samples are finite, where their sum is not.
    big = np.array([1.5e308, 1.5e308, -1.7e308])
    with np.errstate(over="ignore"):
        assert np.isinf(big.sum())
    assert _largest([np.array([-3.0, 2.0]), big]) == 1.7e308
    assert _largest([np.array([-3.0, 2.0]), np.array([1.0])]) == 3.0


def test_checkpoint_exact_roundtrip(tmp_path):
    ops = make_ops()
    bc = all_neumann()
    state = random_state(ops, seed=5)
    dt = stable_dt(ops)
    for _ in range(3):
        state, _ = step(state, ops, bc, dt)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.n == state.n
    assert np.array_equal(loaded.psiR, state.psiR)
    assert np.array_equal(loaded.psiI, state.psiI)
    assert np.array_equal(loaded.psiR_prev, state.psiR_prev)
    assert np.array_equal(loaded.gradR_prev, state.gradR_prev)
    assert np.array_equal(loaded.gradI_prev, state.gradI_prev)
    # Continuing from the checkpoint reproduces the original trajectory
    # bit for bit.
    a, _ = step(state.copy(), ops, bc, dt)
    b, _ = step(loaded, ops, bc, dt)
    assert np.array_equal(a.psiR, b.psiR)
    assert np.array_equal(a.psiI, b.psiI)


def test_fresh_checkpoint_roundtrips_none_fields(tmp_path):
    ops = make_ops()
    state = random_state(ops, seed=6)
    path = tmp_path / "fresh.npz"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.psiR_prev is None
    assert loaded.gradR_prev is None
    assert loaded.gradI_prev is None


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path,
                                                       monkeypatch):
    ops = make_ops()
    first, second = random_state(ops, seed=7), random_state(ops, seed=8)
    path = tmp_path / "checkpoint_00000001.npz"
    save_checkpoint(path, first)
    savez = np.savez

    def interrupted(file, **arrays):
        savez(file, **arrays)  # a full archive, then a failure
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, second)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert np.array_equal(load_checkpoint(path).psiR, first.psiR)


def test_run_zero_steps():
    ops = make_ops()
    state = random_state(ops, seed=7)
    final, series = run(state, ops, all_neumann(),
                        1e-18, 0)
    assert final is state
    assert series.n_t == 0
    assert series.P.size == 1
