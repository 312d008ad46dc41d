import csv
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdtdq import diagnostics
from fdtdq.constants import ELECTRON
from fdtdq.diagnostics import (CSV_COLUMNS, DiagnosticsSeries, SeriesBuilder,
                               probability_current_by_face,
                               probability_simple, supplied_power,
                               total_probability)
from fdtdq.grid import FACES, RegionGrid, PotentialField
from fdtdq.operators import DiscreteOperators
from fdtdq.stability import cfl_limit
from fdtdq.stepper import (BoundaryCondition, NEUMANN0, PRESCRIBED,
                           StaggeredState, StepWindow, run)
from references import (all_neumann, energy_lower_bound, energy_simple,
                        face_current_loop, face_power_loop, join_hanging,
                        split_hanging, total_energy)


def make_ops(nx=4, ny=3, nz=2, seed=0):
    grid = RegionGrid(nx, ny, nz, 0.8e-9, 1.0e-9, 1.2e-9)
    rng = np.random.default_rng(seed)
    u = 1.6e-20 * rng.uniform(-1.0, 1.0, grid.n_nodes)
    return DiscreteOperators(grid, PotentialField(grid, u), ELECTRON)


def driven_setup(ops, seed=1, amp=1e3):
    """Neumann box with one prescribed face fed by a smooth complex source."""
    rng = np.random.default_rng(seed)
    shape = ops.grid.face_shape("W")
    a = rng.standard_normal(shape) * amp
    b = rng.standard_normal(shape) * amp
    omega = 1e14

    def src(face, t):
        return a * np.cos(omega * t) + 1j * b * np.sin(omega * t)

    kinds = {f: NEUMANN0 for f in FACES}
    kinds["W"] = PRESCRIBED
    bc = BoundaryCondition(kinds, sources={"W": src})
    state = StaggeredState(
        psiR=rng.standard_normal(ops.grid.n_nodes),
        psiI=rng.standard_normal(ops.grid.n_nodes))
    return bc, state


def test_probability_matches_quadratic_form_of_P_matrix():
    # P^n must equal z^T P z with z = [psi_R; psi_I - (dt / 2 hbar)
    # V''^{-1} H psi_R] ... verified here directly against the assembled
    # block matrix acting on the plain staggered pair via its algebraic
    # expansion.
    ops = make_ops(seed=3)
    dt = 0.9 * cfl_limit(ops.grid, ops.potential, ops.constants)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(ops.grid.n_nodes)
    i = rng.standard_normal(ops.grid.n_nodes)
    p_blocks = ops.assemble_P(dt)
    z = np.concatenate([r, i])
    # z^T P z = r^T V r + i^T V i - (dt/hbar) i^T H r  (H symmetric).
    expected = float(z @ (p_blocks @ z))
    got = total_probability(r, i, ops, dt)
    assert got == pytest.approx(expected, rel=1e-13)


def test_energy_matches_assembled_H_quadratic_form():
    ops = make_ops(seed=4)
    h = ops.assemble_H()
    rng = np.random.default_rng(6)
    r = rng.standard_normal(ops.grid.n_nodes)
    i = rng.standard_normal(ops.grid.n_nodes)
    expected = float(r @ h @ r + i @ h @ i)
    assert energy_simple(r, i, ops) == pytest.approx(expected, rel=1e-13)
    # total_energy adds the staggered correction term.
    dt = 1e-18
    r_prev = rng.standard_normal(r.size)
    i_next = rng.standard_normal(i.size)
    corr = (ops.constants.hbar / dt) * float(
        (r - r_prev) @ (ops.metrics.v * (i_next - i)))
    assert total_energy(r, r_prev, i, i_next, ops, dt) == pytest.approx(
        expected + corr, rel=1e-12)


def test_probability_balance_identity_driven_run():
    # (P^{n+1} - P^n)/dt = -I_P^{n+1/2} holds to roundoff every step,
    # including with a time-dependent complex source on one face.
    ops = make_ops(seed=7)
    bc, state = driven_setup(ops, seed=8)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    n_t = 40
    _, series = run(state, ops, bc, dt, n_t)
    p = series.P
    lhs = (p[1:] - p[:-1]) / dt
    scale = max(np.max(np.abs(lhs)), 1.0)
    assert np.max(np.abs(lhs + series.I_P)) / scale <= 1e-12


def test_energy_balance_identity_driven_run():
    # (H^{n+1} - H^n)/dt = s^{n+1/2} on the interior validity window.
    ops = make_ops(seed=9)
    bc, state = driven_setup(ops, seed=10)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    n_t = 40
    _, series = run(state, ops, bc, dt, n_t)
    h = series.H
    for n in range(1, n_t - 1):
        lhs = (h[n + 1] - h[n]) / dt
        scale = max(abs(lhs), abs(h[n] / dt), 1.0)
        assert abs(lhs - series.s[n]) / scale <= 1e-11, n


def test_validity_windows():
    ops = make_ops(seed=11)
    bc, state = driven_setup(ops, seed=12)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    n_t = 12
    _, series = run(state, ops, bc, dt, n_t)
    assert np.all(np.isfinite(series.P))
    assert np.all(np.isfinite(series.P_simple))
    assert np.all(np.isfinite(series.I_P))
    assert np.isnan(series.H[0]) and np.all(np.isfinite(series.H[1:n_t]))
    assert np.isnan(series.s[0]) and np.isnan(series.s[n_t - 1])
    assert np.all(np.isfinite(series.s[1:n_t - 1]))
    assert np.allclose(series.I_P, series.I_P_faces.sum(axis=1))


def test_residuals_zero_at_origin_and_consistent():
    ops = make_ops(seed=13)
    bc, state = driven_setup(ops, seed=14)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    _, series = run(state, ops, bc, dt, 20)
    res_p, res_h = series.compute_residuals(norm_P=1.0, norm_H=1.0)
    assert res_p[0] == 0.0
    assert res_h[1] == 0.0
    # Residuals are telescoped balance errors; with exact identities they
    # stay at roundoff relative to the running sums.
    p_scale = np.max(np.abs(series.P))
    assert np.max(np.abs(res_p)) <= 1e-10 * p_scale
    # Normalization divides through.
    res_p2, _ = series.compute_residuals(norm_P=2.0, norm_H=1.0)
    assert np.allclose(res_p2, res_p / 2.0, equal_nan=True)


def window_of(psiR_n, psiR_np1, psiI_nm, psiI_np, grad_r, grad_i):
    """A step window holding just what the boundary fluxes read."""
    return StepWindow(n=0, psiR_n=psiR_n, psiR_np1=psiR_np1,
                      psiI_nm=psiI_nm, psiI_np=psiI_np, gradR_n=grad_r,
                      gradI_np=grad_i, h_psiR_n=None, h_psiI_np=None)


def test_current_sign_convention():
    # A positive outward derivative of the real part on the east face with
    # positive psi_I there produces negative I_P (probability flowing in).
    ops = make_ops(seed=15)
    r = np.zeros(ops.grid.n_nodes)
    i = np.ones(ops.grid.n_nodes)
    grad_r = ops.zero_hanging()
    faces = split_hanging(ops, grad_r)
    faces["E"] = np.ones(ops.grid.face_shape("E"))
    grad_r = join_hanging(ops, faces)
    by_face = probability_current_by_face(
        ops, window_of(r, r, i, i, grad_r, ops.zero_hanging()))
    assert by_face["E"] < 0.0
    assert all(by_face[f] == 0.0 for f in FACES if f != "E")


def test_supplied_power_zero_for_isolated_box():
    ops = make_ops(seed=16)
    rng = np.random.default_rng(17)
    zero = np.zeros(ops.grid.n_nodes)
    window = window_of(zero, rng.standard_normal(ops.grid.n_nodes),
                       zero, rng.standard_normal(ops.grid.n_nodes),
                       ops.zero_hanging(), ops.zero_hanging())
    val = supplied_power(ops, window, ops.zero_hanging(),
                         ops.zero_hanging(), 1e-18)
    assert val == 0.0


def test_energy_lower_bound_is_a_bound():
    ops = make_ops(seed=18)
    bc = all_neumann()
    rng = np.random.default_rng(19)
    state = StaggeredState(psiR=rng.standard_normal(ops.grid.n_nodes),
                           psiI=rng.standard_normal(ops.grid.n_nodes))
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    _, series = run(state, ops, bc, dt, 30)
    bound = energy_lower_bound(ops, dt, float(np.max(np.abs(series.P))))
    assert np.nanmin(series.H) >= bound


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_csv_roundtrip_and_windows(tmp_path):
    ops = make_ops(seed=20)
    bc, state = driven_setup(ops, seed=21)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    n_t = 10
    _, series = run(state, ops, bc, dt, n_t)
    series.compute_residuals(norm_P=1.0, norm_H=1.0)
    path = tmp_path / "series.csv"
    series.write_csv(path)
    rows = csv_rows(path)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == n_t + 2
    cols = {name: idx for idx, name in enumerate(CSV_COLUMNS)}
    # 17 significant digits round-trip exactly in binary64.
    for n, row in enumerate(rows[1:]):
        assert int(row[cols["n"]]) == n
        assert float(row[cols["P"]]) == series.P[n]
        if 1 <= n <= n_t - 1:
            assert float(row[cols["H"]]) == series.H[n]
        else:
            assert row[cols["H"]] == ""
        if 1 <= n <= n_t - 2:
            assert float(row[cols["s"]]) == series.s[n]
        else:
            assert row[cols["s"]] == ""
    # Last row has no half-step quantities.
    assert rows[-1][cols["I_P_total"]] == ""


def test_csv_stride_and_header_only(tmp_path):
    ops = make_ops(seed=22)
    bc, state = driven_setup(ops, seed=23)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    _, series = run(state, ops, bc, dt, 9)
    path = tmp_path / "strided.csv"
    series.write_csv(path, stride=4)
    rows = csv_rows(path)
    assert [r[0] for r in rows[1:]] == ["0", "4", "8"]
    with pytest.raises(ValueError):
        series.write_csv(path, stride=0)
    # A zero-step run writes the header only.
    _, empty = run(state, ops, bc, dt, 0)
    path2 = tmp_path / "empty.csv"
    empty.write_csv(path2)
    assert csv_rows(path2) == [list(CSV_COLUMNS)]


def test_csv_byte_identical_across_repeat_runs(tmp_path):
    ops = make_ops(seed=24)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    paths = []
    for tag in ("a", "b"):
        bc, state = driven_setup(ops, seed=25)
        _, series = run(state, ops, bc, dt, 25)
        series.compute_residuals(norm_P=1.0, norm_H=1.0)
        p = tmp_path / f"{tag}.csv"
        series.write_csv(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_write_is_atomic(tmp_path, monkeypatch):
    ops = make_ops(seed=26)
    bc, state = driven_setup(ops, seed=27)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ops.constants)
    _, series = run(state, ops, bc, dt, 12)
    path = tmp_path / "series.csv"
    series.write_csv(path)
    earlier = path.read_bytes()

    class FailingWriter:
        """A csv writer that raises after a few rows, mid-file."""

        def __init__(self, fh):
            self.writer, self.rows = csv.writer(fh), 0

        def writerow(self, row):
            if self.rows == 4:
                raise OSError("no space left on device")
            self.rows += 1
            self.writer.writerow(row)

    monkeypatch.setattr(diagnostics, "_csv",
                        SimpleNamespace(writer=FailingWriter))
    series.compute_residuals(norm_P=1.0, norm_H=1.0)
    with pytest.raises(OSError):
        series.write_csv(path)
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def _window(ops, n, rng, psiI_nm, scale, hanging=False):
    """A StepWindow of step n with random states and consistent H
    products; psiI_nm is psi_I^{n-1/2} (shared with the previous window's
    psi_I^{n+1/2}).  The hanging vectors are random if hanging is set,
    else zero."""
    size = ops.grid.n_nodes
    psiR_n = scale * rng.standard_normal(size)
    psiI_np = scale * rng.standard_normal(size)
    grad_r, grad_i = (scale * rng.standard_normal((2, ops.n_hanging))
                      if hanging else (ops.zero_hanging(),) * 2)
    return StepWindow(
        n=n, psiR_n=psiR_n, psiR_np1=scale * rng.standard_normal(size),
        psiI_nm=psiI_nm, psiI_np=psiI_np, gradR_n=grad_r, gradI_np=grad_i,
        h_psiR_n=ops.apply_H(psiR_n), h_psiI_np=ops.apply_H(psiI_np))


def _random_ops(cells, rng):
    grid = RegionGrid(*cells, *rng.uniform(0.5e-9, 1.5e-9, 3))
    return DiscreteOperators(grid, PotentialField(
        grid, 1.6e-20 * rng.uniform(-1.0, 1.0, grid.n_nodes)), ELECTRON)


# Flux-face tuples in any order, the three faces of one corner among them
# (W, S and B share edge nodes pairwise and the corner node).
FACE_TUPLES = st.one_of(
    st.just(("W", "S", "B")),
    st.lists(st.sampled_from(FACES), unique=True).map(tuple))


@settings(max_examples=80, deadline=None)
@example(cells=(1, 1, 1), faces=("W", "S", "B"), scale=1.0, seed=0)
@given(cells=st.tuples(*[st.integers(1, 5)] * 3), faces=FACE_TUPLES,
       scale=st.sampled_from([1e-3, 1.0, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_gathered_face_sums_equal_the_per_face_loops_bitwise(
        cells, faces, scale, seed):
    # The fluxes gather the listed faces' samples into flat vectors and
    # sum each face over its own slice; every face's I_P and s must have
    # the bits of the loop that forms each face on its 2D node slice.
    rng = np.random.default_rng(seed)
    ops = _random_ops(cells, rng)
    dt = 0.5 * cfl_limit(ops.grid, ops.potential, ELECTRON)
    win = _window(ops, 3, rng, scale * rng.standard_normal(ops.grid.n_nodes),
                  scale, hanging=True)
    grad_r_next, grad_i_prev = scale * rng.standard_normal(
        (2, ops.n_hanging))

    current = face_current_loop(ops, win, faces)
    power = face_power_loop(ops, win, grad_r_next, grad_i_prev, dt, faces)
    samples = ops.face_set(faces).gather(win)
    for w in (win, samples):
        got = probability_current_by_face(ops, w, faces)
        assert all(got[f] == current[f] for f in FACES)
        assert supplied_power(ops, w, grad_r_next, grad_i_prev, dt,
                              faces) == power


def test_face_samples_belong_to_their_faces():
    ops = make_ops()
    rng = np.random.default_rng(4)
    win = _window(ops, 3, rng, rng.standard_normal(ops.grid.n_nodes), 1.0,
                  hanging=True)
    assert ops.face_set(["W", "E"]) is ops.face_set(("W", "E"))
    samples = ops.face_set(("W", "E")).gather(win)
    with pytest.raises(ValueError):
        probability_current_by_face(ops, samples, ("W",))


@settings(max_examples=40, deadline=None)
@given(cells=st.tuples(*[st.integers(1, 5)] * 3),
       stride=st.integers(1, 12), n=st.integers(1, 40),
       scale=st.sampled_from([1e-3, 1.0, 1e6]),
       seed=st.integers(0, 2**32 - 1), faces=FACE_TUPLES)
def test_buffered_record_equals_the_observable_functions_bitwise(
        cells, stride, n, scale, seed, faces):
    # record forms its products in preallocated buffers and evaluates
    # only the rows a CSV of its stride keeps, plus n = 1; on those rows
    # every quadratic form must have the bits of the public functions.
    # It gathers each window's face samples once, for I_P of its step and
    # s at the next record; both must have the bits of the face loops.
    rng = np.random.default_rng(seed)
    ops = _random_ops(cells, rng)
    grid = ops.grid
    dt = 0.5 * cfl_limit(grid, ops.potential, ELECTRON)
    builder = SeriesBuilder(ops, dt, n + 2, faces=faces, stride=stride)
    prev = _window(ops, n - 1, rng,
                   scale * rng.standard_normal(grid.n_nodes), scale,
                   hanging=True)
    builder.record(prev)
    win = _window(ops, n, rng, prev.psiI_np, scale, hanging=True)
    builder.record(win)

    for row, w in ((n - 1, prev), (n, win)):
        if row % stride == 0 or row == 1:
            assert builder.P[row] == total_probability(
                w.psiR_n, w.psiI_nm, ops, dt, h_psiR=w.h_psiR_n)
            assert builder.P_simple[row] == probability_simple(
                w.psiR_n, w.psiI_nm, ops)
        else:
            assert np.isnan(builder.P[row])
            assert np.isnan(builder.P_simple[row])
    if n % stride == 0 or n == 1:
        assert builder.H[n] == total_energy(
            win.psiR_n, prev.psiR_n, win.psiI_nm, win.psiI_np, ops, dt,
            h_psiR=win.h_psiR_n, h_psiI=prev.h_psiI_np)
        assert builder.H_simple[n] == energy_simple(
            win.psiR_n, win.psiI_nm, ops, h_psiR=win.h_psiR_n,
            h_psiI=prev.h_psiI_np)
    else:
        assert np.isnan(builder.H[n]) and np.isnan(builder.H_simple[n])
    # The fluxes are recorded on every row, whatever the stride.
    for row, w in ((n - 1, prev), (n, win)):
        current = face_current_loop(ops, w, faces)
        assert list(builder.I_P_faces[row]) == [current[f] for f in FACES]
        assert builder.I_P[row] == sum(current[f] for f in FACES)
    # s^{n+1/2} needs gradR^{n+1}, so the next window's record sets it.
    assert np.isnan(builder.s[n])
    nxt = _window(ops, n + 1, rng, win.psiI_np, scale, hanging=True)
    builder.record(nxt)
    assert builder.s[n] == face_power_loop(ops, win, nxt.gradR_n,
                                           prev.gradI_np, dt, faces)


def test_series_builder_rejects_stride_below_one():
    ops = make_ops()
    with pytest.raises(ValueError):
        SeriesBuilder(ops, 1e-16, 5, stride=0)
