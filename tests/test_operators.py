import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtdq.constants import ELECTRON, PhysicalConstants
from fdtdq.grid import (FACES, RegionGrid, PotentialField, boundary_weights,
                        metric_diagonals)
from fdtdq.operators import (DiscreteOperators, MAX_ASSEMBLY_NODES,
                             build_boundary_L, build_incidence_D)

RNG = np.random.default_rng(20260823)


def make_ops(nx=3, ny=2, nz=4, seed=0, uniform_u=None):
    grid = RegionGrid(nx, ny, nz, 0.7e-9, 1.1e-9, 0.9e-9)
    if uniform_u is None:
        rng = np.random.default_rng(seed)
        u = 1.6e-19 * rng.uniform(-1.0, 1.0, grid.n_nodes)
    else:
        u = np.full(grid.n_nodes, uniform_u)
    return DiscreteOperators(grid, PotentialField(grid, u), ELECTRON)


def rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_incidence_columns_sum_to_zero():
    grid = RegionGrid(3, 2, 4, 1e-9, 1e-9, 1e-9)
    d = build_incidence_D(grid)
    assert d.shape == (grid.n_nodes, grid.n_edges)
    col_sums = np.asarray(d.sum(axis=0)).reshape(-1)
    assert np.all(col_sums == 0.0)
    dense = d.toarray()
    assert np.all(np.sum(np.abs(dense), axis=0) == 2.0)
    assert set(np.unique(dense)) == {-1.0, 0.0, 1.0}


def test_boundary_L_columns_are_unit_basis_vectors():
    grid = RegionGrid(3, 2, 4, 1e-9, 1e-9, 1e-9)
    ell = build_boundary_L(grid)
    assert ell.shape == (grid.n_nodes, grid.n_hanging)
    dense = ell.toarray()
    assert np.all(np.sum(dense, axis=0) == 1.0)
    assert np.all(np.sum(np.abs(dense), axis=0) == 1.0)
    # Each column's node must actually lie on the claimed face.
    offsets = grid.hanging_offsets()
    rows = np.argmax(dense, axis=0)
    nx1, ny1 = grid.nx + 1, grid.ny + 1
    west = rows[offsets["W"]:offsets["W"] + grid.face_size("W")]
    assert np.all(west % nx1 == 0)
    east = rows[offsets["E"]:offsets["E"] + grid.face_size("E")]
    assert np.all(east % nx1 == grid.nx)
    top = rows[offsets["T"]:offsets["T"] + grid.face_size("T")]
    assert np.all(top // (nx1 * ny1) == grid.nz)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000))
def test_matrix_free_H_matches_assembled(seed):
    ops = make_ops(seed=seed)
    h = ops.assemble_H()
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal(ops.grid.n_nodes)
    assert rel(ops.apply_H(v), h @ v) <= 1e-14


def test_assembled_H_is_exactly_symmetric():
    ops = make_ops(seed=7)
    h = ops.assemble_H()
    diff = (h - h.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_matrix_free_Hbot_matches_assembled():
    ops = make_ops(seed=3)
    hb = ops.assemble_Hbot()
    rng = np.random.default_rng(11)
    b = rng.standard_normal(ops.grid.n_hanging)
    assert rel(ops.apply_Hbot(b), hb @ b) <= 1e-14
    v = rng.standard_normal(ops.grid.n_nodes)
    assert rel(ops.apply_Hbot_T(v), hb.T @ v) <= 1e-14


def test_Hbot_transpose_adjoint_identity():
    ops = make_ops(seed=5)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(ops.grid.n_nodes)
    b = rng.standard_normal(ops.grid.n_hanging)
    lhs = float(v @ ops.apply_Hbot(b))
    rhs = float(ops.apply_Hbot_T(v) @ b)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def stencil_3d_H(ops, v):
    """The 3-D stencil form of apply_H (np.diff along each node axis),
    as the bitwise reference of the flat-offset form."""
    grid, kin = ops.grid, ops.constants.kinetic_factor
    shape = grid.node_shape
    wx = boundary_weights(grid.nx + 1)
    wy = boundary_weights(grid.ny + 1)
    wz = boundary_weights(grid.nz + 1)
    cx = kin * (grid.dy * grid.dz / grid.dx) \
        * wz[:, None, None] * wy[None, :, None]
    cy = kin * (grid.dx * grid.dz / grid.dy) \
        * wz[:, None, None] * wx[None, None, :]
    cz = kin * (grid.dx * grid.dy / grid.dz) \
        * wy[None, :, None] * wx[None, None, :]
    psi = v.reshape(shape)
    out = (ops.metrics.v.reshape(shape)
           * ops.potential.values.reshape(shape)) * psi
    g = cx * np.diff(psi, axis=2)
    out[:, :, :-1] -= g
    out[:, :, 1:] += g
    g = cy * np.diff(psi, axis=1)
    out[:, :-1, :] -= g
    out[:, 1:, :] += g
    g = cz * np.diff(psi, axis=0)
    out[:-1, :, :] -= g
    out[1:, :, :] += g
    return out.reshape(-1)


@settings(max_examples=60, deadline=None)
@given(cells=st.tuples(*[st.integers(1, 4)] * 3),
       spacing=st.tuples(*[st.floats(0.3e-9, 3e-9)] * 3),
       seed=st.integers(0, 2**32 - 1), complex_v=st.booleans())
def test_flat_offset_H_equals_3d_stencil_bitwise(cells, spacing, seed,
                                                 complex_v):
    # nx = 1 or ny = 1 puts every x (y) difference next to a row (plane)
    # wrap, which the flat form has to zero.
    grid = RegionGrid(*cells, *spacing)
    rng = np.random.default_rng(seed)
    u = 1.6e-19 * rng.uniform(-1.0, 1.0, grid.n_nodes)
    ops = DiscreteOperators(grid, PotentialField(grid, u), ELECTRON)
    v = rng.standard_normal(grid.n_nodes)
    if complex_v:
        v = v + 1j * rng.standard_normal(grid.n_nodes)
    ref = stencil_3d_H(ops, v)
    got = ops.apply_H(v)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    assert np.array_equal(ops.apply_H(v[:, None]), ref)


def test_H_annihilates_constants_when_potential_is_zero():
    ops = make_ops(uniform_u=0.0)
    out = ops.apply_H(np.ones(ops.grid.n_nodes))
    assert np.max(np.abs(out)) == 0.0


def test_sigma_similarity_with_dense_assembly():
    ops = make_ops(seed=9)
    sig = ops.assemble_sigma_dense()
    assert rel(sig, sig.T) <= 1e-13
    rng = np.random.default_rng(17)
    v = rng.standard_normal(ops.grid.n_nodes)
    assert rel(ops.apply_sigma(v), sig @ v) <= 1e-13
    # Sigma shares its spectrum with (1/hbar) V''^{-1} H.
    m = metric_diagonals(ops.grid)
    gen = (ops.assemble_H().toarray() / m.v[:, None]) / ops.constants.hbar
    assert rel(np.sort(np.linalg.eigvalsh(sig)),
               np.sort(np.linalg.eigvals(gen).real)) <= 1e-10


def test_P_matrix_blocks(tmp_path):
    ops = make_ops(seed=2)
    dt = 1e-18
    p = ops.assemble_P(dt).toarray()
    n = ops.grid.n_nodes
    m = metric_diagonals(ops.grid)
    c = dt / (2.0 * ops.constants.hbar)
    h = ops.assemble_H().toarray()
    assert np.array_equal(p[:n, :n], np.diag(m.v))
    assert np.array_equal(p[n:, n:], np.diag(m.v))
    assert rel(p[:n, n:], -c * h) == 0.0
    assert rel(p[n:, :n], -c * h) == 0.0
    with pytest.raises(ValueError):
        ops.assemble_P(0.0)


def test_assembly_size_guard():
    grid = RegionGrid(99, 99, 99, 1e-9, 1e-9, 1e-9)
    assert grid.n_nodes > MAX_ASSEMBLY_NODES
    ops = DiscreteOperators(grid, PotentialField.uniform(grid), ELECTRON)
    with pytest.raises(ValueError):
        ops.assemble_H()


def test_vector_length_checks():
    ops = make_ops()
    with pytest.raises(ValueError):
        ops.apply_H(np.zeros(3))
    with pytest.raises(ValueError):
        ops.apply_Hbot(np.zeros(3))
    with pytest.raises(ValueError):
        ops.apply_Hbot_T(np.zeros(3))


def test_split_join_hanging_roundtrip():
    ops = make_ops()
    rng = np.random.default_rng(23)
    b = rng.standard_normal(ops.grid.n_hanging)
    assert np.array_equal(ops.join_hanging(ops.split_hanging(b)), b)
    assert np.array_equal(ops.zero_hanging(), np.zeros(ops.grid.n_hanging))


def test_kinetic_factor_scaling():
    grid = RegionGrid(2, 2, 2, 1e-9, 1e-9, 1e-9)
    pot = PotentialField.uniform(grid)
    light = DiscreteOperators(grid, pot, PhysicalConstants(mass=1e-30))
    heavy = DiscreteOperators(grid, pot, PhysicalConstants(mass=2e-30))
    v = np.random.default_rng(31).standard_normal(grid.n_nodes)
    assert rel(light.apply_H(v), 2.0 * heavy.apply_H(v)) <= 1e-15
