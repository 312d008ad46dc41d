import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtdq.constants import to_si
from fdtdq.grid import (PotentialField, RegionGrid, boundary_weights,
                        face_node_slices, metric_diagonals)
from references import node_index, secondary_volume


def small_grid(nx=3, ny=2, nz=4):
    return RegionGrid(nx, ny, nz, 1e-9, 2e-9, 0.5e-9)


def test_validation():
    with pytest.raises(ValueError):
        RegionGrid(0, 1, 1, 1e-9, 1e-9, 1e-9)
    with pytest.raises(ValueError):
        RegionGrid(1, 1, 1, 0.0, 1e-9, 1e-9)


def test_node_index_linear_order_matches_3d_views():
    grid = small_grid()
    arr = np.arange(grid.n_nodes, dtype=float)
    a3 = arr.reshape(grid.node_shape)
    assert a3[2, 1, 3] == node_index(grid, 4, 2, 3) - 1


def test_secondary_volumes_partition_the_box():
    grid = small_grid()
    total = sum(secondary_volume(grid, i, j, k)
                for k in range(1, grid.nz + 2)
                for j in range(1, grid.ny + 2)
                for i in range(1, grid.nx + 2))
    box = grid.nx * grid.dx * grid.ny * grid.dy * grid.nz * grid.dz
    assert total == pytest.approx(box, rel=1e-14)


def test_metric_volume_diagonal_matches_per_node_volume():
    grid = small_grid()
    m = metric_diagonals(grid)
    for (i, j, k) in [(1, 1, 1), (2, 2, 2), (grid.nx + 1, 1, grid.nz + 1),
                      (3, grid.ny + 1, 2)]:
        t = node_index(grid, i, j, k)
        assert m.v[t - 1] == secondary_volume(grid, i, j, k)


def test_boundary_weights():
    assert np.array_equal(boundary_weights(2), [0.5, 0.5])
    assert np.array_equal(boundary_weights(5), [0.5, 1, 1, 1, 0.5])


def test_face_slices_match_hanging_layout():
    # The 2D view of face nodes must be ordered exactly like the face's
    # hanging-variable vector: second transverse index fastest.
    grid = small_grid()
    arr = np.arange(grid.n_nodes, dtype=float).reshape(grid.node_shape)
    west = arr[face_node_slices(grid, "W")]
    assert west.shape == grid.face_shape("W")
    # W face holds nodes (1, j, k); vector index j + (k-1)(ny+1).
    for k in range(1, grid.nz + 2):
        for j in range(1, grid.ny + 2):
            assert west[k - 1, j - 1] == node_index(grid, 1, j, k) - 1
    top = arr[face_node_slices(grid, "T")]
    for j in range(1, grid.ny + 2):
        for i in range(1, grid.nx + 2):
            assert top[j - 1, i - 1] == node_index(grid, i, j, grid.nz + 1) - 1


def test_metric_boundary_areas():
    grid = small_grid()
    m = metric_diagonals(grid)
    offsets = grid.hanging_offsets()
    # Corner of the west face: quarter area; center: full area.
    west = m.sb[offsets["W"]:offsets["W"] + grid.face_size("W")].reshape(
        grid.face_shape("W"))
    assert west[0, 0] == 0.25 * grid.dy * grid.dz
    assert west[1, 1] == grid.dy * grid.dz
    signs = m.nsign[offsets["E"]:offsets["E"] + grid.face_size("E")]
    assert np.all(signs == 1.0)
    assert np.all(m.nsign[offsets["W"]:offsets["W"] + grid.face_size("W")]
                  == -1.0)


def test_potential_field_validation():
    grid = small_grid()
    with pytest.raises(ValueError):
        PotentialField(grid, np.ones(3))
    bad = np.zeros(grid.n_nodes)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        PotentialField(grid, bad)


def test_potential_from_function_orientation():
    grid = small_grid()
    field = PotentialField.from_function(grid, lambda x, y, z: x + 10 * y)
    v3 = field.as_3d()
    x, y, _ = grid.node_coordinates()
    assert v3[0, 1, 2] == pytest.approx(x[2] + 10 * y[1], rel=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3,
                 allow_nan=False, allow_infinity=False))
def test_unit_conversion_roundtrip(v):
    assert to_si(v, "nm") == pytest.approx(v * 1e-9)
    assert to_si(to_si(v, "eV"), "1") == to_si(v, "eV")


def test_unknown_unit_rejected():
    with pytest.raises(ValueError):
        to_si(1.0, "furlong")
