"""Geometry, indexing and metric diagonals of the staggered grid.

A region is a box of n_x * n_y * n_z primary cells.  Wavefunction samples
live on primary nodes.  Secondary (dual) cells are centered on the primary
nodes; cells adjacent to a boundary face are halved in that direction.

Linear storage is 0-based with i running fastest, matching the Kronecker
ordering used for all operators: the node (i, j, k), counted from 1 along
each axis, maps to (i-1) + (j-1)*(n_x+1) + (k-1)*(n_x+1)*(n_y+1).
3D views of a node vector therefore have shape (n_z+1, n_y+1, n_x+1).
"""

from dataclasses import dataclass

import numpy as np

FACES = ("W", "E", "S", "N", "B", "T")

# Axis pierced by the hanging variables of each face: 0=x, 1=y, 2=z.
FACE_AXIS = {"W": 0, "E": 0, "S": 1, "N": 1, "B": 2, "T": 2}

# Sign of the outward normal component along the face axis.
FACE_SIGN = {"W": -1.0, "E": 1.0, "S": -1.0, "N": 1.0, "B": -1.0, "T": 1.0}

OPPOSITE_FACE = {"W": "E", "E": "W", "S": "N", "N": "S", "B": "T", "T": "B"}


@dataclass(frozen=True)
class RegionGrid:
    """Uniform rectangular grid of primary cells."""

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("cell counts must be >= 1")
        if min(self.dx, self.dy, self.dz) <= 0.0:
            raise ValueError("cell dimensions must be positive")

    @property
    def node_shape(self):
        """Shape of a 3D node array: (n_z+1, n_y+1, n_x+1)."""
        return (self.nz + 1, self.ny + 1, self.nx + 1)

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1) * (self.nz + 1)

    @property
    def edge_counts(self):
        """Primary edge counts for the x, y, z blocks."""
        ex = self.nx * (self.ny + 1) * (self.nz + 1)
        ey = (self.nx + 1) * self.ny * (self.nz + 1)
        ez = (self.nx + 1) * (self.ny + 1) * self.nz
        return (ex, ey, ez)

    @property
    def cell_volume(self):
        return self.dx * self.dy * self.dz

    def face_shape(self, face):
        """2D shape of a face array, row-major in the vector-index order."""
        nz1, ny1, nx1 = self.nz + 1, self.ny + 1, self.nx + 1
        if face in ("W", "E"):
            return (nz1, ny1)   # [k, j], index j + (k-1)(n_y+1)
        if face in ("S", "N"):
            return (nz1, nx1)   # [k, i]
        if face in ("B", "T"):
            return (ny1, nx1)   # [j, i]
        raise ValueError(f"unknown face {face!r}")

    def face_size(self, face):
        r, c = self.face_shape(face)
        return r * c

    @property
    def n_hanging(self):
        return sum(self.face_size(f) for f in FACES)

    def hanging_offsets(self):
        """Start offset of each face block in the hanging-variable vector."""
        offsets = {}
        pos = 0
        for f in FACES:
            offsets[f] = pos
            pos += self.face_size(f)
        return offsets

    def spacing(self, axis):
        return (self.dx, self.dy, self.dz)[axis]

    def node_coordinates(self):
        """Arrays x, y, z of node coordinates along each axis."""
        x = self.origin[0] + self.dx * np.arange(self.nx + 1)
        y = self.origin[1] + self.dy * np.arange(self.ny + 1)
        z = self.origin[2] + self.dz * np.arange(self.nz + 1)
        return x, y, z


def boundary_weights(m):
    """Diagonal of the m x m matrix diag(1/2, 1, ..., 1, 1/2)."""
    w = np.ones(m)
    w[0] = 0.5
    w[-1] = 0.5
    return w


class PotentialField:
    """Potential samples U at primary nodes, in node linear order (joules)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != grid.n_nodes:
            raise ValueError(
                f"potential has {values.size} samples, grid has "
                f"{grid.n_nodes} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("potential contains NaN or Inf")
        self.grid = grid
        self.values = values

    @classmethod
    def uniform(cls, grid, value=0.0):
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(x, y, z) at all primary nodes (broadcasting arrays)."""
        x, y, z = grid.node_coordinates()
        vals = np.broadcast_to(
            fn(x[None, None, :], y[None, :, None], z[:, None, None]),
            grid.node_shape)
        return cls(grid, np.ascontiguousarray(vals, dtype=float).reshape(-1))

    def as_3d(self):
        return self.values.reshape(self.grid.node_shape)

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    @property
    def min(self):
        return float(np.min(self.values))


@dataclass(frozen=True)
class MetricDiagonals:
    """Diagonal metric matrices with Kronecker-product structure.

    v: secondary volumes per node (diagonal of V'').
    s: secondary face areas per primary edge (diagonal of S''), x|y|z blocks.
    lprime: primary edge lengths (diagonal of l'), same layout as s.
    sb: secondary boundary-face areas per hanging variable (diagonal of
        S''_b), face blocks in W, E, S, N, B, T order.
    nsign: outward-normal signs per hanging variable (diagonal of (n.)).
    """

    v: np.ndarray
    s: np.ndarray
    lprime: np.ndarray
    sb: np.ndarray
    nsign: np.ndarray


def metric_diagonals(grid):
    """Compute all diagonal metric matrices for a grid as flat vectors."""
    wx = boundary_weights(grid.nx + 1)
    wy = boundary_weights(grid.ny + 1)
    wz = boundary_weights(grid.nz + 1)
    dx, dy, dz = grid.dx, grid.dy, grid.dz

    v = grid.cell_volume * np.kron(wz, np.kron(wy, wx))

    sx = dy * dz * np.kron(wz, np.kron(wy, np.ones(grid.nx)))
    sy = dx * dz * np.kron(wz, np.kron(np.ones(grid.ny), wx))
    sz = dx * dy * np.kron(np.ones(grid.nz), np.kron(wy, wx))
    s = np.concatenate([sx, sy, sz])

    ex, ey, ez = grid.edge_counts
    lprime = np.concatenate(
        [np.full(ex, dx), np.full(ey, dy), np.full(ez, dz)])

    face_area = {
        "W": dy * dz, "E": dy * dz,
        "S": dx * dz, "N": dx * dz,
        "B": dx * dy, "T": dx * dy,
    }
    face_weights = {
        "W": np.kron(wz, wy), "E": np.kron(wz, wy),
        "S": np.kron(wz, wx), "N": np.kron(wz, wx),
        "B": np.kron(wy, wx), "T": np.kron(wy, wx),
    }
    sb = np.concatenate([face_area[f] * face_weights[f] for f in FACES])
    nsign = np.concatenate(
        [np.full(grid.face_size(f), FACE_SIGN[f]) for f in FACES])
    return MetricDiagonals(v=v, s=s, lprime=lprime, sb=sb, nsign=nsign)


def face_node_slices(grid, face):
    """Index tuple selecting a face's nodes from a 3D node array.

    The resulting 2D view is ordered exactly like the face's
    hanging-variable vector.
    """
    if face == "W":
        return (slice(None), slice(None), 0)
    if face == "E":
        return (slice(None), slice(None), grid.nx)
    if face == "S":
        return (slice(None), 0, slice(None))
    if face == "N":
        return (slice(None), grid.ny, slice(None))
    if face == "B":
        return (0, slice(None), slice(None))
    if face == "T":
        return (grid.nz, slice(None), slice(None))
    raise ValueError(f"unknown face {face!r}")
