"""Discrete operators H, H_bot and P of the staggered scheme.

H acts on node vectors and combines the flux-form kinetic term with the
potential:

    H = (hbar^2 / 2m) D S'' (l')^{-1} D^T + V'' diag(U)

H_bot scatters hanging variables (outward-normal derivative samples on the
boundary) onto their collocated nodes:

    H_bot = (hbar^2 / 2m) L (n.) S''_b

Stepping and the stability analysis apply both matrix-free (numpy
stencils).  The matrix-free H keeps the flux form, differences before
sums, so it annihilates a constant exactly (an assembled matrix product
does not).  It works on the flat node vector, in which the x, y and z
neighbours of a node sit 1, nx+1 and (nx+1)(ny+1) entries away: along
each axis one contiguous difference v[off:] - v[:-off], scaled by the
edge coefficients kin * S''/l' and zeroed where the pair wraps to the
next row or plane, is the edge flux, which leaves its tail node and
enters its head node.  The 2N x 2N probability matrix is

    P = [[V'', -(dt/2 hbar) H], [-(dt/2 hbar) H, V'']].

H, H_bot, P and Sigma are also assembled as dense numpy matrices, for
checks and dense eigensolves on small grids.  Every assembly refuses a
grid of more than DENSE_EIG_MAX_NODES nodes with a ValueError before it
allocates: at that limit one N x N float64 matrix takes 134 MB.
"""

from typing import NamedTuple

import numpy as np

from .grid import (FACES, FACE_SIGN, boundary_weights, face_node_slices,
                   metric_diagonals)

# Largest node count of a dense assembly, and so of a dense eigensolve.
DENSE_EIG_MAX_NODES = 4096


class DiscreteOperators:
    """Matrix-free operator applications plus dense assembly."""

    def __init__(self, grid, potential, constants):
        if potential.values.size != grid.n_nodes:
            raise ValueError("potential does not match grid")
        self.grid = grid
        self.potential = potential
        self.constants = constants
        self.metrics = metric_diagonals(grid)

        kin = constants.kinetic_factor
        shape = grid.node_shape
        wx = boundary_weights(grid.nx + 1)
        wy = boundary_weights(grid.ny + 1)
        wz = boundary_weights(grid.nz + 1)

        # Secondary volumes, as a 3D array, and the local potential term
        # V'' U, flat.
        self.v3 = self.metrics.v.reshape(shape)
        self._uv = self.metrics.v * potential.values

        # Edge-flux coefficients kin * (secondary area / edge length), with
        # the transverse boundary weights baked in, shaped for broadcasting
        # against difference arrays along each axis.
        self._cx = kin * (grid.dy * grid.dz / grid.dx) \
            * wz[:, None, None] * wy[None, :, None]
        self._cy = kin * (grid.dx * grid.dz / grid.dy) \
            * wz[:, None, None] * wx[None, None, :]
        self._cz = kin * (grid.dx * grid.dy / grid.dz) \
            * wy[None, :, None] * wx[None, None, :]
        # Flat offsets of the x, y and z neighbours, with the coefficients
        # and the nodes last along each axis, whose flat difference pairs
        # them with the next row or plane (or runs past the end).
        # The z differences fill whole planes, none of which wraps, so the
        # z axis has no wrap index.
        nx1 = grid.nx + 1
        self._axes = ((1, self._cx, (Ellipsis, -1)),
                      (nx1, self._cy, (slice(None), -1)),
                      (nx1 * (grid.ny + 1), self._cz, None))

        # Per-face boundary coefficients kin * sign * S''_b as 2D arrays.
        face_weights = {
            "W": grid.dy * grid.dz * wz[:, None] * wy[None, :],
            "E": grid.dy * grid.dz * wz[:, None] * wy[None, :],
            "S": grid.dx * grid.dz * wz[:, None] * wx[None, :],
            "N": grid.dx * grid.dz * wz[:, None] * wx[None, :],
            "B": grid.dx * grid.dy * wy[:, None] * wx[None, :],
            "T": grid.dx * grid.dy * wy[:, None] * wx[None, :],
        }
        self.face_coeff = {f: kin * FACE_SIGN[f] * face_weights[f]
                           for f in FACES}

        # Hanging-vector layout: each face's (start, stop, 2D shape) and
        # its node slices, fixed by the grid; FaceSets of face tuples are
        # built from them on first use (face_set).
        self.n_hanging = grid.n_hanging
        self.face_layout = {}
        for f, start in grid.hanging_offsets().items():
            self.face_layout[f] = (start, start + grid.face_size(f),
                                   grid.face_shape(f))
        self.face_slices = {f: face_node_slices(grid, f) for f in FACES}
        self._face_sets = {}

    # ---- hanging-variable vector layout -------------------------------

    def zero_hanging(self):
        return np.zeros(self.n_hanging)

    def face_set(self, faces):
        """The FaceSet of a sequence of faces, built on first use and kept."""
        faces = tuple(faces)
        try:
            return self._face_sets[faces]
        except KeyError:
            out = self._face_sets[faces] = FaceSet(self, faces)
            return out

    # ---- matrix-free applications --------------------------------------

    def apply_H(self, v):
        """H v for a flat node vector v, (N,) or (N, 1), in flux form.

        Along each axis, the neighbour differences of the flat vector are
        taken into one scratch array, scaled by the edge coefficients, and
        their pairs that wrap to the next row or plane are zeroed; then
        each edge flux leaves its tail node and enters its head node.
        Along z the differences are the first n_z planes exactly, so only
        those are scaled.
        """
        n = self.grid.n_nodes
        if v.size != n:
            raise ValueError("vector length does not match node count")
        v = v.reshape(-1)
        out = self._uv * v
        g = np.empty(n, dtype=out.dtype)
        g3 = g.reshape(self.grid.node_shape)
        for off, coeff, wrap in self._axes:
            m = n - off
            np.subtract(v[off:], v[:m], out=g[:m])
            if wrap is None:
                g3[:-1] *= coeff
            else:
                g[m:] = 0.0  # the unused tail, so the multiply sees no garbage
                g3 *= coeff
                g3[wrap] = 0.0
            out[:m] -= g[:m]
            out[off:] += g[:m]
        return out

    def apply_Hbot(self, b, faces=FACES):
        """H_bot b: scatter hanging variables onto boundary nodes.

        Only the listed faces are scattered; the result equals the full
        H_bot b whenever b is zero on every other face (Dirichlet-zero and
        Neumann-zero faces), which is how the stepper calls it.
        """
        if b.size != self.n_hanging:
            raise ValueError("vector length does not match hanging count")
        out = np.zeros(self.grid.node_shape)
        for f in faces:
            start, stop, shape = self.face_layout[f]
            out[self.face_slices[f]] += \
                self.face_coeff[f] * b[start:stop].reshape(shape)
        return out.reshape(-1)

    def apply_sigma(self, v):
        """Sigma v with Sigma = (1/hbar) V''^{-1/2} H V''^{-1/2}."""
        vs = self._v_inv_sqrt()
        return vs * self.apply_H(vs * v) / self.constants.hbar

    def _v_inv_sqrt(self):
        if not hasattr(self, "_vis"):
            self._vis = 1.0 / np.sqrt(self.metrics.v)
        return self._vis

    # ---- dense assembly -------------------------------------------------

    def _check_dense_size(self):
        if self.grid.n_nodes > DENSE_EIG_MAX_NODES:
            raise ValueError(
                f"refusing to assemble operators for {self.grid.n_nodes} "
                f"nodes (limit {DENSE_EIG_MAX_NODES}); use the matrix-free "
                "path")

    def assemble_H(self):
        """Dense H, exactly symmetric.

        Built from the edges' tail and head nodes in metric_diagonals
        order (x, y, then z edges).  Each edge's s/l' goes to its (tail,
        head) pair with a minus sign, and each diagonal entry sums its
        node's edges in reverse edge order, the order in which a CSR
        product D S'' (l')^{-1} D^T adds them; kin scales the sum, and
        V'' U is added on the diagonal last.
        """
        self._check_dense_size()
        n = self.grid.n_nodes
        idx = np.arange(n).reshape(self.grid.node_shape)
        tail = np.concatenate([idx[:, :, :-1].reshape(-1),
                               idx[:, :-1].reshape(-1), idx[:-1].reshape(-1)])
        head = np.concatenate([idx[:, :, 1:].reshape(-1),
                               idx[:, 1:].reshape(-1), idx[1:].reshape(-1)])
        w = self.metrics.s / self.metrics.lprime
        lap = np.zeros((n, n))
        lap[tail, head] = lap[head, tail] = -w
        ends = np.stack([tail, head], axis=1).reshape(-1)[::-1]
        np.fill_diagonal(lap, np.bincount(ends, np.repeat(w, 2)[::-1],
                                          minlength=n))
        h = self.constants.kinetic_factor * lap
        h.reshape(-1)[::n + 1] += self._uv
        return h

    def assemble_Hbot(self):
        """Dense H_bot, nodes x hanging variables: each hanging variable's
        column holds its face coefficient at its collocated node."""
        self._check_dense_size()
        idx = np.arange(self.grid.n_nodes).reshape(self.grid.node_shape)
        hbot = np.zeros((self.grid.n_nodes, self.n_hanging))
        for f in FACES:
            start, stop, _ = self.face_layout[f]
            hbot[idx[self.face_slices[f]].reshape(-1),
                 np.arange(start, stop)] = self.face_coeff[f].reshape(-1)
        return hbot

    def assemble_P(self, dt):
        """Dense probability matrix P for a given time step."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self._check_dense_size()
        vmat = np.diag(self.metrics.v)
        off = -(dt / (2.0 * self.constants.hbar)) * self.assemble_H()
        return np.block([[vmat, off], [off, vmat]])

    def assemble_sigma_dense(self):
        """Dense Sigma = (1/hbar) V''^{-1/2} H V''^{-1/2} (small grids)."""
        h = self.assemble_H()
        vs = self._v_inv_sqrt()
        return (vs[:, None] * h * vs[None, :]) / self.constants.hbar


class FaceSamples(NamedTuple):
    """A StepWindow's samples on the faces of a FaceSet (FaceSet.gather):
    its four node vectors at the faces' nodes and its two hanging vectors
    at the faces' hanging variables."""

    face_set: "FaceSet"
    psiR_np1: np.ndarray
    psiR_n: np.ndarray
    psiI_np: np.ndarray
    psiI_nm: np.ndarray
    gradR_n: np.ndarray
    gradI_np: np.ndarray


class FaceSet:
    """A tuple of one region's faces, gathered into flat vectors.

    nodes holds the faces' flat node indices and hanging their indices in
    the hanging-variable vector, face after face in the listed order and
    each face in its hanging-block order, so a node on an edge of two
    listed faces appears once per face.  coeff holds the matching boundary
    coefficients kin * n.S''_b, and bounds each face's (face, start, stop)
    in the gathered vectors.  Built once per face tuple and kept by the
    operators (DiscreteOperators.face_set).
    """

    def __init__(self, ops, faces):
        self.faces = faces
        nz1, ny1, nx1 = ops.grid.node_shape
        # Flat index of node (k, j, i), split by axis; a face fixes one
        # index and its 2D view runs over the other two.
        axes = (np.arange(nz1) * (ny1 * nx1), np.arange(ny1) * nx1,
                np.arange(nx1))
        nodes, hanging, coeff, bounds = [], [], [], []
        pos = 0
        for f in faces:
            parts = [a[sl] for a, sl in zip(axes, ops.face_slices[f])]
            rows, cols = (p for p in parts if p.ndim == 1)
            fixed = sum(p for p in parts if p.ndim == 0)
            nodes.append((fixed + rows[:, None] + cols[None, :]).reshape(-1))
            start, stop, _ = ops.face_layout[f]
            hanging.append(np.arange(start, stop))
            coeff.append(ops.face_coeff[f].reshape(-1))
            bounds.append((f, pos, pos + stop - start))
            pos += stop - start
        empty = np.empty(0, dtype=np.intp)
        self.nodes = np.concatenate([empty, *nodes])
        self.hanging = np.concatenate([empty, *hanging])
        self.coeff = np.concatenate([np.empty(0), *coeff])
        self.bounds = tuple(bounds)

    def gather(self, window):
        """window's FaceSamples on these faces, one take per vector;
        samples this set gathered are returned as they are."""
        if isinstance(window, FaceSamples):
            if window.face_set is not self:
                raise ValueError("samples were gathered on other faces")
            return window
        nodes, hanging = self.nodes, self.hanging
        return FaceSamples(
            self, window.psiR_np1.take(nodes), window.psiR_n.take(nodes),
            window.psiI_np.take(nodes), window.psiI_nm.take(nodes),
            window.gradR_n.take(hanging), window.gradI_np.take(hanging))
