"""Discrete operators H, H_bot and P of the staggered scheme.

H acts on node vectors and combines the flux-form kinetic term with the
potential:

    H = (hbar^2 / 2m) D S'' (l')^{-1} D^T + V'' diag(U)

H_bot scatters hanging variables (outward-normal derivative samples on the
boundary) onto their collocated nodes:

    H_bot = (hbar^2 / 2m) L (n.) S''_b

Both are available assembled (scipy.sparse, for checks on small grids)
and matrix-free (numpy stencils, used for stepping); Sigma is also
assembled densely with numpy, for spectral analysis on small grids.  The
matrix-free H keeps the flux form, differences before sums, so it
annihilates a constant exactly (an assembled CSR product does not).  It
works on the flat node vector, in which the x, y and z neighbours of a
node sit 1, nx+1 and (nx+1)(ny+1) entries away: along each axis one
contiguous difference v[off:] - v[:-off], scaled by the edge
coefficients kin * S''/l' and zeroed where the pair wraps to the next row
or plane, is the edge flux, which leaves its tail node and enters its
head node.  The 2N x 2N probability matrix is

    P = [[V'', -(dt/2 hbar) H], [-(dt/2 hbar) H, V'']].

scipy.sparse is imported by the sparse assembly functions only, so neither
stepping nor the stability analysis loads it.
"""

import numpy as np

from .grid import (FACES, FACE_SIGN, boundary_weights, face_node_slices,
                   metric_diagonals)

# Explicit sparse assembly is only intended for spectral analysis at desk
# scale; stepping always goes through the matrix-free path.
MAX_ASSEMBLY_NODES = 200_000


def _difference_matrix(m):
    """W_m = [0 | I] - [I | 0], shape m x (m+1)."""
    import scipy.sparse as sp

    return sp.eye(m, m + 1, k=1, format="csr") - sp.eye(m, m + 1, k=0,
                                                        format="csr")


def build_incidence_D(grid):
    """Node-edge incidence matrix D, nodes x edges, blocks [Dx | Dy | Dz].

    Each column holds +1 at the tail node and -1 at the head node of the
    corresponding primary edge.
    """
    import scipy.sparse as sp

    ix = sp.identity(grid.nx + 1, format="csr")
    iy = sp.identity(grid.ny + 1, format="csr")
    iz = sp.identity(grid.nz + 1, format="csr")
    wxt = _difference_matrix(grid.nx).T
    wyt = _difference_matrix(grid.ny).T
    wzt = _difference_matrix(grid.nz).T
    dx_blk = -sp.kron(iz, sp.kron(iy, wxt))
    dy_blk = -sp.kron(iz, sp.kron(wyt, ix))
    dz_blk = -sp.kron(wzt, sp.kron(iy, ix))
    return sp.hstack([dx_blk, dy_blk, dz_blk], format="csr")


def _basis_column(p, m):
    """e{p, m}: m x 1 sparse column with a 1 in (1-based) position p."""
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(1), (np.array([p - 1]), np.array([0]))),
                         shape=(m, 1))


def build_boundary_L(grid):
    """Boundary collocation matrix L, nodes x hanging variables.

    Face blocks in W, E, S, N, B, T order; each column holds a single +1 at
    the node collocated with the hanging variable.
    """
    import scipy.sparse as sp

    nx1, ny1, nz1 = grid.nx + 1, grid.ny + 1, grid.nz + 1
    ix = sp.identity(nx1, format="csr")
    iy = sp.identity(ny1, format="csr")
    iz = sp.identity(nz1, format="csr")
    blocks = {
        "W": sp.kron(iz, sp.kron(iy, _basis_column(1, nx1))),
        "E": sp.kron(iz, sp.kron(iy, _basis_column(nx1, nx1))),
        "S": sp.kron(iz, sp.kron(_basis_column(1, ny1), ix)),
        "N": sp.kron(iz, sp.kron(_basis_column(ny1, ny1), ix)),
        "B": sp.kron(_basis_column(1, nz1), sp.kron(iy, ix)),
        "T": sp.kron(_basis_column(nz1, nz1), sp.kron(iy, ix)),
    }
    return sp.hstack([blocks[f] for f in FACES], format="csr")


class DiscreteOperators:
    """Matrix-free operator applications plus optional sparse assembly."""

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
        nx1 = grid.nx + 1
        self._axes = ((1, self._cx, (Ellipsis, -1)),
                      (nx1, self._cy, (slice(None), -1)),
                      (nx1 * (grid.ny + 1), self._cz, -1))

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
        # its node slices, fixed by the grid.
        self.n_hanging = grid.n_hanging
        self._face_layout = {}
        for f, start in grid.hanging_offsets().items():
            self._face_layout[f] = (start, start + grid.face_size(f),
                                    grid.face_shape(f))
        self.face_slices = {f: face_node_slices(grid, f) for f in FACES}

    # ---- hanging-variable vector layout -------------------------------

    def face_block(self, b, face):
        """One face's block of a flat hanging-variable vector, as a 2D view."""
        start, stop, shape = self._face_layout[face]
        return b[start:stop].reshape(shape)

    def split_hanging(self, b):
        """Split a flat hanging-variable vector into per-face 2D arrays."""
        return {f: self.face_block(b, f) for f in FACES}

    def join_hanging(self, by_face):
        """Inverse of split_hanging."""
        return np.concatenate(
            [np.asarray(by_face[f], dtype=float).reshape(-1) for f in FACES])

    def zero_hanging(self):
        return np.zeros(self.n_hanging)

    # ---- matrix-free applications --------------------------------------

    def apply_H(self, v):
        """H v for a flat node vector v, (N,) or (N, 1), in flux form.

        Along each axis, the neighbour differences of the flat vector are
        taken into one scratch array, scaled by the edge coefficients, and
        their pairs that wrap to the next row or plane are zeroed; then
        each edge flux leaves its tail node and enters its head node.
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
            g[m:] = 0.0  # the unused tail, so the multiply sees no garbage
            np.subtract(v[off:], v[:m], out=g[:m])
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
            out[self.face_slices[f]] += \
                self.face_coeff[f] * self.face_block(b, f)
        return out.reshape(-1)

    def apply_Hbot_T(self, v):
        """H_bot^T v: gather boundary-node samples into hanging layout."""
        if v.size != self.grid.n_nodes:
            raise ValueError("vector length does not match node count")
        psi = v.reshape(self.grid.node_shape)
        return self.join_hanging(
            {f: self.face_coeff[f] * psi[self.face_slices[f]]
             for f in FACES})

    def apply_sigma(self, v):
        """Sigma v with Sigma = (1/hbar) V''^{-1/2} H V''^{-1/2}."""
        vs = self._v_inv_sqrt()
        return vs * self.apply_H(vs * v) / self.constants.hbar

    def _v_inv_sqrt(self):
        if not hasattr(self, "_vis"):
            self._vis = 1.0 / np.sqrt(self.metrics.v)
        return self._vis

    # ---- sparse assembly ------------------------------------------------

    def _check_assembly_size(self):
        if self.grid.n_nodes > MAX_ASSEMBLY_NODES:
            raise ValueError(
                f"refusing to assemble operators for {self.grid.n_nodes} "
                f"nodes (limit {MAX_ASSEMBLY_NODES}); use the matrix-free "
                "path")

    def assemble_H(self):
        """Explicit sparse H (symmetric)."""
        import scipy.sparse as sp

        self._check_assembly_size()
        d = build_incidence_D(self.grid)
        m = self.metrics
        kin = self.constants.kinetic_factor
        lap = d @ sp.diags(m.s / m.lprime) @ d.T
        return (kin * lap
                + sp.diags(m.v * self.potential.values)).tocsr()

    def assemble_Hbot(self):
        """Explicit sparse H_bot, nodes x hanging variables."""
        import scipy.sparse as sp

        self._check_assembly_size()
        ell = build_boundary_L(self.grid)
        m = self.metrics
        kin = self.constants.kinetic_factor
        return (kin * ell @ sp.diags(m.nsign * m.sb)).tocsr()

    def assemble_P(self, dt):
        """Explicit sparse probability matrix P for a given time step."""
        import scipy.sparse as sp

        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self._check_assembly_size()
        h = self.assemble_H()
        vmat = sp.diags(self.metrics.v)
        c = dt / (2.0 * self.constants.hbar)
        return sp.bmat([[vmat, -c * h], [-c * h, vmat]], format="csr")

    def assemble_sigma_dense(self):
        """Dense Sigma = (1/hbar) V''^{-1/2} H V''^{-1/2} (small grids).

        Built with numpy alone, from the edges' tail and head nodes in
        metric_diagonals order (x, y, then z edges).  Each edge's s/l'
        goes to its (tail, head) pair with a minus sign, so the Laplacian
        D S'' (l')^{-1} D^T is exactly symmetric.  Each diagonal entry sums
        its node's edges in reverse edge order, the order in which the CSR
        product of assemble_H adds them, so H has the same bits.
        """
        self._check_assembly_size()
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
        h.reshape(-1)[::n + 1] += self.metrics.v * self.potential.values
        vs = self._v_inv_sqrt()
        return (vs[:, None] * h * vs[None, :]) / self.constants.hbar
