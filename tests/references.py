"""Independent references that the tests compare the solver against.

`fdtdq` runs none of these.  Each is the plain form, or the paper's own
form, of something the package computes another way, so it lives with
the tests that compare the two:

- node_index and secondary_volume: the per-node, 1-based forms of the
  Kronecker-ordered metric_diagonals and face_node_slices.
- incidence_D, boundary_L, sparse_H and sparse_Hbot: the paper's
  Kronecker-product matrices D and L, and H and H_bot assembled from them
  with scipy.sparse, against the dense edge scatter of assemble_H and
  assemble_Hbot; sparse_H also stands in for H on grids too large for a
  dense matrix.
- dense_rho: rho(Sigma) by a full symmetric eigensolve.
- face_block, split_hanging and join_hanging: a hanging-variable vector
  as per-face blocks and back, through the operators' face_layout.
- all_neumann: the closed box whose hanging variables are all zero.
- energy_simple and total_energy: H^n straight from its formula, against
  the buffered evaluation in SeriesBuilder.record.
- face_current_loop and face_power_loop: I_P per face and s as one loop
  over the faces, each face formed on its 2D node slice and summed with
  np.sum, against the gathered flux faces of probability_current_by_face
  and supplied_power.
- energy_lower_bound: the a priori lower bound on H^n from lambda_min(P).
- tunneling_mode_dfx: the x-derivative of a tunneling mode profile, for
  the C^1 continuity of the analytic modes across the interfaces.
- barrier_mode_sum: the step wavepacket at one position and time, summed
  mode by mode per wave, against the weights-times-spatial-matrix product
  of barrier_wavefunction and barrier_gradient_x.
"""

import numpy as np
import scipy.sparse as sp

from fdtdq.diagnostics import _dot
from fdtdq.grid import FACES
from fdtdq.stability import lambda_min_P
from fdtdq.stepper import NEUMANN0, BoundaryCondition


def node_index(grid, i, j, k):
    """1-based linear index of primary node (i, j, k)."""
    return i + (j - 1) * (grid.nx + 1) + (k - 1) * (grid.nx + 1) * (grid.ny + 1)


def secondary_volume(grid, i, j, k):
    """Volume of the secondary cell around node (i, j, k)."""
    v = grid.cell_volume
    if i in (1, grid.nx + 1):
        v *= 0.5
    if j in (1, grid.ny + 1):
        v *= 0.5
    if k in (1, grid.nz + 1):
        v *= 0.5
    return v


def _difference_matrix(m):
    """W_m = [0 | I] - [I | 0], shape m x (m+1)."""
    return sp.eye(m, m + 1, k=1, format="csr") - sp.eye(m, m + 1, k=0,
                                                        format="csr")


def incidence_D(grid):
    """Node-edge incidence matrix D, nodes x edges, blocks [Dx | Dy | Dz].

    Each column holds +1 at the tail node and -1 at the head node of the
    corresponding primary edge.
    """
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
    return sp.csr_matrix((np.ones(1), (np.array([p - 1]), np.array([0]))),
                         shape=(m, 1))


def boundary_L(grid):
    """Boundary collocation matrix L, nodes x hanging variables.

    Face blocks in W, E, S, N, B, T order; each column holds a single +1 at
    the node collocated with the hanging variable.
    """
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


def sparse_H(ops):
    """H = kin D S'' (l')^{-1} D^T + V'' diag(U), as a CSR matrix."""
    d = incidence_D(ops.grid)
    m = ops.metrics
    lap = d @ sp.diags(m.s / m.lprime) @ d.T
    return (ops.constants.kinetic_factor * lap
            + sp.diags(m.v * ops.potential.values)).tocsr()


def sparse_Hbot(ops):
    """H_bot = kin L (n.) S''_b, as a CSR matrix."""
    m = ops.metrics
    return (ops.constants.kinetic_factor * boundary_L(ops.grid)
            @ sp.diags(m.nsign * m.sb)).tocsr()


def dense_rho(ops):
    """rho(Sigma) from a full symmetric eigensolve of the dense Sigma."""
    return float(np.max(np.abs(np.linalg.eigvalsh(
        ops.assemble_sigma_dense()))))


def face_block(ops, b, face):
    """One face's block of a flat hanging-variable vector, as a 2D view."""
    start, stop, shape = ops.face_layout[face]
    return b[start:stop].reshape(shape)


def split_hanging(ops, b):
    """A flat hanging-variable vector as per-face 2D arrays."""
    return {f: face_block(ops, b, f) for f in FACES}


def join_hanging(ops, by_face):
    """Inverse of split_hanging."""
    return np.concatenate(
        [np.asarray(by_face[f], dtype=float).reshape(-1) for f in FACES])


def all_neumann():
    return BoundaryCondition({f: NEUMANN0 for f in FACES})


def energy_simple(psiR, psiI, ops, h_psiR=None, h_psiI=None):
    """Direct discretization of the energy integral."""
    if h_psiR is None:
        h_psiR = ops.apply_H(psiR)
    if h_psiI is None:
        h_psiI = ops.apply_H(psiI)
    return _dot(psiR, h_psiR) + _dot(psiI, h_psiI)


def total_energy(psiR, psiR_prev, psiI, psiI_next, ops, dt,
                 h_psiR=None, h_psiI=None):
    """H^n; psiI/psiI_next are psi_I^{n-1/2} and psi_I^{n+1/2}."""
    simple = energy_simple(psiR, psiI, ops, h_psiR=h_psiR, h_psiI=h_psiI)
    v = ops.metrics.v
    corr = (ops.constants.hbar / dt) * _dot(psiR - psiR_prev,
                                            v * (psiI_next - psiI))
    return simple + corr


def face_current_loop(ops, window, faces):
    """Per-face I_P^{n+1/2} of a StepWindow, face by face on 2D slices."""
    shape = ops.grid.node_shape
    r_np1 = window.psiR_np1.reshape(shape)
    r_n = window.psiR_n.reshape(shape)
    i_np = window.psiI_np.reshape(shape)
    i_nm = window.psiI_nm.reshape(shape)
    two_over_hbar = 2.0 / ops.constants.hbar
    out = dict.fromkeys(FACES, 0.0)
    for f in faces:
        sl = ops.face_slices[f]
        r_avg = 0.5 * (r_np1[sl] + r_n[sl])
        i_avg = 0.5 * (i_np[sl] + i_nm[sl])
        gr = face_block(ops, window.gradR_n, f)
        gi = face_block(ops, window.gradI_np, f)
        out[f] = two_over_hbar * float(
            np.sum(ops.face_coeff[f] * (r_avg * gi - i_avg * gr)))
    return out


def face_power_loop(ops, window, grad_r_next, grad_i_prev, dt, faces):
    """s^{n+1/2} of a StepWindow, face by face on 2D slices."""
    shape = ops.grid.node_shape
    r_np1 = window.psiR_np1.reshape(shape)
    r_n = window.psiR_n.reshape(shape)
    i_np = window.psiI_np.reshape(shape)
    i_nm = window.psiI_nm.reshape(shape)
    acc_r = 0.0
    acc_i = 0.0
    for f in faces:
        sl = ops.face_slices[f]
        coeff = ops.face_coeff[f]
        gr_avg = 0.5 * (face_block(ops, grad_r_next, f)
                        + face_block(ops, window.gradR_n, f))
        gi_avg = 0.5 * (face_block(ops, window.gradI_np, f)
                        + face_block(ops, grad_i_prev, f))
        acc_r += float(np.sum((r_np1[sl] - r_n[sl]) * (coeff * gr_avg)))
        acc_i += float(np.sum((i_np[sl] - i_nm[sl]) * (coeff * gi_avg)))
    return (2.0 / dt) * (acc_r + acc_i)


def energy_lower_bound(ops, dt, p_max):
    """A priori lower bound on H^n given the peak probability p_max."""
    u_min = min(ops.potential.min, 0.0)
    hbar = ops.constants.hbar
    return (ops.grid.cell_volume * (p_max / lambda_min_P(ops, dt))
            * (u_min - 4.0 * hbar / dt))


def tunneling_mode_dfx(spec, mode, region, x):
    """x-derivative of a mode's per-region profile; x local to the region."""
    x = np.asarray(x, dtype=float)
    if region == "reactant":
        return mode.coef_a * mode.k_x * np.cos(mode.k_x * x)
    if region == "barrier":
        arg = mode.kappa_x * (x - 0.5 * spec.lx_barrier)
        return mode.kappa_x * (mode.coef_b * np.sinh(arg)
                               + mode.coef_c * np.cosh(arg))
    return mode.coef_d * mode.k_x * np.cos(mode.k_x * (x - spec.lx_product))


def barrier_mode_sum(spec, x, t, derivative):
    """The step wavepacket (or its x-derivative) at one x and t, and the
    scale of its roundoff, sum_k |w_k phi_k(x)|.

    Left of the step: inc @ w + ref @ (R w); right of it: tran @ (coef w),
    with the weights w = amps exp(-i omega t) and one factor per mode.
    """
    k = spec.k
    w = spec.amps * np.exp(-1j * spec.omega * t)
    if x <= spec.a:
        inc = np.exp(1j * k * (x - spec.x0))
        ref = np.exp(1j * k * (2.0 * spec.a - spec.x0 - x))
        if derivative:
            inc, ref = inc * (1j * k), ref * (-1j * k)
        return inc @ w + ref @ (spec.R * w), np.sum(
            np.abs(w * (inc + spec.R * ref)))
    tran = np.exp(1j * spec.K * (x - spec.a))
    if derivative:
        tran = tran * (1j * spec.K)
    coef = spec.T * np.exp(1j * k * (spec.a - spec.x0))
    return tran @ (coef * w), np.sum(np.abs(coef * w * tran))
