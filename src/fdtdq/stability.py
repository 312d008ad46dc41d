"""Time-step limits and spectral analysis of the scheme.

The conventional limit is the closed form

    dt_CFL = 2 / ((2 hbar / m)(1/dx^2 + 1/dy^2 + 1/dz^2) + max|U| / hbar)

and the exact positive-definiteness threshold of the probability matrix is
the generalized limit

    dt_CFL,gen = 2 / rho(Sigma),   Sigma = (1/hbar) V''^{-1/2} H V''^{-1/2}.

V'' is the Kronecker product of per-axis weights, so the kinetic part of
Sigma is a Kronecker sum of three symmetric tridiagonal 1-D matrices
(kin / h^2) W^{-1/2} L W^{-1/2}.  When U varies along at most one axis its
diagonal joins that axis's matrix, Sigma's eigenvalues are sums of three
1-D eigenvalues, and rho(Sigma) comes from dense eigensolves of the
three (m+1) x (m+1) factors.  Any other potential takes a dense symmetric
eigensolve on small grids and matrix-free Lanczos iteration on large
ones; a deterministic power
iteration is kept alongside as an independent cross-check.  The per-cell
decomposition bounds dt_CFL <= min over cells of dt_CFL,gen(cell)
<= dt_CFL,gen, with a closed form for the single-cell spectrum under a
uniform potential.

lambda_min(P) and kappa(P) need the extreme eigenvalues of the two blocks
V'' -/+ c H = vol D^{1/2} (I -/+ c hbar Sigma) D^{1/2}, with vol the cell
volume and D = Wz (x) Wy (x) Wx; each end is solved once per operator set
and time step and kept on the operators.  When U >= 0, H is positive
semidefinite, so the smallest end of P is that of V'' - cH and the
largest that of V'' + cH.  When U varies along at most one axis,
I -/+ c hbar Sigma is a Kronecker sum of the same 1-D factors: by
Sylvester's law of inertia a block is positive definite exactly when its
smallest Kronecker eigenvalue is positive, and then its smallest end comes
from shift-invert Lanczos on its exact inverse (fast diagonalization:
per-axis eigenvector transforms of the node array).  Every other end is a
Lanczos run on the block over vol; no block is solved densely.

Lanczos iteration runs the plain three-term recurrence: it keeps two
vectors and the tridiagonal T_k, and no basis.  Without
reorthogonalization a converged Ritz value reappears in T_k as ghost
copies, so the stopping rule looks at the cluster of Ritz values within
1e-8 ||T_k|| of the wanted end.  From step 20 on, every max(8, k/8) steps,
the member of that cluster with the smallest residual r = |beta_k s_k| is
accepted once r <= 1e-12 ||T_k|| and r^2 / gap <= 1e-15 ||T_k||, with gap
its distance to the nearest Ritz value outside the cluster; r^2 / gap
bounds its error.  A breakdown (beta_k <= 1e-15 ||T_k||) ends the run with
T_k's spectrum; a run that reaches its step limit raises StabilityError.
Everything here runs on numpy alone.
"""

import json
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .grid import PotentialField, RegionGrid, boundary_weights
from .operators import DiscreteOperators

DENSE_EIG_MAX_NODES = 4096
# Step limit of a Lanczos run.  Every check solves T_k densely, so a run
# that got this far would cost O(k^3) time and O(k^2) memory per check;
# the shipped scenarios converge in at most a few hundred steps.
LANCZOS_MAX_STEPS = 2000


class StabilityError(RuntimeError):
    """Raised when an iterative eigenvalue estimate fails to converge."""

    def __init__(self, message, last_vector=None, last_estimate=None,
                 residual=None):
        super().__init__(message)
        self.last_vector = last_vector
        self.last_estimate = last_estimate
        self.residual = residual


def cfl_limit(grid, potential, constants):
    """Closed-form conventional time-step limit (seconds)."""
    hbar = constants.hbar
    kin = (2.0 * hbar / constants.mass) * (
        1.0 / grid.dx**2 + 1.0 / grid.dy**2 + 1.0 / grid.dz**2)
    return 2.0 / (kin + potential.max_abs / hbar)


_LCG_MULT = np.uint64(6364136223846793005)
_LCG_INC = np.uint64(1442695040888963407)


def _lcg_start_vector(n, seed):
    """Deterministic start vector from a 64-bit linear congruential run.

    State i (1-based) of x -> a x + c is a^i seed + c (a^0 + ... +
    a^(i-1)); the powers and their partial sums wrap mod 2^64 like the
    run itself, so the whole run is a jump-ahead of n states at once.
    """
    powers = np.cumprod(np.full(n, _LCG_MULT))       # a^1 .. a^n
    sums = np.cumsum(powers) - powers + np.uint64(1)  # a^0 + .. + a^(i-1)
    states = powers * np.uint64(seed) + _LCG_INC * sums
    out = states.astype(float) / 2.0**64 - 0.5
    norm = np.linalg.norm(out)
    return out / norm


def _grid_seed(grid, salt=0):
    return (1 + grid.nx + 1009 * grid.ny + 1009 * 1009 * grid.nz
            + 7919 * salt)


def power_iteration(apply_op, n, seed, tol=1e-13, max_iter=100_000):
    """Largest-magnitude eigenvalue of a symmetric operator.

    Converges when the eigen-residual ||A v - rq v|| of the unit iterate v
    and its Rayleigh quotient rq is at most tol |rq|; for a symmetric
    operator an eigenvalue then lies within tol |rq| of rq.  (Successive
    quotients can agree long before that on slowly converging spectra.)
    If the quotient keeps flipping sign (near-degenerate +/- pair),
    iteration switches to the squared operator.  Returns |lambda|.
    """
    v = _lcg_start_vector(n, seed)
    rq_prev = None
    residual = None
    flips = 0
    squared = False
    for it in range(max_iter):
        w = apply_op(v)
        if squared:
            w = apply_op(w)
        rq = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        residual = float(np.linalg.norm(w - rq * v))
        if residual <= tol * abs(rq):
            mag = abs(rq)
            return float(np.sqrt(mag)) if squared else mag
        v = w / norm
        if not squared and rq_prev is not None and rq * rq_prev < 0.0:
            flips += 1
            if flips > 50:
                squared = True
                rq_prev = None
                continue
        rq_prev = rq
    raise StabilityError(
        f"power iteration did not converge in {max_iter} iterations",
        last_vector=v, last_estimate=rq_prev, residual=residual)


def spectral_radius_power(ops, tol=1e-13, max_iter=100_000):
    """rho(Sigma) by deterministic power iteration; retries a second seed."""
    n = ops.grid.n_nodes
    try:
        return power_iteration(ops.apply_sigma, n, _grid_seed(ops.grid),
                               tol=tol, max_iter=max_iter)
    except StabilityError:
        return power_iteration(ops.apply_sigma, n,
                               _grid_seed(ops.grid, salt=1),
                               tol=tol, max_iter=max_iter)


def _tridiagonal(diag, off):
    """Dense symmetric tridiagonal matrix held in its lower triangle.

    off sits on the sub-diagonal only: np.linalg.eigh and eigvalsh read
    the lower triangle.
    """
    a = np.diag(diag)
    i = np.arange(off.size)
    a[i + 1, i] = off
    return a


def _lanczos_extreme(matvec, start, which, maxiter=LANCZOS_MAX_STEPS):
    """One extreme eigenvalue of a symmetric operator by Lanczos iteration.

    which is "SA" (smallest), "LA" (largest) or "LM" (largest magnitude).
    The recurrence and its stopping rule are described in the module
    docstring.  Raises StabilityError, with the last estimate and its
    residual, when maxiter steps do not converge.
    """
    if which not in ("SA", "LA", "LM"):
        raise ValueError(f"unknown end {which!r}")
    v = start / np.linalg.norm(start)
    v_prev = np.zeros_like(v)
    alpha, beta = [], []
    b = bound = 0.0
    check = 20
    for k in range(1, maxiter + 1):
        w = matvec(v)
        a = float(v @ w)
        w = w - a * v - b * v_prev
        b_next = float(np.linalg.norm(w))
        alpha.append(a)
        bound = max(bound, abs(a) + b + b_next)  # >= ||T_k||
        breakdown = b_next <= 1e-15 * bound
        if breakdown or k >= check or k == maxiter:
            theta, s = np.linalg.eigh(_tridiagonal(np.array(alpha),
                                                   np.array(beta)))
            resid = np.abs(b_next * s[-1])
            t_norm = max(-theta[0], theta[-1])
            sign = 1.0  # negate T_k's spectrum so the wanted end is on top
            if which == "SA" or (which == "LM" and -theta[0] > theta[-1]):
                sign, theta, resid = -1.0, -theta[::-1], resid[::-1]
            near = theta >= theta[-1] - 1e-8 * t_norm
            best = np.argmin(np.where(near, resid, np.inf))
            r, estimate = resid[best], sign * theta[best]
            further = theta[~near]
            gap = theta[best] - further[-1] if further.size else np.inf
            if breakdown or (r <= 1e-12 * t_norm
                             and r * r <= 1e-15 * t_norm * gap):
                return float(estimate)
            check = k + max(8, k // 8)
        beta.append(b_next)
        v_prev, v, b = v, w / b_next, b_next
    raise StabilityError(
        f"Lanczos iteration did not converge in {maxiter} steps",
        last_estimate=float(estimate), residual=float(r))


def _one_axis_potential(potential):
    """(axis, 1-D profile) if U varies along at most one axis, else None.

    The test is exact: U must equal its profile along the axis (taken at
    the first node of the other two) broadcast back over the grid.
    Axes are 0, 1, 2 for x, y, z.
    """
    u3 = potential.as_3d()
    for axis in range(3):
        dim = 2 - axis  # 3D node arrays are indexed [z, y, x]
        keep = tuple(slice(None) if d == dim else slice(0, 1)
                     for d in range(3))
        profile = u3[keep]
        if np.array_equal(u3, np.broadcast_to(profile, u3.shape)):
            return axis, profile.reshape(-1)
    return None


def _axis_factor(m, h, kin, u):
    """(kin / h^2) W^{-1/2} L W^{-1/2} + diag(u), dense, lower triangle.

    L is the path-graph Laplacian of m + 1 nodes and W the boundary
    weights diag(1/2, 1, ..., 1, 1/2).
    """
    w = boundary_weights(m + 1)
    lap = np.full(m + 1, 2.0)
    lap[[0, -1]] = 1.0
    scale = kin / h**2
    return _tridiagonal(scale * lap / w + u, -scale / np.sqrt(w[:-1] * w[1:]))


def _axis_factors(ops, axis, profile):
    """The 1-D factors of hbar Sigma along x, y and z (see _axis_factor)."""
    grid = ops.grid
    kin = ops.constants.kinetic_factor
    return [_axis_factor(m, h, kin, profile if a == axis else 0.0)
            for a, (m, h) in enumerate(((grid.nx, grid.dx),
                                        (grid.ny, grid.dy),
                                        (grid.nz, grid.dz)))]


def _separable_spectral_radius(ops, axis, profile):
    """rho(Sigma) from the three 1-D spectra of its Kronecker sum."""
    lo = hi = 0.0
    for factor in _axis_factors(ops, axis, profile):
        vals = np.linalg.eigvalsh(factor)
        lo += vals[0]
        hi += vals[-1]
    return float(max(abs(lo), abs(hi)) / ops.constants.hbar)


def spectral_radius(ops, method="auto"):
    """rho(Sigma), the spectral radius of the symmetrized Hamiltonian.

    method "dense" forces a full symmetric eigensolve, "lanczos" the
    matrix-free route; "auto" sums the extremes of the three 1-D spectra
    when U varies along at most one axis, and otherwise picks dense up to
    4096 nodes and Lanczos beyond.
    """
    n = ops.grid.n_nodes
    if method == "auto":
        separable = _one_axis_potential(ops.potential)
        if separable is not None:
            return _separable_spectral_radius(ops, *separable)
        method = "dense" if n <= DENSE_EIG_MAX_NODES else "lanczos"
    if method == "dense":
        vals = np.linalg.eigvalsh(ops.assemble_sigma_dense())
        return float(np.max(np.abs(vals)))
    if method == "lanczos":
        start = _lcg_start_vector(n, _grid_seed(ops.grid))
        return abs(_lanczos_extreme(ops.apply_sigma, start, "LM"))
    raise ValueError(f"unknown method {method!r}")


def cfl_gen_limit(ops, method="auto"):
    """Generalized time-step limit 2 / rho(Sigma)."""
    return 2.0 / spectral_radius(ops, method=method)


def single_cell_sigma_eigvals(dx, dy, dz, u, constants):
    """Closed-form eigenvalues of Sigma for one cell with uniform U.

    Returns the 8 eigenvalues in ascending order of their kinetic part.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 0:
        if not np.all(u == u.flat[0]):
            raise ValueError("closed form requires a uniform potential; "
                             "use the numeric per-cell path")
        u = u.flat[0]
    two_over = 2.0 * constants.hbar / constants.mass
    ax, ay, az = 1.0 / dx**2, 1.0 / dy**2, 1.0 / dz**2
    kinetic = two_over * np.array(
        [0.0, ax, ay, az, ay + az, ax + az, ax + ay, ax + ay + az])
    return kinetic + float(u) / constants.hbar


def _cell_kinetic_sigma(grid, constants):
    """Dense 8x8 kinetic part of Sigma for a single primary cell."""
    cell = RegionGrid(1, 1, 1, grid.dx, grid.dy, grid.dz)
    ops = DiscreteOperators(cell, PotentialField.uniform(cell), constants)
    return ops.assemble_sigma_dense()


def per_cell_cfl_gen(grid, potential, constants):
    """Generalized limit per primary cell; returns (min, 3D table).

    Each cell's Sigma is its single-cell kinetic matrix plus the diagonal
    of the cell-corner potential samples over hbar; the per-cell limit is
    2/rho of that 8x8 matrix.  Cells with the same corner samples, bit for
    bit, share one solve.
    """
    kin = _cell_kinetic_sigma(grid, constants)
    u3 = potential.as_3d()
    ncells = grid.nx * grid.ny * grid.nz
    corners = np.empty((ncells, 8))
    for m in range(8):
        di, dj, dk = m & 1, (m >> 1) & 1, m >> 2
        corners[:, m] = u3[dk:dk + grid.nz, dj:dj + grid.ny,
                           di:di + grid.nx].reshape(-1)
    # One opaque 64-byte item per row: np.unique sorts these far faster
    # than it sorts rows with axis=0.
    rows = corners.view(np.dtype((np.void, corners.itemsize * 8)))
    _, first, cell_row = np.unique(rows.reshape(-1), return_index=True,
                                   return_inverse=True)
    mats = np.broadcast_to(kin, (first.size, 8, 8)).copy()
    idx = np.arange(8)
    mats[:, idx, idx] += corners[first] / constants.hbar
    vals = np.linalg.eigvalsh(mats)
    rho = np.max(np.abs(vals), axis=1)[cell_row]
    table = (2.0 / rho).reshape(grid.nz, grid.ny, grid.nx)
    return float(table.min()), table


def _kronecker_modes(ops):
    """Per-axis eigenpairs (vals, vecs) of hbar Sigma's 1-D factors.

    Ordered x, y, z; None when U varies along more than one axis.  Kept
    on ops.  rho(Sigma) keeps its eigenvalue-only solves: their last bits
    differ from these.
    """
    cache = ops.__dict__
    if "_kron_modes" not in cache:
        separable = _one_axis_potential(ops.potential)
        if separable is None:
            cache["_kron_modes"] = None
        else:
            cache["_kron_modes"] = [np.linalg.eigh(factor) for factor in
                                    _axis_factors(ops, *separable)]
    return cache["_kron_modes"]


def _per_axis(a, qx, qy, qz):
    """(qz (x) qy (x) qx) a for a node array a indexed [z, y, x]."""
    a = np.matmul(qy, a @ qx.T)
    return (qz @ a.reshape(a.shape[0], -1)).reshape(a.shape)


def _block_extreme(ops, c, sign, which):
    """Extreme eigenvalue of V'' + sign * c * H (sign in {-1, +1}).

    "SA" is the smallest and "LA" the largest.  Values are kept on ops, so
    each is solved once.
    """
    ends = ops.__dict__.setdefault("_block_ends", {})
    key = (c, sign, which)
    if key not in ends:
        ends[key] = _solve_block_end(ops, c, sign, which)
    return ends[key]


def _solve_block_end(ops, c, sign, which):
    """One end of V'' + sign c H = vol D^{1/2} (I + sign c hbar Sigma) D^{1/2}.

    vol is the cell volume and D = Wz (x) Wy (x) Wx.  With U along at most
    one axis, I + sign c hbar Sigma is a Kronecker sum whose eigenpairs
    are the per-axis ones; by Sylvester's law of inertia the block is
    positive definite exactly when its smallest sum is, and then its
    smallest eigenvalue comes from shift-invert Lanczos on the exact
    inverse, applied per axis.  Every other end is Lanczos on the block
    over vol, started from the Kronecker mode at that end when there is
    one.
    """
    grid = ops.grid
    n, vol = grid.n_nodes, grid.cell_volume
    d = ops.metrics.v / vol
    modes = _kronecker_modes(ops)
    if modes is None:
        start = _lcg_start_vector(n, _grid_seed(grid, salt=2))
    else:
        (ax, qx), (ay, qy), (az, qz) = modes
        kron = 1.0 + sign * c * (az[:, None, None] + ay[None, :, None]
                                 + ax[None, None, :])
        k, j, i = np.unravel_index(
            np.argmin(kron) if which == "SA" else np.argmax(kron),
            kron.shape)
        start = np.kron(qz[:, k], np.kron(qy[:, j], qx[:, i]))
        if which == "SA" and kron[k, j, i] > 0.0:
            d_inv_sqrt = 1.0 / np.sqrt(d)
            shape = grid.node_shape

            def inverse(x):  # vol (V'' + sign c H)^{-1} x
                a = (d_inv_sqrt * x.reshape(-1)).reshape(shape)
                a = _per_axis(a, qx.T, qy.T, qz.T) / kron
                return d_inv_sqrt * _per_axis(a, qx, qy, qz).reshape(-1)

            return vol / _lanczos_extreme(inverse, start, "LA")
    scale = sign * c / vol

    def matvec(x):  # (V'' + sign c H) x / vol
        x = x.reshape(-1)
        return d * x + scale * ops.apply_H(x)

    return vol * _lanczos_extreme(matvec, start, which)


def _block_signs(ops, which):
    """Signs of the blocks V'' + sign c H whose `which` end can be P's.

    With U >= 0, H is positive semidefinite, so V'' - cH <= V'' + cH: the
    minus block holds the smallest end of P and the plus block the largest.
    """
    if ops.potential.min >= 0.0:
        return (-1.0,) if which == "SA" else (1.0,)
    return (-1.0, 1.0)


def lambda_min_P(ops, dt):
    """Smallest eigenvalue of the 2N x 2N probability matrix.

    Uses the orthogonal block-diagonalization P ~ diag(V'' - cH, V'' + cH)
    with c = dt / (2 hbar), reducing the problem to the smallest ends of
    the two N x N blocks (of V'' - cH alone when U >= 0).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    c = dt / (2.0 * ops.constants.hbar)
    return min(_block_extreme(ops, c, s, "SA")
               for s in _block_signs(ops, "SA"))


def kappa_P(ops, dt):
    """Condition number of the probability matrix (requires lambda_min > 0)."""
    c = dt / (2.0 * ops.constants.hbar)
    lo = min(_block_extreme(ops, c, s, "SA")
             for s in _block_signs(ops, "SA"))
    if lo <= 0.0:
        raise StabilityError(
            "probability matrix is not positive definite at this dt",
            last_estimate=lo)
    hi = max(_block_extreme(ops, c, s, "LA")
             for s in _block_signs(ops, "LA"))
    return hi / lo


@dataclass
class StabilityReport:
    """Time-step limits, spectral quantities and ordering verdicts."""

    dt: float
    dt_cfl: float
    dt_cfl_gen: float
    per_cell_min_dt_cfl_gen: float
    rho_sigma: float
    lambda_min_P: float
    kappa_P: float
    dt_below_cfl: bool
    dt_below_cfl_gen: bool
    P_positive_definite: bool
    ordering_holds: bool
    ordering_margin: float

    def as_dict(self):
        return {
            "dt_seconds": self.dt,
            "dt_cfl_seconds": self.dt_cfl,
            "dt_cfl_gen_seconds": self.dt_cfl_gen,
            "per_cell_min_dt_cfl_gen_seconds": self.per_cell_min_dt_cfl_gen,
            "rho_sigma_per_second": self.rho_sigma,
            "lambda_min_P": self.lambda_min_P,
            "kappa_P": self.kappa_P,
            "dt_below_cfl": self.dt_below_cfl,
            "dt_below_cfl_gen": self.dt_below_cfl_gen,
            "P_positive_definite": self.P_positive_definite,
            "ordering_holds": self.ordering_holds,
            "ordering_margin": self.ordering_margin,
        }

    def as_json(self):
        return json.dumps(self.as_dict(), indent=2)

    def as_text(self):
        rows = [
            ("dt", f"{self.dt:.17g} s"),
            ("dt_CFL", f"{self.dt_cfl:.17g} s"),
            ("dt_CFL,gen", f"{self.dt_cfl_gen:.17g} s"),
            ("per-cell min dt_CFL,gen",
             f"{self.per_cell_min_dt_cfl_gen:.17g} s"),
            ("rho(Sigma)", f"{self.rho_sigma:.17g} 1/s"),
            ("lambda_min(P)", f"{self.lambda_min_P:.17g}"),
            ("kappa(P)", f"{self.kappa_P:.17g}"
             if np.isfinite(self.kappa_P) else "undefined"),
            ("dt < dt_CFL", str(self.dt_below_cfl)),
            ("dt < dt_CFL,gen", str(self.dt_below_cfl_gen)),
            ("P positive definite", str(self.P_positive_definite)),
            ("ordering dt_CFL <= per-cell <= dt_CFL,gen",
             str(self.ordering_holds)),
            ("ordering margin (relative)", f"{self.ordering_margin:.3e}"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


def check_theorems(grid, potential, constants, dt):
    """Evaluate all limits and orderings for one region configuration."""
    ops = DiscreteOperators(grid, potential, constants)
    dt_cfl = cfl_limit(grid, potential, constants)
    rho = spectral_radius(ops)
    dt_gen = 2.0 / rho
    cell_min, _ = per_cell_cfl_gen(grid, potential, constants)
    lam = lambda_min_P(ops, dt)
    # kappa is infinite only where P is not positive definite; a Lanczos
    # run that fails to converge raises.
    kappa = kappa_P(ops, dt) if lam > 0.0 else float("inf")
    rel = 1e-12
    margin = min(cell_min - dt_cfl, dt_gen - cell_min) / dt_gen
    return StabilityReport(
        dt=dt, dt_cfl=dt_cfl, dt_cfl_gen=dt_gen,
        per_cell_min_dt_cfl_gen=cell_min, rho_sigma=rho,
        lambda_min_P=lam, kappa_P=kappa,
        dt_below_cfl=dt < dt_cfl, dt_below_cfl_gen=dt < dt_gen,
        P_positive_definite=lam > 0.0,
        ordering_holds=(dt_cfl <= cell_min * (1.0 + rel)
                        and cell_min <= dt_gen * (1.0 + rel)),
        ordering_margin=margin)
