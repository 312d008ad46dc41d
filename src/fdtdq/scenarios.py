"""Benchmark scenarios with analytic solutions.

Three setups are provided:

* a particle in an infinite potential well (closed box, lowest mode),
* a Gaussian wavepacket hitting a potential step, simulated on an open
  subregion driven through prescribed boundary derivatives, and
* proton tunneling through a barrier, simulated as three coupled regions
  (reactant, barrier, product) initialized from a superposition of
  bound tunneling modes with thermal weights.

Each scenario builds the grid, potential, boundary conditions, initial
staggered state and time step, and supplies analytic reference
observables where available.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import (BOLTZMANN, ELECTRON, EV, PROTON_1DA,
                        PhysicalConstants)
from .coupling import Interface, Region, RegionGraph
from .diagnostics import total_probability
from .grid import PotentialField, RegionGrid
from .operators import DiscreteOperators
from .stability import cfl_limit
from .stepper import (DIRICHLET0, INTERFACE, NEUMANN0, PRESCRIBED,
                      BoundaryCondition, StaggeredState)


# Largest distance of length / cell from an integer that still counts as
# an exact fit; every shipped configuration fits to about 1e-14.
CELL_FIT_TOL = 1e-9


class GeometryError(ValueError):
    """A scenario geometry that the grid or the mode table cannot represent."""


def _cells_along(length, cell, name):
    """Number of cells of size cell spanning length, which must fit exactly.

    A length that is not a whole number of cells would put the sampled
    boundary nodes off the physical walls (where the analytic modes vanish
    or are matched), so it is rejected instead of rounded.
    """
    ratio = length / cell
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > CELL_FIT_TOL:
        raise GeometryError(
            f"{name} = {length:.6g} m is not a whole number of cells of "
            f"{cell:.6g} m (ratio {ratio:.10g})")
    return count


# ---------------------------------------------------------------------------
# Infinite potential well
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfiniteWellSpec:
    """Lowest mode of a cubic box with impenetrable walls."""

    a: float = 30e-9
    n_cells: int = 30
    constants: PhysicalConstants = ELECTRON
    phase: float = np.pi / 3.0
    dt_factor: float = 0.999

    def grid(self):
        h = self.a / self.n_cells
        return RegionGrid(self.n_cells, self.n_cells, self.n_cells, h, h, h)

    def potential(self, grid):
        return PotentialField.uniform(grid)

    @property
    def ground_energy(self):
        """E_1 = 3 hbar^2 pi^2 / (2 m a^2)."""
        c = self.constants
        return 3.0 * (np.pi * c.hbar / self.a)**2 / (2.0 * c.mass)

    def time_step(self):
        grid = self.grid()
        return self.dt_factor * cfl_limit(grid, self.potential(grid),
                                          self.constants)

    def horizon(self):
        """Physical duration matching 10^4 steps at the 30-cell time step."""
        ref = InfiniteWellSpec(a=self.a, n_cells=30,
                               constants=self.constants,
                               dt_factor=self.dt_factor)
        return 10_000 * ref.time_step()

    def default_n_t(self):
        return int(round(self.horizon() / self.time_step()))


def infinite_well_sample(spec, grid, dt, t=0.0, amplitude=None):
    """Sampled analytic state (psi_R at t, psi_I at t - dt/2).

    With amplitude None the state is normalized so its discrete total
    probability equals 1.
    """
    c = spec.constants
    x, y, z = grid.node_coordinates()
    f3 = (np.sin(np.pi * x[None, None, :] / spec.a)
          * np.sin(np.pi * y[None, :, None] / spec.a)
          * np.sin(np.pi * z[:, None, None] / spec.a))
    e1 = spec.ground_energy

    def pair(amp):
        theta_r = e1 * t / c.hbar + spec.phase
        theta_i = e1 * (t - 0.5 * dt) / c.hbar + spec.phase
        return (amp * (f3 * np.cos(theta_r)).reshape(-1),
                amp * (-f3 * np.sin(theta_i)).reshape(-1))

    if amplitude is not None:
        return pair(amplitude)
    psi_r, psi_i = pair(1.0)
    ops = DiscreteOperators(grid, spec.potential(grid), c)
    p0 = total_probability(psi_r, psi_i, ops, dt)
    return pair(1.0 / np.sqrt(p0))


def prepare_infinite_well(spec):
    """One-region graph (region "well") with the normalized lowest mode;
    returns (graph, dt)."""
    grid = spec.grid()
    dt = spec.time_step()
    psi_r, psi_i = infinite_well_sample(spec, grid, dt)
    region = Region.build("well", grid, spec.potential(grid), spec.constants,
                          BoundaryCondition.all_dirichlet(), psi_r, psi_i)
    return RegionGraph([region], []), dt


# ---------------------------------------------------------------------------
# Gaussian wavepacket on a potential step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBarrierSpec:
    """Wavepacket impinging on a step; open region [0, lx] x [0, ly] x [0, lz].

    The analytic solution is a superposition over a uniform k-grid of
    plane-wave modes with reflection and transmission coefficients of the
    step at x = a; the simulated region is driven through prescribed
    x-derivative samples on the west and east faces, uniform over y and z.
    The mode table (kbar, sigma, k, amps, omega, K, R, T) is derived from
    the fields once, on construction, and its arrays are read-only.
    """

    x0: float = -200e-9
    lambda_bar: float = 30e-9
    u0: float = 1.5e-3 * EV
    a: float = 100e-9
    lx: float = 200e-9
    ly: float = 2e-9
    lz: float = 2e-9
    cell: float = 1e-9
    constants: PhysicalConstants = ELECTRON
    dt_factor: float = 0.999
    horizon: float = 35e-12

    def __post_init__(self):
        self.grid()  # fails unless the cell fits every length
        kbar = 2.0 * np.pi / self.lambda_bar
        sigma = kbar / 10.0
        # 2001 modes: [kbar - 10 sigma, kbar + 10 sigma], spacing sigma/100.
        k = np.linspace(kbar - 10.0 * sigma, kbar + 10.0 * sigma, 2001)
        hbar, m = self.constants.hbar, self.constants.mass
        omega = hbar * k**2 / (2.0 * m)
        K = np.sqrt((2.0 * m * (hbar * omega - self.u0)).astype(
            complex)) / hbar
        table = {"kbar": kbar, "sigma": sigma, "k": k,
                 "amps": np.exp(-0.25 * ((k - kbar) / sigma)**2),
                 "omega": omega, "K": K, "R": (k - K) / (k + K),
                 "T": 2.0 * k / (k + K)}
        for name, value in table.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def grid(self):
        c = self.cell
        return RegionGrid(_cells_along(self.lx, c, "lx"),
                          _cells_along(self.ly, c, "ly"),
                          _cells_along(self.lz, c, "lz"), c, c, c)

    def potential(self, grid):
        a, u0 = self.a, self.u0
        tol = 1e-6 * self.cell

        def fn(x, y, z):
            ux = np.where(x < a - tol, 0.0,
                          np.where(np.abs(x - a) <= tol, 0.5 * u0, u0))
            return ux + 0.0 * y + 0.0 * z

        return PotentialField.from_function(grid, fn)

    def time_step(self):
        grid = self.grid()
        return self.dt_factor * cfl_limit(grid, self.potential(grid),
                                          self.constants)

    def default_n_t(self):
        return int(round(self.horizon / self.time_step()))

    def cross_section(self):
        return self.ly * self.lz


def _exp_i(a):
    """exp(1j a), exponentiated in place of the product."""
    z = 1j * a
    return np.exp(z, out=z)


def _barrier_incident(spec, xl, derivative):
    """Incident and reflected per-mode factors at positions xl <= a."""
    inc = _exp_i(np.outer(xl - spec.x0, spec.k))
    ref = _exp_i(np.outer(2.0 * spec.a - spec.x0 - xl, spec.k))
    if derivative:
        inc *= 1j * spec.k
        ref *= -1j * spec.k
    return inc, ref


def _barrier_transmitted(spec, xr, derivative):
    """Transmitted per-mode factors at positions xr > a, and the mode
    coefficients T exp(i k (a - x0)) they carry."""
    tran = _exp_i(np.outer(xr - spec.a, spec.K))
    if derivative:
        tran *= 1j * spec.K
    return tran, spec.T * np.exp(1j * spec.k * (spec.a - spec.x0))


def _barrier_factors(spec, x, derivative):
    """(left, inc, ref, tran, coef) at positions x; left masks x <= a."""
    left = x <= spec.a
    return (left, *_barrier_incident(spec, x[left], derivative),
            *_barrier_transmitted(spec, x[~left], derivative))


def _barrier_sum(spec, factors, weights):
    """Mode sum at one time from _barrier_factors and the time weights."""
    left, inc, ref, tran, coef = factors
    out = np.empty(left.shape, dtype=complex)
    out[left] = inc @ weights + ref @ (spec.R * weights)
    out[~left] = tran @ (coef * weights)
    return out


def _barrier_eval(spec, x, t, derivative):
    """Analytic wavepacket (or its x-derivative) at positions x.

    t is one time, giving shape (len(x),), or an array of times, giving
    (len(t), len(x)).  With an array of times the spatial factors are
    built once per position and each value is summed on its own, so it is
    bitwise equal to the single-position, single-time call; one time sums
    all positions in a single product per side of the step.  The weights
    amps exp(-i omega t) are formed time by time with the single-time
    expression; one exponential over all times measured slower, as its
    block-sized temporaries cost more than the per-time calls.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.ndim(t) == 0:
        weights = spec.amps * np.exp(-1j * spec.omega * t)
        return _barrier_sum(spec, _barrier_factors(spec, x, derivative),
                            weights)
    factors = [_barrier_factors(spec, x[j:j + 1], derivative)
               for j in range(x.size)]
    out = np.empty((len(t), x.size), dtype=complex)
    for i, ti in enumerate(t):
        weights = spec.amps * np.exp(-1j * spec.omega * ti)
        for j, f in enumerate(factors):
            out[i, j] = _barrier_sum(spec, f, weights)[0]
    return out


def barrier_wavefunction(spec, x, t):
    """Analytic wavepacket psi(x, t) (independent of y and z)."""
    return _barrier_eval(spec, x, t, derivative=False)


def barrier_gradient_x(spec, x, t):
    """x-derivative of the analytic wavepacket."""
    return _barrier_eval(spec, x, t, derivative=True)


# Steps whose boundary sources one BarrierDrive fill evaluates.
SOURCE_BLOCK_STEPS = 64


class BarrierDrive:
    """Prescribed x-derivatives on the west and east faces, a block at a time.

    A source callable (face, t) for both prescribed faces.  Asked for a
    step time n dt or (n + 1/2) dt that it does not hold, it evaluates both
    faces at the integer and half-step times of SOURCE_BLOCK_STEPS steps
    from n in one barrier_gradient_x call.  Those times are formed exactly
    as the steppers form them, so their later lookups hit; any other t is
    evaluated directly.  Every value is bitwise equal to
    barrier_gradient_x(spec, x_face, t)[0].
    """

    def __init__(self, spec, dt):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.spec = spec
        self.dt = dt
        self._x = (0.0, spec.lx)   # W, E: the table's columns
        self._row = {}             # time -> row of the table
        self._values = None

    def __call__(self, face, t):
        col = ("W", "E").index(face)
        row = self._row.get(t)
        if row is None:
            n = self._step_of(t)
            if n is None:
                return barrier_gradient_x(self.spec, self._x[col], t)[0]
            self._fill(n)
            row = self._row[t]
        return self._values[row, col]

    def _step_of(self, t):
        """The step n with t == n dt or t == (n + 1/2) dt, else None."""
        half = round(2.0 * t / self.dt)
        n = half // 2
        on_grid = n * self.dt if half % 2 == 0 else (n + 0.5) * self.dt
        return n if on_grid == t else None

    def _fill(self, n0):
        steps = np.arange(n0, n0 + SOURCE_BLOCK_STEPS)
        times = np.concatenate([steps * self.dt, (steps + 0.5) * self.dt])
        self._values = barrier_gradient_x(self.spec, self._x, times)
        self._row = {t: i for i, t in enumerate(times.tolist())}


def barrier_sources(spec, dt):
    """Prescribed hanging-variable sources: one BarrierDrive for W and E.

    dt is the step of the run the sources drive; it fixes the times that
    the drive evaluates a block at a time.
    """
    drive = BarrierDrive(spec, dt)
    return {"W": drive, "E": drive}


def barrier_sample(spec, grid, dt, t=0.0):
    """Sampled analytic state (psi_R at t, psi_I at t - dt/2)."""
    x, _, _ = grid.node_coordinates()
    shape = grid.node_shape
    line_r = barrier_wavefunction(spec, x, t)
    line_i = barrier_wavefunction(spec, x, t - 0.5 * dt)
    psi_r = np.broadcast_to(line_r.real[None, None, :], shape)
    psi_i = np.broadcast_to(line_i.imag[None, None, :], shape)
    return (np.ascontiguousarray(psi_r).reshape(-1),
            np.ascontiguousarray(psi_i).reshape(-1))


def _barrier_midpoints(spec, intervals):
    h = spec.lx / intervals
    return (np.arange(intervals) + 0.5) * h, h


def analytic_region_probability(spec, times, intervals=1000,
                                chunk=256):
    """Midpoint Riemann sum of |psi|^2 over the region, per time."""
    return _barrier_region_sums(spec, times, intervals, chunk)[0].copy()


def analytic_region_energy(spec, times, intervals=1000, chunk=256):
    """Midpoint Riemann sum of the energy density over the region.

    Density: (hbar^2 / 2m) |dpsi/dx|^2 + U |psi|^2 (transverse gradients
    vanish).
    """
    return _barrier_region_sums(spec, times, intervals, chunk)[1].copy()


def _barrier_region_sums(spec, times, intervals, chunk):
    """(probability, energy) per time, from one pass over the modes.

    Both sums share the |psi|^2 samples, so psi's spatial matrix is built
    and applied once and freed before the gradient's is built.  The last
    result is kept on the spec, which is frozen, so the second of the two
    public calls on the same times is free.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    key = (times.tobytes(), times.shape, intervals, chunk)
    memo = spec.__dict__.get("_region_sums")
    if memo is not None and memo[0] == key:
        return memo[1]
    xm, h = _barrier_midpoints(spec, intervals)
    u = np.where(xm < spec.a, 0.0,
                 np.where(xm == spec.a, 0.5 * spec.u0, spec.u0))
    kin = spec.constants.kinetic_factor
    area = spec.cross_section()
    chunks = [slice(s, s + chunk) for s in range(0, times.size, chunk)]

    def mode_sums(phi, c):  # psi (or its gradient) at times[c]
        w = spec.amps[None, :] * np.exp(-1j * np.outer(times[c], spec.omega))
        return w @ phi.T

    prob = np.empty(times.shape)
    energy = np.empty(times.shape)
    phi = _barrier_spatial_matrix(spec, xm, derivative=False)
    pot = []
    for c in chunks:
        sq = np.abs(mode_sums(phi, c))**2
        prob[c] = area * h * np.sum(sq, axis=1)
        sq *= u[None, :]
        pot.append(sq)
    del phi
    phi_g = _barrier_spatial_matrix(spec, xm, derivative=True)
    for c, dens in zip(chunks, pot):
        grad = np.abs(mode_sums(phi_g, c))**2
        grad *= kin
        dens += grad
        energy[c] = area * h * np.sum(dens, axis=1)
    spec.__dict__["_region_sums"] = (key, (prob, energy))
    return prob, energy


def _barrier_spatial_matrix(spec, x, derivative):
    """Per-mode spatial factors at positions x, shape (len(x), n_modes)."""
    x = np.asarray(x, dtype=float)
    phi = np.empty((x.size, spec.k.size), dtype=complex)
    left = x <= spec.a
    inc, ref = _barrier_incident(spec, x[left], derivative)
    ref *= spec.R[None, :]
    ref += inc
    phi[left] = ref
    del inc, ref
    tran, coef = _barrier_transmitted(spec, x[~left], derivative)
    tran *= coef[None, :]
    phi[~left] = tran
    return phi


def prepare_barrier(spec):
    """One-region graph (region "barrier") driven on its west and east
    faces, with the sampled wavepacket; returns (graph, dt)."""
    grid = spec.grid()
    dt = spec.time_step()
    psi_r, psi_i = barrier_sample(spec, grid, dt)
    boundary = BoundaryCondition(
        kinds={"W": PRESCRIBED, "E": PRESCRIBED, "S": NEUMANN0,
               "N": NEUMANN0, "B": NEUMANN0, "T": NEUMANN0},
        sources=barrier_sources(spec, dt))
    region = Region.build("barrier", grid, spec.potential(grid),
                          spec.constants, boundary, psi_r, psi_i)
    return RegionGraph([region], []), dt


# ---------------------------------------------------------------------------
# Proton tunneling through a barrier (three coupled regions)
# ---------------------------------------------------------------------------

# Mode table: phases (units of pi), which of the four x-energies each mode
# uses, transverse wavenumber multipliers, and the barrier symmetry (even
# modes have B != 0, C = 0; odd modes B = 0, C != 0).
TUNNELING_EX_MEV = (18.858713602402805, 18.858842481348997,
                    75.369931622707597, 75.370616971460279)
TUNNELING_MODE_DELTAS = (0.15, 0.95, 0.25, 1.1, 0.0, 1.3, 0.0, 0.7)
TUNNELING_MODE_EX = (0, 1, 2, 3, 0, 1, 0, 1)
TUNNELING_MODE_KY = (1, 1, 1, 1, 2, 2, 1, 1)
TUNNELING_MODE_KZ = (1, 1, 1, 1, 1, 1, 2, 2)
TUNNELING_MODE_EVEN = (True, False, True, False, True, False, True, False)

TUNNELING_REGIONS = ("reactant", "barrier", "product")

# Default simulated time of a tunneling run (s).
TUNNELING_HORIZON = 1e-12

# Barrier-region time-step limit used to fix the default barrier height.
_BARRIER_DT_CFL = 55.844895610996282e-18


@dataclass(frozen=True)
class TunnelingSpec:
    """Three-region tunneling setup and its bound-mode superposition."""

    lx_reactant: float = 1e-10
    lx_barrier: float = 0.5e-10
    lx_product: float = 1e-10
    ly: float = 1e-10
    lz: float = 0.9e-10
    cell: float = (1.0 / 30.0) * 1e-10
    temperature: float = 298.0
    constants: PhysicalConstants = PROTON_1DA
    dt_factor: float = 0.999
    u0: Optional[float] = None

    def __post_init__(self):
        for region in TUNNELING_REGIONS:
            self.region_grid(region)  # fails unless the cell fits

    @property
    def barrier_height(self):
        """Barrier potential (J); the default inverts the closed-form
        time-step limit of the barrier region."""
        if self.u0 is not None:
            return self.u0
        c = self.constants
        kin = (2.0 * c.hbar / c.mass) * 3.0 / self.cell**2
        return c.hbar * (2.0 / _BARRIER_DT_CFL - kin)

    def region_length(self, region):
        return {"reactant": self.lx_reactant, "barrier": self.lx_barrier,
                "product": self.lx_product}[region]

    def region_grid(self, region):
        c = self.cell
        return RegionGrid(
            _cells_along(self.region_length(region), c, f"lx_{region}"),
            _cells_along(self.ly, c, "ly"), _cells_along(self.lz, c, "lz"),
            c, c, c)

    def region_potential(self, region, grid):
        value = self.barrier_height if region == "barrier" else 0.0
        return PotentialField.uniform(grid, value)

    def time_step(self):
        grid = self.region_grid("barrier")
        return self.dt_factor * cfl_limit(
            grid, self.region_potential("barrier", grid), self.constants)

    def default_n_t(self):
        return int(round(TUNNELING_HORIZON / self.time_step()))


@dataclass(frozen=True)
class TunnelingMode:
    """One bound mode of the superposition."""

    index: int
    e_x: float
    k_x: float
    kappa_x: float
    coef_a: float
    coef_b: float
    coef_c: float
    coef_d: float
    k_y: float
    k_z: float
    energy: float
    weight: complex


def _matching_residual(spec, e_x, even):
    """Zero when e_x satisfies the interface matching condition."""
    c = spec.constants
    if not spec.lx_reactant == spec.lx_product:
        raise GeometryError(
            "matching condition assumes equal outer lengths")
    l = spec.lx_reactant
    w = spec.lx_barrier
    k = np.sqrt(2.0 * c.mass * e_x) / c.hbar
    kap = np.sqrt(2.0 * c.mass * (spec.barrier_height - e_x)) / c.hbar
    cot = np.cos(k * l) / np.sin(k * l)
    hyp = np.tanh(0.5 * kap * w) if even else 1.0 / np.tanh(0.5 * kap * w)
    return k * cot + kap * hyp


@np.errstate(all="ignore")
def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of f in [xa, xb] by Brent's method.

    An operation-for-operation port of scipy.optimize.brentq (its C
    kernel brentq.c), so it returns the same bits; scipy.optimize alone
    takes about half a second to import.  f(xa) and f(xb) must differ in
    sign; RuntimeError if maxiter iterations do not converge.  The
    arithmetic is on numpy scalars, which behave as C doubles (x / 0 is
    inf, not an error).
    """
    xpre, xcur = np.float64(xa), np.float64(xb)
    xblk = fblk = spre = scur = np.float64(0.0)
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:  # the C MIN macro, NaN-wise too
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = np.float64(f(xcur))
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations")


def tunneling_mode_energies(spec, bracket_rel=5e-3):
    """The four x-energies (J), root-solved near the tabulated values."""
    out = []
    for i, e_mev in enumerate(TUNNELING_EX_MEV):
        even = (i % 2 == 0)
        e0 = e_mev * 1e-3 * EV
        lo, hi = e0 * (1.0 - bracket_rel), e0 * (1.0 + bracket_rel)
        if hi >= spec.barrier_height:
            raise GeometryError(
                f"barrier height {spec.barrier_height:.6g} J does not "
                f"exceed x-energy {i + 1} ({hi:.6g} J)")
        f_lo = _matching_residual(spec, lo, even)
        f_hi = _matching_residual(spec, hi, even)
        if f_lo * f_hi > 0.0:
            raise GeometryError(
                f"no sign change in bracket for x-energy {i + 1}; "
                "geometry inconsistent with the tabulated values")
        out.append(_brentq(lambda e: _matching_residual(spec, e, even),
                           lo, hi, xtol=1e-30, rtol=1e-15))
    return np.array(out)


def tunneling_modes(spec):
    """All 8 modes with matched, x-normalized coefficients and weights."""
    c = spec.constants
    e_x4 = tunneling_mode_energies(spec)
    l = spec.lx_reactant
    w = spec.lx_barrier
    modes = []
    for m in range(8):
        e_x = e_x4[TUNNELING_MODE_EX[m]]
        even = TUNNELING_MODE_EVEN[m]
        k = np.sqrt(2.0 * c.mass * e_x) / c.hbar
        kap = np.sqrt(2.0 * c.mass * (spec.barrier_height - e_x)) / c.hbar
        if even:
            b_c, c_c = 1.0, 0.0
            a_c = np.cosh(0.5 * kap * w) / np.sin(k * l)
            d_c = -a_c
            bar_sq = 0.5 * w + np.sinh(kap * w) / (2.0 * kap)
        else:
            b_c, c_c = 0.0, 1.0
            a_c = -np.sinh(0.5 * kap * w) / np.sin(k * l)
            d_c = a_c
            bar_sq = -0.5 * w + np.sinh(kap * w) / (2.0 * kap)
        outer_sq = 0.5 * l - np.sin(2.0 * k * l) / (4.0 * k)
        norm = np.sqrt(a_c**2 * outer_sq + bar_sq + d_c**2 * outer_sq)
        a_c, b_c, c_c, d_c = (v / norm for v in (a_c, b_c, c_c, d_c))

        k_y = TUNNELING_MODE_KY[m] * np.pi / spec.ly
        k_z = TUNNELING_MODE_KZ[m] * np.pi / spec.lz
        e_y = (c.hbar * k_y)**2 / (2.0 * c.mass)
        e_z = (c.hbar * k_z)**2 / (2.0 * c.mass)
        energy = e_x + e_y + e_z
        delta = TUNNELING_MODE_DELTAS[m] * np.pi
        weight = np.exp(-energy / (2.0 * spec.temperature * BOLTZMANN)
                        + 1j * delta)
        modes.append(TunnelingMode(
            index=m + 1, e_x=e_x, k_x=k, kappa_x=kap,
            coef_a=a_c, coef_b=b_c, coef_c=c_c, coef_d=d_c,
            k_y=k_y, k_z=k_z, energy=energy, weight=weight))
    scale = 1.0 / np.sqrt(sum(abs(md.weight)**2 for md in modes))
    return [replace(md, weight=md.weight * scale) for md in modes]


def tunneling_mode_fx(spec, mode, region, x):
    """Per-region x-profile of a mode; x is local to the region."""
    x = np.asarray(x, dtype=float)
    if region == "reactant":
        return mode.coef_a * np.sin(mode.k_x * x)
    if region == "barrier":
        arg = mode.kappa_x * (x - 0.5 * spec.lx_barrier)
        return mode.coef_b * np.cosh(arg) + mode.coef_c * np.sinh(arg)
    if region == "product":
        return mode.coef_d * np.sin(mode.k_x * (x - spec.lx_product))
    raise ValueError(f"unknown region {region!r}")


def analytic_total_energy(spec, modes=None):
    """Thermally weighted mean mode energy (J)."""
    if modes is None:
        modes = tunneling_modes(spec)
    wsum = sum(abs(md.weight)**2 for md in modes)
    return sum(abs(md.weight)**2 * md.energy for md in modes) / wsum


def tunneling_sample(spec, region, grid, dt, t=0.0, modes=None,
                     amplitude=1.0):
    """Sampled analytic state of one region (psi_R at t, psi_I at t - dt/2)."""
    if modes is None:
        modes = tunneling_modes(spec)
    c = spec.constants
    x, y, z = grid.node_coordinates()
    gy_base = np.sqrt(2.0 / spec.ly)
    gz_base = np.sqrt(2.0 / spec.lz)
    psi_r = np.zeros(grid.node_shape)
    psi_i = np.zeros(grid.node_shape)
    for md in modes:
        fx = tunneling_mode_fx(spec, md, region, x)
        gy = gy_base * np.sin(md.k_y * y)
        hz = gz_base * np.sin(md.k_z * z)
        shape3 = fx[None, None, :] * gy[None, :, None] * hz[:, None, None]
        w_r = md.weight * np.exp(-1j * md.energy * t / c.hbar)
        w_i = md.weight * np.exp(-1j * md.energy * (t - 0.5 * dt) / c.hbar)
        psi_r += shape3 * w_r.real
        psi_i += shape3 * w_i.imag
    return (amplitude * psi_r.reshape(-1), amplitude * psi_i.reshape(-1))


def _tunneling_boundary(region):
    kinds = {f: DIRICHLET0 for f in ("S", "N", "B", "T")}
    if region == "reactant":
        kinds.update({"W": DIRICHLET0, "E": INTERFACE})
    elif region == "barrier":
        kinds.update({"W": INTERFACE, "E": INTERFACE})
    else:
        kinds.update({"W": INTERFACE, "E": DIRICHLET0})
    return BoundaryCondition(kinds)


def build_tunneling_graph(spec, t=0.0, modes=None):
    """Three-region graph with the normalized sampled initial state.

    Returns (graph, dt).  The state is scaled so that the summed discrete
    probability over the regions equals 1 at the initial step.
    """
    if modes is None:
        modes = tunneling_modes(spec)
    dt = spec.time_step()
    ops, samples = {}, {}
    for region in TUNNELING_REGIONS:
        grid = spec.region_grid(region)
        ops[region] = DiscreteOperators(
            grid, spec.region_potential(region, grid), spec.constants)
        samples[region] = tunneling_sample(spec, region, grid, dt, t=t,
                                           modes=modes)
    total = sum(total_probability(samples[r][0], samples[r][1],
                                  ops[r], dt)
                for r in TUNNELING_REGIONS)
    amp = 1.0 / np.sqrt(total)
    regions = []
    for region in TUNNELING_REGIONS:
        psi_r, psi_i = samples[region]
        regions.append(Region(
            name=region, ops=ops[region],
            boundary=_tunneling_boundary(region),
            state=StaggeredState(psiR=amp * psi_r, psiI=amp * psi_i)))
    interfaces = [Interface("reactant", "E", "barrier", "W"),
                  Interface("barrier", "E", "product", "W")]
    return RegionGraph(regions, interfaces), dt
