"""Benchmark scenarios with analytic solutions.

Three setups are provided:

* a particle in an infinite potential well (closed box, lowest mode),
* a Gaussian wavepacket hitting a potential step, simulated on an open
  subregion driven through prescribed boundary derivatives, and
* proton tunneling through a barrier, simulated as three coupled regions
  (reactant, barrier, product) initialized from a superposition of
  bound tunneling modes with thermal weights.

Each scenario is one frozen spec dataclass.  Its fields declared with
constants.config_key are its config keys; `constants` (the particle) is
none.  Every spec has grids() (region name -> RegionGrid, allocating no
node array), potential(region, grid), prepare() ((RegionGraph, dt) with the
initial state) and references(series) ((norm_P, norm_H, extra summary
keys) of a run's region name -> DiagnosticsSeries).
"""

import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import (BOLTZMANN, ELECTRON, EV, PROTON_1DA,
                        PhysicalConstants, config_key, integer, number,
                        positive)
from .coupling import (Interface, Region, RegionGraph,
                       cross_region_conservation)
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

    a: float = config_key(30e-9, positive)
    n_cells: int = config_key(30, integer(1))
    constants: PhysicalConstants = ELECTRON
    phase: float = config_key(np.pi / 3.0, number)
    dt_factor: float = config_key(0.999, positive)

    def grid(self):
        h = self.a / self.n_cells
        return RegionGrid(self.n_cells, self.n_cells, self.n_cells, h, h, h)

    def grids(self):
        return {"well": self.grid()}

    def potential(self, region, grid):
        return PotentialField.uniform(grid)

    # prepare and references, here and in the other specs, call this
    # module's functions through its globals, never a stored reference, so
    # that a wrapper installed on the module after import (as the
    # benchmark does to time them) sees every call.
    def prepare(self):
        return prepare_infinite_well(self)

    def references(self, series):
        """The closed box keeps P = 1 and H = E_1."""
        return 1.0, self.ground_energy, {}

    @property
    def ground_energy(self):
        """E_1 = 3 hbar^2 pi^2 / (2 m a^2)."""
        c = self.constants
        return 3.0 * (np.pi * c.hbar / self.a)**2 / (2.0 * c.mass)

    def time_step(self):
        grid = self.grid()
        return self.dt_factor * cfl_limit(grid, self.potential("well", grid),
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
    ops = DiscreteOperators(grid, spec.potential("well", grid), c)
    p0 = total_probability(psi_r, psi_i, ops, dt)
    return pair(1.0 / np.sqrt(p0))


def prepare_infinite_well(spec):
    """One-region graph (region "well") with the normalized lowest mode;
    returns (graph, dt)."""
    grid = spec.grid()
    dt = spec.time_step()
    psi_r, psi_i = infinite_well_sample(spec, grid, dt)
    region = Region.build("well", grid, spec.potential("well", grid),
                          spec.constants, BoundaryCondition.all_dirichlet(),
                          psi_r, psi_i)
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

    x0: float = config_key(-200e-9, number)
    lambda_bar: float = config_key(30e-9, positive)
    u0: float = config_key(1.5e-3 * EV, number)
    a: float = config_key(100e-9, number)
    lx: float = config_key(200e-9, positive)
    ly: float = config_key(2e-9, positive)
    lz: float = config_key(2e-9, positive)
    cell: float = config_key(1e-9, positive)
    constants: PhysicalConstants = ELECTRON
    dt_factor: float = config_key(0.999, positive)
    horizon: float = config_key(35e-12, positive)

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

    def grids(self):
        return {"barrier": self.grid()}

    def potential(self, region, grid):
        a, u0 = self.a, self.u0
        tol = 1e-6 * self.cell

        def fn(x, y, z):
            ux = np.where(x < a - tol, 0.0,
                          np.where(np.abs(x - a) <= tol, 0.5 * u0, u0))
            return ux + 0.0 * y + 0.0 * z

        return PotentialField.from_function(grid, fn)

    def time_step(self):
        grid = self.grid()
        return self.dt_factor * cfl_limit(
            grid, self.potential("barrier", grid), self.constants)

    def default_n_t(self):
        return int(round(self.horizon / self.time_step()))

    def cross_section(self):
        return self.ly * self.lz

    def prepare(self):
        return prepare_barrier(self)

    def references(self, series):
        """Peak analytic probability and energy of the region, sampled
        every max(1, n_t // 700) steps: at most 1 400 times (1 001 at
        n_t = 1 000)."""
        (s,) = series.values()
        stride = max(1, s.n_t // 700)
        times = np.arange(0, s.steps_completed + 1, stride) * s.dt
        norm_p = float(analytic_region_probability(self, times).max())
        norm_h = float(analytic_region_energy(self, times).max())
        return norm_p, norm_h, {"max_analytic_P": norm_p,
                                "max_analytic_H_joules": norm_h,
                                "max_analytic_H_ev": norm_h / EV}


def _exp_i(a):
    """exp(1j a), exponentiated in place of the product."""
    z = 1j * a
    return np.exp(z, out=z)


def _barrier_weights(spec, times):
    """Mode weights amps exp(-i omega t), one row per time."""
    w = _exp_i(np.outer(times, -spec.omega))
    w *= spec.amps
    return w


def _barrier_recurrence_weights(spec, times, phase):
    """Weights of two equal runs of times, each dt apart, by recurrence.

    phase is the row exp(-i omega dt).  Each run's first row is an exact
    _barrier_weights row and each later row the previous one times phase,
    so a run of m times forms 1 row of exponentials in place of m.  The
    drift from the exact rows is mostly their own rounding of omega t,
    which grows with t (1.5e-14 of sum_m |amps_m phi_m| seen near step
    75 000 of the default barrier).
    """
    m = times.size // 2
    w = np.empty((2, m, phase.size), dtype=complex)
    w[:, 0] = _barrier_weights(spec, times[::m])
    for k in range(1, m):
        np.multiply(w[:, k - 1], phase, out=w[:, k])
    return w.reshape(times.size, phase.size)


def _barrier_eval(spec, x, t, derivative):
    """Analytic wavepacket (or its x-derivative) at positions x.

    t is one time, giving shape (len(x),), or an array of times, giving
    (len(t), len(x)).  Either way the values are one product, the times'
    weights times the positions' transposed spatial matrix, so a value of
    a one-time call agrees with a multi-time one to roundoff (see _CHUNK).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = _barrier_spatial_matrix(spec, x, derivative)
    values = _barrier_weights(spec, np.atleast_1d(t)) @ phi.T
    return values[0] if np.ndim(t) == 0 else values


def barrier_wavefunction(spec, x, t):
    """Analytic wavepacket psi(x, t) (independent of y and z)."""
    return _barrier_eval(spec, x, t, derivative=False)


def barrier_gradient_x(spec, x, t, recurrence=None):
    """x-derivative of the analytic wavepacket.

    recurrence = (spatial matrix of x, phase row exp(-i omega dt)), as a
    BarrierDrive keeps them, takes t as two equal runs of times dt apart
    and forms their weights by _barrier_recurrence_weights.
    """
    if recurrence is None:
        return _barrier_eval(spec, x, t, derivative=True)
    phi, phase = recurrence
    return _barrier_recurrence_weights(spec, t, phase) @ phi.T


# Steps whose boundary sources one BarrierDrive fill evaluates.
SOURCE_BLOCK_STEPS = 64


class BarrierDrive:
    """Prescribed x-derivatives on the west and east faces, a block at a time.

    A source callable (face, t) for both prescribed faces.  Asked for a
    step time n dt or (n + 1/2) dt that it does not hold, it evaluates both
    faces at the integer and half-step times of the SOURCE_BLOCK_STEPS
    steps from n0 = n - n % SOURCE_BLOCK_STEPS in one barrier_gradient_x
    call, so a step's values depend on the step alone, not on where a run
    started.  Those times are formed exactly as the steppers form them, so
    their later lookups hit and return the block call's bits.

    A block's weights come from a phase recurrence (see
    _barrier_recurrence_weights), with the phase row and the faces' spatial
    matrix kept from construction: 2 rows of exponentials, not 128.  Over
    the default horizon a value stays within 6.5e-15 of
    sum_m |amps_m phi_m| of the exact evaluation; the discrete balances
    hold exactly for any hanging data, so this moves the output at
    roundoff only.  Any other t is evaluated directly and exactly, in a
    one-time call (see _CHUNK).
    """

    def __init__(self, spec, dt):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.spec = spec
        self.dt = dt
        self._x = (0.0, spec.lx)   # W, E: the table's columns
        self._recurrence = (
            _barrier_spatial_matrix(spec, np.array(self._x), True),
            _exp_i(spec.omega * -dt))
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

    def _fill(self, n):
        n0 = n - n % SOURCE_BLOCK_STEPS
        steps = np.arange(n0, n0 + SOURCE_BLOCK_STEPS)
        times = np.concatenate([steps * self.dt, (steps + 0.5) * self.dt])
        self._values = barrier_gradient_x(self.spec, self._x, times,
                                          self._recurrence)
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
    line_r, line_i = barrier_wavefunction(spec, x, [t, t - 0.5 * dt])
    psi_r = np.broadcast_to(line_r.real[None, None, :], shape)
    psi_i = np.broadcast_to(line_i.imag[None, None, :], shape)
    return (np.ascontiguousarray(psi_r).reshape(-1),
            np.ascontiguousarray(psi_i).reshape(-1))


def _barrier_midpoints(spec, intervals):
    h = spec.lx / intervals
    return (np.arange(intervals) + 0.5) * h, h


def analytic_region_probability(spec, times, intervals=1000):
    """Midpoint Riemann sum of |psi|^2 over the region, per time."""
    return _barrier_region_sums(spec, times, intervals)[0].copy()


def analytic_region_energy(spec, times, intervals=1000):
    """Midpoint Riemann sum of the energy density over the region.

    Density: (hbar^2 / 2m) |dpsi/dx|^2 + U |psi|^2 (transverse gradients
    vanish).
    """
    return _barrier_region_sums(spec, times, intervals)[1].copy()


# Times per reference GEMM and per worker's piece of it, positions per block
# of a spatial matrix, and the most workers (their temporaries stay below one
# spatial matrix).  A row's GEMM bits are the same in any call of two or more
# rows but not in a one-row call (so too in the sources' blocks against a
# one-time _barrier_eval), so pieces split the chunks along time, and a last
# row is left alone only where it was alone in its chunk.
_CHUNK, _PIECE, _BLOCK, _WORKERS = 256, 128, 50, 3


def _workers(pieces):
    """Reference threads: one per CPU this process may run on, capped."""
    return max(1, min(len(os.sched_getaffinity(0)), pieces, _WORKERS))


def _barrier_region_sums(spec, times, intervals):
    """(probability, energy) per time, from one pass over the modes.

    Both sums share the |psi|^2 samples, so psi's spatial matrix is built
    and applied once and freed before the gradient's is built; pieces of
    times run on threads, each writing only its own rows.  The last result
    is kept on the frozen spec, so a second call on the same times is free.
    """
    from concurrent.futures import ThreadPoolExecutor
    times = np.atleast_1d(np.asarray(times, dtype=float))
    key = (times.tobytes(), times.shape, intervals)
    memo = spec.__dict__.get("_region_sums")
    if memo is not None and memo[0] == key:
        return memo[1]
    xm, h = _barrier_midpoints(spec, intervals)
    u = np.where(xm < spec.a, 0.0,
                 np.where(xm == spec.a, 0.5 * spec.u0, spec.u0))
    kin = spec.constants.kinetic_factor
    area = spec.cross_section()
    cuts = [c for c in range(0, times.size, _PIECE)
            if c % _CHUNK == 0 or c != times.size - 1] + [times.size]
    pieces = list(map(slice, cuts, cuts[1:]))

    def mode_sums(phi, c):  # psi (or its gradient) at times[c]
        return _barrier_weights(spec, times[c]) @ phi.T

    prob, energy = np.empty(times.shape), np.empty(times.shape)
    pot = np.empty((times.size, xm.size))

    def probability(c):
        sq = np.abs(mode_sums(phi, c))**2
        prob[c] = area * h * np.sum(sq, axis=1)
        pot[c] = sq * u[None, :]

    def kinetic(c):
        pot[c] += kin * np.abs(mode_sums(phi, c))**2
        energy[c] = area * h * np.sum(pot[c], axis=1)

    with ThreadPoolExecutor(_workers(len(pieces))) as pool:
        phi = _barrier_spatial_matrix(spec, xm, False, pool.map)
        list(pool.map(probability, pieces))
        del phi
        phi = _barrier_spatial_matrix(spec, xm, True, pool.map)
        list(pool.map(kinetic, pieces))
    spec.__dict__["_region_sums"] = (key, (prob, energy))
    return prob, energy


def _barrier_spatial_matrix(spec, x, derivative, map_blocks=map):
    """Per-mode factors at positions x, (len(x), n_modes), by blocks of x.

    Left of the step (x <= a) a mode is its incident wave plus R times its
    reflected wave; right of it, its transmitted wave times the coefficient
    T exp(i k (a - x0)).
    """
    phi = np.empty((x.size, spec.k.size), dtype=complex)
    coef = spec.T * np.exp(1j * spec.k * (spec.a - spec.x0))

    def fill(rows):
        left = x[rows] <= spec.a
        xl, xr = x[rows][left], x[rows][~left]
        inc = _exp_i(np.outer(xl - spec.x0, spec.k))
        ref = _exp_i(np.outer(2.0 * spec.a - spec.x0 - xl, spec.k))
        tran = _exp_i(np.outer(xr - spec.a, spec.K))
        if derivative:
            inc *= 1j * spec.k
            ref *= -1j * spec.k
            tran *= 1j * spec.K
        ref *= spec.R
        ref += inc
        phi[rows][left] = ref
        tran *= coef
        phi[rows][~left] = tran
    list(map_blocks(fill, [slice(s, s + _BLOCK)
                           for s in range(0, x.size, _BLOCK)]))
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
    region = Region.build("barrier", grid, spec.potential("barrier", grid),
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

    lx_reactant: float = config_key(1e-10, positive)
    lx_barrier: float = config_key(0.5e-10, positive)
    lx_product: float = config_key(1e-10, positive)
    ly: float = config_key(1e-10, positive)
    lz: float = config_key(0.9e-10, positive)
    cell: float = config_key((1.0 / 30.0) * 1e-10, positive)
    temperature: float = config_key(298.0, positive)
    constants: PhysicalConstants = PROTON_1DA
    dt_factor: float = config_key(0.999, positive)
    u0: Optional[float] = config_key(None, positive)

    def __post_init__(self):
        self.grids()  # fails unless the cell fits every length

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

    def grids(self):
        return {r: self.region_grid(r) for r in TUNNELING_REGIONS}

    def potential(self, region, grid):
        value = self.barrier_height if region == "barrier" else 0.0
        return PotentialField.uniform(grid, value)

    def time_step(self):
        grid = self.region_grid("barrier")
        return self.dt_factor * cfl_limit(
            grid, self.potential("barrier", grid), self.constants)

    def default_n_t(self):
        return int(round(TUNNELING_HORIZON / self.time_step()))

    def prepare(self):
        return build_tunneling_graph(self)

    def references(self, series):
        """The summed probability stays 1; the energy reference is the
        thermal mean, and the summary adds the summed drifts."""
        norm_h = analytic_total_energy(self)
        cons = cross_region_conservation(series)
        return 1.0, norm_h, {
            "analytic_H_joules": norm_h,
            "analytic_H_ev": norm_h / EV,
            "total_P_max_drift": cons["max_P_drift"],
            "total_H_max_drift_normalized": cons["max_H_drift_normalized"]}


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
            grid, spec.potential(region, grid), spec.constants)
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
