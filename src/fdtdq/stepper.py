"""Leap-frog time integration with boundary hanging variables.

psi_R lives at integer steps n, psi_I at half steps n - 1/2.  One step first
advances the imaginary part and then the real part:

    hbar V'' (psi_I^{n+1/2} - psi_I^{n-1/2}) / dt = -H psi_R^n
                                                    + H_bot gradR^n
    hbar V'' (psi_R^{n+1}   - psi_R^n)       / dt =  H psi_I^{n+1/2}
                                                    - H_bot gradI^{n+1/2}

Hanging variables are supplied per face: zero for isolated (Neumann-zero)
faces, sampled from a source for driven faces, and unused on Dirichlet-zero
faces, whose node samples are pinned to zero and skipped by the update.
Only the driven faces carry nonzero hanging data into the update, so H_bot
is scattered over those faces alone.

One kernel (leapfrog) and one driver loop (drive) serve a single region
and a graph of coupled regions alike.  Regions meeting on a common face
share its samples, which take the merged update

    hbar (V''_A + V''_B) (psi^new - psi) / dt = rhs_A|face + rhs_B|face,

and each region recovers its interface hanging variables from its own
update equation, so every balance holds region by region.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .diagnostics import atomic_open
from .grid import FACE_AXIS, FACES, face_node_slices
from .operators import DiscreteOperators

DIRICHLET0 = "dirichlet0"
NEUMANN0 = "neumann0"
PRESCRIBED = "prescribed"
INTERFACE = "interface"


class DivergenceError(RuntimeError):
    """Raised when the solution exceeds the divergence guard."""

    def __init__(self, step, norm):
        super().__init__(
            f"solution diverged at step {step} (max |psi| = {norm:.3e})")
        self.step = step
        self.norm = norm


class PinnedNodes(NamedTuple):
    """The nodes Dirichlet faces pin to zero, as a 3D mask and as flat
    indices (the update re-zeroes them through the indices)."""

    mask: np.ndarray
    flat: np.ndarray


@dataclass(frozen=True)
class BoundaryCondition:
    """Per-face boundary treatment.

    kinds maps each face to one of dirichlet0, neumann0, prescribed or
    interface.  Prescribed faces take values from sources[face], a callable
    (face, t) -> 2D array (or scalar, possibly complex) of derivative
    samples along the face axis, in the face's hanging-variable layout.
    The real part drives the imaginary half step and the imaginary part
    the real half step.
    """

    kinds: dict
    sources: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in FACES:
            if f not in self.kinds:
                raise ValueError(f"face {f} has no boundary condition")
            kind = self.kinds[f]
            if kind not in (DIRICHLET0, NEUMANN0, PRESCRIBED, INTERFACE):
                raise ValueError(f"unknown boundary kind {kind!r}")
            if kind == PRESCRIBED and f not in self.sources:
                raise ValueError(f"prescribed face {f} has no source")

    @cached_property
    def driven_faces(self):
        """Faces whose hanging variables enter the update (prescribed).

        Cached: every half step asks for it twice."""
        return tuple(f for f in FACES if self.kinds[f] == PRESCRIBED)

    @property
    def flux_faces(self):
        """Faces that can carry boundary flux: prescribed or interface.

        Dirichlet-zero and Neumann-zero faces have identically zero hanging
        variables, so they contribute nothing to I_P or s.
        """
        return tuple(f for f in FACES
                     if self.kinds[f] in (PRESCRIBED, INTERFACE))

    @classmethod
    def all_dirichlet(cls):
        return cls({f: DIRICHLET0 for f in FACES})

    def pinned_mask(self, grid):
        """Boolean 3D mask of nodes pinned to zero by Dirichlet faces."""
        mask = np.zeros(grid.node_shape, dtype=bool)
        for f in FACES:
            if self.kinds[f] == DIRICHLET0:
                mask[face_node_slices(grid, f)] = True
        return mask

    def pinned_nodes(self, grid):
        """PinnedNodes of the grid's Dirichlet faces."""
        mask = self.pinned_mask(grid)
        return PinnedNodes(mask, np.flatnonzero(mask))

    def hanging_at(self, ops, t, part="real"):
        """Full hanging-variable vector at time t (zeros except sources).

        part selects the real or imaginary component of the sources.
        """
        out = ops.zero_hanging()
        for f in self.driven_faces:
            vals = np.asarray(self.sources[f](f, t))
            ops.face_block(out, f)[...] = \
                vals.real if part == "real" else vals.imag
        return out


@dataclass
class StaggeredState:
    """Staggered solution pair (psi_R^n, psi_I^{n-1/2}) plus the history
    window needed by the energy diagnostics."""

    psiR: np.ndarray
    psiI: np.ndarray
    n: int = 0
    psiR_prev: Optional[np.ndarray] = None
    gradR_prev: Optional[np.ndarray] = None
    gradI_prev: Optional[np.ndarray] = None

    def copy(self):
        return StaggeredState(
            psiR=self.psiR.copy(), psiI=self.psiI.copy(), n=self.n,
            psiR_prev=None if self.psiR_prev is None
            else self.psiR_prev.copy(),
            gradR_prev=None if self.gradR_prev is None
            else self.gradR_prev.copy(),
            gradI_prev=None if self.gradI_prev is None
            else self.gradI_prev.copy())


@dataclass
class StepWindow:
    """All staggered quantities produced while advancing step n -> n+1."""

    n: int
    psiR_n: np.ndarray
    psiR_np1: np.ndarray
    psiI_nm: np.ndarray      # psi_I^{n-1/2}
    psiI_np: np.ndarray      # psi_I^{n+1/2}
    gradR_n: np.ndarray
    gradI_np: np.ndarray     # gradI^{n+1/2}
    h_psiR_n: np.ndarray     # H psi_R^n
    h_psiI_np: np.ndarray    # H psi_I^{n+1/2}
    # Largest |psi| over psiR_np1 and psiI_np, as leapfrog measures it;
    # a window built without it reads inf, which trips drive's guard.
    largest: float = math.inf


@dataclass
class Region:
    """One rectangular region, as the driver advances it; pinned caches
    the boundary's PinnedNodes."""

    name: str
    ops: DiscreteOperators
    boundary: BoundaryCondition
    state: StaggeredState

    def __post_init__(self):
        self.grid = self.ops.grid
        self.pinned = self.boundary.pinned_nodes(self.grid)

    @classmethod
    def build(cls, name, grid, potential, constants, boundary, psiR, psiI):
        ops = DiscreteOperators(grid, potential, constants)
        state = StaggeredState(psiR=np.asarray(psiR, dtype=float).reshape(-1),
                               psiI=np.asarray(psiI, dtype=float).reshape(-1))
        return cls(name=name, ops=ops, boundary=boundary, state=state)


def _half_step(parts, interfaces, dt, t, real_half, acting, before):
    """One half step of every region; returns (new samples, H acting, g).

    The imaginary half takes before = psi_I^{n-1/2} to psi_I^{n+1/2} with
    right-hand side H_bot gradR^n - H psi_R^n (acting = psi_R^n, t = n dt);
    the real half takes before = psi_R^n to psi_R^{n+1} with
    H psi_I^{n+1/2} - H_bot gradI^{n+1/2}.  The right-hand side is built
    and scaled in place, with the roundings of the textbook expressions.
    """
    new, h, grad, rhs = {}, {}, {}, {}
    for name, (ops, bc, _, _) in parts.items():
        grad[name] = bc.hanging_at(ops, t, part="imag" if real_half
                                   else "real")
        h[name] = ops.apply_H(acting[name])
        rhs[name] = ops.apply_Hbot(grad[name], bc.driven_faces)
        if real_half:
            np.subtract(h[name], rhs[name], out=rhs[name])
        else:
            rhs[name] -= h[name]

    # Merged update of the shared samples, from the unscaled right-hand
    # sides on the interface faces.
    merged = []
    for itf in interfaces:
        ops_a, ops_b = parts[itf.region_a][0], parts[itf.region_b][0]
        sla = ops_a.face_slices[itf.face_a]
        slb = ops_b.face_slices[itf.face_b]
        denom = ops_a.v3[sla] + ops_b.v3[slb]
        base = before[itf.region_a].reshape(ops_a.grid.node_shape)[sla]
        rhs_sum = rhs[itf.region_a].reshape(ops_a.grid.node_shape)[sla] \
            + rhs[itf.region_b].reshape(ops_b.grid.node_shape)[slb]
        merged.append(base + (dt / ops_a.constants.hbar) * rhs_sum / denom)

    for name, (ops, _, _, pinned) in parts.items():
        upd = rhs[name]
        upd *= dt / ops.constants.hbar
        upd /= ops.metrics.v
        upd[pinned.flat] = 0.0
        new[name] = np.add(before[name], upd, out=upd)

    # Pinned samples keep their value, as their update is zero, except on
    # the interface faces, where the merge wrote them.
    for itf, value in zip(interfaces, merged):
        for name, face in itf.sides:
            ops, pinned = parts[name][0], parts[name][3]
            sl = ops.face_slices[face]
            shared = new[name].reshape(ops.grid.node_shape)[sl]
            shared[...] = value
            shared[pinned.mask[sl]] = 0.0

    # Interface hanging variables, recovered per region from its own
    # update equation with the merged samples:
    #   gradR = (hbar V'' dpsi/dt + (H psi_R)|face) / (kin * n * S''_b),
    #   gradI = ((H psi_I)|face - hbar V'' dpsi/dt) / (kin * n * S''_b).
    for itf in interfaces:
        for name, face in itf.sides:
            ops = parts[name][0]
            shape = ops.grid.node_shape
            sl = ops.face_slices[face]
            dpsi = (new[name].reshape(shape)[sl]
                    - before[name].reshape(shape)[sl])
            change = ops.constants.hbar * ops.v3[sl] * dpsi / dt
            h_face = h[name].reshape(shape)[sl]
            ops.face_block(grad[name], face)[...] = (
                (h_face - change) if real_half else (change + h_face)
            ) / ops.face_coeff[face]
    return new, h, grad


def leapfrog(parts, interfaces, dt):
    """Advance a set of regions joined by interfaces one leap-frog step.

    The one leap-frog kernel: step is the case of one region and no
    interfaces, coupling.coupled_step that of a region graph.  parts maps
    region names to (ops, boundary, state, pinned), pinned being the
    region's PinnedNodes; interfaces lists coupling.Interface objects, and
    all states are at the same step.  No state is modified.  Returns
    name -> (new state, StepWindow); a new vector of any region with a
    non-finite sample raises DivergenceError(n + 1, inf) instead.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = next(iter(parts.values()))[2].n
    psi_r, psi_i = {}, {}
    for name, (_, _, state, _) in parts.items():
        psi_r[name], psi_i[name] = state.psiR, state.psiI
    psi_i_new, h_r, grad_r = _half_step(parts, interfaces, dt, n * dt,
                                        False, psi_r, psi_i)
    psi_r_new, h_i, grad_i = _half_step(parts, interfaces, dt,
                                        (n + 0.5) * dt, True, psi_i_new,
                                        psi_r)
    out = {}
    for name in parts:
        largest = _largest((psi_r_new[name], psi_i_new[name]))
        if largest == math.inf:
            raise DivergenceError(n + 1, largest)
        window = StepWindow(
            n=n, psiR_n=psi_r[name], psiR_np1=psi_r_new[name],
            psiI_nm=psi_i[name], psiI_np=psi_i_new[name],
            gradR_n=grad_r[name], gradI_np=grad_i[name],
            h_psiR_n=h_r[name], h_psiI_np=h_i[name], largest=largest)
        state = StaggeredState(
            psiR=psi_r_new[name], psiI=psi_i_new[name], n=n + 1,
            psiR_prev=psi_r[name], gradR_prev=grad_r[name],
            gradI_prev=grad_i[name])
        out[name] = (state, window)
    return out


def step(state, ops, boundary, dt, pinned=None):
    """Advance one region one leap-frog step; returns (new state, StepWindow).

    pinned may pass the precomputed BoundaryCondition.pinned_nodes.
    """
    if pinned is None:
        pinned = boundary.pinned_nodes(ops.grid)
    return leapfrog({None: (ops, boundary, state, pinned)}, (), dt)[None]


def project_pinned(state, pinned):
    """state with its samples on pinned (Dirichlet) nodes set to zero.

    The update never changes a pinned sample, so a nonzero one would stay
    in P^n while the boundary fluxes never see it, breaking the probability
    balance from the first step.  Returns state itself when nothing is
    pinned, else a projected copy.
    """
    if not pinned.flat.size:
        return state
    out = state.copy()
    out.psiR[pinned.flat] = 0.0
    out.psiI[pinned.flat] = 0.0
    return out


def _driven_spans(region):
    """(start, stop, cell length) of the hanging-vector spans that hold a
    region's prescribed faces, one per face axis (the two faces of an
    axis sit next to each other in the layout)."""
    offsets = region.grid.hanging_offsets()
    spans = {}
    for f in region.boundary.driven_faces:
        start, stop = offsets[f], offsets[f] + region.grid.face_size(f)
        lo, hi = spans.get(FACE_AXIS[f], (start, stop))
        spans[FACE_AXIS[f]] = (min(lo, start), max(hi, stop))
    return [(lo, hi, region.grid.spacing(axis))
            for axis, (lo, hi) in spans.items()]


def _largest(arrays):
    """Largest |x| over the arrays from one max and one min pass each,
    without temporaries; inf if any sample is NaN or infinite.

    An array holds a non-finite sample exactly when one of its extremes is
    non-finite, and unlike a sum the extremes of finite samples never
    overflow.
    """
    out = 0.0
    for x in arrays:
        hi, lo = float(x.max()), float(x.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            return math.inf
        out = max(out, hi, -lo)
    return out


def drive(regions, advance, dt, n_t, observers=(), guard_factor=1e6,
          stride=1):
    """The driver loop of run and coupling.run_coupled.

    regions maps names to Regions; advance() moves every region's state
    one step and returns name -> StepWindow.  Each state is first
    projected onto its Dirichlet constraint (project_pinned).  After
    every step the windows are recorded, the quadratic forms only on the
    rows a CSV of the given stride keeps (SeriesBuilder), and each
    observer is called as
    observer(windows).  The divergence guard compares the windows'
    largest |psi| (StepWindow.largest) with guard_factor times
    the larger of the initial largest |psi| over all regions and the
    running largest |prescribed hanging value| times the cell length
    along its face axis, so a driven region that starts nearly empty
    does not trip it when the drive arrives; tripping it, or a step
    that leaves a non-finite sample (leapfrog), raises DivergenceError
    with the partial series by name attached as exc.series.  Returns
    name -> DiagnosticsSeries.
    """
    from .diagnostics import SeriesBuilder

    if n_t < 0:
        raise ValueError("n_t must be nonnegative")
    for r in regions.values():
        r.state = project_pinned(r.state, r.pinned)
    builders = {name: SeriesBuilder(r.ops, dt, n_t, r.boundary.flux_faces,
                                    stride)
                for name, r in regions.items()}
    driven = {name: _driven_spans(r) for name, r in regions.items()
              if r.boundary.driven_faces}

    def finish():
        return {name: b.finish(regions[name].state)
                for name, b in builders.items()}

    norm0 = _largest([x for r in regions.values()
                      for x in (r.state.psiR, r.state.psiI)])
    guard = guard_factor * (norm0 if norm0 > 0.0 else 1.0)
    try:
        for _ in range(n_t):
            windows = advance()
            for name, w in windows.items():
                builders[name].record(w)
            for obs in observers:
                obs(windows)
            for name, spans in driven.items():
                w = windows[name]
                for lo, hi, h in spans:
                    guard = max(guard, guard_factor * h * _largest(
                        (w.gradR_n[lo:hi], w.gradI_np[lo:hi])))
            norm = max(w.largest for w in windows.values())
            if norm > guard:
                raise DivergenceError(
                    next(iter(regions.values())).state.n, norm)
    except DivergenceError as exc:
        exc.series = finish()
        raise
    return finish()


def run(state0, ops, boundary, dt, n_t, observers=(), guard_factor=1e6,
        stride=1):
    """Drive n_t leap-frog steps of one region, recording diagnostics.

    As drive, with the region keyed None in the observers' windows; state0
    is not modified.  Returns (final state, DiagnosticsSeries), and a
    DivergenceError carries the region's partial series as exc.series.
    """
    region = Region(None, ops, boundary, state0)

    def advance():
        region.state, window = step(region.state, ops, boundary, dt,
                                    pinned=region.pinned)
        return {None: window}

    try:
        series = drive({None: region}, advance, dt, n_t, observers,
                       guard_factor, stride)
    except DivergenceError as exc:
        exc.series = exc.series[None]
        raise
    return region.state, series[None]


def save_checkpoint(path, state):
    """Write a binary checkpoint with an exact float64 round-trip, through
    atomic_open, so a failed write leaves an earlier file at path intact."""
    opt = {key: np.empty(0) if value is None else value for key, value in (
        ("psiR_prev", state.psiR_prev), ("gradR_prev", state.gradR_prev),
        ("gradI_prev", state.gradI_prev))}
    with atomic_open(path, "wb") as fh:
        np.savez(fh, n=np.int64(state.n), psiR=state.psiR, psiI=state.psiI,
                 **opt)


def load_checkpoint(path):
    with np.load(path) as data:
        def opt(key):
            arr = data[key]
            return None if arr.size == 0 else arr
        return StaggeredState(
            psiR=data["psiR"], psiI=data["psiI"], n=int(data["n"]),
            psiR_prev=opt("psiR_prev"), gradR_prev=opt("gradR_prev"),
            gradI_prev=opt("gradI_prev"))
