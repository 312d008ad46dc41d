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
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import FACES, face_node_slices

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

    @property
    def driven_faces(self):
        """Faces whose hanging variables enter the update (prescribed)."""
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

    @classmethod
    def all_neumann(cls):
        return cls({f: NEUMANN0 for f in FACES})

    def pinned_mask(self, grid):
        """Boolean 3D mask of nodes pinned to zero by Dirichlet faces."""
        mask = np.zeros(grid.node_shape, dtype=bool)
        for f in FACES:
            if self.kinds[f] == DIRICHLET0:
                mask[face_node_slices(grid, f)] = True
        return mask

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


def step(state, ops, boundary, dt, pinned=None):
    """Advance one leap-frog step; returns (new state, StepWindow).

    pinned may pass a precomputed Dirichlet mask (3D boolean).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = ops.grid
    hbar = ops.constants.hbar
    if pinned is None:
        pinned = boundary.pinned_mask(grid)
    driven = boundary.driven_faces
    grad_r = boundary.hanging_at(ops, state.n * dt, part="real")
    grad_i = boundary.hanging_at(ops, (state.n + 0.5) * dt, part="imag")
    vflat = ops.v3.reshape(-1)
    pinned_flat = pinned.reshape(-1)
    scale = dt / hbar

    # Right-hand sides are built in place: H_bot g - H psi_R, then
    # H psi_I - H_bot g (the same roundings as the textbook expressions).
    h_r = ops.apply_H(state.psiR)
    upd = ops.apply_Hbot(grad_r, driven)
    upd -= h_r
    upd *= scale
    upd /= vflat
    upd[pinned_flat] = 0.0
    psi_i_new = state.psiI + upd

    h_i = ops.apply_H(psi_i_new)
    upd = ops.apply_Hbot(grad_i, driven)
    np.subtract(h_i, upd, out=upd)
    upd *= scale
    upd /= vflat
    upd[pinned_flat] = 0.0
    psi_r_new = state.psiR + upd

    if not (np.isfinite(psi_r_new).all() and np.isfinite(psi_i_new).all()):
        raise DivergenceError(state.n + 1, float("inf"))

    window = StepWindow(
        n=state.n, psiR_n=state.psiR, psiR_np1=psi_r_new,
        psiI_nm=state.psiI, psiI_np=psi_i_new,
        gradR_n=grad_r, gradI_np=grad_i,
        h_psiR_n=h_r, h_psiI_np=h_i)
    new_state = StaggeredState(
        psiR=psi_r_new, psiI=psi_i_new, n=state.n + 1,
        psiR_prev=state.psiR, gradR_prev=grad_r, gradI_prev=grad_i)
    return new_state, window


def project_pinned(state, pinned):
    """state with its samples on pinned (Dirichlet) nodes set to zero.

    The update never changes a pinned sample, so a nonzero one would stay
    in P^n while the boundary fluxes never see it, breaking the probability
    balance from the first step.  Returns state itself when nothing is
    pinned, else a projected copy.
    """
    if not pinned.any():
        return state
    out = state.copy()
    out.psiR[pinned.reshape(-1)] = 0.0
    out.psiI[pinned.reshape(-1)] = 0.0
    return out


def run(state0, ops, boundary, dt, n_t, observers=(), guard_factor=1e6):
    """Drive n_t leap-frog steps, recording diagnostics every step.

    The run starts from state0 projected onto the Dirichlet constraint
    (project_pinned); state0 itself is not modified.
    Returns (final state, DiagnosticsSeries).  observers are callables
    invoked as observer(window) after every step.  guard_factor sets the
    divergence guard at guard_factor times the initial max |psi| (None
    disables the guard); tripping it raises DivergenceError with the
    partial series attached as exc.series.
    """
    from .diagnostics import SeriesBuilder

    if n_t < 0:
        raise ValueError("n_t must be nonnegative")
    pinned = boundary.pinned_mask(ops.grid)
    builder = SeriesBuilder(ops, dt, n_t, boundary.flux_faces)
    state = project_pinned(state0, pinned)
    guard = None
    if guard_factor is not None:
        norm0 = max(np.max(np.abs(state.psiR)), np.max(np.abs(state.psiI)))
        guard = guard_factor * (norm0 if norm0 > 0.0 else 1.0)
    try:
        for _ in range(n_t):
            state, window = step(state, ops, boundary, dt, pinned=pinned)
            builder.record(window)
            for obs in observers:
                obs(window)
            if guard is not None:
                norm = max(np.max(np.abs(state.psiR)),
                           np.max(np.abs(state.psiI)))
                if norm > guard:
                    raise DivergenceError(state.n, float(norm))
    except DivergenceError as exc:
        exc.series = builder.finish(state)
        raise
    return state, builder.finish(state)


def save_checkpoint(path, state):
    """Write a binary checkpoint with an exact float64 round-trip."""
    np.savez(path,
             n=np.int64(state.n), psiR=state.psiR, psiI=state.psiI,
             psiR_prev=state.psiR_prev
             if state.psiR_prev is not None else np.empty(0),
             gradR_prev=state.gradR_prev
             if state.gradR_prev is not None else np.empty(0),
             gradI_prev=state.gradI_prev
             if state.gradI_prev is not None else np.empty(0))


def load_checkpoint(path):
    with np.load(path) as data:
        def opt(key):
            arr = data[key]
            return None if arr.size == 0 else arr
        return StaggeredState(
            psiR=data["psiR"], psiI=data["psiI"], n=int(data["n"]),
            psiR_prev=opt("psiR_prev"), gradR_prev=opt("gradR_prev"),
            gradI_prev=opt("gradI_prev"))
