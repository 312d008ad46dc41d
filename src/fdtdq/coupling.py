"""Multi-region coupling through shared interface samples.

Two regions meeting on a common face share the wavefunction samples of the
interior interface nodes; the rim nodes of the face are pinned to zero.
Equating the per-region update equations and eliminating the hanging
variables yields a merged update for the shared samples,

    hbar (V''_A + V''_B) (psi^new - psi) / dt = rhs_A|face + rhs_B|face,

where rhs_X is region X's interior right-hand side evaluated at the face.
After each half update the interface hanging variables are recovered per
region from that region's own update equation, so every conservation
diagnostic keeps its exact discrete balance.  Matching the two recoveries
(they agree up to roundoff) makes the interface currents of the two sides
cancel, which is what conserves the summed probability and energy.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import OPPOSITE_FACE, FACE_AXIS, face_node_slices
from .operators import DiscreteOperators
from .stepper import (INTERFACE, BoundaryCondition, DivergenceError,
                      StaggeredState, StepWindow, project_pinned)
from .stability import cfl_limit, cfl_gen_limit


class UnstableTimeStep(ValueError):
    """Raised when dt exceeds a region's generalized limit without an
    explicit override."""


@dataclass
class Region:
    """One rectangular region of a coupled simulation."""

    name: str
    ops: DiscreteOperators
    boundary: BoundaryCondition
    state: StaggeredState

    def __post_init__(self):
        self.grid = self.ops.grid
        self.pinned = self.boundary.pinned_mask(self.grid)
        self.pinned_flat = self.pinned.reshape(-1)
        self.v3flat = self.ops.v3.reshape(-1)

    @classmethod
    def build(cls, name, grid, potential, constants, boundary, psiR, psiI):
        ops = DiscreteOperators(grid, potential, constants)
        state = StaggeredState(psiR=np.asarray(psiR, dtype=float).reshape(-1),
                               psiI=np.asarray(psiI, dtype=float).reshape(-1))
        return cls(name=name, ops=ops, boundary=boundary, state=state)


@dataclass(frozen=True)
class Interface:
    """A shared face between two regions; face_b must oppose face_a."""

    region_a: str
    face_a: str
    region_b: str
    face_b: str

    def __post_init__(self):
        if self.face_b != OPPOSITE_FACE[self.face_a]:
            raise ValueError(
                f"face {self.face_b} of {self.region_b} does not oppose "
                f"face {self.face_a} of {self.region_a}")


class RegionGraph:
    """A set of regions plus the interfaces joining them."""

    def __init__(self, regions, interfaces):
        self.regions = {r.name: r for r in regions}
        if len(self.regions) != len(regions):
            raise ValueError("duplicate region names")
        self.interfaces = list(interfaces)

        hbars = {r.ops.constants.hbar for r in regions}
        if len(hbars) != 1:
            raise ValueError("regions disagree on hbar")
        self.hbar = hbars.pop()

        claimed = set()
        for itf in self.interfaces:
            for name, f in ((itf.region_a, itf.face_a),
                            (itf.region_b, itf.face_b)):
                if name not in self.regions:
                    raise ValueError(f"unknown region {name!r}")
                if self.regions[name].boundary.kinds[f] != INTERFACE:
                    raise ValueError(
                        f"face {f} of {name} is not marked as interface")
                if (name, f) in claimed:
                    raise ValueError(f"face {f} of {name} claimed twice")
                claimed.add((name, f))
            ga = self.regions[itf.region_a].grid
            gb = self.regions[itf.region_b].grid
            if ga.face_shape(itf.face_a) != gb.face_shape(itf.face_b):
                raise ValueError("interface face shapes differ")
            axis = FACE_AXIS[itf.face_a]
            for t in range(3):
                if t != axis and abs(ga.spacing(t) - gb.spacing(t)) > 0.0:
                    raise ValueError("interface transverse spacings differ")
        for r in regions:
            for f, kind in r.boundary.kinds.items():
                if kind == INTERFACE and (r.name, f) not in claimed:
                    raise ValueError(
                        f"interface face {f} of {r.name} is unmatched")
        self._sync_interface_samples()

    def _sync_interface_samples(self, tol=1e-12):
        """Force exact equality of the shared samples (B copies A)."""
        for itf in self.interfaces:
            ra = self.regions[itf.region_a]
            rb = self.regions[itf.region_b]
            sla = face_node_slices(ra.grid, itf.face_a)
            slb = face_node_slices(rb.grid, itf.face_b)
            for attr in ("psiR", "psiI"):
                va = getattr(ra.state, attr).reshape(ra.grid.node_shape)
                vb = getattr(rb.state, attr).reshape(rb.grid.node_shape)
                scale = max(np.max(np.abs(va[sla])), 1e-300)
                if np.max(np.abs(va[sla] - vb[slb])) > tol * scale:
                    raise ValueError(
                        f"initial {attr} samples disagree across interface "
                        f"{itf.region_a}/{itf.region_b}")
                vb[slb] = va[sla]

    def step_index(self):
        steps = {r.state.n for r in self.regions.values()}
        if len(steps) != 1:
            raise RuntimeError("regions are out of step")
        return steps.pop()


def _merge_interface_faces(graph, rhs, psi_old, psi_new, dt):
    """Overwrite shared face samples with the merged two-region update."""
    for itf in graph.interfaces:
        ra = graph.regions[itf.region_a]
        rb = graph.regions[itf.region_b]
        sla = ra.ops.face_slices[itf.face_a]
        slb = rb.ops.face_slices[itf.face_b]
        denom = ra.ops.v3[sla] + rb.ops.v3[slb]
        base = psi_old[itf.region_a].reshape(ra.grid.node_shape)[sla]
        rhs_sum = rhs[itf.region_a].reshape(ra.grid.node_shape)[sla] \
            + rhs[itf.region_b].reshape(rb.grid.node_shape)[slb]
        merged = base + (dt / graph.hbar) * rhs_sum / denom
        psi_new[itf.region_a].reshape(ra.grid.node_shape)[sla] = merged
        psi_new[itf.region_b].reshape(rb.grid.node_shape)[slb] = merged


def recover_interface_hanging(region, face, psi_before, psi_after,
                              h_other, dt, imaginary_half):
    """Hanging variables on an interface face from the region's own update.

    For the imaginary half step (psi = psi_I, h_other = H psi_R^n):

        gradR = (hbar V'' dpsi/dt + (H psi_R)|face) / (kin * n * S''_b)

    and for the real half step (psi = psi_R, h_other = H psi_I^{n+1/2}):

        gradI = ((H psi_I)|face - hbar V'' dpsi/dt) / (kin * n * S''_b).
    """
    grid = region.grid
    sl = region.ops.face_slices[face]
    coeff = region.ops.face_coeff[face]
    v_face = region.ops.v3[sl]
    dpsi = (psi_after.reshape(grid.node_shape)[sl]
            - psi_before.reshape(grid.node_shape)[sl])
    h_face = h_other.reshape(grid.node_shape)[sl]
    hbar = region.ops.constants.hbar
    if imaginary_half:
        return (hbar * v_face * dpsi / dt + h_face) / coeff
    return (h_face - hbar * v_face * dpsi / dt) / coeff


def coupled_step(graph, dt):
    """Advance every region one leap-frog step; returns per-region windows."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    regs = graph.regions
    scale = dt / graph.hbar
    n = graph.step_index()

    # Imaginary half step.
    h_r, grad_ext_r, rhs_i, psi_i_new = {}, {}, {}, {}
    for name, r in regs.items():
        h = r.ops.apply_H(r.state.psiR)
        ge = r.boundary.hanging_at(r.ops, n * dt, part="real")
        rhs = r.ops.apply_Hbot(ge, r.boundary.driven_faces)
        rhs -= h
        upd = scale * rhs
        upd /= r.v3flat
        upd[r.pinned_flat] = 0.0
        h_r[name], grad_ext_r[name], rhs_i[name] = h, ge, rhs
        psi_i_new[name] = r.state.psiI + upd
    _merge_interface_faces(graph, rhs_i,
                           {nm: regs[nm].state.psiI for nm in regs},
                           psi_i_new, dt)
    for name, r in regs.items():
        psi_i_new[name].reshape(r.grid.node_shape)[r.pinned] = 0.0

    # Real half step.
    h_i, grad_ext_i, rhs_r, psi_r_new = {}, {}, {}, {}
    for name, r in regs.items():
        h = r.ops.apply_H(psi_i_new[name])
        ge = r.boundary.hanging_at(r.ops, (n + 0.5) * dt, part="imag")
        rhs = r.ops.apply_Hbot(ge, r.boundary.driven_faces)
        np.subtract(h, rhs, out=rhs)
        upd = scale * rhs
        upd /= r.v3flat
        upd[r.pinned_flat] = 0.0
        h_i[name], grad_ext_i[name], rhs_r[name] = h, ge, rhs
        psi_r_new[name] = r.state.psiR + upd
    _merge_interface_faces(graph, rhs_r,
                           {nm: regs[nm].state.psiR for nm in regs},
                           psi_r_new, dt)
    for name, r in regs.items():
        psi_r_new[name].reshape(r.grid.node_shape)[r.pinned] = 0.0

    # Hanging-variable recovery on interface faces, per region.
    grad_r_full = {nm: grad_ext_r[nm] for nm in regs}
    grad_i_full = {nm: grad_ext_i[nm] for nm in regs}
    for itf in graph.interfaces:
        for name, face in ((itf.region_a, itf.face_a),
                           (itf.region_b, itf.face_b)):
            r = regs[name]
            gr = recover_interface_hanging(
                r, face, r.state.psiI, psi_i_new[name], h_r[name], dt,
                imaginary_half=True)
            gi = recover_interface_hanging(
                r, face, r.state.psiR, psi_r_new[name], h_i[name], dt,
                imaginary_half=False)
            r.ops.face_block(grad_r_full[name], face)[...] = gr
            r.ops.face_block(grad_i_full[name], face)[...] = gi

    windows = {}
    for name, r in regs.items():
        if not (np.isfinite(psi_r_new[name]).all()
                and np.isfinite(psi_i_new[name]).all()):
            raise DivergenceError(n + 1, float("inf"))
        windows[name] = StepWindow(
            n=n, psiR_n=r.state.psiR, psiR_np1=psi_r_new[name],
            psiI_nm=r.state.psiI, psiI_np=psi_i_new[name],
            gradR_n=grad_r_full[name], gradI_np=grad_i_full[name],
            h_psiR_n=h_r[name], h_psiI_np=h_i[name])
        r.state = StaggeredState(
            psiR=psi_r_new[name], psiI=psi_i_new[name], n=n + 1,
            psiR_prev=r.state.psiR, gradR_prev=grad_r_full[name],
            gradI_prev=grad_i_full[name])
    return windows


def enforce_time_step(graph, dt):
    """Raise UnstableTimeStep if dt reaches any region's generalized limit.

    The cheap closed-form limit is checked first; the spectral limit is
    only computed for regions where the closed form does not already
    certify stability.
    """
    for name, r in graph.regions.items():
        closed = cfl_limit(r.grid, r.ops.potential, r.ops.constants)
        if dt < closed:
            continue
        gen = cfl_gen_limit(r.ops)
        if dt >= gen:
            raise UnstableTimeStep(
                f"dt = {dt:.6e} s exceeds the generalized limit "
                f"{gen:.6e} s of region {name!r}; pass allow_unstable to "
                "run anyway")


def run_coupled(graph, dt, n_t, guard_factor=1e6, allow_unstable=False,
                observers=()):
    """Drive n_t coupled steps; returns dict region name -> series.

    Each region's samples on Dirichlet-pinned nodes are first set to zero
    (see stepper.project_pinned).  Observers are called as
    observer(windows) with the per-region window dict after every step.
    The divergence guard works as in the single-region driver, with the
    norm taken over all regions; tripping it raises DivergenceError with
    the partial per-region series attached as exc.series.
    """
    from .diagnostics import SeriesBuilder

    if n_t < 0:
        raise ValueError("n_t must be nonnegative")
    if not allow_unstable:
        enforce_time_step(graph, dt)
    for r in graph.regions.values():
        r.state = project_pinned(r.state, r.pinned)
    builders = {name: SeriesBuilder(r.ops, dt, n_t, r.boundary.flux_faces)
                for name, r in graph.regions.items()}

    def global_norm():
        return max(max(np.max(np.abs(r.state.psiR)),
                       np.max(np.abs(r.state.psiI)))
                   for r in graph.regions.values())

    guard = None
    if guard_factor is not None:
        norm0 = global_norm()
        guard = guard_factor * (norm0 if norm0 > 0.0 else 1.0)
    try:
        for _ in range(n_t):
            windows = coupled_step(graph, dt)
            for name, w in windows.items():
                builders[name].record(w)
            for obs in observers:
                obs(windows)
            if guard is not None and global_norm() > guard:
                raise DivergenceError(graph.step_index(),
                                      float(global_norm()))
    except DivergenceError as exc:
        exc.series = {name: builders[name].finish(graph.regions[name].state)
                      for name in builders}
        raise
    return {name: builders[name].finish(graph.regions[name].state)
            for name in builders}


def cross_region_conservation(series_by_name):
    """Summed probability and energy over regions plus drift metrics."""
    names = list(series_by_name)
    total_p = sum(series_by_name[nm].P for nm in names)
    total_h = sum(series_by_name[nm].H for nm in names)
    p_drift = float(np.nanmax(np.abs(total_p - total_p[0])))
    with np.errstate(invalid="ignore"):
        h_ref = total_h[1] if total_h.size > 1 else np.nan
        h_drift = float(np.nanmax(np.abs(total_h - h_ref))
                        / max(abs(h_ref), 1e-300)) \
            if np.isfinite(h_ref) else float("nan")
    return {"total_P": total_p, "total_H": total_h,
            "max_P_drift": p_drift, "max_H_drift_normalized": h_drift}


def interface_current_mismatch(graph, windows):
    """Interface current cancellation for one step's window dict.

    Returns (max |I_A + I_B| over interfaces, max |I| seen); the ratio is
    the relative antisymmetry defect.
    """
    from .diagnostics import probability_current_by_face

    worst = 0.0
    scale = 0.0
    for itf in graph.interfaces:
        vals = {}
        for name, face in ((itf.region_a, itf.face_a),
                           (itf.region_b, itf.face_b)):
            cur = probability_current_by_face(
                graph.regions[name].ops, windows[name], (face,))
            vals[name] = cur[face]
            scale = max(scale, abs(cur[face]))
        worst = max(worst, abs(vals[itf.region_a] + vals[itf.region_b]))
    return worst, scale


@dataclass
class InstabilityResult:
    """Outcome of a deliberately unstable run."""

    series: dict
    diverged_at: Optional[int]
    norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    initial_norm: float = 0.0


def instability_demo(graph, dt_factor, n_max=100_000, guard_factor=1e6):
    """Run with dt = dt_factor times the smallest closed-form limit.

    Returns the per-region series up to the divergence guard together with
    the per-step solution norm history.
    """
    dt_min = min(cfl_limit(r.grid, r.ops.potential, r.ops.constants)
                 for r in graph.regions.values())
    dt = dt_factor * dt_min
    norms = []

    def track(windows):
        norms.append(max(max(np.max(np.abs(w.psiR_np1)),
                             np.max(np.abs(w.psiI_np)))
                         for w in windows.values()))

    norm0 = max(max(np.max(np.abs(r.state.psiR)),
                    np.max(np.abs(r.state.psiI)))
                for r in graph.regions.values())
    try:
        series = run_coupled(graph, dt, n_max, guard_factor=guard_factor,
                             allow_unstable=True, observers=(track,))
        diverged_at = None
    except DivergenceError as exc:
        series = exc.series
        diverged_at = exc.step
    return InstabilityResult(series=series, diverged_at=diverged_at,
                             norms=np.array(norms), initial_norm=norm0)
