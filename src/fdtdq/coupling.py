"""Multi-region coupling through shared interface samples.

Two regions meeting on a common face share the wavefunction samples of the
interior interface nodes; the rim nodes of the face are pinned to zero.
The merged update of the shared samples and the per-region recovery of
the interface hanging variables are part of the one leap-frog kernel,
stepper.leapfrog; this module builds and checks region graphs, drives
them and measures their summed conservation.  Matching the two recoveries
(they agree up to roundoff) makes the interface currents of the two sides
cancel, which is what conserves the summed probability and energy.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import OPPOSITE_FACE, FACE_AXIS, face_node_slices
from .stepper import INTERFACE, DivergenceError, Region, drive, leapfrog
from .stability import cfl_limit, cfl_gen_limit


class UnstableTimeStep(ValueError):
    """Raised by enforce_time_step when dt reaches a region's generalized
    limit."""


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

    @property
    def sides(self):
        """((region_a, face_a), (region_b, face_b))."""
        return ((self.region_a, self.face_a), (self.region_b, self.face_b))


class RegionGraph:
    """A set of regions plus the interfaces joining them."""

    def __init__(self, regions, interfaces):
        self.regions = {r.name: r for r in regions}
        if len(self.regions) != len(regions):
            raise ValueError("duplicate region names")
        self.interfaces = list(interfaces)

        if len({r.ops.constants.hbar for r in regions}) != 1:
            raise ValueError("regions disagree on hbar")

        claimed = set()
        for itf in self.interfaces:
            for name, f in itf.sides:
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


def coupled_step(graph, dt):
    """Advance every region one leap-frog step; returns per-region windows."""
    graph.step_index()
    out = leapfrog({name: (r.ops, r.boundary, r.state, r.pinned)
                    for name, r in graph.regions.items()},
                   graph.interfaces, dt)
    for name, (state, _) in out.items():
        graph.regions[name].state = state
    return {name: window for name, (_, window) in out.items()}


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
                f"{gen:.6e} s of region {name!r}; pass --allow-unstable "
                "to run anyway")


def run_coupled(graph, dt, n_t, guard_factor=1e6, observers=(), stride=1):
    """Drive n_t coupled steps; returns dict region name -> series.

    The loop is stepper.drive: each region's samples on Dirichlet-pinned
    nodes are first set to zero, observers are called as
    observer(windows) with the per-region window dict after every step,
    and the divergence guard takes the norm over all regions; tripping it
    raises DivergenceError with the partial per-region series attached as
    exc.series.  stride is that of the CSV rows the series will write
    (see SeriesBuilder).  dt is not checked against the stability limits;
    callers that need the check call enforce_time_step first.
    """
    return drive(graph.regions, lambda: coupled_step(graph, dt), dt, n_t,
                 observers, guard_factor, stride)


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
        for name, face in itf.sides:
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
                             observers=(track,))
        diverged_at = None
    except DivergenceError as exc:
        series = exc.series
        diverged_at = exc.step
    return InstabilityResult(series=series, diverged_at=diverged_at,
                             norms=np.array(norms), initial_norm=norm0)
