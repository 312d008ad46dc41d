"""The face-restricted hot path against full all-face reference formulas.

The stepper scatters H_bot over the prescribed faces only and the
diagnostics sum the boundary fluxes over the prescribed and interface faces
only.  On random small grids, potentials and mixes of boundary kinds, the
step must equal the all-face update bit for bit and the fluxes must match
their full-N definitions to roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtdq.constants import ELECTRON, EV
from fdtdq.diagnostics import probability_current_by_face, supplied_power
from fdtdq.grid import FACES, PotentialField, RegionGrid, face_node_slices
from fdtdq.operators import DiscreteOperators
from fdtdq.stability import cfl_limit
from fdtdq.stepper import (DIRICHLET0, NEUMANN0, PRESCRIBED,
                           BoundaryCondition, StaggeredState, run, step)


@st.composite
def setups(draw):
    """Grid of 1-4 cells per axis, random kinds per face, whether the
    sources ramp in time, and a seed."""
    cells = tuple(draw(st.integers(1, 4)) for _ in range(3))
    kinds = {f: draw(st.sampled_from((DIRICHLET0, NEUMANN0, PRESCRIBED)))
             for f in FACES}
    ramp = draw(st.booleans())
    return cells, kinds, ramp, draw(st.integers(0, 2**32 - 1))


def build(setup):
    """Operators, boundary condition, initial state and dt for a setup.

    Prescribed faces get a complex source, constant over the face: a
    constant plus, if ramp is set, a term that changes it by about its own
    size every ten steps (so the time averages in s are exercised).  The
    initial state is random except on Dirichlet-pinned nodes, which start
    (and stay) at zero.
    """
    cells, kinds, ramp, seed = setup
    rng = np.random.default_rng(seed)
    grid = RegionGrid(*cells, *rng.uniform(0.5e-9, 1.5e-9, 3))
    potential = PotentialField(
        grid, 0.1 * EV * rng.uniform(-1.0, 1.0, grid.n_nodes))
    ops = DiscreteOperators(grid, potential, ELECTRON)
    dt = 0.5 * cfl_limit(grid, potential, ELECTRON)
    sources = {}
    for f in FACES:
        if kinds[f] == PRESCRIBED:
            value, rate = 1e9 * (rng.standard_normal((2, 2)) @ [1.0, 1j])
            rate = rate / (10.0 * dt) if ramp else 0.0
            sources[f] = (lambda face, t, value=value, rate=rate:
                          value + rate * t)
    bc = BoundaryCondition(kinds, sources)
    free = ~bc.pinned_mask(grid).reshape(-1)
    state = StaggeredState(psiR=free * rng.standard_normal(grid.n_nodes),
                           psiI=free * rng.standard_normal(grid.n_nodes))
    return ops, bc, state, dt


def full_hanging(ops, bc, t, part):
    """Hanging vector over every face, sampled directly from the sources."""
    by_face = {}
    for f in FACES:
        value = 0.0
        if bc.kinds[f] == PRESCRIBED:
            source = complex(bc.sources[f](f, t))
            value = source.real if part == "real" else source.imag
        by_face[f] = np.full(ops.grid.face_shape(f), value)
    return ops.join_hanging(by_face)


def full_hbot(ops, b):
    """H_bot b scattered over all six faces."""
    out = np.zeros(ops.grid.node_shape)
    by_face = ops.split_hanging(b)
    for f in FACES:
        out[face_node_slices(ops.grid, f)] += ops.face_coeff[f] * by_face[f]
    return out.reshape(-1)


def reference_step(state, ops, bc, dt):
    """The leap-frog update with the all-face H_bot; returns (psiR, psiI)."""
    hbar = ops.constants.hbar
    v = ops.metrics.v
    pinned = bc.pinned_mask(ops.grid).reshape(-1)
    grad_r = full_hanging(ops, bc, state.n * dt, "real")
    grad_i = full_hanging(ops, bc, (state.n + 0.5) * dt, "imag")
    upd = (dt / hbar) * (-ops.apply_H(state.psiR)
                         + full_hbot(ops, grad_r)) / v
    upd[pinned] = 0.0
    psi_i = state.psiI + upd
    upd = (dt / hbar) * (ops.apply_H(psi_i) - full_hbot(ops, grad_i)) / v
    upd[pinned] = 0.0
    return state.psiR + upd, psi_i


def assert_close(got, terms, rtol=1e-13):
    """got equals sum(terms) to rtol of sum(|terms|) (exactly if all 0)."""
    ref = sum(terms)
    scale = sum(abs(t) for t in terms)
    assert abs(got - ref) <= rtol * scale, (got, ref, scale)


@settings(max_examples=60, deadline=None)
@given(setups())
def test_step_equals_all_face_reference(setup):
    ops, bc, state, dt = build(setup)
    for _ in range(3):
        ref_r, ref_i = reference_step(state, ops, bc, dt)
        state, window = step(state, ops, bc, dt)
        assert np.array_equal(state.psiR, ref_r)
        assert np.array_equal(state.psiI, ref_i)
        assert np.array_equal(window.gradR_n, full_hanging(
            ops, bc, window.n * dt, "real"))


@settings(max_examples=60, deadline=None)
@given(setups())
def test_fluxes_match_full_reference(setup):
    ops, bc, state, dt = build(setup)
    hbot = ops.assemble_Hbot()
    offsets = ops.grid.hanging_offsets()
    windows = []
    for _ in range(3):
        state, window = step(state, ops, bc, dt)
        windows.append(window)

    # I_P per face: (2/hbar) (psiR_avg . H_bot^f gradI - psiI_avg . H_bot^f
    # gradR), with H_bot^f the columns of the face's hanging block.
    w = windows[1]
    avg_r = 0.5 * (w.psiR_np1 + w.psiR_n)
    avg_i = 0.5 * (w.psiI_np + w.psiI_nm)
    got = probability_current_by_face(ops, w, bc.flux_faces)
    c = 2.0 / ops.constants.hbar
    for f in FACES:
        cols = slice(offsets[f], offsets[f] + ops.grid.face_size(f))
        hb_i = hbot[:, cols] @ w.gradI_np[cols]
        hb_r = hbot[:, cols] @ w.gradR_n[cols]
        assert_close(got[f],
                     list(c * avg_r * hb_i) + list(-c * avg_i * hb_r))

    # s^{n+1/2} = (2/dt) (dpsiR . H_bot gradR_avg + dpsiI . H_bot gradI_avg).
    w_prev, w_next = windows[0], windows[2]
    hb_r = hbot @ (0.5 * (w_next.gradR_n + w.gradR_n))
    hb_i = hbot @ (0.5 * (w.gradI_np + w_prev.gradI_np))
    terms = list((2.0 / dt) * (w.psiR_np1 - w.psiR_n) * hb_r) \
        + list((2.0 / dt) * (w.psiI_np - w.psiI_nm) * hb_i)
    assert_close(supplied_power(ops, w, w_next.gradR_n, w_prev.gradI_np, dt,
                                bc.flux_faces), terms)


@settings(max_examples=30, deadline=None)
@given(setups())
def test_short_run_keeps_balances(setup):
    ops, bc, state, dt = build(setup)
    _, series = run(state, ops, bc, dt, 20)
    res_p, res_h = series.compute_residuals()
    assert np.nanmax(np.abs(res_p)) <= 1e-12
    assert np.nanmax(np.abs(res_h)) <= 1e-12
