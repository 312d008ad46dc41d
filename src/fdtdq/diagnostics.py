"""Quadratic-form observables and their conservation-balance residuals.

Probability and energy are evaluated from the staggered state,

    P^n = psiR^T V'' psiR + psiI^T V'' psiI - (dt/hbar) psiI^T H psiR
    H^n = psiR^T H psiR + psiI^T H psiI
          + (hbar/dt) (psiR^n - psiR^{n-1})^T V'' (psiI^{n+1/2}
                                                   - psiI^{n-1/2})

with psiI meaning psi_I^{n-1/2}.  The "simple" variants drop the staggered
correction terms; they do not satisfy the discrete balance identities.
The boundary flux observables are the probability current I_P^{n+1/2} and
the supplied power s^{n+1/2}; the balances read

    (P^{n+1} - P^n)/dt = -I_P^{n+1/2},      (H^{n+1} - H^n)/dt = s^{n+1/2}.

Both fluxes are sums over boundary nodes weighted by the hanging variables,
so they are evaluated on face slices only, and only on the faces whose
hanging variables can be nonzero (prescribed and interface faces; see
BoundaryCondition.flux_faces).  Dirichlet-zero and Neumann-zero faces
contribute exactly zero and are skipped.

All reductions are plain numpy sums (pairwise, fixed order) so repeated
runs produce identical digits.

A run records the fluxes every step but evaluates the O(N) quadratic
forms only on the rows it keeps: with a CSV stride k, SeriesBuilder
evaluates P and H on every k-th row and on n = 1, and P on the final row.
The residuals of those rows, which sum the per-step fluxes, are the same
bits as at stride 1; the other rows are NaN and never written.
"""

import csv as _csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import FACES

CSV_COLUMNS = ("n", "t_seconds", "P", "P_simple",
               "I_P_total", "I_P_W", "I_P_E", "I_P_S", "I_P_N", "I_P_B",
               "I_P_T", "H", "H_simple", "s", "residual_P", "residual_H")


@contextmanager
def atomic_open(path, mode="w", newline=None):
    """Open path for writing (mode "w" or "wb") through a temporary file.

    The temporary file, next to path, replaces it (os.replace) only when
    the block completes; if the block raises, it is removed and path is
    left as it was, so a reader never sees a partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dot(a, b):
    """Deterministic inner product (pairwise summation)."""
    return float(np.sum(a * b))


def total_probability(psiR, psiI, ops, dt, h_psiR=None):
    """P^n for the staggered pair (psi_R^n, psi_I^{n-1/2})."""
    if h_psiR is None:
        h_psiR = ops.apply_H(psiR)
    v = ops.metrics.v
    return (_dot(psiR, v * psiR) + _dot(psiI, v * psiI)
            - (dt / ops.constants.hbar) * _dot(psiI, h_psiR))


def probability_simple(psiR, psiI, ops):
    """Direct discretization of the probability integral."""
    v = ops.metrics.v
    return _dot(psiR, v * psiR) + _dot(psiI, v * psiI)


def probability_current_by_face(ops, window, faces=FACES):
    """Per-face probability current I_P^{n+1/2}; returns dict face -> value.

    window is the StepWindow of step n -> n+1.  The current through a face
    is (2/hbar) times the face sum of kin n.S''_b (psiR_avg gradI^{n+1/2}
    - psiI_avg gradR^n), where psiR_avg = (psi_R^{n+1} + psi_R^n)/2 and
    psiI_avg = (psi_I^{n+1/2} + psi_I^{n-1/2})/2 are formed on the face
    nodes only.  The sums run over the listed faces; every other face is
    reported as 0.0, which is exact when its hanging variables are zero.
    """
    grid = ops.grid
    shape = grid.node_shape
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
        gr = ops.face_block(window.gradR_n, f)
        gi = ops.face_block(window.gradI_np, f)
        out[f] = two_over_hbar * float(
            np.sum(ops.face_coeff[f] * (r_avg * gi - i_avg * gr)))
    return out


def supplied_power(ops, window, grad_r_next, grad_i_prev, dt, faces=FACES):
    """s^{n+1/2} = (2/dt) (dpsiR . H_bot gradR_avg + dpsiI . H_bot gradI_avg).

    window is the StepWindow of step n -> n+1, giving dpsiR = psi_R^{n+1}
    - psi_R^n and dpsiI = psi_I^{n+1/2} - psi_I^{n-1/2}; grad_r_next is
    gradR^{n+1} and grad_i_prev is gradI^{n-1/2}, so that gradR_avg =
    (gradR^{n+1} + gradR^n)/2 and gradI_avg = (gradI^{n+1/2} +
    gradI^{n-1/2})/2.  The differences, averages and dot products are
    formed on the listed faces' nodes only, which is exact when the
    hanging variables of every other face are zero.
    """
    grid = ops.grid
    shape = grid.node_shape
    r_np1 = window.psiR_np1.reshape(shape)
    r_n = window.psiR_n.reshape(shape)
    i_np = window.psiI_np.reshape(shape)
    i_nm = window.psiI_nm.reshape(shape)
    acc_r = 0.0
    acc_i = 0.0
    for f in faces:
        sl = ops.face_slices[f]
        coeff = ops.face_coeff[f]
        gr_avg = 0.5 * (ops.face_block(grad_r_next, f)
                        + ops.face_block(window.gradR_n, f))
        gi_avg = 0.5 * (ops.face_block(window.gradI_np, f)
                        + ops.face_block(grad_i_prev, f))
        acc_r += _dot(r_np1[sl] - r_n[sl], coeff * gr_avg)
        acc_i += _dot(i_np[sl] - i_nm[sl], coeff * gi_avg)
    return (2.0 / dt) * (acc_r + acc_i)


@dataclass
class DiagnosticsSeries:
    """Per-step observables of a run.

    P and P_simple are defined for n = 0..n_t; H and H_simple for
    n = 1..n_t-1; I_P (total and per face) for half steps n+1/2 with
    n = 0..n_t-1; s for n = 1..n_t-2.  Entries outside the validity
    windows are NaN, and so are the P and H rows that a strided
    SeriesBuilder did not evaluate (and their residuals).
    """

    dt: float
    n_t: int
    P: np.ndarray
    P_simple: np.ndarray
    H: np.ndarray
    H_simple: np.ndarray
    I_P: np.ndarray            # shape (n_t,), total
    I_P_faces: np.ndarray      # shape (n_t, 6), order W E S N B T
    s: np.ndarray              # shape (n_t,), index n means s^{n+1/2}
    steps_completed: int = 0
    residual_P: Optional[np.ndarray] = None
    residual_H: Optional[np.ndarray] = None

    def compute_residuals(self, norm_P=None, norm_H=None):
        """Balance residuals of the summed-flux identities.

        residual_P[n] = (P^n - P^0 + dt * sum_{n'<n} I_P^{n'+1/2}) / norm_P
        residual_H[n] = (H^n - H^1 - dt * sum_{1<=n'<n} s^{n'+1/2}) / norm_H

        Norms default to the peak |P| and |H| of the run; scenarios pass
        their analytic maxima instead.
        """
        m = self.steps_completed
        res_p = np.full(self.P.shape, np.nan)
        if m >= 0:
            flux = np.concatenate([[0.0], np.cumsum(self.I_P[:m])])
            res_p[:m + 1] = self.P[:m + 1] - self.P[0] + self.dt * flux
        if norm_P is None:
            with np.errstate(invalid="ignore"):
                norm_P = np.nanmax(np.abs(self.P)) or 1.0
        res_p /= norm_P

        res_h = np.full(self.H.shape, np.nan)
        valid_h = min(m, self.n_t - 1)
        if valid_h >= 1:
            res_h[1] = 0.0
            # cumsum adds sequentially, in the order of a running total.
            acc = np.cumsum(self.s[1:valid_h])
            res_h[2:valid_h + 1] = (self.H[2:valid_h + 1] - self.H[1]
                                    - self.dt * acc)
        if norm_H is None:
            with np.errstate(invalid="ignore"):
                norm_H = np.nanmax(np.abs(self.H))
                if not np.isfinite(norm_H) or norm_H == 0.0:
                    norm_H = 1.0
        res_h /= norm_H

        self.residual_P = res_p
        self.residual_H = res_h
        return res_p, res_h

    def times(self):
        return self.dt * np.arange(self.n_t + 1)

    def write_csv(self, path, stride=1):
        """One row per recorded step; 17 significant digits; fields outside
        their validity window are left empty."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        res_p = self.residual_P
        res_h = self.residual_H

        def fmt(value):
            if value is None or not np.isfinite(value):
                return ""
            return f"{value:.17g}"

        with atomic_open(path, newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            if self.n_t == 0:
                return
            for n in range(0, self.steps_completed + 1, stride):
                half = self.I_P[n] if n < self.steps_completed else np.nan
                faces = (self.I_P_faces[n]
                         if n < self.steps_completed else [np.nan] * 6)
                row = [str(n), fmt(n * self.dt), fmt(self.P[n]),
                       fmt(self.P_simple[n]), fmt(half)]
                row += [fmt(x) for x in faces]
                h_n = self.H[n] if n < self.H.size else np.nan
                hs_n = self.H_simple[n] if n < self.H_simple.size else np.nan
                row += [fmt(h_n), fmt(hs_n),
                        fmt(self.s[n] if n < self.s.size else np.nan),
                        fmt(res_p[n] if res_p is not None
                            and n < res_p.size else None),
                        fmt(res_h[n] if res_h is not None
                            and n < res_h.size else None)]
                writer.writerow(row)


class SeriesBuilder:
    """Accumulates a DiagnosticsSeries from step windows, in step order.

    faces lists the faces whose hanging variables can be nonzero
    (BoundaryCondition.flux_faces); the boundary fluxes are summed over
    those faces only.  The fluxes I_P and s are recorded every step, as
    every residual sums them.  The O(N) quadratic forms P, P_simple, H and
    H_simple are evaluated only on the rows n with n % stride == 0 (the
    rows DiagnosticsSeries.write_csv writes with the same stride), on
    n = 1 (the base H^1 of residual_H) and, for P by finish, on the final
    row; every other row stays NaN.  The products are formed in two N-sized
    buffers owned by the builder and summed with np.sum, so each value has
    the bits of total_probability and probability_simple, and H and
    H_simple those of the module docstring's formulas with every inner
    product a plain np.sum.
    """

    def __init__(self, ops, dt, n_t, faces=FACES, stride=1):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.ops = ops
        self.dt = dt
        self.n_t = n_t
        self.faces = tuple(faces)
        self.stride = stride
        self.P = np.full(n_t + 1, np.nan)
        self.P_simple = np.full(n_t + 1, np.nan)
        self.H = np.full(max(n_t, 1), np.nan)
        self.H_simple = np.full(max(n_t, 1), np.nan)
        self.I_P = np.full(max(n_t, 1), np.nan)
        self.I_P_faces = np.full((max(n_t, 1), 6), np.nan)
        self.s = np.full(max(n_t, 1), np.nan)
        self._buf = (np.empty(ops.grid.n_nodes), np.empty(ops.grid.n_nodes))
        self._prev = None        # previous window
        self._prevprev_gradI = None  # gradI^{n-3/2} for the current window
        self._steps = 0

    def _dot(self, a, b):
        """_dot(a, b), the product formed in the first buffer."""
        buf = self._buf[0]
        np.multiply(a, b, out=buf)
        return float(np.sum(buf))

    def _norm_v(self, a):
        """_dot(a, v * a), the products formed in the first buffer."""
        buf = self._buf[0]
        np.multiply(self.ops.metrics.v, a, out=buf)
        buf *= a
        return float(np.sum(buf))

    def record(self, window):
        ops = self.ops
        dt = self.dt
        n = window.n
        evaluate = n % self.stride == 0 or n == 1

        if evaluate:
            p_simple = (self._norm_v(window.psiR_n)
                        + self._norm_v(window.psiI_nm))
            self.P_simple[n] = p_simple
            self.P[n] = p_simple - (dt / ops.constants.hbar) * self._dot(
                window.psiI_nm, window.h_psiR_n)

        by_face = probability_current_by_face(ops, window, self.faces)
        self.I_P_faces[n] = [by_face[f] for f in FACES]
        self.I_P[n] = float(sum(by_face[f] for f in FACES))

        prev = self._prev
        if prev is not None:
            if evaluate and n < max(self.n_t, 1):
                # Energy at step n (needs psi_R^{n-1} and H psi_I^{n-1/2}).
                simple = self._dot(window.psiR_n, window.h_psiR_n) \
                    + self._dot(window.psiI_nm, prev.h_psiI_np)
                d_r, d_i = self._buf
                np.subtract(window.psiR_n, prev.psiR_n, out=d_r)
                np.subtract(window.psiI_np, window.psiI_nm, out=d_i)
                d_i *= ops.metrics.v
                d_r *= d_i
                corr = (ops.constants.hbar / dt) * float(np.sum(d_r))
                self.H[n] = simple + corr
                self.H_simple[n] = simple
            # Supplied power at n - 1/2 ... s^{(n-1)+1/2} needs this
            # window's gradR^n; valid once gradI^{n-3/2} exists.
            m = n - 1
            if m >= 1 and prev.n == m and self._prevprev_gradI is not None:
                self.s[m] = supplied_power(
                    ops, prev, window.gradR_n, self._prevprev_gradI, dt,
                    self.faces)
        self._prevprev_gradI = prev.gradI_np if prev is not None else None
        self._prev = window
        self._steps = n + 1

    def finish(self, final_state):
        """Close the series, evaluating the final-step probability."""
        m = self._steps
        if m <= self.n_t:
            h_r = self.ops.apply_H(final_state.psiR)
            self.P[m] = total_probability(
                final_state.psiR, final_state.psiI, self.ops, self.dt,
                h_psiR=h_r)
            self.P_simple[m] = probability_simple(
                final_state.psiR, final_state.psiI, self.ops)
        return DiagnosticsSeries(
            dt=self.dt, n_t=self.n_t, P=self.P, P_simple=self.P_simple,
            H=self.H, H_simple=self.H_simple, I_P=self.I_P,
            I_P_faces=self.I_P_faces, s=self.s, steps_completed=m)
