"""Rarefaction wave for the quadratic-flux conservation law, plus a finite-volume oracle.

The scalar profile f(r, t) drives the whole construction: it solves

    f_t + (lam/2) (f^2)_r = 0,   f(r, 0) = sign(r - r0),

whose entropy solution is the self-similar fan

    f = -1                for r < r0 - lam*t,
    f = (r - r0)/(lam*t)  inside the fan,
    f = +1                for r > r0 + lam*t.

This module is the one place that knows where the fan is: ``fan_interval``
gives its radial interval cut to the annulus [rho, R], and ``fan_span`` the
same interval in the fan variable u = (r - r0)/(lam t).  Every other module
reads the fan's edges from these two.

The Godunov scheme below is an independent check on this closed form; it never
feeds back into the construction.  ``godunov_solve`` returns the final
``FVState`` (cell edges and averages), and ``compare_exact_vs_fv`` measures its
distance to the fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import AnnulusGeometry, SubsolutionParams

CFL = 0.9  # CFL number lam*max|u|*dt/h that a Godunov step may not exceed


class CFLError(ValueError):
    """Raised when a requested step would exceed the CFL limit."""


def rarefaction(r, t, r0: float, lam: float):
    """Fan profile at (r, t); values clip to [-1, 1], edges take one-sided limits.

    At t = 0 the fan is empty and the profile is sign(r - r0).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    width = lam * t
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ramp = np.clip((r - r0) / width, -1.0, 1.0)
    out = np.where(width > 0, ramp, np.sign(r - r0))
    if out.ndim == 0:
        return float(out)
    return out


def fan_interval(t, geom: AnnulusGeometry, lam: float):
    """(low, high): the fan's open radial interval (r0 - lam t, r0 + lam t) at
    time t, cut to the annulus [rho, R]; broadcasts over t.

    Empty (low >= high) at t = 0 and for lam <= 0.
    """
    width = lam * np.asarray(t, dtype=float)
    return np.maximum(geom.r0 - width, geom.rho), np.minimum(geom.r0 + width, geom.R)


def fan_span(t, geom: AnnulusGeometry, lam: float):
    """``fan_interval`` in the fan variable u = (r - r0)/(lam t); broadcasts over t.

    Exactly (-1.0, 1.0) unless a wall cuts the fan, also at t = 0, where the
    quotients are infinite.  Both ends are clipped to [-1, 1], so for lam < 0
    the span is empty (low >= high) but finite.
    """
    width = lam * np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return (np.clip((geom.rho - geom.r0) / width, -1.0, 1.0),
                np.clip((geom.R - geom.r0) / width, -1.0, 1.0))


@dataclass(frozen=True)
class FVState:
    """Uniform finite-volume state: cell edges, cell averages, time, band speed
    and cell width.

    ``h`` defaults to ``edges[1] - edges[0]``.  A window of a larger grid is
    given that grid's ``h``, since the edges of a sliced ``linspace`` can differ
    from it in the last bit.
    """

    edges: np.ndarray
    averages: np.ndarray
    t: float
    lam: float
    h: float | None = None

    def __post_init__(self):
        if self.h is None:
            object.__setattr__(self, "h", float(self.edges[1] - self.edges[0]))

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def initial_state(geom: AnnulusGeometry, lam: float, n_cells: int) -> FVState:
    """Cell averages of sign(r - r0) on a uniform grid over [rho, R] (3-point Gauss per cell)."""
    edges = np.linspace(geom.rho, geom.R, n_cells + 1)
    h = edges[1] - edges[0]
    xi, wi = np.polynomial.legendre.leggauss(3)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pts = centers[:, None] + 0.5 * h * xi[None, :]
    averages = np.sign(pts - geom.r0) @ (0.5 * wi)
    return FVState(edges=edges, averages=averages, t=0.0, lam=lam)


def _godunov_flux(u_left, u_right, lam: float):
    # exact Riemann flux for the convex flux (lam/2) u^2, minimum at u = 0:
    # the larger of the flux of the left state's rightward-moving part and of
    # the right state's leftward-moving part
    return 0.5 * lam * np.maximum(np.maximum(u_left, 0.0) ** 2, np.minimum(u_right, 0.0) ** 2)


def godunov_step(state: FVState, dt: float) -> FVState:
    """One conservative Godunov update with copy (zero-gradient) ghost cells.

    Rejects steps whose CFL number lam*max|u|*dt/h exceeds ``CFL``.
    """
    u = state.averages
    speed = state.lam * float(np.abs(u).max())
    if speed * dt > CFL * state.h * (1.0 + 1e-12):
        raise CFLError(f"CFL number {speed * dt / state.h:.3f} exceeds limit {CFL}; split the step")
    ext = np.concatenate([u[:1], u, u[-1:]])
    flux = _godunov_flux(ext[:-1], ext[1:], state.lam)
    averages = u - (dt / state.h) * (flux[1:] - flux[:-1])
    return FVState(state.edges, averages, state.t + dt, state.lam, state.h)


def godunov_solve(geom: AnnulusGeometry, lam: float, t_end: float, n_cells: int) -> FVState:
    """Evolve the cell averages of sign(r - r0) to ``t_end`` in equal steps at
    CFL number at most ``CFL``.

    Each step updates only a window of cells.  A cell equal to both neighbours
    sees the same flux on both faces, so its update is ``u - c*0 = u`` bit for
    bit.  The window starts at the cells beside the initial jumps and, since a
    step reaches one cell per side, grows by one cell per side per step,
    clipped at the walls.  Away from a wall its end cells equal their outer
    neighbours, so the copy ghost cells of ``godunov_step`` are the true
    neighbours and its ``max|u|`` is that of the whole grid.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    state = initial_state(geom, lam, n_cells)
    if t_end == 0:
        return state
    u = state.averages
    speed = lam * max(float(np.max(np.abs(u))), 1.0)
    n_steps = max(1, math.ceil(t_end * speed / (CFL * state.h)))
    dt = t_end / n_steps
    jumps = np.flatnonzero(u[1:] != u[:-1])
    lo, hi = (int(jumps[0]) + 1, int(jumps[-1]) + 1) if jumps.size else (0, 0)
    t = state.t
    for _ in range(n_steps):
        lo, hi = max(lo - 1, 0), min(hi + 1, n_cells)
        window = godunov_step(FVState(state.edges[lo:hi + 1], u[lo:hi], t, lam, state.h), dt)
        u[lo:hi] = window.averages
        t = window.t
    return replace(state, averages=u, t=t)


def compare_exact_vs_fv(geom: AnnulusGeometry, params: SubsolutionParams, t: float,
                        n_cells: int):
    """(L1, Linf, max|u|) of the Godunov solution at time t against the exact fan.

    Both errors are evaluated at the cell midpoints; the Linf error skips the
    two cells on either side of the cell edge nearest each fan edge, where the
    kinks sit.  max|u| is the input of the maximum principle |u| <= 1.
    """
    state = godunov_solve(geom, params.lam, t, n_cells)
    centers = state.centers
    diff = np.abs(state.averages - rarefaction(centers, t, geom.r0, params.lam))
    h = centers[1] - centers[0]
    l1 = float(h * diff.sum())
    away = np.ones(diff.size, dtype=bool)
    for edge in fan_interval(t, geom, params.lam):
        # edges[k] is the cell edge nearest the fan edge; k moves only where a fan
        # edge crosses a cell center, so no last bit of a fan edge decides it
        k = int(np.searchsorted(centers, edge))
        away[max(k - 2, 0):k + 2] = False
    linf = float(diff[away].max()) if np.any(away) else 0.0
    return l1, linf, float(np.max(np.abs(state.averages)))
