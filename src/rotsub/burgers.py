"""Rarefaction wave for the quadratic-flux conservation law, plus a finite-volume oracle.

The scalar profile f(r, t) drives the whole construction: it solves

    f_t + (lam/2) (f^2)_r = 0,   f(r, 0) = sign(r - r0),

whose entropy solution is the self-similar fan

    f = -1                for r < r0 - lam*t,
    f = (r - r0)/(lam*t)  inside the fan,
    f = +1                for r > r0 + lam*t.

The Godunov scheme below is an independent check on this closed form; it never
feeds back into the construction.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .geometry import AnnulusGeometry, SubsolutionParams


class CFLError(ValueError):
    """Raised when a requested step would exceed the CFL limit."""


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a scalar function of r at a fixed time."""

    grid: np.ndarray
    values: np.ndarray
    t: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


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


def fan_interval(t, r0: float, lam: float):
    """Open radial interval occupied by the fan at time t (empty at t = 0)."""
    return r0 - lam * t, r0 + lam * t


@dataclass(frozen=True)
class FVState:
    """Uniform finite-volume state: cell edges, cell averages, time, band speed."""

    edges: np.ndarray
    averages: np.ndarray
    t: float
    lam: float

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        averages = np.asarray(self.averages, dtype=float)
        if edges.size != averages.size + 1:
            raise ValueError("need len(edges) == len(averages) + 1")
        h = np.diff(edges)
        # tolerance covers the one-ulp wobble of linspace spacings on fine grids
        if not np.allclose(h, h[0], rtol=0.0, atol=4.0 * np.spacing(np.abs(edges).max())):
            raise ValueError("cell edges must be uniform")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "averages", averages)

    @property
    def h(self) -> float:
        return float(self.edges[1] - self.edges[0])

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def mass(self) -> float:
        return float(self.h * self.averages.sum())


def initial_state(f0, geom: AnnulusGeometry, lam: float, n_cells: int) -> FVState:
    """Cell averages of ``f0`` on a uniform grid over [rho, R] (3-point Gauss per cell)."""
    edges = np.linspace(geom.rho, geom.R, n_cells + 1)
    h = edges[1] - edges[0]
    xi, wi = np.polynomial.legendre.leggauss(3)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pts = centers[:, None] + 0.5 * h * xi[None, :]
    averages = np.asarray(f0(pts)) @ (0.5 * wi)
    return FVState(edges=edges, averages=averages, t=0.0, lam=lam)


def _godunov_flux(u_left, u_right, lam: float):
    # exact Riemann flux for the convex flux (lam/2) u^2, minimum at u = 0:
    # the larger of the flux of the left state's rightward-moving part and of
    # the right state's leftward-moving part
    return 0.5 * lam * np.maximum(np.maximum(u_left, 0.0) ** 2, np.minimum(u_right, 0.0) ** 2)


def godunov_step(state: FVState, dt: float, cfl_limit: float = 0.9) -> FVState:
    """One conservative Godunov update with copy (zero-gradient) ghost cells.

    Rejects steps whose CFL number lam*max|u|*dt/h exceeds ``cfl_limit``.
    """
    u = state.averages
    speed = state.lam * float(np.max(np.abs(u)))
    if speed * dt > cfl_limit * state.h * (1.0 + 1e-12):
        raise CFLError(
            f"CFL number {speed * dt / state.h:.3f} exceeds limit {cfl_limit}; split the step"
        )
    ext = np.concatenate([u[:1], u, u[-1:]])
    flux = _godunov_flux(ext[:-1], ext[1:], state.lam)
    u_new = u - (dt / state.h) * (flux[1:] - flux[:-1])
    # the successor shares the edges validated when ``state`` was built, so it
    # skips ``__post_init__`` and its O(n) uniformity check
    new = copy.copy(state)
    object.__setattr__(new, "averages", u_new)
    object.__setattr__(new, "t", state.t + dt)
    return new


def godunov_solve(f0, geom: AnnulusGeometry, lam: float, t_end: float, n_cells: int,
                  cfl: float = 0.9) -> RadialProfile:
    """Evolve cell averages of ``f0`` to ``t_end``; returns the profile at cell centers."""
    state = initial_state(f0, geom, lam, n_cells)
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if t_end == 0:
        return RadialProfile(grid=state.centers, values=state.averages, t=0.0)
    speed = lam * max(float(np.max(np.abs(state.averages))), 1.0)
    n_steps = max(1, math.ceil(t_end * speed / (cfl * state.h)))
    dt = t_end / n_steps
    for _ in range(n_steps):
        state = godunov_step(state, dt, cfl_limit=cfl)
    return RadialProfile(grid=state.centers, values=state.averages, t=state.t)


def fv_errors(profile: RadialProfile, geom: AnnulusGeometry, params: SubsolutionParams,
              t: float):
    """(L1, Linf) distance between a cell-center profile and the exact fan at time t.

    Both errors are evaluated at the profile's cell midpoints; the Linf error
    skips the two cells on either side of each fan edge, where the kinks sit.
    """
    exact = rarefaction(profile.grid, t, geom.r0, params.lam)
    diff = np.abs(profile.values - exact)
    h = profile.grid[1] - profile.grid[0]
    l1 = float(h * diff.sum())
    left, right = fan_interval(t, geom.r0, params.lam)
    away = (np.abs(profile.grid - left) > 2.5 * h) & (np.abs(profile.grid - right) > 2.5 * h)
    linf = float(diff[away].max()) if np.any(away) else 0.0
    return l1, linf


def compare_exact_vs_fv(geom: AnnulusGeometry, params: SubsolutionParams, t: float,
                        n_cells: int):
    """(L1, Linf) distance between the Godunov solution and the exact fan at time t
    (see ``fv_errors``)."""
    profile = godunov_solve(
        lambda r: np.sign(r - geom.r0), geom, params.lam, t, n_cells
    )
    return fv_errors(profile, geom, params, t)
