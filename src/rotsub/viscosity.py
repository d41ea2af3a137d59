"""Viscous evolution of the azimuthal speed profile and the small-viscosity limit.

For rotational data the full viscous flow problem reduces to one linear
parabolic equation for the speed profile,

    d_t a = nu * ( d_rr a + (1/r) d_r a - a / r^2 ),
    a(rho, t) = a(R, t) = 0,    a(r, 0) = a0(r) = sign(r - r0) / r^2,

whose solution, lifted back to the plane by a(r, t) (sin th, -cos th), is the
unique symmetric solution of the viscous problem.  As nu -> 0 the profile
converges back to a0 in L^2(r dr); the sweep below measures that distance.

The spatial operator is discretized in self-adjoint form
(1/r) d_r (r d_r a) - a/r^2, giving an exact discrete energy balance
under Crank-Nicolson time stepping:

    E(t_n) + nu * sum_m dt * G(midpoint_m) = E(0)

with E = pi * sum_i r_i a_i^2 h and G the discrete gradient energy.

Everything runs on plain arrays: ``solve_parabolic`` returns its stepper
(grid, profile, time, energy drift) and ``vanishing_viscosity_study`` the
distances with their fitted slope.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .geometry import AnnulusGeometry
from .subsolution import alpha0

TWO_PI = 2.0 * math.pi
# most Crank-Nicolson steps a sweep takes per viscosity (minutes at n = 3200)
MAX_STEPS = 10**6


def radial_grid(geom: AnnulusGeometry, n: int):
    """Uniform grid on [rho, R] with n intervals, adjusted so r0 is a node.

    When (r0 - rho)/(R - rho) is (close to) a small rational p/q, n is rounded
    to a multiple of q and the matching node is pinned to r0 exactly; the
    profile jump then sits on a grid node.
    """
    if n < 8:
        raise ValueError(f"need at least 8 intervals, got {n}")
    frac = Fraction(geom.r0 - geom.rho) / Fraction(geom.R - geom.rho)
    approx = frac.limit_denominator(n)
    if abs(float(approx) - float(frac)) < 1e-12:
        q = approx.denominator
        n = max(1, round(n / q)) * q
        grid = np.linspace(geom.rho, geom.R, n + 1)
        grid[n * approx.numerator // q] = geom.r0
        return grid
    return np.linspace(geom.rho, geom.R, n + 1)


def initial_profile(geom: AnnulusGeometry, grid):
    """a0 sampled on the grid; a node coinciding with r0 takes the midpoint value 0."""
    values = alpha0(grid, geom)
    values[np.isclose(grid, geom.r0, rtol=0.0, atol=1e-12)] = 0.0
    return values


def l2_rdr_norm(grid, values) -> float:
    """L^2(r dr) norm over [rho, R] including the 2*pi angular factor."""
    return math.sqrt(TWO_PI * float(np.trapezoid(values**2 * grid, grid)))


class _CrankNicolson:
    """Crank-Nicolson stepper: ``grid``, the profile ``u_full`` at time ``t``
    and the energy balance.  ``initial(r)`` replaces a0 and ``source(r, t)``
    adds a right-hand side, for manufactured-solution tests.  nu = 0 is never
    set: the zero-viscosity limit is a sweep of nu downward."""

    def __init__(self, geom: AnnulusGeometry, nu: float, n: int, dt: float,
                 initial=None, source=None):
        if not nu > 0.0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        if not dt > 0.0:
            raise ValueError(f"time step must be positive, got {dt}")
        self.nu = nu
        self.dt = dt
        self.source = source
        grid = radial_grid(geom, n)
        self.grid = grid
        self.h = float(grid[1] - grid[0])
        if initial is None:
            self.u_full = initial_profile(geom, grid)
        else:
            self.u_full = np.asarray(initial(grid), dtype=float)
        self.t = 0.0

        r = grid[1:-1]
        h = self.h
        r_plus = 0.5 * (grid[1:-1] + grid[2:])
        r_minus = 0.5 * (grid[:-2] + grid[1:-1])
        self.c_minus = r_minus / (r * h**2)
        self.c_plus = r_plus / (r * h**2)
        self.c_diag = -(r_minus + r_plus) / (r * h**2) - 1.0 / r**2
        self.r_interior = r
        self.r_faces = 0.5 * (grid[:-1] + grid[1:])

        mu = 0.5 * nu * dt
        # scipy is imported here, by its only user, so that importing the
        # package (and every other command) does not pay its import time
        from scipy.linalg.lapack import dgttrf, dgttrs

        # the left-hand side I - mu*A never changes: LU-factor it once
        *self._lhs_lu, info = dgttrf(
            -mu * self.c_minus[1:], 1.0 - mu * self.c_diag, -mu * self.c_plus[:-1]
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"Crank-Nicolson matrix is singular (dgttrf info {info})")
        self._lhs_solve = dgttrs
        self.mu = mu

        self.energy0 = self._energy(self.u_full)
        self.dissipated = 0.0

    def _energy(self, u_full) -> float:
        return math.pi * float(np.sum(self.r_interior * u_full[1:-1] ** 2) * self.h)

    def _gradient_energy(self, u_full) -> float:
        jumps = np.diff(u_full) / self.h
        face_term = float(np.sum(self.r_faces * jumps**2) * self.h)
        mass_term = float(np.sum(u_full[1:-1] ** 2 / self.r_interior) * self.h)
        return TWO_PI * (face_term + mass_term)

    def _apply_rhs(self, u):
        out = (1.0 + self.mu * self.c_diag) * u
        out[1:] += self.mu * self.c_minus[1:] * u[:-1]
        out[:-1] += self.mu * self.c_plus[:-1] * u[1:]
        return out

    def step(self):
        # the Dirichlet values hold for t > 0; the t = 0 vector keeps the raw
        # initial profile (whose boundary values need not be compatible)
        self.u_full[0] = 0.0
        self.u_full[-1] = 0.0
        u = self.u_full[1:-1]
        rhs = self._apply_rhs(u)
        if self.source is not None:
            rhs = rhs + self.dt * np.asarray(
                self.source(self.r_interior, self.t + 0.5 * self.dt), dtype=float
            )
        u_new, info = self._lhs_solve(*self._lhs_lu, rhs)
        if info != 0 or not np.all(np.isfinite(u_new)):
            raise ValueError(f"Crank-Nicolson step gave non-finite values (dgttrs info {info})")
        midpoint = np.zeros_like(self.u_full)
        midpoint[1:-1] = 0.5 * (u + u_new)
        self.dissipated += self.nu * self.dt * self._gradient_energy(midpoint)
        self.u_full[1:-1] = u_new
        self.t += self.dt

    @property
    def energy_drift(self) -> float:
        if self.source is not None:
            return math.nan
        return abs(self._energy(self.u_full) + self.dissipated - self.energy0)


def solve_parabolic(geom: AnnulusGeometry, nu: float, t_end: float, n: int, dt: float,
                    initial=None, source=None) -> _CrankNicolson:
    """Crank-Nicolson evolution over round(t_end / dt) steps.

    Unconditionally stable; second order in both the grid spacing and the time
    step.  Returns the stepper: ``grid``, the profile ``u_full`` at time ``t``,
    and ``energy_drift``.
    """
    solver = _CrankNicolson(geom, nu, n, dt, initial=initial, source=source)
    for _ in range(round(t_end / dt)):
        solver.step()
    return solver


def vanishing_viscosity_study(geom: AnnulusGeometry, nu_list, t_probe: float, n: int, dt: float):
    """|| a_nu(., t_probe) - a0 ||_{L^2(r dr)} along a decreasing viscosity list.

    Requires at least three strictly decreasing viscosities, a positive
    finite probe time, and a time step that takes from one to ``MAX_STEPS``
    steps to it.  Returns the distances and their fitted log-log slope
    in nu.  The slope is reported as an observation; the substantive check is
    that the distances decrease strictly, i.e. the viscous profiles converge
    back to the stationary one.
    """
    nu_arr = np.asarray(nu_list, dtype=float)
    if nu_arr.size < 3 or np.any(np.diff(nu_arr) >= 0) or np.any(nu_arr <= 0):
        raise ValueError("need >= 3 strictly decreasing positive viscosities")
    if not 0.0 < t_probe < math.inf:
        raise ValueError(f"probe time must be positive and finite, got {t_probe}")
    # round(t_probe / dt) steps; the stepper rejects a dt <= 0
    if dt > 0.0 and not 0.5 < t_probe / dt < MAX_STEPS + 0.5:
        raise ValueError(f"time step {dt} takes no step or more than {MAX_STEPS} steps to the probe time {t_probe}")
    distances = []
    for nu in nu_arr:
        solver = solve_parabolic(geom, float(nu), t_probe, n, dt)
        distances.append(l2_rdr_norm(solver.grid, solver.u_full - initial_profile(geom, solver.grid)))
    distances = np.asarray(distances)
    slope = float(np.polyfit(np.log(nu_arr), np.log(distances), 1)[0])
    return distances, slope
