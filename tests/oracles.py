"""Test oracles: Cartesian views of the constructed state, the analytic
derivatives of the fan, and the per-time energy rule.

The Cartesian views turn their points back into polar coordinates and evaluate
the polar library functions there; the library itself works on polar data
only.  The derivatives give the radial system's residuals in closed form.
"""

import math

import numpy as np

from rotsub import subsolution as ss
from rotsub.burgers import fan_interval
from rotsub.geometry import cartesian_to_polar
from rotsub.quadrature import edges_with_breaks, panel_rule


def vbar_at(x, t, geom, params):
    """Velocity alpha(r, t) (sin th, -cos th) at Cartesian points, as (..., 2) arrays."""
    r, theta = cartesian_to_polar(x)
    return ss.azimuthal(ss.alpha(r, t, geom, params), theta)


def ubar_at(x, t, geom, params):
    """Symmetric traceless matrix field at Cartesian points, as (..., 2, 2) arrays."""
    r, theta = cartesian_to_polar(np.asarray(x, dtype=float))
    u11, u12 = ss.ubar_entries(r, theta, t, geom, params)
    out = np.empty(u11.shape + (2, 2))
    out[..., 0, 0] = u11
    out[..., 0, 1] = u12
    out[..., 1, 0] = u12
    out[..., 1, 1] = -u11
    return out


def initial_velocity_at(x, geom):
    """The stationary velocity at t = 0, -+ x_perp / |x|^3 across r0 with
    x_perp = (x2, -x1), at Cartesian points."""
    r, theta = cartesian_to_polar(x)
    return ss.azimuthal(ss.alpha0(r, geom), theta)


def f_partials(r, t, geom, params):
    """Analytic (f_r, f_t) away from the fan edges; zero outside the fan.

    Values exactly on an edge take the outside limit (both partials 0).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    inside = ss.in_band(r, t, geom, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_r = np.where(inside, 1.0 / (params.lam * t), 0.0)
        f_t = np.where(inside, -(r - geom.r0) / (params.lam * t**2), 0.0)
    return f_r, f_t


def alpha_partials(r, t, geom, params):
    """Analytic (d alpha/dr, d alpha/dt) away from the fan edges."""
    r = np.asarray(r, dtype=float)
    f = ss.f_profile(r, t, geom, params)
    f_r, f_t = f_partials(r, t, geom, params)
    return f_r / r**2 - 2.0 * f / r**3, f_t / r**2


def gamma_partial_r(r, t, geom, params):
    """Analytic d gamma/dr away from the fan edges."""
    r = np.asarray(r, dtype=float)
    f = ss.f_profile(r, t, geom, params)
    f_r, _ = f_partials(r, t, geom, params)
    lam = params.lam
    return lam * (1.0 - f**2) / r**3 + lam * f * f_r / r**2


def radial_system_residual_analytic(geom, params, r, t):
    """The radial system's residuals with all derivatives analytic; identically
    zero up to roundoff.

    d_r qbar = alpha d_r alpha + alpha^2 / r by construction of the pressure
    integral, so res1 cancels exactly; res2 cancels because f solves the
    conservation law.  Only meaningful away from the band edges.
    """
    r = np.asarray(r, dtype=float)
    a = ss.alpha(r, t, geom, params)
    a_r, a_t = alpha_partials(r, t, geom, params)
    res1 = -a * a_r + 2.0 * ss.beta(r, t, geom, params) / r + (a * a_r + a**2 / r)
    res2 = a_t + gamma_partial_r(r, t, geom, params) + 2.0 * ss.gamma(r, t, geom, params) / r
    return res1, res2


def energy_total(geom, params, t):
    """int_Omega 2 ebar(., t) dx at one time, by eight 8-point radial panels
    pinned to the band edges: the per-time rule that ``weakform.energy_series``
    builds for all times at once."""
    edges = edges_with_breaks(geom.rho, geom.R, 8, fan_interval(t, geom, params.lam))
    nodes, weights = panel_rule(edges, 8)
    return 2.0 * math.pi * float(np.dot(weights, 2.0 * ss.ebar(nodes, t, geom, params) * nodes))
