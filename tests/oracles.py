"""Cartesian views of the constructed state, for tests that check it at points x.

Each turns its points back into polar coordinates and evaluates the polar
library functions there; the library itself works on polar data only.
"""

import numpy as np

from rotsub import subsolution as ss
from rotsub.geometry import cartesian_to_polar


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
