"""Annulus geometry, admissible parameter bounds, polar frames, and domain predicates.

Everything downstream lives on the planar annulus {rho < |x| < R} with a
distinguished interface circle r = r0 and a finite time horizon T.  Two
constants steer the construction: the propagation speed ``lam`` of the
expanding mixing band and the energy dissipation rate ``epsilon``.  The
admissible ranges are

    0 < lam < min(1/R^2, (r0 - rho)/T, (R - r0)/T)
    0 <= epsilon < 1/(1 - rho^2 * lam)

The stricter condition ``epsilon < 1`` is what makes the pointwise energy gap
strictly positive inside the band; it is reported as a separate flag, never as
a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class AnnulusGeometry:
    """Planar annulus rho < |x| < R with interface radius r0 and time horizon T."""

    rho: float
    R: float
    r0: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.rho < self.R < math.inf):
            raise ValueError(f"need 0 < rho < R < inf, got rho={self.rho}, R={self.R}")
        if not (self.rho < self.r0 < self.R):
            raise ValueError(
                f"interface radius r0={self.r0} must lie strictly inside ({self.rho}, {self.R})"
            )
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"time horizon must be positive and finite, got T={self.T}")

    @property
    def width(self) -> float:
        return self.R - self.rho


@dataclass(frozen=True)
class SubsolutionParams:
    """Mixing-band speed ``lam`` and dissipation rate ``epsilon``.

    Construction does not validate the admissibility bounds (so that invalid
    values can be fed to :func:`validate_params`); it only requires finite
    numbers.
    """

    lam: float
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.epsilon)):
            raise ValueError(f"parameters must be finite, got lam={self.lam}, epsilon={self.epsilon}")


def lambda_upper_bound(geom: AnnulusGeometry) -> float:
    """Largest admissible band speed: the band must stay inside the annulus for
    t <= T and 1 - r^2*lam must stay positive on [rho, R]."""
    return min(1.0 / geom.R**2, (geom.r0 - geom.rho) / geom.T, (geom.R - geom.r0) / geom.T)


def epsilon_upper_bound(geom: AnnulusGeometry, lam: float) -> float:
    """Largest admissible dissipation rate, 1/(1 - rho^2*lam).

    Returns inf when 1 - rho^2*lam <= 0; that situation is already flagged by
    the lambda bound.
    """
    denom = 1.0 - geom.rho**2 * lam
    if denom <= 0.0:
        return math.inf
    return 1.0 / denom


def validate_params(geom: AnnulusGeometry, params: SubsolutionParams) -> list:
    """Every violated admissibility bound, as ``{"name", "value", "bound",
    "description"}`` objects; the list is empty exactly when all bounds hold.

    ``epsilon < 1`` (a strict gap inside the band) is not one of the bounds.
    """
    lam_max = lambda_upper_bound(geom)
    eps_max = epsilon_upper_bound(geom, params.lam)
    checks = (
        ("lambda_positive", params.lam, 0.0, params.lam > 0.0,
         "band speed must satisfy lam > 0"),
        ("lambda_upper", params.lam, lam_max, params.lam < lam_max,
         "band speed must satisfy lam < min(1/R^2, (r0-rho)/T, (R-r0)/T)"),
        ("epsilon_nonnegative", params.epsilon, 0.0, params.epsilon >= 0.0,
         "dissipation rate must satisfy epsilon >= 0"),
        ("epsilon_upper", params.epsilon, eps_max, params.epsilon < eps_max,
         "dissipation rate must satisfy epsilon < 1/(1 - rho^2*lam)"),
    )
    return [
        {"name": name, "value": value, "bound": bound, "description": description}
        for name, value, bound, holds, description in checks
        if not holds
    ]


def cartesian_to_polar(x):
    """(..., 2) points -> (r, theta) with theta normalized to [0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.mod(np.arctan2(x[..., 1], x[..., 0]), 2.0 * math.pi)
    return r, theta


def polar_to_cartesian(r, theta):
    """(r, theta) -> (..., 2) points."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def polar_vector(v_r, v_th, theta):
    """Cartesian (..., 2) vector with polar components v_r e_r + v_th e_theta."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([v_r * c - v_th * s, v_r * s + v_th * c], axis=-1)


def polar_jacobian(t_rr, t_rth, t_thr, t_thth, theta):
    """Cartesian Jacobian G[..., i, j] = d w_i / d x_j of a planar field w from
    its polar-frame derivatives t_ab = e_a . ((e_b . grad) w), a, b in {r, theta}.

    G = sum_ab t_ab e_a (x) e_b.  Of its trace, antisymmetric and symmetric
    traceless parts only the last turns with the frame (by the angle 2 theta),
    so G_00 and G_11 carry the same rounded trace part: where t_thth = -t_rr,
    as for a divergence-free field, G_00 + G_11 is exactly zero.
    """
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    mean = 0.5 * (t_rr + t_thth)
    spin = 0.5 * (t_rth - t_thr)
    diag = 0.5 * (t_rr - t_thth)
    shear = 0.5 * (t_rth + t_thr)
    a = diag * c2 - shear * s2
    b = diag * s2 + shear * c2
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0] = mean + a
    out[..., 0, 1] = b + spin
    out[..., 1, 0] = b - spin
    out[..., 1, 1] = mean - a
    return out


@dataclass(frozen=True)
class BoundaryFrame:
    """Distance to the nearest boundary circle plus the local frame there.

    ``normal`` is the inner unit normal of the nearest component (it points
    into the annulus) and ``tangent = (-normal_y, normal_x)``.  ``sign`` is
    +1 when the inner circle is nearest and -1 for the outer one; it satisfies
    normal = sign * e_r.
    """

    distance: np.ndarray
    sign: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray


def boundary_distance(x, geom: AnnulusGeometry) -> BoundaryFrame:
    """Nearest-boundary data for points of the open annulus.

    Points equidistant from both circles are assigned to the inner component,
    so the result is deterministic on the medial circle.
    """
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    d_in = r - geom.rho
    d_out = geom.R - r
    inner = d_in <= d_out
    sign = np.where(inner, 1.0, -1.0)
    dist = np.where(inner, d_in, d_out)
    e_r = x / r[..., None]
    normal = sign[..., None] * e_r
    tangent = np.stack([-normal[..., 1], normal[..., 0]], axis=-1)
    return BoundaryFrame(distance=dist, sign=sign, normal=normal, tangent=tangent)
