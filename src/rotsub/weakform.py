"""Weak-form residuals, energy accounting, and the reduced radial system.

The constructed fields satisfy, for every smooth vector field phi compactly
supported in the open space-time cylinder,

    int int [ vbar . d_t phi + ubar : grad phi + qbar div phi ] dx dt = 0,

together with div vbar = 0 at every time.  Both statements are verified here by
quadrature against an analytic library of compactly supported test fields.
Away from the band edges the same content reduces to two radial equations,

    d_r beta + (2/r) beta + d_r qbar = 0,
    d_t alpha + d_r gamma + (2/r) gamma = 0,

checked by centered finite differences (an independent route: no analytic
derivatives of the construction enter).  Energy accounting works with

    E(t) = int_Omega 2 ebar dx,   E(0) = pi (rho^-2 - R^-2),

which is conserved for epsilon = 0 and strictly decreasing for epsilon > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AnnulusGeometry,
    SubsolutionParams,
    cartesian_to_polar,
    polar_to_cartesian,
    polar_vector,
)
from .quadrature import QuadratureRule, annulus_rule, edges_with_breaks, panel_rule, spacetime_rule
from .subsolution import (
    TurbulentRegion,
    alpha,
    alpha0,
    alpha_partials,
    azimuthal,
    beta,
    ebar,
    gamma,
    gamma_partial_r,
    qbar,
    ubar_entries,
)

TWO_PI = 2.0 * math.pi


class SupportError(ValueError):
    """Raised when a test field's support is not strictly inside the domain."""


class BumpProfile:
    """Polynomial bump on (a, b): (1 - u^2)^p with u the affine map to (-1, 1).

    Compactly supported, C^(p-1) across the edges, with closed-form first and
    second derivatives.  Polynomial profiles keep high-order derivatives tame,
    so composite Gauss rules converge at their nominal rate from coarse panels
    on (an essential-singularity bump would not).
    """

    def __init__(self, a: float, b: float, power: int = 5):
        if not b > a:
            raise ValueError(f"need a < b, got ({a}, {b})")
        if power < 3:
            raise ValueError("bump power must be >= 3 (the fields need two derivatives)")
        self.a = float(a)
        self.b = float(b)
        self.power = int(power)

    def _uw(self, s):
        """The affine coordinate u and the base 1 - u^2 (zero outside (a, b))."""
        u = (2.0 * np.asarray(s, dtype=float) - self.a - self.b) / (self.b - self.a)
        return u, np.where(u**2 < 1.0, 1.0 - u**2, 0.0)

    def value(self, s):
        return self._uw(s)[1] ** self.power

    def deriv(self, s):
        u, w = self._uw(s)
        p = self.power
        du = 2.0 / (self.b - self.a)
        return -2.0 * p * u * w ** (p - 1) * du

    def deriv2(self, s):
        u, w = self._uw(s)
        p = self.power
        du = 2.0 / (self.b - self.a)
        return (-2.0 * p * w ** (p - 1) + 4.0 * p * (p - 1) * u**2 * w ** (p - 2)) * du**2


@dataclass(frozen=True)
class FourierPoly:
    """Finite trigonometric polynomial c0 + sum_k (a_k cos k th + b_k sin k th).

    ``terms`` is a tuple of (k, a_k, b_k); k = 0 contributes the constant a_0.
    """

    terms: tuple

    def value(self, th):
        th = np.asarray(th, dtype=float)
        out = np.zeros_like(th)
        for k, a, b in self.terms:
            if k == 0:
                out = out + a
            else:
                out = out + a * np.cos(k * th) + b * np.sin(k * th)
        return out

    def deriv(self, th):
        th = np.asarray(th, dtype=float)
        out = np.zeros_like(th)
        for k, a, b in self.terms:
            if k:
                out = out + k * (-a * np.sin(k * th) + b * np.cos(k * th))
        return out

    def deriv2(self, th):
        th = np.asarray(th, dtype=float)
        out = np.zeros_like(th)
        for k, a, b in self.terms:
            if k:
                out = out - k**2 * (a * np.cos(k * th) + b * np.sin(k * th))
        return out


def _check_support(geom: AnnulusGeometry, r_support, t_support):
    ra, rb = r_support
    margin = min(ra - geom.rho, geom.R - rb)
    if t_support is not None:
        ta, tb = t_support
        margin = min(margin, ta - 0.0, geom.T - tb)
    if margin <= 0:
        raise SupportError(
            f"support r={r_support}, t={t_support} is not strictly inside the domain"
        )


class ScalarBumpField:
    """Scalar field b_r(r) * F(theta) * b_t(t); all derivatives analytic.

    Compactly supported in the open annulus; with ``t_support=None`` the time
    factor is identically one (a purely spatial test function).
    """

    def __init__(self, geom: AnnulusGeometry, r_support, fourier: FourierPoly, t_support=None):
        self.r_support = tuple(map(float, r_support))
        self.t_support = None if t_support is None else tuple(map(float, t_support))
        _check_support(geom, self.r_support, self.t_support)
        self._br = BumpProfile(*self.r_support)
        self._bt = None if self.t_support is None else BumpProfile(*self.t_support)
        self._fourier = fourier

    def _time_factor(self, t):
        if self._bt is None:
            return np.ones_like(np.asarray(t, dtype=float)), np.zeros_like(np.asarray(t, dtype=float))
        return self._bt.value(t), self._bt.deriv(t)

    def value(self, x, t=0.0):
        r, th = cartesian_to_polar(x)
        bt, _ = self._time_factor(np.asarray(t, dtype=float))
        return self._br.value(r) * self._fourier.value(th) * bt

    def time_deriv(self, x, t=0.0):
        r, th = cartesian_to_polar(x)
        _, dbt = self._time_factor(np.asarray(t, dtype=float))
        return self._br.value(r) * self._fourier.value(th) * dbt

    def polar_partials(self, r, th):
        """(p, p_r, p_th, p_rr, p_rth, p_thth) of the spatial factor."""
        b = self._br.value(r)
        b1 = self._br.deriv(r)
        b2 = self._br.deriv2(r)
        f = self._fourier.value(th)
        f1 = self._fourier.deriv(th)
        f2 = self._fourier.deriv2(th)
        return b * f, b1 * f, b * f1, b2 * f, b1 * f1, b * f2

    def _gradient(self, x, time_factor):
        """Spatial gradient times ``time_factor`` (b_t or its derivative)."""
        r, th = cartesian_to_polar(x)
        p_r = self._br.deriv(r) * self._fourier.value(th)
        p_th = self._br.value(r) * self._fourier.deriv(th)
        return polar_vector(p_r * time_factor, p_th / r * time_factor, th)

    def gradient(self, x, t=0.0):
        bt, _ = self._time_factor(np.asarray(t, dtype=float))
        return self._gradient(x, bt)

    def hessian(self, x, t=0.0):
        """Cartesian second derivatives (p_xx, p_xy, p_yy)."""
        r, th = cartesian_to_polar(x)
        bt, _ = self._time_factor(np.asarray(t, dtype=float))
        _, p_r, p_th, p_rr, p_rth, p_thth = self.polar_partials(r, th)
        c, s = np.cos(th), np.sin(th)
        cs = c * s
        p_xx = (
            c**2 * p_rr
            - 2.0 * cs / r * p_rth
            + s**2 / r**2 * p_thth
            + s**2 / r * p_r
            + 2.0 * cs / r**2 * p_th
        )
        p_yy = (
            s**2 * p_rr
            + 2.0 * cs / r * p_rth
            + c**2 / r**2 * p_thth
            + c**2 / r * p_r
            - 2.0 * cs / r**2 * p_th
        )
        p_xy = (
            cs * p_rr
            + (c**2 - s**2) / r * p_rth
            - cs / r**2 * p_thth
            - cs / r * p_r
            - (c**2 - s**2) / r**2 * p_th
        )
        return p_xx * bt, p_xy * bt, p_yy * bt


class VectorBumpField:
    """Vector test field with components b_r(r) * F_i(theta) * b_t(t)."""

    def __init__(self, geom: AnnulusGeometry, r_support, fourier_x: FourierPoly,
                 fourier_y: FourierPoly, t_support):
        self.r_support = tuple(map(float, r_support))
        self.t_support = tuple(map(float, t_support))
        _check_support(geom, self.r_support, self.t_support)
        self._br = BumpProfile(*self.r_support)
        self._bt = BumpProfile(*self.t_support)
        self._fx = fourier_x
        self._fy = fourier_y

    def value(self, x, t):
        r, th = cartesian_to_polar(x)
        amp = self._br.value(r) * self._bt.value(t)
        return np.stack([amp * self._fx.value(th), amp * self._fy.value(th)], axis=-1)

    def time_deriv(self, x, t):
        r, th = cartesian_to_polar(x)
        amp = self._br.value(r) * self._bt.deriv(t)
        return np.stack([amp * self._fx.value(th), amp * self._fy.value(th)], axis=-1)

    def gradient(self, x, t):
        """(..., 2, 2) array G with G[i, j] = d phi_i / d x_j."""
        r, th = cartesian_to_polar(x)
        bt = self._bt.value(t)
        b = self._br.value(r)
        b1 = self._br.deriv(r)
        rows = [
            polar_vector(b1 * fourier.value(th) * bt, b * fourier.deriv(th) / r * bt, th)
            for fourier in (self._fx, self._fy)
        ]
        return np.stack(rows, axis=-2)


class PerpGradientField:
    """Divergence-free vector field (psi_y, -psi_x) from a scalar bump psi."""

    def __init__(self, psi: ScalarBumpField):
        if psi.t_support is None:
            raise ValueError("perp-gradient test fields need a time bump")
        self.psi = psi
        self.r_support = psi.r_support
        self.t_support = psi.t_support

    def value(self, x, t):
        g = self.psi.gradient(x, t)
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)

    def time_deriv(self, x, t):
        # psi = S(x) b_t(t): swap the time factor for its derivative
        g = self.psi._gradient(x, self.psi._bt.deriv(np.asarray(t, dtype=float)))
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)

    def gradient(self, x, t):
        p_xx, p_xy, p_yy = self.psi.hessian(x, t)
        out = np.empty(np.shape(p_xx) + (2, 2))
        out[..., 0, 0] = p_xy
        out[..., 0, 1] = p_yy
        out[..., 1, 0] = -p_xx
        out[..., 1, 1] = -p_xy
        return out


def default_test_fields(geom: AnnulusGeometry, params: SubsolutionParams):
    """Five analytic test fields covering the interesting support layouts.

    Two avoid the mixing band entirely (inner and outer stationary branches),
    two cross it (one generic, one divergence-free), and one has no angular
    dependence at all.
    """
    band = TurbulentRegion.of(geom, params)
    left_end, right_end = band.interval(geom.T)
    pad_in = 0.25 * (left_end - geom.rho)
    pad_out = 0.25 * (geom.R - right_end)
    t_mid = (0.1 * geom.T, 0.9 * geom.T)

    outer = VectorBumpField(
        geom,
        (right_end + pad_out, geom.R - 0.25 * pad_out),
        FourierPoly(((0, 1.0, 0.0), (1, 0.5, 0.0))),
        FourierPoly(((1, 0.0, 0.7),)),
        t_mid,
    )
    inner = VectorBumpField(
        geom,
        (geom.rho + 0.25 * pad_in, left_end - pad_in),
        FourierPoly(((0, 0.8, 0.0), (2, 0.0, 0.4))),
        FourierPoly(((0, 1.0, 0.0),)),
        t_mid,
    )
    crossing = VectorBumpField(
        geom,
        (geom.r0 - 0.6 * (geom.r0 - geom.rho), geom.r0 + 0.6 * (geom.R - geom.r0)),
        FourierPoly(((1, 1.0, 0.0),)),
        FourierPoly(((0, 0.5, 0.0), (2, 0.3, 0.0))),
        t_mid,
    )
    divfree = PerpGradientField(
        ScalarBumpField(
            geom,
            (geom.r0 - 0.5 * (geom.r0 - geom.rho), geom.r0 + 0.5 * (geom.R - geom.r0)),
            FourierPoly(((0, 1.0, 0.0), (1, 0.6, 0.0))),
            t_support=(0.15 * geom.T, 0.85 * geom.T),
        )
    )
    radial_only = VectorBumpField(
        geom,
        (geom.rho + 0.2 * geom.width, geom.R - 0.2 * geom.width),
        FourierPoly(((0, 1.0, 0.0),)),
        FourierPoly(((0, -0.5, 0.0),)),
        (0.2 * geom.T, 0.8 * geom.T),
    )
    return {
        "outer_branch": outer,
        "inner_branch": inner,
        "band_crossing": crossing,
        "divergence_free": divfree,
        "radial_only": radial_only,
    }


def fan_spacetime_rule(geom: AnnulusGeometry, params: SubsolutionParams, r_span, t_span,
                       cells=(4, 4, 4), order: int = 8) -> QuadratureRule:
    """Space-time rule over the box with radial panels pinned to the band edges."""
    band = TurbulentRegion.of(geom, params)
    ra, rb = r_span
    ta, tb = t_span
    crossings = []
    if params.lam > 0:
        for radius in (ra, rb):
            for t_cross in ((geom.r0 - radius) / params.lam, (radius - geom.r0) / params.lam):
                if ta < t_cross < tb:
                    crossings.append(t_cross)
    return spacetime_rule(
        geom,
        (ta, tb),
        r_span=(ra, rb),
        cells=cells,
        order=order,
        r_breaks_at=lambda tv: band.interval(tv),
        t_breaks=tuple(crossings),
    )


def weak_residual_linear_system(geom: AnnulusGeometry, params: SubsolutionParams, phi,
                                quad: QuadratureRule | None = None,
                                cells=(4, 4, 4), order: int = 8) -> float:
    """Quadrature of vbar . d_t phi + ubar : grad phi + qbar div phi over phi's support.

    Vanishes (to quadrature accuracy) for the constructed fields, since all
    derivatives have been moved onto the compactly supported test field.
    """
    _check_support(geom, phi.r_support, phi.t_support)
    if quad is None:
        quad = fan_spacetime_rule(geom, params, phi.r_support, phi.t_support, cells, order)
    r, th, t = quad.r, quad.theta, quad.t
    x = polar_to_cartesian(r, th)
    v = azimuthal(alpha(r, t, geom, params), th)
    u11, u12 = ubar_entries(r, th, t, geom, params)
    q = qbar(r, t, geom, params)
    phi_t = phi.time_deriv(x, t)
    grad = phi.gradient(x, t)
    contraction = u11 * (grad[..., 0, 0] - grad[..., 1, 1]) + u12 * (
        grad[..., 0, 1] + grad[..., 1, 0]
    )
    div = grad[..., 0, 0] + grad[..., 1, 1]
    integrand = v[..., 0] * phi_t[..., 0] + v[..., 1] * phi_t[..., 1] + contraction + q * div
    return quad.integrate(integrand)


def weak_residual_divergence(velocity, p, geom: AnnulusGeometry, t: float = 0.0,
                             quad: QuadratureRule | None = None,
                             cells=(8, 8), order: int = 8) -> float:
    """Quadrature of velocity . grad p over p's support at a fixed time.

    Zero (to quadrature accuracy) for any divergence-free velocity tangent to
    the boundary -- in particular for every azimuthal field.
    """
    _check_support(geom, p.r_support, None)
    if quad is None:
        quad = annulus_rule(geom, r_cells=cells[0], theta_cells=cells[1], order=order,
                            r_span=p.r_support)
    x = polar_to_cartesian(quad.r, quad.theta)
    v = velocity(x, t)
    g = p.gradient(x, t)
    return quad.integrate(v[..., 0] * g[..., 0] + v[..., 1] * g[..., 1])


@dataclass(frozen=True)
class RefinementStudy:
    """Residual magnitudes per refinement level and observed convergence orders."""

    levels: tuple
    residuals: np.ndarray
    floor: float = 1e-13

    @property
    def orders(self):
        res = np.maximum(np.abs(self.residuals), 1e-300)
        return np.log2(res[:-1] / res[1:])

    @property
    def measured(self):
        """Mask of the orders whose two residuals both sit above the roundoff floor."""
        res = np.abs(self.residuals)
        return (res[:-1] > self.floor) & (res[1:] > self.floor)

    @property
    def converged(self) -> bool:
        """Orders >= 2 wherever the residual is meaningfully above roundoff."""
        res = np.abs(self.residuals)
        return bool(np.all(self.orders[self.measured] >= 2.0) and res[-1] <= max(self.floor, res[0]))


def linear_system_refinement(geom, params, phi, levels: int = 3,
                             base_cells=(2, 2, 2), order: int = 3) -> RefinementStudy:
    """The linear-system residual on ``levels`` grids, doubling every cell count per level."""
    grids = tuple(tuple(c * 2**k for c in base_cells) for k in range(levels))
    residuals = [weak_residual_linear_system(geom, params, phi, cells=cells, order=order) for cells in grids]
    return RefinementStudy(levels=grids, residuals=np.asarray(residuals))


def _require_away_from_band(geom, params, r, t, h):
    band = TurbulentRegion.of(geom, params)
    left, right = band.interval(t)
    near = (np.abs(r - left) < 2.0 * h) | (np.abs(r - right) < 2.0 * h)
    if np.any(near):
        raise ValueError("finite differences need all points at distance >= 2h from the band edges")
    if np.any((np.asarray(r) - h <= geom.rho) | (np.asarray(r) + h >= geom.R)):
        raise ValueError("finite-difference stencil leaves the annulus")
    if np.any(np.asarray(t) - h <= 0.0):
        raise ValueError("finite-difference stencil needs t - h > 0")


def radial_system_residual(geom: AnnulusGeometry, params: SubsolutionParams, r, t,
                           h: float = 1e-3):
    """Centered-difference residuals (res1, res2) of the two radial equations.

    res1 = D_r beta + (2/r) beta + D_r qbar and
    res2 = D_t alpha + D_r gamma + (2/r) gamma, all derivatives centered with
    step h.  Points closer than 2h to a band edge are rejected (the fields
    have kinks there).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    _require_away_from_band(geom, params, r, t, h)

    d_beta = (beta(r + h, t, geom, params) - beta(r - h, t, geom, params)) / (2.0 * h)
    d_qbar = (qbar(r + h, t, geom, params) - qbar(r - h, t, geom, params)) / (2.0 * h)
    res1 = d_beta + 2.0 * beta(r, t, geom, params) / r + d_qbar

    d_alpha_t = (alpha(r, t + h, geom, params) - alpha(r, t - h, geom, params)) / (2.0 * h)
    d_gamma = (gamma(r + h, t, geom, params) - gamma(r - h, t, geom, params)) / (2.0 * h)
    res2 = d_alpha_t + d_gamma + 2.0 * gamma(r, t, geom, params) / r
    return res1, res2


def sample_points_away_from_band(geom: AnnulusGeometry, params: SubsolutionParams,
                                 n_points: int, h: float, rng):
    """Random (r, t) samples in the three smooth regions, 4h clear of the band edges.

    Splits evenly between the inner branch, the outer branch, and the band
    interior; the second radial equation is identically zero outside the band,
    so interior samples are what make its convergence measurable.
    """
    n_each = n_points // 3
    t_lo, t_hi = 0.3 * geom.T, 0.9 * geom.T
    left_end = geom.r0 - params.lam * geom.T
    right_end = geom.r0 + params.lam * geom.T
    if min(left_end - geom.rho, geom.R - right_end) < 8 * h or params.lam * t_hi < 10 * h:
        raise ValueError(
            f"no room for points with step h={h}: the band must stay 8h clear of the "
            f"boundary and be wider than 10h at t={t_hi}"
        )
    r_inner = rng.uniform(geom.rho + 4 * h, left_end - 4 * h, n_each)
    t_inner = rng.uniform(t_lo, t_hi, n_each)
    r_outer = rng.uniform(right_end + 4 * h, geom.R - 4 * h, n_each)
    t_outer = rng.uniform(t_lo, t_hi, n_each)
    n_band = n_points - 2 * n_each
    t_band = rng.uniform(max(t_lo, 10 * h / params.lam), t_hi, n_band)
    half = params.lam * t_band - 4 * h
    r_band = geom.r0 + rng.uniform(-1.0, 1.0, n_band) * half
    return (
        np.concatenate([r_inner, r_outer, r_band]),
        np.concatenate([t_inner, t_outer, t_band]),
    )


def radial_system_residual_analytic(geom: AnnulusGeometry, params: SubsolutionParams, r, t):
    """Same residuals with all derivatives analytic; identically zero up to roundoff.

    d_r qbar = alpha d_r alpha + alpha^2 / r by construction of the pressure
    integral, so res1 cancels exactly; res2 cancels because f solves the
    conservation law.  Only meaningful away from the band edges.
    """
    r = np.asarray(r, dtype=float)
    a = alpha(r, t, geom, params)
    a_r, a_t = alpha_partials(r, t, geom, params)
    res1 = -a * a_r + 2.0 * beta(r, t, geom, params) / r + (a * a_r + a**2 / r)
    res2 = a_t + gamma_partial_r(r, t, geom, params) + 2.0 * gamma(r, t, geom, params) / r
    return res1, res2


def initial_energy(geom: AnnulusGeometry) -> float:
    """int_Omega |v(.,0)|^2 dx = pi (rho^-2 - R^-2)."""
    return math.pi * (geom.rho**-2 - geom.R**-2)


def energy_total(geom: AnnulusGeometry, params: SubsolutionParams, t: float,
                 r_cells: int = 8, order: int = 8) -> float:
    """int_Omega 2 ebar(., t) dx with radial panels pinned to the band edges."""
    band = TurbulentRegion.of(geom, params)
    edges = edges_with_breaks(geom.rho, geom.R, r_cells, band.interval(t))
    nodes, weights = panel_rule(edges, order)
    return TWO_PI * float(np.dot(weights, 2.0 * ebar(nodes, t, geom, params) * nodes))


def energy_series(geom: AnnulusGeometry, params: SubsolutionParams, times,
                  r_cells: int = 8, order: int = 8):
    return np.asarray([energy_total(geom, params, tv, r_cells, order) for tv in np.asarray(times)])


def energy_deficit(geom: AnnulusGeometry, params: SubsolutionParams, times):
    """Exact energy deficit E(0) - E(t) on the fan, one value per time.

    Outside the band ebar is the initial energy density, so with the fan
    substitution r = r0 + lam t u (f = u),

        D(t) = 2 pi epsilon lam t int_{-1}^{1} (1 - lam r^2)(1 - u^2) / r^3 du,

    a smooth integrand taken by a fixed Gauss rule.  D carries the factor
    epsilon lam t exactly, so it stays accurate (and increasing) when the
    deficit is far below the roundoff of E itself.
    """
    u, w = panel_rule([-1.0, 1.0], 32)
    width = params.lam * np.asarray(times, dtype=float)[:, None]
    r = geom.r0 + width * u
    integral = ((1.0 - params.lam * r**2) * (1.0 - u**2) / r**3) @ w
    return TWO_PI * params.epsilon * width[:, 0] * integral


@dataclass(frozen=True)
class AttainmentReport:
    """Decay of the distance between the evolving velocity and its initial datum."""

    times: np.ndarray
    l2_sq: np.ndarray
    pairing: np.ndarray
    l2_sq_order: float
    pairing_order: float


def initial_data_attainment(geom: AnnulusGeometry, params: SubsolutionParams,
                            times=None, order: int = 8, r_cells: int = 4) -> AttainmentReport:
    """Measure || vbar(., t) - v(., 0) ||_{L^2}^2 and a smooth pairing as t -> 0.

    The difference is supported on the band, whose measure is O(t); the
    squared norm therefore decays at first order, and pairings with smooth
    azimuthal fields decay at least that fast.  Log-log slopes over ``times``
    quantify both.
    """
    if times is None:
        times = geom.T * 0.5 ** np.arange(1, 6)
    times = np.asarray(times, dtype=float)
    band = TurbulentRegion.of(geom, params)
    pad = 0.15 * geom.width
    pairing_bump = BumpProfile(geom.rho + 0.2 * pad, geom.R - 0.2 * pad)

    l2_sq = np.empty_like(times)
    pairing = np.empty_like(times)
    for i, tv in enumerate(times):
        left, right = band.interval(tv)
        if not right > left:
            l2_sq[i] = 0.0
            pairing[i] = 0.0
            continue
        edges = edges_with_breaks(left, right, r_cells, (geom.r0,))
        nodes, weights = panel_rule(edges, order)
        diff = alpha(nodes, tv, geom, params) - alpha0(nodes, geom)
        l2_sq[i] = TWO_PI * float(np.dot(weights, diff**2 * nodes))
        # azimuthal pairing field b(r) (sin th, -cos th): the theta integral is 2 pi
        pairing[i] = TWO_PI * float(np.dot(weights, diff * pairing_bump.value(nodes) * nodes))
    positive = (times > 0) & (l2_sq > 0)
    l2_order = float(np.polyfit(np.log(times[positive]), np.log(l2_sq[positive]), 1)[0])
    positive_pairing = (times > 0) & (np.abs(pairing) > 0)
    pairing_order = float(
        np.polyfit(np.log(times[positive_pairing]), np.log(np.abs(pairing[positive_pairing])), 1)[0]
    )
    return AttainmentReport(
        times=times, l2_sq=l2_sq, pairing=pairing,
        l2_sq_order=l2_order, pairing_order=pairing_order,
    )
