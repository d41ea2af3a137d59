"""Weak-form residuals, energy accounting, and the reduced radial system.

The constructed fields satisfy, for every smooth vector field phi compactly
supported in the open space-time cylinder,

    int int [ vbar . d_t phi + ubar : grad phi + qbar div phi ] dx dt = 0,

together with div vbar = 0 at every time.  Both statements are verified here by
quadrature against an analytic library of compactly supported test fields.
The nodes are polar, and every test field is evaluated at them as they are:
its methods take (r, theta, t) and return Cartesian components, turned so by
``geometry.polar_vector`` and ``geometry.polar_jacobian``.
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

from .burgers import fan_interval, fan_span
from .geometry import AnnulusGeometry, SubsolutionParams, polar_jacobian, polar_vector
from .quadrature import _leggauss, annulus_rule, edges_with_breaks, panel_rule, spacetime_rule
from .subsolution import alpha, alpha0, azimuthal, beta, ebar, gamma, qbar, ubar_entries

TWO_PI = 2.0 * math.pi
# exponent p of the polynomial bump (1 - u^2)^p; the fields need two derivatives
BUMP_POWER = 5
# residuals at or below this are roundoff: an order between them measures nothing
ROUNDOFF_FLOOR = 1e-13
# times whose energy rules are built and evaluated together
ENERGY_BATCH = 256


class SupportError(ValueError):
    """Raised when a test field's support is not strictly inside the domain."""


class BumpProfile:
    """Polynomial bump on (a, b): (1 - u^2)^BUMP_POWER with u the affine map to (-1, 1).

    Compactly supported, C^(BUMP_POWER-1) across the edges, with closed-form
    first and second derivatives.  Polynomial profiles keep high-order
    derivatives tame, so composite Gauss rules converge at their nominal rate
    from coarse panels on (an essential-singularity bump would not).
    """

    def __init__(self, a: float, b: float):
        if not b > a:
            raise ValueError(f"need a < b, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)

    def _uw(self, s):
        """The affine coordinate u and the base 1 - u^2 (zero outside (a, b))."""
        u = (2.0 * np.asarray(s, dtype=float) - self.a - self.b) / (self.b - self.a)
        return u, np.where(u**2 < 1.0, 1.0 - u**2, 0.0)

    def value(self, s):
        return self._uw(s)[1] ** BUMP_POWER

    def deriv(self, s):
        u, w = self._uw(s)
        p = BUMP_POWER
        du = 2.0 / (self.b - self.a)
        return -2.0 * p * u * w ** (p - 1) * du

    def deriv2(self, s):
        u, w = self._uw(s)
        p = BUMP_POWER
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
    """Scalar field b_r(r) * F(theta) * b_t(t) at polar nodes; all derivatives analytic.

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

    def time_factor(self, t):
        """(b_t, d b_t/dt); one and zero without a time bump."""
        t = np.asarray(t, dtype=float)
        if self._bt is None:
            return np.ones_like(t), np.zeros_like(t)
        return self._bt.value(t), self._bt.deriv(t)

    def value(self, r, th, t=0.0):
        return self._br.value(r) * self._fourier.value(th) * self.time_factor(t)[0]

    def polar_partials(self, r, th):
        """(p, p_r, p_th, p_rr, p_rth, p_thth) of the spatial factor."""
        b = self._br.value(r)
        b1 = self._br.deriv(r)
        b2 = self._br.deriv2(r)
        f = self._fourier.value(th)
        f1 = self._fourier.deriv(th)
        f2 = self._fourier.deriv2(th)
        return b * f, b1 * f, b * f1, b2 * f, b1 * f1, b * f2

    def gradient(self, r, th, t=0.0):
        _, p_r, p_th, _, _, _ = self.polar_partials(r, th)
        bt = self.time_factor(t)[0]
        return polar_vector(p_r * bt, p_th / r * bt, th)


class VectorBumpField:
    """Vector test field with Cartesian components b_r(r) * F_i(theta) * b_t(t)
    at polar nodes."""

    def __init__(self, geom: AnnulusGeometry, r_support, fourier_x: FourierPoly,
                 fourier_y: FourierPoly, t_support):
        self.r_support = tuple(map(float, r_support))
        self.t_support = tuple(map(float, t_support))
        _check_support(geom, self.r_support, self.t_support)
        self._br = BumpProfile(*self.r_support)
        self._bt = BumpProfile(*self.t_support)
        self._fx = fourier_x
        self._fy = fourier_y

    def value(self, r, th, t):
        amp = self._br.value(r) * self._bt.value(t)
        return np.stack([amp * self._fx.value(th), amp * self._fy.value(th)], axis=-1)

    def time_deriv(self, r, th, t):
        amp = self._br.value(r) * self._bt.deriv(t)
        return np.stack([amp * self._fx.value(th), amp * self._fy.value(th)], axis=-1)

    def gradient(self, r, th, t):
        """(..., 2, 2) array G with G[i, j] = d phi_i / d x_j."""
        bt = self._bt.value(t)
        b = self._br.value(r)
        b1 = self._br.deriv(r)
        rows = [
            polar_vector(b1 * fourier.value(th) * bt, b * fourier.deriv(th) / r * bt, th)
            for fourier in (self._fx, self._fy)
        ]
        return np.stack(rows, axis=-2)


class PerpGradientField:
    """Divergence-free vector field (psi_y, -psi_x) from a scalar bump psi, at
    polar nodes: w = (psi_th / r) e_r - psi_r e_theta."""

    def __init__(self, psi: ScalarBumpField):
        if psi.t_support is None:
            raise ValueError("perp-gradient test fields need a time bump")
        self.psi = psi
        self.r_support = psi.r_support
        self.t_support = psi.t_support

    def _field(self, r, th, time_factor):
        _, p_r, p_th, _, _, _ = self.psi.polar_partials(r, th)
        return polar_vector(p_th / r * time_factor, -p_r * time_factor, th)

    def value(self, r, th, t):
        return self._field(r, th, self.psi.time_factor(t)[0])

    def time_deriv(self, r, th, t):
        # psi = S(r, theta) b_t(t): swap the time factor for its derivative
        return self._field(r, th, self.psi.time_factor(t)[1])

    def gradient(self, r, th, t):
        """(..., 2, 2) array G with G[i, j] = d w_i / d x_j."""
        return polar_jacobian(*self._frame_derivatives(r, th, self.psi.time_factor(t)[0]), th)

    def _frame_derivatives(self, r, th, time_factor):
        """t_ab = e_a . ((e_b . grad) w): d_r w_r, (d_th w_r - w_th) / r, d_r w_th and
        (d_th w_th + w_r) / r, with psi's partials freed before the Jacobian is built."""
        _, p_r, p_th, p_rr, p_rth, p_thth = self.psi.polar_partials(r, th)
        return ((p_rth - p_th / r) / r * time_factor, (p_thth / r + p_r) / r * time_factor,
                -p_rr * time_factor, (p_th / r - p_rth) / r * time_factor)


def default_test_fields(geom: AnnulusGeometry, params: SubsolutionParams):
    """Five analytic test fields covering the interesting support layouts.

    Two avoid the mixing band entirely (inner and outer stationary branches),
    two cross it (one generic, one divergence-free), and one has no angular
    dependence at all.
    """
    left_end, right_end = fan_interval(geom.T, geom, params.lam)
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


def weak_residual_linear_system(geom: AnnulusGeometry, params: SubsolutionParams, phi,
                                cells=(4, 4, 4), order: int = 8) -> float:
    """Quadrature of vbar . d_t phi + ubar : grad phi + qbar div phi over phi's support.

    Vanishes (to quadrature accuracy) for the constructed fields, since all
    derivatives have been moved onto the compactly supported test field.  The
    radial panels are pinned to the band edges at every time node, and the
    time panels to the times at which those edges cross the support.
    """
    (ra, rb), (ta, tb) = phi.r_support, phi.t_support
    # a band edge reaches a support radius when lam t = |radius - r0|
    crossings = ([abs(radius - geom.r0) / params.lam for radius in (ra, rb)]
                 if params.lam > 0 else [])
    quad = spacetime_rule((ta, tb), (ra, rb), lambda tv: fan_interval(tv, geom, params.lam),
                          cells=cells, order=order, t_breaks=crossings)
    r, th, t = quad.r, quad.theta, quad.t
    # this order of evaluation holds the fewest node arrays at once
    q = qbar(r, t, geom, params)
    phi_t = phi.time_deriv(r, th, t)
    grad = phi.gradient(r, th, t)
    v = azimuthal(alpha(r, t, geom, params), th)
    u11, u12 = ubar_entries(r, th, t, geom, params)
    contraction = u11 * (grad[..., 0, 0] - grad[..., 1, 1]) + u12 * (
        grad[..., 0, 1] + grad[..., 1, 0]
    )
    div = grad[..., 0, 0] + grad[..., 1, 1]
    integrand = v[..., 0] * phi_t[..., 0] + v[..., 1] * phi_t[..., 1] + contraction + q * div
    return quad.integrate(integrand)


def weak_residual_divergence(velocity, p, geom: AnnulusGeometry, t: float = 0.0,
                             cells=(8, 8), order: int = 8) -> float:
    """Quadrature of velocity . grad p over p's support at a fixed time.

    ``velocity(r, theta, t)`` returns Cartesian (..., 2) vectors at polar
    nodes.  Zero (to quadrature accuracy) for any divergence-free velocity
    tangent to the boundary -- in particular for every azimuthal field.
    """
    quad = annulus_rule(geom, r_cells=cells[0], theta_cells=cells[1], order=order,
                        r_span=p.r_support)
    v = velocity(quad.r, quad.theta, t)
    g = p.gradient(quad.r, quad.theta, t)
    return quad.integrate(v[..., 0] * g[..., 0] + v[..., 1] * g[..., 1])


def refinement_orders(residuals) -> dict:
    """Observed orders log2(|res_k| / |res_k+1|) between successive refinement
    levels, whether each is ``measured`` (both residuals above the roundoff
    floor), and the verdict ``converged``: order >= 2 wherever measured, and the
    last residual no larger than the first or at the floor."""
    res = np.abs(np.asarray(residuals, dtype=float))
    floored = np.maximum(res, 1e-300)
    orders = np.log2(floored[:-1] / floored[1:])
    measured = (res[:-1] > ROUNDOFF_FLOOR) & (res[1:] > ROUNDOFF_FLOOR)
    converged = bool(np.all(orders[measured] >= 2.0) and res[-1] <= max(ROUNDOFF_FLOOR, res[0]))
    return {"orders": orders.tolist(), "measured": measured.tolist(), "converged": converged}


def linear_system_refinement(geom, params, phi, levels: int = 3, order: int = 3) -> dict:
    """The linear-system ``residuals`` on ``levels`` grids of 2, 4, 8, ... cells
    per axis, with their ``refinement_orders``."""
    residuals = [
        weak_residual_linear_system(geom, params, phi, cells=(2 * 2**k,) * 3, order=order)
        for k in range(levels)
    ]
    return {"residuals": residuals, **refinement_orders(residuals)}


def _require_away_from_band(geom, params, r, t, h):
    left, right = fan_interval(t, geom, params.lam)
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
    left_end, right_end = fan_interval(geom.T, geom, params.lam)
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


def initial_energy(geom: AnnulusGeometry) -> float:
    """int_Omega |v(.,0)|^2 dx = pi (rho^-2 - R^-2)."""
    return math.pi * (geom.rho**-2 - geom.R**-2)


def energy_series(geom: AnnulusGeometry, params: SubsolutionParams, times):
    """E(t) = int_Omega 2 ebar(., t) dx at each time, by the 8-point rule on
    ``edges_with_breaks(rho, R, 8, fan_interval(t))``: eight radial panels
    pinned to the band edges.

    The rules are built for all times at once.  Each time's knots are rho, the
    band edges strictly inside the annulus and R; an edge outside, or one equal
    to the other, is clipped onto its neighbour and leaves a gap of no panels.
    Times with the same panel counts form one group, whose edges come from
    ``np.linspace`` on array endpoints (the same bits as the per-time scalar
    calls) and whose ``ebar`` is one call on a (times, nodes) array.  Each
    energy is one ``np.dot`` over its own row, so it keeps the per-time bits.
    """
    times = np.asarray(times, dtype=float)
    a, b, cells = geom.rho, geom.R, 8
    low, high = fan_interval(times, geom, params.lam)
    knots = np.stack([np.full_like(times, a), np.clip(np.minimum(low, high), a, b),
                      np.clip(np.maximum(low, high), a, b), np.full_like(times, b)], axis=-1)
    gaps = np.diff(knots)
    counts = np.where(gaps > 0, np.maximum(1, np.rint(cells * gaps / (b - a))), 0).astype(int)
    energies = np.empty(times.shape)
    for layout in np.unique(counts, axis=0):
        group = np.flatnonzero(np.all(counts == layout, axis=-1))
        # at most ENERGY_BATCH times at once bound the memory of the node arrays
        for rows in np.split(group, range(ENERGY_BATCH, group.size, ENERGY_BATCH)):
            edges = [knots[rows, :1]] + [
                np.linspace(knots[rows, j], knots[rows, j + 1], n + 1, axis=-1)[:, 1:]
                for j, n in enumerate(layout) if n
            ]
            nodes, weights = panel_rule(np.concatenate(edges, axis=-1), 8)
            values = 2.0 * ebar(nodes, times[rows, None], geom, params) * nodes
            energies[rows] = [TWO_PI * float(np.dot(w, v)) for w, v in zip(weights, values)]
    return energies


def energy_deficit(geom: AnnulusGeometry, params: SubsolutionParams, times):
    """Exact energy deficit E(0) - E(t) over the annulus, one value per time.

    Outside the band ebar is the initial energy density, so with the fan
    substitution r = r0 + lam t u (f = u),

        D(t) = 2 pi epsilon lam t int (1 - lam r^2)(1 - u^2) / r^3 du

    over ``fan_span``: u from -1 to 1 while the fan is inside the annulus, cut
    where a wall cuts it, and no u at all for lam < 0.  The integrand is
    smooth, taken by a fixed 32-point Gauss rule.  D carries the factor
    epsilon lam t exactly, so it stays accurate (and increasing) when the
    deficit is far below the roundoff of E itself.
    """
    times = np.asarray(times, dtype=float)
    xi, wi = _leggauss(32)
    low, high = fan_span(times, geom, params.lam)
    mid = 0.5 * (high + low)[:, None]
    half = 0.5 * np.maximum(high - low, 0.0)
    width = params.lam * times[:, None]
    u = mid + half[:, None] * xi
    r = geom.r0 + width * u
    integral = half * (((1.0 - params.lam * r**2) * (1.0 - u**2) / r**3) @ wi)
    return TWO_PI * params.epsilon * width[:, 0] * integral


def initial_data_attainment(geom: AnnulusGeometry, params: SubsolutionParams,
                            times=None) -> dict:
    """Measure || vbar(., t) - v(., 0) ||_{L^2}^2 and a smooth pairing as t -> 0.

    The difference is supported on the band, whose measure is O(t); the
    squared norm therefore decays at first order, and pairings with smooth
    azimuthal fields decay at least that fast.  Returns both per time
    (``l2_sq``, ``pairing``) with their log-log slopes over ``times``
    (``l2_sq_order``, ``pairing_order``; None where fewer than two times
    carry a nonzero value).  The band takes four 8-point panels pinned to r0.
    """
    if times is None:
        times = geom.T * 0.5 ** np.arange(1, 6)
    times = np.asarray(times, dtype=float)
    pad = 0.15 * geom.width
    pairing_bump = BumpProfile(geom.rho + 0.2 * pad, geom.R - 0.2 * pad)

    l2_sq = np.empty_like(times)
    pairing = np.empty_like(times)
    for i, tv in enumerate(times):
        left, right = fan_interval(tv, geom, params.lam)
        if not right > left:
            l2_sq[i] = 0.0
            pairing[i] = 0.0
            continue
        edges = edges_with_breaks(left, right, 4, (geom.r0,))
        nodes, weights = panel_rule(edges, 8)
        diff = alpha(nodes, tv, geom, params) - alpha0(nodes, geom)
        l2_sq[i] = TWO_PI * float(np.dot(weights, diff**2 * nodes))
        # azimuthal pairing field b(r) (sin th, -cos th): the theta integral is 2 pi
        pairing[i] = TWO_PI * float(np.dot(weights, diff * pairing_bump.value(nodes) * nodes))
    return {
        "times": times.tolist(), "l2_sq": l2_sq.tolist(), "pairing": pairing.tolist(),
        "l2_sq_order": _decay_order(times, l2_sq), "pairing_order": _decay_order(times, pairing),
    }


def _decay_order(times, values):
    """Log-log slope of ``|values|`` over the positive times where it is
    nonzero; None below two such times, as for lam <= 0, which opens no band."""
    keep = (times > 0) & (np.abs(values) > 0)
    if np.count_nonzero(keep) < 2:
        return None
    return float(np.polyfit(np.log(times[keep]), np.log(np.abs(values[keep])), 1)[0])
