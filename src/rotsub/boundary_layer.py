"""Boundary-collar cutoff fields and the decay of the four advection integrals.

A tangential field w = perp-grad(psi) (with psi = 0 on both boundary circles)
is truncated near the boundary by

    w_eps = perp-grad( chi(d/eps) * psi ),    d = dist(., boundary),

with chi a smooth ramp that is 0 on [0, 1] and 1 on [2, inf).  Then w_eps = 0
on the inner collar {d < eps} and w_eps = w outside {d < 2 eps}.  Against a
velocity whose normal component decays like d^a near the boundary, the
advection error splits into four collar integrals

    I1 = int v_nu  dnu(w_eps - w)_nu  v_nu      ~ eps^(2a+1)
    I2 = int v_nu  dnu(w_eps - w)_tau v_tau     ~ eps^a
    I3 = int v_tau dtau(w_eps - w)_nu  v_nu     ~ eps^(a+1)
    I4 = int v_tau dtau(w_eps - w)_tau v_tau    ~ eps^1

whose measured decay rates are checked against those exponents (as lower
bounds; the integrals may decay faster).

Conventions used throughout: perp-grad(g) = (g_y, -g_x); nu is the inner unit
normal of the nearest boundary circle, tau = (-nu_y, nu_x); sign = +1 on the
inner collar and -1 on the outer one, so that nu = sign * e_r and
tau = sign * e_theta.  The derivative factors are exact directional
derivatives of the frame components of w_eps - w (including the terms coming
from the rotating frame), so the four-term split reproduces the direct
quadrature of (v . grad(w_eps - w)) . v identically.  That direct quadrature
rotates the same frame tensor into a Cartesian gradient, so the
``decomposition_error`` it yields checks the frame bookkeeping (the split and
the signs of nu and tau), not the tensor itself; the tensor is checked against
finite differences of ``CutoffField.diff_value`` in the test suite
(``test_frame_tensor_matches_fd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AnnulusGeometry, boundary_distance, cartesian_to_polar, polar_vector
from .quadrature import panel_rule

TWO_PI = 2.0 * math.pi


class SmoothstepCutoff:
    """Quintic smoothstep ramp: 0 on [0, 1], 6u^5 - 15u^4 + 10u^3 on [1, 2], 1 after.

    Twice continuously differentiable with flat endpoints; value and the first
    two derivatives come in closed form.
    """

    lower = 1.0
    upper = 2.0

    def value(self, s):
        u = np.clip(np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
        return u**3 * (10.0 + u * (-15.0 + 6.0 * u))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        u = s - 1.0
        ramp = (s > 1.0) & (s < 2.0)
        return np.where(ramp, 30.0 * u**2 * (u - 1.0) ** 2, 0.0)

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        u = s - 1.0
        ramp = (s > 1.0) & (s < 2.0)
        return np.where(ramp, 60.0 * u * (2.0 * u - 1.0) * (u - 1.0), 0.0)


class SineStreamField:
    """Stream function S(r) * (1 + amp * cos theta) vanishing on both circles.

    The radial profile is S = sin(pi u) (1 + boost * sin(pi u)) with
    u = (r - rho)/(R - rho).  The boost term (still vanishing linearly at both
    ends, so |psi| <= C d holds) gives |S'| a strict interior increase away
    from either boundary; with a plain sine the L^2 cutoff error fits
    fractionally below its asymptotic half-order rate on coarse grids.
    Partial derivatives up to second order are analytic.  Time enters only
    through an optional amplitude factor (constant one by default), so the
    linear bound holds with one constant for all times.
    """

    def __init__(self, geom: AnnulusGeometry, theta_amp: float = 0.5,
                 radial_boost: float = 0.25, amplitude: float = 1.0, time_factor=None):
        self.geom = geom
        self.theta_amp = float(theta_amp)
        self.radial_boost = float(radial_boost)
        self.amplitude = float(amplitude)
        self._k = math.pi / geom.width
        self._time_factor = time_factor

    def _m(self, t):
        if self._time_factor is None:
            return self.amplitude * np.ones_like(np.asarray(t, dtype=float))
        return self.amplitude * np.asarray(self._time_factor(t), dtype=float)

    def _angular(self, th):
        th = np.asarray(th, dtype=float)
        a = self.theta_amp
        return 1.0 + a * np.cos(th), -a * np.sin(th), -a * np.cos(th)

    def partials(self, r, th, t=0.0):
        """(psi, psi_r, psi_th, psi_rr, psi_rth, psi_thth) at (r, theta, t)."""
        r = np.asarray(r, dtype=float)
        k = self._k
        c = self.radial_boost
        u = k * (r - self.geom.rho)
        s_r, c_r = np.sin(u), np.cos(u)
        S = s_r * (1.0 + c * s_r)
        S1 = k * c_r * (1.0 + 2.0 * c * s_r)
        S2 = -(k**2) * s_r + 2.0 * c * k**2 * (c_r**2 - s_r**2)
        f, f1, f2 = self._angular(th)
        m = self._m(t)
        return (S * f * m, S1 * f * m, S * f1 * m, S2 * f * m, S1 * f1 * m, S * f2 * m)

    def w_polar(self, r, th, t=0.0):
        """Polar components (w_r, w_theta) of perp-grad(psi)."""
        _, p_r, p_th, _, _, _ = self.partials(r, th, t)
        return p_th / np.asarray(r, dtype=float), -p_r

    def w_vector(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        r, th = cartesian_to_polar(x)
        return polar_vector(*self.w_polar(r, th, t), th)


class HolderVelocity:
    """Synthetic collar velocity: v_nu = d^a * g(theta), v_tau bounded.

    Only the frame components enter the collar integrals.  The normal bound
    |v_nu| <= C d^a holds with C = sup|g|.
    """

    def __init__(self, geom: AnnulusGeometry, holder_alpha: float,
                 normal_amp: float = 0.5, normal_scale: float = 1.0,
                 tangential_amps=(0.5, -0.3)):
        if not 0.0 < holder_alpha <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {holder_alpha}")
        self.geom = geom
        self.holder_alpha = float(holder_alpha)
        self.normal_amp = float(normal_amp)
        self.normal_scale = float(normal_scale)
        self.tangential_amps = tuple(map(float, tangential_amps))

    def normal_component(self, d, th):
        d = np.asarray(d, dtype=float)
        return self.normal_scale * d**self.holder_alpha * (1.0 + self.normal_amp * np.sin(th))

    def tangential_component(self, d, th):
        th = np.asarray(th, dtype=float)
        a_sin, a_cos = self.tangential_amps
        return np.ones_like(np.asarray(d, dtype=float)) * (
            1.0 + a_sin * np.sin(th) + a_cos * np.cos(th)
        )


class CutoffField:
    """The truncated field w_eps = perp-grad(chi(d/eps) psi) and its distance to w."""

    def __init__(self, psi: SineStreamField, chi: SmoothstepCutoff, eps: float,
                 geom: AnnulusGeometry):
        if not eps > 0:
            raise ValueError(f"cutoff width must be positive, got {eps}")
        if 2.0 * eps >= 0.5 * geom.width:
            raise ValueError(
                f"cutoff width eps={eps} too large: the two collars of width 2*eps must stay disjoint"
            )
        self.psi = psi
        self.chi = chi
        self.eps = float(eps)
        self.geom = geom

    def _polar_components(self, r, th, sign, d, t):
        """(W_r, W_theta) of w_eps - w from the product rule."""
        p, p_r, p_th, _, _, _ = self.psi.partials(r, th, t)
        s = d / self.eps
        chi_m1 = self.chi.value(s) - 1.0
        chi_p = self.chi.deriv(s) / self.eps
        return chi_m1 * p_th / r, -chi_m1 * p_r - sign * chi_p * p

    def value(self, x, t=0.0):
        """w_eps as a Cartesian field on the whole annulus."""
        return self.psi.w_vector(x, t) + self.diff_value(x, t)

    def diff_value(self, x, t=0.0):
        """w_eps - w as a Cartesian field (zero outside the 2*eps collars)."""
        x = np.asarray(x, dtype=float)
        r, th = cartesian_to_polar(x)
        frame = boundary_distance(x, self.geom)
        return polar_vector(*self._polar_components(r, th, frame.sign, frame.distance, t), th)

    def diff_frame(self, d, th, sign, t=0.0):
        """Frame components (A, B) = ((w_eps - w)_nu, (w_eps - w)_tau).

        A = (chi - 1) w_nu and B = (chi - 1) w_tau - (chi'/eps) psi; these are
        the scalar fields whose directional derivatives drive the estimates.
        """
        r = self._radius(d, sign)
        diff_r, diff_th = self._polar_components(r, th, sign, np.asarray(d, dtype=float), t)
        return sign * diff_r, sign * diff_th

    def _radius(self, d, sign):
        d = np.asarray(d, dtype=float)
        return np.where(np.asarray(sign) > 0, self.geom.rho + d, self.geom.R - d)

    def frame_tensor(self, d, th, sign, t=0.0):
        """Exact directional derivatives (T_nn, T_nt, T_tn, T_tt).

        T_ab = ((a . grad)(w_eps - w)) . b for a, b in {nu, tau}; closed forms
        in the stream function's partials.  These are sign-independent in
        polar data because nu = sign e_r and tau = sign e_theta flip together.
        """
        d = np.asarray(d, dtype=float)
        r = self._radius(d, sign)
        p, p_r, p_th, p_rr, p_rth, p_thth = self.psi.partials(r, th, t)
        s = d / self.eps
        chi_m1 = self.chi.value(s) - 1.0
        chi_p = self.chi.deriv(s) / self.eps
        chi_pp = self.chi.deriv2(s) / self.eps**2
        w_r = p_th / r
        w_th = -p_r
        diff_r = chi_m1 * w_r
        diff_th = chi_m1 * w_th - sign * chi_p * p

        d_r_diff_r = sign * chi_p * w_r + chi_m1 * (p_rth / r - p_th / r**2)
        d_r_diff_th = -chi_m1 * p_rr - chi_pp * p - 2.0 * sign * chi_p * p_r
        d_th_diff_r = chi_m1 * p_thth / r
        d_th_diff_th = -chi_m1 * p_rth - sign * chi_p * p_th

        t_nn = d_r_diff_r
        t_nt = d_r_diff_th
        t_tn = d_th_diff_r / r - diff_th / r
        t_tt = d_th_diff_th / r + diff_r / r
        return t_nn, t_nt, t_tn, t_tt


def _collar_nodes(geom: AnnulusGeometry, eps: float, sign: float,
                  order: int = 12, theta_panels: int = 8):
    """Quadrature on one collar {0 < d < 2 eps}: weights include the Jacobian r.

    The radial panels are graded toward d = 0 (the synthetic velocity has a
    d^a factor there) and pinned to d = eps where the ramp switches on.
    """
    d_edges = eps * np.array([0.0, 1.0 / 16.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    dn, dw = panel_rule(d_edges, order)
    th_edges = np.linspace(0.0, TWO_PI, theta_panels + 1)
    thn, thw = panel_rule(th_edges, order)
    D, TH = np.meshgrid(dn, thn, indexing="ij")
    r = geom.rho + D if sign > 0 else geom.R - D
    return D, TH, np.outer(dw, thw) * r


def collar_integrals(v: HolderVelocity, psi: SineStreamField, chi: SmoothstepCutoff,
                     eps: float, geom: AnnulusGeometry, t: float = 0.0):
    """The four collar integrals and their direct counterpart at one cutoff width.

    Returns ``(I1, I2, I3, I4, direct)``, where ``direct`` is the quadrature of
    (v . grad(w_eps - w)) . v on the same nodes; the split is consistent when
    I1 + I2 + I3 + I4 equals it.
    """
    field = CutoffField(psi, chi, eps, geom)
    i1 = i2 = i3 = i4 = direct = 0.0
    for sign in (1.0, -1.0):
        D, TH, W = _collar_nodes(geom, field.eps, sign)
        v_nu = v.normal_component(D, TH)
        v_tau = v.tangential_component(D, TH)
        t_nn, t_nt, t_tn, t_tt = field.frame_tensor(D, TH, sign, t)
        i1 += float(np.sum(W * v_nu * t_nn * v_nu))
        i2 += float(np.sum(W * v_nu * t_nt * v_tau))
        i3 += float(np.sum(W * v_tau * t_tn * v_nu))
        i4 += float(np.sum(W * v_tau * t_tt * v_tau))

        # direct route: rotate the same tensor into the Cartesian gradient of
        # (w_eps - w) and contract it with the Cartesian velocity.  This checks
        # the frame bookkeeping of the split; the tensor itself is checked
        # against finite differences in test_frame_tensor_matches_fd.
        c, sn = np.cos(TH), np.sin(TH)
        e_r = np.stack([c, sn], axis=-1)
        e_th = np.stack([-sn, c], axis=-1)
        grad = (
            t_nn[..., None, None] * e_r[..., :, None] * e_r[..., None, :]
            + t_tn[..., None, None] * e_r[..., :, None] * e_th[..., None, :]
            + t_nt[..., None, None] * e_th[..., :, None] * e_r[..., None, :]
            + t_tt[..., None, None] * e_th[..., :, None] * e_th[..., None, :]
        )
        v_cart = sign * (v_nu[..., None] * e_r + v_tau[..., None] * e_th)
        contraction = np.einsum("...i,...ij,...j->...", v_cart, grad, v_cart)
        direct += float(np.sum(W * contraction))
    return i1, i2, i3, i4, direct


def w_eps_l2_distance(psi: SineStreamField, chi: SmoothstepCutoff, eps: float,
                      geom: AnnulusGeometry, t: float = 0.0) -> float:
    """|| w_eps - w ||_{L^2(Omega)} (the difference vanishes outside the collars)."""
    field = CutoffField(psi, chi, eps, geom)
    l2_sq = 0.0
    for sign in (1.0, -1.0):
        D, TH, W = _collar_nodes(geom, field.eps, sign)
        diff_nu, diff_tau = field.diff_frame(D, TH, sign, t)
        l2_sq += float(np.sum(W * (diff_nu**2 + diff_tau**2)))
    return math.sqrt(l2_sq)


@dataclass(frozen=True)
class ScalingReport:
    """Measured decay of the collar integrals against the predicted exponents."""

    eps: np.ndarray
    I_values: np.ndarray  # shape (n_eps, 4)
    slopes: tuple  # fitted log-log slopes, None where the integral is identically ~0
    predicted: tuple  # (2a+1, a, a+1, 1)
    vacuous: tuple  # True where fewer than two |I_k| exceed scaling_study's zero_floor
    consistency: np.ndarray  # |sum I_k - direct| per eps
    l2_distances: np.ndarray
    l2_slope: float

    def slopes_meet_bounds(self, tolerance: float = 0.15) -> bool:
        for slope, target, vac in zip(self.slopes, self.predicted, self.vacuous):
            if vac:
                continue
            if slope < target - tolerance:
                return False
        return True


def scaling_study(v: HolderVelocity, psi: SineStreamField, chi: SmoothstepCutoff,
                  eps_grid, geom: AnnulusGeometry, t: float = 0.0,
                  zero_floor: float = 1e-14) -> ScalingReport:
    """Fit the decay rate of each collar integral over a decreasing eps grid.

    Needs at least four cutoff widths, strictly decreasing, all small enough
    for the two collars to stay disjoint.  Integrals below ``zero_floor``
    everywhere are flagged vacuous (their upper bound holds trivially).
    """
    eps_arr = np.asarray(eps_grid, dtype=float)
    if eps_arr.size < 4 or np.any(np.diff(eps_arr) >= 0) or np.any(eps_arr <= 0):
        raise ValueError("need >= 4 strictly decreasing positive cutoff widths")
    values = np.empty((eps_arr.size, 4))
    consistency = np.empty(eps_arr.size)
    l2 = np.empty(eps_arr.size)
    for i, eps in enumerate(eps_arr):
        *values[i], direct = collar_integrals(v, psi, chi, float(eps), geom, t)
        consistency[i] = abs(values[i].sum() - direct)
        l2[i] = w_eps_l2_distance(psi, chi, float(eps), geom, t)

    log_eps = np.log(eps_arr)
    slopes = []
    vacuous = []
    for k in range(4):
        magnitudes = np.abs(values[:, k])
        usable = magnitudes > zero_floor
        if np.count_nonzero(usable) < 2:
            slopes.append(None)
            vacuous.append(True)
        else:
            slopes.append(float(np.polyfit(log_eps[usable], np.log(magnitudes[usable]), 1)[0]))
            vacuous.append(False)
    a = v.holder_alpha
    l2_slope = float(np.polyfit(log_eps, np.log(l2), 1)[0])
    return ScalingReport(
        eps=eps_arr,
        I_values=values,
        slopes=tuple(slopes),
        predicted=(2.0 * a + 1.0, a, a + 1.0, 1.0),
        vacuous=tuple(vacuous),
        consistency=consistency,
        l2_distances=l2,
        l2_slope=l2_slope,
    )
