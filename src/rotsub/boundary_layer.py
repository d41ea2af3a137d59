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
bounds; the integrals may decay faster), together with the cutoff distance
||w_eps - w||_{L^2}.  Everything is taken at one instant: the fields do not
depend on time, and a time-dependent amplitude of psi would scale every
integral and the distance by the same factor, leaving every slope unchanged.

Conventions used throughout: perp-grad(g) = (g_y, -g_x); nu is the inner unit
normal of the nearest boundary circle, tau = (-nu_y, nu_x); sign = +1 on the
inner collar and -1 on the outer one, so that nu = sign * e_r and
tau = sign * e_theta.  The derivative factors are exact directional
derivatives of the frame components of w_eps - w (including the terms coming
from the rotating frame), so the four-term split reproduces the direct
quadrature of (v . grad(w_eps - w)) . v identically.  That direct quadrature
calls ``geometry.polar_jacobian`` to turn the same frame tensor into a
Cartesian gradient, so the ``decomposition_error`` it yields checks the frame
bookkeeping (the split and the signs of nu and tau), not the tensor itself;
the tensor is checked against finite differences of ``CutoffField.diff_value``
in the test suite (``test_frame_tensor_matches_fd``).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    AnnulusGeometry,
    boundary_distance,
    cartesian_to_polar,
    polar_jacobian,
    polar_vector,
)
from .quadrature import panel_rule

TWO_PI = 2.0 * math.pi

# integrals with |I_k| at or below this at all but one eps carry no slope
ZERO_FLOOR = 1e-14
# how far a fitted slope may fall below its predicted exponent
SLOPE_TOLERANCE = 0.15
# largest |I1 + I2 + I3 + I4 - direct| of a consistent split
DECOMPOSITION_TOL = 1e-8


class SmoothstepCutoff:
    """Quintic smoothstep ramp: 0 on [0, 1], 6u^5 - 15u^4 + 10u^3 on [1, 2], 1 after.

    Twice continuously differentiable with flat endpoints; value and the first
    two derivatives come in closed form.
    """

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
    """Stream function S(r) * (1 + cos(theta)/2) vanishing on both circles.

    The radial profile is S = sin(pi u) (1 + sin(pi u)/4) with
    u = (r - rho)/(R - rho).  The boost term (still vanishing linearly at both
    ends, so |psi| <= C d holds) gives |S'| a strict interior increase away
    from either boundary; with a plain sine the L^2 cutoff error fits
    fractionally below its asymptotic half-order rate on coarse grids.
    Partial derivatives up to second order are analytic.  The field does not
    depend on time.
    """

    def __init__(self, geom: AnnulusGeometry):
        self.geom = geom
        self._k = math.pi / geom.width

    def partials(self, r, th):
        """(psi, psi_r, psi_th, psi_rr, psi_rth, psi_thth) at (r, theta)."""
        r = np.asarray(r, dtype=float)
        th = np.asarray(th, dtype=float)
        k = self._k
        u = k * (r - self.geom.rho)
        s_r, c_r = np.sin(u), np.cos(u)
        S = s_r * (1.0 + 0.25 * s_r)
        S1 = k * c_r * (1.0 + 0.5 * s_r)
        S2 = -(k**2) * s_r + 0.5 * k**2 * (c_r**2 - s_r**2)
        f, f1, f2 = 1.0 + 0.5 * np.cos(th), -0.5 * np.sin(th), -0.5 * np.cos(th)
        return S * f, S1 * f, S * f1, S2 * f, S1 * f1, S * f2

    def w_polar(self, r, th):
        """Polar components (w_r, w_theta) of perp-grad(psi)."""
        _, p_r, p_th, _, _, _ = self.partials(r, th)
        return p_th / np.asarray(r, dtype=float), -p_r

    def w_vector(self, x):
        x = np.asarray(x, dtype=float)
        r, th = cartesian_to_polar(x)
        return polar_vector(*self.w_polar(r, th), th)


class HolderVelocity:
    """Synthetic collar velocity: v_nu = d^a (1 + sin(theta)/2), v_tau bounded.

    Only the frame components enter the collar integrals.  The normal bound
    |v_nu| <= C d^a holds with C = 3/2.
    """

    def __init__(self, holder_alpha: float):
        if not 0.0 < holder_alpha <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {holder_alpha}")
        self.holder_alpha = float(holder_alpha)

    def normal_component(self, d, th):
        d = np.asarray(d, dtype=float)
        return d**self.holder_alpha * (1.0 + 0.5 * np.sin(th))

    def tangential_component(self, d, th):
        th = np.asarray(th, dtype=float)
        return np.ones_like(np.asarray(d, dtype=float)) * (
            1.0 + 0.5 * np.sin(th) - 0.3 * np.cos(th)
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

    def value(self, x):
        """w_eps as a Cartesian field on the whole annulus."""
        return self.psi.w_vector(x) + self.diff_value(x)

    def diff_value(self, x):
        """w_eps - w as a Cartesian field (zero outside the 2*eps collars).

        Built from the product rule in polar components, independently of
        ``frame_tensor``.
        """
        x = np.asarray(x, dtype=float)
        r, th = cartesian_to_polar(x)
        frame = boundary_distance(x, self.geom)
        p, p_r, p_th, _, _, _ = self.psi.partials(r, th)
        s = frame.distance / self.eps
        chi_m1 = self.chi.value(s) - 1.0
        chi_p = self.chi.deriv(s) / self.eps
        return polar_vector(chi_m1 * p_th / r, -chi_m1 * p_r - frame.sign * chi_p * p, th)

    def frame_tensor(self, d, th, sign):
        """Exact directional derivatives (T_nn, T_nt, T_tn, T_tt) and the
        polar components (diff_r, diff_th) of w_eps - w they are built from.

        T_ab = ((a . grad)(w_eps - w)) . b for a, b in {nu, tau}; closed forms
        in the stream function's partials.  These are sign-independent in
        polar data because nu = sign e_r and tau = sign e_theta flip together.
        """
        d = np.asarray(d, dtype=float)
        r = np.where(np.asarray(sign) > 0, self.geom.rho + d, self.geom.R - d)
        p, p_r, p_th, p_rr, p_rth, p_thth = self.psi.partials(r, th)
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
        return (t_nn, t_nt, t_tn, t_tt), (diff_r, diff_th)


def _collar_nodes(geom: AnnulusGeometry, eps: float, sign: float):
    """Quadrature on one collar {0 < d < 2 eps}: a distance column d (M, 1),
    an angle row theta (K,) and weights (M, K) that include the Jacobian r.

    Twelve Gauss points per panel.  The radial panels are graded toward d = 0
    (the synthetic velocity has a d^a factor there) and pinned to d = eps
    where the ramp switches on; theta has eight equal panels.
    """
    d_edges = eps * np.array([0.0, 1.0 / 16.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    dn, dw = panel_rule(d_edges, 12)
    thn, thw = panel_rule(np.linspace(0.0, TWO_PI, 9), 12)
    d = dn[:, None]
    r = geom.rho + d if sign > 0 else geom.R - d
    return d, thn, np.outer(dw, thw) * r


def collar_integrals(v: HolderVelocity, psi: SineStreamField, chi: SmoothstepCutoff,
                     eps: float, geom: AnnulusGeometry):
    """The four collar integrals, their direct counterpart and the cutoff
    distance at one cutoff width, in one pass over each collar.

    Returns ``(I1, I2, I3, I4, direct, l2)``, where ``direct`` is the
    quadrature of (v . grad(w_eps - w)) . v on the same nodes (the split is
    consistent when I1 + I2 + I3 + I4 equals it) and ``l2`` is
    ||w_eps - w||_{L^2(Omega)}, which vanishes outside the collars.
    """
    field = CutoffField(psi, chi, eps, geom)
    i1 = i2 = i3 = i4 = direct = l2_sq = 0.0
    for sign in (1.0, -1.0):
        d, th, W = _collar_nodes(geom, field.eps, sign)
        v_nu = v.normal_component(d, th)
        v_tau = v.tangential_component(d, th)
        (t_nn, t_nt, t_tn, t_tt), (diff_r, diff_th) = field.frame_tensor(d, th, sign)
        i1 += float(np.sum(W * v_nu * t_nn * v_nu))
        i2 += float(np.sum(W * v_nu * t_nt * v_tau))
        i3 += float(np.sum(W * v_tau * t_tn * v_nu))
        i4 += float(np.sum(W * v_tau * t_tt * v_tau))
        l2_sq += float(np.sum(W * (diff_r**2 + diff_th**2)))

        # direct route: contract the Cartesian velocity with the same tensor as a
        # Cartesian gradient (T_ab differentiates along a, polar_jacobian's t_ab
        # along b).  This checks the frame bookkeeping of the split; the tensor is
        # checked against finite differences in test_frame_tensor_matches_fd.
        grad = polar_jacobian(t_nn, t_tn, t_nt, t_tt, th)
        v_cart = sign * polar_vector(v_nu, v_tau, th)
        contraction = np.einsum("...i,...ij,...j->...", v_cart, grad, v_cart)
        direct += float(np.sum(W * contraction))
    return i1, i2, i3, i4, direct, math.sqrt(l2_sq)


def scaling_study(v: HolderVelocity, psi: SineStreamField, chi: SmoothstepCutoff,
                  eps_grid, geom: AnnulusGeometry):
    """Fit the decay rate of each collar integral over a decreasing eps grid.

    Needs at least four cutoff widths, strictly decreasing, all small enough
    for the two collars to stay disjoint.  Integrals at or below
    ``ZERO_FLOOR`` at all but one width are flagged vacuous (their upper
    bound holds trivially) and carry no slope.

    Returns ``(columns, results)``: the per-eps table and the JSON results.
    The verdict ``ok`` needs every non-vacuous slope at least its predicted
    exponent (2a+1, a, a+1, 1) less ``SLOPE_TOLERANCE``, the four-term split
    within ``DECOMPOSITION_TOL`` of the direct quadrature, and the cutoff
    distance decaying at half order at least; ``evidence`` counts the
    non-vacuous slopes.
    """
    eps_arr = np.asarray(eps_grid, dtype=float)
    if eps_arr.size < 4 or np.any(np.diff(eps_arr) >= 0) or np.any(eps_arr <= 0):
        raise ValueError("need >= 4 strictly decreasing positive cutoff widths")
    values = np.empty((eps_arr.size, 4))
    consistency = np.empty(eps_arr.size)
    l2 = np.empty(eps_arr.size)
    for i, eps in enumerate(eps_arr):
        *values[i], direct, l2[i] = collar_integrals(v, psi, chi, float(eps), geom)
        consistency[i] = abs(values[i].sum() - direct)

    log_eps = np.log(eps_arr)
    a = v.holder_alpha
    predicted = [2.0 * a + 1.0, a, a + 1.0, 1.0]
    slopes = []
    for k in range(4):
        magnitudes = np.abs(values[:, k])
        usable = magnitudes > ZERO_FLOOR
        if np.count_nonzero(usable) < 2:
            slopes.append(None)
        else:
            slopes.append(float(np.polyfit(log_eps[usable], np.log(magnitudes[usable]), 1)[0]))
    vacuous = [slope is None for slope in slopes]
    l2_slope = float(np.polyfit(log_eps, np.log(l2), 1)[0])
    max_error = float(np.max(consistency))
    slopes_ok = all(s is None or s >= p - SLOPE_TOLERANCE for s, p in zip(slopes, predicted))
    columns = {
        "eps": eps_arr,
        **{f"I{k + 1}": values[:, k] for k in range(4)},
        "decomposition_error": consistency,
        "l2_distance": l2,
    }
    results = {
        "holder_alpha": a,
        "eps": eps_arr.tolist(),
        "I_values": values.tolist(),
        "slopes": slopes,
        "predicted_exponents": predicted,
        "vacuous": vacuous,
        "max_decomposition_error": max_error,
        "l2_slope": l2_slope,
        "evidence": vacuous.count(False),
        "ok": slopes_ok and max_error < DECOMPOSITION_TOL and l2_slope >= 0.5,
    }
    return columns, results
