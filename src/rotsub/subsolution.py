"""The explicit azimuthal subsolution driven by the rarefaction fan.

At every time the state is radially symmetric.  With f = f(r, t) the fan
profile and alpha = f / r^2:

    velocity          vbar = alpha * (sin th, -cos th)
    deviatoric part   ubar = Q(th) [[beta, gamma], [gamma, -beta]] Q(th),
                      beta = -alpha^2/2,
                      gamma = -(lam/2) (1/r^2 - r^2 alpha^2)
    pressure-like     qbar = alpha^2/2 + int_rho^r alpha(s, t)^2 / s ds

where Q(th) = [[cos th, sin th], [sin th, -cos th]].  Two energy densities
complete the picture: the pointwise generalized energy

    egen = (1/(2 r^4)) [1 - (1 - r^2 lam)(1 - f^2)],

which equals the largest eigenvalue of vbar (x) vbar - ubar (the dimension
factor d/2 is 1 in the plane), and the prescribed density

    ebar = (1/(2 r^4)) [1 - epsilon (1 - r^2 lam)(1 - f^2)].

Their gap is ebar - egen = (1 - epsilon)(1 - r^2 lam)(1 - f^2) / (2 r^4):
strictly positive inside the open mixing band when epsilon < 1, identically
zero outside it.
"""

from __future__ import annotations

import numpy as np

from .burgers import fan_interval, rarefaction
from .geometry import AnnulusGeometry, SubsolutionParams
from .quadrature import _leggauss

# roundoff allowance of the equalities the constraint check tests
EQ_TOL = 1e-13


def f_profile(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    return rarefaction(r, t, geom.r0, params.lam)


def alpha(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Signed azimuthal speed profile f(r, t) / r^2."""
    r = np.asarray(r, dtype=float)
    return f_profile(r, t, geom, params) / r**2


def alpha0(r, geom: AnnulusGeometry):
    """Initial speed profile: -1/r^2 inside the interface circle, +1/r^2 outside."""
    r = np.asarray(r, dtype=float)
    return np.sign(r - geom.r0) / r**2


def azimuthal(a, theta):
    """The azimuthal field a (sin th, -cos th) as (..., 2) arrays."""
    return np.stack([a * np.sin(theta), -a * np.cos(theta)], axis=-1)


def beta(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    return -0.5 * alpha(r, t, geom, params) ** 2


def gamma(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    return -0.5 * params.lam * (1.0 - f**2) / r**2


def in_band(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Mask of the open band: r strictly inside ``fan_interval``, so empty at
    t = 0 and for lam <= 0, and never on a wall."""
    low, high = fan_interval(t, geom, params.lam)
    return (np.asarray(r, dtype=float) > low) & (r < high)


def qbar(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Generalized pressure alpha^2/2 + int_rho^r alpha(s, t)^2/s ds, in closed form.

    Outside the fan alpha^2/s = s^-5, so the integral is (rho^-4 - r^-4)/4 less
    the deficit int (1 - f^2)/s^5 ds over the part of the fan below r.  Under
    s = r0 + lam t u that deficit is lam t int (1 - u^2)/(r0 + lam t u)^5 du, a
    smooth integrand taken by a fixed 16-point Gauss rule (12 points lose digits
    at large lam t), summed node by node so no points-by-nodes array is held.
    The fan is ``fan_interval``, cut to the annulus, so its lower edge is
    clamped to rho.  Broadcasts over r and t.
    """
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    low, high = fan_interval(t, geom, params.lam)
    fan = (r > low) & (high > low)
    deficit = np.zeros(r.shape)
    if np.any(fan):
        w = params.lam * t[fan]
        u_low = (low[fan] - geom.r0) / w
        u_high = (np.minimum(r[fan], high[fan]) - geom.r0) / w
        mid = 0.5 * (u_high + u_low)
        half = 0.5 * (u_high - u_low)
        acc = np.zeros_like(w)
        for xi, wi in zip(*_leggauss(16)):
            u = mid + half * xi
            acc += wi * (1.0 - u * u) / (geom.r0 + w * u) ** 5
        deficit[fan] = w * half * acc
    out = 0.5 * alpha(r, t, geom, params) ** 2 + 0.25 * (geom.rho**-4 - r**-4) - deficit
    if out.ndim == 0:
        return float(out)
    return out


def ubar_entries(r, theta, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """(u11, u12) of the symmetric traceless matrix in polar data; u22 = -u11."""
    b = beta(r, t, geom, params)
    g = gamma(r, t, geom, params)
    c2 = np.cos(2.0 * np.asarray(theta, dtype=float))
    s2 = np.sin(2.0 * np.asarray(theta, dtype=float))
    return b * c2 + g * s2, b * s2 - g * c2


def ebar(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Prescribed energy density (1/(2 r^4)) [1 - epsilon (1 - r^2 lam)(1 - f^2)]."""
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    return (1.0 - params.epsilon * (1.0 - r**2 * params.lam) * (1.0 - f**2)) / (2.0 * r**4)


def egen(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Generalized energy density (1/(2 r^4)) [1 - (1 - r^2 lam)(1 - f^2)]."""
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    return (1.0 - (1.0 - r**2 * params.lam) * (1.0 - f**2)) / (2.0 * r**4)


def egen_from_state(v, u):
    """Generalized energy from the state itself: the largest eigenvalue of
    v (x) v - u via the closed form for symmetric 2x2 matrices.

    Independent of the radial closed form above; used to cross-check it.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    m11 = v[..., 0] ** 2 - u[..., 0, 0]
    m12 = v[..., 0] * v[..., 1] - u[..., 0, 1]
    m22 = v[..., 1] ** 2 - u[..., 1, 1]
    return 0.5 * (m11 + m22) + np.hypot(0.5 * (m11 - m22), m12)


def energy_gap(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Closed form of ebar - egen: (1 - epsilon)(1 - r^2 lam)(1 - f^2) / (2 r^4)."""
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    return (1.0 - params.epsilon) * (1.0 - r**2 * params.lam) * (1.0 - f**2) / (2.0 * r**4)


def sample_columns(geom: AnnulusGeometry, params: SubsolutionParams, r, theta, t):
    """Field table over the tensor grid t x r x theta, as columns that
    broadcast to its shape (n_t, n_r, n_theta); its rows run in C order, t
    outermost.

    No column is expanded: ``r`` is an (n_r, 1) column, ``theta`` an
    (n_theta,) row and ``t`` an (n_t, 1, 1) array.  The radially symmetric
    fields (f, alpha, beta, gamma, qbar, egen, ebar, in_U) are evaluated once
    per (r, t) node, shape (n_t, n_r, 1); only vbar_x, vbar_y, u11 and u12 are
    (n_t, n_r, n_theta).  Keys match the CSV column contract, in order:
    r, theta, t, f, alpha, beta, gamma, qbar, vbar_x, vbar_y, u11, u12,
    egen, ebar, in_U.
    """
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)[:, None, None]
    r = np.asarray(r, dtype=float)[:, None]
    a = alpha(r, t, geom, params)
    v = azimuthal(a, theta)
    u11, u12 = ubar_entries(r, theta, t, geom, params)
    return {
        "r": r, "theta": theta, "t": t, "f": f_profile(r, t, geom, params), "alpha": a,
        "beta": beta(r, t, geom, params), "gamma": gamma(r, t, geom, params),
        "qbar": qbar(r, t, geom, params), "vbar_x": v[..., 0], "vbar_y": v[..., 1],
        "u11": u11, "u12": u12, "egen": egen(r, t, geom, params), "ebar": ebar(r, t, geom, params),
        "in_U": in_band(r, t, geom, params),
    }


def check_constraint_structure(geom: AnnulusGeometry, params: SubsolutionParams, r, theta, t) -> dict:
    """Verify egen < ebar strictly on band samples and egen = ebar elsewhere.

    Samples the tensor grid t x r x theta of ``sample_columns``, judging the
    radially symmetric gap once per (r, t) node and counting each node once
    per angle; samples exactly on a band edge count as outside (the gap
    vanishes there).
    When epsilon >= 1 strictness has no meaning; the check then only verifies
    equality outside the closed band and reports ``strictness_applicable``
    false.  Returns the JSON results: sample counts, the smallest band gap
    (None without a band sample), the largest deviations from the gap formula
    and from equality outside the band, ``first_violation`` (None when the
    check holds), and the verdict ``ok`` on ``evidence`` samples.  A check with
    no sample, or with no band sample while the gap must be strict, fails with
    a ``no_evidence`` violation.
    """
    # theta[:1] stands for every angle, and an empty theta leaves no node
    theta = np.asarray(theta, dtype=float)
    Rg, T, _ = np.broadcast_arrays(np.asarray(r, dtype=float)[:, None],
                                   np.asarray(t, dtype=float)[:, None, None], theta[:1])
    band = in_band(Rg, T, geom, params)
    e_gen = egen(Rg, T, geom, params)
    e_bar = ebar(Rg, T, geom, params)
    gap = e_bar - e_gen
    formula = energy_gap(Rg, T, geom, params)

    strict_applicable = params.epsilon < 1.0
    first = None

    if strict_applicable:
        bad = gap[band] <= 0.0
        if np.any(bad):
            k = int(np.argmax(bad))
            first = {"kind": "strictness", "r": float(Rg[band][k]), "t": float(T[band][k]),
                     "egen": float(e_gen[band][k]), "ebar": float(e_bar[band][k])}
    formula_dev = float(np.max(np.abs(gap - formula))) if gap.size else 0.0
    if first is None and formula_dev > EQ_TOL:
        k = int(np.argmax(np.abs(gap - formula)))
        first = {"kind": "gap_formula", "r": float(Rg.flat[k]), "t": float(T.flat[k]),
                 "deviation": formula_dev}

    outside = ~band
    eq_dev = float(np.max(np.abs(gap[outside]))) if np.any(outside) else 0.0
    if first is None and eq_dev > EQ_TOL:
        k = int(np.argmax(np.abs(np.where(outside, gap, 0.0))))
        first = {"kind": "equality", "r": float(Rg.flat[k]), "t": float(T.flat[k]),
                 "egen": float(e_gen.flat[k]), "ebar": float(e_bar.flat[k])}
    n_samples = gap.size * theta.size
    n_in_band = int(np.count_nonzero(band)) * theta.size
    if first is None and (n_samples == 0 or (strict_applicable and n_in_band == 0)):
        first = {"kind": "no_evidence", "n_samples": n_samples, "n_in_band": n_in_band}

    return {
        "n_samples": n_samples,
        "n_in_band": n_in_band,
        "strictness_applicable": strict_applicable,
        # strict JSON has no infinity: the minimum over no band sample is null
        "min_gap_in_band": float(gap[band].min()) if n_in_band else None,
        "max_gap_formula_dev": formula_dev,
        "max_eq_dev_outside": eq_dev,
        "first_violation": first,
        "evidence": n_samples,
        "ok": first is None,
    }
