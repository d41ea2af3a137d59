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

import math
from dataclasses import dataclass

import numpy as np

from .burgers import fan_interval, rarefaction
from .geometry import AnnulusGeometry, SubsolutionParams, cartesian_to_polar
from .quadrature import _leggauss


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


def initial_velocity(x, geom: AnnulusGeometry):
    """The stationary velocity field at t = 0: -+ x_perp / |x|^3 across r0,
    with x_perp = (x2, -x1)."""
    r, theta = cartesian_to_polar(x)
    return azimuthal(alpha0(r, geom), theta)


def beta(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    return -0.5 * alpha(r, t, geom, params) ** 2


def gamma(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    return -0.5 * params.lam * (1.0 - f**2) / r**2


def _f_partials(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Analytic (f_r, f_t) away from the fan edges; zero outside the fan.

    Values exactly on an edge take the outside limit (both partials 0).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    width = params.lam * t
    left, right = fan_interval(t, geom.r0, params.lam)
    inside = (width > 0) & (r > left) & (r < right)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_r = np.where(inside, 1.0 / width, 0.0)
        f_t = np.where(inside, -(r - geom.r0) / (params.lam * t**2), 0.0)
    return f_r, f_t


def alpha_partials(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Analytic (d alpha/dr, d alpha/dt) away from the fan edges."""
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    f_r, f_t = _f_partials(r, t, geom, params)
    return f_r / r**2 - 2.0 * f / r**3, f_t / r**2


def gamma_partial_r(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Analytic d gamma/dr away from the fan edges."""
    r = np.asarray(r, dtype=float)
    f = f_profile(r, t, geom, params)
    f_r, _ = _f_partials(r, t, geom, params)
    lam = params.lam
    return lam * (1.0 - f**2) / r**3 + lam * f * f_r / r**2


def qbar(r, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Generalized pressure alpha^2/2 + int_rho^r alpha(s, t)^2/s ds, in closed form.

    Outside the fan alpha^2/s = s^-5, so the integral is (rho^-4 - r^-4)/4 less
    the deficit int (1 - f^2)/s^5 ds over the part of the fan below r.  Under
    s = r0 + lam t u that deficit is lam t int (1 - u^2)/(r0 + lam t u)^5 du, a
    smooth integrand taken by a fixed 16-point Gauss rule (12 points lose digits
    at large lam t), summed node by node so no points-by-nodes array is held.
    The fan's lower edge is clamped to rho.  Broadcasts over r and t.
    """
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    width = params.lam * t
    low = np.maximum(geom.r0 - width, geom.rho)
    fan = (width > 0) & (r > low)
    deficit = np.zeros(r.shape)
    if np.any(fan):
        w = width[fan]
        u_low = (low[fan] - geom.r0) / w
        u_high = (np.minimum(r[fan], geom.r0 + w) - geom.r0) / w
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


def vbar(x, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Velocity field alpha(r, t) * (sin th, -cos th) at Cartesian points."""
    r, theta = cartesian_to_polar(x)
    return azimuthal(alpha(r, t, geom, params), theta)


def ubar_entries(r, theta, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """(u11, u12) of the symmetric traceless matrix in polar data; u22 = -u11."""
    b = beta(r, t, geom, params)
    g = gamma(r, t, geom, params)
    c2 = np.cos(2.0 * np.asarray(theta, dtype=float))
    s2 = np.sin(2.0 * np.asarray(theta, dtype=float))
    return b * c2 + g * s2, b * s2 - g * c2


def ubar(x, t, geom: AnnulusGeometry, params: SubsolutionParams):
    """Symmetric traceless matrix field as (..., 2, 2) arrays."""
    x = np.asarray(x, dtype=float)
    r, theta = cartesian_to_polar(x)
    u11, u12 = ubar_entries(r, theta, t, geom, params)
    out = np.empty(u11.shape + (2, 2))
    out[..., 0, 0] = u11
    out[..., 0, 1] = u12
    out[..., 1, 0] = u12
    out[..., 1, 1] = -u11
    return out


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


@dataclass(frozen=True)
class TurbulentRegion:
    """The expanding open band r0 - lam*t < |x| < r0 + lam*t."""

    r0: float
    lam: float

    @classmethod
    def of(cls, geom: AnnulusGeometry, params: SubsolutionParams):
        return cls(r0=geom.r0, lam=params.lam)

    def interval(self, t):
        return fan_interval(t, self.r0, self.lam)

    def contains(self, r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        left, right = self.interval(t)
        return (self.lam * t > 0) & (r > left) & (r < right)


def sample_columns(geom: AnnulusGeometry, params: SubsolutionParams, r, theta, t):
    """Flattened field table over the tensor grid t x r x theta (t outermost).

    The radially symmetric qbar is evaluated on the t x r grid only.  Keys
    match the CSV column contract, in order:
    r, theta, t, f, alpha, beta, gamma, qbar, vbar_x, vbar_y, u11, u12,
    egen, ebar, in_U.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    T, Rg, TH = np.meshgrid(t, r, theta, indexing="ij")
    band = TurbulentRegion.of(geom, params)
    a = alpha(Rg, T, geom, params)
    v = azimuthal(a.ravel(), TH.ravel())
    u11, u12 = ubar_entries(Rg, TH, T, geom, params)
    return {
        "r": Rg.ravel(),
        "theta": TH.ravel(),
        "t": T.ravel(),
        "f": f_profile(Rg, T, geom, params).ravel(),
        "alpha": a.ravel(),
        "beta": beta(Rg, T, geom, params).ravel(),
        "gamma": gamma(Rg, T, geom, params).ravel(),
        "qbar": np.broadcast_to(qbar(r, t[:, None], geom, params)[..., None], T.shape).ravel(),
        "vbar_x": v[:, 0],
        "vbar_y": v[:, 1],
        "u11": u11.ravel(),
        "u12": u12.ravel(),
        "egen": egen(Rg, T, geom, params).ravel(),
        "ebar": ebar(Rg, T, geom, params).ravel(),
        "in_U": band.contains(Rg, T).ravel(),
    }


@dataclass(frozen=True)
class ConstraintReport:
    """Dichotomy check: strict energy gap inside the band, equality outside."""

    n_samples: int
    n_in_band: int
    strictness_applicable: bool
    min_gap_in_band: float
    max_gap_formula_dev: float
    max_eq_dev_outside: float
    eq_tol: float
    first_violation: dict | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def check_constraint_structure(
    geom: AnnulusGeometry,
    params: SubsolutionParams,
    n_r: int = 100,
    n_theta: int = 64,
    n_t: int = 10,
    sub_annulus=None,
    eq_tol: float = 1e-13,
) -> ConstraintReport:
    """Verify egen < ebar strictly on band samples and egen = ebar elsewhere.

    Sampling runs on a t x r x theta grid with radial cell centers, so no
    sample sits exactly on the domain boundary.  ``sub_annulus=(rho', R')``
    restricts the radial range: the restriction of the construction to a
    sub-annulus satisfies the same dichotomy, and this exercises it directly.
    Samples exactly on a band edge count as outside (the gap vanishes there).

    When epsilon >= 1 strictness has no meaning; the check then only verifies
    equality outside the closed band and flags ``strictness_applicable=False``.
    A check with no sample, or with no band sample while the gap must be
    strict, fails with a ``no_evidence`` violation.
    """
    ra, rb = sub_annulus if sub_annulus is not None else (geom.rho, geom.R)
    if not (geom.rho <= ra < rb <= geom.R):
        raise ValueError(f"sub-annulus ({ra}, {rb}) must sit inside [{geom.rho}, {geom.R}]")
    r = ra + (np.arange(n_r) + 0.5) * (rb - ra) / n_r
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    t = np.linspace(0.0, geom.T, n_t)

    T, Rg, _ = np.meshgrid(t, r, theta, indexing="ij")
    band = TurbulentRegion.of(geom, params)
    in_band = band.contains(Rg, T)
    e_gen = egen(Rg, T, geom, params)
    e_bar = ebar(Rg, T, geom, params)
    gap = e_bar - e_gen
    formula = energy_gap(Rg, T, geom, params)

    strict_applicable = params.epsilon < 1.0
    first = None

    if strict_applicable and np.any(in_band):
        inside_gap = gap[in_band]
        bad = inside_gap <= 0.0
        if np.any(bad):
            k = int(np.argmax(bad))
            idx = tuple(a[k] for a in (Rg[in_band], T[in_band]))
            first = {
                "kind": "strictness",
                "r": float(idx[0]),
                "t": float(idx[1]),
                "egen": float(e_gen[in_band][k]),
                "ebar": float(e_bar[in_band][k]),
            }
    formula_dev = float(np.max(np.abs(gap - formula))) if gap.size else 0.0
    if first is None and formula_dev > eq_tol:
        k = int(np.argmax(np.abs(gap - formula)))
        first = {
            "kind": "gap_formula",
            "r": float(Rg.ravel()[k]),
            "t": float(T.ravel()[k]),
            "deviation": formula_dev,
        }

    outside = ~in_band
    eq_dev = float(np.max(np.abs(gap[outside]))) if np.any(outside) else 0.0
    if first is None and eq_dev > eq_tol:
        flat_dev = np.abs(np.where(outside, gap, 0.0)).ravel()
        k = int(np.argmax(flat_dev))
        first = {
            "kind": "equality",
            "r": float(Rg.ravel()[k]),
            "t": float(T.ravel()[k]),
            "egen": float(e_gen.ravel()[k]),
            "ebar": float(e_bar.ravel()[k]),
        }
    n_in_band = int(np.count_nonzero(in_band))
    if first is None and (gap.size == 0 or (strict_applicable and n_in_band == 0)):
        first = {"kind": "no_evidence", "n_samples": int(gap.size), "n_in_band": n_in_band}

    return ConstraintReport(
        n_samples=int(gap.size),
        n_in_band=n_in_band,
        strictness_applicable=strict_applicable,
        min_gap_in_band=float(gap[in_band].min()) if np.any(in_band) else math.inf,
        max_gap_formula_dev=formula_dev,
        max_eq_dev_outside=eq_dev,
        eq_tol=eq_tol,
        first_violation=first,
    )
