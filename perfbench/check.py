"""Independent checks of rotsub's command outputs.

Nothing here imports rotsub.  Every expected value is recomputed from the
formulas of the construction (fan profile, fields, energy densities, bounds on
the parameters) or from the method properties the paper claims (refinement
orders, decay slopes), and compared with what the command wrote to its CSV and
JSON files.  ``check_operation`` returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

SUBSOLUTION_HEADER = ["r", "theta", "t", "f", "alpha", "beta", "gamma", "qbar",
                      "vbar_x", "vbar_y", "u11", "u12", "egen", "ebar", "in_U"]
EQ_TOL = 1e-13          # constraint equality outside the band
EIG_TOL = 1e-12         # eigenvalue oracle for egen
QBAR_TOL = 1e-10        # pressure against adaptive quad
ENERGY_RTOL = 1e-10     # total energy against adaptive quad
RESIDUAL_FLOOR = 1e-13  # refinement orders are measured above this
SLOPE_TOL = 0.15
QBAR_SAMPLES = 24


class Problem(Exception):
    """An output that contradicts the independent computation."""


def _require(cond, message):
    if not cond:
        raise Problem(message)


def fan(r, t, r0, lam):
    """Entropy solution of f_t + (lam/2)(f^2)_r = 0 with f(r, 0) = sign(r - r0)."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    width = lam * t
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.clip((r - r0) / width, -1.0, 1.0)
    return np.where(width > 0, ramp, np.sign(r - r0))


def _fan1(r, t, r0, lam):
    """``fan`` at one point, in plain floats for the quadrature integrands."""
    width = lam * t
    if width > 0:
        return min(1.0, max(-1.0, (r - r0) / width))
    return math.copysign(1.0, r - r0) if r != r0 else 0.0


def _read_csv(path: Path):
    """Header and rows of a CSV written by rotsub, as a list of strings and a
    2-D float array (``true``/``false`` read as 1/0)."""
    _require(path.is_file(), f"{path.name} is missing")
    text = path.read_text(encoding="utf-8")
    _require(text.strip(), f"{path.name} is empty")
    head, _, body = text.partition("\n")
    header = head.split(",")
    _require(body.strip(), f"{path.name} has a header but no rows")
    body = body.replace("true", "1").replace("false", "0")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), f"{path.name}: rows do not match the header")
    return header, data


def _read_text_rows(path: Path):
    _require(path.is_file(), f"{path.name} is missing")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines, f"{path.name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def _columns(path: Path, expected_header):
    header, data = _read_csv(path)
    _require(header == expected_header, f"{path.name}: header {header} != {expected_header}")
    return {name: data[:, k] for k, name in enumerate(header)}


def _close(name, got, want, atol, rtol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: {got.size} values, expected {want.size}")
    dev = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    bad = ~(dev <= limit)
    if np.any(bad):
        k = int(np.argmax(np.where(bad, dev - limit, -np.inf)))
        raise Problem(f"{name}: {float(got.ravel()[k])!r} != {float(want.ravel()[k])!r} "
                      f"(deviation {dev.ravel()[k]:.3g}, {int(bad.sum())} bad values)")


def _slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------- commands --

def check_validate(s, out: Path, report):
    rho, R, r0, T = s["geometry.rho"], s["geometry.R"], s["geometry.r0"], s["geometry.T"]
    lam, eps = s["params.lambda"], s["params.epsilon"]
    lam_bound = min(1.0 / R**2, (r0 - rho) / T, (R - r0) / T)
    eps_bound = 1.0 / (1.0 - rho**2 * lam) if rho**2 * lam < 1.0 else math.inf
    res = report["results"]
    _close("lambda_bound", res["lambda_bound"], lam_bound, 0.0, 1e-15)
    _close("epsilon_bound", res["epsilon_bound"], eps_bound, 0.0, 1e-15)
    admissible = 0.0 < lam < lam_bound and 0.0 <= eps < eps_bound
    _require(res["ok"] is admissible, f"validate ok={res['ok']}, expected {admissible}")
    _require(bool(res["violations"]) is not admissible, "violations disagree with the verdict")
    _require(res["epsilon_strict"] is (eps < 1.0), "epsilon_strict flag is wrong")


def _pressure(r, t, s):
    """alpha^2/2 + int_rho^r alpha(s, t)^2 / s ds by adaptive quadrature."""
    rho, r0, lam = s["geometry.rho"], s["geometry.r0"], s["params.lambda"]

    def alpha_sq_over_s(x):
        return (_fan1(x, t, r0, lam) / x**2) ** 2 / x

    edges = [e for e in (r0 - lam * t, r0 + lam * t) if rho < e < r]
    integral = quad(alpha_sq_over_s, rho, r, points=edges or None,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 0.5 * (_fan1(r, t, r0, lam) / r**2) ** 2 + integral


def check_subsolution(s, out: Path, report):
    rho, R, r0, T = s["geometry.rho"], s["geometry.R"], s["geometry.r0"], s["geometry.T"]
    lam, eps = s["params.lambda"], s["params.epsilon"]
    n_r, n_theta, n_t = s["grids.n_r"], s["grids.n_theta"], s["grids.n_t"]
    c = _columns(out / "subsolution.csv", SUBSOLUTION_HEADER)
    rows = c["r"].size
    _require(rows == n_r * n_theta * n_t, f"{rows} rows, expected n_r*n_theta*n_t = {n_r * n_theta * n_t}")
    r, th, t = c["r"], c["theta"], c["t"]

    # the table covers the requested grid: radial cell centres, uniform angles, linspace times
    _close("r grid", np.unique(r), rho + (np.arange(n_r) + 0.5) * (R - rho) / n_r, 1e-14)
    _close("theta grid", np.unique(th), np.arange(n_theta) * (2.0 * math.pi / n_theta), 1e-14)
    _close("t grid", np.unique(t), np.linspace(0.0, T, n_t), 1e-15)

    f = fan(r, t, r0, lam)
    _close("f", c["f"], f, 1e-14)
    band = (lam * t > 0) & (r > r0 - lam * t) & (r < r0 + lam * t)
    _require(np.array_equal(c["in_U"] == 1.0, band), "in_U disagrees with the band r0 - lam t < r < r0 + lam t")
    _require(np.any(band), "no sample lies in the mixing band: the strict-gap check has no evidence")
    _require(np.any(~band), "no sample lies outside the mixing band: the equality check has no evidence")

    a = f / r**2
    _close("alpha", c["alpha"], a, 1e-14)
    _close("vbar_x", c["vbar_x"], a * np.sin(th), 1e-14)
    _close("vbar_y", c["vbar_y"], -a * np.cos(th), 1e-14)
    beta = -0.5 * a**2
    gamma = -0.5 * lam * (1.0 - f**2) / r**2
    _close("beta", c["beta"], beta, 1e-14)
    _close("gamma", c["gamma"], gamma, 1e-14)
    # ubar = Q [[beta, gamma], [gamma, -beta]] Q with the reflection Q(th)
    q = np.empty((rows, 2, 2))
    q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1] = np.cos(th), np.sin(th), np.sin(th), -np.cos(th)
    b = np.empty((rows, 2, 2))
    b[:, 0, 0], b[:, 0, 1], b[:, 1, 0], b[:, 1, 1] = beta, gamma, gamma, -beta
    u = q @ b @ q
    _close("u11", c["u11"], u[:, 0, 0], 1e-14)
    _close("u12", c["u12"], u[:, 0, 1], 1e-14)

    # egen is the largest eigenvalue of vbar (x) vbar - ubar, taken from the table itself
    v = np.stack([c["vbar_x"], c["vbar_y"]], axis=-1)
    m = v[:, :, None] * v[:, None, :]
    m[:, 0, 0] -= c["u11"]
    m[:, 0, 1] -= c["u12"]
    m[:, 1, 0] -= c["u12"]
    m[:, 1, 1] += c["u11"]
    _close("egen (eigenvalue oracle)", c["egen"], np.linalg.eigvalsh(m)[:, -1], EIG_TOL)
    _close("ebar", c["ebar"], (1.0 - eps * (1.0 - r**2 * lam) * (1.0 - f**2)) / (2.0 * r**4), 1e-14)

    gap = c["ebar"] - c["egen"]
    if eps < 1.0:
        _require(np.all(gap[band] > 0.0), f"gap ebar - egen <= 0 on {int(np.sum(gap[band] <= 0))} band rows")
    _require(np.all(np.abs(gap[~band]) <= EQ_TOL),
             f"|ebar - egen| up to {np.max(np.abs(gap[~band])):.3g} outside the band")

    # qbar against adaptive quadrature, on seeded rows from both sides of the band edge
    rng = np.random.default_rng(s["seed"])
    picks = np.concatenate([
        rng.choice(np.flatnonzero(band), QBAR_SAMPLES // 2),
        rng.choice(np.flatnonzero(~band), QBAR_SAMPLES - QBAR_SAMPLES // 2),
    ])
    want = [_pressure(r[k], t[k], s) for k in picks]
    _close("qbar (sampled rows)", c["qbar"][picks], want, QBAR_TOL)


def _energy(t, s):
    """E(t) = 2 pi int_rho^R 2 ebar(r, t) r dr by adaptive quadrature."""
    rho, R, r0 = s["geometry.rho"], s["geometry.R"], s["geometry.r0"]
    lam, eps = s["params.lambda"], s["params.epsilon"]

    def integrand(r):
        f = _fan1(r, t, r0, lam)
        return 4.0 * math.pi * r * (1.0 - eps * (1.0 - r * r * lam) * (1.0 - f * f)) / (2.0 * r**4)

    edges = [e for e in (r0 - lam * t, r0 + lam * t) if rho < e < R]
    return quad(integrand, rho, R, points=edges or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def check_energy(s, out: Path, report):
    rho, R, T = s["geometry.rho"], s["geometry.R"], s["geometry.T"]
    n = s["energy.n_times"]
    c = _columns(out / "energy.csv", ["t", "energy_total", "E0", "deficit"])
    _require(c["t"].size == n, f"{c['t'].size} rows, expected energy.n_times = {n}")
    _require(n >= 2, "one energy row cannot show conservation or decay")
    _close("t", c["t"], np.linspace(0.0, T, n), 1e-15)
    e0 = math.pi * (rho**-2 - R**-2)
    _close("E0", c["E0"], np.full(n, e0), 0.0, 1e-14)
    _close("E(0) = pi (rho^-2 - R^-2)", c["energy_total"][0], e0, 0.0, ENERGY_RTOL)
    _close("E(t) against quad", c["energy_total"], [_energy(tv, s) for tv in c["t"]], 0.0, ENERGY_RTOL)
    _close("deficit", c["deficit"], e0 - c["energy_total"], 1e-15 * e0)


def check_burgers(s, out: Path, report):
    c = _columns(out / "burgers.csv", ["n_cells", "l1_error", "linf_interior", "l1_ratio"])
    meshes = s["burgers.n_cells"]
    _close("n_cells", c["n_cells"], meshes, 0.0)
    _require(c["n_cells"].size >= 2, "one mesh cannot show convergence")
    l1 = c["l1_error"]
    _require(np.all(np.isfinite(l1) & (l1 > 0)), "L1 errors must be positive and finite")
    _require(np.all(np.isfinite(c["linf_interior"])), "Linf errors must be finite")
    ratios = l1[:-1] / l1[1:]
    _require(np.all((ratios >= 1.7) & (ratios <= 2.3)), f"L1 ratios {ratios.round(3).tolist()} outside [1.7, 2.3]")
    _close("l1_ratio column", c["l1_ratio"][1:], ratios, 0.0, 1e-14)


def check_residual(s, out: Path, report):
    header, rows = _read_text_rows(out / "residual.csv")
    _require(header == ["field", "cells", "residual"], f"residual.csv header {header}")
    levels = s["residual.levels"]
    by_field = {}
    for field, cells, value in rows:
        by_field.setdefault(field, []).append((tuple(int(v) for v in cells.split("x")), float(value)))
    _require(by_field, "residual.csv has no rows")
    measured = 0
    for field, entries in by_field.items():
        _require(len(entries) == levels, f"{field}: {len(entries)} levels, expected {levels}")
        cells = np.array([e[0] for e in entries])
        _require(np.all(cells[1:] == 2 * cells[:-1]), f"{field}: cells do not double per level")
        res = np.abs([e[1] for e in entries])
        for k in range(levels - 1):
            if res[k] > RESIDUAL_FLOOR and res[k + 1] > RESIDUAL_FLOOR:
                measured += 1
                order = math.log2(res[k] / res[k + 1])
                _require(order >= 2.0, f"{field}: refinement order {order:.2f} < 2 at level {k + 1}")
        _require(res[-1] <= max(RESIDUAL_FLOOR, res[0]), f"{field}: residual grew under refinement")
    _require(measured > 0, "no refinement order above the roundoff floor: nothing was measured")


def check_viscosity(s, out: Path, report):
    c = _columns(out / "viscosity.csv", ["nu", "l2_rdr_distance"])
    _close("nu", c["nu"], s["viscosity.nu"], 0.0)
    d = c["l2_rdr_distance"]
    _require(d.size >= 3, "fewer than three viscosities")
    _require(np.all(np.isfinite(d) & (d > 0)), "distances must be positive and finite")
    _require(np.all(np.diff(d) < 0), f"distances {d.tolist()} do not decrease strictly as nu decreases")


def check_boundary(s, out: Path, report):
    c = _columns(out / "boundary.csv", ["eps", "I1", "I2", "I3", "I4", "decomposition_error", "l2_distance"])
    eps = c["eps"]
    _close("eps", eps, s["boundary.eps"], 0.0)
    _require(eps.size >= 4, "fewer than four cutoff widths")
    a = s["boundary.holder_alpha"]
    # the paper bounds each collar integral by C eps^p, so the fitted decay must be at least p
    fitted = 0
    for k, p in enumerate((2 * a + 1, a, a + 1, 1.0)):
        mag = np.abs(c[f"I{k + 1}"])
        usable = mag > 1e-14
        if np.count_nonzero(usable) < 2:
            continue
        fitted += 1
        slope = _slope(eps[usable], mag[usable])
        _require(slope >= p - SLOPE_TOL, f"I{k + 1} decays at slope {slope:.3f}, bound needs >= {p - SLOPE_TOL:.3f}")
    _require(fitted > 0, "every collar integral is zero: no slope was measured")
    _require(np.all(c["decomposition_error"] < 1e-8), "four-term split does not reproduce the direct integral")
    l2_slope = _slope(eps, c["l2_distance"])
    _require(l2_slope >= 0.5, f"cutoff L2 slope {l2_slope:.3f} < 0.5")


_CHECKS = {
    "validate": check_validate,
    "subsolution": check_subsolution,
    "energy": check_energy,
    "burgers": check_burgers,
    "residual": check_residual,
    "viscosity": check_viscosity,
    "boundary": check_boundary,
}


def check_operation(command, settings, out: Path, exit_code: int):
    """Problems with one command's outputs; [] when every check passes.

    ``settings`` is the full configuration the benchmark asked for, with the
    operation's overrides and the run's seed applied.  The exit code must match
    the report's verdict; the verdict itself is not judged here (a false FAIL
    is a program fault that the caller counts as a failed operation through
    the exit code).
    """
    try:
        path = out / f"{command}.json"
        _require(path.is_file(), f"{command}.json is missing (exit code {exit_code})")
        report = json.loads(path.read_text(encoding="utf-8"))
        _require(report.get("command") == command, "report names another command")
        ok = report["results"]["ok"]
        _require(exit_code == (0 if ok else 1), f"exit code {exit_code} but report ok={ok}")
        used = report["provenance"]["config"]
        for key, value in settings.items():
            _require(used.get(key) == value, f"config {key}={used.get(key)!r}, asked {value!r}")
        _CHECKS[command](settings, out, report)
    except Problem as exc:
        return [f"{command}: {exc}"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
    return []
