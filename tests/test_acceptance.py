"""Acceptance gate: every criterion at its stated tolerance, one line each.

The gate drives the commands: each of ``subsolution``, ``residual``,
``burgers`` and ``boundary`` runs once through ``rotsub.cli.main``, and the
tests check the evidence in its report against the tolerances below.  Criteria
that no command measures are computed here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from oracles import ubar_at, vbar_at

from rotsub import cli
from rotsub import subsolution as ss
from rotsub import viscosity as vc
from rotsub import weakform as wf
from rotsub.geometry import AnnulusGeometry, SubsolutionParams, polar_to_cartesian

GEOM = AnnulusGeometry(rho=1.0, R=2.0, r0=1.5, T=1.0)
PARAMS = SubsolutionParams(lam=0.1, epsilon=0.5)
PARAMS0 = SubsolutionParams(lam=0.1, epsilon=0.0)

# command -> flags; every other setting is the default configuration
RUNS = {
    "subsolution": ["--grids.n_r", "100", "--grids.n_theta", "64", "--grids.n_t", "10"],
    "residual": ["--seed", "105"],
    "burgers": [],
    "boundary": [],
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """command -> (exit code, results, seconds, output directory), one run each."""
    out = tmp_path_factory.mktemp("gate")
    done = {}
    for command, flags in RUNS.items():
        started = time.perf_counter()
        code = cli.main([command, *flags, "--out", str(out)])
        elapsed = time.perf_counter() - started
        results = json.loads((out / f"{command}.json").read_text(encoding="utf-8"))["results"]
        done[command] = (code, results, elapsed, out)
    return done


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {name}{suffix}"


def test_01_generalized_energy_eigenvalue_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    r = rng.uniform(GEOM.rho, GEOM.R, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    t = rng.uniform(0.0, GEOM.T, n)
    x = polar_to_cartesian(r, theta)
    closed = ss.egen(r, t, GEOM, PARAMS)
    oracle = ss.egen_from_state(vbar_at(x, t, GEOM, PARAMS), ubar_at(x, t, GEOM, PARAMS))
    diff = float(np.max(np.abs(closed - oracle)))
    elapsed = time.perf_counter() - started
    report(
        1, "generalized energy vs eigenvalue oracle",
        diff < 1e-12 and elapsed < 1.0,
        f"max diff {diff:.2e}, {elapsed:.2f}s",
    )


def test_02_constraint_dichotomy(runs):
    code, res, elapsed, _ = runs["subsolution"]
    report(
        2, "strict gap inside the band, equality outside",
        code == 0 and res["evidence"] == 64_000 and res["n_in_band"] > 0
        and res["min_gap_in_band"] > 0.0 and res["max_gap_formula_dev"] < 1e-13
        and res["max_eq_dev_outside"] < 1e-13 and elapsed < 5.0,
        f"{res['n_in_band']} band samples, min gap {res['min_gap_in_band']:.2e}, "
        f"formula dev {res['max_gap_formula_dev']:.1e}, outside dev {res['max_eq_dev_outside']:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_03_energy_anchors():
    e0 = wf.initial_energy(GEOM)
    anchor_ok = abs(e0 - 3.0 * math.pi / 4.0) < 1e-14
    quad_ok = abs(wf.energy_series(GEOM, PARAMS0, [0.7])[0] - e0) < 1e-10 * e0

    times = np.linspace(0.0, GEOM.T, 10)
    conserved = wf.energy_series(GEOM, PARAMS0, times)
    conservation_ok = bool(np.max(np.abs(conserved - e0)) < 1e-10 * e0)

    dissipated = wf.energy_series(GEOM, PARAMS, times)
    decreasing_ok = bool(np.all(np.diff(dissipated) < 0.0))

    report(
        3, "energy anchors: E0 closed form, conservation, strict decay",
        anchor_ok and quad_ok and conservation_ok and decreasing_ok,
        f"E0={e0:.7f}, conservation dev {np.max(np.abs(conserved - e0)):.1e}",
    )


def test_04_weak_form_residuals(runs):
    started = time.perf_counter()
    code, res, elapsed, _ = runs["residual"]
    # every refinement order whose two residuals sit above the 1e-13 floor
    above_floor = [
        (order, abs(a) > 1e-13 and abs(b) > 1e-13)
        for field in res["fields"].values()
        for order, a, b in zip(field["orders"], field["residuals"], field["residuals"][1:])
    ]
    orders = [order for order, above in above_floor if above]
    # the report's own marks of those orders, parallel to "orders"
    marked = [flag for field in res["fields"].values() for flag in field["measured"]]
    converged = sorted(name for name, field in res["fields"].items() if field["converged"])
    scalar_fields = [
        wf.ScalarBumpField(GEOM, (1.2, 1.8), wf.FourierPoly(((0, 1.0, 0.0),))),
        wf.ScalarBumpField(GEOM, (1.1, 1.9), wf.FourierPoly(((1, 0.5, 0.0), (2, 0.0, 0.3)))),
        wf.ScalarBumpField(GEOM, (1.3, 1.7), wf.FourierPoly(((0, 0.6, 0.0), (3, 0.0, 0.4)))),
    ]
    max_div = max(abs(res["divergence_residual"]), *(
        abs(wf.weak_residual_divergence(
            lambda r, th, t: ss.azimuthal(ss.alpha(r, t, GEOM, PARAMS), th), p, GEOM, t=tv
        ))
        for p, tv in zip(scalar_fields, (0.0, 0.4, 0.9))
    ))
    elapsed += time.perf_counter() - started
    report(
        4, "weak-form residual refinement and divergence tests",
        code == 0 and len(orders) == res["evidence"] > 0 and min(orders) >= 2.0
        and marked == [above for _, above in above_floor] and sum(marked) == res["evidence"]
        and len(converged) == 5 and max_div < 1e-10 and elapsed < 30.0,
        f"converged {converged}, orders {[f'{o:.2f}' for o in orders]}, "
        f"max div residual {max_div:.1e}, {elapsed:.1f}s",
    )


def test_05_radial_system_fd_convergence(runs):
    code, res, _, _ = runs["residual"]
    ratios = res["fd_median_ratios"]
    report(
        5, "radial system centered-difference order two",
        code == 0 and len(ratios) == 2 and all(3.5 <= ratio <= 4.5 for ratio in ratios),
        f"median ratios per equation {ratios[0]:.3f}, {ratios[1]:.3f}",
    )


def test_06_godunov_oracle_convergence(runs):
    code, res, _, _ = runs["burgers"]
    ratios = res["l1_ratios"]
    report(
        6, "finite-volume oracle first-order convergence and bounds",
        code == 0 and res["n_cells"] == [2000, 4000, 8000, 16000] and res["max_principle_ok"]
        and len(ratios) == res["evidence"] == 3 and all(1.7 <= ratio <= 2.3 for ratio in ratios),
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_07_viscosity_limit_and_mms():
    started = time.perf_counter()
    distances, _, _ = vc.vanishing_viscosity_study(GEOM, [1e-2, 1e-3, 1e-4], 1.0, 1600, 2.5e-3)

    nu = 0.05
    k = math.pi / GEOM.width

    def exact(r, t):
        return math.exp(-t) * np.sin(k * (r - GEOM.rho))

    def source(r, t):
        s = np.sin(k * (r - GEOM.rho))
        c = np.cos(k * (r - GEOM.rho))
        operator = -(k**2) * s + k * c / r - s / r**2
        return math.exp(-t) * (-s - nu * operator)

    def error(n, dt):
        solver = vc.solve_parabolic(GEOM, nu, 0.5, n, dt, initial=lambda r: exact(r, 0.0), source=source)
        return vc.l2_rdr_norm(solver.grid, solver.u_full - exact(solver.grid, solver.t))

    space_errors = [error(n, 2e-4) for n in (16, 32, 64)]
    space_orders = [math.log2(space_errors[i] / space_errors[i + 1]) for i in range(2)]
    time_errors = [error(1024, dt) for dt in (0.05, 0.025, 0.0125)]
    time_orders = [math.log2(time_errors[i] / time_errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - started
    ok = (
        bool(np.all(np.diff(distances) < 0))
        and all(order >= 1.8 for order in space_orders)
        and all(order >= 1.8 for order in time_orders)
        and elapsed < 60.0
    )
    report(
        7, "vanishing-viscosity sweep and manufactured-solution orders",
        ok,
        f"distances {np.round(distances, 4).tolist()}, "
        f"space orders {[f'{o:.2f}' for o in space_orders]}, "
        f"time orders {[f'{o:.2f}' for o in time_orders]}, {elapsed:.1f}s",
    )


def test_08_boundary_layer_scaling(runs):
    code, res, _, _ = runs["boundary"]
    bounds = (1.85, 0.35, 1.35, 0.85)
    slopes_ok = res["evidence"] > 0 and all(
        vac or slope >= bound
        for slope, bound, vac in zip(res["slopes"], bounds, res["vacuous"])
    )
    report(
        8, "collar integral decay slopes and decomposition consistency",
        code == 0 and slopes_ok and res["max_decomposition_error"] < 1e-8,
        "slopes " + ", ".join("vacuous" if s is None else f"{s:.3f}" for s in res["slopes"])
        + f"; max inconsistency {res['max_decomposition_error']:.1e}",
    )


def test_09_cutoff_strong_approximation(runs):
    code, res, _, out = runs["boundary"]
    with open(out / "boundary.csv", newline="", encoding="utf-8") as fh:
        l2 = [float(row["l2_distance"]) for row in csv.DictReader(fh)]
    decreasing = len(l2) == 4 and all(b < a for a, b in zip(l2, l2[1:]))
    report(
        9, "cutoff field converges in L2 at half order",
        code == 0 and decreasing and res["l2_slope"] >= 0.5,
        f"fitted order {res['l2_slope']:.4f}",
    )
