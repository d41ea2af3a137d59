"""Command-line front end: JSON reports and CSV tables for every check.

Subcommands: validate | subsolution | energy | burgers | residual | viscosity
| boundary.  Configuration is a JSON object with flat dotted keys (see
``DEFAULT_CONFIG``); every key can be overridden on the command line by a flag
of the same name.  Exit codes: 0 all checks pass, 1 a check failed or
measured nothing (``evidence`` 0), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, boundary_layer, burgers, subsolution, viscosity, weakform
from .geometry import AnnulusGeometry, SubsolutionParams, validate_params
from .subsolution import check_constraint_structure, sample_columns

DEFAULT_CONFIG = {
    "geometry.rho": 1.0,
    "geometry.R": 2.0,
    "geometry.r0": 1.5,
    "geometry.T": 1.0,
    "params.lambda": 0.1,
    "params.epsilon": 0.5,
    "grids.n_r": 50,
    "grids.n_theta": 32,
    "grids.n_t": 5,
    "energy.n_times": 9,
    "burgers.t": 0.5,
    "burgers.n_cells": [2000, 4000, 8000, 16000],
    "residual.levels": 3,
    "residual.order": 3,
    "residual.fd_points": 200,
    "residual.fd_h": 1e-3,
    "viscosity.nu": [1e-2, 1e-3, 1e-4],
    "viscosity.t_probe": 1.0,
    "viscosity.n": 1600,
    "viscosity.dt": 0.0025,
    "boundary.holder_alpha": 0.5,
    "boundary.eps": [0.04, 0.02, 0.01, 0.005],
    "seed": 0,
}

REQUIRED_KEYS = (
    "geometry.rho",
    "geometry.R",
    "geometry.r0",
    "geometry.T",
    "params.lambda",
    "params.epsilon",
)

class ConfigError(Exception):
    """Malformed configuration: unknown key, bad type, missing required field."""


def _number(kind, value):
    if isinstance(value, bool):  # float(True) is 1.0
        raise TypeError(f"{value} is a boolean, not a number")
    number = float(value)
    if not math.isfinite(number):  # no setting takes nan or inf, and strict JSON has neither
        raise ValueError(f"{value} is not a finite number")
    if kind is int:
        out = int(number)
        if out != number:
            raise ValueError(f"{value} is not an integer")
        return out
    return number


def _coerce(key: str, value):
    """Parse a value to the type of its default: int, float, or a list of the
    type of the default's first entry (a comma-separated string on the command
    line)."""
    default = DEFAULT_CONFIG[key]
    try:
        if isinstance(default, list):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            return [_number(type(default[0]), v) for v in value]
        return _number(type(default), value)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def load_config(path=None, overrides=None) -> dict:
    """Merge defaults, an optional JSON config file, and CLI overrides.

    A config file must carry at least the geometry.* and params.* keys and may
    not contain unknown ones; all remaining keys fall back to defaults.
    """
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object with dotted keys")
        unknown = sorted(set(raw) - set(DEFAULT_CONFIG))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(set(REQUIRED_KEYS) - set(raw))
        if missing:
            raise ConfigError(f"config file is missing required keys: {', '.join(missing)}")
        config.update(raw)
    for key, value in (overrides or {}).items():
        config[key] = value
    config = {key: _coerce(key, value) for key, value in config.items()}
    if config["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {config['seed']}")
    return config


def _checked(what: str, call, *args, **kwargs):
    """Run a library call whose ValueError can only mean a bad configuration value."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _geometry(config) -> AnnulusGeometry:
    return _checked(
        "geometry", AnnulusGeometry, rho=config["geometry.rho"], R=config["geometry.R"],
        r0=config["geometry.r0"], T=config["geometry.T"],
    )


def _params(config) -> SubsolutionParams:
    return _checked(
        "parameters", SubsolutionParams, lam=config["params.lambda"], epsilon=config["params.epsilon"],
    )


CSV_BLOCK_ROWS = 4096


def _format_column(column) -> list:
    """Cell texts of one column: ``repr`` of floats, ``str`` of integers and
    strings, ``true``/``false`` for booleans."""
    values = column.tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    if column.dtype.kind == "f":
        return list(map(repr, values))
    return list(map(str, values))


def write_csv(path: Path, columns: dict):
    """Write equal-length columns (header -> values) as a CSV file.

    Cells are formatted a column at a time over blocks of ``CSV_BLOCK_ROWS``
    rows, which bounds the memory held by formatted text.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    n_rows = len(arrays[0]) if arrays else 0
    if any(len(a) != n_rows for a in arrays):
        raise ValueError(f"CSV columns of unequal length for {path}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            cells = [_format_column(a[start:start + CSV_BLOCK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_report(out_dir: Path, name: str, report: dict):
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _violations(report) -> list:
    """The violated admissibility bounds as JSON objects."""
    return [
        {"name": v.name, "value": v.value, "bound": v.bound, "description": v.description}
        for v in report.violations
    ]


def _judged_admissible(results: dict, geom, params) -> dict:
    """``results`` with the violated admissibility bounds under ``violations``:
    a check may hold for inadmissible parameters, but it is never a PASS."""
    report = validate_params(geom, params)
    results["violations"] = _violations(report)
    results["ok"] = results["ok"] and report.ok
    return results


# Each handler maps a config to ``(columns, results, summary)``: the CSV
# columns (header -> values, or None for no table), the JSON results with the
# verdict ``ok`` and the ``evidence`` count of measured quantities behind it,
# and the text printed before ": PASS" or ": FAIL".

def cmd_validate(config):
    geom = _geometry(config)
    params = _params(config)
    report = validate_params(geom, params)
    results = {
        "lambda": params.lam,
        "epsilon": params.epsilon,
        "lambda_bound": report.lambda_bound,
        # strict JSON has no infinity: with rho^2 lam >= 1 epsilon has no upper bound
        "epsilon_bound": report.epsilon_bound if math.isfinite(report.epsilon_bound) else None,
        "epsilon_strict": report.epsilon_strict,
        "violations": _violations(report),
        "evidence": 2,
        "ok": report.ok,
    }
    if report.ok and not report.epsilon_strict:
        results["warning"] = "epsilon >= 1: the energy gap inside the band is not strict"
    return None, results, "validate"


def cmd_subsolution(config):
    geom = _geometry(config)
    params = _params(config)
    n_r, n_theta, n_t = config["grids.n_r"], config["grids.n_theta"], config["grids.n_t"]
    if n_r < 0 or n_theta < 1 or n_t < 0:
        raise ConfigError(
            f"grids need n_r >= 0, n_theta >= 1 and n_t >= 0, got {n_r}, {n_theta} and {n_t}"
        )
    check = check_constraint_structure(geom, params, n_r=n_r, n_theta=n_theta, n_t=n_t)
    results = _judged_admissible({
        "n_samples": check.n_samples,
        "n_in_band": check.n_in_band,
        "strictness_applicable": check.strictness_applicable,
        # strict JSON has no infinity: the minimum over no band sample is null
        "min_gap_in_band": check.min_gap_in_band if check.n_in_band else None,
        "max_gap_formula_dev": check.max_gap_formula_dev,
        "max_eq_dev_outside": check.max_eq_dev_outside,
        "first_violation": check.first_violation,
        "evidence": check.n_samples,
        "ok": check.ok,
    }, geom, params)
    # the table is built only once the check is done, so the two never share memory
    r = geom.rho + (np.arange(n_r) + 0.5) * geom.width / n_r
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    t = np.linspace(0.0, geom.T, n_t)
    return sample_columns(geom, params, r, theta, t), results, "subsolution constraint check"


def cmd_energy(config):
    geom = _geometry(config)
    params = _params(config)
    if config["energy.n_times"] < 2:
        raise ConfigError("energy.n_times needs at least two times")
    times = np.linspace(0.0, geom.T, config["energy.n_times"])
    energies = weakform.energy_series(geom, params, times)
    e0 = weakform.initial_energy(geom)
    deficit = weakform.energy_deficit(geom, params, times)
    columns = {
        "t": times, "energy_total": energies, "E0": np.full_like(times, e0), "deficit": e0 - energies,
    }
    if params.epsilon == 0.0:
        ok = bool(np.max(np.abs(energies - e0)) < 1e-10 * e0)
        behavior = "conserved"
    else:
        # the sign of each step's decrease is judged only where the exact
        # decrease rises above the roundoff of the quadrature energies
        exact_drop = np.diff(deficit)
        resolved = exact_drop > 64.0 * np.finfo(float).eps * e0
        ok = bool(
            np.all(exact_drop > 0.0)
            and np.max(np.abs(energies - (e0 - deficit))) <= 1e-10 * e0
            and np.all(np.diff(energies)[resolved] < 0.0)
        )
        behavior = "strictly decreasing"
    results = _judged_admissible({
        "E0": e0,
        "times": times.tolist(),
        "energy": energies.tolist(),
        "D": deficit.tolist(),
        "expected_behavior": behavior,
        "evidence": times.size,
        "ok": ok,
    }, geom, params)
    return columns, results, f"energy ({behavior})"


def cmd_burgers(config):
    geom = _geometry(config)
    params = _params(config)
    t_probe = config["burgers.t"]
    meshes = config["burgers.n_cells"]
    # the lambda bound keeps the exact fan inside the annulus only for t <= T
    if not 0.0 < t_probe <= geom.T:
        raise ConfigError(f"burgers.t must lie in (0, geometry.T] = (0, {geom.T}], got {t_probe}")
    if len(meshes) < 2:
        raise ConfigError("burgers.n_cells needs at least two mesh sizes")
    if min(meshes) < 2:
        raise ConfigError(f"burgers.n_cells needs at least two cells per mesh, got {meshes}")
    errors = [burgers.compare_exact_vs_fv(geom, params, t_probe, n) for n in meshes]
    l1 = [e[0] for e in errors]
    linf = [e[1] for e in errors]
    in_bounds = all(e[2] <= 1.0 + 1e-12 for e in errors)
    ratios = [l1[i] / l1[i + 1] for i in range(len(l1) - 1)]
    columns = {
        "n_cells": meshes, "l1_error": l1, "linf_interior": linf, "l1_ratio": [float("nan"), *ratios],
    }
    results = _judged_admissible({
        "t": t_probe,
        "n_cells": list(meshes),
        "l1_error": l1,
        "linf_interior": linf,
        "l1_ratios": ratios,
        "max_principle_ok": in_bounds,
        "evidence": len(ratios),
        "ok": in_bounds and all(1.7 <= ratio <= 2.3 for ratio in ratios),
    }, geom, params)
    return columns, results, f"burgers oracle (L1 ratios {['%.2f' % r for r in ratios]})"


def cmd_residual(config):
    geom = _geometry(config)
    params = _params(config)
    levels = config["residual.levels"]
    order = config["residual.order"]
    if levels < 2:
        raise ConfigError("residual.levels needs at least two levels to measure an order")
    if config["residual.fd_points"] < 3:
        raise ConfigError("residual.fd_points needs at least three points, one per smooth region")
    h = config["residual.fd_h"]
    if not h > 0.0:
        raise ConfigError(f"residual.fd_h must be positive, got {h}")
    rng = np.random.default_rng(config["seed"])
    r_pts, t_pts = _checked(
        "params.lambda or residual.fd_h", weakform.sample_points_away_from_band,
        geom, params, config["residual.fd_points"], h, rng,
    )
    fields = weakform.default_test_fields(geom, params)

    table = {"field": [], "cells": [], "residual": []}
    all_ok = True
    measured = 0
    field_results = {}
    for name, phi in fields.items():
        study = _checked(
            "residual.order", weakform.linear_system_refinement, geom, params, phi,
            levels=levels, order=order,
        )
        all_ok = all_ok and study.converged
        measured += int(np.count_nonzero(study.measured))
        for cells, res in zip(study.levels, study.residuals):
            table["field"].append(name)
            table["cells"].append("x".join(map(str, cells)))
            table["residual"].append(res)
        field_results[name] = {
            "residuals": study.residuals.tolist(),
            "orders": study.orders.tolist(),
            # False where an order compares residuals at the roundoff floor
            "measured": study.measured.tolist(),
            "converged": study.converged,
        }

    scalar = weakform.ScalarBumpField(
        geom,
        (geom.rho + 0.15 * geom.width, geom.R - 0.15 * geom.width),
        weakform.FourierPoly(((0, 1.0, 0.0), (1, 0.4, 0.0), (3, 0.0, 0.2))),
    )
    div_residual = weakform.weak_residual_divergence(
        lambda r, th, tv: subsolution.azimuthal(subsolution.alpha(r, tv, geom, params), th),
        scalar, geom, t=0.37 * geom.T,
    )
    div_ok = abs(div_residual) < 1e-10

    # independent finite-difference route for the two radial equations
    res_coarse = weakform.radial_system_residual(geom, params, r_pts, t_pts, h=h)
    res_fine = weakform.radial_system_residual(geom, params, r_pts, t_pts, h=h / 2)
    ratios = []
    for coarse, fine in zip(res_coarse, res_fine):
        keep = np.abs(fine) > 1e-13
        ratios.append(float(np.median(np.abs(coarse[keep]) / np.abs(fine[keep]))))
    fd_ok = all(3.5 <= ratio <= 4.5 for ratio in ratios)

    results = _judged_admissible({
        "fields": field_results,
        "divergence_residual": div_residual,
        "fd_median_ratios": ratios,
        "evidence": measured,
        "ok": bool(all_ok and div_ok and fd_ok),
    }, geom, params)
    return table, results, "weak-form residuals"


def cmd_viscosity(config):
    geom = _geometry(config)
    nu = config["viscosity.nu"]
    distances, slope = _checked(
        "viscosity settings", viscosity.vanishing_viscosity_study, geom, nu,
        config["viscosity.t_probe"], config["viscosity.n"], config["viscosity.dt"],
    )
    results = {
        "nu": nu,
        "distances": distances.tolist(),
        "t_probe": config["viscosity.t_probe"],
        "slope": slope,
        "evidence": len(nu),
        "ok": bool(np.all(np.diff(distances) < 0)),
    }
    columns = {"nu": nu, "l2_rdr_distance": distances}
    return columns, results, f"viscosity sweep (slope {slope:.3f})"


def cmd_boundary(config):
    geom = _geometry(config)
    alpha = config["boundary.holder_alpha"]
    chi = boundary_layer.SmoothstepCutoff()
    psi = boundary_layer.SineStreamField(geom)
    v = _checked("boundary.holder_alpha", boundary_layer.HolderVelocity, alpha)
    report = _checked(
        "boundary.eps", boundary_layer.scaling_study, v, psi, chi, config["boundary.eps"], geom,
    )
    columns = {
        "eps": report.eps,
        **{f"I{k + 1}": report.I_values[:, k] for k in range(4)},
        "decomposition_error": report.consistency,
        "l2_distance": report.l2_distances,
    }
    results = {
        "holder_alpha": alpha,
        "eps": report.eps.tolist(),
        "I_values": report.I_values.tolist(),
        "slopes": list(report.slopes),
        "predicted_exponents": list(report.predicted),
        "vacuous": list(report.vacuous),
        "max_decomposition_error": float(np.max(report.consistency)),
        "l2_slope": report.l2_slope,
        "evidence": report.vacuous.count(False),
        "ok": bool(
            report.slopes_meet_bounds()
            and np.max(report.consistency) < 1e-8
            and report.l2_slope >= 0.5
        ),
    }
    slopes_txt = ", ".join("vacuous" if s is None else f"{s:.2f}" for s in report.slopes)
    return columns, results, f"boundary-layer slopes ({slopes_txt})"


_HANDLERS = {
    "validate": cmd_validate,
    "subsolution": cmd_subsolution,
    "energy": cmd_energy,
    "burgers": cmd_burgers,
    "residual": cmd_residual,
    "viscosity": cmd_viscosity,
    "boundary": cmd_boundary,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotsub",
        description="Construct the rotational annulus subsolution and verify its properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name, help=f"run the {name} checks")
        cmd.add_argument("--config", default=None, help="JSON config file with dotted keys")
        cmd.add_argument("--out", default=".", help="output directory for reports and CSV files")
        for key in DEFAULT_CONFIG:
            cmd.add_argument(f"--{key}", dest=key, default=None, metavar="VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in DEFAULT_CONFIG and value is not None
    }
    try:
        config = load_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        columns, results, summary = _HANDLERS[args.command](config)
        if columns is not None:
            write_csv(out_dir / f"{args.command}.csv", columns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # no verdict passes on zero evidence
    results["ok"] = bool(results["ok"] and results["evidence"] > 0)
    for v in results.get("violations", ()):
        print(f"violated: {v['description']} (value {v['value']}, bound {v['bound']})")
    print(f"{summary}: {'PASS' if results['ok'] else 'FAIL'}")
    report = {
        "command": args.command,
        "results": results,
        "provenance": {
            "version": __version__,
            "seed": config["seed"],
            # the residual numbers depend on it at roundoff level
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "config": config,
            "wall_time_s": time.perf_counter() - started,
        },
    }
    _write_report(out_dir, args.command, report)
    return 0 if results["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
