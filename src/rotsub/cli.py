"""Command-line front end: JSON reports and CSV tables for every check.

Subcommands: validate | subsolution | energy | burgers | residual | viscosity
| boundary.  Configuration is a JSON object with flat dotted keys (see
``DEFAULT_CONFIG``); every key can be overridden on the command line by a flag
of the same name.  Exit codes: 0 all checks pass, 1 a check failed or
measured nothing (``evidence`` 0), 2 for usage or configuration errors,
among them a configuration whose numbers overflow double precision.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, boundary_layer, burgers, subsolution, viscosity, weakform
from .geometry import (
    AnnulusGeometry,
    SubsolutionParams,
    epsilon_upper_bound,
    lambda_upper_bound,
    validate_params,
)
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


def _cell_texts(column, texts: dict) -> list:
    """Cell texts of ``column`` in C order: ``repr`` of floats, ``str`` of
    integers and strings, ``true``/``false`` for booleans.

    ``texts`` is the bits -> text dict of the column's dtype, kept for the
    whole file: repr depends only on a float's bits, so each distinct pattern
    is formatted once, and keying on bits keeps -0.0 apart from 0.0 and finds
    nan.
    """
    if column.dtype.kind == "f":
        bits = column.view(f"u{column.itemsize}").ravel()
        keys = bits.tolist()
        new = list(set(keys).difference(texts))
        values = np.array(new, dtype=bits.dtype).view(column.dtype).tolist()
        texts.update(zip(new, map(repr, values)))
        return list(map(texts.__getitem__, keys))
    values = column.ravel().tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    return list(map(str, values))


def _segment_texts(segment, start: int, stop: int, block: tuple) -> list:
    """Joined cell texts of a segment, consecutive columns of one shape each
    with its text dict, for the rows of one block in C order over ``block``.

    A segment that runs along the first axis is cut to the block; one that
    does not is the same in every block.  Its cells are joined once per
    element of its own shape, then repeated across the block's other axes.
    """
    shape = segment[0][0].shape
    if len(shape) == len(block) and shape[0] != 1:
        segment = [(a[start:stop], column_texts) for a, column_texts in segment]
        shape = (stop - start, *shape[1:])
    texts = [_cell_texts(a, column_texts) for a, column_texts in segment]
    joined = texts[0] if len(texts) == 1 else list(map(",".join, zip(*texts)))
    if shape == block:
        return joined
    return np.broadcast_to(np.array(joined, dtype=object).reshape(shape), block).ravel().tolist()


def write_csv(path: Path, columns: dict):
    """Write columns (header -> values) as a CSV file with one row per element
    of the shape they broadcast to, in C order; a flat table is the 1-D case.

    Rows are formatted and streamed in blocks of whole slices along the first
    axis, about ``CSV_BLOCK_ROWS`` rows each, which bounds the memory held by
    formatted text.  Each distinct bit pattern of a float dtype is formatted
    once per file.  Consecutive columns of one shape form a segment joined once per
    element of that shape (once per (t, r) node for the radial fields of
    ``sample_columns``), and each row joins its segments.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    try:
        shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else (0,)
    except ValueError as exc:
        raise ValueError(f"CSV columns of shapes {[a.shape for a in arrays]} do not broadcast "
                         f"for {path}") from exc
    segments = []
    texts = {}  # one bits -> text dict per dtype, shared by its columns
    for a in arrays:
        if not segments or segments[-1][0][0].shape != a.shape:
            segments.append([])
        segments[-1].append((a, texts.setdefault(a.dtype, {})))
    step = max(1, CSV_BLOCK_ROWS // max(1, math.prod(shape[1:])))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, shape[0], step):
            stop = min(start + step, shape[0])
            block = (stop - start, *shape[1:])
            cells = [_segment_texts(segment, start, stop, block) for segment in segments]
            cells[-1] = [text + "\n" for text in cells[-1]]  # the last cell ends its row
            fh.writelines(map(",".join, zip(*cells)))


def _write_report(out_dir: Path, name: str, report: dict):
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blas_threads():
    """Size of the OpenBLAS thread pool numpy runs, read from the library its
    wheel bundles; the OPENBLAS_NUM_THREADS variable where that library or its
    thread-count function is missing.

    The variable alone can be wrong: a caller that loaded numpy before rotsub
    set it keeps the pool numpy started with.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        try:
            openblas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        # the 64-bit-integer build suffixes its symbols with 64_
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            get_num_threads = getattr(openblas, symbol, None)
            if get_num_threads is not None:
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                return get_num_threads()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _judged_admissible(results: dict, geom, params) -> dict:
    """``results`` with the violated admissibility bounds under ``violations``:
    a check may hold for inadmissible parameters, but it is never a PASS."""
    violations = validate_params(geom, params)
    results["violations"] = violations
    results["ok"] = results["ok"] and not violations
    return results


# Each handler maps a config to ``(columns, results, summary)``: the CSV
# columns (header -> values, or None for no table), the JSON results with the
# verdict ``ok`` and the ``evidence`` count of measured quantities behind it,
# and the text printed before ": PASS" or ": FAIL".

def cmd_validate(config):
    geom = _geometry(config)
    params = _params(config)
    violations = validate_params(geom, params)
    epsilon_bound = epsilon_upper_bound(geom, params.lam)
    results = {
        "lambda": params.lam,
        "epsilon": params.epsilon,
        "lambda_bound": lambda_upper_bound(geom),
        # strict JSON has no infinity: with rho^2 lam >= 1 epsilon has no upper bound
        "epsilon_bound": epsilon_bound if math.isfinite(epsilon_bound) else None,
        # epsilon < 1 makes the energy gap inside the band strict; not a bound
        "epsilon_strict": params.epsilon < 1.0,
        "violations": violations,
        "evidence": 2,
        "ok": not violations,
    }
    if results["ok"] and not results["epsilon_strict"]:
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
    # radial cell centers, so no sample sits on the domain boundary
    r = geom.rho + (np.arange(n_r) + 0.5) * geom.width / n_r
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    t = np.linspace(0.0, geom.T, n_t)
    results = _judged_admissible(check_constraint_structure(geom, params, r, theta, t), geom, params)
    # admissibility needs vbar(t) -> v0 as t -> 0: reported, not judged
    results["initial_data_attainment"] = weakform.initial_data_attainment(geom, params)
    # the table is built only once the check is done, so the two never share memory
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
    if validate_params(geom, params):
        # the verdict is FAIL whatever the meshes show, and a fan that covers the
        # annulus costs lam * n_cells^2 cell updates: report without solving
        results = {"t": t_probe, "n_cells": list(meshes), "evidence": 0, "ok": False}
        return None, _judged_admissible(results, geom, params), "burgers oracle (not run)"
    errors = [burgers.compare_exact_vs_fv(geom, params, t_probe, n) for n in meshes]
    l1 = [e[0] for e in errors]
    linf = [e[1] for e in errors]
    in_bounds = all(e[2] <= 1.0 + 1e-12 for e in errors)
    ratios = [l1[i] / l1[i + 1] for i in range(len(l1) - 1)]
    # a ratio of two roundoff-level errors, as when the fan is narrower than a
    # cell, measures nothing
    measured = [min(l1[i], l1[i + 1]) > weakform.ROUNDOFF_FLOOR for i in range(len(ratios))]
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
        "evidence": sum(measured),
        "ok": in_bounds and all(1.7 <= r <= 2.3 for r, m in zip(ratios, measured) if m),
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
        all_ok = all_ok and study["converged"]
        measured += sum(study["measured"])
        for k, res in enumerate(study["residuals"]):
            table["field"].append(name)
            # level k of linear_system_refinement has 2^(k+1) cells per axis
            table["cells"].append("x".join([str(2 * 2**k)] * 3))
            table["residual"].append(res)
        field_results[name] = study

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
    distances, slope, drifts = _checked(
        "viscosity settings", viscosity.vanishing_viscosity_study, geom, nu,
        config["viscosity.t_probe"], config["viscosity.n"], config["viscosity.dt"],
    )
    results = {
        "nu": nu,
        "distances": distances.tolist(),
        "t_probe": config["viscosity.t_probe"],
        "slope": slope,
        # |E(t) + dissipated - E(0)| of each solve: Crank-Nicolson health, not judged
        "energy_drift": drifts,
        "evidence": len(nu),
        "ok": bool(np.all(np.diff(distances) < 0)),
    }
    columns = {"nu": nu, "l2_rdr_distance": distances}
    return columns, results, f"viscosity sweep (slope {slope:.3f})"


def cmd_boundary(config):
    geom = _geometry(config)
    chi = boundary_layer.SmoothstepCutoff()
    psi = boundary_layer.SineStreamField(geom)
    v = _checked("boundary.holder_alpha", boundary_layer.HolderVelocity, config["boundary.holder_alpha"])
    columns, results = _checked(
        "boundary.eps", boundary_layer.scaling_study, v, psi, chi, config["boundary.eps"], geom,
    )
    slopes_txt = ", ".join("vacuous" if s is None else f"{s:.2f}" for s in results["slopes"])
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        started = time.perf_counter()
        try:
            # a report of numbers past double precision would hold NaN, which
            # strict JSON does not have
            with np.errstate(over="raise"):
                columns, results, summary = _HANDLERS[args.command](config)
        except FloatingPointError as exc:
            raise ConfigError(f"the configuration overflows double precision ({exc})") from exc
        handled = time.perf_counter()
        if columns is not None:
            write_csv(out_dir / f"{args.command}.csv", columns)
        written = time.perf_counter()
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
            "blas_threads": _blas_threads(),
            "config": config,
            "wall_time_s": time.perf_counter() - started,
            "timings": {"handler_s": handled - started, "write_csv_s": written - handled},
        },
    }
    _write_report(out_dir, args.command, report)
    return 0 if results["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
