import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotsub import burgers, cli


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rotsub", *args],
        capture_output=True,
        text=True,
    )


def read_report(out_dir: Path, command: str) -> dict:
    with open(out_dir / f"{command}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_strict_report(out_dir: Path, command: str) -> dict:
    """The report, refusing NaN and Infinity, which standard JSON does not have."""
    text = (out_dir / f"{command}.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=_reject)


class TestValidateCommand:
    def test_default_config_passes(self, tmp_path):
        _run_without_blas_threads([sys.executable, "-m", "rotsub", "validate", "--out", str(tmp_path)])
        report = read_report(tmp_path, "validate")
        assert report["results"]["ok"] is True
        assert report["provenance"]["version"]
        # importing rotsub before numpy sizes the pool to one thread
        assert report["provenance"]["blas_threads"] == 1

    def test_lambda_violation_exits_one_and_cites_bound(self, tmp_path):
        result = run_cli("validate", "--params.lambda", "0.3", "--out", str(tmp_path))
        assert result.returncode == 1
        report = read_report(tmp_path, "validate")
        violations = report["results"]["violations"]
        assert violations and violations[0]["bound"] == 0.25
        assert "0.25" in result.stdout

    def test_missing_required_field_exits_two(self, tmp_path):
        config = tmp_path / "partial.json"
        config.write_text(json.dumps({"geometry.rho": 1.0}))
        result = run_cli("validate", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "missing required keys" in result.stderr

    def test_unknown_config_key_exits_two(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "geometry.rho": 1.0, "geometry.R": 2.0, "geometry.r0": 1.5, "geometry.T": 1.0,
            "params.lambda": 0.1, "params.epsilon": 0.5, "geometry.bogus": 3.0,
        }))
        result = run_cli("validate", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "unknown config keys" in result.stderr

    def test_invalid_geometry_exits_two(self, tmp_path):
        result = run_cli("validate", "--geometry.rho", "3.0", "--out", str(tmp_path))
        assert result.returncode == 2

    def test_malformed_json_exits_two(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        result = run_cli("validate", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2

    def test_boolean_for_number_exits_two(self, tmp_path):
        # float(True) is 1.0: a boolean must not pass for a count or a rate
        config = tmp_path / "bools.json"
        config.write_text(json.dumps({
            "geometry.rho": 1.0, "geometry.R": 2.0, "geometry.r0": 1.5, "geometry.T": 1.0,
            "params.lambda": 0.1, "params.epsilon": False, "grids.n_t": True,
        }))
        result = run_cli("subsolution", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert "boolean" in result.stderr
        assert not (tmp_path / "subsolution.json").exists()

    def test_unknown_flag_exits_two(self, tmp_path):
        result = run_cli("validate", "--no-such-flag", "1")
        assert result.returncode == 2

    def test_epsilon_strict_warning_not_failure(self, tmp_path):
        result = run_cli("validate", "--params.epsilon", "1.05", "--out", str(tmp_path))
        assert result.returncode == 0
        report = read_report(tmp_path, "validate")
        assert report["results"]["epsilon_strict"] is False
        assert "warning" in report["results"]

    def test_unbounded_epsilon_is_null(self, tmp_path):
        # rho^2 lam >= 1 leaves epsilon without an upper bound
        assert cli.main(["validate", "--params.lambda", "1", "--out", str(tmp_path)]) == 1
        results = read_strict_report(tmp_path, "validate")["results"]
        assert results["epsilon_bound"] is None
        assert results["evidence"] == 2


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("subsolution")
    result = run_cli(
        "subsolution", "--grids.n_r", "20", "--grids.n_theta", "8",
        "--grids.n_t", "3", "--out", str(out),
    )
    assert result.returncode == 0
    return out


class TestSubsolutionCommand:
    HEADER = "r,theta,t,f,alpha,beta,gamma,qbar,vbar_x,vbar_y,u11,u12,egen,ebar,in_U"

    def test_header_byte_exact(self, out_dir):
        first_line = (out_dir / "subsolution.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first_line == self.HEADER
        # the CSV header is the key order of sample_columns; README documents it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"`{self.HEADER}`" in readme.splitlines()

    def test_all_rows_satisfy_constraint(self, out_dir):
        with open(out_dir / "subsolution.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["egen"]) <= float(row["ebar"]) + 1e-15

    def test_t0_rows_outside_band(self, out_dir):
        with open(out_dir / "subsolution.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        t0 = [row for row in rows if float(row["t"]) == 0.0]
        assert t0
        assert all(row["in_U"] == "false" for row in t0)

    def test_u22_implied_by_u11(self, out_dir):
        # the matrix is traceless: only u11, u12 are emitted
        with open(out_dir / "subsolution.csv", newline="") as fh:
            header = fh.readline().strip().split(",")
        assert "u22" not in header

    def test_csv_locale_independent(self, out_dir):
        data = (out_dir / "subsolution.csv").read_bytes()
        assert b"\r" not in data
        assert b";" not in data
        assert b"," in data and b"." in data

    def test_deterministic_output(self, tmp_path):
        args = ["subsolution", "--grids.n_r", "10", "--grids.n_theta", "4", "--grids.n_t", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)).returncode == 0
        assert run_cli(*args, "--out", str(out_b)).returncode == 0
        assert (out_a / "subsolution.csv").read_bytes() == (out_b / "subsolution.csv").read_bytes()
        rep_a = read_report(out_a, "subsolution")
        rep_b = read_report(out_b, "subsolution")
        assert rep_a["results"] == rep_b["results"]
        assert rep_a["provenance"]["config"] == rep_b["provenance"]["config"]


class TestEnergyCommand:
    def test_dissipative_run(self, tmp_path):
        result = run_cli("energy", "--out", str(tmp_path))
        assert result.returncode == 0
        with open(tmp_path / "energy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        e0 = 3.0 * 3.141592653589793 / 4.0
        energies = [float(row["energy_total"]) for row in rows]
        for row in rows:
            assert float(row["E0"]) == pytest.approx(e0, rel=1e-12)
            assert float(row["deficit"]) == pytest.approx(e0 - float(row["energy_total"]), abs=1e-14)
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_conservative_run(self, tmp_path):
        result = run_cli("energy", "--params.epsilon", "0", "--out", str(tmp_path))
        assert result.returncode == 0
        report = read_report(tmp_path, "energy")
        assert report["results"]["expected_behavior"] == "conserved"
        assert report["results"]["ok"] is True


    @pytest.mark.parametrize("lam", ["-0.1", "0.6", "2"])
    def test_deficit_matches_energy_for_inadmissible_lambda(self, tmp_path, lam):
        # the fan overruns both walls from t = 5/6 at lam 0.6 and from t = 1/4
        # at lam 2, and opens no band at lam < 0: D is the deficit over the
        # annulus, so it is E0 - E
        assert cli.main(["energy", "--params.lambda", lam, "--out", str(tmp_path)]) == 1
        results = read_strict_report(tmp_path, "energy")["results"]
        e0 = results["E0"]
        assert len(results["D"]) == len(results["energy"]) == 9
        for energy, deficit in zip(results["energy"], results["D"]):
            assert abs(e0 - energy - deficit) <= 1e-10 * e0
        assert results["ok"] is False and results["violations"]


class TestNumericalCommands:
    def test_burgers(self, tmp_path):
        result = run_cli(
            "burgers", "--burgers.n_cells", "2000,4000,8000", "--out", str(tmp_path)
        )
        assert result.returncode == 0
        report = read_report(tmp_path, "burgers")
        assert all(1.7 <= ratio <= 2.3 for ratio in report["results"]["l1_ratios"])
        assert report["results"]["max_principle_ok"] is True

    def test_residual(self, tmp_path):
        result = run_cli("residual", "--residual.fd_points", "60", "--out", str(tmp_path))
        assert result.returncode == 0
        report = read_report(tmp_path, "residual")
        assert abs(report["results"]["divergence_residual"]) < 1e-10
        for ratio in report["results"]["fd_median_ratios"]:
            assert 3.5 <= ratio <= 4.5

    def test_viscosity(self, tmp_path):
        result = run_cli(
            "viscosity", "--viscosity.n", "400", "--viscosity.dt", "0.005",
            "--out", str(tmp_path),
        )
        assert result.returncode == 0
        report = read_report(tmp_path, "viscosity")
        distances = report["results"]["distances"]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        # the Crank-Nicolson energy balance holds to roundoff, one drift per viscosity
        drifts = report["results"]["energy_drift"]
        assert len(drifts) == len(distances)
        assert all(0.0 <= d < 1e-10 for d in drifts)

    def test_boundary(self, tmp_path):
        result = run_cli("boundary", "--out", str(tmp_path))
        assert result.returncode == 0
        report = read_report(tmp_path, "boundary")
        assert report["results"]["ok"] is True
        assert report["results"]["max_decomposition_error"] < 1e-8
        assert (tmp_path / "boundary.csv").exists()

    def test_boundary_seed_echoed(self, tmp_path):
        result = run_cli("boundary", "--seed", "7", "--out", str(tmp_path))
        assert result.returncode == 0
        report = read_report(tmp_path, "boundary")
        assert report["provenance"]["seed"] == 7


# scipy is needed by the Crank-Nicolson solver only, and numpy.polynomial only
# once a Gauss rule is built, so neither belongs in every command's start-up
@pytest.mark.parametrize("package", ["scipy", "numpy.polynomial"])
def test_import_cli_leaves_package_unloaded(package):
    code = f"import sys, rotsub.cli; print(sorted(m for m in sys.modules if m.startswith({package!r})))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _run_without_blas_threads(argv, **env):
    """Run ``argv`` with OPENBLAS_NUM_THREADS taken from ``env`` only."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(argv, capture_output=True, text=True, env={**base, **env})
    assert result.returncode == 0, result.stderr
    return result.stdout


# numpy's and scipy's OpenBLAS would each start a pool of spinning workers
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_blas_runs_on_one_thread_by_default():
    code = (
        "import os, rotsub.cli, numpy as np\n"
        "from scipy.linalg.lapack import dgttrs\n"
        "np.dot(np.ones(10**6), np.ones(10**6))\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert _run_without_blas_threads([sys.executable, "-c", code]).strip() == "1"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_blas_threads_is_the_live_pool(tmp_path):
    # numpy loaded first starts its default pool, though rotsub then sets the variable to 1
    code = (
        "import os, sys, numpy, rotsub.cli\n"
        "assert rotsub.cli.main(['validate', '--out', sys.argv[1]]) == 0\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    threads = _run_without_blas_threads([sys.executable, "-c", code, str(tmp_path)]).splitlines()[-1]
    assert read_report(tmp_path, "validate")["provenance"]["blas_threads"] == int(threads)


def test_caller_blas_threads_kept():
    code = "import os, rotsub; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_without_blas_threads([sys.executable, "-c", code], OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_residual_csv_same_with_blas_threads_unset_or_one(tmp_path):
    # a threaded dot product splits its sum by thread count
    tables = []
    for label, env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / label
        argv = [sys.executable, "-m", "rotsub", "residual", "--seed", "0", "--out", str(out)]
        _run_without_blas_threads(argv, **env)
        tables.append((out / "residual.csv").read_bytes())
    assert tables[0] == tables[1]


def _fmt(value) -> str:
    """Per-cell CSV formatting of the original row writer (reference)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_per_cell_writer(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    floats[:3] = [math.nan, -0.0, math.inf][:n_rows]
    columns = {
        "x": floats,
        "n": rng.integers(-10**12, 10**12, n_rows),
        "name": [f"field{k}" for k in range(n_rows)],
        "flag": rng.random(n_rows) > 0.5,
        "py_float": floats.tolist(),
        "py_int": [int(v) for v in rng.integers(0, 100, n_rows)],
        "py_bool": [k % 3 == 0 for k in range(n_rows)],
    }
    cli.write_csv(tmp_path / "block.csv", columns)
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(*columns.values())
    )
    assert (tmp_path / "block.csv").read_bytes() == expected.encode("utf-8")


def _assert_matches_per_cell_writer(path, columns):
    # the reference formats each cell of the columns broadcast to one shape and raveled
    cli.write_csv(path, columns)
    flat = [a.ravel() for a in np.broadcast_arrays(*map(np.asarray, columns.values()))]
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(*flat)
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_csv_repeated_floats_keep_their_bits(tmp_path):
    # each distinct bit pattern is formatted once per block: values equal as
    # floats (0.0, -0.0) or unequal to themselves (nan) must keep their own text
    quiet_nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, *quiet_nans, math.inf, -math.inf, 5e-324, 0.1])
    n_rows = cli.CSV_BLOCK_ROWS + 300
    rng = np.random.default_rng(0)
    heavy = specials[rng.integers(0, specials.size, n_rows)]
    # a run of one value across the block boundary
    heavy[cli.CSV_BLOCK_ROWS - 100:cli.CSV_BLOCK_ROWS + 100] = 1.0 / 3.0
    pairs = np.stack([heavy, heavy[::-1]], axis=1)
    columns = {
        "heavy": heavy,
        "strided": pairs[:, 0],
        "strided_reversed": pairs[:, 1],
        "single": heavy.astype(np.float32),
    }
    assert not columns["strided"].flags.contiguous
    _assert_matches_per_cell_writer(tmp_path / "heavy.csv", columns)


def test_write_csv_subsolution_table_matches_per_cell_writer(tmp_path):
    # sample_columns at the default grid: gamma holds both 0.0 and -0.0
    columns, _, _ = cli.cmd_subsolution(cli.load_config())
    assert columns["vbar_x"].shape == (5, 50, 32) and columns["f"].shape == (5, 50, 1)
    _assert_matches_per_cell_writer(tmp_path / "subsolution.csv", columns)


@pytest.mark.parametrize("n_t, n_r, n_theta", [(3, 0, 4), (5, 7, 1), (3, 300, 16), (700, 3, 2)])
def test_write_csv_broadcast_columns_match_per_cell_writer(tmp_path, n_t, n_r, n_theta):
    # (3, 300, 16) writes one time slice per block and (700, 3, 2) many, so the
    # special floats recur in different blocks and must keep their own text
    rng = np.random.default_rng(n_t * n_r + n_theta)
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, *nans, 1.0 / 3.0, -2.5e-300])
    cells = specials[rng.integers(0, specials.size, (n_t, n_r, n_theta))]
    columns = {
        "r": np.linspace(1.0, 2.0, n_r)[:, None],
        "theta": np.linspace(0.0, 6.0, n_theta, dtype=np.float32),
        "t": np.linspace(0.0, 1.0, n_t)[:, None, None],
        "middle": rng.standard_normal((1, n_r, 1)),
        "special": cells,
        "special32": cells.astype(np.float32),
        # values first met in later blocks, and met again after that
        "rounded": np.round(rng.standard_normal((n_t, n_r, n_theta)) * 3.0, 1),
        "flag": rng.random((n_t, n_r, 1)) > 0.5,
        "radial": cells[:, :, :1],
        "count": rng.integers(-5, 5, (n_t, 1, n_theta)),
    }
    _assert_matches_per_cell_writer(tmp_path / "broadcast.csv", columns)
    assert (tmp_path / "broadcast.csv").read_bytes().count(b"\n") == 1 + n_t * n_r * n_theta


def test_burgers_roundoff_errors_are_no_evidence(tmp_path):
    # a fan narrower than any cell leaves L1 errors of about 2.2e-16 on every
    # mesh; their ratios of about 1 measure no convergence order
    argv = ["burgers", "--params.lambda", "1e-300", "--burgers.n_cells", "200,400,800"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    results = read_strict_report(tmp_path, "burgers")["results"]
    assert max(results["l1_error"]) < 1e-13
    assert results["evidence"] == 0 and results["ok"] is False


def test_burgers_solves_each_mesh_once(tmp_path, monkeypatch):
    solve = burgers.godunov_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(burgers, "godunov_solve", counted)
    config = cli.load_config(overrides={"burgers.n_cells": "500,1000,2000"})
    _, results, _ = cli.cmd_burgers(config)
    assert len(calls) == 3
    assert results["max_principle_ok"] is True


def test_inadmissible_burgers_reports_without_solving(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved for inadmissible parameters")

    monkeypatch.setattr(burgers, "godunov_solve", refuse)
    assert cli.main(["burgers", "--params.lambda", "100", "--out", str(tmp_path)]) == 1
    results = read_strict_report(tmp_path, "burgers")["results"]
    assert results["evidence"] == 0 and results["ok"] is False
    assert [v["name"] for v in results["violations"]] == ["lambda_upper"]
    assert not (tmp_path / "burgers.csv").exists()


class TestVerdictsNeedEvidence:
    def test_energy_decrease_below_roundoff_passes(self, tmp_path):
        assert cli.main(["energy", "--params.epsilon", "1e-15", "--out", str(tmp_path)]) == 0
        results = read_report(tmp_path, "energy")["results"]
        assert results["ok"] is True
        deficit = results["D"]
        assert deficit[0] == 0.0
        assert all(b > a for a, b in zip(deficit, deficit[1:]))

    @pytest.mark.parametrize("flag", ["--grids.n_t=1", "--grids.n_r=0"])
    def test_subsolution_without_band_samples_fails(self, tmp_path, flag):
        assert cli.main(["subsolution", flag, "--out", str(tmp_path)]) == 1
        results = read_strict_report(tmp_path, "subsolution")["results"]
        assert results["n_in_band"] == 0
        assert results["min_gap_in_band"] is None
        assert results["first_violation"]["kind"] == "no_evidence"
        assert results["ok"] is False

    @pytest.mark.parametrize("lam", ["0", "-0.1"])
    def test_subsolution_without_band_has_no_attainment_order(self, tmp_path, lam):
        # lam <= 0 opens no band: nothing to fit an order of attainment to
        assert cli.main(["subsolution", "--params.lambda", lam, "--out", str(tmp_path)]) == 1
        results = read_strict_report(tmp_path, "subsolution")["results"]
        attainment = results["initial_data_attainment"]
        assert attainment["l2_sq_order"] is None and attainment["pairing_order"] is None
        assert attainment["l2_sq"] == [0.0] * len(attainment["times"])
        assert results["ok"] is False

    def test_residual_with_no_measured_order_fails(self, tmp_path, capsys):
        # at order 8 every level pair sits below the 1e-13 roundoff floor
        assert cli.main(["residual", "--residual.order", "8", "--out", str(tmp_path)]) == 1
        results = read_report(tmp_path, "residual")["results"]
        assert results["evidence"] == 0
        assert results["ok"] is False
        assert capsys.readouterr().out.endswith("weak-form residuals: FAIL\n")

    @pytest.mark.parametrize("argv", [
        ["energy", "--energy.n_times=1"],
        ["burgers", "--burgers.t=0"],
        ["burgers", "--burgers.t=-0.5"],
        ["residual", "--residual.levels=1"],
        ["residual", "--residual.fd_points=0"],
        ["residual", "--residual.fd_h=0"],
        ["viscosity", "--viscosity.t_probe=0"],
        ["subsolution", "--grids.n_theta=0"],
    ])
    def test_evidence_free_settings_are_config_errors(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / f"{argv[0]}.json").exists()


@pytest.mark.parametrize("argv", [
    ["viscosity", "--viscosity.n", "4"],
    ["boundary", "--boundary.holder_alpha", "2"],
    ["boundary", "--boundary.eps", "0.04,0.02"],
    ["viscosity", "--viscosity.nu", "0.01,0.001"],
    ["residual", "--params.lambda", "0.001"],
    ["residual", "--residual.order", "0"],
    ["residual", "--residual.fd_h", "-0.001"],
    ["burgers", "--burgers.n_cells", "0,1"],
    ["burgers", "--burgers.n_cells", "1,2"],
    ["viscosity", "--viscosity.dt", "2"],
    ["burgers", "--burgers.t", "inf"],
    ["viscosity", "--viscosity.t_probe", "inf"],
    ["viscosity", "--viscosity.dt", "1e-320"],
    ["residual", "--seed", "-1"],
    ["validate", "--seed", "abc"],
    ["validate", "--seed", "1.5"],
    ["validate", "--seed", "inf"],
    ["subsolution", "--grids.n_r", "inf"],
    ["burgers", "--burgers.t", "1.5"],
    ["viscosity", "--viscosity.dt", "1e-300"],
    # numbers past double precision: a report would hold NaN
    ["subsolution", "--params.lambda", "1e308"],
    ["energy", "--params.lambda", "1e308"],
    # an output directory that cannot be made: a file stands at its path or above it
    ["validate", "--out", "{tmp}/file"],
    ["validate", "--out", "{tmp}/file/sub"],
])
def test_domain_errors_are_config_errors(tmp_path, argv):
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    result = run_cli(*argv)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    assert result.stderr.startswith("config error: ")
    assert not (tmp_path / f"{argv[0]}.json").exists()


@pytest.mark.parametrize("argv", [
    ["subsolution", "--grids.n_r", "10", "--grids.n_theta", "4", "--grids.n_t", "3"],
    ["energy"],
    ["burgers", "--burgers.n_cells", "20,40"],
    ["residual", "--residual.levels", "2"],
])
def test_inadmissible_lambda_fails(tmp_path, argv):
    # lambda = 0.3 exceeds 1/R^2 = 0.25: the construction's own checks may
    # hold, but the verdict must not be PASS
    result = run_cli(*argv, "--params.lambda", "0.3", "--out", str(tmp_path))
    assert result.returncode == 1
    results = read_report(tmp_path, argv[0])["results"]
    assert results["ok"] is False
    assert [(v["name"], v["bound"]) for v in results["violations"]] == [("lambda_upper", 0.25)]
    assert "violated:" in result.stdout


_COUNT = st.integers(min_value=-2, max_value=6)
_REAL = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


# small meshes keep the solvers quick; viscosity.dt is never drawn, since a
# tiny step means an unbounded number of steps
_SMALL = {"burgers": ["--burgers.n_cells=2,4"], "viscosity": ["--viscosity.n=8"]}


@settings(max_examples=60, deadline=None)
@example(command="burgers", overrides={"burgers.t": math.inf})
@example(command="viscosity", overrides={"viscosity.t_probe": math.inf})
@example(command="viscosity", overrides={"params.lambda": math.nan})
@example(command="subsolution", overrides={"params.lambda": 0.0})
@example(command="boundary", overrides={"boundary.holder_alpha": 5e-324})
@example(command="subsolution", overrides={"params.lambda": 1e308})
@example(command="energy", overrides={"params.lambda": 1e308})
@given(
    command=st.sampled_from(["validate", "subsolution", "energy", "burgers", "viscosity", "boundary"]),
    overrides=st.fixed_dictionaries({}, optional={
        "grids.n_r": _COUNT,
        "grids.n_theta": _COUNT,
        "grids.n_t": _COUNT,
        "energy.n_times": _COUNT,
        "seed": st.integers(min_value=-3, max_value=3),
        "params.lambda": _REAL,
        "params.epsilon": _REAL,
        "burgers.t": _REAL,
        "viscosity.t_probe": _REAL,
        "boundary.holder_alpha": _REAL,
    }),
)
def test_any_override_ends_in_report_or_config_error(command, overrides):
    flags = [f"--{key}={value!r}" for key, value in overrides.items()]
    argv = [command, *_SMALL.get(command, ()), *flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", tmp])
        if code == 2:
            assert len(stderr.getvalue().strip().splitlines()) == 1, argv
            assert not (Path(tmp) / f"{command}.json").exists(), argv
        else:
            results = read_strict_report(Path(tmp), command)["results"]
            assert code == (0 if results["ok"] else 1), argv


# the results keys of every command at the default configuration: a new
# report field is added here and in the check that measures it
VERDICT = {"ok", "evidence"}
RESULTS_KEYS = {
    "validate": VERDICT | {"lambda", "epsilon", "lambda_bound", "epsilon_bound", "epsilon_strict",
                           "violations"},
    "subsolution": VERDICT | {"n_samples", "n_in_band", "strictness_applicable", "min_gap_in_band",
                              "max_gap_formula_dev", "max_eq_dev_outside", "first_violation",
                              "violations", "initial_data_attainment"},
    "energy": VERDICT | {"E0", "times", "energy", "D", "expected_behavior", "violations"},
    "burgers": VERDICT | {"t", "n_cells", "l1_error", "linf_interior", "l1_ratios",
                          "max_principle_ok", "violations"},
    "residual": VERDICT | {"fields", "divergence_residual", "fd_median_ratios", "violations"},
    "viscosity": VERDICT | {"nu", "distances", "t_probe", "slope", "energy_drift"},
    "boundary": VERDICT | {"holder_alpha", "eps", "I_values", "slopes", "predicted_exponents",
                           "vacuous", "max_decomposition_error", "l2_slope"},
}


@pytest.mark.parametrize("command", RESULTS_KEYS)
def test_results_schema(tmp_path, command):
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    report = read_strict_report(tmp_path, command)
    results = report["results"]
    assert set(results) == RESULTS_KEYS[command]
    # stage timings: the handler, then the CSV writer, both inside the wall time
    timings = report["provenance"]["timings"]
    assert set(timings) == {"handler_s", "write_csv_s"} and min(timings.values()) >= 0.0
    assert sum(timings.values()) <= report["provenance"]["wall_time_s"]
    assert results["ok"] is True
    assert type(results["evidence"]) is int and results["evidence"] > 0
    for field in results.get("fields", {}).values():
        assert set(field) == {"residuals", "orders", "measured", "converged"}
