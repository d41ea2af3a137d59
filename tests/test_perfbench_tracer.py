"""The benchmark tracer wraps library functions by name: each must exist, and
its counters must read what those functions really take and return."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rotsub.cli import write_csv
from rotsub.geometry import AnnulusGeometry, SubsolutionParams
from rotsub.quadrature import spacetime_rule
from rotsub.subsolution import qbar

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # tracer.py imports only the standard library at top level
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = sorted(_load_tracer().SPANS.values()) + [
    ("rotsub.burgers", "godunov_step"),
    ("rotsub.viscosity", "_CrankNicolson.step"),
]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_target_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_counters_read_real_return_values(tmp_path):
    # each counter of a traced pass runs on what its function really returns
    # or takes, so a change of those shapes cannot silently break --trace 1
    tracer = _load_tracer()
    assert set(tracer._COUNTERS) == {"subsolution.qbar", "quadrature.spacetime_rule", "cli.write_csv"}
    counts = Counter()
    rule = spacetime_rule((0.2, 0.8), (1.2, 1.8), lambda t: (1.5 - 0.1 * t, 1.5 + 0.1 * t),
                          cells=(2, 2, 2), order=3)
    tracer._COUNTERS["quadrature.spacetime_rule"](counts, (), rule)
    assert counts["quadrature.spacetime_nodes"] == rule.weights.size == rule.r.size * rule.theta.size

    geom, params = AnnulusGeometry(1.0, 2.0, 1.5, 1.0), SubsolutionParams(0.1, 0.5)
    args = (rule.r, rule.t, geom, params)
    tracer._COUNTERS["subsolution.qbar"](counts, args, qbar(*args))
    assert counts["subsolution.qbar_points"] == rule.r.size
    assert counts["subsolution.qbar_times"] == np.unique(rule.t).size == 6

    path = tmp_path / "table.csv"
    write_csv(path, {"a": np.arange(3.0), "b": np.array([True, False, True])})
    tracer._COUNTERS["cli.write_csv"](counts, (path, None), None)
    assert counts["cli.csv_rows"] == 3
    assert counts["cli.csv_bytes"] == path.stat().st_size
