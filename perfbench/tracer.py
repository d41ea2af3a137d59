"""Traced in-process run of one workload, and the per-layer metrics it yields.

Run as a script, this is a fresh interpreter that imports ``rotsub.cli``
(timed), loads the workload config (timed), and then executes the workload's
operations through ``rotsub.cli.main(argv)`` in passes: one untimed warm-up
pass, then traced and untraced passes in turn until ``--seconds`` of passes
have been measured.  In a traced pass the public functions of each layer are
wrapped under every name they are looked up by (``cli`` binds
``sample_columns``, ``check_constraint_structure`` and ``validate_params``
directly, ``weakform`` binds ``qbar`` and ``spacetime_rule``, and the
handlers are reached through ``cli._HANDLERS``).  Each wrapper records a span
(name, start, end, parent, operation) in memory; two hot inner functions,
``burgers.godunov_step`` and the Crank-Nicolson step, are only counted and
timed, without spans.  Everything is written to one JSON file at the end.

Imported, this module gives ``layer_metrics``, which turns that file into the
per-layer metrics: self time per layer function (its span's duration minus
its child spans), work counts, and the tracing overhead (traced against
untraced passes of the same operations).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

COMMANDS = ("validate", "subsolution", "energy", "burgers", "residual", "viscosity", "boundary")

# span name -> (module, function); the span's self time is reported as "<span>_s"
SPANS = {
    **{f"cli.cmd_{c}": ("rotsub.cli", f"cmd_{c}") for c in COMMANDS},
    "cli.write_csv": ("rotsub.cli", "write_csv"),
    "burgers.godunov_solve": ("rotsub.burgers", "godunov_solve"),
    "burgers.compare_exact_vs_fv": ("rotsub.burgers", "compare_exact_vs_fv"),
    "subsolution.qbar": ("rotsub.subsolution", "qbar"),
    "subsolution.sample_columns": ("rotsub.subsolution", "sample_columns"),
    "subsolution.check_constraint_structure": ("rotsub.subsolution", "check_constraint_structure"),
    "quadrature.spacetime_rule": ("rotsub.quadrature", "spacetime_rule"),
    "weakform.weak_residual_linear_system": ("rotsub.weakform", "weak_residual_linear_system"),
    "weakform.radial_system_residual": ("rotsub.weakform", "radial_system_residual"),
    "weakform.energy_series": ("rotsub.weakform", "energy_series"),
    "viscosity.solve_parabolic": ("rotsub.viscosity", "solve_parabolic"),
    "boundary_layer.scaling_study": ("rotsub.boundary_layer", "scaling_study"),
    # geometry does O(1) work per command: traced for the span tree, no metric
    "geometry.validate_params": ("rotsub.geometry", "validate_params"),
}


# ------------------------------------------------------------------ recording --

class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation, bookkeeping seconds]
        self.stack = []
        self.counts = Counter()
        self.op = None

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(counts, args, result)``
        runs after the span ends, and its time is kept apart from the parent's."""
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, result)
                record[5] = time.perf_counter() - record[2]
            return result
        return traced

    def tally(self, name, fn, size=None):
        """Wrap a hot inner function: count its calls and time them, no span."""
        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.counts[name + ".seconds"] += time.perf_counter() - start
            self.counts[name] += 1
            if size is not None:
                self.counts[name + ".size"] += size(args)
            return result
        return counted


def _count_qbar(counts, args, result):
    import numpy as np  # not at module level: cli.import_s must include numpy's import
    r, t = np.broadcast_arrays(np.asarray(args[0], dtype=float), np.asarray(args[1], dtype=float))
    counts["subsolution.qbar_points"] += r.size
    counts["subsolution.qbar_times"] += np.unique(t).size


def _count_nodes(counts, args, result):
    counts["quadrature.spacetime_nodes"] += result.weights.size


def _count_csv(counts, args, result):
    data = Path(args[0]).read_bytes()
    counts["cli.csv_rows"] += data.count(b"\n") - 1
    counts["cli.csv_bytes"] += len(data)


_COUNTERS = {
    "subsolution.qbar": _count_qbar,
    "quadrature.spacetime_rule": _count_nodes,
    "cli.write_csv": _count_csv,
}


class Tracing:
    """Installs and removes the wrappers of every traced function."""

    def __init__(self, recorder: Recorder):
        import rotsub.burgers
        import rotsub.cli
        import rotsub.viscosity

        modules = [m for name, m in sys.modules.items() if name == "rotsub" or name.startswith("rotsub.")]
        self.patches = []  # (namespace, key, original, replacement)
        for span, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = recorder.span(span, original, _COUNTERS.get(span))
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self.patches.append((vars(mod), key, original, wrapper))
            for key, value in rotsub.cli._HANDLERS.items():
                if value is original:
                    self.patches.append((rotsub.cli._HANDLERS, key, original, wrapper))
        step = rotsub.burgers.godunov_step
        self.patches.append((vars(rotsub.burgers), "godunov_step", step,
                             recorder.tally("burgers.godunov_steps", step, lambda a: a[0].averages.size)))
        cn = rotsub.viscosity._CrankNicolson
        self.patches.append((cn, "step", cn.step, recorder.tally("viscosity.cn_steps", cn.step)))

    def _apply(self, index):
        for namespace, key, *pair in self.patches:
            if isinstance(namespace, type):
                setattr(namespace, key, pair[index])
            else:
                namespace[key] = pair[index]

    def install(self):
        self._apply(1)

    def remove(self):
        self._apply(0)


def _run_op(cli, argv):
    """One operation in-process, with the exit code the command line would give."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is exit code 1 on the command line
        traceback.print_exc()
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the rotsub package")
    parser.add_argument("--config", required=True, help="workload config file")
    parser.add_argument("--ops", required=True, help="JSON list of operation argvs, without --out")
    parser.add_argument("--work", required=True, help="directory for outputs and the trace file")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    start = time.perf_counter()
    import rotsub.cli as cli
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    cli.load_config(args.config)
    load_config_s = time.perf_counter() - start

    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    work = Path(args.work)
    recorder = Recorder()
    tracing = Tracing(recorder)
    passes = []
    measured = 0.0
    while not passes or measured < args.seconds or not {True, False} <= {p["traced"] for p in passes[1:]}:
        k = len(passes)
        traced = k % 2 == 1  # pass 0 is the untimed warm-up
        first_span = len(recorder.spans)
        recorder.counts.clear()
        if traced:
            tracing.install()
        codes = []
        started = time.perf_counter()
        for i, op in enumerate(ops):
            recorder.op = [k, i]
            codes.append(_run_op(cli, op + ["--out", str(work / f"pass{k}" / f"{i}-{op[0]}")]))
        seconds = time.perf_counter() - started
        if traced:
            tracing.remove()
        passes.append({
            "traced": traced,
            "seconds": seconds,
            "codes": codes,
            "counts": dict(recorder.counts),
            "spans": [s[:3] + [None if s[3] is None else s[3] - first_span] + s[4:]
                      for s in recorder.spans[first_span:]],
        })
        if k > 0:
            measured += seconds
    trace = {"import_s": import_s, "load_config_s": load_config_s, "passes": passes}
    (work / "trace.json").write_text(json.dumps(trace), encoding="utf-8")
    return 0


# ------------------------------------------------------------------- analysis --

def _self_times(spans):
    """Total self time per span name: duration minus the child spans' durations
    and their counting bookkeeping."""
    inner = [0.0] * len(spans)
    for name, start, end, parent, op, aside in spans:
        if parent is not None:
            inner[parent] += end - start + aside
    totals = Counter()
    for k, (name, start, end, *_rest) in enumerate(spans):
        totals[name] += end - start - inner[k]
    return totals, Counter(s[0] for s in spans)


def _pass_metrics(p):
    own, calls = _self_times(p["spans"])
    c = p["counts"]
    metrics = {f"{name}_s": own.get(name, 0.0) for name in SPANS if not name.startswith("geometry.")}
    solve_s = own.get("burgers.godunov_solve", 0.0)
    steps = c.get("viscosity.cn_steps", 0)
    metrics.update({
        "cli.csv_rows": c.get("cli.csv_rows", 0),
        "cli.csv_mb": c.get("cli.csv_bytes", 0) / 2**20,
        "burgers.godunov_solve_calls": calls.get("burgers.godunov_solve", 0),
        "burgers.godunov_steps": c.get("burgers.godunov_steps", 0),
        "burgers.cell_updates_per_s": c.get("burgers.godunov_steps.size", 0) / solve_s if solve_s else 0.0,
        "subsolution.qbar_points": c.get("subsolution.qbar_points", 0),
        "subsolution.qbar_times": c.get("subsolution.qbar_times", 0),
        "quadrature.spacetime_nodes": c.get("quadrature.spacetime_nodes", 0),
        "weakform.weak_residual_linear_system_calls": calls.get("weakform.weak_residual_linear_system", 0),
        "viscosity.cn_steps": steps,
        "viscosity.step_us": 1e6 * c.get("viscosity.cn_steps.seconds", 0.0) / steps if steps else 0.0,
    })
    return metrics


def layer_metrics(trace):
    """Per-layer metrics of a trace file: medians over the traced passes."""
    timed = trace["passes"][1:]
    traced = [p for p in timed if p["traced"]]
    per_pass = [_pass_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    plain = statistics.median(p["seconds"] for p in timed if not p["traced"])
    metrics.update({
        "cli.import_s": trace["import_s"],
        "cli.load_config_s": trace["load_config_s"],
        "trace.overhead_pct": 100.0 * (statistics.median(p["seconds"] for p in traced) - plain) / plain,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
