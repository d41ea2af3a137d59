"""rotsub benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload gate --seed 0 --seconds 20 --trace 0

With ``--trace 0`` every operation runs the way users run it, as its own
``python -m rotsub <command> --config FILE --out DIR --seed N`` process, one
after another from this process.  A run makes whole passes over the workload's
operations for about ``--seconds`` of measured pass time, samples
fresh-interpreter set-up before each pass, and reports the end-to-end
metrics.  With ``--trace 1`` the same operations run in-process in a traced
child (see ``tracer.py``) and the per-layer metrics are reported instead.

Every operation's outputs are checked by ``check.py``, which does not use
rotsub's code.  An operation fails when its command exits non-zero or a check
finds its outputs wrong; ``correct`` is false when any check found wrong
outputs.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES_PER_PASS = 2
PROCESS_TIMEOUT_S = 150.0

# Each workload is one config file (configs/<name>.json) plus these operations:
# (command, flag overrides).  Every operation also gets --config, --out and --seed.
WORKLOADS = {
    "gate": [
        ("validate", {}), ("subsolution", {}), ("energy", {}), ("burgers", {}),
        ("residual", {}), ("viscosity", {}), ("boundary", {}),
        # fails every time: cmd_energy's sign test np.diff(E) < 0 sees roundoff when the
        # exact per-step decrease is below it (cli.py:225), so this reports a false FAIL
        ("energy", {"params.epsilon": 1e-15}),
    ],
    "solve": [("burgers", {}), ("residual", {}), ("viscosity", {}), ("boundary", {})],
    "table": [("subsolution", {}), ("energy", {})],
}

SETUP_CODE = (
    "import sys, time\n"
    "import rotsub.cli\n"
    "rotsub.cli.load_config(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


def _flag(value):
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


def operation_argv(command, overrides, config: Path, seed: int):
    argv = [command, "--config", str(config), "--seed", str(seed)]
    for key, value in overrides.items():
        argv += [f"--{key}", _flag(value)]
    return argv


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(config: Path, env) -> float:
    """Seconds from spawning a fresh interpreter until rotsub.cli is imported
    and the config is loaded (read in the child on the same monotonic clock)."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def launch(argvs, logs, env):
    """Run command processes one after another from the small process in
    ``launch.py``; returns its report (pass wall time, per-process exit code,
    CPU seconds and peak resident set)."""
    job = {"argvs": argvs, "logs": [str(p) for p in logs], "env": env, "cwd": str(ROOT),
           "timeout": PROCESS_TIMEOUT_S}
    done = subprocess.run([sys.executable, str(BENCH / "launch.py")], input=json.dumps(job),
                          capture_output=True, text=True, check=True, timeout=PROCESS_TIMEOUT_S + 30)
    return json.loads(done.stdout)


class Tally:
    """Operations attempted and failed, and the problems checks found."""

    def __init__(self, settings, seed):
        self.settings = settings
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.exit_failures = Counter()

    def record(self, command, overrides, out: Path, code: int):
        self.attempted += 1
        problems = check.check_operation(command, {**self.settings, **overrides, "seed": self.seed}, out, code)
        self.problems += problems
        if code != 0 or problems:
            self.failed += 1
            if not problems:
                self.exit_failures[f"{command} {_flag_text(overrides)} exit {code}".strip()] += 1


def _flag_text(overrides):
    return " ".join(f"--{k} {_flag(v)}" for k, v in overrides.items())


def run_untraced(ops, config: Path, seconds: float, work: Path, tally: Tally):
    """Whole passes until the next one would end past ``seconds`` of measured
    pass time (at least one pass), with set-up samples taken before each pass
    so that both medians cover the same stretch of the run."""
    env = _env()
    measure_setup(config, env)  # fills the bytecode and file caches; not timed
    setup, walls, cpus, peak_kib = [], [], [], 0
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        setup += [measure_setup(config, env) for _ in range(SETUP_SAMPLES_PER_PASS)]
        pass_dir = work / f"pass{len(walls)}"
        pass_dir.mkdir()
        outs = [pass_dir / f"{i}-{command}" for i, (command, _) in enumerate(ops)]
        argvs = [[sys.executable, "-m", "rotsub", *operation_argv(command, overrides, config, tally.seed),
                  "--out", str(out)] for (command, overrides), out in zip(ops, outs)]
        report = launch(argvs, [pass_dir / f"{i}.log" for i in range(len(ops))], env)
        walls.append(report["wall_s"])
        cpus.append(sum(op["cpu_s"] for op in report["ops"]))
        peak_kib = max([peak_kib] + [op["maxrss_kib"] for op in report["ops"]])
        for (command, overrides), out, op in zip(ops, outs, report["ops"]):
            tally.record(command, overrides, out, op["code"])
        shutil.rmtree(pass_dir)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kib / 1024.0,
    }, {"setup_samples": setup, "pass_wall_s": walls, "pass_cpu_s": cpus}


def run_traced(ops, config: Path, seconds: float, work: Path, tally: Tally):
    ops_file = work / "ops.json"
    ops_file.write_text(json.dumps([operation_argv(c, o, config, tally.seed) for c, o in ops]))
    argv = [sys.executable, str(BENCH / "tracer.py"), "--src", str(SRC), "--config", str(config),
            "--ops", str(ops_file), "--work", str(work), "--seconds", str(seconds)]
    code = launch([argv], [work / "tracer.log"], dict(os.environ))["ops"][0]["code"]
    if code != 0:
        raise RuntimeError(f"traced run exited {code}: {(work / 'tracer.log').read_text()[-2000:]}")
    trace = json.loads((work / "trace.json").read_text(encoding="utf-8"))
    for k, p in enumerate(trace["passes"]):
        for i, ((command, overrides), code) in enumerate(zip(ops, p["codes"])):
            tally.record(command, overrides, work / f"pass{k}" / f"{i}-{command}", code)
        shutil.rmtree(work / f"pass{k}", ignore_errors=True)
    shutil.copy(work / "trace.json", WORK / f"trace-{config.stem}.json")
    return tracer.layer_metrics(trace), {
        "pass_s": [p["seconds"] for p in trace["passes"]],
        "traced": [p["traced"] for p in trace["passes"]],
    }


def provenance():
    sha = None
    if (ROOT / ".git").exists():  # a checkout without git history records only the source digest
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rotsub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="passed to every command as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured pass time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rotsub" / "cli.py").is_file():
        print(f"no rotsub sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    config = BENCH / "configs" / f"{args.workload}.json"
    settings = json.loads(config.read_text(encoding="utf-8"))
    ops = WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally = Tally(settings, args.seed)
        run = run_traced if args.trace else run_untraced
        metrics, detail = run(ops, config, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for m in wanted:
        print(f"{m['name']:45s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for what, n in sorted(tally.exit_failures.items()):
        print(f"  failed {n}x: {what}")
    for problem in tally.problems:
        print(f"  wrong output: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "provenance": provenance(), **detail}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
