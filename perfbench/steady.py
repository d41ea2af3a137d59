"""Steadiness of the end-to-end metrics: run each workload repeatedly and
compare the spread of every metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads gate,solve,table] [--first-seed 1]

With ``--runs 1`` it is the one command that runs every workload to its end
and prints its metrics.  Each run uses its own seed (first-seed,
first-seed + 1, ...) and the run length from BENCHMARK.json.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound, and the
share of failed operations in each run.  The exit code is 1 when a spread
other than that of ``setup_s`` reaches its bound, when the share of failed
operations differs between runs, or when a run found wrong outputs.  The raw results go to
``.perfbench_work/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
            *_, detail, last = done.stdout.splitlines()
            result = {**json.loads(last), "detail": json.loads(detail)}
            result["seed"] = seed
            result["run_s"] = time.monotonic() - started
            results.append(result)
            shown = ", ".join(f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}; {result['attempted']} attempted, {result['failed']} failed, "
                  f"correct={result['correct']} ({result['run_s']:.1f} s)", flush=True)
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        (ROOT / ".perfbench_work" / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))

        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        steady = steady and len(shares) == 1 and all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ratio = spread / metric["bound"]
            steady = steady and (metric["name"] == "setup_s" or ratio < 1.0)
            print(f"{metric['name']:14s} {median:10.4f} {q1:10.4f} {q3:10.4f} {spread:8.3f} "
                  f"{metric['bound']:6.2f} {ratio:12.2f}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
