"""The output checker cannot pass on nothing: feed it corrupted outputs.

    python3 perfbench/selftest.py

Runs ``rotsub subsolution`` and ``rotsub energy`` on a small grid, requires the
checker to accept the genuine outputs, then requires it to reject each of:
a perturbed ``egen`` entry, a shifted energy row, an empty CSV, and a genuine
table with no band rows (``--grids.n_t 1``: only t = 0, where the band is
empty, which rotsub itself reports as PASS).  Exits 0 when every verdict is
as required.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
from check import check_operation

SEED = 0
SMALL = {"grids.n_r": 12, "grids.n_theta": 8, "grids.n_t": 5, "energy.n_times": 9}


def _edit_csv(path: Path, column: str, row: int, change):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    k = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[k] = repr(change(float(cells[k])))
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    config = run.BENCH / "configs" / "gate.json"
    settings = {**json.loads(config.read_text(encoding="utf-8")), **SMALL}
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    env = run._env()

    def produce(command, name, overrides):
        out = work / name
        argv = [sys.executable, "-m", "rotsub", *run.operation_argv(command, overrides, config, SEED),
                "--out", str(out)]
        return out, run.launch([argv], [work / f"{name}.log"], env)["ops"][0]["code"]

    def corrupt(source: Path, name, edit):
        out = work / name
        shutil.copytree(source, out)
        edit(out)
        return out

    try:
        sub, sub_code = produce("subsolution", "subsolution", SMALL)
        energy, energy_code = produce("energy", "energy", SMALL)
        flat, flat_code = produce("subsolution", "no-band", {**SMALL, "grids.n_t": 1})
        cases = [
            ("genuine subsolution table", "subsolution", sub, sub_code, SMALL, True),
            ("genuine energy series", "energy", energy, energy_code, SMALL, True),
            ("perturbed egen entry", "subsolution",
             corrupt(sub, "egen", lambda d: _edit_csv(d / "subsolution.csv", "egen", 200, lambda v: v + 1e-9)),
             sub_code, SMALL, False),
            ("shifted energy row", "energy",
             corrupt(energy, "shift", lambda d: _edit_csv(d / "energy.csv", "energy_total", 3, lambda v: v * (1 + 1e-8))),
             energy_code, SMALL, False),
            ("empty CSV", "subsolution",
             corrupt(sub, "empty", lambda d: (d / "subsolution.csv").write_text("")), sub_code, SMALL, False),
            ("table with no band rows", "subsolution", flat, flat_code, {**SMALL, "grids.n_t": 1}, False),
        ]
        ok = True
        for label, command, out, code, overrides, should_pass in cases:
            problems = check_operation(command, {**settings, **overrides, "seed": SEED}, out, code)
            as_required = (not problems) == should_pass
            ok = ok and as_required
            verdict = "accepted" if not problems else "rejected"
            print(f"{'ok ' if as_required else 'BAD'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
