"""Steadiness report: repeated runs, normalised and raw side by side.

Usage (from the repository root)::

    python3 servebench/steadiness.py --runs 10 [--workload ids-64k ...]

Runs ``servebench/run.py`` once per seed (one run at a time), then
prints, for every end-to-end metric, the median and quartiles across
runs of the host-normalised values and of the raw wall-clock values,
and their spread: the interquartile distance as a share of the median.
When ``BENCHMARK.json`` is present, each normalised spread is compared
with a third of the metric's bound.  A last row compares the probes
taken around the measured requests with probes taken while no service
existed (see ``run.compare_probes``); a median ratio above
``PROBE_LOAD_MARGIN`` is flagged.  The exit code is nonzero when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from servebench.probe import PROBE_LOAD_MARGIN  # noqa: E402
WORKLOADS = ("ids-64k", "logs-dense", "tenant-churn")


def run_once(workload: str, seed: int, seconds: float):
    """(final result, detail) of one run; raises on a failed run."""
    command = [sys.executable, str(ROOT / "servebench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({completed.returncode}): {completed.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["servebench"]


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def report(workload, results, bounds) -> bool:
    """Print one workload's table; False if a spread exceeds bound/3."""
    steady = True
    print(f"\n{workload}: {len(results)} runs, seeds "
          f"{', '.join(str(d['seed']) for _, d in results)}")
    print(f"  {'metric':<16} {'normalised median [q1, q3]':>34} {'spread':>7}"
          f" {'raw median [q1, q3]':>34} {'spread':>7}  check")
    for name, entry in results[0][0]["metrics"].items():
        norm = [r["metrics"][name]["value"] for r, _ in results]
        raw = [d["raw"][name] for _, d in results]
        nq1, nmed, nq3, nspread = _quartiles(norm)
        rq1, rmed, rq3, rspread = _quartiles(raw)
        check = ""
        if name in bounds:
            limit = bounds[name] / 3
            ok = nspread < limit
            steady &= ok
            check = f"{'ok' if ok else 'WIDE'} (< {limit:.1%})"
        print(f"  {name:<16} {nmed:>12.5g} [{nq1:>9.5g}, {nq3:>9.5g}]"
              f" {nspread:>6.1%} {rmed:>12.5g} [{rq1:>9.5g}, {rq3:>9.5g}]"
              f" {rspread:>6.1%}  {check}  {entry['unit']}")
    ratios = [d["probes"]["load_over_idle"] for _, d in results]
    q1, median, q3, _ = _quartiles(ratios)
    ok = median <= PROBE_LOAD_MARGIN
    steady &= ok
    print(f"  {'probe load/idle':<16} {median:>12.5g} [{q1:>9.5g}, {q3:>9.5g}]"
          f" max {max(ratios):.3g}  {'ok' if ok else 'SLOW'}"
          f" (<= {PROBE_LOAD_MARGIN:g})")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    config_path = ROOT / "BENCHMARK.json"
    config = json.loads(config_path.read_text()) if config_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in config.get("end_to_end", [])}
    seconds = args.seconds or config.get("run_seconds", 10)
    steady = True
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, seconds))
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        steady &= report(workload, results, bounds)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
