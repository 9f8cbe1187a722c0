"""Run one workload of the TCP scan-path benchmark and print its metrics.

Usage (from the repository root)::

    python3 servebench/run.py --workload ids-64k --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written under
``.servebench/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the raw (not host-normalised) values, the
seed and a host fingerprint.  The exit code is 0 only when every
operation was correct.  See ``servebench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every run ends within this many seconds, cleanly or with an error.
WATCHDOG_SECONDS = 170

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 7

E2E_UNITS = {
    "throughput_Bps": "B/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "rss_mb": "MiB",
    "reload_p50_ms": "ms",
}


def _use_source_tree() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"servebench: program source not found at {source}/repro")
    # Settings from the environment would change what is measured (and
    # REPRO_CACHE_DIR would share an artifact cache between runs).
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(source), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here
    ]


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def _end_to_end_values(setups, phase, reloads, rss):
    """(normalised, raw) values of every end-to-end metric."""
    from servebench.probe import tail_percentile

    values = {}
    for kind in ("norm_s", "raw_s"):
        latencies = [getattr(s.timing, kind) for s in phase.scans]
        values[kind] = {
            "throughput_Bps": sum(s.nbytes for s in phase.scans) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p99_ms": tail_percentile(latencies, 0.99) * 1e3,
            "setup_s": statistics.median(getattr(t, kind) for t in setups),
            "rss_mb": rss,
            "reload_p50_ms": statistics.median(getattr(t, kind) for t in reloads) * 1e3,
        }
    return values["norm_s"], values["raw_s"]


def compare_probes(idle, phase):
    """Medians of the probes around the measured scans and of probes
    taken while no service existed, and their ratio.

    CPU the program spends outside a request -- in another thread, or
    in a worker process sharing the core -- can slow the probes as it
    slows the request, and normalisation would then cancel it out.  It
    shows as in-load probes slower than idle ones; the steadiness report
    flags a median ratio above :data:`~servebench.probe.PROBE_LOAD_MARGIN`.
    """
    load = [p for s in phase.scans
            for p in (s.timing.probe_before, s.timing.probe_after)]
    idle_s, load_s = statistics.median(idle), statistics.median(load)
    return {"idle_us": idle_s * 1e6, "load_us": load_s * 1e6,
            "load_over_idle": load_s / idle_s}


async def end_to_end(runner, seconds):
    from servebench.probe import idle_probes
    from servebench.serve import MIN_SCANS, peak_rss_mb

    setups = []
    # Probes taken while no service exists: before every set-up and
    # after the last tear-down.
    idle = []

    async def set_up():
        idle.extend(idle_probes())
        stack, timing = await runner.setup()
        setups.append(timing)
        return stack

    # Half the set-ups, and one burst of reloads, come before the
    # measured scans and half after them, so that their medians sample
    # the host's speed over the whole run and not one moment of it.
    for _ in range(SETUP_REPS // 2):
        await runner.teardown(await set_up())
    stack = await set_up()
    try:
        reloads = await runner.reload_phase(stack)
        phase = await runner.measure(stack, seconds, MIN_SCANS)
        reloads += phase.reloads + await runner.reload_phase(stack)
        rss = peak_rss_mb()
        snapshot = stack.service.metrics_snapshot()
        counters = {
            "scans": len(phase.scans),
            "reloads": len(reloads),
            "schedule_epochs": phase.epochs,
            "measured_wall_s": phase.wall_s,
            "client_retries": stack.retrying.retries,
            "fallback_scans": snapshot["fallback_scans"],
            "shed": snapshot["shed"],
        }
    finally:
        await runner.teardown(stack)
    for _ in range(SETUP_REPS - SETUP_REPS // 2 - 1):
        await runner.teardown(await set_up())
    idle += idle_probes()
    probes = compare_probes(idle, phase)
    norm, raw = _end_to_end_values(setups, phase, reloads, rss)
    return norm, E2E_UNITS, {"raw": raw, "counters": counters, "probes": probes}


async def traced(runner, seconds, workload, seed):
    from servebench.layers import UNITS, traced_run

    metrics, recorder, missing = await traced_run(runner, seconds)
    spans_path = ROOT / ".servebench" / f"spans-{workload}-seed{seed}.jsonl"
    recorder.dump(spans_path, runner.factors)
    detail = {
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_layers": missing,
    }
    return {name: metrics[name] for name in UNITS}, UNITS, detail


def stop_child_processes(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Scan-pool workers are joined by ``ScanService.stop``; any left on
    an error path are terminated here (killed if they ignore it).  The resource tracker that
    :mod:`multiprocessing` starts for the first shared-memory block
    would otherwise outlive this process by a moment: closing its pipe
    ends it, and it is waited for.  It is stopped last, once no live
    child holds the pipe open.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ids-64k", "logs-dense", "tenant-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _use_source_tree()
    # One request is outstanding at a time, so nothing runs in parallel
    # and one core loses nothing.  On one core the probes see the core
    # the scan worker process runs on, and no request pays a cross-core
    # wake-up whose cost depends on what else the other core runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _expire(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(WATCHDOG_SECONDS)

    from servebench.gate import Gate
    from servebench.inputs import BACKEND, make_inputs
    from servebench.serve import Runner

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    gate = Gate.build(inputs.rulesets, inputs.payloads, inputs.scan_pairs(),
                      primary_backend=BACKEND)
    # The references and inputs live for the whole run; keep them out
    # of the program's garbage-collection passes.
    gc.collect()
    gc.freeze()
    scratch = ROOT / ".servebench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    runner = Runner(inputs, gate, workdir)
    try:
        if args.trace:
            coroutine = traced(runner, args.seconds, args.workload, args.seed)
        else:
            coroutine = end_to_end(runner, args.seconds)
        values, units, detail = asyncio.run(coroutine)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_child_processes()
        signal.alarm(0)

    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "errors": runner.errors,
    })
    print(json.dumps({"servebench": detail}))
    for error in runner.errors:
        print(f"servebench: failed: {error}", file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
