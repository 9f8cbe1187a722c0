"""The serving path under test, driven closed-loop.

``ScanService`` -> ``ScanServer`` -> loopback TCP -> ``NetScanClient``
(wrapped in ``RetryingClient``), all in this process and on one event
loop, with one request outstanding at a time.  Every request, register
and set-up step is a :class:`~servebench.probe.Section`, and every
response goes through the :class:`~servebench.gate.Gate`.
"""

from __future__ import annotations

import multiprocessing
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.compiler.cache import CompileCache
from repro.engine import TIER_COLD_COMPILE
from repro.service import NetScanClient, RetryingClient, ScanServer, ScanService

from servebench.gate import Gate
from servebench.inputs import (
    BACKEND,
    STRIDE,
    WARM_RELOAD_SECONDS,
    WARM_RELOADS,
    Op,
    WorkloadInputs,
)
from servebench.probe import Section, Timing, samples_needed, sum_timings
from servebench.spans import Recorder

HOST = "127.0.0.1"

#: Scans a run needs so that ten samples lie beyond its p99.
MIN_SCANS = samples_needed(0.99)

#: A measuring loop ends after this long even when scans keep failing.
MAX_PHASE_SECONDS = 120.0


@dataclass
class Stack:
    """One started instance of the serving path."""

    service: ScanService
    server: ScanServer
    client: NetScanClient
    retrying: RetryingClient
    cache: CompileCache
    cache_dir: Path


@dataclass
class ScanSample:
    """One correct scan: its timing and what the server said it took."""

    timing: Timing
    nbytes: int
    server_latency_s: float
    op_id: int


@dataclass
class Phase:
    scans: List[ScanSample] = field(default_factory=list)
    reloads: List[Timing] = field(default_factory=list)
    wall_s: float = 0.0
    #: Reload operations of the schedule the phase reached.
    epochs: int = 0


class Runner:
    """Runs one workload's operations and counts what failed.

    A wrong response, a golden-fallback response, an engine tier other
    than the one the operation must produce, or any exception counts as
    a failed operation; the run then reports ``correct: false``.
    """

    def __init__(self, inputs: WorkloadInputs, gate: Gate, workdir: Path):
        self.inputs = inputs
        self.gate = gate
        self.workdir = workdir
        self.recorder = Recorder()
        self.current: Dict[str, int] = dict(inputs.tenants)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: operation id -> host-normalisation factor of its section.
        self.factors: Dict[int, float] = {}
        self._op_id = 0
        #: Position in ``inputs.ops``; successive ``measure`` calls
        #: continue the schedule instead of restarting it.
        self.cursor = 0

    # -- bookkeeping ------------------------------------------------------

    def _begin(self) -> int:
        self.attempted += 1
        self._op_id += 1
        self.recorder.op = self._op_id
        return self._op_id

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def _done(self, op_id: int, section: Section) -> Timing:
        self.factors[op_id] = section.timing.factor
        return section.timing

    # -- operations -------------------------------------------------------

    async def scan(self, stack: Stack, op: Op) -> Optional[ScanSample]:
        op_id = self._begin()
        payload = self.inputs.payloads[op.payload]
        try:
            with Section() as section:
                outcome = await stack.retrying.scan(op.tenant, payload)
        except Exception as error:  # counted; the run goes on
            self._fail(f"scan {op.tenant}/{op.payload}: "
                       f"{type(error).__name__}: {error}")
            return None
        timing = self._done(op_id, section)
        reason = self.gate.check(
            self.current[op.tenant], payload, op.payload, outcome
        )
        if reason is not None:
            self._fail(f"scan {op.tenant}/{op.payload}: {reason}")
            return None
        return ScanSample(timing, len(payload), outcome.latency_s, op_id)

    async def reload(self, stack: Stack, op: Op) -> Optional[Timing]:
        """Hot-reload over the wire; checks the tier the reload produced."""
        op_id = self._begin()
        rules = list(self.inputs.rulesets[op.ruleset])
        try:
            with Section() as section:
                await stack.client.register(
                    op.tenant, rules, backend=BACKEND, stride=STRIDE
                )
        except Exception as error:  # counted; the run goes on
            self._fail(f"reload {op.tenant}->{op.ruleset}: "
                       f"{type(error).__name__}: {error}")
            return None
        timing = self._done(op_id, section)
        self.current[op.tenant] = op.ruleset
        tier = stack.service.tenant_engine(op.tenant).health().tier
        if tier != op.tier:
            self._fail(f"reload {op.tenant}->{op.ruleset}: tier {tier}, "
                       f"expected {op.tier}")
            return None
        return timing

    # -- set-up and tear-down ---------------------------------------------

    async def setup(self) -> Tuple[Stack, Timing]:
        """Construct, register (cold artifact cache), start, listen,
        connect, and warm up; returns the stack and the summed timing
        of those steps."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        self.current = dict(self.inputs.tenants)
        steps: List[Timing] = []
        op_id = self._begin()
        with Section() as section:
            cache = CompileCache(cache_dir)
            service = ScanService(scan_workers=self.inputs.scan_workers,
                                  cache=cache)
        steps.append(self._done(op_id, section))
        for tenant, ruleset in self.inputs.tenants.items():
            op_id = self._begin()
            with Section() as section:
                service.register(tenant, list(self.inputs.rulesets[ruleset]),
                                 backend=BACKEND, stride=STRIDE)
            steps.append(self._done(op_id, section))
            tier = service.tenant_engine(tenant).health().tier
            if tier != TIER_COLD_COMPILE:
                self._fail(f"first registration of {tenant!r} served from "
                           f"tier {tier}, expected {TIER_COLD_COMPILE}")
        op_id = self._begin()
        with Section() as section:
            await service.start()
            server = ScanServer(service, host=HOST)
            await server.start()
            client = await NetScanClient.connect(HOST, server.port)
        steps.append(self._done(op_id, section))
        stack = Stack(service, server, client, RetryingClient(client),
                      cache, cache_dir)
        for op in self.inputs.warmup:
            sample = await self.scan(stack, op)
            if sample is not None:
                steps.append(sample.timing)
        return stack, sum_timings(steps)

    @staticmethod
    async def teardown(stack: Stack) -> None:
        try:
            await stack.client.close()
            await stack.server.stop()
            await stack.service.stop()
        finally:
            shutil.rmtree(stack.cache_dir, ignore_errors=True)

    # -- measuring --------------------------------------------------------

    async def measure(self, stack: Stack, seconds: float, min_scans: int) -> Phase:
        """Run the workload's operations for ``seconds`` and at least
        ``min_scans`` scans (a finite schedule may end sooner)."""
        phase = Phase()
        ops = self.inputs.ops
        scans_attempted = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if not self.inputs.cyclic and self.cursor >= len(ops):
                break
            if elapsed >= seconds and scans_attempted >= min_scans:
                break
            if elapsed >= MAX_PHASE_SECONDS:
                break
            op = ops[self.cursor % len(ops)]
            self.cursor += 1
            if op.kind == "scan":
                scans_attempted += 1
                sample = await self.scan(stack, op)
                if sample is not None:
                    phase.scans.append(sample)
            else:
                phase.epochs += 1
                timing = await self.reload(stack, op)
                if timing is not None:
                    phase.reloads.append(timing)
        phase.wall_s = time.perf_counter() - start
        return phase

    async def reload_phase(self, stack: Stack) -> List[Timing]:
        """One burst of the timed warm hot-reloads of the in-loop
        workloads: at least ``WARM_RELOADS`` of them over at least
        ``WARM_RELOAD_SECONDS``.  The first burst on a stack registers
        the reloaded tenant first (untimed)."""
        timings: List[Timing] = []
        if not self.inputs.reloads:
            return timings
        priming = self.inputs.reload_priming
        if priming.tenant not in self.current:
            await self.reload(stack, priming)
        start = time.perf_counter()
        attempted = 0
        while (attempted < WARM_RELOADS
               or time.perf_counter() - start < WARM_RELOAD_SECONDS):
            # Alternate, also across bursts: a reload to the ruleset
            # already registered would be a no-op.
            op = next(op for op in self.inputs.reloads
                      if op.ruleset != self.current.get(op.tenant))
            attempted += 1
            timing = await self.reload(stack, op)
            if timing is not None:
                timings.append(timing)
            if time.perf_counter() - start >= MAX_PHASE_SECONDS:
                break
        return timings


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live child processes (MiB)."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024.0
