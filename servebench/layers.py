"""The traced run: per-layer metrics of one workload.

The run sets up the serving path with the layer wrappers installed,
measures half of ``--seconds`` untraced and half traced, runs one
reload burst traced, and then times the public calls of single layers
directly.  Every timing is host-normalised like the end-to-end ones.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

from repro.engine import TIER_COLD_COMPILE, TIER_WARM_CACHE, CacheAutomatonEngine
from repro.service import ScanService
from repro.service import net

from servebench.inputs import BACKEND, STRIDE
from servebench.probe import Section
from servebench.serve import Runner, Phase, Stack
from servebench.spans import Instrumentation, Recorder, self_times

#: Passes over a tenant's payloads per direct layer measurement.
PASSES = 3

#: Span name -> per-request self-time metric of the traced scans.
SELF_METRICS = {
    "client.scan": "self.client_us",
    "service.scan": "self.service_us",
    "procpool.scan_chunk": "self.procpool_us",
    "lazydfa.scan": "self.lazydfa_us",
    "reports.materialise": "self.reports_us",
    "net.encode": "self.net_encode_us",
    "net.decode": "self.net_decode_us",
}

#: Per-layer metric -> unit, in output order.
UNITS = {
    "regex.compile_ms": "ms",
    "compiler.map_ms": "ms",
    "compiler.cache_load_ms": "ms",
    "compiler.cache_store_ms": "ms",
    "compiler.cache_hits": "count",
    "compiler.cache_misses": "count",
    "engine.build_cold_ms": "ms",
    "engine.build_warm_ms": "ms",
    "lazydfa.warm_ns_per_B": "ns/B",
    "lazydfa.cold_ns_per_B": "ns/B",
    "lazydfa.misses": "count",
    "lazydfa.states": "count",
    "lazydfa.flushes": "count",
    "reports.ns_per_report": "ns",
    "service.overhead_us": "us",
    "procpool.dispatch_us": "us",
    "net.encode_us": "us",
    "net.decode_us": "us",
    "net.frame_bytes": "B",
    "net.wire_us": "us",
    "client.retries": "count",
    "service.fallback_scans": "count",
    "service.shed": "count",
    **{metric: "us" for metric in SELF_METRICS.values()},
    "trace.gap_pct": "%",
    "trace.overhead_pct": "%",
}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean_latency(phase: Phase) -> float:
    return statistics.fmean(s.timing.norm_s for s in phase.scans)


async def traced_run(runner: Runner, seconds: float) -> Tuple[Dict[str, float], Recorder, List[str]]:
    """Per-layer metrics (unit as in :data:`UNITS`), the spans, and the
    layer entry points that could not be wrapped."""
    recorder = runner.recorder
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    stack = None
    try:
        recorder.enabled = True
        stack, _ = await runner.setup()
        recorder.enabled = False
        untraced = await runner.measure(stack, seconds / 2, 0)
        recorder.enabled = True
        traced = await runner.measure(stack, seconds / 2, 0)
        await runner.reload_phase(stack)
        recorder.enabled = False
        stats = stack.cache.stats
        metrics: Dict[str, float] = {
            "compiler.cache_hits": stats.hits,
            "compiler.cache_misses": stats.misses,
        }
        metrics.update(_span_metrics(recorder, runner.factors, untraced, traced))
        metrics.update(await _direct_metrics(runner, stack))
        snapshot = stack.service.metrics_snapshot()
        metrics["client.retries"] = stack.retrying.retries
        metrics["service.fallback_scans"] = snapshot["fallback_scans"]
        metrics["service.shed"] = snapshot["shed"]
        metrics["net.wire_us"] = _median([
            (s.timing.raw_s - s.server_latency_s) * s.timing.factor * 1e6
            for s in untraced.scans
        ])
    finally:
        instrumentation.remove()
        if stack is not None:
            await runner.teardown(stack)
    return metrics, recorder, instrumentation.missing


def _span_metrics(recorder: Recorder, factors: Dict[int, float],
                  untraced: Phase, traced: Phase) -> Dict[str, float]:
    durations: Dict[str, List[float]] = {}
    scan_ops = {s.op_id for s in traced.scans}
    self_total = {name: 0.0 for name in SELF_METRICS}
    for span, self_s in self_times(recorder.spans):
        factor = factors.get(span.op, 1.0)
        key = span.name if span.name != "engine.build" else f"engine.build.{span.tag}"
        durations.setdefault(key, []).append(span.duration * factor)
        if span.op in scan_ops and span.name in self_total:
            self_total[span.name] += self_s * factor
    count = max(1, len(scan_ops))
    metrics = {
        "regex.compile_ms": _median(durations.get("regex.compile", [])) * 1e3,
        "compiler.map_ms": _median(durations.get("compiler.map", [])) * 1e3,
        "compiler.cache_load_ms": _median(durations.get("compiler.cache_load", [])) * 1e3,
        "compiler.cache_store_ms": _median(durations.get("compiler.cache_store", [])) * 1e3,
        "engine.build_cold_ms": _median(
            durations.get(f"engine.build.{TIER_COLD_COMPILE}", [])) * 1e3,
        "engine.build_warm_ms": _median(
            durations.get(f"engine.build.{TIER_WARM_CACHE}", [])) * 1e3,
    }
    for name, metric in SELF_METRICS.items():
        metrics[metric] = self_total[name] / count * 1e6
    untraced_mean = _mean_latency(untraced)
    layer_sum = sum(self_total[name] for name in SELF_METRICS
                    if name != "client.scan") / count
    metrics["trace.gap_pct"] = (untraced_mean - layer_sum) / untraced_mean * 100
    metrics["trace.overhead_pct"] = (
        (_mean_latency(traced) - untraced_mean) / untraced_mean * 100
    )
    return metrics


def _timed(function):
    """``function()`` and its normalised duration."""
    with Section() as section:
        result = function()
    return result, section.timing.norm_s


async def _timed_async(awaitable):
    with Section() as section:
        result = await awaitable
    return result, section.timing.norm_s


async def _direct_metrics(runner: Runner, stack: Stack) -> Dict[str, float]:
    """Time single layers' public calls on the primary tenant's traffic."""
    inputs = runner.inputs
    tenant, ruleset = next(iter(inputs.tenants.items()))
    rules = list(inputs.rulesets[ruleset])
    indices = sorted({op.payload for op in inputs.warmup if op.tenant == tenant})
    payloads = [inputs.payloads[index] for index in indices]
    total_bytes = sum(len(p) for p in payloads)
    reports = [len(runner.gate.references[(ruleset, index)]) for index in indices]
    metrics: Dict[str, float] = {}

    # Lazy DFA: the first pass on a fresh engine (artifact already
    # cached), then warm passes without report collection.
    engine = CacheAutomatonEngine.from_patterns(
        rules, cache=stack.cache, backend=BACKEND, stride=STRIDE
    )
    backend = engine.backend
    cold = sum(_timed(lambda: backend.scan(p, collect_reports=False))[1]
               for p in payloads)
    info = backend.cache_info()
    metrics["lazydfa.cold_ns_per_B"] = cold / total_bytes * 1e9
    metrics["lazydfa.misses"] = info["misses"]
    metrics["lazydfa.states"] = info["states"]
    metrics["lazydfa.flushes"] = info["flushes"]
    warm, report_cost = [], []
    for _ in range(PASSES):
        bare = [_timed(lambda: backend.scan(p, collect_reports=False))[1]
                for p in payloads]
        full = [_timed(lambda: engine.scan(p))[1] for p in payloads]
        warm.append(sum(bare) / total_bytes * 1e9)
        if sum(reports):
            report_cost.append((sum(full) - sum(bare)) / sum(reports) * 1e9)
    metrics["lazydfa.warm_ns_per_B"] = statistics.median(warm)
    metrics["reports.ns_per_report"] = _median(report_cost)

    # Service overhead and process-pool dispatch: the same requests
    # through an in-loop service, a one-worker pool service, and the
    # bare backend of the in-loop service.
    services = [ScanService(scan_workers=workers, cache=stack.cache)
                for workers in (0, 1)]
    try:
        for service in services:
            service.register(tenant, rules, backend=BACKEND, stride=STRIDE)
            await service.start()
            for payload in payloads:
                await service.scan(tenant, payload)
        in_loop, pooled = services
        in_loop_backend = in_loop.tenant_engine(tenant).backend
        overhead, dispatch, outcomes = [], [], []
        for _ in range(PASSES):
            for payload in payloads:
                _, bare = _timed(lambda: in_loop_backend.scan(payload))
                outcome, direct = await _timed_async(in_loop.scan(tenant, payload))
                _, pool = await _timed_async(pooled.scan(tenant, payload))
                overhead.append(direct - bare)
                dispatch.append(pool - direct)
                outcomes.append(outcome)
    finally:
        for service in services:
            await service.stop()
    metrics["service.overhead_us"] = statistics.median(overhead) * 1e6
    metrics["procpool.dispatch_us"] = statistics.median(dispatch) * 1e6

    # Wire codec on real responses: the response frame as the server
    # encodes it, and its decoding as the client does.
    encode, decode, sizes = [], [], []
    for request_id, outcome in enumerate(outcomes):
        def encode_response():
            return net.encode_frame({
                "tenant": outcome.tenant,
                "offset": outcome.offset,
                "reports": net.encode_reports(outcome.reports),
                "checkpoint": net.encode_checkpoint(outcome.checkpoint),
                "served_by": outcome.served_by,
                "fallback": outcome.fallback,
                "latency_s": outcome.latency_s,
                "id": request_id,
            })
        frame, seconds = _timed(encode_response)
        encode.append(seconds)
        sizes.append(len(frame))
        header_len = int.from_bytes(frame[:4], "big")
        header_bytes = frame[8:8 + header_len]

        def decode_response():
            return net.decode_reports(json.loads(header_bytes)["reports"])
        _, seconds = _timed(decode_response)
        decode.append(seconds)
    metrics["net.encode_us"] = statistics.fmean(encode) * 1e6
    metrics["net.decode_us"] = statistics.fmean(decode) * 1e6
    metrics["net.frame_bytes"] = statistics.fmean(sizes)
    return metrics
