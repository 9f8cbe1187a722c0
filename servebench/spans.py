"""Spans around the calls into each layer, recorded from outside.

For the traced run the benchmark wraps the public entry points of each
layer (regex front end, compiler, artifact cache, engine, lazy-DFA
backend, process pool, service, wire codec, client) so that every call
records a span: layer name, start, end, and the id of the operation it
ran under.  The program itself is not modified and untraced runs
install nothing.  Spans stay in memory until :meth:`Recorder.dump`.

A span's parent is the smallest span of the same operation that
contains its interval (the client and the server share one thread, so
interval containment is exact where task-local context is not: the
server's tasks do not inherit the client's).  A span's *self time* is
its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    op: int
    start: float
    end: float
    #: Free-form qualifier, e.g. the engine tier an ``engine.build`` hit.
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``op`` is the id of the running operation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = 0
        self.enabled = False

    def record(self, name: str, start: float, end: float, tag: str = "") -> None:
        if self.enabled:
            self.spans.append(Span(name, self.op, start, end, tag))

    def dump(self, path: Path, factors: Dict[int, float]) -> None:
        """Write every span as one JSON line, with its operation's
        host-normalisation factor."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = asdict(span)
                row["factor"] = factors.get(span.op, 1.0)
                handle.write(json.dumps(row) + "\n")


def _engine_tier(engine) -> str:
    return engine.health().tier


#: (module, attribute path, span name, tag function) of every wrapped
#: layer entry point.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.engine", "compile_patterns", "regex.compile", None),
    ("repro.engine", "compile_automaton", "compiler.map", None),
    ("repro.compiler.cache", "CompileCache.load_artifact", "compiler.cache_load", None),
    ("repro.compiler.cache", "CompileCache.store_artifact", "compiler.cache_store", None),
    ("repro.engine", "CacheAutomatonEngine.from_patterns", "engine.build", _engine_tier),
    ("repro.backends.lazydfa", "LazyDfaBackend.scan", "lazydfa.scan", None),
    ("repro.backends.lazydfa", "LazyDfaBackend.materialise_raw", "reports.materialise", None),
    ("repro.service.procpool", "ProcPoolScanExecutor.scan_chunk", "procpool.scan_chunk", None),
    ("repro.service.service", "ScanService.scan", "service.scan", None),
    ("repro.service.service", "ScanService.register", "service.register", None),
    ("repro.service.net", "encode_frame", "net.encode", None),
    ("repro.service.net", "encode_reports", "net.encode", None),
    ("repro.service.net", "decode_reports", "net.decode", None),
    ("repro.service.net", "NetScanClient.scan", "client.scan", None),
    ("repro.service.net", "NetScanClient.register", "client.register", None),
)


def _wrap(function, name: str, recorder: Recorder, tag: Optional[Callable]):
    clock = time.perf_counter
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                recorder.record(name, start, clock())
        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        start = clock()
        result = function(*args, **kwargs)
        recorder.record(name, start, clock(), tag(result) if tag else "")
        return result
    return traced


class Instrumentation:
    """Installs the span wrappers; ``remove`` restores the originals.

    Targets that no longer exist are skipped and listed in ``missing``,
    so a refactor of the program shows up as an untraced layer rather
    than a failed run.
    """

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, name, tag in self.targets:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            raw = None if owner is None else inspect.getattr_static(
                owner, attribute, None)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, name, self.recorder, tag))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(raw.__func__, name, self.recorder, tag))
            else:
                wrapped = _wrap(raw, name, self.recorder, tag)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def remove(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()


def _covered(parent: Span, children: Sequence[Span]) -> float:
    """Length of the union of the children's intervals inside ``parent``."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    total = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> List[Tuple[Span, float]]:
    """Every span with its self time (seconds), parents by containment
    within one operation."""
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)
    result: List[Tuple[Span, float]] = []
    for op_spans in by_op.values():
        ordered = sorted(op_spans, key=lambda s: (s.start, -s.end))
        children: Dict[int, List[Span]] = {id(s): [] for s in ordered}
        stack: List[Span] = []
        for span in ordered:
            while stack and not (stack[-1].start <= span.start
                                 and span.end <= stack[-1].end):
                stack.pop()
            if stack:
                children[id(stack[-1])].append(span)
            stack.append(span)
        for span in ordered:
            result.append((span, span.duration - _covered(span, children[id(span)])))
    return result
