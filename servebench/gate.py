"""Correctness gate: every response against the golden interpreter.

References are computed before any timed section, once per distinct
(ruleset, payload) pair a workload can scan, with the reference
interpreter (``backend="golden-interpreter"``) and no artifact cache,
so they share nothing with the path under test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine import CacheAutomatonEngine

Row = Tuple[int, str, Optional[str]]

GOLDEN_BACKEND = "golden-interpreter"


def canonical(rows: Iterable[Row]) -> Tuple[Row, ...]:
    """Rows in a fixed order.  Backends agree on the rows of every
    offset but not on their order within one offset, so rows are
    compared sorted."""
    return tuple(sorted(rows, key=lambda row: (row[0], row[1], row[2] or "")))


def golden_rows(engine: CacheAutomatonEngine, payload: bytes) -> Tuple[Row, ...]:
    """Reference ``(offset, ste_id, report_code)`` rows of one scan."""
    result = engine.backend.scan(payload)
    return canonical((r.offset, r.ste_id, r.report_code) for r in result.reports)


class Gate:
    """Golden references plus the per-response check.

    ``check`` returns ``None`` for a correct response and a one-line
    reason otherwise; the caller counts a reason as a failed operation.
    """

    def __init__(self, references: Dict[Tuple[int, int], Tuple[Row, ...]],
                 primary_backend: str):
        self.references = references
        self.primary_backend = primary_backend

    @classmethod
    def build(cls, rulesets: Sequence[Sequence[str]], payloads: Sequence[bytes],
              pairs: Iterable[Tuple[int, int]], primary_backend: str) -> "Gate":
        by_ruleset: Dict[int, List[int]] = {}
        for ruleset, payload in pairs:
            by_ruleset.setdefault(ruleset, []).append(payload)
        references = {}
        for ruleset, payload_indices in sorted(by_ruleset.items()):
            engine = CacheAutomatonEngine.from_patterns(
                list(rulesets[ruleset]), cache=None, backend=GOLDEN_BACKEND
            )
            for payload in sorted(set(payload_indices)):
                references[(ruleset, payload)] = golden_rows(
                    engine, payloads[payload]
                )
        return cls(references, primary_backend)

    def check(self, ruleset: int, payload: bytes, payload_index: int,
              outcome) -> Optional[str]:
        if outcome.fallback or outcome.served_by != self.primary_backend:
            return (f"served by {outcome.served_by!r} "
                    f"(fallback={outcome.fallback})")
        if outcome.offset != len(payload):
            return f"offset {outcome.offset} != {len(payload)} bytes"
        expected = self.references[(ruleset, payload_index)]
        rows = canonical(outcome.report_rows())
        if rows != expected:
            return _first_difference(expected, rows)
        return None


def _first_difference(expected: Sequence[Row], got: Sequence[Row]) -> str:
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return f"row {index}: expected {want}, got {have}"
    return f"{len(got)} rows, expected {len(expected)}"
