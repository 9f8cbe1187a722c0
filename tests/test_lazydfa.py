"""The lazy-DFA kernel's pointer-linked transition rows.

Differential rows against the golden interpreter at every stride, with
a state budget so small that cache flushes land on reporting
transitions, on the last symbol of a scan and on the first cached
symbol after the start-of-data cycle; resumes at every cut point; a
worker kernel seeded from ``export_tables``; the fresh-kernel rule of
``seed``; and memory hygiene of the cyclic row graph (flushes, kernel
release and finished scans free memory without the cyclic collector).
"""

import gc
import random
import sys
import tracemalloc

import numpy as np
import pytest

from repro.backends import create_backend
from repro.backends.artifact import CompiledArtifact
from repro.compiler import compile_automaton
from repro.core.design import CA_P
from repro.errors import SimulationError
from repro.regex.compile import compile_patterns
from repro.sim.lazydfa import LazyDfaKernel, _Hit
from repro.sim.shard import _scan_one

#: Unanchored and ``^``-anchored rules; "c" reports on single bytes so
#: reporting transitions are everywhere, the anchored ones report in
#: the start-of-data cycle and the cycle after it.  Eleven byte classes
#: keep stride 4 within the class budget (``.`` would add a twelfth).
RULES = ["abc", "b[cd]e", "x[^q]*yz", "q+r", "^ab", "^q+r", "c"]
ALPHABET = b"abcdeqrxyz"
STRIDES = (1, 2, 4)
#: A state budget far below what the streams visit (the constructor
#: clamps ``max_states`` to >= 64, hence the direct override).
TINY_STATES = 2


def _stream(length, seed, prefix=b""):
    rng = random.Random(seed)
    body = bytes(rng.choice(ALPHABET) for _ in range(length - len(prefix)))
    return prefix + body


STREAMS = (
    _stream(48, 1, prefix=b"ab"),
    _stream(47, 2, prefix=b"qqr"),
    _stream(45, 3),
)


@pytest.fixture(scope="module")
def artifact():
    machine = compile_patterns(RULES, report_codes=RULES)
    return CompiledArtifact.from_mapping(compile_automaton(machine, CA_P))


@pytest.fixture(scope="module")
def golden(artifact):
    return create_backend("golden-interpreter", artifact)


def _rows(result):
    return sorted((r.offset, r.ste_id, r.report_code) for r in result.reports)


def _state(checkpoint, bit_ids):
    """A checkpoint as (position, active STE ids, sod pending): golden
    and mapped vectors number their bits differently."""
    vector = checkpoint.active_state_vector
    active = frozenset(
        ste_id for bit, ste_id in enumerate(bit_ids) if vector >> bit & 1
    )
    return (
        checkpoint.symbols_processed,
        active,
        checkpoint.start_of_data_pending,
    )


def _golden_state(golden, checkpoint):
    return _state(checkpoint, golden.simulator.automaton.ste_ids())


def _lazy_state(backend, checkpoint):
    return _state(checkpoint, backend.simulator._bit_ids())


class _RecordingKernel(LazyDfaKernel):
    """Logs every miss: (walk index, walk length, flushed, reporting)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _miss(self, sid, symbol):
        walk = self._walk
        flushes = self._flushes
        if sys._getframe(1).f_code.co_name == "__getitem__":
            index = len(walk.seq) - walk.it.__length_hint__() - 2
        else:  # settled after the loop: the last symbol
            index = len(walk.seq) - 1
        entry = super()._miss(sid, symbol)
        self.log.append(
            (index, len(walk.seq), self._flushes > flushes, type(entry) is _Hit)
        )
        return entry


def _tiny_backend(artifact, stride, kernel_cls=LazyDfaKernel):
    backend = create_backend("lazy-dfa", artifact, stride=stride)
    backend.dfa = kernel_cls(backend.simulator.kernel, stride=stride)
    backend.dfa._max_states = TINY_STATES
    assert backend.dfa.stride == stride
    return backend


class TestDifferential:
    @pytest.mark.parametrize("stride", STRIDES)
    def test_flushes_everywhere_match_golden(self, stride, artifact, golden):
        backend = _tiny_backend(artifact, stride, _RecordingKernel)
        for data in STREAMS * 2:
            result = backend.scan(data)
            reference = golden.scan(data)
            assert _rows(result) == _rows(reference)
            assert _lazy_state(backend, result.checkpoint) == _golden_state(
                golden, reference.checkpoint
            )
        log = backend.dfa.log
        assert backend.cache_info()["flushes"] > len(log) // 2
        # Every scan here starts with the start-of-data cycle, so the
        # first cached symbol is byte 1 unstrided, group 0 strided.
        first_cached = 1 if stride == 1 else 0
        assert any(flushed and hit for _, _, flushed, hit in log)
        assert any(flushed and i == n - 1 for i, n, flushed, _ in log)
        assert any(flushed and i == first_cached for i, _, flushed, _ in log)

    @pytest.mark.parametrize("stride", STRIDES)
    def test_resume_at_every_cut(self, stride, artifact, golden):
        data = STREAMS[0]
        reference = golden.scan(data)
        expected_rows = _rows(reference)
        expected_state = _golden_state(golden, reference.checkpoint)
        backend = _tiny_backend(artifact, stride)
        for cut in range(len(data) + 1):
            head = backend.scan(data[:cut])
            assert _lazy_state(backend, head.checkpoint) == _golden_state(
                golden, golden.scan(data[:cut]).checkpoint
            ), f"checkpoint at cut {cut}"
            tail = backend.scan(data[cut:], resume=head.checkpoint)
            assert _rows(head) + _rows(tail) == expected_rows, f"cut {cut}"
            assert _lazy_state(backend, tail.checkpoint) == expected_state

    @pytest.mark.parametrize("stride", STRIDES)
    def test_seeded_worker_kernel(self, stride, artifact, golden):
        parent = create_backend("lazy-dfa", artifact, stride=stride)
        parent.scan(STREAMS[1])
        tables = parent.dfa.export_tables()
        worker = LazyDfaKernel(
            parent.simulator.kernel, alphabet=parent.dfa.alphabet
        )
        worker.seed(tables["dfa_rows"], tables["dfa_next"], tables["dfa_reps"])
        assert worker.dfa_states == parent.dfa.dfa_states
        worker._max_states = TINY_STATES * 4
        kernel = parent.simulator.kernel
        for data in STREAMS:
            raw = _scan_one(kernel, worker, data, None, True)
            result = parent.materialise_raw(raw, 0, True)
            reference = golden.scan(data)
            assert _rows(result) == _rows(reference)
            assert _lazy_state(parent, result.checkpoint) == _golden_state(
                golden, reference.checkpoint
            )
        assert worker.cache_info()["flushes"] > 0


class TestSeed:
    def test_seeding_a_warm_kernel_is_refused(self):
        rules = ["abc", "b[cd]e", "x.*yz", "q+r"]
        machine = compile_patterns(rules, report_codes=rules)
        backend = create_backend(
            "lazy-dfa",
            CompiledArtifact.from_mapping(compile_automaton(machine, CA_P)),
        )
        kernel = backend.simulator.kernel
        streams = [
            np.frombuffer(_stream(300, seed), dtype=np.uint8)
            for seed in (5, 6)
        ]

        def run(dfa, symbol_streams=streams):
            return [
                dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)
                for symbols in symbol_streams
            ]

        source = LazyDfaKernel(kernel)
        run(source)
        tables = source.export_tables()
        reference = LazyDfaKernel(kernel)
        expected = run(reference)
        # A kernel warmed on other traffic numbers its states
        # differently from the tables; adopting their ids would send
        # its transitions to the wrong states.
        warm = LazyDfaKernel(kernel)
        run(warm, [symbols[::-1].copy() for symbols in streams])
        before = warm.export_tables()
        with pytest.raises(SimulationError, match="fresh kernel"):
            warm.seed(tables["dfa_rows"], tables["dfa_next"], tables["dfa_reps"])
        after = warm.export_tables()
        assert before.keys() == after.keys()
        for name in before:
            assert np.array_equal(before[name], after[name])
        fresh = LazyDfaKernel(kernel)
        fresh.seed(tables["dfa_rows"], tables["dfa_next"], tables["dfa_reps"])
        for dfa in (warm, fresh):
            for got, want in zip(run(dfa), expected):
                events, total, row, sod = got
                ref_events, ref_total, ref_row, ref_sod = want
                assert total == ref_total > 0
                assert [(o, dfa.event(e)) for o, e in events] == [
                    (o, reference.event(e)) for o, e in ref_events
                ]
                assert np.array_equal(row, ref_row)
                assert sod == ref_sod


def _traced_now():
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off and allocations traced, so
    memory counts only what reference counting returns."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


class TestMemory:
    def test_flushes_return_memory(self, artifact, no_cyclic_gc):
        backend = create_backend("lazy-dfa", artifact)
        dfa = backend.dfa
        dfa._max_states = 3
        kernel = backend.simulator.kernel
        symbols = np.frombuffer(_stream(3000, 9), dtype=np.uint8)

        def scan():
            dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)

        scan()
        settled = _traced_now()
        flushes = dfa.cache_info()["flushes"]
        for _ in range(3):
            scan()
        assert dfa.cache_info()["flushes"] >= flushes * 4 > 400
        # One generation of rows is a few KiB; every flush leaking its
        # rows would add megabytes here.
        assert _traced_now() - settled < 64 * 1024

    def test_released_kernel_returns_memory(self, artifact, no_cyclic_gc):
        backend = create_backend("lazy-dfa", artifact)
        kernel = backend.simulator.kernel
        symbols = np.frombuffer(_stream(3000, 10), dtype=np.uint8)
        # The backend's own kernel warms the tables the bitset kernel
        # builds on first use.
        backend.dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)
        baseline = _traced_now()
        dfa = LazyDfaKernel(kernel)
        dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)
        states = dfa.dfa_states
        assert states > 5
        del dfa
        # Left behind: under a quarter of the rows' own pointer arrays.
        assert _traced_now() - baseline < states * 256 * 8 // 4

    @pytest.mark.parametrize("stride", STRIDES)
    def test_finished_scan_drops_its_payload(
        self, stride, artifact, no_cyclic_gc
    ):
        backend = create_backend("lazy-dfa", artifact, stride=stride)
        dfa = backend.dfa
        kernel = backend.simulator.kernel
        chunk = _stream(4096, 11)

        def scan_payload():
            symbols = np.frombuffer(chunk * 64, dtype=np.uint8)
            dfa.scan(symbols, prev=kernel.pack(0), sod=kernel.has_sod)

        scan_payload()  # warms every transition the payload takes
        dfa.scan(
            np.frombuffer(chunk[:64], dtype=np.uint8),
            prev=kernel.pack(0),
            sod=kernel.has_sod,
        )
        baseline = _traced_now()
        scan_payload()
        # The scan copied the 256 KiB payload into bytes (unstrided) or
        # a class list (strided); neither may outlive it.
        assert _traced_now() - baseline < 16 * 1024
