"""Lazy-DFA execution layer over the packed-bitset kernel.

The packed kernel (:mod:`repro.sim.kernel`) pays a handful of numpy
operations per non-idle cycle; the eager CPU-DFA baseline avoids that
per-cycle work but its subset construction blows up on real rule sets
(PowerEN aborts past 4000 states).  This module takes the middle road
the fast CPU regex engines take (RE2, Hyperscan): determinise *lazily*,
caching only the DFA states an input actually visits.

A DFA state is one distinct pending successor-activation row of the
underlying :class:`~repro.sim.kernel.BitsetKernel` — the packed vector
``run_chunk`` threads between cycles.  Rows are hash-consed into dense
integer ids; each state owns a transition row (a Python list, one entry
per symbol) filled on demand.  The rows are *pointer-linked*, so the
warm scan loop is one list index per symbol and nothing else::

    for symbol in it:
        row = row[symbol]

- a **silent** transition's entry is the successor state's row itself;
- a **reporting** transition's entry is a :class:`_Hit`: indexing it
  records the transition's report events (their offset comes from the
  iterator's remaining length) and returns the successor row's entry;
- an **uncached** transition's entry is the state's :class:`_Miss`:
  indexing it computes the transition on the kernel (the only numpy
  work), fills the entry, and steps on the same way.

A reporting or uncached transition on the last symbol is resolved after
the loop.  Canonical ``(state, symbol) -> (next_id, report count)``
tables are kept in parallel ``int32`` arrays — the form the
process-sharded scanner (:mod:`repro.sim.shard`), the process pool and
the split scanner publish so worker processes start with a warm cache.

**k-stride execution** (CAMA's alphabet transformation): with a
:class:`~repro.automata.stride.StrideAlphabet` the DFA consumes k input
bytes per cached transition.  The same rows and the same loop serve
every stride: rows are indexed by the *compressed* stride-class id —
the k-fold product of byte equivalence classes, typically a few hundred
columns, never a dense ``256**k`` row — and the loop iterates the
stride-class list instead of the bytes.  A missing strided transition
is materialised by stepping the unstrided kernel over the class's
representative bytes (every window in a class drives the kernel
identically).  Every reporting transition carries a *report combo* —
the ``(intra-window offset, event id)`` pairs fired along the way, a
single ``(0, event id)`` pair unstrided — so strided report events
expand to exactly the offsets and reporting-row identities the
unstrided run produces.  Input whose length is not a
multiple of k ends with uncached single-byte tail cycles, and the
start-of-data cycle always runs uncached, so checkpoints taken at *any*
byte offset interoperate bit-identically with every other execution
path.

The state/transition budget is bounded: when interning would exceed it,
the whole cache is flushed and repopulated on demand (RE2's policy —
cheap, and an adversarial input degrades to the kernel's propagate
path instead of exhausting memory).  Silent entries make the rows a
cyclic graph, so a flush (and the kernel's own release) clears the old
rows: their memory returns at once, not at the next cyclic garbage
collection.  Reporting transitions additionally record the packed
*reporting-row* bytes in a flush-immune event table, so callers can
materialise golden-convention :class:`Report` objects (full STE
identity) lazily and bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.automata.stride import StrideAlphabet, resolve_stride
from repro.errors import SimulationError, StrideError
from repro.sim.kernel import BitsetKernel, popcount_row

#: Budget for cached DFA states (transition rows + packed vectors).
DFA_CACHE_BYTES = 16 * 1024 * 1024

#: Per-state cache cost estimate at width 256: int32 next/reps rows +
#: the Python transition list (~8 bytes/slot + header) + the interned
#: packed row.  Strided kernels scale the row terms by their width.
_STATE_COST_BYTES = 256 * (4 + 4 + 8) + 512

#: ``cache_info``-style keys that accumulate across workers; everything
#: else (state counts, budgets, stride geometry) is a gauge and merges
#: by maximum.
_MERGE_SUM_KEYS = frozenset(
    ("hits", "misses", "flushes", "events", "tail_steps", "effects")
)


def merge_cache_infos(infos) -> Dict[str, int]:
    """Aggregate ``cache_info()`` dicts across scan workers.

    Counters (hits/misses/flushes/events/tail steps/effects) sum;
    gauges (state counts, budgets, stride geometry) take the maximum;
    ``workers`` counts the dicts merged.  The operation is associative
    — merging previously-merged aggregates (each contributing its own
    ``workers`` count) gives the same totals as merging the originals —
    so a backend can fold each scan's worker counters into one running
    aggregate instead of retaining every per-worker dict.
    """
    merged: Dict[str, int] = {}
    workers = 0
    for info in infos:
        workers += int(info.get("workers", 1))
        for key, value in info.items():
            if key == "workers":
                continue
            if key in _MERGE_SUM_KEYS:
                merged[key] = merged.get(key, 0) + int(value)
            else:
                merged[key] = max(merged.get(key, 0), int(value))
    merged["workers"] = workers
    return merged


class _Walk:
    """The scan in progress, as its :class:`_Hit`/:class:`_Miss` entries
    see it: the symbol sequence and its iterator (whose remaining length
    locates the current symbol), the offset just past the walked part,
    the stride, the event list (``None`` when not collecting), the
    running report total and the kernel's miss handler.  One per
    kernel; emptied after every scan, so no entry holds the kernel or
    the payload between scans."""

    __slots__ = ("seq", "it", "end", "k", "events", "total", "fill")

    def __init__(self, k: int):
        self.k = k
        self.seq = self.it = self.events = self.fill = None
        self.end = self.total = 0


class _Hit:
    """A reporting transition: records its report combo at the offset
    of the symbol that took it, then steps on from the successor row."""

    __slots__ = ("target", "combo", "total", "walk")

    def __init__(self, target: list, combo, total: int, walk: _Walk):
        self.target = target
        self.combo = combo
        self.total = total
        self.walk = walk

    def __getitem__(self, symbol):
        walk = self.walk
        walk.total += self.total
        events = walk.events
        if events is not None:
            # The symbol that took this transition is the one before
            # ``symbol``: two places behind the iterator's remainder.
            base = walk.end - walk.k * (walk.it.__length_hint__() + 2)
            for delta, event_id in self.combo:
                events.append((base + delta, event_id))
        return self.target[symbol]


class _Miss:
    """The uncached transitions of one state: fills the entry for the
    symbol that missed, then steps on from it."""

    __slots__ = ("sid", "walk")

    def __init__(self, sid: int, walk: _Walk):
        self.sid = sid
        self.walk = walk

    def __getitem__(self, symbol):
        walk = self.walk
        seq = walk.seq
        missed = seq[len(seq) - walk.it.__length_hint__() - 2]
        return walk.fill(self.sid, missed)[symbol]


class LazyDfaKernel:
    """On-demand determinisation of one :class:`BitsetKernel`.

    ``stride``/``alphabet`` select k-stride execution: pass ``stride=2``
    to derive the compressed alphabet from the kernel's match matrix, or
    an explicit :class:`StrideAlphabet` (e.g. rebuilt from cached or
    shared tables).  The *effective* stride may be smaller than
    requested when the class budget forces a degrade — see
    :meth:`cache_info`.

    ``max_states`` bounds the cached DFA (default derived from
    ``cache_bytes``); crossing it flushes the whole cache, RE2-style.
    The instance is single-threaded mutable state — share the underlying
    kernel across threads/processes, not this object.
    """

    def __init__(
        self,
        kernel: BitsetKernel,
        *,
        cache_bytes: int = DFA_CACHE_BYTES,
        max_states: Optional[int] = None,
        stride: Union[int, str, None] = 1,
        alphabet: Optional[StrideAlphabet] = None,
    ):
        self._kernel = kernel
        if alphabet is None:
            stride = resolve_stride(stride)
            if stride > 1:
                alphabet = StrideAlphabet.from_kernel(kernel, stride)
            self._stride_requested = stride
        else:
            self._stride_requested = alphabet.stride
        if alphabet is not None and alphabet.stride == 1:
            alphabet = None
        self._alphabet = alphabet
        self._stride = alphabet.stride if alphabet is not None else 1
        self._width = (
            alphabet.n_stride_classes if alphabet is not None else 256
        )
        if max_states is None:
            # The state *budget* is stride-invariant: a strided kernel
            # visits the same activation rows as the unstrided one, so
            # shrinking the state count by the wider table's per-state
            # cost would thrash exactly the workloads striding targets.
            # A strided table instead spends proportionally more bytes
            # (width/256 × the nominal budget, worst case) — that is
            # the classic multi-stride memory-for-throughput trade.
            max_states = cache_bytes // (_STATE_COST_BYTES + kernel.row_bytes)
        self._max_states = max(64, int(max_states))
        self._lookups = 0
        self._misses = 0
        self._flushes = 0
        self._tail_steps = 0
        self._walk = _Walk(self._stride)
        # Report events are flush-immune: event ids stay valid for the
        # lifetime of the kernel, so reporting transitions created after
        # a flush can reuse them and callers can resolve identity lazily.
        self._events: List[Tuple[int, bytes]] = []
        self._event_of: Dict[bytes, int] = {}
        self._reset_states()

    def __del__(self):
        # No entry refers back to the kernel outside a scan, so its
        # release runs here and can break the rows' cycles.
        self._clear_rows()

    def _clear_rows(self):
        # Breaks the row graph's cycles (silent entries point at rows).
        for row in getattr(self, "_trans", ()):
            row.clear()

    def _reset_states(self):
        self._clear_rows()
        self._ids: Dict[bytes, int] = {}
        self._rows: List[np.ndarray] = []
        #: Hot-loop view: per-state transition rows (see module doc),
        #: each followed by one extra slot holding its own state id, so
        #: a walk's final row names its state.
        self._trans: List[list] = []
        #: ``(report combo, next id) -> _Hit``: one per distinct
        #: reporting transition target in this cache generation.
        self._hits: Dict[tuple, _Hit] = {}
        capacity = 256
        self._next = np.full((capacity, self._width), -1, dtype=np.int32)
        self._reps = np.zeros((capacity, self._width), dtype=np.int32)

    # -- state interning ---------------------------------------------------

    def intern(self, row: np.ndarray) -> int:
        """Dense DFA state id of packed activation row ``row``."""
        key = np.ascontiguousarray(row).tobytes()
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._rows)
            self._ids[key] = sid
            frozen = np.frombuffer(key, dtype=np.uint64)
            self._rows.append(frozen)
            # Exact-size list: appending the id slot would over-allocate.
            trans = [_Miss(sid, self._walk)] * (self._width + 1)
            trans[-1] = sid
            self._trans.append(trans)
            while sid >= self._next.shape[0]:
                self._next = self._grow(self._next, -1)
                self._reps = self._grow(self._reps, 0)
        return sid

    @staticmethod
    def _grow(table: np.ndarray, fill: int) -> np.ndarray:
        grown = np.full(
            (table.shape[0] * 2, table.shape[1]), fill, dtype=np.int32
        )
        grown[: table.shape[0]] = table
        return grown

    @property
    def dfa_states(self) -> int:
        """Number of DFA states currently interned."""
        return len(self._rows)

    @property
    def stride(self) -> int:
        """Effective stride (after any class-budget degrade)."""
        return self._stride

    @property
    def alphabet(self) -> Optional[StrideAlphabet]:
        """The compressed stride alphabet, or ``None`` when unstrided."""
        return self._alphabet

    def state_row(self, sid: int) -> np.ndarray:
        """The packed activation row interned as state ``sid``."""
        return self._rows[sid]

    def event(self, event_id: int) -> Tuple[int, bytes]:
        """``(report_count, reporting_row_bytes)`` of one report event."""
        return self._events[event_id]

    # -- transition construction -------------------------------------------

    def _event_id(self, count: int, rep_bytes: bytes) -> int:
        event_id = self._event_of.get(rep_bytes)
        if event_id is None:
            event_id = len(self._events)
            self._event_of[rep_bytes] = event_id
            self._events.append((count, rep_bytes))
        return event_id

    def _plain_step(self, prev: np.ndarray, symbol: int):
        """One uncached cycle (no start-of-data states)."""
        kernel = self._kernel
        enabled = prev | kernel.start_all_row
        matched = kernel.match_matrix[symbol] & enabled
        nxt, _ = kernel.propagate(matched)
        rep_row = matched & kernel.report_row
        return nxt, popcount_row(rep_row), rep_row

    def _miss(self, sid: int, symbol: int):
        """Fill the ``(sid, symbol)`` transition and return its entry.

        ``symbol`` is a byte unstrided, else a stride class, which is
        materialised by running the class's representative window
        through k unstrided kernel cycles — any window in the class
        yields the same successor row and report events, because bytes
        in one equivalence class have identical match-matrix rows.

        May flush the whole cache (when the state budget is exhausted);
        the entry is then filled into the new generation's row of the
        re-interned current state, so the walk carries on from it.
        """
        self._misses += 1
        prev = self._rows[sid]
        if self._alphabet is None:
            window = (symbol,)
        else:
            window = self._alphabet.representative_bytes(symbol)
        row = prev
        combo: List[Tuple[int, int]] = []
        total = 0
        for delta, byte in enumerate(window):
            row, count, rep_row = self._plain_step(row, byte)
            if count:
                total += count
                combo.append((delta, self._event_id(count, rep_row.tobytes())))
        if len(self._rows) >= self._max_states:
            self._flushes += 1
            self._reset_states()
            sid = self.intern(prev)
        nid = self.intern(row)
        entry = target = self._trans[nid]
        if total:
            key = (tuple(combo), nid)
            entry = self._hits.get(key)
            if entry is None:
                entry = _Hit(target, key[0], total, self._walk)
                self._hits[key] = entry
        self._trans[sid][symbol] = entry
        self._next[sid, symbol] = nid
        self._reps[sid, symbol] = total
        return entry

    def _sod_step(self, prev: np.ndarray, symbol: int):
        """One uncached cycle with the start-of-data states enabled."""
        kernel = self._kernel
        enabled = prev | kernel.start_all_row | kernel.start_sod_row
        matched = kernel.match_matrix[symbol] & enabled
        nxt, _ = kernel.propagate(matched)
        rep_row = matched & kernel.report_row
        return nxt, popcount_row(rep_row), rep_row

    # -- scanning ----------------------------------------------------------

    def scan(
        self,
        symbols: np.ndarray,
        *,
        prev: np.ndarray,
        sod: bool,
        collect_events: bool = True,
    ) -> Tuple[List[Tuple[int, int]], int, np.ndarray, bool]:
        """Drive the DFA over ``symbols`` from activation row ``prev``.

        Returns ``(events, report_total, final_row, sod)`` where
        ``events`` is a list of ``(offset, event_id)`` report events in
        stream order (empty unless ``collect_events``), ``report_total``
        counts every reporting STE firing, and ``final_row`` is the
        pending activation row after the last symbol — exactly the
        cursor :meth:`BitsetKernel.run_chunk` would have produced, so
        checkpoints interoperate with every other execution path,
        strided or not.
        """
        events: List[Tuple[int, int]] = []
        report_total = 0
        length = len(symbols)
        if length == 0:
            return events, report_total, prev, sod
        pos = 0
        if sod:
            # Start-of-data states are enabled for exactly one cycle, so
            # that cycle runs outside the cache and the DFA proper only
            # ever sees transitions keyed by the activation row alone.
            prev, count, rep_row = self._sod_step(prev, int(symbols[0]))
            if count:
                report_total += count
                if collect_events:
                    events.append((0, self._event_id(count, rep_row.tobytes())))
            sod = False
            pos = 1
        k = self._stride
        end = pos + (length - pos) // k * k
        if end > pos:
            if k == 1:
                seq = np.asarray(symbols, dtype=np.uint8).tobytes()
                it = iter(seq)
                if pos:
                    next(it)
            else:
                seq = self._alphabet.stride_classes(symbols[pos:end]).tolist()
                it = iter(seq)
            self._lookups += (end - pos) // k
            row = self._trans[self.intern(prev)]
            walk = self._walk
            walk.seq = seq
            walk.it = it
            walk.end = end
            walk.events = events if collect_events else None
            walk.total = report_total
            walk.fill = self._miss
            try:
                for symbol in it:
                    row = row[symbol]
                # A reporting or uncached transition on the last symbol
                # has no next symbol to resolve it: settle it here.
                if type(row) is _Miss:
                    row = self._miss(row.sid, seq[-1])
                if type(row) is _Hit:
                    walk.total += row.total
                    if collect_events:
                        for delta, event_id in row.combo:
                            events.append((end - k + delta, event_id))
                    row = row.target
                report_total = walk.total
            finally:
                walk.seq = walk.it = walk.events = walk.fill = None
            prev = self._rows[row[-1]]
        # Odd-length tail: uncached unstrided cycles, so the final
        # activation row (the resume cursor) is bit-identical to the
        # unstrided run's.
        for i in range(end, length):
            self._tail_steps += 1
            prev, count, rep_row = self._plain_step(prev, int(symbols[i]))
            if count:
                report_total += count
                if collect_events:
                    events.append((i, self._event_id(count, rep_row.tobytes())))
        return events, report_total, prev, sod

    # -- sharding support --------------------------------------------------

    def export_tables(self) -> Dict[str, np.ndarray]:
        """Canonical DFA tables for publication to worker processes.

        ``dfa_rows`` are the interned packed activation rows (state id
        order); ``dfa_next``/``dfa_reps`` the ``(states, width)`` int32
        transition tables (-1 = not yet computed), where width is 256
        unstrided or the compressed stride-class count.  A strided
        kernel additionally ships its alphabet (``stride_k``,
        ``stride_class_of``, ``stride_reps``) so workers rebuild the
        identical class map.  Reporting-row bytes are deliberately *not*
        exported — a seeded worker recomputes a reporting transition on
        first use (see :meth:`seed`).
        """
        states = len(self._rows)
        words = self._kernel.words
        if states:
            rows = np.ascontiguousarray(np.stack(self._rows))
        else:
            rows = np.zeros((0, words), dtype=np.uint64)
        tables = {
            "dfa_rows": rows,
            "dfa_next": np.ascontiguousarray(self._next[:states]),
            "dfa_reps": np.ascontiguousarray(self._reps[:states]),
        }
        if self._alphabet is not None:
            tables.update(self._alphabet.tables())
        return tables

    def seed(
        self, rows: np.ndarray, nxt: np.ndarray, reps: np.ndarray
    ) -> None:
        """Warm-start a fresh kernel from :meth:`export_tables` output.

        Non-reporting transitions seed directly into the hot-loop rows;
        reporting ones stay missing (their reporting-row bytes were not
        shipped) and recompute through the miss path on first use — a
        one-time propagate per distinct reporting transition.  The
        tables' state ids are adopted as this kernel's own, so seeding
        a kernel that has already interned states raises
        :class:`~repro.errors.SimulationError`.
        """
        nxt = np.asarray(nxt)
        if nxt.ndim == 2 and nxt.shape[0] and nxt.shape[1] != self._width:
            raise StrideError(
                f"seed tables have width {nxt.shape[1]} but this kernel's "
                f"stride-{self._stride} alphabet has width {self._width}"
            )
        states = len(rows)
        if not states:
            return
        if self._rows:
            raise SimulationError(
                f"seed() needs a fresh kernel; this one already holds "
                f"{len(self._rows)} DFA states"
            )
        # Copy: the caller's rows may view shared memory that is
        # unmapped right after seeding.
        contiguous = np.array(rows, dtype=np.uint64)
        contiguous.setflags(write=False)
        for index in range(states):
            self._ids[contiguous[index].tobytes()] = index
        self._rows = list(contiguous)
        # Convert the whole silent table with C-level maps over an
        # index list whose -1 slot is the state's miss entry — at
        # stride >1 the table is states x C**k and a per-entry Python
        # loop would dominate worker startup.
        silent = np.where(np.asarray(reps) == 0, nxt, -1).tolist()
        width = self._width
        trans = [[sid] * (width + 1) for sid in range(states)]
        lookup = trans + [None]
        for sid in range(states):
            lookup[-1] = _Miss(sid, self._walk)
            trans[sid][:width] = map(lookup.__getitem__, silent[sid])
        self._trans = trans
        while states > self._next.shape[0]:
            self._next = self._grow(self._next, -1)
            self._reps = self._grow(self._reps, 0)
        self._next[:states] = nxt
        self._reps[:states] = reps

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Transition-cache effectiveness counters.

        ``hits`` is derived (lookups minus misses); ``flushes`` counts
        wholesale cache resets; ``events`` the distinct reporting
        transitions recorded since construction.  ``stride`` is the
        effective stride after any class-budget degrade
        (``stride_requested`` keeps the asked-for value);
        ``stride_classes`` is the transition-row width and
        ``tail_steps`` counts uncached odd-tail cycles.
        """
        return {
            "states": len(self._rows),
            "max_states": self._max_states,
            "hits": self._lookups - self._misses,
            "misses": self._misses,
            "flushes": self._flushes,
            "events": len(self._events),
            "stride": self._stride,
            "stride_requested": self._stride_requested,
            "stride_classes": self._width,
            "tail_steps": self._tail_steps,
        }
