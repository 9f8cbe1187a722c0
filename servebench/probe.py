"""Host-speed probe, host-normalised timing, and percentile rules.

On a shared host the speed of one core drifts by a factor of two or
more within minutes, and CPU time drifts with it, so neither wall time
nor CPU time of a section repeats from run to run.  Every timed section
of the benchmark is therefore bracketed by a fixed pure-Python probe
that runs in the same thread immediately before and after it, and a
section's *normalised* time is

    raw_s * PROBE_REF_S / mean(probe_before, probe_after)

that is, the time the section would have taken on a host where the
probe takes exactly :data:`PROBE_REF_S`.  The unit stays seconds.  Raw
times are always kept beside the normalised ones.

The probe is a fixed piece of the interpreter's everyday work — small
tuples, string formatting, tuple unpacking, dict updates, and a JSON
round trip of a few small rows — and uses no code of the program under
test, so a faster program never moves it.  It was chosen by measurement
on a 2-core shared x86-64 host.  Over five-second windows of warm
64 KiB lazy-DFA scans, with raw medians swinging 1.8x, scan time divided
by the tuple-and-dict part alone varied by 2% (IQR/median) while a
lazy-DFA-like table walk varied by 7%.  Adding the JSON round trip
(which the wire codec and report decoding resemble) then lowered, on
the serving path of each workload over 80-90 s, the spread of
normalised window medians (4.6/4.8/4.9% to 4.5/3.9/3.7% on
ids-64k/logs-dense/tenant-churn) and their bias between the host's fast
and slow regimes (-2.3/-2.9/-3.0% to -0.3/+0.6/-0.8%, slowest third of
windows against the fastest).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import List, Sequence

#: Probe duration on the reference host (seconds).  A constant of the
#: benchmark: changing it rescales every normalised time.
PROBE_REF_S = 100e-6

#: One probe is the median of this many walks, so a single interrupt
#: landing in a walk does not skew the section it brackets.
PROBE_WALKS = 5

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: Probes in one idle block (taken while no service exists).
IDLE_PROBES = 100

#: In-load probes slower than idle ones by more than this factor (the
#: median over repeated runs) mean the program spends CPU outside its
#: requests.  One run's ratio is not enough: the host can change speed
#: regime between the idle blocks and the measured phase, which moved
#: single runs' ratios between 0.6 and 2.
PROBE_LOAD_MARGIN = 1.2


#: Rows the probe round-trips through JSON.
_JSON_ROWS = [[index, "m0_%d" % (index % 7), "user=[a-z]+"] for index in range(60)]


def _walk() -> float:
    start = time.perf_counter()
    rows = [(index, "m0_%d" % (index % 7), "rule") for index in range(150)]
    totals = {}
    for index, ste, _ in rows:
        totals[ste] = totals.get(ste, 0) + index
    [tuple(row) for row in json.loads(json.dumps(_JSON_ROWS))]
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe walk takes on this host right now."""
    return statistics.median(_walk() for _ in range(PROBE_WALKS))


def idle_probes() -> List[float]:
    """A block of probes, for a moment when the program does nothing."""
    return [probe() for _ in range(IDLE_PROBES)]


def normalise(raw_s: float, probe_before: float, probe_after: float) -> float:
    """``raw_s`` rescaled to the reference host speed."""
    return raw_s * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


@dataclass(frozen=True)
class Timing:
    """One timed section: its raw duration and its adjacent probes."""

    raw_s: float
    probe_before: float
    probe_after: float

    @property
    def norm_s(self) -> float:
        return normalise(self.raw_s, self.probe_before, self.probe_after)

    @property
    def factor(self) -> float:
        """Normalised / raw; applies to any sub-interval of the section."""
        return self.norm_s / self.raw_s if self.raw_s > 0 else 1.0


class Section:
    """``with Section() as section: ...`` times its body between probes.

    The body may ``await``; the probes themselves run synchronously, so
    nothing else on the event loop runs between a probe and the timer.
    """

    def __init__(self):
        self.timing: Timing = None
        self._before = 0.0
        self._start = 0.0

    def __enter__(self) -> "Section":
        self._before = probe()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        raw = time.perf_counter() - self._start
        self.timing = Timing(raw, self._before, probe())


def sum_timings(timings: Sequence[Timing]) -> Timing:
    """Several sections as one: raw and normalised times add up.

    The result carries an equivalent probe, so ``norm_s`` of the sum is
    the sum of the parts' ``norm_s``.
    """
    raw = sum(t.raw_s for t in timings)
    norm = sum(t.norm_s for t in timings)
    equivalent = PROBE_REF_S * raw / norm if norm > 0 else PROBE_REF_S
    return Timing(raw, equivalent, equivalent)


def samples_needed(quantile: float) -> int:
    """Samples needed for ``MIN_TAIL_SAMPLES`` to lie beyond ``quantile``."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    return math.ceil(round(MIN_TAIL_SAMPLES / (1.0 - quantile), 9))


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def tail_percentile(values: Sequence[float], quantile: float) -> float:
    """The ``quantile`` of ``values``, refusing unsupported tails.

    Linear interpolation between order statistics (the ``inclusive``
    method of :func:`statistics.quantiles`).
    """
    needed = samples_needed(quantile)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{quantile * 100:g} needs {needed} samples, got {len(values)}"
        )
    ordered: List[float] = sorted(values)
    position = quantile * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
