"""Seeded inputs of the three workloads.

Everything the program receives — rulesets (as pattern strings) and
payloads (as bytes) — is generated here from the workload name and the
``--seed``; the same seed gives the same inputs.  Rulesets that the
performance of a run depends on most (the IDS ruleset, the log
ruleset, the stable tenant) are fixed, so that runs with different
seeds measure the same program on equally hard traffic; the payloads
and the churn tenant's ruleset pool vary with the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.workloads import inputs as stream_inputs
from repro.workloads import synth

from servebench.probe import samples_needed

#: Registration settings shared by every tenant: the lazy-DFA backend,
#: unstrided, so environment defaults cannot change what is measured.
BACKEND = "lazy-dfa"
STRIDE = 1

#: Enough payloads that the lazy-DFA work of the set-up's warm-up pass
#: varies little between seeds (misses: 5.2% IQR/median over ten
#: seeds with 12 payloads, 3.1% with 24).
IDS_PAYLOADS = 24
IDS_PAYLOAD_BYTES = 64 * 1024
#: Complete rule matches planted per IDS payload.
IDS_PLANTED = 8

LOG_PAYLOADS = 32
LOG_PAYLOAD_BYTES = 4 * 1024

CHURN_STABLE_PAYLOADS = 8
CHURN_PAYLOAD_BYTES = 16 * 1024
CHURN_RULES = 16
#: Complete matches of its ruleset planted in each churn payload.
CHURN_PLANTED = 4
#: Scans between two hot-reloads of the churn tenant (half per tenant).
CHURN_SCANS_PER_RELOAD = 6
#: Reload epochs generated per second of ``--seconds``: about as many as
#: the reference host gets through, so a run ends when either the
#: schedule or the time runs out.  (Each never-seen ruleset adds a golden
#: reference to compute before the run.)
CHURN_EPOCHS_PER_SECOND = 24
#: A re-registration picks one of this many most recently registered
#: churn rulesets (other than the current one).  The window is fixed,
#: and smaller than the scan worker's engine cache, so every stretch of
#: the schedule has the same mix whatever length of it a run measures.
CHURN_WARM_WINDOW = 4

#: The in-loop workloads time warm hot-reloads of a tenant that is never
#: scanned, in bursts before and after the scan phase; each burst lasts
#: at least this many reloads and this many seconds.
WARM_RELOADS = 30
WARM_RELOAD_SECONDS = 1.0

#: The log-extraction ruleset: keys, values, addresses and paths, so
#: that about one byte in four of a log line ends a match.
LOG_RULES: Tuple[str, ...] = (
    r"user=[a-z]+",
    r"src=[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+",
    r"port=[0-9]+",
    r"status=[0-9]{3}",
    r"latency=[0-9]+ms",
    r"(ERROR|WARN|INFO|DEBUG)",
    r"[0-9]{2}:[0-9]{2}:[0-9]{2}",
    r"/[a-z0-9]+",
    r"[a-z]+\[[0-9]+\]",
    r"[a-z]+=",
    r"(GET|POST|PUT|DELETE)",
    r"req-[0-9a-f]{8}",
)

_LOG_LEVELS = ("INFO", "INFO", "INFO", "DEBUG", "WARN", "ERROR")
_LOG_METHODS = ("GET", "GET", "POST", "PUT", "DELETE")
_LOG_STATUS = (200, 200, 200, 201, 204, 301, 404, 500, 503)


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is ``"scan"`` (``tenant`` scans ``payloads[payload]``) or
    ``"reload"`` (``tenant`` is re-registered with
    ``rulesets[ruleset]``; ``tier`` is the engine tier the reload must
    produce: ``cold-compile`` for a never-seen ruleset,
    ``warm-cache`` for a re-registration).
    """

    kind: str
    tenant: str
    payload: int = -1
    ruleset: int = -1
    tier: str = ""


@dataclass
class WorkloadInputs:
    """Everything one run of a workload sends to the program."""

    #: 0 = scans run in the event loop; 1 = one scan worker process.
    scan_workers: int
    rulesets: List[Tuple[str, ...]]
    payloads: List[bytes]
    #: tenant -> ruleset index registered at set-up.
    tenants: Dict[str, int]
    #: Set-up warm-up pass: one scan of every distinct (tenant, payload).
    warmup: List[Op]
    #: The measured operations; ``cyclic`` ones repeat until time is up.
    ops: List[Op]
    cyclic: bool
    #: Timed hot-reloads of the in-loop workloads; a burst alternates
    #: between them.
    reloads: List[Op] = field(default_factory=list)
    #: Untimed first registration of the reloaded tenant, which also
    #: compiles the ruleset ``reloads`` alternate to.
    reload_priming: Optional[Op] = None

    def scan_pairs(self) -> Set[Tuple[int, int]]:
        """Every distinct (ruleset, payload) a scan can see: the pairs
        the golden references must cover."""
        current = dict(self.tenants)
        pairs = set()
        for op in self.warmup + self.ops:
            if op.kind == "reload":
                current[op.tenant] = op.ruleset
            else:
                pairs.add((current[op.tenant], op.payload))
        return pairs


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def ids_ruleset(count: int = 110, seed: int = 0) -> Tuple[str, ...]:
    """An IDS ruleset from the PowerEN recipe of the workload suite
    (literals, classes, bounded repeats, 8% of rules with ``.*``)."""
    return tuple(
        synth.ids_rules(
            count, seed=seed, class_probability=0.35, dotstar_probability=0.08
        )
    )


def ids_payloads(workload: str, seed: int, count: int, size: int,
                 rules: Sequence[str]) -> List[bytes]:
    """IDS traffic with sparse matches: Zipf-skewed text over the
    ruleset's alphabet with :data:`IDS_PLANTED` complete matches of
    randomly chosen rules planted in each payload.

    Rules with ``.*`` are not planted: a planted prefix keeps such a
    rule live for the rest of the payload, and one with a short suffix
    then reports thousands of times, so a few payloads of each seed
    would be orders of magnitude denser than the rest.
    """
    rng = _rng(workload, seed, "payloads")
    plantable = _plantable(rules)
    return [_planted(rng, size, rng.sample(plantable, IDS_PLANTED))
            for _ in range(count)]


def _plantable(rules: Sequence[str]) -> List[str]:
    return [rule for rule in rules if ".*" not in rule]


def _log_line(rng: random.Random, users, hosts, procs, segments) -> str:
    octets = ".".join(str(rng.randrange(1, 255)) for _ in range(4))
    path = "/".join(rng.choice(segments) for _ in range(rng.randint(1, 3)))
    return (
        f"2026-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}:"
        f"{rng.randrange(60):02d}Z {rng.choice(hosts)} "
        f"{rng.choice(procs)}[{rng.randrange(100, 40000)}]: "
        f"{rng.choice(_LOG_LEVELS)} user={rng.choice(users)} src={octets} "
        f"port={rng.randrange(1024, 65536)} "
        f"method={rng.choice(_LOG_METHODS)} path=/{path} "
        f"status={rng.choice(_LOG_STATUS)} latency={rng.randrange(1, 900)}ms "
        f"req=req-{rng.randrange(1 << 32):08x}\n"
    )


def log_stream(workload: str, seed: int, size: int) -> bytes:
    """``size`` bytes of seeded web-server log lines.

    The vocabulary (user, process and path names) is the same for every
    seed: the lengths of its words set how many matches a line holds,
    and a vocabulary drawn per seed made the match count of a seed's
    payloads vary by 4% (IQR / median over ten seeds).
    """
    rng = _rng(workload, seed, "logs")
    vocabulary = _rng(workload, 0, "vocabulary")

    def words(count, low, high):
        return [
            "".join(vocabulary.choice("abcdefghijklmnopqrstuvwxyz")
                    for _ in range(vocabulary.randint(low, high)))
            for _ in range(count)
        ]

    users, procs, segments = words(40, 3, 9), words(8, 4, 8), words(30, 2, 10)
    hosts = [f"web{index:02d}" for index in range(12)]
    lines: List[str] = []
    total = 0
    while total < size:
        line = _log_line(rng, users, hosts, procs, segments)
        lines.append(line)
        total += len(line)
    return "".join(lines).encode("ascii")[:size]


_IDS_TOKEN = re.compile(r"\[[^\]]+\]|.\{\d+,\d+\}|\.\*|.")


def sample_match(rule: str) -> str:
    """A string matching a rule from :func:`repro.workloads.synth.ids_rules`
    (literals, ``[class]``, ``c{m,n}`` and ``.*`` pieces only)."""
    pieces = []
    for token in _IDS_TOKEN.findall(rule):
        if token == ".*":
            continue
        if token.startswith("["):
            pieces.append(token[1])
        elif token.endswith("}"):
            pieces.append(token[0] * int(token[2:].split(",")[0]))
        else:
            pieces.append(token)
    return "".join(pieces)


def _planted(rng: random.Random, size: int, rules: Sequence[str]) -> bytes:
    """Zipf-skewed text with one complete match of each rule planted."""
    background = stream_inputs.random_over_alphabet(
        size,
        stream_inputs.LOWERCASE + b"0123456789 ",
        seed=rng.randrange(1 << 30),
        zipf=True,
    )
    stream = bytearray(background)
    for rule in rules:
        needle = sample_match(rule).encode("ascii")
        position = rng.randrange(0, size - len(needle))
        stream[position:position + len(needle)] = needle
    return bytes(stream)


def ids_64k(seed: int, seconds: float) -> WorkloadInputs:
    """In-loop plane; 64 KiB requests against the PowerEN-recipe ruleset."""
    name = "ids-64k"
    rules = ids_ruleset()
    return _scan_workload(
        rules, ids_payloads(name, seed, IDS_PAYLOADS, IDS_PAYLOAD_BYTES, rules)
    )


def logs_dense(seed: int, seconds: float) -> WorkloadInputs:
    """In-loop plane; 4 KiB log requests with hundreds of matches each."""
    name = "logs-dense"
    stream = log_stream(name, seed, LOG_PAYLOADS * LOG_PAYLOAD_BYTES)
    payloads = [
        stream[index * LOG_PAYLOAD_BYTES:(index + 1) * LOG_PAYLOAD_BYTES]
        for index in range(LOG_PAYLOADS)
    ]
    return _scan_workload(LOG_RULES, payloads)


def _scan_workload(rules, payloads) -> WorkloadInputs:
    tenant = "main"
    scans = [Op("scan", tenant, payload=index) for index in range(len(payloads))]
    # The timed reloads alternate between the ruleset and a one-rule-
    # shorter variant, both in the artifact cache after the priming
    # reload, so each is a warm hot-reload with a changed fingerprint.
    # They go to a second tenant so that the scanned one stays warm.
    reloaded = "reloaded"
    reloads = [Op("reload", reloaded, ruleset=index, tier="warm-cache")
               for index in (0, 1)]
    return WorkloadInputs(
        scan_workers=0,
        rulesets=[tuple(rules), tuple(rules[:-1])],
        payloads=payloads,
        tenants={tenant: 0},
        warmup=list(scans),
        ops=scans,
        cyclic=True,
        reloads=reloads,
        reload_priming=Op("reload", reloaded, ruleset=1, tier="cold-compile"),
    )


def tenant_churn(seed: int, seconds: float) -> WorkloadInputs:
    """Pool plane; a warm tenant beside one that is hot-reloaded every
    few scans, half with never-seen rulesets, half re-registrations."""
    name = "tenant-churn"
    rng = _rng(name, seed, "schedule")
    stable_payloads = ids_payloads(
        name, seed, CHURN_STABLE_PAYLOADS, CHURN_PAYLOAD_BYTES, ids_ruleset()
    )
    # At least enough scans for a p99, however short the run.
    epochs = max(int(seconds * CHURN_EPOCHS_PER_SECOND),
                 -(-samples_needed(0.99) // CHURN_SCANS_PER_RELOAD))
    fresh = 1 + (epochs + 1) // 2  # the initial ruleset + one per cold epoch
    churn_rules = [
        tuple(synth.ids_rules(
            CHURN_RULES,
            seed=rng.randrange(1 << 30),
            class_probability=0.35,
            dotstar_probability=0.08,
        ))
        for _ in range(fresh)
    ]
    rulesets = [ids_ruleset()] + churn_rules
    payloads = list(stable_payloads) + [
        _planted(rng, CHURN_PAYLOAD_BYTES, _plantable(rules)[:CHURN_PLANTED])
        for rules in churn_rules
    ]
    # Ruleset index r >= 1 always scans payload churn_payload(r).
    def churn_payload(ruleset: int) -> int:
        return len(stable_payloads) + ruleset - 1

    warmup = [Op("scan", "stable", payload=index)
              for index in range(len(stable_payloads))]
    warmup.append(Op("scan", "churn", payload=churn_payload(1)))
    ops: List[Op] = []
    # Churn rulesets registered so far, least recently registered first;
    # the last one is the current one.
    recent = [1]
    next_fresh = 2
    stable_cursor = 0
    for epoch in range(epochs):
        if epoch % 2 == 0:
            current, tier = next_fresh, "cold-compile"
            next_fresh += 1
        else:
            current = rng.choice(recent[-1 - CHURN_WARM_WINDOW:-1])
            tier = "warm-cache"
            recent.remove(current)
        recent.append(current)
        ops.append(Op("reload", "churn", ruleset=current, tier=tier))
        for step in range(CHURN_SCANS_PER_RELOAD):
            if step % 2 == 0:
                ops.append(Op("scan", "stable", payload=stable_cursor))
                stable_cursor = (stable_cursor + 1) % len(stable_payloads)
            else:
                ops.append(Op("scan", "churn", payload=churn_payload(current)))
    return WorkloadInputs(
        scan_workers=1,
        rulesets=rulesets,
        payloads=payloads,
        tenants={"stable": 0, "churn": 1},
        warmup=warmup,
        ops=ops,
        cyclic=False,
    )


WORKLOADS = {
    "ids-64k": ids_64k,
    "logs-dense": logs_dense,
    "tenant-churn": tenant_churn,
}


def make_inputs(workload: str, seed: int, seconds: float) -> WorkloadInputs:
    return WORKLOADS[workload](seed, seconds)
