"""Tests of the benchmark's own arithmetic, inputs, gate and tracing."""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import CacheAutomatonEngine
from repro.service import ScanOutcome
from repro.service import net
from repro.sim.golden import Report

from servebench import inputs as workload_inputs
from servebench.gate import Gate
from servebench.probe import (
    PROBE_REF_S,
    Timing,
    TooFewSamples,
    normalise,
    samples_needed,
    sum_timings,
    tail_percentile,
)
from servebench.spans import Instrumentation, Recorder, Span, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- host normalisation ------------------------------------------------------


def test_normalise_rescales_by_the_mean_adjacent_probe():
    ref = PROBE_REF_S
    assert normalise(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert normalise(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)


def test_a_uniformly_slower_host_gives_the_same_normalised_time():
    fast = Timing(raw_s=0.010, probe_before=PROBE_REF_S, probe_after=PROBE_REF_S)
    slow = Timing(raw_s=0.025, probe_before=2.5 * PROBE_REF_S,
                  probe_after=2.5 * PROBE_REF_S)
    assert fast.norm_s == pytest.approx(0.010)
    assert slow.norm_s == pytest.approx(fast.norm_s)
    assert slow.factor == pytest.approx(0.4)


def test_summed_timings_keep_raw_and_normalised_totals():
    parts = [Timing(0.2, 1e-4, 3e-4), Timing(0.1, 5e-5, 5e-5)]
    total = sum_timings(parts)
    assert total.raw_s == pytest.approx(0.3)
    assert total.norm_s == pytest.approx(sum(t.norm_s for t in parts))


# -- percentile sample-count rule ------------------------------------------


def test_samples_needed_leaves_ten_beyond_the_percentile():
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.999) == 10000
    assert samples_needed(0.5) == 20
    with pytest.raises(ValueError):
        samples_needed(1.0)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(TooFewSamples):
        tail_percentile([float(v) for v in range(999)], 0.99)
    values = [float(v) for v in range(1000)]
    expected = statistics.quantiles(values, n=100, method="inclusive")[98]
    assert tail_percentile(values, 0.99) == pytest.approx(expected)
    assert tail_percentile(list(reversed(values)), 0.99) == pytest.approx(expected)


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workload_inputs.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    first = workload_inputs.make_inputs(workload, 7, 1.0)
    again = workload_inputs.make_inputs(workload, 7, 1.0)
    other = workload_inputs.make_inputs(workload, 8, 1.0)
    assert first.rulesets == again.rulesets
    assert first.payloads == again.payloads
    assert first.ops == again.ops and first.warmup == again.warmup
    assert first.payloads != other.payloads
    # The ruleset every set-up compiles is fixed, so seeds differ only
    # in traffic (and, for the churn tenant, in its ruleset pool).
    assert first.rulesets[0] == other.rulesets[0]


def test_churn_schedule_alternates_never_seen_and_seen_rulesets():
    work = workload_inputs.make_inputs("tenant-churn", 3, 1.0)
    recent = [work.tenants["churn"]]
    reloads = [op for op in work.ops if op.kind == "reload"]
    assert len(reloads) >= 2
    window = workload_inputs.CHURN_WARM_WINDOW
    for op in reloads:
        if op.tier == "cold-compile":
            assert op.ruleset not in recent
        else:
            assert op.tier == "warm-cache"
            # One of the few most recent, never the current one.
            assert op.ruleset in recent[-1 - window:-1]
            recent.remove(op.ruleset)
        recent.append(op.ruleset)
    colds = sum(op.tier == "cold-compile" for op in reloads)
    assert abs(2 * colds - len(reloads)) <= 1
    scans = [op for op in work.ops if op.kind == "scan"]
    assert len(scans) >= samples_needed(0.99)


def test_sampled_match_matches_its_rule():
    rules = workload_inputs.ids_ruleset(count=12, seed=5)
    engine = CacheAutomatonEngine.from_patterns(rules, cache=None)
    for rule in rules:
        text = workload_inputs.sample_match(rule).encode()
        assert any(m.rule == rule for m in engine.scan(text)), rule


# -- correctness gate --------------------------------------------------------


RULES = ("ab", "b+c", "[ab]x")
PAYLOAD = b"xxabbbc ab ax bx abbc"


def _outcome(reports, *, served_by="lazy-dfa", fallback=False, offset=None):
    return ScanOutcome(
        tenant="t", reports=tuple(reports),
        offset=len(PAYLOAD) if offset is None else offset,
        checkpoint=None, served_by=served_by, fallback=fallback, latency_s=0.0,
    )


@pytest.fixture(scope="module")
def gate_and_reports():
    gate = Gate.build([RULES], [PAYLOAD], {(0, 0)}, primary_backend="lazy-dfa")
    engine = CacheAutomatonEngine.from_patterns(list(RULES), cache=None,
                                                backend="lazy-dfa")
    reports = list(engine.backend.scan(PAYLOAD).reports)
    assert len(reports) >= 4
    return gate, reports


def test_gate_accepts_the_program_output_in_any_order(gate_and_reports):
    gate, reports = gate_and_reports
    assert gate.check(0, PAYLOAD, 0, _outcome(reports)) is None
    assert gate.check(0, PAYLOAD, 0, _outcome(reversed(reports))) is None


def test_gate_catches_a_corrupted_row(gate_and_reports):
    gate, reports = gate_and_reports
    first = reports[0]
    moved = [Report(first.offset + 1, first.ste_id, first.report_code)] + reports[1:]
    assert gate.check(0, PAYLOAD, 0, _outcome(moved)) is not None
    renamed = [Report(first.offset, first.ste_id + "x", first.report_code)] + reports[1:]
    assert gate.check(0, PAYLOAD, 0, _outcome(renamed)) is not None
    assert gate.check(0, PAYLOAD, 0, _outcome(reports[1:])) is not None


def test_gate_rejects_fallback_and_short_responses(gate_and_reports):
    gate, reports = gate_and_reports
    golden = _outcome(reports, served_by="golden-interpreter", fallback=True)
    assert "fallback" in gate.check(0, PAYLOAD, 0, golden)
    assert gate.check(0, PAYLOAD, 0, _outcome(reports, offset=3)) is not None


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_children_within_one_operation():
    spans = [
        Span("client.scan", 1, 0.0, 10.0),
        Span("net.encode", 1, 1.0, 4.0),
        Span("service.scan", 1, 5.0, 9.0),
        Span("lazydfa.scan", 1, 6.0, 8.0),
        Span("client.scan", 2, 0.0, 3.0),
    ]
    got = {(s.name, s.op): round(t, 9) for s, t in self_times(spans)}
    assert got == {
        ("client.scan", 1): 3.0,
        ("net.encode", 1): 3.0,
        ("service.scan", 1): 2.0,
        ("lazydfa.scan", 1): 2.0,
        ("client.scan", 2): 3.0,
    }


def test_instrumentation_records_and_restores():
    original = net.encode_reports
    recorder = Recorder()
    instrumentation = Instrumentation(recorder, targets=(
        ("repro.service.net", "encode_reports", "net.encode", None),
        ("repro.service.net", "no_such_function", "net.none", None),
    ))
    instrumentation.install()
    try:
        recorder.enabled = True
        recorder.op = 5
        assert net.encode_reports([Report(1, "s", "r")]) == [[1, "s", "r"]]
    finally:
        instrumentation.remove()
    assert net.encode_reports is original
    assert [(s.name, s.op) for s in recorder.spans] == [("net.encode", 5)]
    assert instrumentation.missing == ["repro.service.net.no_such_function"]


# -- the command -------------------------------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_result_contract(trace, section):
    completed = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "logs-dense",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in config[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    detail = json.loads(lines[-2])["servebench"]
    assert detail["seed"] == 1 and detail["host"]["python"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert set(detail["raw"]) == set(expected)
    else:
        assert detail["untraced_layers"] == []
        assert result["metrics"]["self.lazydfa_us"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "ids-64k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _session_members(session_id):
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session_id:
            members.append(int(stat.parent.name))
    return members


def test_command_leaves_no_process_behind():
    # The traced churn run starts a worker pool and shared-memory
    # blocks, hence multiprocessing's resource tracker too.
    process = subprocess.Popen(
        [sys.executable, "servebench/run.py", "--workload", "tenant-churn",
         "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=170) == 0
    assert _session_members(process.pid) == []
