"""The benchmark's own arithmetic: span self time, the percentile
sample rule, open-loop latency and lag, seeded input generation, the
check of a served answer and the host-speed scaling.

Run with ``python -m pytest perfbench/tests``."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hashlib  # noqa: E402

import arith  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from arith import Sample  # noqa: E402

PROGRAMS = ["AA", "BB", "CC"]


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    span_list = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
                 ("b", 2.0, 3.0, 1, 0), ("c", 5.0, 9.0, 0, 0)]
    selfs = spans.self_times(span_list)
    assert selfs["root"]["self"] == 10.0 - 3.0 - 4.0
    assert selfs["a"]["self"] == 3.0 - 1.0
    assert selfs["b"]["self"] == 1.0
    assert selfs["c"]["self"] == 4.0
    # self times of a tree add up to the root's duration
    assert sum(c["self"] for c in selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    span_list = [("root", 0.0, 10.0, -1, 0), ("x", 1.0, 5.0, 0, 0),
                 ("y", 3.0, 7.0, 0, 0), ("z", 9.0, 12.0, 0, 0)]
    # children cover [1, 7] and [9, 10] inside the root
    assert spans.self_times(span_list)["root"]["self"] == 10.0 - 6.0 - 1.0


def test_self_time_merges_calls_by_name():
    span_list = [("root", 0.0, 4.0, -1, 0), ("op", 0.0, 1.0, 0, 0),
                 ("op", 2.0, 2.5, 0, 1)]
    op = spans.self_times(span_list)["op"]
    assert op["calls"] == 2 and op["total"] == 1.5 and op["self"] == 1.5


def test_recorder_nests_wrapped_calls():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    recorded = rec.spans()
    assert [s[0] for s in recorded] == ["outer", "inner"]
    assert recorded[1][3] == 0 and recorded[0][3] == -1
    assert recorded[0][1] <= recorded[1][1] <= recorded[1][2] \
        <= recorded[0][2]


# -- percentile rule ----------------------------------------------------------

def test_percentile_interpolates():
    assert arith.percentile([1, 2, 3, 4], 50) == 2.5
    assert arith.percentile(range(101), 90) == 90.0


def test_ten_samples_beyond_rule():
    assert not arith.supported(99, 90)
    assert arith.supported(100, 90)
    assert arith.samples_beyond(100, 90) == 10
    assert not arith.supported(999, 99)
    assert arith.supported(1000, 99)
    assert arith.highest_supported(1001) == 99
    assert arith.highest_supported(200) == 95
    assert arith.highest_supported(110) == 90
    assert arith.highest_supported(15) is None


def test_geomean():
    assert math.isclose(arith.geomean([0.5, 2.0]), 1.0)


# -- open loop ----------------------------------------------------------------

def test_latency_is_timed_from_due_and_lag_from_free_connection():
    # due at 1.0, connection free only at 1.5, sent at 1.52, done 1.7
    s = Sample(due=1.0, picked=1.5, sent=1.52, done=1.7, ok=True)
    assert math.isclose(s.latency, 0.7)
    assert math.isclose(s.lag, 0.02)
    # generator woke up late with a free connection
    s = Sample(due=1.0, picked=0.5, sent=1.03, done=1.1, ok=True)
    assert math.isclose(s.lag, 0.03)
    assert math.isclose(s.latency, 0.1)


def test_backlog_counts_due_but_unsent():
    samples = [Sample(0.0, 0.0, 0.0, 1.0, True),
               Sample(0.1, 1.0, 1.0, 1.5, True),
               Sample(0.2, 1.5, 1.5, 1.6, True),
               Sample(2.0, 1.6, 2.0, 2.1, True)]
    assert arith.backlog_max(samples) == 2


def test_failed_requests_miss_the_limit():
    samples = [Sample(i * 0.1, i * 0.1, i * 0.1, i * 0.1 + 0.01, i % 2 == 0)
               for i in range(20)]
    summary = arith.summarize_step(samples, limit_ms=100.0)
    assert summary["failed"] == 10
    assert summary["p90_ms"] == math.inf


def test_growing_backlog_is_detected():
    steady = [Sample(i * 0.1, i * 0.1, i * 0.1, i * 0.1 + 0.05, True)
              for i in range(40)]
    assert not arith.backlog_grew(steady, 200.0)
    # each request waits 30 ms longer than the one before it
    growing = [Sample(i * 0.1, i * 0.13, i * 0.13, i * 0.13 + 0.05, True)
               for i in range(40)]
    assert arith.backlog_grew(growing, 200.0)


# -- seeded inputs ------------------------------------------------------------

BLOCK = inputs.served_block(PROGRAMS, "CK")


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    def all_inputs(seed):
        return (inputs.pad_source("p(a).", seed, "AA", 0),
                inputs.served_schedule(seed, "low", 10.0, 8, BLOCK))
    assert all_inputs(7) == all_inputs(7)
    other = all_inputs(8)
    assert all(a != b for a, b in zip(all_inputs(7), other))
    assert len(other[0]) == len(all_inputs(7)[0])


def test_served_schedule_keeps_the_program_mix():
    schedule = inputs.served_schedule(3, "high", 20.0, 8, BLOCK)
    names = [item["program"] for item in schedule]
    assert sorted(names) == sorted(BLOCK * 8)
    dues = [item["due"] for item in schedule]
    assert all(abs(d - (i + 0.5) / 20.0) <= 0.4 / 20.0 + 1e-12
               for i, d in enumerate(dues))


def test_pad_keeps_the_program_text():
    source = "p(X) :- q(X).\nq(a).\n"
    padded = inputs.pad_source(source, 1, "AA", 0)
    assert padded.startswith(source.rstrip("\n"))
    assert padded.count("bench_pad_") == 1


# -- served answers -----------------------------------------------------------

def _answer(entries, cpu_time, cached):
    return {"ok": True, "result": {
        "fingerprint": "f1", "key": "k1", "cached": cached,
        "coalesced": False, "seconds": 0.002,
        "payload": {"entries": entries,
                    "stats": {"cpu_time": cpu_time, "clause_iterations": 7}}}}


def test_judge_checks_the_payload_not_only_the_fingerprint():
    first = _answer([1, 2, 3], 0.5, False)
    item = {"expect": {"fingerprint": "f1"},
            "digest": hashlib.sha256(
                loadgen.canonical(first["result"])).hexdigest()}
    # per-request fields and the measured cpu_time may differ
    assert loadgen.judge(item, _answer([1, 2, 3], 0.9, True))[0]
    # a truncated payload under the right fingerprint fails
    assert not loadgen.judge(item, _answer([1, 2], 0.5, True))[0]
    assert not loadgen.judge(item, {"ok": False, "error": "x"})[0]
    assert not loadgen.judge(item, {})[0]


# -- host-speed scaling -------------------------------------------------------

def test_scale_turns_measured_seconds_into_reference_seconds():
    gauge = speed.Gauge()
    ref = speed.REF_UNIT_S
    assert gauge.scale(ref, ref) == 1.0
    # a host twice as slow: readings double, so times halve
    assert math.isclose(gauge.scale(2 * ref, 2 * ref), 0.5)
    # the factor uses the mean of the readings before and after
    assert math.isclose(gauge.scale(ref, 3 * ref), 0.5)
    process = speed.Gauge("process")
    assert process.scale(speed.REF_PROCESS_S, speed.REF_PROCESS_S) == 1.0


def test_gauges_keep_every_reading():
    for kind in ("unit", "process"):
        gauge = speed.Gauge(kind)
        reading = gauge.read()
        assert reading > 0 and gauge.readings == [reading]
        assert gauge.median_ms() == reading * 1e3


def test_one_disturbed_reading_does_not_rescale_its_neighbours():
    ref = speed.REF_UNIT_S
    readings = [ref, ref, 2.5 * ref, ref, ref]
    assert speed.smoothed(readings) == [ref] * 5
    assert speed.factors(readings, ref) == [1.0] * 4
    # a real change of speed survives the smoothing
    slow = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert speed.factors(slow, ref)[-1] == 0.5


def test_a_request_is_scaled_by_the_readings_around_it():
    ref = speed.REF_UNIT_S
    readings = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref)]
    assert math.isclose(loadgen.scale_at(readings, 0.5, 0.8), 1 / 1.5)
    assert math.isclose(loadgen.scale_at(readings, 1.2, 1.9), 0.5)
    # past the last reading, the last one stands on both sides
    assert math.isclose(loadgen.scale_at(readings, 2.5, 2.6), 0.5)
