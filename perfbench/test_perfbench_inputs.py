"""The benchmark's own tests: seeded inputs, host-speed scaling and the span tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  Nothing
here schedules anything, so the tests take seconds.
"""

import time

import pytest

import inputs
import speed
from tracer import Tracer

from repro.models import MODEL_NAMES
from repro.workloads import canonical_signature


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_distinct_mixes_are_deterministic_per_seed():
    assert _take(inputs.distinct_mixes(7), 40) == _take(inputs.distinct_mixes(7), 40)
    assert _take(inputs.distinct_mixes(7), 40) != _take(inputs.distinct_mixes(8), 40)


def test_cold_mix_never_repeats_a_signature():
    mixes = _take(inputs.distinct_mixes(3), 300)
    assert inputs.repeat_share(mixes) == 0.0
    assert canonical_signature(inputs.WARMUP_MIX) not in {canonical_signature(m) for m in mixes}
    for names in mixes:
        assert set(names) <= set(MODEL_NAMES)
        assert len(set(names)) == len(names)


def test_every_seed_offers_the_same_mixes_per_cycle():
    def cycle(seed):
        return sorted(sorted(names) for names in _take(inputs.distinct_mixes(seed), 33))

    assert cycle(1) == cycle(2)
    assert _take(inputs.distinct_mixes(1), 33) != _take(inputs.distinct_mixes(2), 33)


def test_cold_mix_sizes_cycle_per_block_of_three():
    mixes = _take(inputs.distinct_mixes(5), 30)
    for start in range(0, 30, 3):
        assert sorted(len(names) for names in mixes[start : start + 3]) == [3, 4, 5]
    assert inputs.size_histogram(mixes) == {"3": 10, "4": 10, "5": 10}


def test_dup_burst_schedule_is_deterministic_per_seed():
    first = inputs.dup_burst_schedule(4, bursts_per_s=1.5, horizon_s=30.0)
    assert first == inputs.dup_burst_schedule(4, bursts_per_s=1.5, horizon_s=30.0)
    other = inputs.dup_burst_schedule(5, bursts_per_s=1.5, horizon_s=30.0)
    assert [a.names for a in first] != [a.names for a in other]
    # Every seed offers the same load: the same bursts at the same times.
    assert [a.due_s for a in first] == [a.due_s for a in other]


def test_dup_burst_arrives_in_window_sized_bursts():
    schedule = inputs.dup_burst_schedule(3, bursts_per_s=1.5, horizon_s=20.0, burst_size=8)
    assert len(schedule) == 30 * 8
    for start in range(0, len(schedule), 8):
        assert len({arrival.due_s for arrival in schedule[start : start + 8]}) == 1
    dues = sorted({arrival.due_s for arrival in schedule})
    assert len(dues) == 30 and 0 < dues[0] and dues[-1] < 20.0


def test_dup_burst_gaps_respect_the_minimum():
    schedule = inputs.dup_burst_schedule(3, bursts_per_s=3.0, horizon_s=30.0, min_gap_s=0.25)
    dues = sorted({arrival.due_s for arrival in schedule})
    assert len(dues) == 90 and dues[-1] < 30.0
    assert min(b - a for a, b in zip([0.0] + dues, dues)) >= 0.25 - 1e-9
    with pytest.raises(ValueError):
        inputs.dup_burst_schedule(3, bursts_per_s=3.0, horizon_s=30.0, min_gap_s=0.4)


def test_dup_burst_repeats_three_in_four_in_permuted_order():
    schedule = inputs.dup_burst_schedule(9, bursts_per_s=1.5, horizon_s=100.0)
    for start in range(0, len(schedule), inputs.REPEAT_BLOCK):
        block = schedule[start : start + inputs.REPEAT_BLOCK]
        assert sum(arrival.first == arrival.index for arrival in block) == 1
    for arrival in schedule:
        origin = schedule[arrival.first]
        assert origin.first == origin.index <= arrival.index
        assert canonical_signature(arrival.names) == canonical_signature(origin.names)
        if arrival.first != arrival.index:
            assert arrival.names != origin.names
    assert inputs.repeat_share([arrival.names for arrival in schedule]) == 0.75


def test_open_loop_schedule_never_reads_a_clock(monkeypatch):
    """Due times are fixed before serving starts, whatever the host speed."""
    expected = inputs.dup_burst_schedule(2, bursts_per_s=1.5, horizon_s=25.0)

    def forbidden():
        raise AssertionError("the schedule generator read a clock")

    for name in ("perf_counter", "monotonic", "time", "process_time"):
        monkeypatch.setattr(time, name, forbidden)
    assert inputs.dup_burst_schedule(2, bursts_per_s=1.5, horizon_s=25.0) == expected


def test_churn_traces_are_deterministic_and_bounded():
    first = _take(inputs.churn_traces(6), 2)
    again = _take(inputs.churn_traces(6), 2)
    assert [t.events for t in first] == [t.events for t in again]
    assert first[0].events != first[1].events
    for trace in first:
        assert 0 < inputs.max_concurrent(trace) <= inputs.CHURN_SHAPE["max_concurrent"]
    # Every trace offers the same churn; the seed varies which models arrive.
    other = _take(inputs.churn_traces(7), 2)
    timing = [(e.time_s, e.kind) for e in first[0].events]
    for mine, theirs in zip(first, other):
        assert [(e.time_s, e.kind) for e in mine.events] == timing
        assert [(e.time_s, e.kind) for e in theirs.events] == timing
        assert [e.model for e in mine.events] != [e.model for e in theirs.events]


def _meter(*samples):
    meter = speed.Speedometer()
    meter.samples = list(samples)
    return meter


def test_scale_uses_the_samples_next_to_an_operation():
    nominal = speed.REFERENCE_NOMINAL_S
    meter = _meter((0.0, 0.01), (1.0, 0.02), (2.0, 0.03), (3.0, 0.04), (10.0, 0.05))
    # The sample just before (ends at 1.0) and just after (ends at 2.0).
    assert meter.scale(1.5, 1.9) == pytest.approx(nominal / 0.025)
    # An operation spanning samples averages them too.
    assert meter.scale(0.5, 2.5) == pytest.approx(nominal / 0.025)
    assert meter.scale(3.5, 9.0, around=2) == pytest.approx(nominal / 0.04)
    # Before the first or after the last sample, the nearest one counts.
    assert meter.scale(-1.0, -0.5) == pytest.approx(nominal / 0.01)
    assert meter.scaled(2.0, 20.0, 21.0) == pytest.approx(2.0 * nominal / 0.05)
    with pytest.raises(ValueError):
        _meter().scale(0.0, 1.0)


def test_reference_kernel_is_fixed_work():
    assert speed.reference_kernel() == speed.reference_kernel()
    meter = speed.Speedometer()
    assert meter.sample() > 0 and len(meter.samples) == 1


class _Nested:
    def outer(self, pairs):
        return self.inner(pairs) + 1

    def inner(self, pairs):
        return len(pairs)

    def steps(self, count):
        total = 0
        for _ in range(count):
            total += yield self.inner([0])
        return total


def test_tracer_self_time_and_generator_forwarding():
    tracer = Tracer()
    nested = _Nested()
    original_outer, original_inner = _Nested.outer, _Nested.inner
    _Nested.inner = tracer.wrap_call(original_inner, "inner", keep=False)
    _Nested.outer = tracer.wrap_call(original_outer, "outer", keep=True)
    steps = tracer.wrap_generator(_Nested.steps, "steps")
    try:
        with tracer.operation(0):
            assert nested.outer([1, 2]) == 3
            generator = steps(nested, 3)
            assert next(generator) == 1
            assert generator.send(10) == 1
            assert generator.send(20) == 1
            with pytest.raises(StopIteration) as stop:
                generator.send(30)
    finally:
        _Nested.outer, _Nested.inner = original_outer, original_inner
    assert stop.value.value == 60
    assert tracer.calls("inner") == 4 and tracer.calls("outer") == 1
    assert tracer.calls("steps") == 4  # one span per resume
    assert tracer.self_s("outer") <= tracer.total_s("outer")
    assert tracer.self_s("op") <= tracer.total_s("op")
    names = [span[0] for span in tracer.spans]
    assert "inner" not in names  # counted only, never kept
    assert names.count("steps") == 4
    parents = {span[0]: span[3] for span in tracer.spans}
    assert parents["outer"] == names.index("op")
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == len(tracer.spans) and all(e["ph"] == "X" for e in events)
