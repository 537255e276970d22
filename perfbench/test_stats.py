"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import gc
import types

import pytest

from stats import (
    ReportDigest,
    calibrate,
    exchange_fail_frac,
    fit_exponent,
    fraction,
    median,
    nearest_rank,
    rolling_median,
    self_times as column_self_times,
    tail_percentile,
)
from tracer import SpanTracer, layer_of


def self_times(spans):
    """``stats.self_times`` over ``(start, end, parent)`` rows."""
    starts, ends, parents = zip(*spans)
    return column_self_times(starts, ends, parents)


class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        # root [0, 10] > a [1, 6] > b [2, 3]
        spans = [(0.0, 10.0, -1), (1.0, 6.0, 0), (2.0, 3.0, 1)]
        assert self_times(spans) == pytest.approx([5.0, 4.0, 1.0])

    def test_back_to_back_children(self):
        # root [0, 10] with children [1, 4] and [4, 9] touching at 4.
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (4.0, 9.0, 0)]
        assert self_times(spans) == pytest.approx([2.0, 3.0, 5.0])

    def test_self_times_sum_to_root_duration(self):
        spans = [(0.0, 8.0, -1), (1.0, 3.0, 0), (3.0, 7.0, 0), (4.0, 5.0, 2),
                 (5.0, 6.5, 2)]
        assert sum(self_times(spans)) == pytest.approx(8.0)

    def test_overlapping_children_count_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_child_clipped_to_parent(self):
        spans = [(0.0, 4.0, -1), (3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_listed_before_parent_order(self):
        # A child recorded before its parent in the list still counts.
        spans = [(2.0, 3.0, 1), (0.0, 5.0, -1)]
        assert self_times(spans) == pytest.approx([1.0, 4.0])


class TestTailPercentile:
    def test_p90_at_100_samples(self):
        values = list(range(1, 101))
        assert tail_percentile(values) == (90, 90)

    def test_ten_samples_beyond_at_other_sizes(self):
        for n in (11, 20, 30, 45, 70, 99, 100, 101, 250):
            values = [float(v) for v in range(n)]
            pct, value = tail_percentile(values)
            beyond = sum(1 for v in values if v > value)
            assert beyond >= 10, (n, pct)
            # The next whole percentile would leave fewer than ten.
            if pct < 99:
                higher = nearest_rank(sorted(values), pct + 1)
                assert sum(1 for v in values if v > higher) < 10, (n, pct)

    def test_p85_at_70_samples(self):
        assert tail_percentile(list(range(70)))[0] == 85

    def test_needs_more_than_ten_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([1.0] * 10)

    def test_float_rounding_does_not_shift_rank(self):
        # 0.9 * 100 is 90.00000000000001 in floats; the rank must stay 90.
        assert nearest_rank(list(range(1, 101)), 90) == 90

    def test_median_even_and_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


class TestFractions:
    def test_exchanges_exclude_retransmissions(self):
        # 110 transmissions, 10 of them retransmissions: 100 exchanges.
        assert exchange_fail_frac(110, 10, 5) == pytest.approx(0.05)

    def test_no_failures_is_zero(self):
        assert exchange_fail_frac(50, 0, 0) == 0.0

    def test_empty_denominator_is_an_error(self):
        with pytest.raises(ValueError):
            fraction(0, 0)
        with pytest.raises(ValueError):
            exchange_fail_frac(10, 10, 0)

    def test_part_outside_whole_is_an_error(self):
        with pytest.raises(ValueError):
            fraction(3, 2)


class TestCalibration:
    def test_rolling_median_windows(self):
        assert rolling_median([5, 1, 4, 2, 3], 3) == [4, 4, 2, 3, 3]
        assert rolling_median([1.0, 9.0], 5) == [5.0, 5.0]

    def test_slow_phase_cancels(self):
        # The host runs at half speed for the second half: walls and the
        # reference loop both double, calibrated times stay flat.
        walls = [0.1] * 10 + [0.2] * 10
        refs = [0.003] * 10 + [0.006] * 10
        out = calibrate(walls, refs, nominal=0.003)
        assert out == pytest.approx([0.1] * 20)

    def test_single_reference_spike_is_ignored(self):
        refs = [0.003] * 9
        refs[4] = 0.03
        assert calibrate([0.1] * 9, refs, nominal=0.003) == pytest.approx([0.1] * 9)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            calibrate([0.1, 0.2], [0.003], nominal=0.003)


class TestExponent:
    def test_linear_and_quadratic(self):
        sizes = [100, 200, 400]
        assert fit_exponent(sizes, [1.0, 2.0, 4.0]) == pytest.approx(1.0)
        assert fit_exponent(sizes, [1.0, 4.0, 16.0]) == pytest.approx(2.0)

    def test_zero_time_gives_none(self):
        assert fit_exponent([1, 2, 4], [0.0, 1.0, 2.0]) is None


def _report(src="a", dst="b", time=2.5, used=100.0, avail=900.0,
            confidence=1.0, status="fresh", rule="switch"):
    conn = types.SimpleNamespace(used_bps=used, available_bps=avail, rule=rule,
                                 stale=False, quarantined=False)
    return types.SimpleNamespace(src=src, dst=dst, time=time, confidence=confidence,
                                 status=status, connections=(conn,))


class TestDigest:
    def test_same_stream_same_digest(self):
        a, b = ReportDigest(), ReportDigest()
        a.extend([_report(), _report(time=4.5)])
        b.extend([_report(), _report(time=4.5)])
        assert a.hexdigest() == b.hexdigest()
        assert a.reports == 2

    def test_last_bit_of_a_figure_changes_digest(self):
        a, b = ReportDigest(), ReportDigest()
        a.add(_report(used=100.0))
        b.add(_report(used=100.00000000000001))
        assert a.hexdigest() != b.hexdigest()

    @pytest.mark.parametrize("change", [
        {"src": "c"}, {"time": 2.5000001}, {"confidence": 0.5},
        {"status": "degraded"}, {"avail": 899.0}, {"rule": "hub"},
    ])
    def test_every_field_enters_the_digest(self, change):
        a, b = ReportDigest(), ReportDigest()
        a.add(_report())
        b.add(_report(**change))
        assert a.hexdigest() != b.hexdigest()

    def test_order_matters(self):
        a, b = ReportDigest(), ReportDigest()
        a.extend([_report(src="a"), _report(src="c")])
        b.extend([_report(src="c"), _report(src="a")])
        assert a.hexdigest() != b.hexdigest()


class TestSpanTracer:
    def _traced(self):
        tracer = SpanTracer()

        def inner():
            return 2

        def outer():
            return inner() + inner()

        wrapped_inner = tracer._span_wrapper(inner, "b:inner")
        inner = wrapped_inner  # outer calls the wrapped inner
        wrapped_outer = tracer._span_wrapper(outer, "a:outer")
        return tracer, wrapped_outer

    def test_nesting_and_names(self):
        tracer, outer = self._traced()
        tracer.cycle = 7
        assert outer() == 4
        assert [tracer.span(i)[0] for i in range(len(tracer))] == [
            "a:outer", "b:inner", "b:inner"]
        assert list(tracer.parents) == [-1, 0, 0]
        assert list(tracer.cycles) == [7, 7, 7]
        assert all(tracer.ends[i] >= tracer.starts[i] for i in range(len(tracer)))
        assert tracer.counts(range(7, 8)) == {"a:outer": 1, "b:inner": 2}
        assert tracer.counts(range(0, 7)) == {}
        assert layer_of("b:inner") == "b"

    def test_spans_add_no_objects_for_the_collector(self):
        # The collector must not scan the span record, or a traced run's
        # GC figures would grow with the trace: spans live in a few flat
        # columns, whatever their number.
        tracer, outer = self._traced()
        for _ in range(10):
            outer()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(1000):
            outer()
        gc.collect()
        assert len(tracer) == 3030
        assert len(gc.get_objects()) - before < 10
        for column in (tracer.name_ids, tracer.starts, tracer.ends,
                       tracer.parents, tracer.cycles, tracer.rtts):
            assert len(gc.get_referents(column)) <= 1

    def test_span_closes_when_the_call_raises(self):
        tracer = SpanTracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer._span_wrapper(boom, "a:boom")()
        assert tracer.stack == [] and tracer.ends[0] >= tracer.starts[0]
