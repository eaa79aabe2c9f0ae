"""Percentiles, the tail rule, span self time and the host-speed factor."""

from types import SimpleNamespace

import pytest

from stats import (PROBE_REF_S, covered_ns, has_tail, percentile, self_times,
                   speed_factor, speed_probe, summary, tail_count)


def span(sid, parent, start, end, name="x"):
    return SimpleNamespace(span_id=sid, parent_id=parent, start_ns=start,
                           end_ns=end, name=name, attrs={})


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_rule_needs_ten_samples_above_the_percentile():
    # 100 distinct samples: exactly 10 lie above p90
    samples = [float(i) for i in range(100)]
    assert tail_count(samples, 90) == 10
    assert has_tail(samples, 90)
    # 99 samples: p90 is the 90th, only 9 lie above it
    assert tail_count(samples[:99], 90) == 9
    assert not has_tail(samples[:99], 90)
    # ties at the percentile do not count as above it
    assert tail_count([1.0] * 200, 90) == 0
    assert not has_tail([], 90)


def test_summary_quartiles_and_count():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert s["q1"] < s["median"] < s["q3"]
    assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_covered_merges_overlaps_and_skips_empty_intervals():
    assert covered_ns([(0, 10), (5, 15), (20, 30), (25, 25)]) == 25
    assert covered_ns([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("root", None, 0, 100),
        # wrapper over wrapper: 'outer' holds 'inner', which holds 'leaf'
        span("outer", "root", 10, 60),
        span("inner", "outer", 20, 50),
        span("leaf", "inner", 30, 40),
        # two overlapping children of root: their union is [70, 95)
        span("a", "root", 70, 90),
        span("b", "root", 80, 95),
    ]
    own = self_times(spans)
    assert own == {"root": 100 - 50 - 25, "outer": 50 - 30,
                   "inner": 30 - 10, "leaf": 10, "a": 20, "b": 15}
    # the parent loses the overlap once; overlapping children (work on
    # other threads) each keep their own time
    assert sum(own.values()) == 100 + (90 - 80)


def test_self_time_clips_a_child_to_its_parent():
    own = self_times([span("p", None, 0, 10), span("c", "p", 5, 20)])
    assert own["p"] == 5 and own["c"] == 15


def test_speed_factor_scales_by_the_mean_probe():
    ref = PROBE_REF_S
    assert speed_factor([ref, ref]) == pytest.approx(1.0)
    # a run that spent half its probes in a 2x slower state
    assert speed_factor([ref, 2 * ref]) == pytest.approx(1 / 1.5)
    assert speed_probe() > 0
    with pytest.raises(ValueError):
        speed_factor([])
