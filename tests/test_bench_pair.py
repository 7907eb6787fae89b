"""The summary rules of ``tools/bench_pair.py`` on hand-made paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lower_is_better_gain_needs_nine_tenths_and_the_spread(bench_pair):
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]
    change = [0.5] * 9 + [1.3]
    s = bench_pair.metric_summary(parent, change, "lower", 0.25)
    assert (s["pairs_won"], s["pairs"]) == (9, 10)
    assert s["parent"]["median"] == 1.0 and s["change"]["median"] == 0.5
    assert s["parent"]["spread"] == pytest.approx(s["parent"]["q3"] - s["parent"]["q1"])
    assert s["ratio"] == 0.5 and s["gain"]
    # one more lost pair and the claim fails
    change[0] = 1.5
    assert bench_pair.metric_summary(parent, change, "lower", 0.25)["gain"] is False


def test_ties_count_for_neither_and_higher_is_better(bench_pair):
    s = bench_pair.metric_summary([10.0, 10.0, 10.0], [10.0, 11.0, 9.0], "higher", 0.25)
    assert s["pairs_won"] == 1 and not s["gain"]
    # won every pair, but by less than the parent's own spread
    s = bench_pair.metric_summary([10.0, 12.0, 14.0], [10.5, 12.5, 14.5], "higher", 0.25)
    assert s["pairs_won"] == 3 and s["parent"]["spread"] == 2.0 and not s["gain"]


def test_fail_ratio_pools_the_runs(bench_pair):
    runs = [{"attempted": 10, "failed": 0}, {"attempted": 30, "failed": 2}]
    assert bench_pair.fail_ratio(runs) == 0.05


def test_worse_needs_the_bound_in_the_better_direction(bench_pair):
    parent = [100.0, 100.0, 100.0]
    # higher is better: 26% below the parent's median is flagged, 24% is not
    assert bench_pair.metric_summary(parent, [74.0] * 3, "higher", 0.25)["worse"]
    assert not bench_pair.metric_summary(parent, [76.0] * 3, "higher", 0.25)["worse"]
    assert not bench_pair.metric_summary(parent, [200.0] * 3, "higher", 0.25)["worse"]
    # lower is better: 26% above is flagged, 24% is not, and a fall never is
    assert bench_pair.metric_summary(parent, [126.0] * 3, "lower", 0.25)["worse"]
    assert not bench_pair.metric_summary(parent, [124.0] * 3, "lower", 0.25)["worse"]
    assert not bench_pair.metric_summary(parent, [10.0] * 3, "lower", 0.25)["worse"]


def test_summarize_lists_the_worse_pairs(bench_pair):
    def run(rate, rss):
        metrics = {"queries_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}}
        return {"attempted": 10, "failed": 0, "metrics": metrics}

    end_to_end = [
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ]
    runs = {
        "steady": {"parent": [run(100.0, 50.0)] * 2, "change": [run(90.0, 56.0)] * 2},
        "slower": {"parent": [run(100.0, 50.0)] * 2, "change": [run(70.0, 58.0)] * 2},
    }
    workloads, worse = bench_pair.summarize(runs, end_to_end)
    assert worse == [["slower", "queries_per_s"], ["slower", "peak_rss_mb"]]
    assert workloads["steady"]["fail_ratio"] == {"parent": 0.0, "change": 0.0}
    assert workloads["slower"]["metrics"]["peak_rss_mb"]["bound"] == 0.15
