"""``scripts/ab_pairs.py``'s summary: the no-regression verdict of each
end-to-end metric (``worse`` / ``unresolved`` / ``ok`` under the metric's
bound, relative to the parent's median), the gain rule and the failed
totals, on synthetic runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "latency_ms_p50", "better": "lower", "bound": 0.25}


def _runs(parent, change, name, failed=(0, 0)):
    return [
        {"seed": i,
         "parent": {"metrics": {name: {"value": a}}, "failed": failed[0]},
         "change": {"metrics": {name: {"value": b}}, "failed": failed[1]}}
        for i, (a, b) in enumerate(zip(parent, change))
    ]


TIGHT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize(
    "metric,parent,change,want",
    [
        # medians within the bound, both spreads tight
        (HIGHER, TIGHT, [v - 5 for v in TIGHT], "ok"),
        (LOWER, TIGHT, [v + 20 for v in TIGHT], "ok"),
        # the change's median worse by more than the bound
        (HIGHER, TIGHT, [v * 0.7 for v in TIGHT], "worse"),
        (LOWER, TIGHT, [v * 1.3 for v in TIGHT], "worse"),
        # a side's IQR/median wider than the bound: too spread to tell
        (HIGHER, [60, 140, 60, 140, 60, 140, 60, 140, 60, 140], TIGHT, "unresolved"),
        (LOWER, TIGHT, [80, 130, 80, 130, 80, 130, 80, 130, 80, 130], "unresolved"),
        # ... unless every change run beats every parent run
        (HIGHER, [60, 140, 60, 140, 60, 140, 60, 140, 60, 140],
         [150, 300, 150, 300, 150, 300, 150, 300, 150, 300], "ok"),
        (LOWER, [60, 140, 60, 140, 60, 140, 60, 140, 60, 140],
         [10, 50, 10, 50, 10, 50, 10, 50, 10, 50], "ok"),
    ],
)
def test_verdict(metric, parent, change, want):
    got = ab_pairs.summarize(_runs(parent, change, metric["name"]), [metric])
    assert got[metric["name"]]["verdict"] == want


def test_gain_rule_and_summary_fields():
    parent = TIGHT
    change = [v + 10 for v in TIGHT]
    s = ab_pairs.summarize(_runs(parent, change, "throughput_per_s"), [HIGHER])
    s = s["throughput_per_s"]
    assert (s["wins"], s["pairs"], s["gain_rule"], s["verdict"]) == (10, 10, True, "ok")
    assert s["parent"][1] == 100 and s["change"][1] == 110


def test_zero_median_spread():
    assert ab_pairs.spread([0.0, 0.0, 0.0]) == 0.0
    assert ab_pairs.spread([0.0, 0.0, 1.0]) == float("inf")


def test_failed_totals():
    runs = _runs(TIGHT, TIGHT, "throughput_per_s", failed=(1, 0))
    assert ab_pairs.failed_totals(runs) == {"parent": 10, "change": 0}
