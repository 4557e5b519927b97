"""tools/pairs.py: its summary arithmetic, on hand-made run results, and its imports."""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

_END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
]


def result(ops, p50=None, correct=True, failed=0):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}}
    if p50 is not None:
        metrics["op_p50_ms"] = {"value": p50, "unit": "ms"}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def test_medians_wins_quartiles_and_shift_follow_each_direction():
    runs = [
        (result(100, 2.0), result(110, 1.0)),
        (result(90, 3.0), result(80, 4.0)),
        (result(120, 1.0), result(121, 0.5)),
        (result(110, 2.5), result(100, 2.5)),
    ]
    ops, p50 = pairs.summarise(runs, _END_TO_END)
    assert ops["pairs"] == 4
    assert ops["parent_median"] == 105 and ops["change_median"] == 105
    assert ops["wins"] == 2  # higher is better: 110 > 100 and 121 > 120
    assert ops["worse_by"] == 0
    assert ops["parent_quartiles"] == (92.5, 117.5)
    assert p50["parent_median"] == 2.25 and p50["change_median"] == 1.75
    assert p50["wins"] == 2  # lower is better; the tie at 2.5 is no win
    assert p50["worse_by"] == pytest.approx((1.75 - 2.25) / 2.25)
    assert p50["bound"] == 0.25


def test_a_slower_change_is_worse_by_a_positive_fraction():
    (ops,) = pairs.summarise([(result(200), result(150))], _END_TO_END[:1])
    assert ops["worse_by"] == pytest.approx(0.25)
    assert ops["parent_quartiles"] == (200, 200)
    assert ops["wins"] == 0


def test_a_metric_counts_only_the_pairs_that_report_it_on_both_sides():
    runs = [(result(100, 2.0), result(100)), (result(100, 2.0), result(100, 1.0))]
    ops, p50 = pairs.summarise(runs, _END_TO_END)
    assert (ops["pairs"], p50["pairs"]) == (2, 1)
    assert pairs.summarise([], _END_TO_END) == []


def verdict(parent, change, metric=0):
    """The verdict on one metric of _END_TO_END over pairs of bare values."""
    spec = _END_TO_END[metric]
    runs = [
        ({"metrics": {spec["name"]: {"value": p}}}, {"metrics": {spec["name"]: {"value": c}}})
        for p, c in zip(parent, change)
    ]
    (s,) = pairs.summarise(runs, [spec])
    return s["verdict"]


_STEADY = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 101.75, 107.25


@pytest.mark.parametrize(
    "parent, change, metric, expected",
    [
        # ten wins, medians 10 apart against an interquartile range of 5.5
        (_STEADY, [x + 10 for x in _STEADY], 0, "gain"),
        # lower is better for op_p50_ms
        (_STEADY, [x - 10 for x in _STEADY], 1, "gain"),
        # nine wins and a tie are nine tenths
        (_STEADY, [x + 10 for x in _STEADY[:9]] + [109], 0, "gain"),
        # eight wins and two ties are not
        (_STEADY, [x + 10 for x in _STEADY[:8]] + [108, 109], 0, "within bound"),
        # ten wins, but the medians differ by less than the interquartile range
        (_STEADY, [x + 1 for x in _STEADY], 0, "within bound"),
        # 26% slower against a bound of 25%
        (_STEADY, [x * 0.74 for x in _STEADY], 0, "worse"),
        (_STEADY, [x * 1.26 for x in _STEADY], 1, "worse"),
        (_STEADY, [x * 0.76 for x in _STEADY], 0, "within bound"),
        # the parent's runs spread over more than 25% of their median
        ([10] * 5 + [100] * 5, [10] * 5 + [100] * 5, 0, "unresolved"),
        # unless every change run beats every parent run
        ([10] * 5 + [100] * 5, [101] * 10, 0, "within bound"),
        ([10] * 5 + [100] * 5, [100] * 10, 0, "unresolved"),
    ],
    ids=["gain", "gain-lower", "nine-wins-one-tie", "eight-wins-two-ties", "inside-iqr",
         "worse", "worse-lower", "inside-bound", "unresolved", "all-runs-better", "a-tie-is-no-win"],
)
def test_each_verdict(parent, change, metric, expected):
    assert verdict(parent, change, metric) == expected


def test_runs_that_failed_or_were_not_correct_are_listed():
    runs = [
        (result(100), result(100)),
        (result(100, failed=2), result(100, correct=False)),
        ({"correct": False, "failed": None, "metrics": {}, "error": "exited 2"}, result(100)),
    ]
    assert pairs.problems(runs) == [
        "pair 1 parent: correct=True, failed=2",
        "pair 1 change: correct=False, failed=0",
        "pair 2 parent: exited 2, failed=None",
    ]


def test_the_tool_imports_only_the_standard_library():
    from .test_dependencies import _absolute_imports

    names = [n for n in _absolute_imports(_PATH) if n != "__future__"]
    assert names and all(n.split(".")[0] in sys.stdlib_module_names for n in names)
