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
