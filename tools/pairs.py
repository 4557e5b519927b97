"""Alternating perfbench runs of two checkouts, summarised pair by pair.

    python3 tools/pairs.py PARENT CHANGE --workload sweep16 --seed 0 --pairs 10 --seconds 40

PARENT and CHANGE are two source checkouts. Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once in each
checkout, one run at a time; the parent goes first in even pairs and the
change in odd ones, so that a drift in the machine's speed falls on both
sides alike. The last line of a run's standard output is its JSON result.

The script prints every run's operation count and end-to-end metrics,
then per metric the median of each side, how many pairs the change won,
the parent's quartiles, how much worse the change's median is than the
parent's, against the metric's bound, and a verdict, the first that
holds of:

* ``gain``: the change wins at least nine tenths of the pairs, ties
  counting for neither, and its median is better than the parent's by
  more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's interquartile range is wider than the
  bound (as a share of the parent's median), and some change run is no
  better than some parent run;
* ``within bound``.

Directions and bounds come from the parent's ``BENCHMARK.json``. Runs
that were not correct or failed an operation are listed at the end.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import operator
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in checkout: its JSON result, or a result that
    records why there is none."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exited {proc.returncode} without a result"}


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (statistics.quantiles' default method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """Per metric of end_to_end (BENCHMARK.json entries with ``name``,
    ``better`` and ``bound``), over the (parent, change) result pairs that
    both report it: each side's median, the change's wins, the parent's
    quartiles, ``worse_by``, the change's median as a fraction worse than
    the parent's (negative when better), and the verdict (module docstring)."""
    summary = []
    for spec in end_to_end:
        name, bound, higher = spec["name"], spec["bound"], spec["better"] == "higher"
        better = operator.gt if higher else operator.lt
        both = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        wins = sum(better(c, p) for p, c in both)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        worse_by = ((p_med - c_med) if higher else (c_med - p_med)) / p_med if p_med else 0.0
        q1, q3 = quartiles(parent)
        if 10 * wins >= 9 * len(both) and better(c_med, p_med) and abs(c_med - p_med) > q3 - q1:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "worse"
        elif q3 - q1 > bound * abs(p_med) and not all(
            better(c, p) for c in change for p in parent
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary.append({
            "name": name, "pairs": len(both), "parent_median": p_med, "change_median": c_med,
            "wins": wins, "parent_quartiles": (q1, q3),
            "worse_by": worse_by, "bound": bound, "verdict": verdict,
        })
    return summary


def problems(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per run that was not correct or failed an operation."""
    found = []
    for k, pair in enumerate(pairs):
        for side, result in zip(("parent", "change"), pair):
            if not result.get("correct") or result.get("failed") != 0:
                why = result.get("error") or f"correct={result.get('correct')}"
                found.append(f"pair {k} {side}: {why}, failed={result.get('failed')}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in end_to_end]

    pairs = []
    for k in range(args.pairs):
        sides = {}
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            sides[side] = result
            shown = " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}"
                for n in names if n in result.get("metrics", {})
            )
            # attempted is passes times operations per pass: peak RSS grows with passes
            print(f"pair {k} {side:6} correct={result.get('correct')}"
                  f" attempted={result.get('attempted')} failed={result.get('failed')} {shown}",
                  flush=True)
        pairs.append((sides["parent"], sides["change"]))

    print(f"# {args.workload} seed={args.seed} pairs={args.pairs} seconds={args.seconds:g}")
    for s in summarise(pairs, end_to_end):
        q1, q3 = s["parent_quartiles"]
        print(
            f"{s['name']:12} parent {s['parent_median']:.6g} change {s['change_median']:.6g}"
            f" wins {s['wins']}/{s['pairs']} parent IQR {q1:.6g}..{q3:.6g}"
            f" worse by {s['worse_by']:+.2%} (bound {s['bound']:.0%}): {s['verdict']}"
        )
    for line in problems(pairs):
        print(f"problem: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
