"""In-memory span recording and the arithmetic the benchmark reports from it.

A span is one timed call: name, start and end (``perf_counter_ns``), the
span that caused it, and the operation it belongs to. Spans stay in memory
and are written out once, when the run ends.

The benchmark times the library only from outside, around public calls.
Where a public call hides an inner layer (``parse_norm_document`` builds
the graph, every algorithm runs ``dsatur`` and ``rank_colours``), a traced
operation *replays* the inner call on the same input right after the real
one. A replay span's ``parent`` is the span it ran inside, as for any span;
its ``replay_of`` names the span whose hidden call it repeats. Self time
subtracts children by the part of the span's interval they cover, and
replays of the span by their duration.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

# Percentiles tried for the tail latency, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start_ns: int
    end_ns: int
    replay_of: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Times calls as spans when ``record`` is set; otherwise just calls."""

    def __init__(self, record: bool) -> None:
        self.record = record
        self.spans: list[Span] = []
        self.op = -1
        self.last: int | None = None
        self._open: list[int] = []

    def call(
        self, name: str, fn: Callable[..., T], *args: object, replay_of: int | None = None
    ) -> T:
        """Return ``fn(*args)``; record it as a span when tracing.

        ``replay_of`` marks a replay of the call hidden inside that span.
        After the call, ``last`` holds the new span's id.
        """
        if not self.record:
            return fn(*args)
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # reserve the id; filled below
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = Span(sid, name, parent, self.op, start, end, replay_of)
            self.last = sid

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")


def _covered_ns(lo: int, hi: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [lo, hi) covered by the union of the given intervals."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Self time of every span, indexed like ``spans`` (ids are positions).

    Self time is the span's duration, minus the part of its interval its
    children cover, minus the duration of the replays of its hidden calls.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    replayed = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
        if s.replay_of is not None:
            replayed[s.replay_of] += s.duration_ns
    return [
        s.duration_ns - _covered_ns(s.start_ns, s.end_ns, children.get(s.id, ())) - replayed[s.id]
        for s in spans
    ]


def real_paths_ns(spans: Sequence[Span]) -> dict[int, int]:
    """Per operation, the duration of its root span minus every replay made
    inside it: what the untraced operation spends, plus the tracer's cost.

    Replays run one after another, never inside another replay, so each is
    subtracted on its own.
    """
    paths = {s.op: s.duration_ns for s in spans if s.parent is None}
    for s in spans:
        if s.replay_of is not None:
            paths[s.op] -= s.duration_ns
    return paths


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """Highest percentile of ``TAIL_LADDER`` whose nearest-rank value has
    at least ten samples ranked above it.

    Returns (percentile, value, samples beyond), or None when even the
    median has fewer than ten samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        tenths = round(p * 10)
        rank = max(1, -(-tenths * n // 1000))  # ceil(p% of n), in exact integers
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], beyond
    return None
