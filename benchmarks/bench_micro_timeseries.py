"""Micro-benchmark: TimeSeries point/window queries vs the old O(n) path.

``TimeSeries`` used to store samples in ``collections.deque`` objects
and materialize ``list(self._times)`` on *every* ``value_at``/``window``
call — an O(n) copy of the whole retention buffer per query, sitting in
every controller tick and every export row. The rewrite keeps plain
lists with a start offset, so queries bisect in place: O(log n) for
point lookups, O(log n + window) for ranges.

``ReferenceSeries`` below reproduces the old copy-per-query behaviour
so the win is measured, not asserted from memory. On the benchmark size
(100k retained samples, deep history lookups) the bisect path must be
at least 20× faster per query — in practice it is hundreds of times
faster, and the gap grows linearly with retention.

Smoke runs 20k samples and 500 queries; the speedup floor is the same.
Query timings are wall-clock, so they are reported under ``timing``.
"""

from __future__ import annotations

import bisect
import time
from collections import deque

from repro.analysis.report import format_table
from repro.metrics.timeseries import TimeSeries

#: The series are filled deterministically; no seed is drawn from.
SEED = 0
#: (samples, queries) per mode.
SIZES = {"smoke": (20_000, 500), "full": (100_000, 2_000)}


class ReferenceSeries:
    """The pre-rewrite implementation: deques copied on every query."""

    def __init__(self, *, maxlen: int = 100_000):
        self._times: deque[float] = deque(maxlen=maxlen)
        self._values: deque[float] = deque(maxlen=maxlen)

    def append(self, time: float, value: float) -> None:
        self._times.append(float(time))
        self._values.append(float(value))

    def value_at(self, time: float) -> float | None:
        times = list(self._times)  # the O(n) copy under test
        idx = bisect.bisect_right(times, time) - 1
        if idx < 0:
            return None
        return list(self._values)[idx]

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        return [
            (t, v)
            for t, v in zip(self._times, self._values)
            if start < t <= end
        ]


def _fill(series, n: int) -> None:
    for i in range(n):
        series.append(float(i), float(i % 97))


def _time_queries(series, n: int, queries: int) -> dict[str, float]:
    """Wall seconds for ``queries`` point and window lookups."""
    stride = max(1, n // queries)
    t0 = time.perf_counter()
    for i in range(0, n, stride):
        series.value_at(float(i) + 0.5)
    point = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(0, n, stride):
        series.window(float(i) - 30.0, float(i))
    window = time.perf_counter() - t0
    return {"value_at": point, "window": window}


def run_case(mode: str, seed: int = SEED) -> dict:
    samples, queries = SIZES[mode]
    fast = TimeSeries(maxlen=samples)
    slow = ReferenceSeries(maxlen=samples)
    _fill(fast, samples)
    _fill(slow, samples)
    # Same query set on both; identical answers are part of the check.
    probe = samples // 2 + 0.5
    assert fast.value_at(probe) == slow.value_at(probe)
    assert fast.window(100.0, 130.0) == slow.window(100.0, 130.0)
    case = {
        "seed": seed,
        "events_executed": None,
        "metrics": {"samples": samples, "queries": min(queries, samples)},
        "fast": _time_queries(fast, samples, queries),
        "slow": _time_queries(slow, samples, queries),
    }
    case["timing"] = {
        f"speedup/{op}": case["slow"][op] / max(case["fast"][op], 1e-9)
        for op in ("value_at", "window")
    }
    return case


def check_case(case: dict) -> None:
    for op in ("value_at", "window"):
        speedup = case["timing"][f"speedup/{op}"]
        assert speedup >= 20.0, (
            f"{op}: bisect path only {speedup:.1f}x faster than the "
            f"copy-per-query reference (expected ≥20x)"
        )


def format_case(case: dict) -> list[str]:
    queries = case["metrics"]["queries"]
    rows = []
    for op in ("value_at", "window"):
        fast, slow = case["fast"][op], case["slow"][op]
        rows.append([
            op,
            f"{slow / queries * 1e6:.1f}",
            f"{fast / queries * 1e6:.1f}",
            f"{case['timing'][f'speedup/{op}']:.0f}x",
        ])
    return [
        f"TimeSeries micro-benchmark "
        f"({case['metrics']['samples']:,} retained samples, "
        f"{queries:,} queries/op)",
        format_table(
            ["query", "copy-per-query µs", "bisect µs", "speedup"], rows
        ),
    ]
