"""Measurement primitives: percentiles, the arrival schedule, spans, rusage.

Nothing here imports ``repro``; everything is pure enough to unit-test
(``test_perfbench.py``).
"""

from __future__ import annotations

import json
import resource

import numpy as np

from .spec import samples_beyond

MIN_BEYOND = 10


def _require_beyond(n: int, q: float) -> None:
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {samples_beyond(n, q)} beyond "
            f"it, fewer than {MIN_BEYOND}")


def percentile(samples, q: float, strict: bool = True) -> float:
    """The ``q``-th percentile (linear interpolation between order
    statistics, NumPy's default rule).

    A percentile is only worth printing with at least ``MIN_BEYOND``
    samples beyond it; ``strict`` refuses otherwise.  Shortened smoke
    runs (``--seconds`` below the declared run length) pass
    ``strict=False`` and say so next to the number.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if strict:
        _require_beyond(n, q)
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def windowed_percentile(at, samples, q: float, window_s: float,
                        strict: bool = True) -> float:
    """Median over consecutive ``window_s``-second windows of each
    window's ``q``-th percentile; ``at[i]`` is when sample ``i`` fell due.

    A host stall of a few hundred ms lifts the tail of every request due
    during it, and so the pooled p90 of the whole run; here it spoils one
    window and the median over windows passes it by.  The ten-beyond
    rule is applied to the whole run's sample count.
    """
    if strict:
        _require_beyond(len(samples), q)
    windows: dict[int, list[float]] = {}
    for t, value in zip(at, samples):
        windows.setdefault(int(t // window_s), []).append(value)
    return float(np.median([percentile(values, q, strict=False)
                            for values in windows.values()]))


def arrival_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times (s from the start) of ``round(rate * seconds)`` Poisson
    arrivals inside ``[0, seconds)``.

    A Poisson process conditioned on its count is that many sorted
    uniform draws, so every seed offers the same load (the request
    count, hence ``cpu_s``, does not move with the seed) while gaps stay
    exponential-like: bursts and lulls differ per seed.
    """
    n = max(1, int(round(rate * seconds)))
    rng = np.random.default_rng([int(seed), 0xA221])
    return np.sort(rng.uniform(0.0, float(seconds), size=n))


# -- rusage -----------------------------------------------------------------
def cpu_seconds() -> float:
    """User+system CPU of this process plus every child reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


# -- spans ------------------------------------------------------------------
class SpanLog:
    """Harness-side spans, kept in memory until the run ends.

    One span = (name, layer, start, end, parent, trace id); spans of
    one trial / request share the trace id.  Times are
    ``time.monotonic()`` seconds.  A ``None`` log (untraced run) is
    never consulted: callers guard with ``if spans is not None``.
    """

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int | None = None, trace_id: str = "") -> int:
        self.spans.append({"name": name, "layer": layer,
                           "start": float(start), "end": float(end),
                           "parent": parent, "trace_id": trace_id})
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval that
        its direct children cover (children may overlap each other)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            edge = s["start"]
            for start, end in sorted(children.get(i, ())):
                start = max(start, edge)
                end = min(end, s["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out.append((s["end"] - s["start"]) - covered)
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + self_s
        return totals

    def write_chrome_trace(self, path) -> None:
        """Complete ("X") events, one row (tid) per trace id."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows: dict[str, int] = {}
        events = []
        for s, self_s in zip(self.spans, self.self_times()):
            tid = rows.setdefault(s["trace_id"], len(rows))
            events.append({
                "name": s["name"], "cat": s["layer"], "ph": "X",
                "pid": 0, "tid": tid,
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"trace_id": s["trace_id"],
                         "parent": s["parent"],
                         "self_us": self_s * 1e6},
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
