"""Percentiles and span self-time arithmetic for the benchmark.

Every sample a run collects is summarized in its record by `summarize`:
the median, plus the highest percentile that still has at least
`TAIL_MIN` samples beyond it, with the sample count. Named tail metrics
(p90, p99) use `percentile` and are checked with `supports`. Per-layer
self times come from `self_times` over the spans a traced run writes.
"""

import math
import statistics
from collections import defaultdict

TAIL_MIN = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return xs[_rank(p, len(xs)) - 1]


def _rank(p, n):
    """1-based nearest rank of percentile `p` among `n` samples."""
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def beyond(n, p):
    """How many of `n` samples lie beyond the nearest-rank `p`-th percentile."""
    return n - _rank(p, n)


def tail_percentile(n):
    """The highest candidate percentile with at least TAIL_MIN samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= TAIL_MIN:
            return p
    return None


def supports(n, p):
    """Whether `n` samples leave at least TAIL_MIN beyond percentile `p`."""
    return beyond(n, p) >= TAIL_MIN


def summarize(samples):
    """Median, the highest well-supported tail percentile, and the sample count."""
    n = len(samples)
    if n == 0:
        raise ValueError("summary of an empty sample")
    p = tail_percentile(n)
    return {
        "median": statistics.median(samples),
        "tail_p": p,
        "tail": percentile(samples, p) if p is not None else None,
        "n": n,
    }


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span name, in seconds, for the spans of one run.

    A span's self time is its duration minus the part of its interval its
    child spans cover. Root spans (no parent) are the run itself: their
    self time is the unattributed remainder. Returns
    (layer self seconds by name, unattributed seconds, traced total seconds),
    where total = sum(layer self) + unattributed.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    layers = defaultdict(float)
    unattributed = 0.0
    total = 0.0
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end)) for c in children[s["id"]]
        )
        own = (end - start - covered) / 1e9
        if s["parent"] is None:
            unattributed += own
            total += (end - start) / 1e9
        else:
            layers[s["name"]] += own
    return dict(layers), unattributed, total
