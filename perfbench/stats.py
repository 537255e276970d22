"""The benchmark's own arithmetic: percentiles, self time, ratios, digests.

Kept free of the program under test so ``test_stats.py`` can check it in
isolation.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TAIL_MIN_BEYOND = 10  # samples that must lie beyond the tail percentile


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def _rank(pct: float, n: int) -> int:
    # Exact: 0.9 * 100 in floats is 90.00000000000001, one rank too high.
    return max(1, math.ceil(Fraction(pct) * n / 100))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values: Sequence[float]) -> Tuple[int, float]:
    """``(pct, value)``: the highest whole percentile that leaves at least
    ``TAIL_MIN_BEYOND`` samples strictly above its rank (p90 at 100
    samples, p85 at 70).  Needs more than ``TAIL_MIN_BEYOND`` samples."""
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(
            f"a tail percentile needs more than {TAIL_MIN_BEYOND} samples, got {n}"
        )
    pct = (100 * (n - TAIL_MIN_BEYOND)) // n
    while n - _rank(pct, n) < TAIL_MIN_BEYOND:
        pct -= 1
    return pct, nearest_rank(sorted(values), pct)


def fraction(part: float, whole: float) -> float:
    """``part / whole`` for failure-style ratios; an empty denominator is
    an error, never a silent 0 (nothing attempted means nothing measured)."""
    if whole <= 0:
        raise ValueError(f"fraction over an empty denominator ({part}/{whole})")
    if part < 0 or part > whole:
        raise ValueError(f"fraction part {part} outside [0, {whole}]")
    return part / whole


def exchange_fail_frac(requests: int, retransmissions: int, timeouts: int) -> float:
    """Failed SNMP exchanges over exchanges attempted.

    ``requests`` counts every transmission, retransmissions included, so
    the exchanges attempted are ``requests - retransmissions`` (one first
    transmission each); an exchange fails when it is abandoned after its
    retries (``timeouts``)."""
    return fraction(timeouts, requests - retransmissions)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.

    Span ``i`` runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is the
    index of its parent span or -1.  Child intervals are clipped to the
    parent and merged, so overlapping or out-of-bounds children never
    count twice.
    """
    if not len(starts) == len(ends) == len(parents):
        raise ValueError("span columns differ in length")
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for k_start, k_end in sorted(children.get(i, ())):
            lo = max(k_start, reach)
            hi = min(k_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def rolling_median(values: Sequence[float], width: int) -> List[float]:
    """Median of the ``width`` values centred on each position (the window
    slides inward at the ends, so every median covers ``width`` values when
    there are that many)."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    out: List[float] = []
    n = len(values)
    for i in range(n):
        lo = max(0, min(i - width // 2, n - width))
        out.append(median(values[lo:lo + width]))
    return out


def calibrate(walls: Sequence[float], refs: Sequence[float], nominal: float,
              width: int = 5) -> List[float]:
    """Rescale each wall time to the host speed at which the reference loop
    takes ``nominal`` seconds.  ``refs[i]`` is the reference loop timed around
    ``walls[i]`` (the mean of one run before and one after); a rolling median over ``width`` of them tracks the
    host's speed without following single-sample jitter."""
    if len(walls) != len(refs):
        raise ValueError("need one reference timing per wall time")
    return [w * nominal / r for w, r in zip(walls, rolling_median(refs, width))]


def fit_exponent(sizes: Sequence[float], values: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(value) against log(size); None when any
    value is not positive (the layer did no timed work at some size)."""
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need matching sizes and values, at least two")
    if any(v <= 0 for v in values):
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class ReportDigest:
    """SHA-256 over the report stream, in delivery order.

    Per report: src, dst, time, confidence and status, then per connection
    ``used_bps``, ``available_bps`` and its status (rule, stale and
    quarantined flags).  Floats
    enter as ``float.hex`` so equal digests mean bit-identical figures.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.reports = 0

    def add(self, report) -> None:
        parts = [report.src, report.dst, float(report.time).hex(),
                 float(report.confidence).hex(), report.status]
        for m in report.connections:
            parts.append(float(m.used_bps).hex())
            parts.append(float(m.available_bps).hex())
            parts.append(f"{m.rule}:{int(m.stale)}{int(m.quarantined)}")
        self._h.update(("|".join(parts) + "\n").encode())
        self.reports += 1

    def extend(self, reports: Iterable) -> None:
        for report in reports:
            self.add(report)

    def hexdigest(self) -> str:
        return self._h.hexdigest()
