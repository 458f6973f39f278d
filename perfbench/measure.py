"""Pure statistics helpers of the benchmark (no timing, no package state)."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie beyond
#: it; otherwise the highest percentile that has them is reported instead.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One reported percentile: its value, the percentile actually used and
    the number of samples it was taken from."""

    value: float
    percentile: float
    samples: int


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Percentile:
    """The ``q``-th percentile (nearest rank), capped so that at least
    ``min_beyond`` samples lie above the reported rank.

    With ``n`` samples the highest supported percentile is the one at rank
    ``n - min_beyond``; a request above it is answered at that rank, and the
    returned :class:`Percentile` says which percentile that was.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        rank = max(1, n - min_beyond)
    return Percentile(value=float(ordered[rank - 1]),
                      percentile=100.0 * rank / n, samples=n)


def windowed_percentile(stamps: Sequence[float], samples: Sequence[float],
                        q: float, windows: int, span: Tuple[float, float]
                        ) -> Tuple[float, List[Percentile]]:
    """Median over ``windows`` equal slices of ``span`` of the per-slice
    :func:`tail_percentile`; a sample belongs to the slice of its stamp.

    A burst of interference inflates the tail of the slices it falls in,
    not the median slice, so the result repeats better across runs than
    one percentile over the whole region.  Returns the median and the
    per-slice percentiles (for their sample counts).
    """
    lo, hi = span
    if hi <= lo or windows < 1:
        raise ValueError("need a non-empty span and at least one window")
    slices: List[List[float]] = [[] for _ in range(windows)]
    width = (hi - lo) / windows
    for stamp, sample in zip(stamps, samples):
        slot = min(windows - 1, max(0, int((stamp - lo) / width)))
        slices[slot].append(sample)
    per_slice = [tail_percentile(s, q) for s in slices if s]
    return statistics.median(p.value for p in per_slice), per_slice


def failed_ratio(attempted: int, outcomes: Iterable[str]) -> float:
    """Share of attempted points that were not delivered with outcome ``ok``.

    ``outcomes`` holds the outcome of every *delivered* point; points that
    were shed, degraded or quarantined deliver another outcome, and points
    that raised or never came back deliver none, so all of them count.
    """
    if attempted < 1:
        raise ValueError("attempted must be positive")
    ok = sum(1 for outcome in outcomes if outcome == "ok")
    if ok > attempted:
        raise ValueError(f"{ok} ok outcomes for {attempted} attempted points")
    return (attempted - ok) / attempted

