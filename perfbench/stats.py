"""Percentiles, the open-loop arrival schedule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or None when the sample is too small for any."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def nearest_rank(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail: the highest supported ladder
    percentile, or the maximum (reported as percentile 100) when fewer
    samples exist than any ladder rung needs."""
    q = supported_percentile(len(samples))
    if q is None:
        return 100.0, max(samples)
    return q, nearest_rank(samples, q)


def open_loop_schedule(seed: int, rate: float, seconds: float,
                       repeat_share: float, recent: int,
                       candidates: Sequence[int]
                       ) -> List[Tuple[float, int, bool]]:
    """Seeded open-loop arrivals: ``[(due_seconds, now, is_repeat)]``.

    ``round(rate * seconds)`` arrivals, uniform over ``[0, seconds)``:
    a Poisson process conditioned on its count, so the offered rate is
    exact while the gaps stay exponential-like.  A fixed number of them,
    ``round((1 - repeat_share) * count)`` at seeded positions (always
    including the first), ask a new "now", drawn without replacement
    from ``candidates``; every other arrival re-asks one of the
    ``recent`` most recent new ones.  Fixing the count of new windows
    keeps the share of cache misses, and so the tail, from varying with
    the seed.
    """
    rng = np.random.default_rng(seed)
    count = int(round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, count))
    n_new = max(1, int(round((1.0 - repeat_share) * count)))
    new = {0, *(1 + rng.choice(count - 1, n_new - 1, replace=False))}
    picks = rng.random(count)
    fresh = iter(rng.permutation(np.asarray(candidates)))
    asked: List[int] = []
    schedule = []
    for i in range(count):
        is_repeat = i not in new
        if is_repeat:
            window = asked[-recent:]
            now = window[int(picks[i] * len(window))]
        else:
            try:
                now = int(next(fresh))
            except StopIteration:
                raise ValueError(
                    f"schedule needs more than {len(candidates)} "
                    f"distinct windows") from None
            asked.append(now)
        schedule.append((float(due[i]), now, is_repeat))
    return schedule


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def describe(values: Sequence[float]) -> Dict[str, float]:
    return {"n": len(values), "median": statistics.median(values),
            "spread": quartile_spread(values) if len(values) > 1 else 0.0}
