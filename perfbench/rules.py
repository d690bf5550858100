"""Statistics rules the benchmark and its compare mode apply.

- A timing is reported as its median and a tail percentile; the tail counts
  only when at least TAIL_MIN samples lie strictly above it.
- Spread is the distance between the first and third quartile, as
  `statistics.quantiles(values, n=4)` gives them.
- Compare (parent vs change, paired runs): a gain needs at least 10 pairs,
  the change to win at least 9/10 of them and the medians to differ, in the
  better direction, by more than the parent's spread. A metric whose relative
  spread is wider than its bound is unresolved, unless every change run beats
  every parent run. Otherwise a change worse than the parent's median by more
  than the bound is a regression.
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN = 10
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


def nearest_rank(samples, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank method."""
    if not samples:
        raise ValueError("nearest_rank: no samples")
    if not 0 < q <= 100:
        raise ValueError(f"nearest_rank: q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def count_above(samples, value):
    return sum(1 for x in samples if x > value)


def tail_resolved(samples, q=90):
    """True when at least TAIL_MIN samples lie strictly above the q-th percentile."""
    return bool(samples) and count_above(samples, nearest_rank(samples, q)) >= TAIL_MIN


def spread(values):
    """Interquartile distance of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def relative_spread(values):
    return spread(values) / abs(statistics.median(values))


def compare_metric(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict for one metric from paired runs; parent[i] pairs with change[i]."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("compare_metric: need two equal-length lists of at least 2 runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"compare_metric: better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    gain_margin = sign * (med_c - med_p)
    worse_share = -gain_margin / abs(med_p)
    rel = max(relative_spread(parent), relative_spread(change))
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)

    if rel > bound and not dominates:
        verdict = "unresolved"
    elif wins >= GAIN_WIN_SHARE * len(parent) and gain_margin > spread(parent):
        if len(parent) < GAIN_MIN_PAIRS:
            verdict = "no gain: too few pairs"
        elif change_failed > parent_failed:
            verdict = "no gain: more failures"
        else:
            verdict = "gain"
    elif worse_share > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "verdict": verdict,
        "pairs": len(parent),
        "wins": wins,
        "parent_median": med_p,
        "change_median": med_c,
        "parent_quartiles": statistics.quantiles(parent, n=4),
        "change_quartiles": statistics.quantiles(change, n=4),
        "relative_spread": rel,
        "worse_share": worse_share,
        "bound": bound,
    }
