"""Percentiles with the sample-count rule.

A timing is reported as its median and the highest percentile that has at
least :data:`MIN_TAIL` samples beyond it.  With ``n`` samples a percentile
``q`` has ``n * (1 - q/100)`` samples beyond it, so p90 needs at least 100
samples; a percentile asked for on fewer samples is reported as
unsupported rather than silently read off a handful of points.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10

#: Percentiles considered, lowest first, when picking the reportable tail.
LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default ("linear") method.  Raises on
    an empty sample: a percentile of nothing is a bug in the caller.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (1.0 - q / 100.0)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile.

    The median is always reportable on a non-empty sample; a tail
    percentile needs :data:`MIN_TAIL` samples beyond it.
    """
    if n <= 0:
        return False
    if q <= 50.0:
        return True
    return samples_beyond(n, q) >= MIN_TAIL - 1e-9


def highest_supported(n: int) -> float | None:
    """The highest percentile of :data:`LADDER` that ``n`` samples support."""
    best = None
    for q in LADDER:
        if supports(n, q):
            best = q
    return best


def summarize(samples, qs=(50.0, 90.0)) -> dict:
    """Median/tail summary of one timing, with its sample count.

    Returns ``{"n": count, "p50": ..., "p90": ..., "supported": {...},
    "highest_supported": q}``; a percentile the sample cannot support is
    still computed but flagged ``False`` under ``supported``.
    """
    xs = list(samples)
    out: dict = {"n": len(xs), "supported": {},
                 "highest_supported": highest_supported(len(xs))}
    for q in qs:
        key = f"p{q:g}"
        out[key] = percentile(xs, q) if xs else math.nan
        out["supported"][key] = supports(len(xs), q)
    return out

