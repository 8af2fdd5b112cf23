"""Order statistics and the regression verdicts of ``--compare``.

Quartiles are Python's ``statistics.quantiles(values, n=4)`` (the
exclusive method), so the spread the benchmark reports is the spread a
reader recomputes from the raw values in the BENCH file.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

__all__ = ["median", "quartiles", "summarize", "verdict"]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """The reported form of one end-to-end metric: n, median, quartiles,
    extremes and every raw value."""
    q1, med, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": list(values),
    }


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """Classify ``new`` against ``base`` for one (metric, workload).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of
    the base median by which the metric may get worse.

    * ``better``: every new value beats every base value, or the new
      interquartile range lies wholly on the better side of the base's;
    * ``worse``: the median got worse by more than ``bound`` and the
      spread of both sides is within ``bound`` (or every new value is
      worse than every base value);
    * ``unresolved``: the spread of either side is wider than ``bound``,
      so a change of ``bound`` cannot be told from noise;
    * ``within``: otherwise.

    A ``bound`` of 0 compares medians exactly (used for ``error_rate``).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    # Work in "cost" space, where a larger number is always worse.
    b = sorted(sign * v for v in base)
    n = sorted(sign * v for v in new)
    b_q1, b_med, b_q3 = quartiles(b)
    n_q1, n_med, n_q3 = quartiles(n)
    if bound == 0:
        if n_med < b_med:
            return "better"
        return "worse" if n_med > b_med else "within"
    scale = abs(b_med) or 1.0
    change = (n_med - b_med) / scale
    spread = max((b_q3 - b_q1) / scale, (n_q3 - n_q1) / scale)
    if n[-1] < b[0] or n_q3 < b_q1:
        return "better"
    if n[0] > b[-1] and change > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    return "worse" if change > bound else "within"
