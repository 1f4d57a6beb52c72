"""Statistics shared by the benchmark runner and the compare script.

Everything here is pure and works on plain lists, so the unit tests in
perfbench/tests exercise exactly what the reports use.
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples
# lie beyond it.
MIN_TAIL_SAMPLES = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty list")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def summary(values):
    """Median, quartiles, spread and the raw values, for a report."""
    q1, med, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "values": list(values),
    }


def max_tail_percentile(n, beyond=MIN_TAIL_SAMPLES):
    """Highest percentile with at least `beyond` of n samples above it.

    Returns None when n cannot leave that many samples beyond any
    percentile.
    """
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty list")
    # Round before ceil so 95% of 200 is rank 190, not 191 through
    # floating-point error.
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def win_fraction(base, head, better):
    """Share of paired runs in which head beats base.

    base and head are equal-length lists of one metric, paired by run.
    Ties count for neither side but stay in the denominator.
    """
    if len(base) != len(head):
        raise ValueError("win_fraction needs paired runs")
    if not base:
        raise ValueError("win_fraction of no pairs")
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    wins = 0
    for b, h in zip(base, head):
        if (h < b) if better == "lower" else (h > b):
            wins += 1
    return wins / len(base)


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    spans is a list of dicts with "id", "parent", "start" and "end".
    Returns {id: seconds}. Overlapping children are counted once, and
    child time outside the parent's interval is ignored.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            start = max(c["start"], cursor)
            end = min(c["end"], hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (hi - lo) - covered
    return out


def self_time_by_name(spans):
    """{name: [self seconds of each span with that name]}."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(selfs[s["id"]])
    return by_name
