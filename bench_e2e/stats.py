"""Statistics and naming rules of the end-to-end benchmark.

Kept apart from ``run.py`` so that ``test_stats.py`` can check each rule,
and run seeded mutants of this file to show that every check can fail.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BEYOND = 10


def valid_name(name):
    """A metric or workload name: starts with a letter or digit, then at
    most 63 more letters, digits, ``_``, ``.`` or ``-``."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else math.inf


def rank(p, n):
    """1-based nearest rank of percentile ``p`` among ``n`` samples. The
    small tolerance keeps ``99.9 * 1000 / 100`` from rounding up past 999."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n):
    """The highest percentile of ``TAIL_LADDER`` with at least ``BEYOND``
    of ``n`` samples beyond it, or ``None`` when even the median has not."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(p, len(values)) - 1]


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children may overlap one another, as natives on
    different daemons do). ``spans`` are dicts with ``id``, ``parent``,
    ``start_ns`` and ``end_ns``; returns ``{id: nanoseconds}``."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], reach), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out
