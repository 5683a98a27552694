"""Host-speed normalisation: a fixed reference kernel and the arithmetic
that turns raw job times into seconds at a fixed host speed.

Raw wall-clock time on a small shared machine drifts by several percent
between runs, because the host's speed drifts. Timing a fixed kernel
between the job's repetitions measures that drift, and dividing by it
removes most of it:

    normalised = mean(job) / mean(kernel) * NOMINAL_KERNEL_S

so a job that takes as long as the kernel reads NOMINAL_KERNEL_S seconds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from statistics import fmean, median
from typing import Sequence

# The kernel's time on the reference host (2 CPUs, CPython 3.11.7) in its
# fast state. That host runs at one of two speeds, about 1.55 times apart,
# switching every few seconds, so this was measured in two steps (see
# README.md): a kernel with twice this work had a fast-state median of
# 0.0700 s over 150 s, and this kernel took 0.4592 of its time, the median
# over 120 interleaved pairs. It is a constant so that every normalised
# figure reads as seconds on that host at its fast speed.
NOMINAL_KERNEL_S = 0.0321

# reference_kernel() returns this checksum; a different value means the
# kernel no longer does the work its nominal time was measured for.
KERNEL_CHECKSUM = 2723181579


def reference_kernel() -> int:
    """Fixed pure-Python work in the mix the library spends its time on:
    integer pairs and gcds, tuple keys in dicts and sets, short-lived
    small containers, sorting, exact Fraction arithmetic and compact
    JSON encoding. Returns a checksum."""
    table = {}
    seen = set()
    acc = 0
    for i in range(7000):
        p = (i * 7919) % 211 - 105
        q = (i * 104729) % 199 - 99
        g = gcd(p, q) or 1
        key = (p // g, q // g)
        table[key] = table.get(key, 0) + g
        seen.add((key, i % 7))
        acc = (acc * 31 + p * q - abs(p - q)) % 4294967291
    live = []
    for i in range(20000):
        live.append({"pair": (i % 23, i % 19), "leaves": [i]})
        if len(live) > 6000:
            acc = (acc + len({d["pair"] for d in live})) % 4294967291
            live = []
    ratio = Fraction(0)
    for i in range(1, 600):
        ratio = (ratio + Fraction(i % 89, 97)) * Fraction(89, 88 + i % 3)
        ratio = Fraction(ratio.numerator % 1000003, ratio.denominator % 999 + 1)
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    text = json.dumps({"items": items, "n": len(seen)}, sort_keys=True,
                      separators=(",", ":"))
    return (acc ^ len(text) ^ ratio.numerator ^ ratio.denominator) % 4294967291


def normalised(job_times: Sequence[float], kernel_times: Sequence[float],
               nominal: float = NOMINAL_KERNEL_S) -> float:
    """Mean job time in seconds at the reference host's speed.

    With one kernel call per job this is sum(job) / sum(kernel) * nominal.
    """
    if not job_times or not kernel_times:
        raise ValueError("need at least one job time and one kernel time")
    return fmean(job_times) / fmean(kernel_times) * nominal


def median_normalised(job_times: Sequence[float],
                      kernel_times: Sequence[float],
                      nominal: float = NOMINAL_KERNEL_S) -> float:
    """Median job time over median kernel time, times nominal: the form
    used where single samples are short and an outlier would dominate a
    sum (interpreter start-up for setup_s)."""
    if not job_times or not kernel_times:
        raise ValueError("need at least one job time and one kernel time")
    return median(job_times) / median(kernel_times) * nominal
