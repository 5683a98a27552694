"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every check is exact (integer arithmetic, zero tolerance) and carries the
stated wall-clock budget. Run with `pytest -v tests/test_acceptance.py`
to see the per-criterion outcome lines.
"""

import time
from math import gcd

from graftkit import (
    OddMultiplicity,
    algebraic_intersection,
    build_complex,
    common_grafts,
    component,
    dehn_twist,
    geometric_intersection,
    goldman_decompose,
    standard_configuration,
    standard_fan,
    verify_suite,
    witness_graph,
)


def report(number, ok, desc, budget=None, elapsed=None):
    timing = ""
    if budget is not None:
        timing = f" [{elapsed:.2f}s / {budget:.0f}s]"
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: "
          f"{desc}{timing}")
    assert ok, f"criterion {number} failed: {desc}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} exceeded budget: {elapsed:.2f}s")


def primitives(radius):
    return [(p, q) for p in range(-radius, radius + 1)
            for q in range(-radius, radius + 1)
            if gcd(abs(p), abs(q)) == 1]


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    outcome = verify_suite("oracle", sweep=5)
    elapsed = time.monotonic() - start
    report(1, outcome.passed,
           "drawn-curve oracle matches exact intersections and both "
           "resolutions on all primitive pairs with entries in [-5,5]",
           60.0, elapsed)


def test_criterion_02_twist_formula():
    start = time.monotonic()
    ok = True
    for a in primitives(5):
        for b in primitives(5):
            d2 = algebraic_intersection(a, b) ** 2
            for k in range(-5, 6):
                if geometric_intersection(dehn_twist(b, a, k), b) != \
                        abs(k) * d2:
                    ok = False
    elapsed = time.monotonic() - start
    report(2, ok,
           "twisted class meets the original in |k| i(a,b)^2 points "
           "across the |k| <= 5 sweep", 5.0, elapsed)


def test_criterion_03_flat_chart_identity():
    start = time.monotonic()
    outcome = verify_suite("flatsharp", k_max=10)
    elapsed = time.monotonic() - start
    report(3, outcome.passed,
           "flat resolution of (0,2k) with (2,-2k) is (2,0) for "
           "k = 1..10", 1.0, elapsed)


def test_criterion_04_four_way_identity():
    start = time.monotonic()
    outcome = verify_suite("sharp_flat", k_max=8)
    elapsed = time.monotonic() - start
    report(4, outcome.passed,
           "all four twist/resolution routes give (4,4k) and the "
           "argument-switch identity holds for |k| <= 8", 1.0, elapsed)


def test_criterion_05_graft_twist_equivalence():
    start = time.monotonic()
    outcome = verify_suite("dehn_twist", k_max=6)
    elapsed = time.monotonic() - start
    report(5, outcome.passed,
           "right-spiraling grafts realize the positive curve twist and "
           "left-spiraling the negative, k = 1..6", 1.0, elapsed)


def test_criterion_06_iterated_connectivity():
    start = time.monotonic()
    config = standard_configuration()
    ok = True
    for l0 in (0, 1, 2, -3):
        witnesses = common_grafts(config, l0, 8)
        ok = ok and len(witnesses) == 17
        ok = ok and all(w.k + w.l == 2 * w.m for w in witnesses)
        ok = ok and [w.m for w in witnesses] == list(range(-8, 9))
    elapsed = time.monotonic() - start
    report(6, ok,
           "both graft pipelines agree for every |m| <= 8 under the "
           "doubled twist budget k + l = 2m, with full witness count",
           5.0, elapsed)


def test_criterion_07_two_meridian():
    start = time.monotonic()
    outcome = verify_suite("two_meridian", k_max=5)
    elapsed = time.monotonic() - start
    report(7, outcome.passed,
           "splitting the twists across two charts leaves the graft key "
           "unchanged for 0 <= l < k <= 5", 5.0, elapsed)


def test_criterion_08_standard_fan():
    start = time.monotonic()
    config = standard_configuration()
    outcome = standard_fan(config, "a", 6, 3)
    elapsed = time.monotonic() - start
    report(8, outcome.passed and len(outcome.rows) == 7,
           "the seven fan structures (l = 0..6, m = 3) graft to a single "
           "common key", 1.0, elapsed)


def test_criterion_09_goldman_round_trip():
    start = time.monotonic()
    outcome = verify_suite("goldman", trials=100, seed=7)
    ok = outcome.passed
    try:
        goldman_decompose((component("odd", {"a": (1, 0)}, 5),))
        ok = False
    except OddMultiplicity:
        pass
    elapsed = time.monotonic() - start
    report(9, ok,
           "100 seeded even multicurves decompose and regraft to their "
           "original key; odd multiplicity is rejected", 5.0, elapsed)


def test_criterion_10_rank_growth():
    start = time.monotonic()
    config = standard_configuration()
    ranks = [build_complex(config, m, 2).cycle_rank() for m in range(1, 7)]
    strictly = all(b > a for a, b in zip(ranks, ranks[1:]))
    depth_ranks = [build_complex(config, 3, d).cycle_rank()
                   for d in range(4)]
    monotone = all(b >= a for a, b in zip(depth_ranks, depth_ranks[1:]))
    elapsed = time.monotonic() - start
    report(10, strictly and monotone,
           f"cycle rank grows strictly in the twist bound at depth 2 "
           f"(ranks {ranks}) and never drops with depth", 60.0, elapsed)


def test_criterion_11_deterministic_exports():
    config = standard_configuration()
    witness_blobs = {witness_graph(config, 1, 8).to_json_bytes()
                     for _ in range(2)}
    complex_blobs = {build_complex(config, 6, 2).to_json_bytes()
                     for _ in range(4)}
    report(11, len(witness_blobs) == 1 and len(complex_blobs) == 1,
           "witness-graph and complex JSON exports are byte-identical "
           "across repeated runs (two witness graphs, four complexes)")
