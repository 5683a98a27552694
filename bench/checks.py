"""Checks of graftkit's outputs made apart from graftkit.

Nothing here imports graftkit: every expected value is recomputed from
the definitions (the pairing p*s - q*r, the resolution sign rule, the
twist budget k + l = 2m) or is a property the method must have (the
graph is connected, its cycle rank is E - V + 1, a graft adds two
grafting leaves). Each check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Pair = Tuple[int, int]
# The label of the grafting curve in standard_configuration(); a graft
# adds two leaves of it to a key's content census.
GRAFT_LABEL = "gamma"


def primitive_classes(radius: int) -> List[Pair]:
    """Primitive pairs with both entries in [-radius, radius]."""
    return [(p, q) for p in range(-radius, radius + 1)
            for q in range(-radius, radius + 1) if gcd(p, q) == 1]


def pairing(a: Pair, b: Pair) -> int:
    return a[0] * b[1] - a[1] * b[0]


def resolved_total(a: Pair, b: Pair, sharp: bool) -> Pair:
    """Class of the resolution of a with b: the sum when the curves are
    disjoint or the mode agrees with the sign of the pairing (sharp for
    a positive pairing, flat for a negative one), otherwise a - b."""
    d = pairing(a, b)
    if d == 0 or (d > 0) == sharp:
        return (a[0] + b[0], a[1] + b[1])
    return (a[0] - b[0], a[1] - b[1])


def _failed_instances(report: Mapping) -> List[str]:
    problems = []
    if not report.get("passed"):
        problems.append(f"suite {report.get('suite')!r} did not pass")
    for inst in report.get("instances", ()):
        if not inst.get("ok"):
            problems.append(f"suite {report.get('suite')!r}: "
                            f"{inst.get('desc')} failed")
    return problems


# ---------------------------------------------------------------------------
# oracle_sweep

_PAIRS_RE = re.compile(r"on (\d+) primitive pairs \(radius (\d+)\)")


def oracle_report(report: Mapping, radius: int) -> List[str]:
    """The sweep passed and covered every ordered pair of primitive
    classes of the radius, as counted here."""
    problems = _failed_instances(report)
    want = len(primitive_classes(radius)) ** 2
    summary = [m for m in (_PAIRS_RE.search(i.get("desc", ""))
                           for i in report.get("instances", ())) if m]
    if len(summary) != 1:
        problems.append("oracle report has no single pair-count summary")
    elif (int(summary[0].group(1)), int(summary[0].group(2))) != (want,
                                                                   radius):
        problems.append(f"oracle covered {summary[0].group(1)} pairs at "
                        f"radius {summary[0].group(2)}; expected {want} at "
                        f"radius {radius}")
    return problems


def oracle_pair(a: Pair, b: Pair, intersection: Tuple[int, int],
                sharp: Iterable[Sequence[int]],
                flat: Iterable[Sequence[int]]) -> List[str]:
    """One drawn pair: (geometric, algebraic) is (|d|, d) with
    d = p*s - q*r, and the components of each resolution add up to the
    class the sign rule gives."""
    problems = []
    d = pairing(a, b)
    if tuple(intersection) != (abs(d), d):
        problems.append(f"oracle intersection of {a}, {b} is "
                        f"{tuple(intersection)}; expected {(abs(d), d)}")
    for name, comps, is_sharp in (("sharp", sharp, True),
                                  ("flat", flat, False)):
        comps = [tuple(c) for c in comps]
        total = (sum(c[0] for c in comps), sum(c[1] for c in comps))
        want = resolved_total(a, b, is_sharp)
        if total != want:
            problems.append(f"oracle {name} resolution of {a}, {b} totals "
                            f"{total}; expected {want}")
    return problems


# ---------------------------------------------------------------------------
# complex_build


def _census(key: str) -> Counter:
    return Counter({lab: n for lab, n in json.loads(key)["content"]})


def _components(n: int, links: Iterable[Tuple[int, int]]) -> int:
    """Connected components of n nodes under the links (union-find)."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    count = n
    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def complex_export(data: bytes, rank_by_kind: Mapping[str, int]) -> List[str]:
    """A grafting-complex JSON export and the rank_by_kind() of the same
    graph: the export parses, edges join listed vertices, the graph is
    connected from its seed, the stats match the arrays, every rank is
    what a union-find over the exported edges gives, a graft edge adds
    exactly two grafting leaves to the content census and an elementary
    edge leaves it unchanged."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"export does not parse: {exc}"]
    problems: List[str] = []
    vertices = doc["vertices"]
    edges = doc["edges"]
    n = len(vertices)
    if [v["id"] for v in vertices] != list(range(n)):
        problems.append("vertex ids are not 0..V-1 in order")
    keys = [v["key"] for v in vertices]
    if len(set(keys)) != n:
        problems.append("vertex keys repeat")
    bad = [e for e in edges
           if not (0 <= e["src"] < n and 0 <= e["dst"] < n)]
    if bad:
        return problems + [f"{len(bad)} edges have an endpoint that is not "
                           f"a vertex"]
    seed = [i for i, k in enumerate(keys) if k == doc["seed"]]
    if len(seed) != 1:
        problems.append("the seed is not one vertex")
    else:
        adjacent: Dict[int, List[int]] = {i: [] for i in range(n)}
        for e in edges:
            adjacent[e["src"]].append(e["dst"])
            adjacent[e["dst"]].append(e["src"])
        reached = {seed[0]}
        queue = deque(seed)
        while queue:
            for j in adjacent[queue.popleft()]:
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
        if len(reached) != n:
            problems.append(f"{n - len(reached)} vertices are not connected "
                            f"to the seed")
    stats = doc["stats"]
    if (stats["vertices"], stats["edges"]) != (n, len(edges)):
        problems.append(f"stats count {stats['vertices']} vertices and "
                        f"{stats['edges']} edges; the arrays hold {n} and "
                        f"{len(edges)}")
    if stats["cycle_rank"] != len(edges) - n + 1:
        problems.append(f"stats cycle_rank {stats['cycle_rank']} is not "
                        f"E - V + 1 = {len(edges) - n + 1}")
    want = {"all": len(edges) - n + _components(
        n, ((e["src"], e["dst"]) for e in edges))}
    for kind in ("graft", "elementary"):
        links = [(e["src"], e["dst"]) for e in edges if e["kind"] == kind]
        want[kind] = len(links) - n + _components(n, links)
    for name, ranks in (("rank_by_kind()", rank_by_kind),
                        ("stats rank_by_kind", stats["rank_by_kind"])):
        if dict(ranks) != want:
            problems.append(f"{name} is {dict(ranks)}; union-find over the "
                            f"exported edges gives {want}")
    census = [_census(k) for k in keys]
    plus_graft = Counter({GRAFT_LABEL: 2})
    for e in edges:
        before, after = census[e["src"]], census[e["dst"]]
        want_after = before + plus_graft if e["kind"] == "graft" else before
        if after != want_after:
            problems.append(f"{e['kind']} edge {e['src']}->{e['dst']} takes "
                            f"census {dict(before)} to {dict(after)}")
            break
    return problems


# ---------------------------------------------------------------------------
# identity_suites


def _chart_total(key: str, chart: str) -> Pair:
    return tuple(json.loads(key)["charts"][chart])


def grafted_key(key: str, chart: str, k: int, l: int,
                base_content: Mapping[str, int]) -> List[str]:
    """A key reached by grafting the k-twisted curve onto the l-twisted
    base structure: the doubled curve (2, 2k) joins the real curve
    (2, 2l), so the chart total is (4, 2(k + l)), and the census gains
    two grafting leaves."""
    problems = []
    want_total = (4, 2 * (k + l))
    got_total = _chart_total(key, chart)
    if got_total != want_total:
        problems.append(f"key at k={k}, l={l} has chart total {got_total}; "
                        f"expected {want_total}")
    want_census = Counter(base_content) + Counter({GRAFT_LABEL: 2})
    if _census(key) != want_census:
        problems.append(f"key at k={k}, l={l} has census "
                        f"{dict(_census(key))}; expected {dict(want_census)}")
    return problems


_ITERATED_RE = re.compile(r"common graft at m=(-?\d+) \(k=(-?\d+), "
                          r"l=(-?\d+)\)")


def identity_suites(reports: Mapping[str, Mapping],
                    expected_instances: Mapping[str, int],
                    fan: Tuple[object, Sequence[Tuple[int, int, str]]],
                    fan_m: int, witness_export: bytes, witness_bound: int,
                    chart: str, base_content: Mapping[str, int]
                    ) -> List[str]:
    """The identity suites and the fan and witness-graph outputs.

    Every report passes with the instance count its parameters imply;
    the fan's rows share one key with chart total (4, 2m); every
    iterated witness and every witness-graph target has chart total
    (4, 4m) with k + l = 2m, and content base + two grafting leaves."""
    problems: List[str] = []
    for name, want in expected_instances.items():
        report = reports[name]
        problems += _failed_instances(report)
        got = len(report.get("instances", ()))
        if got != want:
            problems.append(f"suite {name!r} ran {got} instances; its "
                            f"parameters imply {want}")
    for inst in reports["iterated"].get("instances", ()):
        match = _ITERATED_RE.fullmatch(inst.get("desc", ""))
        if not match:
            continue
        m, k, l = (int(g) for g in match.groups())
        if k + l != 2 * m:
            problems.append(f"iterated instance m={m} breaks k + l = 2m")
        problems += grafted_key(inst["detail"], chart, k, l, base_content)
    common_key, rows = fan
    if not rows or any(key != common_key for _, _, key in rows):
        problems.append("fan rows do not share the common key")
    else:
        for l, k, key in rows:
            if k + l != fan_m:
                problems.append(f"fan row l={l} has k={k}; expected "
                                f"k + l = {fan_m}")
            problems += grafted_key(key, chart, k, l, base_content)
    try:
        doc = json.loads(witness_export)
    except ValueError as exc:
        return problems + [f"witness export does not parse: {exc}"]
    keys = [v["key"] for v in doc["vertices"]]
    targets = set()
    for e in doc["edges"]:
        src_total = _chart_total(keys[e["src"]], chart)
        if e["kind"] != "graft" or src_total[0] != 2 or src_total[1] % 2:
            problems.append(f"witness edge from {src_total} is not a graft "
                            f"from a twisted base structure")
            continue
        problems += grafted_key(keys[e["dst"]], chart, e["n"],
                                src_total[1] // 2, base_content)
        targets.add(e["dst"])
    want_witnesses = 2 * witness_bound + 1
    if len(targets) != want_witnesses:
        problems.append(f"witness graph has {len(targets)} common grafts; "
                        f"expected {want_witnesses}")
    if len(doc["edges"]) != 2 * want_witnesses:
        problems.append(f"witness graph has {len(doc['edges'])} edges; "
                        f"expected {2 * want_witnesses}")
    return problems
