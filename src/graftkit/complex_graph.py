"""Enumeration of the structure graph and the identity verification suites.

The graph's vertices map each canonical structure key to the first
structure found with it; edges are graft moves and elementary moves
(meridian twists where the meridian meets the real curves exactly
twice). The breadth-first closure under a bounded generator family is
deterministic for fixed inputs: one serial loop expands the frontier in
key order and merges each structure's moves as it goes, and both exports
number the vertices in key order, so repeated builds are byte-identical.
A build twists and prepares each generator's curve once (see
surface._prepare) and decides each graft once (is_admissible per
structure and generator). Every generator is a meridian twist of the
grafting curve and shares its content, so the grafted content is worked
out once per expanded structure. A move's destination is identified by
arithmetic (the decision's chart totals with that content, or a meridian
twist's) and looked up. A new identity's key is that identity rendered,
and the vertex map records the move that first reached it; its structure
is built once, when the BFS expands it or a caller reads it, so an edge
to a vertex already seen builds nothing, the last level's structures are
built only on request, and no key is worked out from curves but the
seed's. The frontier carries each vertex's key and the identity it was
looked up by, so no identity is derived from curves but the seed's
either; the structures themselves keep only their curves and keys.
Counts, ranks and both exports read keys and edges only.
The graph keeps its ranks once computed, and the JSON export is written
in one pass over the numbered rows, byte for byte what json.dumps with
sorted keys gives.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, \
    Sequence, Tuple

from .errors import BadConfiguration, NotAdmissible, OddMultiplicity, \
    UnknownSuite
from .torus import Mode, TorusClass, algebraic_intersection, dehn_twist, \
    geometric_intersection, normalize, resolve
from . import grid_oracle
from .surface import (
    Admissibility,
    Component,
    Configuration,
    Identity,
    Structure,
    SurfaceModel,
    _graft,
    _graft_content,
    _graft_totals,
    _prepare,
    _render,
    canonical_key,
    component,
    goldman_decompose,
    graft_along,
    is_admissible,
    structure,
    twist_about_curve,
    twist_about_meridian,
    validate_configuration,
)

log = logging.getLogger("graftkit")


class Edge(NamedTuple):
    """One move: kind is "graft" or "elementary"; chart names the twisting
    chart ("" for the untwisted graft); n is the twist power."""

    kind: str
    chart: str
    n: int
    src: str
    dst: str


def _label(kind: str, chart: str, n: int) -> str:
    """An edge's DOT label."""
    if kind == "elementary":
        return f"elem {chart} {'+' if n > 0 else ''}{n}"
    if n == 0:
        return "graft"
    return f"graft T^{n}@{chart}"


@dataclass(frozen=True)
class Witness:
    """A verified coincidence of the two graft pipelines.

    The doubled twist on the one-step side pairs with k + l = 2m on the
    two-step side; every witness stores the checked key equality."""

    m: int
    k: int
    l: int
    key: str


@dataclass(frozen=True)
class ComplexGraph:
    """vertices maps each key to its structure (vertices[k].key() == k);
    edges name their endpoints by key. The ranks are kept once computed.
    A built complex's vertex map is read-only and builds a last-level
    structure on its first read; counts, ranks and exports read keys
    only."""

    vertices: Mapping[str, Structure]
    edges: Tuple[Edge, ...]
    twist_bound: int
    depth: int
    seed_key: str
    _ranks: Optional[Dict[str, int]] = field(default=None, init=False,
                                             repr=False, compare=False)

    def cycle_rank(self) -> int:
        """First Betti number, |E| - |V| + 1; parallel edges count
        separately (BFS construction keeps the graph connected)."""
        return len(self.edges) - len(self.vertices) + 1

    def rank_by_kind(self) -> Dict[str, int]:
        """First Betti number for each edge-set choice, as a copy of the
        counts worked out on the first call."""
        if self._ranks is None:
            object.__setattr__(self, "_ranks", self._count_ranks())
        return dict(self._ranks)

    def _count_ranks(self) -> Dict[str, int]:
        """The full graph is connected by construction, so its rank is
        |E| - |V| + 1; a single-kind subgraph may be disconnected, so its
        rank counts components explicitly."""
        out = {"all": self.cycle_rank()}
        index = {k: i for i, k in enumerate(self.vertices)}
        for kind in ("graft", "elementary"):
            parent = list(range(len(index)))

            def find(i: int) -> int:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            count = 0
            for e in self.edges:
                if e.kind != kind:
                    continue
                count += 1
                a, b = find(index[e.src]), find(index[e.dst])
                if a != b:
                    parent[a] = b
            components = sum(1 for i in range(len(index)) if find(i) == i)
            out[kind] = count - len(index) + components
        return out

    def _numbered(self) -> Tuple[List[str], list]:
        """The numbering both exports share: vertex ids follow sorted
        keys, and edges are (src id, dst id, kind, chart, n) rows in
        sorted order."""
        keys = sorted(self.vertices)
        ids = {k: i for i, k in enumerate(keys)}
        return keys, sorted((ids[e.src], ids[e.dst], e.kind, e.chart, e.n)
                            for e in self.edges)

    def to_json_obj(self) -> dict:
        return json.loads(self.to_json_bytes())

    def to_json_bytes(self) -> bytes:
        """The export as json.dumps(..., sort_keys=True, separators=(",",
        ":")) spells it, written row by row: objects list their keys in
        sorted order and strings are quoted as JSON quotes them."""
        keys, edges = self._numbered()
        ranks = self.rank_by_kind()
        rows = ",".join([
            f'{{"chart":{_quote(c)},"dst":{d},"kind":{_quote(k)},"n":{n},'
            f'"src":{s}}}' for s, d, k, c, n in edges])
        vertices = ",".join([f'{{"id":{i},"key":{_quote(k)}}}'
                             for i, k in enumerate(keys)])
        return (
            f'{{"depth":{self.depth},"edges":[{rows}],'
            f'"kind":"grafting-complex","schema":1,'
            f'"seed":{_quote(self.seed_key)},"stats":{{'
            f'"cycle_rank":{self.cycle_rank()},"edges":{len(self.edges)},'
            f'"rank_by_kind":{{"all":{ranks["all"]},'
            f'"elementary":{ranks["elementary"]},"graft":{ranks["graft"]}}},'
            f'"vertices":{len(self.vertices)}}},'
            f'"twist_bound":{self.twist_bound},"vertices":[{vertices}]}}'
        ).encode("ascii")

    def to_dot(self) -> str:
        keys, edges = self._numbered()
        lines = ["graph complex {"]
        for i, k in enumerate(keys):
            digest = hashlib.sha256(k.encode()).hexdigest()[:12]
            lines.append(f'  v{i} [label="{digest}"];')
        for src, dst, kind, chart, n in edges:
            label = _label(kind, chart, n)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  v{src} -- v{dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


_STANDARD_GENUS = 2


def standard_configuration(num_charts: int = 1) -> Configuration:
    """The base setup used by the suites: a genus-2 surface, real curve
    reading (2,0) and grafting curve (1,0) in each chart."""
    names = tuple(chr(ord("a") + i) for i in range(num_charts))
    model = SurfaceModel(_STANDARD_GENUS, "rho", names)
    lam = component("lambda", {name: (2, 0) for name in names})
    gam = component("gamma", {name: (1, 0) for name in names})
    return validate_configuration(model, lam, gam)


def _grafts(config: Configuration, twist_bound: int
            ) -> List[Tuple[Tuple[str, str, int], Component]]:
    """The graft generators with their curves, built and prepared for
    the model (see surface._prepare) once per build: the untwisted
    grafting curve, then per chart its meridian twists up to the twist
    bound. config.gamma is left as it is."""
    out = [(("graft", "", 0), _prepare(config.gamma, config.model))]
    for chart in config.model.charts:
        for n in range(-twist_bound, twist_bound + 1):
            if n != 0:
                out.append((("graft", chart, n), _prepare(twist_about_meridian(
                    config.gamma, chart, n), config.model)))
    return out


Move = Tuple[Tuple[str, str, int], Identity, Optional[Admissibility]]


def _expand(config: Configuration, struct: Structure, identity: Identity,
            grafts: Sequence[Tuple[Tuple[str, str, int], Component]]
            ) -> List[Move]:
    """Every move from one structure of the given identity, as (move, the
    destination's identity, the graft decision or None for an elementary
    move); inadmissible grafts are skipped (logged at debug level)."""
    content, totals = identity
    grafted = _graft_content(content, config.gamma)
    # the meridian's crossings with the real curves, per chart
    index = config.model.chart_index
    hits = [0] * len(totals)
    for comp in struct.real_curves:
        for name, (p, _) in comp.charts:
            hits[index[name]] += abs(p) * comp.multiplicity
    out: List[Move] = []
    for i, chart in enumerate(config.model.charts):
        # An elementary move needs the meridian to cross the real curves
        # exactly twice in its chart. The twist maps the chart's total
        # (P, Q) to (P, Q + nP) and keeps every orientation.
        if hits[i] == 2:
            p, q = totals[i]
            for n in (1, -1):
                twisted = totals[:i] + ((p, q + n * p),) + totals[i + 1:]
                out.append((("elementary", chart, n), (content, twisted),
                            None))
    for desc, gamma in grafts:
        adm = is_admissible(gamma, struct)
        if adm:
            out.append((desc, (grafted, _graft_totals(adm, totals)), adm))
        elif log.isEnabledFor(logging.DEBUG):
            log.debug("skipping %s at %s: %s", desc, struct.key(),
                      adm.reason)
    return out


def _destination(struct: Structure, desc: Tuple[str, str, int],
                 adm: Optional[Admissibility]) -> Structure:
    """The structure a move of _expand lands on: the graft the decision
    describes, or for an elementary move (adm None) the meridian twist
    desc names."""
    if adm is None:
        _, chart, n = desc
        return twist_about_meridian(struct, chart, n)
    return _graft(adm)


class _Vertices(Mapping):
    """The read-only vertex map of a built graph. Each entry is a
    structure or, for a vertex nothing has read yet, the move that first
    reached it as (source structure, generator, decision). Its length,
    membership and iteration read keys only; reading a value builds a
    deferred entry once, keeps its key on it and stores it in place, so
    key order stays discovery order."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Dict[str, object]):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __getitem__(self, key: str) -> Structure:
        entry = self._entries[key]
        if isinstance(entry, tuple):
            entry = _destination(*entry)
            entry._keep(key)
            self._entries[key] = entry
        return entry


def build_complex(config: Configuration, twist_bound: int, depth: int,
                  seed: Optional[Structure] = None) -> ComplexGraph:
    """Breadth-first closure of the seed structure under the generators.

    Generators: elementary moves (where applicable) in every chart, the
    untwisted graft, and grafts of the meridian-twisted grafting curve up
    to the twist bound, per chart. Vertices deduplicate by canonical key.
    An elementary move and its inverse between the same two vertices are
    one edge; distinct generators landing on the same vertex pair stay
    parallel. The seed defaults to the configuration's base structure; a
    seed on another model raises BadConfiguration. A vertex's structure
    is built when it is expanded or read from graph.vertices, so the last
    level's structures are built only for a caller that reads them.
    """
    if twist_bound < 0 or depth < 0:
        raise BadConfiguration("twist bound and depth must be nonnegative")
    if seed is None:
        seed = config.base_structure()
    elif seed.model != config.model:
        raise BadConfiguration("the seed structure is on another surface "
                               "model than the configuration")
    grafts = _grafts(config, twist_bound)
    seed_key, seed_identity = seed.key(), seed.identity()
    entries = {seed_key: seed}
    vertices = _Vertices(entries)
    keys = {seed_identity: seed_key}  # identity -> vertex key
    edges: List[Edge] = []
    seen_elementary = set()
    # (key, identity) per vertex to expand
    frontier = [(seed_key, seed_identity)]
    for level in range(depth):
        if not frontier:
            break
        frontier.sort()  # by key: keys are distinct
        next_frontier = []
        for src_key, src_identity in frontier:
            src = vertices[src_key]
            for desc, identity, adm in _expand(config, src, src_identity,
                                               grafts):
                kind, chart, n = desc
                dst_key = keys.get(identity)
                if dst_key is None:
                    dst_key = keys[identity] = _render(identity, src.model)
                    entries[dst_key] = (src, desc, adm)
                    if level < depth - 1:  # the last level stays unexpanded
                        next_frontier.append((dst_key, identity))
                if kind == "elementary":
                    pair = (min(src_key, dst_key), max(src_key, dst_key),
                            chart)
                    if pair in seen_elementary:
                        continue
                    seen_elementary.add(pair)
                edges.append(Edge(kind, chart, n, src_key, dst_key))
        frontier = next_frontier
    return ComplexGraph(vertices, tuple(edges), twist_bound, depth,
                        seed_key)


# ---------------------------------------------------------------------------
# Witness search and the fan of standard structures


def _twist_chart(config: Configuration) -> str:
    return config.model.charts[0]


def _witnesses(config: Configuration, base: Structure, other: Structure,
               l0: int, twist_bound: int
               ) -> Iterator[Tuple[Witness, Structure]]:
    """The common-graft search behind common_grafts and witness_graph:
    each witness with the structure both pipelines reach from base and
    its l0-twisted copy other."""
    chart = _twist_chart(config)
    for m in range(-twist_bound, twist_bound + 1):
        k = 2 * m - l0
        one_step = graft_along(base, twist_about_meridian(
            config.gamma, chart, 2 * m))
        two_step = graft_along(other, twist_about_meridian(
            config.gamma, chart, k))
        if one_step.key() == two_step.key():
            yield Witness(m, k, l0, one_step.key()), one_step
        else:
            log.debug("no witness at m=%d (keys %s vs %s)", m,
                      one_step.key(), two_step.key())


def common_grafts(config: Configuration, l0: int,
                  twist_bound: int) -> List[Witness]:
    """Search the doubled-twist graft coincidences for a fixed pair.

    For every |m| <= twist_bound the curve twisted 2m times is grafted
    onto the base structure, and the curve twisted k = 2m - l0 times onto
    the l0-twisted structure; a Witness records each verified key
    equality. The twist budget splits as k + l = 2m: grafting inserts two
    leaves of the curve, so each unit of twisting on the real-curve side
    trades against two units absorbed by the doubled grafting class. The
    expected hit count is the full range of m.
    """
    base = config.base_structure()
    other = twist_about_meridian(base, _twist_chart(config), l0)
    return [w for w, _ in _witnesses(config, base, other, l0, twist_bound)]


def witness_graph(config: Configuration, l0: int,
                  twist_bound: int) -> ComplexGraph:
    """Graph form of a common-graft search for export: the two base
    structures plus every common graft, with the graft moves as edges."""
    chart = _twist_chart(config)
    base = config.base_structure()
    other = twist_about_meridian(base, chart, l0)
    vertices = {base.key(): base}
    vertices.setdefault(other.key(), other)
    edges = []
    for w, target in _witnesses(config, base, other, l0, twist_bound):
        vertices.setdefault(w.key, target)
        edges.append(Edge("graft", chart, 2 * w.m, base.key(), w.key))
        edges.append(Edge("graft", chart, w.k, other.key(), w.key))
    return ComplexGraph(vertices, tuple(edges), twist_bound, 1, base.key())


@dataclass
class FanReport:
    common_key: Optional[str]
    rows: List[Tuple[int, int, str]]  # (l, k, key)
    passed: bool


def standard_fan(config: Configuration, chart: str, fan_size: int,
                 m: int) -> FanReport:
    """Graft every structure of the fan to one target.

    For l = 0..fan_size the l-twisted structure is grafted along the
    (m - l)-twisted curve; all fan members must land on a single key.
    """
    config.model.require_chart(chart)
    base = config.base_structure()
    rows = []
    keys = set()
    for l in range(fan_size + 1):
        k = m - l
        start = twist_about_meridian(base, chart, l)
        result = graft_along(start, twist_about_meridian(
            config.gamma, chart, k))
        rows.append((l, k, result.key()))
        keys.add(result.key())
    passed = len(keys) == 1
    return FanReport(keys.pop() if passed else None, rows, passed)


# ---------------------------------------------------------------------------
# Verification suites


@dataclass
class Instance:
    desc: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    suite: str
    instances: List[Instance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.instances)

    def add(self, desc: str, ok: bool, detail: str = "") -> None:
        self.instances.append(Instance(desc, ok, detail))

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "instances": [
                {"desc": i.desc, "ok": i.ok, "detail": i.detail}
                for i in self.instances],
        }

    def lines(self) -> List[str]:
        out = []
        for i in self.instances:
            mark = "ok" if i.ok else "FAIL"
            tail = f" ({i.detail})" if (i.detail and not i.ok) else ""
            out.append(f"{mark:4} {i.desc}{tail}")
        out.append(f"suite {self.suite}: "
                   f"{'pass' if self.passed else 'FAIL'} "
                   f"({len(self.instances)} instances)")
        return out


def _suite_flatsharp(k_max: int = 10) -> Report:
    report = Report("flatsharp")
    for k in range(1, k_max + 1):
        got = resolve((0, 2 * k), (2, -2 * k), Mode.FLAT)
        report.add(f"flat (0,{2*k}) with (2,{-2*k}) -> (2,0)",
                   got == (2, 0), f"got {got}")
    return report


def _four_way(k: int) -> Tuple[TorusClass, ...]:
    lam = TorusClass(2, 0)
    two_gamma = TorusClass(2, 0)
    meridian = TorusClass(0, 1)
    e1 = dehn_twist(resolve(lam, two_gamma, Mode.SHARP), meridian, k)
    # The named modes below mirror for k < 0: the configuration is the
    # mirror image, which exchanges the two smoothings.
    m2 = Mode.SHARP if k >= 0 else Mode.FLAT
    m3 = Mode.FLAT if k >= 0 else Mode.SHARP
    e2 = resolve(lam, dehn_twist(two_gamma, meridian, 2 * k), m2)
    e3 = resolve(dehn_twist(lam, meridian, 2 * k), two_gamma, m3)
    e4 = resolve(dehn_twist(lam, meridian, k),
                 dehn_twist(two_gamma, meridian, k), Mode.SHARP)
    return e1, e2, e3, e4


def _suite_sharp_flat(k_max: int = 8) -> Report:
    report = Report("sharp_flat")
    meridian = TorusClass(0, 1)
    for k in range(-k_max, k_max + 1):
        values = _four_way(k)
        want = TorusClass(4, 4 * k)
        report.add(f"four-way identity at k={k}",
                   all(v == want for v in values),
                   f"got {values}")
        pairs = [
            (TorusClass(2, 0), TorusClass(2, 0)),
            (TorusClass(2, 0), dehn_twist((2, 0), meridian, 2 * k)),
            (dehn_twist((2, 0), meridian, 2 * k), TorusClass(2, 0)),
            (dehn_twist((2, 0), meridian, k), dehn_twist((2, 0), meridian, k)),
        ]
        ok = True
        for a, b in pairs:
            sharp_ab = resolve(a, b, Mode.SHARP)
            flat_ba = resolve(b, a, Mode.FLAT)
            if algebraic_intersection(a, b) >= 0:
                ok = ok and sharp_ab == flat_ba
            else:
                ok = ok and normalize(sharp_ab) == normalize(flat_ba)
        report.add(f"switch identity at k={k}", ok)
    return report


def _suite_dehn_twist(k_max: int = 6) -> Report:
    report = Report("dehn_twist")
    config = standard_configuration()
    chart = _twist_chart(config)
    for k in range(1, k_max + 1):
        for sign, name in ((1, "right"), (-1, "left")):
            lam_k = twist_about_meridian(config.lam, chart, sign * (k - 1))
            start = structure(config.model, [lam_k])
            gam_k = twist_about_meridian(config.gamma, chart, sign * k)
            grafted = graft_along(start, gam_k)
            reference = twist_about_curve(start, gam_k, sign)
            report.add(
                f"{name}-spiraling graft at k={k} matches the "
                f"{'inverse ' if sign < 0 else ''}twisted structure",
                grafted.key() == reference.key(),
                f"{grafted.key()} vs {reference.key()}")
    return report


def _random_even_multicurve(rng: random.Random,
                            model: SurfaceModel) -> Tuple[Component, ...]:
    n = rng.randint(1, len(model.charts))
    charts = rng.sample(list(model.charts), n)
    comps = []
    for i, chart in enumerate(charts):
        while True:
            p = rng.randint(-5, 5)
            q = rng.randint(-5, 5)
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                break
        comps.append(component(f"w{i}", {chart: (p, q)},
                               2 * rng.randint(1, 4)))
    return tuple(comps)


def _suite_goldman(trials: int = 100, seed: int = 7) -> Report:
    report = Report("goldman")
    rng = random.Random(seed)
    model = SurfaceModel(4, "rho", tuple(f"c{i}" for i in range(6)))
    for t in range(trials):
        lam = _random_even_multicurve(rng, model)
        target = canonical_key(lam, model)
        sigma = list(goldman_decompose(lam))
        rng.shuffle(sigma)
        current = structure(model, [])
        try:
            for comp in sigma:
                current = graft_along(current, comp)
            ok = current.key() == target
            detail = f"{current.key()} vs {target}"
        except NotAdmissible as exc:
            ok = False
            detail = str(exc)
        report.add(f"round trip #{t}", ok, detail)
    odd = (component("w0", {"c0": (1, 0)}, 3),)
    try:
        goldman_decompose(odd)
        report.add("odd multiplicity rejected", False, "no error raised")
    except OddMultiplicity as exc:
        report.add("odd multiplicity rejected", exc.label == "w0",
                   f"named {exc.label!r}")
    return report


def _suite_iterated(l0: int = 1, twist_bound: int = 8) -> Report:
    report = Report("iterated")
    config = standard_configuration()
    witnesses = common_grafts(config, l0, twist_bound)
    expected = 2 * twist_bound + 1
    by_m = {w.m: w for w in witnesses}
    for m in range(-twist_bound, twist_bound + 1):
        w = by_m.get(m)
        report.add(f"common graft at m={m} (k={2*m-l0}, l={l0})",
                   w is not None,
                   w.key if w else "keys differ")
    report.add(f"witness count equals full range ({expected})",
               len(witnesses) == expected, f"got {len(witnesses)}")
    return report


def _suite_two_meridian(k_max: int = 5) -> Report:
    report = Report("two_meridian")
    config = standard_configuration(num_charts=2)
    a, b = config.model.charts
    base = config.base_structure()
    for k in range(1, k_max + 1):
        for l in range(0, k):
            both = twist_about_meridian(
                twist_about_meridian(config.gamma, a, k), b, l)
            one = graft_along(base, both)
            other = graft_along(
                twist_about_meridian(base, a, k),
                twist_about_meridian(config.gamma, b, l))
            report.add(f"two-meridian keys at k={k}, l={l}",
                       one.key() == other.key(),
                       f"{one.key()} vs {other.key()}")
    return report


def _suite_oracle(sweep: int = 5) -> Report:
    """Exhaustive torus/oracle agreement over primitive classes with
    entries bounded by the sweep radius."""
    report = Report("oracle")
    prims = [(p, q) for p in range(-sweep, sweep + 1)
             for q in range(-sweep, sweep + 1)
             if gcd(abs(p), abs(q)) == 1]
    mismatches = 0
    checked = 0
    for a in prims:
        for b in prims:
            pair = grid_oracle.probe_pair(a, 1, b, 1)
            ok = (pair.forward.algebraic == algebraic_intersection(a, b)
                  and pair.forward.geometric == geometric_intersection(a, b))
            for mode in (Mode.SHARP, Mode.FLAT):
                comps = pair.resolve(mode)
                total = (sum(c.p for c in comps), sum(c.q for c in comps))
                ok = ok and TorusClass(*total) == resolve(a, b, mode)
            checked += 1
            if not ok:
                mismatches += 1
                report.add(f"oracle agreement for {a} vs {b}", False)
    report.add(f"oracle agreement on {checked} primitive pairs "
               f"(radius {sweep})", mismatches == 0,
               f"{mismatches} mismatches")
    return report


_SUITES: Dict[str, Callable[..., Report]] = {
    "flatsharp": _suite_flatsharp,
    "sharp_flat": _suite_sharp_flat,
    "dehn_twist": _suite_dehn_twist,
    "goldman": _suite_goldman,
    "iterated": _suite_iterated,
    "two_meridian": _suite_two_meridian,
    "oracle": _suite_oracle,
}


def suite_names() -> Tuple[str, ...]:
    return tuple(sorted(_SUITES))


def _suite(name: str) -> Callable[..., Report]:
    try:
        return _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           f"{', '.join(suite_names())}") from None


def suite_parameters(name: str) -> set:
    """Names of the range parameters the given suite accepts."""
    return set(inspect.signature(_suite(name)).parameters)


def verify_suite(name: str, **params) -> Report:
    """Run one named identity sweep and return its report.

    Unknown names raise UnknownSuite; parameters not taken by the chosen
    suite raise TypeError (surfaced by the CLI as an input error).
    """
    return _suite(name)(**params)
