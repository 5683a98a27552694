"""Enumeration of the structure graph and the identity verification suites.

The graph's vertices map each canonical structure key to the first
structure found with it; edges are graft moves and elementary moves
(meridian twists where the meridian meets the real curves exactly
twice). The breadth-first closure under a bounded generator family is
deterministic for fixed inputs: one serial loop expands the frontier in
key order and merges each structure's moves as it goes, and both exports
number the vertices in key order, so repeated builds are byte-identical.
A build twists each generator's curve and works out its positions once
(see _grafts), at depth 0 only the untwisted one's, and groups them by
chart into twist families, the untwisted curve leading the first
chart's. It expands one vertex per orbit of the build's symmetries (see
_symmetries: chart permutations and the reflection q -> -q that fix the
seed and the grafting curve, found only for the base seed): the first of
an orbit it meets is expanded, and a later one maps its moves, in
generator order, so every row and recipe is a full expansion's; with
debug logging on, a build finds no symmetries and expands every vertex.
An expansion decides each graft once, a family in one pass
(surface._decide_family, which hands is_admissible only the curves its
shared decision does not cover). Every generator is a meridian twist of
the grafting curve and shares its content, so the grafted content is
worked out once per expansion. Only _expand identifies a move's
destination, by arithmetic, in two groups (content, [(generator index,
destination totals), ...]), the meridian twists, then the grafts. A
representative keeps its moves by destination id once registered, and a
mapped vertex gets the same groups by those ids, which its symmetry
(composed once per build, see _orbit) maps to its own through a dict it
fills on first use. One loop registers both kinds, reading a generator's
descriptor and curve from the build's table by index; the search keeps
vertex ids per content, then per totals, so it looks up one table per
group and each move by its totals, or a mapped one by id, alone. _expand
alone logs a refused graft (see build_complex). A new identity's key is
that identity rendered, and the vertex map records the move that first
reached it: its source's key, the generator and its curve. Its structure
is built once, from one decision, when the BFS expands it or an expanded
vertex's recipe needs it or a caller reads it, so an edge to a vertex
already seen builds nothing, not even a decision, a mapped vertex's and
the last level's structures are built only on request, and no key is
worked out from curves but the seed's.
The frontier carries each vertex's key and the identity it was looked
up by, so no identity is derived from curves but the seed's either; the
structures themselves keep only their curves and keys. Each edge is an
integer row (source id, destination id, generator index): ids follow
discovery order, and the build's generator table lists the elementary
moves, then _grafts' generators. graph.edges reads a row as an Edge
only when asked. Counts, ranks and both exports read keys and rows
only. The graph keeps its ranks once computed, and each export sorts
one integer per row (see _numbered) and writes the JSON in one pass,
byte for byte what json.dumps with sorted keys gives.
"""

from __future__ import annotations

import json
import random
import sys
from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import BadConfiguration, NotAdmissible, OddMultiplicity, \
    UnknownSuite
from .torus import Mode, TorusClass, algebraic_intersection, dehn_twist, \
    geometric_intersection, normalize, resolve
from . import grid_oracle
from .surface import (
    Component,
    Configuration,
    Structure,
    SurfaceModel,
    _Frozen,
    _by_position,
    _decide_family,
    _doubled,
    _graft,
    _graft_content,
    _identity_of,
    _render,
    component,
    goldman_decompose,
    graft_along,
    is_admissible,
    structure,
    twist_about_curve,
    twist_about_meridian,
    validate_configuration,
)


def _debug_log():
    """The "graftkit" logger if it logs at debug level, else None. A
    program that never imported logging cannot have turned that on, so
    the library does not import it either."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("graftkit")
    return log if log.isEnabledFor(logging.DEBUG) else None


class Edge(namedtuple("Edge", "kind chart n src dst")):
    """One move: kind is "graft" or "elementary"; chart names the twisting
    chart ("" for the untwisted graft); n is the twist power, an int; src
    and dst are the endpoints' keys. All but n are strs."""

    __slots__ = ()


def _label(kind: str, chart: str, n: int) -> str:
    """An edge's DOT label."""
    if kind == "elementary":
        return f"elem {chart} {'+' if n > 0 else ''}{n}"
    if n == 0:
        return "graft"
    return f"graft T^{n}@{chart}"


class Witness(namedtuple("Witness", "m k l key")):
    """A verified coincidence of the two graft pipelines.

    The doubled twist on the one-step side pairs with k + l = 2m (ints)
    on the two-step side; every witness stores the checked key equality
    (key, a str)."""

    __slots__ = ()


class ComplexGraph(_Frozen):
    """vertices maps each key to its structure (vertices[k].key() == k),
    keys in discovery order; edges is the read-only edge list, kept as
    integer rows whose vertex ids follow that order (see _Edges), and
    reads as Edges that name their endpoints by key. The ranks, not a
    field, are kept once computed. The vertex map is read-only and builds
    a last-level structure on its first read; counts, ranks and exports
    read keys and rows only. Given any other sequence of Edges, the graph
    keeps them as such rows, its generator table the edges' (kind, chart,
    n) in first use order."""

    _fields = ("vertices", "edges", "twist_bound", "depth", "seed_key")
    _ranks: Optional[Dict[str, int]] = None

    def __init__(self, vertices: Mapping[str, Structure],
                 edges: Sequence[Edge], twist_bound: int, depth: int,
                 seed_key: str):
        if not isinstance(edges, _Edges):
            ids = {key: i for i, key in enumerate(vertices)}
            table: Dict[tuple, int] = {}  # (kind, chart, n) -> index
            rows = [(ids[src], ids[dst],
                     table.setdefault((kind, chart, n), len(table)))
                    for kind, chart, n, src, dst in edges]
            edges = _Edges(rows, list(table), vertices)
        self.__dict__.update(vertices=vertices, edges=edges,
                             twist_bound=twist_bound, depth=depth,
                             seed_key=seed_key)

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
        rank is its edge count less the unions a union-find over the
        vertex ids makes (|V| less its components)."""
        out = {"all": self.cycle_rank()}
        for kind in ("graft", "elementary"):
            ours = [desc[0] == kind for desc in self.edges._generators]
            parent = list(range(len(self.vertices)))
            count = unions = 0
            for a, b, g in self.edges._rows:
                if ours[g]:
                    count += 1
                    # each endpoint's root, halving the path on the way
                    while parent[a] != a:
                        parent[a] = a = parent[parent[a]]
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                    if a != b:
                        parent[a] = b
                        unions += 1
            out[kind] = count - unions
        return out

    def _numbered(self) -> Tuple[List[str], list, List[int]]:
        """The numbering both exports share: the keys sorted, the
        generators sorted, and each edge as one integer (src * |V| + dst)
        * |G| + g, src and dst its endpoints' positions among the sorted
        keys and g its generator's among the sorted generators, the
        integers sorted. So they list the (src, dst, kind, chart, n) rows
        in sorted order."""
        keys, ids = _sorted_ranks(list(self.vertices))
        generators, ranks = _sorted_ranks(self.edges._generators)
        width = len(generators)
        stride = len(keys) * width
        return keys, generators, sorted([
            ids[src] * stride + ids[dst] * width + ranks[g]
            for src, dst, g in self.edges._rows])

    def to_json_obj(self) -> dict:
        return json.loads(self.to_json_bytes())

    def to_json_bytes(self) -> bytes:
        """The export as json.dumps(..., sort_keys=True, separators=(",",
        ":")) spells it, written row by row: objects list their keys in
        sorted order and strings are quoted as JSON quotes them, once per
        generator."""
        keys, generators, edges = self._numbered()
        width, n = len(generators), len(keys)
        heads = [f'{{"chart":{_quote(c)},"dst":' for _, c, _ in generators]
        tails = [f',"kind":{_quote(k)},"n":{t},"src":'
                 for k, _, t in generators]
        rows = ",".join([
            f"{heads[e % width]}{e // width % n}{tails[e % width]}"
            f"{e // width // n}}}" for e in edges])
        del edges, heads, tails  # not held while the document is built
        ranks = self.rank_by_kind()
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
        import hashlib  # only the DOT export uses it

        keys, generators, edges = self._numbered()
        width, n = len(generators), len(keys)
        labels = [_label(*desc).replace("\\", "\\\\").replace('"', '\\"')
                  for desc in generators]
        lines = ["graph complex {"]
        for i, k in enumerate(keys):
            digest = hashlib.sha256(k.encode()).hexdigest()[:12]
            lines.append(f'  v{i} [label="{digest}"];')
        lines += [f'  v{e // width // n} -- v{e // width % n} '
                  f'[label="{labels[e % width]}"];' for e in edges]
        del edges  # not held while the document is joined
        lines.append("}\n")
        return "\n".join(lines)


def _sorted_ranks(items: list) -> Tuple[list, List[int]]:
    """The items sorted, and by index each item's position there: the
    sorting permutation's inverse, filled in one pass over it."""
    order = sorted(range(len(items)), key=items.__getitem__)
    ranks = [0] * len(order)
    for position, i in enumerate(order):
        ranks[i] = position
    return [items[i] for i in order], ranks


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
            ) -> List[Tuple[str, range, list, list]]:
    """The graft generators by twist family, as (chart, generator
    indices, generators, family), the family listing each generator's
    curve with its classes by chart position and doubled for the model
    (see surface._by_position and surface._doubled), all worked out once
    per build: per chart the grafting curve's meridian twists up to the
    twist bound, the first chart's led by the untwisted curve, its zero
    twist. A chart with no generators is left out. The indices number
    the generators in this order after the two elementary moves per
    chart, as build_complex's generator table lists them."""
    model, gamma = config.model, config.gamma
    twists = [n for n in range(-twist_bound, twist_bound + 1) if n]
    out = []
    start = 2 * len(model.charts)
    for chart in model.charts:
        descs = [("graft", chart, n) for n in twists]
        curves = [twist_about_meridian(gamma, chart, n) for n in twists]
        if not out:
            descs.insert(0, ("graft", "", 0))
            curves.insert(0, gamma)
        if curves:
            family = []
            for curve in curves:
                given = _by_position(curve, model)
                family.append((curve, given, _doubled(curve, given, model)))
            out.append((chart, range(start, start + len(curves)), descs,
                        family))
            start += len(curves)
    return out


def _expand(config: Configuration, struct: Structure, identity: tuple,
            grafts: Sequence[Tuple[str, range, list, list]]) -> tuple:
    """Every move from one structure of the given identity, in two
    groups (content, [(generator index g, the destination's totals),
    ...]): the elementary moves, which keep the content, then the grafts,
    with the content every graft gives, in the order of _grafts (see
    there for g). Each twist family is decided in one pass
    (surface._decide_family) from the positions its entry keeps.
    Inadmissible grafts are skipped and logged at debug level, here
    alone in the package."""
    content, totals = identity
    # the meridian's crossings with the real curves, per chart
    index = config.model.chart_index
    hits = [0] * len(totals)
    for comp in struct.real_curves:
        for name, (p, _) in comp.charts:
            hits[index[name]] += abs(p) * comp.multiplicity
    elementary = []
    for i, hit in enumerate(hits):
        # An elementary move needs the meridian to cross the real curves
        # exactly twice in its chart. The twist maps the chart's total
        # (P, Q) to (P, Q + nP) and keeps every orientation; its
        # generators are 2i (n = 1) and 2i + 1 (n = -1).
        if hit == 2:
            p, q = totals[i]
            before, after = totals[:i], totals[i + 1:]
            elementary.append((2 * i, before + ((p, q + p),) + after))
            elementary.append((2 * i + 1, before + ((p, q - p),) + after))
    moves = []
    for chart, gens, descs, family in grafts:
        for g, desc, dst in zip(gens, descs, _decide_family(
                struct, totals, chart, family)):
            if type(dst) is tuple:
                moves.append((g, dst))
            elif (log := _debug_log()) is not None:
                log.debug("skipping %s at %s: %s", desc, struct.key(), dst)
    return ((content, elementary),
            (_graft_content(content, config.gamma), moves))


def _destination(struct: Structure, desc: Tuple[str, str, int],
                 curve: Optional[Component]) -> Structure:
    """The structure a move of _expand lands on: the graft along the
    curve, decided once more, or for an elementary move (curve None) the
    meridian twist desc names."""
    if curve is None:
        _, chart, n = desc
        return twist_about_meridian(struct, chart, n)
    return _graft(is_admissible(curve, struct))


def _symmetries(config: Configuration, seed: Structure,
                generators: Sequence[Tuple[str, str, int]]) -> list:
    """Generators of the group of symmetries a build maps moves by: the
    elements (sigma, s) of S_c x Z/2 that fix the seed and config.gamma,
    sigma moving chart position i to sigma(i) and s = +-1 reflecting each
    class (p, q) to (p, s*q). An element is given as (sources, s, index
    map): the image of an identity's totals T has s*T[sources[j]] at
    position j, so sources lists sigma's inverse, which for each of these
    generators, an involution, is sigma itself; the index map takes the
    generator table's (kind, chart, n) to (kind, sigma(chart), s*n), the
    untwisted graft ("", 0) fixed. There are none, so the identity alone,
    unless the seed is config.lam as it stands and every chart class of
    lam and gamma has p > 0.

    Under that gate the map is exact. Every component the build reaches
    has p > 0 in every chart it enters: meridian twists keep p; a
    disjoint graft adds twists of gamma; a crossed chart's total has
    p > 0, so _spiral_sign reads the sign of its pairing with the doubled
    curve, and the FLAT or SHARP choice that sign makes always takes the
    plain sum in torus.resolve, as a chart nothing crosses does. So
    _orientation is +1 on every component, before and after the map,
    which therefore acts on an identity by permuting its totals by sigma
    and negating q where s = -1, commutes with every move up to the
    generators' relabelling (the crossing and strand tests read no sign,
    and the spiral sign turns with s), and fixes the seed: it maps the
    graph onto itself. On the base seed the key determines a vertex's
    moves (tests.test_complex.TestKeyCongruence checks it), so a
    vertex's moves are those of any vertex it is the image of, mapped.

    A chart's colour is its pair of classes, lam's and gamma's. The
    group is the product of the symmetric groups on the charts of one
    colour, generated by swaps of neighbours, times the reflection, if
    one exists, that maps each colour's charts in order onto those of
    the mirrored colour. A build traces orbits by these generators (see
    _orbit), never listing the group, which has 2*c! elements for a
    standard configuration of c charts."""
    lam, gamma, charts = config.lam, config.gamma, config.model.charts
    classes = [cls for _, cls in lam.charts + gamma.charts]
    if seed.real_curves != (lam,) or any(p <= 0 for p, _ in classes):
        return []
    by_colour: Dict[tuple, List[int]] = {}
    for i, name in enumerate(charts):
        colour = (lam.chart_class(name), gamma.chart_class(name))
        by_colour.setdefault(colour, []).append(i)
    index = {desc: g for g, desc in enumerate(generators)}
    position = config.model.chart_index

    def element(sigma: List[int], sign: int) -> tuple:
        # each generator is an involution, so sigma is its own inverse
        return tuple(sigma), sign, [
            index[kind, chart and charts[sigma[position[chart]]], sign * n]
            for kind, chart, n in generators]

    group = []
    for positions in by_colour.values():
        for i, j in zip(positions, positions[1:]):
            sigma = list(range(len(charts)))
            sigma[i], sigma[j] = j, i
            group.append(element(sigma, 1))
    sigma = list(range(len(charts)))
    for ((lp, lq), (gp, gq)), positions in by_colour.items():
        mirror = by_colour.get(((lp, -lq), (gp, -gq)), ())
        if len(mirror) != len(positions):
            return group
        for i, j in zip(positions, mirror):
            sigma[i] = j
    group.append(element(sigma, -1))
    return group


def _image(totals: tuple, sources: tuple, sign: int) -> tuple:
    """An identity's totals under a symmetry (see _symmetries)."""
    if sign > 0:
        return tuple([totals[j] for j in sources])
    return tuple([(totals[j][0], -totals[j][1]) for j in sources])


def _orbit(totals: tuple, group: list, elements: dict) -> dict:
    """The other images of the totals under the group, each with an
    element that maps the totals onto it, as (sources, sign, index map,
    known): the first three as _symmetries gives an element, known a
    dict from a representative's destination id to its image's id. A
    search over the images by the group's generators, so it costs per
    image, not per element. The elements dict, which lives as long as
    the build, keeps each element composed once under (sources, sign),
    and every orbit entry for that element shares it."""
    orbit = {totals: (range(len(totals)), 1, range(len(group[0][2])), None)}
    todo = [totals]
    for now in todo:
        sources, sign, moved, _ = orbit[now]
        for by, turn, relabel in group:
            image = _image(now, by, turn)
            if image not in orbit:
                key = (tuple([sources[j] for j in by]), sign * turn)
                element = elements.get(key)
                if element is None:
                    element = elements[key] = (
                        *key, [relabel[g] for g in moved], {})
                orbit[image] = element
                todo.append(image)
    del orbit[totals]
    return orbit


class _Edges(Sequence):
    """The read-only edge list of a built graph, kept as integer rows
    (source id, destination id, index into the (kind, chart, n)
    generator table), ids in the vertex map's key order. Reading an entry
    builds its Edge, a slice reads as a tuple of them, and the list
    equals the tuple of Edges it reads as."""

    __slots__ = ("_rows", "_generators", "_vertices", "_keys")

    def __init__(self, rows: List[Tuple[int, int, int]],
                 generators: List[Tuple[str, str, int]],
                 vertices: Mapping[str, Structure]):
        self._rows = rows
        self._generators = generators
        self._vertices = vertices
        self._keys: Optional[List[str]] = None  # by id, once read

    def _read(self, rows) -> Iterator[Edge]:
        if self._keys is None:
            self._keys = list(self._vertices)
        keys, generators = self._keys, self._generators
        for src, dst, g in rows:
            yield Edge(*generators[g], keys[src], keys[dst])

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Edge]:
        return self._read(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._read(self._rows[index]))
        return next(self._read((self._rows[index],)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Edges)):
            return NotImplemented
        return tuple(self) == tuple(other)


class _Vertices(Mapping):
    """The read-only vertex map of a built graph. Each entry is a
    structure or, for a vertex nothing has read yet, the move that first
    reached it as (source key, generator, its curve or None). Its
    length, membership and iteration read keys only; reading a value
    builds a deferred entry once, its source first if that is deferred
    too, keeps its key on it and stores it in place, so key order stays
    discovery order."""

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
        entries = self._entries
        entry = entries[key]
        if not isinstance(entry, tuple):
            return entry
        chain = [key]  # the deferred sources, walked back to a built one
        while isinstance(entries[entry[0]], tuple):
            chain.append(entry[0])
            entry = entries[entry[0]]
        for key in reversed(chain):
            source, desc, curve = entries[key]
            entry = _destination(entries[source], desc, curve)
            entry._keep(key)
            entries[key] = entry
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
    seed on another model raises BadConfiguration.

    The BFS expands one vertex per orbit of the build's symmetries (see
    _symmetries): the first of an orbit it meets is expanded, and its
    moves, as (generator index, destination id) once registered, are
    kept under each other image of its identity with the element that
    maps onto it (see _orbit). A later vertex of the orbit maps them
    instead, in _expand's groups and generator order: it reads each
    destination's image id from the element's dict, and only on a miss
    maps the destination's totals (kept by id) and looks them up, then
    stores the id. So a repeated image costs one dict lookup, and rows,
    key order, recipes and first-reach order are a full expansion's.
    With no symmetries every vertex is expanded, and a build with debug
    logging on finds none, so _expand logs every vertex's skips. A
    vertex's structure is built when it is expanded, or an expanded
    vertex's recipe needs it, or it is read from graph.vertices, so a
    mapped vertex's and the last level's structures are built only on
    request.
    """
    if twist_bound < 0 or depth < 0:
        raise BadConfiguration("twist bound and depth must be nonnegative")
    if seed is None:
        seed = config.base_structure()
    elif seed.model != config.model:
        raise BadConfiguration("the seed structure is on another surface "
                               "model than the configuration")
    model = config.model
    grafts = _grafts(config, twist_bound if depth else 0)
    generators = [("elementary", chart, n) for chart in model.charts
                  for n in (1, -1)]
    elementary = len(generators)
    curves: List[Optional[Component]] = [None] * elementary
    generators += [desc for _, _, descs, _ in grafts for desc in descs]
    curves += [curve for *_, family in grafts for curve, _, _ in family]
    # with debug logging on every vertex is expanded, for _expand to log
    # each skip
    group = _symmetries(config, seed, generators) \
        if _debug_log() is None else []
    elements: Dict[tuple, tuple] = {}  # (sources, sign) -> element
    # identity -> (an element onto it, its representative's moves by id)
    mapped: Dict[tuple, tuple] = {}
    seed_key, seed_identity = seed.key(), seed.identity()
    entries = {seed_key: seed}
    vertices = _Vertices(entries)
    # content -> {totals -> vertex id}, ids in discovery order
    ids = {seed_identity[0]: {seed_identity[1]: 0}}
    totals_by_id = [seed_identity[1]]
    labels: Dict[tuple, str] = {}  # content -> its rendered key labels
    rows = []
    seen_elementary = set()
    # (key, id, identity) per vertex to expand
    frontier = [(seed_key, 0, seed_identity)]
    for level in range(depth):
        if not frontier:
            break
        frontier.sort()  # by key: keys are distinct
        next_frontier = []
        for src_key, src, src_identity in frontier:
            found = mapped.pop(src_identity, None)
            if found is None:  # moves by destination totals
                groups = _expand(config, vertices[src_key], src_identity,
                                 grafts)
                known = None
            else:  # moves by the representative's destination ids
                (sources, sign, relabel, known), theirs = found
                groups = [(content, sorted([(relabel[g], d)
                                            for g, d in moves]))
                          for content, moves in theirs]
            # a representative's moves by id, for the rest of its orbit
            kept = [] if known is None and group else None
            for content, moves in groups:
                table = ids.setdefault(content, {})
                lookup = table if known is None else known
                if kept is not None:
                    keep = []
                    kept.append((content, keep))
                for g, move in moves:
                    dst = lookup.get(move)
                    if dst is None:
                        totals = move if known is None else \
                            _image(totals_by_id[move], sources, sign)
                        dst = table.get(totals)
                        if dst is None:  # a new vertex, reached first by g
                            dst = table[totals] = len(entries)
                            totals_by_id.append(totals)
                            identity = (content, totals)
                            dst_key = _render(identity, model, labels)
                            entries[dst_key] = (src_key, generators[g],
                                                curves[g])
                            if level < depth - 1:  # the last level unexpanded
                                next_frontier.append((dst_key, dst, identity))
                        lookup[move] = dst  # for a mapped move, its image
                    if kept is not None:
                        keep.append((g, dst))
                    if g < elementary:
                        # a move and its inverse share the position g >> 1
                        pair = (min(src, dst), max(src, dst), g >> 1)
                        if pair in seen_elementary:
                            continue
                        seen_elementary.add(pair)
                    rows.append((src, dst, g))
            if kept is not None:
                for image, element in _orbit(src_identity[1], group,
                                             elements).items():
                    mapped[src_identity[0], image] = element, kept
        frontier = next_frontier
    return ComplexGraph(vertices, _Edges(rows, generators, vertices),
                        twist_bound, depth, seed_key)


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
        elif (log := _debug_log()) is not None:
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
    entries, ids, generators, rows = {}, {}, [], []

    def vertex(struct: Structure) -> int:
        entries.setdefault(struct.key(), struct)
        return ids.setdefault(struct.key(), len(ids))

    one, two = vertex(base), vertex(other)
    for w, target in _witnesses(config, base, other, l0, twist_bound):
        dst = vertex(target)
        # one generator per edge: the twists differ from edge to edge
        for src, n in ((one, 2 * w.m), (two, w.k)):
            rows.append((src, dst, len(generators)))
            generators.append(("graft", chart, n))
    vertices = _Vertices(entries)
    return ComplexGraph(vertices, _Edges(rows, generators, vertices),
                        twist_bound, 1, base.key())


class FanReport:
    """What standard_fan found: the one key every member lands on (None
    if they differ) and one (l, k, key) row per member."""

    __slots__ = ("common_key", "rows")

    def __init__(self, common_key: Optional[str],
                 rows: List[Tuple[int, int, str]]):
        self.common_key = common_key
        self.rows = rows

    @property
    def passed(self) -> bool:
        return self.common_key is not None


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
    return FanReport(keys.pop() if len(keys) == 1 else None, rows)


# ---------------------------------------------------------------------------
# Verification suites


class Instance:
    """One checked case of a suite, with what was found when it fails."""

    __slots__ = ("desc", "ok", "detail")

    def __init__(self, desc: str, ok: bool, detail: str = ""):
        self.desc = desc
        self.ok = ok
        self.detail = detail

    def __repr__(self) -> str:
        return f"Instance({self.desc!r}, {self.ok!r}, {self.detail!r})"


class Report:
    """A suite's checked cases, in the order they ran."""

    __slots__ = ("suite", "instances")

    def __init__(self, suite: str):
        self.suite = suite
        self.instances: List[Instance] = []

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


def _require_checks(suite: str, name: str, value: int,
                    least: int = 1) -> None:
    """Refuse a range at which a suite would check nothing: a value
    below least, the smallest at which it checks a case."""
    if value < least:
        raise ValueError(f"suite {suite!r} checks nothing at {name}={value}")


def _suite_flatsharp(k_max: int = 10) -> Report:
    _require_checks("flatsharp", "k_max", k_max)
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
    _require_checks("sharp_flat", "k_max", k_max, 0)
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
    _require_checks("dehn_twist", "k_max", k_max)
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
    """Components on distinct charts, each a primitive class with entries
    in [-5, 5] and an even multiplicity up to 8. The entries and the half
    multiplicity are drawn from rng.getrandbits as CPython 3.11's
    rng.randint(-5, 5) and rng.randint(1, 4) draw them, so from the same
    stream: a range of width w takes w.bit_length() bits, drawn again
    while at or above w."""
    n = rng.randint(1, len(model.charts))
    charts = rng.sample(list(model.charts), n)
    draw = rng.getrandbits
    comps = []
    for i, chart in enumerate(charts):
        while True:
            p = draw(4)
            while p >= 11:
                p = draw(4)
            q = draw(4)
            while q >= 11:
                q = draw(4)
            p, q = p - 5, q - 5
            if gcd(p, q) == 1:  # so not (0, 0)
                break
        half = draw(3)
        while half >= 4:
            half = draw(3)
        comps.append(Component(((f"w{i}", 1),), ((chart, TorusClass(p, q)),),
                               2 * half + 2))
    return tuple(comps)


def _suite_goldman(trials: int = 100, seed: int = 7) -> Report:
    report = Report("goldman")
    rng = random.Random(seed)
    model = SurfaceModel(4, "rho", tuple(f"c{i}" for i in range(6)))
    empty = structure(model, [])  # a value: every trial starts from it
    for t in range(trials):
        lam = _random_even_multicurve(rng, model)
        # the key renders the identity one to one, so the identities
        # decide, and the result's key is rendered only to report a miss
        want = _identity_of(lam, model)
        target = _render(want, model)
        sigma = list(goldman_decompose(lam))
        rng.shuffle(sigma)
        current = empty
        try:
            for comp in sigma:
                current = graft_along(current, comp)
            ok = current.identity() == want
            detail = f"{target if ok else current.key()} vs {target}"
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
    _require_checks("iterated", "twist_bound", twist_bound, 0)
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
    _require_checks("two_meridian", "k_max", k_max)
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
    _require_checks("oracle", "sweep", sweep)
    report = Report("oracle")
    prims = [(p, q) for p in range(-sweep, sweep + 1)
             for q in range(-sweep, sweep + 1)
             if gcd(abs(p), abs(q)) == 1]
    mismatches = 0
    modes = (Mode.SHARP, Mode.FLAT)
    probes = grid_oracle.probe_pairs(
        (a, 1, b, 1) for a, b in product(prims, repeat=2))
    for (a, b), pair in zip(product(prims, repeat=2), probes):
        forward = pair.forward
        ok = (forward.algebraic == algebraic_intersection(a, b)
              and forward.geometric == geometric_intersection(a, b))
        for mode, comps in zip(modes, pair.smoothings()):
            p = q = 0
            for c in comps:
                p += c[0]
                q += c[1]
            ok = ok and (p, q) == resolve(a, b, mode)
        if not ok:
            mismatches += 1
            report.add(f"oracle agreement for {a} vs {b}", False)
    report.add(f"oracle agreement on {len(prims) ** 2} primitive pairs "
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
    import inspect  # only an error path reads a signature
    return set(inspect.signature(_suite(name)).parameters)


def verify_suite(name: str, **params) -> Report:
    """Run one named identity sweep and return its report.

    Unknown names raise UnknownSuite. Parameters not taken by the chosen
    suite, which fail to bind before any of it runs (so only a TypeError
    is checked for them), and a range at which it checks nothing raise
    ValueError. The CLI reports all of these as input errors.
    """
    suite = _suite(name)
    try:
        return suite(**params)
    except TypeError:
        rejected = sorted(set(params) - suite_parameters(name))
        if not rejected:
            raise
    raise ValueError(f"suite {name!r} does not take: "
                     f"{', '.join(rejected)}")
