"""Enumeration of the structure graph, the frozen graph type and its exports.

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
import sys
from collections import namedtuple
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import BadConfiguration
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
    _render,
    component,
    is_admissible,
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


class ComplexGraph(_Frozen):
    """vertices maps each key to its structure (vertices[k].key() == k),
    keys in discovery order; edges is the read-only edge list, kept as
    integer rows whose vertex ids follow that order (see _Edges), and
    reads as Edges that name their endpoints by key. The ranks, not a
    field, are kept once computed. The vertex map is read-only and builds
    a last-level structure on its first read; counts, ranks and exports
    read keys and rows only. Given any other mapping, the graph keeps a
    read-only copy of it, and given any other sequence of Edges, keeps
    them as such rows, its generator table the edges' (kind, chart, n) in
    first use order."""

    _fields = ("vertices", "edges", "twist_bound", "depth", "seed_key")
    _ranks: Optional[Dict[str, int]] = None

    def __init__(self, vertices: Mapping[str, Structure],
                 edges: Sequence[Edge], twist_bound: int, depth: int,
                 seed_key: str):
        if not isinstance(vertices, _Vertices):
            vertices = _Vertices(dict(vertices))
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
