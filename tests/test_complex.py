"""Graph enumeration, witness search, fan collapse, and named suites."""

import hashlib
import json
import logging
import random
import re
import sys
from collections import Counter
from itertools import permutations
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graftkit import (
    BadConfiguration,
    Component,
    FanReport,
    NotAdmissible,
    UnknownChart,
    complex_graph,
    surface,
    UnknownSuite,
    build_complex,
    canonical_key,
    cli,
    common_grafts,
    standard_configuration,
    standard_fan,
    suite_names,
    suites,
    verify_suite,
    witness_graph,
)


class TestBuildComplex:
    def test_depth_zero_single_vertex(self):
        graph = build_complex(standard_configuration(), 3, 0)
        assert len(graph.vertices) == 1
        assert len(graph.edges) == 0
        assert graph.cycle_rank() == 0

    def test_depth_one_untwisted_generators(self):
        # twist bound 0 leaves the untwisted graft plus two elementary
        # neighbors
        graph = build_complex(standard_configuration(), 0, 1)
        assert len(graph.vertices) == 4
        assert len(graph.edges) == 3
        kinds = sorted(e.kind for e in graph.edges)
        assert kinds == ["elementary", "elementary", "graft"]

    def test_every_vertex_reachable(self):
        graph = build_complex(standard_configuration(), 2, 2)
        adjacency = {key: set() for key in graph.vertices}
        for e in graph.edges:
            adjacency[e.src].add(e.dst)
            adjacency[e.dst].add(e.src)
        seen = {graph.seed_key}
        stack = [graph.seed_key]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen == set(adjacency)

    def test_elementary_inverse_edges_deduplicated(self):
        graph = build_complex(standard_configuration(), 1, 2)
        pairs = {}
        for e in graph.edges:
            if e.kind != "elementary":
                continue
            key = (min(e.src, e.dst), max(e.src, e.dst), e.chart)
            pairs[key] = pairs.get(key, 0) + 1
        assert pairs and all(count == 1 for count in pairs.values())

    def test_negative_bounds_rejected(self):
        config = standard_configuration()
        with pytest.raises(BadConfiguration):
            build_complex(config, -1, 2)
        with pytest.raises(BadConfiguration):
            build_complex(config, 2, -1)

    def test_gamma_chart_outside_the_model_rejected(self):
        # validation reads only the model's charts; the build checks the
        # curve when it prepares the generators, even at depth 0, where it
        # prepares the untwisted curve alone
        config = standard_configuration()
        gamma = surface.component("g", {"a": (1, 0), "zz": (1, 3)})
        config = surface.validate_configuration(config.model, config.lam,
                                                gamma)
        for depth in (0, 1):
            with pytest.raises(UnknownChart, match="'zz'"):
                build_complex(config, 1, depth)

    @pytest.mark.parametrize("charts", [("x",), ("a", "b")])
    def test_seed_on_another_model_rejected(self, charts):
        model = surface.SurfaceModel(2, "rho", charts)
        seed = surface.structure(model, [surface.component(
            "lambda", {name: (2, 0) for name in charts})])
        with pytest.raises(BadConfiguration, match="another surface model"):
            build_complex(standard_configuration(1), 1, 1, seed=seed)

    def test_rank_monotone_in_twist_bound(self):
        config = standard_configuration()
        ranks = [build_complex(config, m, 2).cycle_rank()
                 for m in range(1, 5)]
        assert all(b > a for a, b in zip(ranks, ranks[1:]))

    def test_rank_monotone_in_depth(self):
        config = standard_configuration()
        ranks = [build_complex(config, 2, d).cycle_rank()
                 for d in range(4)]
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_rank_by_kind_consistent(self):
        graph = build_complex(standard_configuration(), 3, 2)
        ranks = graph.rank_by_kind()
        assert ranks["all"] == graph.cycle_rank()
        assert 0 <= ranks["graft"] <= ranks["all"]
        assert 0 <= ranks["elementary"] <= ranks["all"]


def _levels(graph):
    """Each vertex's BFS level: its move distance from the seed."""
    out = {graph.seed_key: 0}
    frontier = [graph.seed_key]
    while frontier:
        step = {e.dst for e in graph.edges if e.src in frontier} - set(out)
        out.update((key, out[frontier[0]] + 1) for key in step)
        frontier = sorted(step)
    return out


def _images(config, key) -> dict:
    """The key under each element (sigma, s) of S_c x Z/2, worked out
    from its JSON: chart position i's total (p, q) moves to position
    sigma(i) as (p, s*q)."""
    charts = config.model.charts
    data = json.loads(key)
    totals = [data["charts"][name] for name in charts]
    out = {}
    for sigma in permutations(range(len(charts))):
        for sign in (1, -1):
            moved = {charts[sigma[i]]: [p, sign * q]
                     for i, (p, q) in enumerate(totals)}
            out[sigma, sign] = json.dumps(
                {"charts": moved, "content": data["content"]},
                sort_keys=True, separators=(",", ":"))
    return out


def _expanded(config, graph) -> list:
    """The keys a build of a standard configuration expands, in order:
    per level below the depth, in key order, each vertex no earlier one
    maps onto under S_c x Z/2, all of which fixes the build. That is one
    per orbit the build meets."""
    levels = _levels(graph)
    covered, out = set(), []
    for level in range(graph.depth):
        for key in sorted(k for k, at in levels.items() if at == level):
            if key not in covered:
                out.append(key)
                covered.update(_images(config, key).values())
    return out


def _needed(graph, keys) -> set:
    """The vertices other than the seed whose structures a build makes
    to expand the given ones: each, and back to the seed each source of
    the edge that first reached one, the recipe it is built from."""
    first = {}
    for e in graph.edges:
        first.setdefault(e.dst, e)
    needed = set()
    for key in keys:
        while key != graph.seed_key and key not in needed:
            needed.add(key)
            key = first[key].src
    return needed


def _generators(grafts) -> list:
    """The (generator, curve) pairs of _grafts's families, in build
    order."""
    return [(desc, curve) for _, _, descs, family in grafts
            for desc, (curve, _, _) in zip(descs, family)]


def _generator_table(config, grafts) -> list:
    """build_complex's generator table: two elementary moves per chart,
    then the generators of _grafts, each at the index its family gives
    it."""
    table = [("elementary", chart, n) for chart in config.model.charts
             for n in (1, -1)]
    table += [desc for desc, _ in _generators(grafts)]
    assert [g for _, gens, _, _ in grafts for g in gens] == \
        list(range(2 * len(config.model.charts), len(table)))
    return table


def _curve_table(config, grafts) -> list:
    """build_complex's curves by generator index: none for the elementary
    moves, then the curves of _grafts."""
    return [None] * 2 * len(config.model.charts) + \
        [curve for _, curve in _generators(grafts)]


def _record_renderings(monkeypatch) -> list:
    """Every key rendered from here on, under each name it is called
    by."""
    rendered = []
    render = surface._render

    def recording(identity, model, *labels):
        rendered.append(render(identity, model, *labels))
        return rendered[-1]

    for module in (surface, complex_graph, suites):
        monkeypatch.setattr(module, "_render", recording)
    return rendered


class TestComputedOnce:
    """The BFS computes each fact once: one graft decision per structure
    and generator, a structure built and keyed only for a new vertex."""

    def test_one_admissibility_check_per_graft(self, monkeypatch):
        # each (expanded structure, generator) pair is decided once: by
        # its twist family's pass or, where that pass hands the curve on,
        # by is_admissible, never both; a structure is built from one
        # more decision, and only where a read or an expanded vertex's
        # recipe needs it
        families, handed, building, grafted, twisted = [], [], [], [], []
        inside = []
        decide, decide_family = surface.is_admissible, \
            complex_graph._decide_family
        graft = complex_graph._graft
        twist = complex_graph.twist_about_meridian

        def deciding(gamma, struct):
            (handed if inside else building).append((id(struct), id(gamma)))
            return decide(gamma, struct)

        def deciding_family(struct, base, chart, family):
            families.append((struct, chart,
                             [curve for curve, _, _ in family]))
            inside.append(chart)
            try:
                return decide_family(struct, base, chart, family)
            finally:
                inside.pop()

        def grafting(adm):
            grafted.append((id(adm.source), id(adm.curve)))
            return graft(adm)

        def twisting(obj, chart, n):
            if isinstance(obj, surface.Structure):
                twisted.append(obj)
            return twist(obj, chart, n)

        # both names, so a decision anywhere would be counted
        monkeypatch.setattr(surface, "is_admissible", deciding)
        monkeypatch.setattr(complex_graph, "is_admissible", deciding)
        monkeypatch.setattr(complex_graph, "_decide_family", deciding_family)
        monkeypatch.setattr(complex_graph, "_graft", grafting)
        monkeypatch.setattr(complex_graph, "twist_about_meridian", twisting)
        config = standard_configuration(2)
        depth = 3
        graph = build_complex(config, 4, depth)
        built = len(grafted), len(twisted)
        grafts = _generators(complex_graph._grafts(config, 4))
        levels = _levels(graph)
        assert set(levels) == set(graph.vertices)
        # one vertex per orbit of S_c x Z/2 is expanded: 48 of the 159
        # below the depth
        keys = _expanded(config, graph)
        assert (len(keys), sum(level < depth for level in levels.values())
                ) == (48, 159)
        expanded = {id(graph.vertices[key]) for key in keys}
        # one pass per expanded structure and chart, the untwisted curve
        # in the first chart's family, so every generator exactly once
        assert len(families) == len(expanded) * len(config.model.charts)
        assert {id(struct) for struct, _, _ in families} == expanded
        passed = {}
        for struct, chart, curves in families:
            passed.setdefault(id(struct), []).extend(curves)
        assert all(curves == [gamma for _, gamma in grafts]
                   for curves in passed.values())
        pairs = [(id(struct), id(gamma)) for struct, _, curves in families
                 for gamma in curves]
        assert len(set(pairs)) == len(pairs) == len(expanded) * len(grafts)
        # handed on at most once each, and only the family's own curves
        assert len(set(handed)) == len(handed) and set(handed) <= set(pairs)
        # each graft built from the one decision made for it
        assert building == grafted
        assert (len(families), len(handed), len(building)) == (96, 27, 43)
        # a destination is built only by the edge that first reaches it,
        # for an expanded vertex or a source its recipe needs first, and
        # any other only when read
        first = {}
        for e in graph.edges:
            first.setdefault(e.dst, e.kind)
        first.pop(graph.seed_key, None)
        assert len(first) == len(graph.vertices) - 1
        needed = [first[key] for key in _needed(graph, keys)]
        assert built == (needed.count("graft"), needed.count("elementary"))
        assert min(built) > 0
        kinds = sorted(first.values())
        for _ in range(2):
            for key in graph.vertices:
                graph.vertices[key]
            assert len(grafted) == kinds.count("graft") > needed.count("graft")
            assert len(twisted) == kinds.count("elementary") > \
                needed.count("elementary")
        assert building == grafted and len(families) == 96

    def test_one_key_per_structure(self, monkeypatch):
        # a new vertex's key renders the identity the BFS looked up, so
        # only the seed is keyed from its curves
        rendered = _record_renderings(monkeypatch)
        from_curves = []
        original = surface.canonical_key
        monkeypatch.setattr(surface, "canonical_key",
                            lambda curve, model: from_curves.append(curve)
                            or original(curve, model))
        graph = build_complex(standard_configuration(2), 4, 3)
        assert sorted(rendered) == sorted(graph.vertices)
        assert len(from_curves) == 1

    def test_goldman_renders_one_key_per_trial(self, monkeypatch):
        # a round trip compares identities, which the key renders one to
        # one, so only the drawn multicurve's key is rendered while every
        # trial passes
        rendered = _record_renderings(monkeypatch)
        trials = 25
        report = verify_suite("goldman", trials=trials, seed=7)
        assert report.passed
        assert len(rendered) == trials
        for key, case in zip(rendered, report.instances):
            assert case.detail == f"{key} vs {key}"

    def test_goldman_miss_names_both_keys(self, monkeypatch):
        # a graft that drops the w0 component misses every round trip,
        # and the result's key is rendered to report it
        graft = suites.graft_along
        monkeypatch.setattr(suites, "graft_along",
                            lambda struct, comp: struct
                            if comp.content == (("w0", 1),)
                            else graft(struct, comp))
        rendered = _record_renderings(monkeypatch)
        trials = 6
        report = verify_suite("goldman", trials=trials, seed=7)
        assert len(rendered) == 2 * trials
        for t, case in enumerate(report.instances[:trials]):
            target, got = rendered[2 * t], rendered[2 * t + 1]
            assert not case.ok and case.detail == f"{got} vs {target}"
            assert "w0" in dict(json.loads(target)["content"])
            assert "w0" not in dict(json.loads(got)["content"])
        assert report.instances[trials].ok  # the odd multiplicity

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_labels_rendered_once_per_content(self, charts, bound, depth,
                                              monkeypatch):
        # a build renders each content's key labels once, in a dict that
        # lives as long as the build; the seed is keyed from its curves
        config = standard_configuration(charts)
        quoted = []
        quote = surface._quote
        monkeypatch.setattr(surface, "_quote",
                            lambda label: quoted.append(label) or
                            quote(label))
        graph = build_complex(config, bound, depth)
        contents = {json.dumps(json.loads(key)["content"])
                    for key in graph.vertices if key != graph.seed_key}
        once = [label for text in sorted(contents)
                for label, _ in json.loads(text)]
        once += [label for label, _ in
                 json.loads(graph.seed_key)["content"]]
        assert len(graph.vertices) > 2 * len(contents)
        assert sorted(quoted) == sorted(once)
        quoted.clear()
        build_complex(config, bound, depth)  # nothing kept across builds
        assert sorted(quoted) == sorted(once)

    @pytest.mark.parametrize("charts,bound,depth,calls", [
        (1, 8, 4, (112, 123)), (2, 4, 3, (318, 785)), (3, 2, 3, (459, 1312))])
    def test_image_calls_per_build(self, charts, bound, depth, calls,
                                   monkeypatch):
        # _image maps totals in two places. _orbit maps each image it
        # finds by each generator of the group once; the orbits of the
        # expanded vertices are the 112, 159 and 153 vertices below the
        # depth, and the group has 1, 2 and 3 generators, so 112, 318 and
        # 459 calls. A mapped vertex maps a destination's totals only the
        # first time its element meets that destination's id, and keeps
        # the image's id in the element's dict: one call per entry those
        # dicts hold at the end, 123, 785 and 1,312. So 235, 1,103 and
        # 1,771 in all, where one call per mapped move made 1,036, 2,237
        # and 2,256.
        inside, outside, elements = [], [], {}
        image, orbit = complex_graph._image, complex_graph._orbit

        def imaging(*args):
            (inside if searching else outside).append(args)
            return image(*args)

        def tracing(totals, group, composed):
            searching.append(totals)
            try:
                found = orbit(totals, group, composed)
            finally:
                searching.pop()
            elements.update((id(element), element)
                            for element in found.values())
            return found

        searching = []
        monkeypatch.setattr(complex_graph, "_image", imaging)
        monkeypatch.setattr(complex_graph, "_orbit", tracing)
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        below = sum(at < depth for at in _levels(graph).values())
        group = complex_graph._symmetries(config, config.base_structure(),
                                          graph.edges._generators)
        assert len(inside) == below * len(group) == calls[0]
        assert len(outside) == sum(len(known) for *_, known
                                   in elements.values()) == calls[1]

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_rendered_key_is_the_curves_key(self, charts, bound, depth):
        # and a structure holds its curves and key, no search state
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        for key, struct in graph.vertices.items():
            assert key == canonical_key(struct.real_curves, config.model)
        assert surface.Structure._fields == ("model", "real_curves")
        assert surface.Structure.__slots__ == ("model", "real_curves", "_key")
        assert not hasattr(next(iter(graph.vertices.values())), "__dict__")

    def test_ranks_computed_once_per_graph(self, monkeypatch):
        counted = []
        count = complex_graph.ComplexGraph._count_ranks
        monkeypatch.setattr(complex_graph.ComplexGraph, "_count_ranks",
                            lambda graph: counted.append(graph)
                            or count(graph))
        graph = build_complex(standard_configuration(2), 2, 2)
        ranks = graph.rank_by_kind()
        kept = dict(ranks)
        data = graph.to_json_bytes()
        assert graph.to_json_obj()["stats"]["rank_by_kind"] == ranks
        assert len(counted) == 1
        # each call hands out a copy
        ranks["graft"] += 1
        assert graph.rank_by_kind() == kept
        assert graph.to_json_bytes() == data
        assert len(counted) == 1
        with pytest.raises(AttributeError):
            graph.edges = ()

    def test_witness_graph_grafts_once(self, monkeypatch):
        # two grafts per m, one per pipeline; the graph reuses them
        calls = []
        original = suites.graft_along

        def counting(struct, gamma):
            calls.append(gamma)
            return original(struct, gamma)

        monkeypatch.setattr(suites, "graft_along", counting)
        bound = 4
        graph = witness_graph(standard_configuration(), 1, bound)
        assert len(graph.edges) == 2 * (2 * bound + 1)
        assert len(calls) == 2 * (2 * bound + 1)

    def test_one_spiral_classification_per_crossing_chart(self,
                                                           monkeypatch):
        # the decision reads each crossing chart's spiral direction once;
        # the graft only applies the smoothing it recorded
        calls = []
        original = surface._spiral_sign

        def counting(lam_total, gamma_cls):
            calls.append(gamma_cls)
            return original(lam_total, gamma_cls)

        monkeypatch.setattr(surface, "_spiral_sign", counting)
        config = standard_configuration(2)
        surface.graft_along(config.base_structure(),
                            surface.twist_about_meridian(config.gamma, "a",
                                                         1))
        assert len(calls) == 1
        calls.clear()
        build_complex(config, 4, 3)
        # only the 48 expanded structures, one per orbit, are decided
        # (see test_one_admissibility_check_per_graft): once per expanded
        # structure and curve not parallel to a real class in its family's
        # chart, 48 times 9 curves in chart a's family and 8 in chart b's,
        # 816, 27 of them parallel, so 789; once per twist family pass for
        # the other chart it crosses, 75; and in each is_admissible call
        # (a curve handed on, or the build of a structure an expanded one
        # needs) once per crossing chart, 88 over 70 calls
        assert len(calls) == 789 + 75 + 88

    def test_generators_prepared_once_per_build(self, monkeypatch):
        # the build's table works out each generator's classes by chart
        # position and doubled once, in generator order
        config = standard_configuration(2)
        curves = [curve for _, curve in
                  _generators(complex_graph._grafts(config, 4))]
        positioned, doubled, computed = [], [], []
        by_position, double = complex_graph._by_position, \
            complex_graph._doubled
        graft_content = surface._graft_content

        def recording(content, curve):
            computed.append(content)
            return graft_content(content, curve)

        monkeypatch.setattr(complex_graph, "_by_position",
                            lambda curve, model: positioned.append(curve)
                            or by_position(curve, model))
        monkeypatch.setattr(complex_graph, "_doubled",
                            lambda curve, given, model: doubled.append(curve)
                            or double(curve, given, model))
        for module in (surface, complex_graph):
            monkeypatch.setattr(module, "_graft_content", recording)
        gamma = vars(config.gamma).copy()
        depth = 3
        graph = build_complex(config, 4, depth)
        assert positioned == doubled == curves
        # the grafted content is worked out once per expanded structure,
        # one per orbit, from that structure's content
        expanded = [graph.vertices[key].identity()[0]
                    for key in _expanded(config, graph)]
        assert sorted(computed) == sorted(expanded)
        assert len(computed) == 48
        # nothing is kept on a caller's curve
        assert vars(config.gamma) == gamma
        curve = surface.twist_about_meridian(config.gamma, "a", 1)
        before = vars(curve).copy()
        assert surface.is_admissible(curve, config.base_structure())
        assert vars(curve) == before

    def test_depth_zero_prepares_one_curve(self, monkeypatch):
        # nothing is expanded at depth 0, so no twisted curve's positions
        # are worked out however large the twist bound
        positioned = []
        by_position = complex_graph._by_position
        monkeypatch.setattr(complex_graph, "_by_position",
                            lambda curve, model: positioned.append(curve)
                            or by_position(curve, model))
        config = standard_configuration(2)
        graph = build_complex(config, 50, 0)
        assert positioned == [config.gamma]
        assert list(graph.vertices) == [config.base_structure().key()]
        assert graph.edges == () and graph.twist_bound == 50


def _count_builds(monkeypatch) -> list:
    """Every structure a move builds from here on: grafts and meridian
    twists of structures, under the names the BFS calls them by."""
    built = []
    graft, twist = complex_graph._graft, complex_graph.twist_about_meridian

    def grafting(adm):
        built.append(adm.source)
        return graft(adm)

    def twisting(obj, chart, n):
        if isinstance(obj, surface.Structure):
            built.append(obj)
        return twist(obj, chart, n)

    monkeypatch.setattr(complex_graph, "_graft", grafting)
    monkeypatch.setattr(complex_graph, "twist_about_meridian", twisting)
    return built


def _replay(config, graph, edge):
    """The structure an edge's move gives from its source, by the public
    moves."""
    src = graph.vertices[edge.src]
    if edge.kind == "elementary":
        return surface.twist_about_meridian(src, edge.chart, edge.n)
    gamma = config.gamma
    if edge.chart:
        gamma = surface.twist_about_meridian(gamma, edge.chart, edge.n)
    return surface.graft_along(src, gamma)


def _check_first_edges_replay(config, graph):
    """The edge that first reaches a vertex is the move that built it."""
    first = {}
    for e in graph.edges:
        first.setdefault(e.dst, e)
    first.pop(graph.seed_key, None)
    assert len(first) == len(graph.vertices) - 1
    for key, edge in first.items():
        assert _replay(config, graph, edge).real_curves == \
            graph.vertices[key].real_curves


def _vertex_digest(graph) -> str:
    """The sha256 of each vertex's key and structure, in discovery
    order."""
    h = hashlib.sha256()
    for key, struct in graph.vertices.items():
        h.update(repr((key, struct.real_curves)).encode())
    return h.hexdigest()


SIZES = [(1, 3, 0), (1, 3, 1), (1, 8, 4), (2, 4, 3), (3, 2, 3)]


class TestDeferredVertices:
    """A last-level vertex's structure is built on its first read of
    graph.vertices; keys, counts, ranks and exports read none."""

    @pytest.mark.parametrize("charts,bound,depth", SIZES)
    def test_keys_only_reads_build_nothing(self, charts, bound, depth,
                                           monkeypatch):
        # the build makes the expanded structures, one per orbit, and the
        # sources their recipes need first
        built = _count_builds(monkeypatch)
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        levels = _levels(graph)
        expanded = _expanded(config, graph)
        assert len(built) == len(_needed(graph, expanded))
        assert (len(expanded), len(built)) == {
            (1, 3, 0): (0, 0), (1, 3, 1): (1, 0), (1, 8, 4): (58, 57),
            (2, 4, 3): (48, 47), (3, 2, 3): (24, 23)}[charts, bound, depth]
        del built[:]
        assert len(graph.vertices) == len(levels)
        assert list(graph.vertices) == list(graph.vertices.keys())
        assert all(key in graph.vertices for key in levels)
        assert "not a key" not in graph.vertices
        graph.rank_by_kind()
        graph.to_json_bytes()
        graph.to_dot()
        graph.cycle_rank()
        assert built == []

    @pytest.mark.parametrize("charts,bound,depth", SIZES)
    def test_read_once_exports_unchanged(self, charts, bound, depth,
                                         monkeypatch):
        built = _count_builds(monkeypatch)
        graph = build_complex(standard_configuration(charts), bound, depth)
        before = graph.to_json_bytes(), graph.to_dot()
        vertices = graph.vertices
        # each destination is built once, on the first read at the latest
        for key in vertices:
            assert vertices[key] is vertices[key]
            assert vertices[key].key() == key
        assert len(built) == len(vertices) - 1
        assert dict(vertices.items()) == {k: vertices[k] for k in vertices}
        assert len(built) == len(vertices) - 1
        assert (graph.to_json_bytes(), graph.to_dot()) == before
        with pytest.raises(KeyError):
            vertices["not a key"]
        with pytest.raises(TypeError):
            vertices[graph.seed_key] = vertices[graph.seed_key]
        assert type(vertices) is type(build_complex(
            standard_configuration(charts), bound, 0).vertices)

    @pytest.mark.parametrize("charts,bound,depth", SIZES)
    def test_first_edge_replays(self, charts, bound, depth):
        config = standard_configuration(charts)
        _check_first_edges_replay(config, build_complex(config, bound, depth))

    @pytest.mark.parametrize("charts,bound,depth,digest", [
        (1, 8, 4, "e093d26830e82cc8c2631be7b971a7bb"
                  "8c6a1f227296846e61ef134ee825a55d"),
        (2, 4, 3, "b12bdc289f417b5dd91776a1d88c96dc"
                  "3275771f4d974970b6fe14f5d5ee18c9"),
        (3, 2, 3, "a8f77615712b4b66e81a8ac8b6d67dff"
                  "ca1ae355b5b15058299f726983310837"),
    ])
    def test_materialized_vertices_digest(self, charts, bound, depth,
                                          digest):
        # the structures an eager build made, in discovery order
        graph = build_complex(standard_configuration(charts), bound, depth)
        assert _vertex_digest(graph) == digest

    @pytest.mark.parametrize("fmt,export", [("json", "to_json_bytes"),
                                            ("dot", "to_dot")])
    def test_cli_builds_only_expanded(self, fmt, export, tmp_path,
                                      monkeypatch, capsys):
        config = {"schema": 1, "genus": 2, "charts": ["a", "b"],
                  "curves": [{"label": "lambda",
                              "charts": {"a": [2, 0], "b": [2, 0]}}],
                  "gamma": {"label": "gamma",
                            "charts": {"a": [1, 0], "b": [1, 0]}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"graph.{fmt}"
        graph = build_complex(standard_configuration(2), 2, 2)
        data = getattr(graph, export)()
        # the seed's curves are the configuration's, so the CLI's build
        # expands one vertex per orbit too: the seed and 4 of the 13 at
        # level one, whose recipes need only the seed
        levels = _levels(graph)
        expanded = _expanded(standard_configuration(2), graph)
        assert (len(expanded), sum(at == 1 for at in levels.values())) == \
            (5, 13)
        built = _count_builds(monkeypatch)
        assert cli.main(["complex", str(path), "--depth", "2",
                         "--twist-bound", "2", "--format", fmt,
                         "--output", str(out)]) == 0
        assert len(built) == len(expanded) - 1
        assert out.read_bytes() == (data if fmt == "json"
                                    else data.encode())
        assert capsys.readouterr().out.startswith(
            f"vertices={len(graph.vertices)} edges={len(graph.edges)} ")


def _coloured(**charts):
    """A configuration reading lambda and gamma as given per chart, as
    chart=(lambda's class, gamma's class)."""
    model = surface.SurfaceModel(2, "rho", tuple(charts))
    lam = {name: classes[0] for name, classes in charts.items()}
    gamma = {name: classes[1] for name, classes in charts.items()}
    return surface.validate_configuration(
        model, surface.component("lambda", lam),
        surface.component("gamma", gamma))


def _symmetric(name):
    """The configurations of TestOrbitExpansion by name: a standard one
    by its chart count, "perm2" and "perm3" with lambda (2,2) and gamma
    (1,1) in every chart, which no reflection fixes, and "swap" with
    charts a and b standard and chart c as in "perm3"."""
    if isinstance(name, int):
        return standard_configuration(name)
    skew = ((2, 2), (1, 1))
    if name == "swap":
        return _coloured(a=((2, 0), (1, 0)), b=((2, 0), (1, 0)), c=skew)
    return _coloured(**{chart: skew for chart in "abc"[:int(name[-1])]})


def _group_order(config) -> int:
    """The order of the group _symmetries generates for a build from the
    base structure, found by closing its generators under composition."""
    graph = build_complex(config, 1, 0)  # for its generator table
    generators = complex_graph._symmetries(config, config.base_structure(),
                                           graph.edges._generators)
    unmoved = (tuple(range(len(config.model.charts))), 1,
               tuple(range(len(graph.edges._generators))))
    group, todo = {unmoved}, [unmoved]
    for sources, sign, relabel in todo:
        for by, turn, moved in generators:
            element = (tuple([sources[j] for j in by]), sign * turn,
                       tuple([moved[g] for g in relabel]))
            if element not in group:
                group.add(element)
                todo.append(element)
    return len(group)


def _unmapped(monkeypatch):
    """From here on, builds find no symmetries and expand every vertex."""
    monkeypatch.setattr(complex_graph, "_symmetries", lambda *args: [])


def _everything(graph) -> tuple:
    """What a build shows: both exports, the keys in discovery order, the
    edge rows and, read last, every vertex's structure."""
    return (graph.to_json_bytes(), graph.to_dot(), list(graph.vertices),
            list(graph.edges._rows), _vertex_digest(graph))


@st.composite
def _symmetric_builds(draw):
    """A configuration over 1-3 charts, left unvalidated, whose curves
    read one class each, p > 0, in every chart, mirrored (q -> -q) in
    some, so many draws have a nontrivial group; a twist bound and a
    depth. A grafting class with p = 2 is refused wherever it crosses."""
    names = "abc"[:draw(st.integers(1, 3))]
    lam = (draw(st.integers(1, 3)), draw(st.integers(-2, 2)))
    gamma = (draw(st.integers(1, 2)), draw(st.integers(-2, 2)))
    signs = [draw(st.sampled_from((1, -1))) for _ in names]
    model = surface.SurfaceModel(2, "rho", tuple(names))
    config = surface.Configuration(model, *[
        surface.component(label, {name: (p, sign * q)
                                  for name, sign in zip(names, signs)},
                          draw(st.integers(1, 2)))
        for label, (p, q) in (("lambda", lam), ("gamma", gamma))])
    return config, draw(st.integers(0, 2)), draw(st.integers(2, 3))


class TestOrbitExpansion:
    """A build expands one vertex per orbit of its symmetries and maps
    the moves of the first onto the rest: that gives what expanding
    every vertex gives, byte for byte."""

    @pytest.mark.parametrize("name,bound,depth,order", [
        *[(c, b, d, 2 * factorial(c)) for c, b, d in SIZES],
        (2, 6, 4, 4), (3, 3, 3, 12), (1, 6, 5, 2), (2, 10, 4, 4),
        (3, 4, 4, 12),
        ("perm2", 2, 3, 2), ("perm3", 2, 3, 6), ("swap", 2, 3, 2)])
    def test_shortcut_equals_full_build(self, name, bound, depth, order,
                                        monkeypatch):
        config = _symmetric(name)
        assert _group_order(config) == order
        mapped = _everything(build_complex(config, bound, depth))
        _unmapped(monkeypatch)
        assert _everything(build_complex(config, bound, depth)) == mapped

    @settings(max_examples=100, deadline=None)
    @given(_symmetric_builds())
    def test_drawn_symmetric_configurations(self, build):
        config, bound, depth = build
        mapped = _everything(build_complex(config, bound, depth))
        with pytest.MonkeyPatch.context() as patch:
            _unmapped(patch)
            assert _everything(build_complex(config, bound, depth)) == \
                mapped

    @pytest.mark.parametrize("seed", [0, 1, 2, "skipping", "negative"])
    def test_identity_alone_off_the_gate(self, seed, monkeypatch):
        # a seed other than the configuration's own curve, or a class
        # with p < 0, leaves the identity alone: every vertex expanded
        if seed == "skipping":
            config, seed = TestFusedPass.skipping_setup()
            bound = 1
        elif seed == "negative":
            config = _coloured(a=((2, 0), (1, 0)), b=((2, 0), (-1, 0)))
            seed, bound = config.base_structure(), 2
        else:
            config, bound = standard_configuration(1), 3
            seed = surface.structure(config.model,
                                     TestSeededBuilds.SEEDS[seed])
        graph = build_complex(config, bound, 0)
        assert complex_graph._symmetries(config, seed,
                                         graph.edges._generators) == []
        mapped = _everything(build_complex(config, bound, 3, seed=seed))
        _unmapped(monkeypatch)
        assert _everything(build_complex(config, bound, 3, seed=seed)) == \
            mapped

    @pytest.mark.parametrize("charts,bound,depth,stored", [
        (1, 8, 4, 54), (2, 4, 3, 111), (3, 2, 3, 129)])
    def test_each_stored_entry_popped_once(self, charts, bound, depth,
                                           stored, monkeypatch):
        # an expanded vertex's moves are stored under each other image of
        # its identity, never its own, and each entry is taken by exactly
        # one later vertex: the vertices below the depth not expanded. So
        # none is left when the build returns.
        expanded, orbits, left = [], [], []
        expand, orbit = complex_graph._expand, complex_graph._orbit

        def expanding(config, struct, identity, *args):
            expanded.append(identity)
            return expand(config, struct, identity, *args)

        def tracing(totals, *args):
            orbits.append((expanded[-1], orbit(totals, *args)))
            return orbits[-1][1]

        def returning(frame, event, arg):
            if event == "return" and \
                    frame.f_code is build_complex.__code__:
                left.append(len(frame.f_locals["mapped"]))

        monkeypatch.setattr(complex_graph, "_expand", expanding)
        monkeypatch.setattr(complex_graph, "_orbit", tracing)
        config = standard_configuration(charts)
        sys.setprofile(returning)
        try:
            graph = build_complex(config, bound, depth)
        finally:
            sys.setprofile(None)
        assert left == [0]
        assert len(orbits) == len(expanded)
        assert all(totals not in images
                   for (_, totals), images in orbits)
        model = config.model
        keys = sorted(surface._render((content, image), model)
                      for (content, _), images in orbits for image in images)
        below = {key for key, at in _levels(graph).items() if at < depth}
        assert len(keys) == stored
        assert keys == sorted(below - {surface._render(identity, model)
                                       for identity in expanded})

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_each_element_composed_once(self, charts, bound, depth,
                                        monkeypatch):
        # every orbit entry for one group element is that element composed
        # once per build, its index map and its dict of image ids shared:
        # the group has 2 * c! elements, and these builds meet all but the
        # identity, 1, 3 and 11
        entries = []
        orbit = complex_graph._orbit

        def tracing(*args):
            found = orbit(*args)
            entries.extend(found.values())
            return found

        monkeypatch.setattr(complex_graph, "_orbit", tracing)
        build_complex(standard_configuration(charts), bound, depth)
        count = 2 * factorial(charts) - 1
        assert len({(sources, sign) for sources, sign, *_ in entries}) == \
            count
        assert len({id(element) for element in entries}) == count
        assert len({id(element[2]) for element in entries}) == count
        assert len(entries) > count
        # a second build composes its own
        again = len(entries)
        build_complex(standard_configuration(charts), bound, depth)
        assert not {id(e) for e in entries[:again]} & \
            {id(e) for e in entries[again:]}

    def test_recipes_chain(self, monkeypatch):
        # at (2, 6, 4) some expanded vertices are first reached from
        # mapped ones, whose structures the build then makes first: 251
        # expanded structures besides the seed, and 6 mapped ones
        built = _count_builds(monkeypatch)
        config = standard_configuration(2)
        graph = build_complex(config, 6, 4)
        expanded = _expanded(config, graph)
        assert (len(expanded), len(built), len(_needed(graph, expanded))) \
            == (252, 257, 257)
        # a read builds the structures its vertex's recipe needs first,
        # the same as a full build's
        unbuilt = [key for key in graph.vertices
                   if isinstance(graph.vertices._entries[key], tuple)]
        last = unbuilt[-1]
        chain = len(_needed(graph, [last]) & set(unbuilt))
        del built[:]
        struct = graph.vertices[last]
        assert len(built) == chain > 1
        _unmapped(monkeypatch)
        full = build_complex(config, 6, 4)
        assert struct.real_curves == full.vertices[last].real_curves

    @pytest.mark.parametrize("charts,bound,depth,counts", [
        (1, 8, 4, (58, 112)), (2, 4, 3, (48, 159)), (3, 2, 3, (24, 153))])
    def test_debug_build_expands_every_vertex(self, charts, bound, depth,
                                              counts, caplog, monkeypatch):
        # with debug logging on a build finds no symmetries: it expands
        # every vertex below the depth, level by level in key order, where
        # a quiet build expands one per orbit, and builds what that does
        expanded = []
        expand = complex_graph._expand

        def expanding(config, struct, identity, grafts):
            expanded.append(struct.key())
            return expand(config, struct, identity, grafts)

        monkeypatch.setattr(complex_graph, "_expand", expanding)
        config = standard_configuration(charts)
        caplog.set_level(logging.WARNING, logger="graftkit")
        quiet = build_complex(config, bound, depth)
        assert expanded == _expanded(config, quiet)
        first = len(expanded)
        caplog.set_level(logging.DEBUG, logger="graftkit")
        loud = build_complex(config, bound, depth)
        levels = _levels(loud)
        assert expanded[first:] == [
            key for level in range(depth)
            for key in sorted(k for k, at in levels.items() if at == level)]
        assert (first, len(expanded) - first) == counts
        assert _everything(loud) == _everything(quiet)


class TestSymmetry:
    """The standard key graph is invariant under S_c x Z/2: every chart
    permutation sigma and the reflection (p, q) -> (p, -q) map its
    vertices and edges onto themselves, the generators relabelled (chart
    permuted, n -> -n). Built with every vertex expanded, so this checks
    the grafting calculus the orbit expansion relies on, not the map."""

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 3, 4), (2, 3, 3), (3, 2, 3), (2, 6, 4)])
    def test_key_graph_invariant(self, charts, bound, depth, monkeypatch):
        _unmapped(monkeypatch)
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        images = {key: _images(config, key) for key in graph.vertices}
        names, position = config.model.charts, config.model.chart_index

        def undirected(kind, chart, n, src, dst):
            # an elementary edge is stored from either endpoint
            if kind == "elementary" and dst < src:
                return kind, chart, -n, dst, src
            return kind, chart, n, src, dst

        edges = Counter(undirected(*e) for e in graph.edges)
        elements = list(images[graph.seed_key])
        assert len(elements) == 2 * factorial(charts)
        for sigma, sign in elements:
            image = {key: moved[sigma, sign] for key, moved in images.items()}
            assert set(image.values()) == set(graph.vertices)
            assert Counter(undirected(
                kind, chart and names[sigma[position[chart]]], sign * n,
                image[src], image[dst])
                for kind, chart, n, src, dst in graph.edges) == edges


class TestSeededBuilds:
    """Builds from seeds where some grafts are refused and some fuse a
    chart by a difference; a standard build admits every graft and fuses
    by plain sums."""

    SEEDS = [
        [surface.component("x", {"a": (1, 2)}),
         surface.component("x", {"a": (1, -2)})],
        [surface.component("x", {"a": (0, 1)}, 2)],
        [surface.component("x", {"a": (1, 3)}),
         surface.component("y", {"a": (1, -1)})],
    ]

    def test_every_vertex_replays_and_both_cases_occur(self):
        config = standard_configuration(1)
        grafts = _generators(complex_graph._grafts(config, 3))
        rejected = differences = 0
        for comps in self.SEEDS:
            seed = surface.structure(config.model, comps)
            graph = build_complex(config, 3, 3, seed=seed)
            _check_first_edges_replay(config, graph)
            for struct in graph.vertices.values():
                for _, gamma in grafts:
                    adm = surface.is_admissible(gamma, struct)
                    if not adm:
                        rejected += "no spiral direction" in adm.reason
                    elif adm.route == "spiraling":
                        # one chart, and gamma reads (1, n) there, so its
                        # two leaves are (2, 2n) as oriented
                        (p, q), = [cls for _, cls in gamma.charts]
                        (lp, lq), = adm.totals
                        differences += \
                            adm.fused[0] == (lp - 2 * p, lq - 2 * q)
        assert rejected > 0
        assert differences > 0

    @pytest.mark.parametrize("seed,digest", [
        (0, "ab8c8f00cce2f8c97c8c50e17a2d40e1"
            "781085cc88e41a2113bc98c24716d2ee"),
        (1, "acacbe74d9a00abd3cb0663eedb4ad28"
            "3b72d195ab4650eb7d666189243cf79e"),
        (2, "7f557dc681bf12a3602ce39b0ac61bed"
            "c97dc40e8f3c3c0c5952b22056c99f70"),
        (None, "832c267128256bcb8630e15d4563aecb"
               "83f0bb1f1c270f13c95701fe680a12f3"),
    ], ids=["two-strands", "vertical", "two-labels", "skipping"])
    def test_vertex_structures_pinned(self, seed, digest):
        # the structure each vertex first reached, so the order in which
        # moves reach vertices, on seeds that refuse grafts
        if seed is None:
            graph = TestFusedPass.skipping_build()
        else:
            config = standard_configuration(1)
            graph = build_complex(config, 3, 3, seed=surface.structure(
                config.model, self.SEEDS[seed]))
        assert _vertex_digest(graph) == digest


def reversed_curve(comp):
    return Component(comp.content,
                     tuple((name, -cls) for name, cls in comp.charts),
                     comp.multiplicity)


class TestFusedPass:
    """The decision identifies each destination by arithmetic: its
    identity, rendered, is the key of the structure the graft builds, and
    a meridian twist's identity is the key of the twisted structure."""

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 3, 3), (2, 2, 2), (3, 1, 2)])
    def test_identity_is_the_built_key(self, charts, bound, depth):
        config = standard_configuration(charts)
        model = config.model
        graph = build_complex(config, bound, depth)
        grafts = complex_graph._grafts(config, bound)
        curves = dict(_generators(grafts))
        table = _generator_table(config, grafts)
        assert graph.edges._generators == table
        # a vertex's recipe carries its generator's curve from the table
        for entry in graph.vertices._entries.values():
            if isinstance(entry, tuple):
                assert entry[2] == curves.get(entry[1])
        built_curves = _curve_table(config, grafts)
        twists = 0
        for struct in graph.vertices.values():
            (content, elementary), (grafted, moves) = complex_graph._expand(
                config, struct, struct.identity(), grafts)
            assert content == struct.identity()[0]
            # every graft is admitted at these sizes
            # (test_rejection_reasons covers rejections)
            assert [table[g] for g, _ in moves] == list(curves)
            for g, totals in elementary:
                kind, chart, n = table[g]
                assert kind == "elementary"
                twists += 1
                built = surface.twist_about_meridian(struct, chart, n)
                assert surface._render((content, totals), model) == \
                    built.key()
            for g, totals in moves:
                assert built_curves[g] is curves[table[g]]
                built = surface.graft_along(struct, built_curves[g])
                assert surface._render((grafted, totals), model) == \
                    built.key()
        assert twists > 0

    # (real curves, grafting curve, reason); each reason is pinned as the
    # graft decision has always worded it
    @pytest.mark.parametrize("real,gamma,reason", [
        ([("lambda", (0, 2))], (1, 0),
         "chart 'a': no spiral direction for 1,0 against 0,2"),
        ([("lambda", (2, 0))], (2, 1),
         "chart 'a': grafting class 2,1 is not a single strand"),
        ([("lambda", (2, 0))], (-2, 1),
         "chart 'a': grafting class -2,1 is not a single strand"),
        ([("x", (1, 2)), ("x", (1, -2))], (1, 0),
         "chart 'a': no spiral direction for 1,0 against 2,0"),
        ([("x", (1, 2)), ("x", (1, -2))], (-1, 0),
         "chart 'a': no spiral direction for -1,0 against 2,0"),
    ])
    def test_rejection_reasons(self, real, gamma, reason):
        model = surface.SurfaceModel(2, "rho", ("a",))
        struct = surface.structure(model, [
            surface.component(label, {"a": cls}) for label, cls in real])
        curve = surface.component("g", {"a": gamma})
        adm = surface.is_admissible(curve, struct)
        assert not adm and adm.reason == reason
        with pytest.raises(NotAdmissible, match=re.escape(reason)):
            surface.graft_along(struct, curve)

    @pytest.mark.parametrize("multiplicity,twists", [(2, 2), (1, 0)])
    def test_meridian_crosses_each_leaf(self, multiplicity, twists):
        # the meridian crosses two leaves of x@(1,0) twice, so the chart
        # has its two elementary moves; one leaf it crosses once
        config = standard_configuration(1)
        model = config.model
        struct = surface.structure(model, [
            surface.component("x", {"a": (1, 0)}, multiplicity)])
        (content, elementary), (_, moves) = complex_graph._expand(
            config, struct, struct.identity(), [])
        assert content == struct.identity()[0]
        assert len(elementary) == twists and moves == []
        table = _generator_table(config, [])
        for g, totals in elementary:
            kind, chart, n = table[g]
            assert kind == "elementary"
            assert surface._render((content, totals), model) == \
                surface.twist_about_meridian(struct, chart, n).key()

    @staticmethod
    def skipping_setup():
        """The configuration and seed of a build that skips grafts for
        both reasons: the configuration is left unvalidated, so its curve
        is a double strand in chart b, and the seed's crossed total in
        chart a can be parallel to it."""
        model = surface.SurfaceModel(2, "rho", ("a", "b"))
        config = surface.Configuration(
            model, surface.component("lambda", {"a": (2, 0), "b": (2, 0)}),
            surface.component("g", {"a": (1, 0), "b": (2, 1)}))
        seed = surface.structure(model, [
            surface.component("x", {"a": (1, 2), "b": (2, 0)}),
            surface.component("y", {"a": (1, -2)})])
        return config, seed

    @classmethod
    def skipping_build(cls):
        config, seed = cls.skipping_setup()
        return build_complex(config, 1, 2, seed=seed)

    def test_skips_logged_only_when_enabled(self, caplog, monkeypatch):
        rendered = _record_renderings(monkeypatch)
        caplog.set_level(logging.WARNING, logger="graftkit")
        quiet = self.skipping_build()
        # logging off: no record; one key rendered per vertex, none for a
        # skip
        assert not caplog.records
        assert sorted(rendered) == sorted(quiet.vertices)
        rendered.clear()
        caplog.set_level(logging.DEBUG, logger="graftkit")
        loud = self.skipping_build()
        # a logged skip names the source by the key it keeps
        assert sorted(rendered) == sorted(quiet.vertices)
        # expanding every vertex for the log changes nothing built
        assert _everything(loud) == _everything(quiet)
        data = loud.to_json_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "d34f49a15e6faafb9c35ea5ea81a4ba1ac41852ee2a2e273105223a9801b69fc")
        skips = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("skipping ")]
        assert any("is not a single strand" in m for m in skips)
        assert any("no spiral direction" in m for m in skips)
        # a symmetric base configuration whose gamma is a double strand
        # in each chart: with the log on, a vertex a quiet build maps
        # instead of expanding is expanded, so it logs its skips with its
        # own generators, key and reasons, in the order a build with no
        # symmetries logs them, and only when logging is on, building
        # what a quiet build does
        model = surface.SurfaceModel(2, "rho", ("a", "b"))
        config = surface.Configuration(
            model, surface.component("lambda", {"a": (2, 0), "b": (2, 0)}),
            surface.component("g", {"a": (2, 0), "b": (2, 0)}))
        assert _group_order(config) == 4
        caplog.clear()
        graph = build_complex(config, 1, 3)
        logged = [r.getMessage() for r in caplog.records]
        levels = _levels(graph)
        assert (len(_expanded(config, graph)),
                sum(at < 3 for at in levels.values()), len(logged)) == \
            (8, 19, 84)
        assert all("is not a single strand" in m for m in logged)
        caplog.set_level(logging.WARNING, logger="graftkit")
        caplog.clear()
        assert _everything(build_complex(config, 1, 3)) == \
            _everything(graph)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="graftkit")
        caplog.clear()
        _unmapped(monkeypatch)
        build_complex(config, 1, 3)
        assert [r.getMessage() for r in caplog.records] == logged


class _Skips:
    """Stands in for the debug logger: records each skipped generator
    with its reason."""

    def __init__(self):
        self.skipped = []

    def debug(self, message, desc, key, reason):
        self.skipped.append((desc, reason))


def _family_moves(config, struct, grafts):
    """_expand's graft moves from the structure, as (generator, the
    destination's identity), and the generators it skips with reasons."""
    log = _Skips()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complex_graph, "_debug_log", lambda: log)
        _, (grafted, moves) = complex_graph._expand(
            config, struct, struct.identity(), grafts)
    table = _generator_table(config, grafts)
    return [(table[g], (grafted, totals)) for g, totals in moves], \
        log.skipped


def _per_curve_moves(config, struct, grafts):
    """The same, decided one curve at a time by is_admissible (through
    surface._handed_on)."""
    content, totals = struct.identity()
    grafted = surface._graft_content(content, config.gamma)
    moves, skipped = [], []
    for desc, gamma in grafts:
        decided = surface._handed_on(gamma, struct, totals)
        if isinstance(decided, str):
            skipped.append((desc, decided))
        else:
            moves.append((desc, (grafted, decided)))
    return moves, skipped


def _check_family_agreement(config, graph, bound):
    """On every vertex the family pass gives the per-curve moves; returns
    the skips seen."""
    grafts = complex_graph._grafts(config, bound)
    skips = 0
    for struct in graph.vertices.values():
        moves, skipped = _family_moves(config, struct, grafts)
        assert (moves, skipped) == _per_curve_moves(config, struct,
                                                    _generators(grafts))
        skips += len(skipped)
    return skips


@st.composite
def _seeded_builds(draw):
    """A configuration over 1-3 charts, a seed, a twist bound and a depth.
    The seed is drawn as _random_even_multicurve draws its multicurves,
    with any multiplicity, or has up to three components that may span
    several charts."""
    config = standard_configuration(draw(st.integers(1, 3)))
    charts = st.lists(st.sampled_from(config.model.charts), min_size=1,
                      unique=True)
    if draw(st.booleans()):
        spans = [[chart] for chart in draw(charts)]
    else:
        spans = draw(st.lists(charts, min_size=1, max_size=3))
    primitive = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda c: c != (0, 0) and gcd(*c) == 1)
    comps = [surface.component(f"w{i}", {chart: draw(primitive)
                                         for chart in span},
                               draw(st.integers(1, 8)))
             for i, span in enumerate(spans)]
    return (config, surface.structure(config.model, comps),
            draw(st.integers(0, 3)), draw(st.integers(1, 2)))


def _two_chart_seed():
    """A seed with a component parallel to some generators in chart b
    that the family pass cannot fuse: it hands those curves on."""
    config = standard_configuration(2)
    return config, surface.structure(config.model, [
        surface.component("w0", {"b": (1, 2)}, 3),
        surface.component("w1", {"a": (3, 1), "b": (0, 1)})]), 2, 1


def _one_leaf_seed():
    """A seed whose graph has vertices with the same real classes in a
    chart but other crossed totals there (in chart a two (1, 0)
    components, at (3, 0) and at (5, 0)), so a family's decision in its
    chart depends on the total as well as the classes."""
    config = standard_configuration(2)
    return config, surface.structure(config.model, [
        surface.component("w0", {"a": (1, 0)})]), 1, 2


class TestFamilyPass:
    """_expand decides each chart's twist family in one pass
    (surface._decide_family). Its moves, in order, and its skips with
    their reasons are those of deciding each generator on its own."""

    @pytest.mark.parametrize("charts,bound,depth", SIZES)
    def test_standard_builds(self, charts, bound, depth):
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        assert _check_family_agreement(config, graph, bound) == 0

    def test_seeded_builds(self):
        config = standard_configuration(1)
        skips = [_check_family_agreement(config, build_complex(
            config, 3, 3, seed=surface.structure(config.model, comps)), 3)
            for comps in TestSeededBuilds.SEEDS]
        config, seed = TestFusedPass.skipping_setup()
        skips.append(_check_family_agreement(
            config, build_complex(config, 1, 2, seed=seed), 1))
        assert all(skips)

    @settings(max_examples=100, deadline=None)
    @given(_seeded_builds())
    @example(_two_chart_seed())
    @example(_one_leaf_seed())
    def test_drawn_seeds(self, build):
        # and each vertex is what its first move, replayed, builds
        config, seed, bound, depth = build
        graph = build_complex(config, bound, depth, seed=seed)
        _check_family_agreement(config, graph, bound)
        _check_first_edges_replay(config, graph)


class TestPreparedCurves:
    """A build works out each generator's classes by chart position and
    doubled once (_grafts); the family pass, reading them from the table,
    decides as each curve, worked out on its own, does."""

    FIELDS = ("route", "reason", "crossed", "totals", "fused")

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 3, 3), (2, 2, 2), (3, 1, 2), (None, 1, 2)], ids=[
        "1-3-3", "2-2-2", "3-1-2", "skipping"])
    def test_bfs_decision_is_the_fresh_decision(self, charts, bound,
                                                depth):
        if charts is None:
            config, seed = TestFusedPass.skipping_setup()
            graph = build_complex(config, bound, depth, seed=seed)
        else:
            config = standard_configuration(charts)
            graph = build_complex(config, bound, depth)
        grafts = complex_graph._grafts(config, bound)
        outcomes = set()
        for struct in graph.vertices.values():
            totals = struct.identity()[1]
            for chart, _, _, family in grafts:
                assert surface._decide_family(struct, totals, chart,
                                              family) == \
                    [surface._handed_on(curve, struct, totals)
                     for curve, _, _ in family]
                for curve, _, _ in family:
                    want = surface.is_admissible(curve, struct)
                    outcomes.add(want.route or re.sub(
                        r".*: (grafting class|no spiral).*", r"\1",
                        want.reason))
        if charts is None:  # it skips every graft, for both reasons
            assert outcomes == {"grafting class", "no spiral"}
        else:
            assert "spiraling" in outcomes

    def test_prepared_for_another_chart_order(self):
        # the curve's orientation and chart positions depend on the
        # order: on each model the family pass, given the positions for
        # that model, decides as the curve does on its own
        doubles = []
        for charts in (("a", "b"), ("b", "a")):
            model = surface.SurfaceModel(2, "rho", charts)
            curve = surface.component("g", {"a": (1, 1), "b": (-1, 0)})
            struct = surface.structure(model, [
                surface.component("lambda", {"a": (2, 0), "b": (2, 0)})])
            assert surface.is_admissible(curve, struct).route == "spiraling"
            given = surface._by_position(curve, model)
            doubles.append(surface._doubled(curve, given, model))
            totals = struct.identity()[1]
            assert surface._decide_family(struct, totals, "a", [
                (curve, given, doubles[-1])]) == \
                [surface._handed_on(curve, struct, totals)]
        assert doubles == [((2, 2), (-2, 0)), ((2, 0), (-2, -2))]

    @pytest.mark.parametrize("build,digest", [
        (0, "55a56c307a9c8747998c6f639cf25877"
            "c2e176e2a7a4a956e89c9f1afce1c3a0"),
        (1, "349837381d303263f500ef0729c636c1"
            "27b9932bb918040d134b7261096c42d1"),
        (2, "b34bd84e16e42afaf2ea8b56d4c7885d"
            "46bf0480defea519c778d3f82c28b5a0"),
        ("skipping", "ea215b7dc34020c265835c45448d97ea"
                     "ab5bc61958e7610902183c619629d17e"),
        ("2-2-2", "aa02a13e7aabef7f57a3acf6d887cbaa"
                  "d7a5983e3e6c1c28fb80e95dee11f572"),
    ], ids=["two-strands", "vertical", "two-labels", "skipping", "2-2-2"])
    def test_decisions_pinned(self, build, digest):
        # every decision of every vertex and generator, refusals and
        # their reasons included, for the table's curve and a fresh copy;
        # the family pass and is_admissible share their rules, so this
        # is what checks those rules on their own
        if build == "skipping":
            config, _ = TestFusedPass.skipping_setup()
            graph, bound = TestFusedPass.skipping_build(), 1
        elif build == "2-2-2":
            config = standard_configuration(2)
            graph, bound = build_complex(config, 2, 2), 2
        else:
            config = standard_configuration(1)
            graph, bound = build_complex(config, 3, 3, seed=surface.structure(
                config.model, TestSeededBuilds.SEEDS[build])), 3
        grafts = _generators(complex_graph._grafts(config, bound))
        decided = hashlib.sha256()
        for struct in graph.vertices.values():
            for _, gamma in grafts:
                fresh = Component(gamma.content, gamma.charts,
                                  gamma.multiplicity)
                for curve in (gamma, fresh):
                    adm = surface.is_admissible(curve, struct)
                    decided.update(repr(tuple(getattr(adm, name) for name
                                              in self.FIELDS)).encode())
        assert decided.hexdigest() == digest


class TestOrientationFree:
    """Edges are grafts along unoriented curves: a curve and its
    reversal give the same move from every vertex."""

    def test_reversed_curve_same_graft(self):
        config = standard_configuration(2)
        graph = build_complex(config, 2, 2)
        grafts = _generators(complex_graph._grafts(config, 2))
        assert (len(graph.vertices), len(grafts)) == (71, 9)

        def landing(struct, gamma):
            try:
                return surface.graft_along(struct, gamma).key()
            except NotAdmissible:
                return None

        admitted = 0
        for struct in graph.vertices.values():
            for _, gamma in grafts:
                key = landing(struct, gamma)
                assert key == landing(struct, reversed_curve(gamma))
                admitted += key is not None
        assert admitted > 0


def _destinations(config, struct, grafts):
    """Each move of struct with the structure it builds."""
    (_, elementary), (_, moves) = complex_graph._expand(
        config, struct, struct.identity(), grafts)
    table = _generator_table(config, grafts)
    curves = _curve_table(config, grafts)
    return [(table[g], complex_graph._destination(struct, table[g],
                                                  curves[g]))
            for g, _ in elementary + moves]


def _moves(config, struct, grafts):
    return {(desc, result.key())
            for desc, result in _destinations(config, struct, grafts)}


class TestKeyCongruence:
    """Vertices are identified by canonical key alone, a projection that
    forgets how the totals split into components. On the reachable set
    it must still determine the moves: wherever a move lands on a vertex
    with components other than the vertex's representative, both expand
    to the same (move, key) pairs."""

    @pytest.mark.parametrize("charts,bound,depth,expected", [
        (1, 6, 4, 43),
        (3, 2, 3, 38),
    ])
    def test_same_key_same_moves(self, charts, bound, depth, expected):
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        grafts = complex_graph._grafts(config, bound)
        checked = 0
        for struct in graph.vertices.values():
            for desc, result in _destinations(config, struct, grafts):
                rep = graph.vertices.get(result.key())
                if rep is None or result.real_curves == rep.real_curves:
                    continue
                checked += 1
                assert _moves(config, result, grafts) == \
                    _moves(config, rep, grafts), (desc, result.key())
        assert checked == expected


class TestExports:
    @pytest.mark.parametrize("build,export,digest", [
        ((1, 8, 4), "to_json_bytes", "5acfe63155a77960458a7e89644e6b7a"
                                     "a1442647c8fac609b78abd715e9af1fe"),
        ((1, 8, 4), "to_dot", "9f85646e8232d2d716a61895240c1886"
                              "695308d423095578a8134a828b3e32c6"),
        ((2, 4, 3), "to_json_bytes", "4836e84c66e2ef41be74243326974341"
                                     "ab4f5da49f689cec5dae88851fb05df7"),
        ((2, 4, 3), "to_dot", "aefabc87dfb021cc6a4da0b191575ed1"
                              "ad4481117fc87fb20ea82d2fc5f59eaf"),
        ((3, 2, 3), "to_json_bytes", "3ac7dbfd9cd176536e2659898919e6d5"
                                     "21ad9b00e623a3cceaf130ac7e1ec983"),
        ((3, 2, 3), "to_dot", "6a1b836d567e964550bd924ebb008e22"
                              "54a612170b6f2f4d696a7caa39ba5b04"),
        ("witness", "to_json_bytes", "1d9913939c7886c1f6bd4ae5523b753d"
                                     "7f6e678ea9487f044f3ee42e3a6a5a03"),
    ])
    def test_pinned_export_digest(self, build, export, digest):
        # (charts, twist bound, depth) of build_complex, or the witness
        # graph at l0 = 1, twist bound 8
        if build == "witness":
            graph = witness_graph(standard_configuration(), 1, 8)
        else:
            charts, bound, depth = build
            graph = build_complex(standard_configuration(charts), bound,
                                  depth)
        data = getattr(graph, export)()
        if isinstance(data, str):
            data = data.encode()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("build", ["witness", (1, 3, 2), (2, 4, 3)])
    def test_hand_built_graph_exports(self, build):
        # a graph built from a plain vertex dict and a tuple of Edges, as
        # its signature names them, equals the built one and exports
        # byte for byte as it does; it keeps a read-only copy of the dict,
        # so a write fails and leaves the counts alone
        if build == "witness":  # itself built from a vertex dict and Edges
            graph = witness_graph(standard_configuration(), 1, 8)
        else:
            charts, bound, depth = build
            graph = build_complex(standard_configuration(charts), bound,
                                  depth)
        twin = complex_graph.ComplexGraph(
            dict(graph.vertices), tuple(graph.edges), graph.twist_bound,
            graph.depth, graph.seed_key)
        assert twin == graph
        assert twin.rank_by_kind() == graph.rank_by_kind()
        assert twin.to_json_bytes() == graph.to_json_bytes()
        assert twin.to_dot() == graph.to_dot()
        counts = twin.cycle_rank(), len(twin.vertices)
        with pytest.raises(TypeError):
            twin.vertices["junk"] = None
        assert (twin.cycle_rank(), len(twin.vertices)) == counts

    @pytest.mark.parametrize("output,digest", [
        ("goldman", "11bda563896b85eb18190c9af6b0ee5e"
                    "2ea79d1ff7ae294245d04cb573c49998"),
        ("iterated", "e5a1fcbc0584f6e18734fa455b25e527"
                     "bf9a195cc29c911a2589b2a75b4bff8c"),
        ("two_meridian", "837f53694ed6bf29fdfe956acd460ee1"
                         "efbc76a463a2284ef4eb0101c5d06137"),
        ("dehn_twist", "466d856557ac67af1a93e98707eaf662"
                       "55a65f58b32e74a8ccfb99294a230cea"),
        ("fan", "f50426e27015c2bf6d9c71d942779fef"
                "d7afad961ba8409c9aea15c15d6a72c5"),
        ("witness", "08d37d25f923c3aa640e4dfd49227ab5"
                    "bbe582f06439093a936b681a11baa020"),
    ])
    def test_pinned_identity_digest(self, output, digest):
        # the identity suites at the sizes the benchmark runs them
        suites = {"goldman": {"trials": 400, "seed": 7},
                  "iterated": {"l0": 1, "twist_bound": 30},
                  "two_meridian": {"k_max": 10},
                  "dehn_twist": {"k_max": 30}}
        config = standard_configuration()
        if output == "fan":
            fan = standard_fan(config, "a", 30, 7)
            data = repr((fan.common_key, fan.rows, fan.passed)).encode()
        elif output == "witness":
            data = witness_graph(config, 1, 30).to_json_bytes()
        else:
            report = verify_suite(output, **suites[output])
            data = json.dumps(report.to_json_obj(), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("witness", [False, True],
                             ids=["complex", "witness"])
    def test_vertex_map_keyed_by_structure_key(self, witness):
        config = standard_configuration(1 if witness else 2)
        graph = (witness_graph(config, 1, 3) if witness
                 else build_complex(config, 2, 2))
        assert graph.vertices
        for key, struct in graph.vertices.items():
            assert struct.key() == key
    def test_json_export_shape(self):
        graph = build_complex(standard_configuration(), 2, 1)
        data = json.loads(graph.to_json_bytes())
        assert data["schema"] == 1
        assert data["stats"]["vertices"] == len(graph.vertices)
        assert data["stats"]["cycle_rank"] == graph.cycle_rank()
        ids = {v["id"] for v in data["vertices"]}
        assert ids == set(range(len(graph.vertices)))
        for edge in data["edges"]:
            assert edge["src"] in ids and edge["dst"] in ids
            assert edge["kind"] in ("graft", "elementary")

    def test_dot_export_structure(self):
        graph = build_complex(standard_configuration(), 2, 1)
        dot = graph.to_dot()
        lines = dot.strip().splitlines()
        assert lines[0] == "graph complex {"
        assert lines[-1] == "}"
        vertex_lines = [ln for ln in lines if "[label=" in ln
                        and " -- " not in ln]
        edge_lines = [ln for ln in lines if " -- " in ln]
        assert len(vertex_lines) == len(graph.vertices)
        assert len(edge_lines) == len(graph.edges)
        assert dot.count("{") == dot.count("}")

    @pytest.mark.parametrize("chart", ['a"b', "a\\b"],
                             ids=["quote", "backslash"])
    def test_dot_labels_escaped(self, chart):
        model = surface.SurfaceModel(2, "rho", (chart,))
        config = surface.validate_configuration(
            model, surface.component("lambda", {chart: (2, 0)}),
            surface.component("gamma", {chart: (1, 0)}))
        graph = build_complex(config, 1, 1)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        labels = []
        for line in graph.to_dot().splitlines()[1:-1]:
            match = re.fullmatch(
                rf"  v\d+ (?:-- v\d+ )?\[label={quoted}\];", line)
            assert match, line
            if " -- " in line:
                labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
        assert sorted(labels) == sorted(
            complex_graph._label(e.kind, e.chart, e.n) for e in graph.edges)
        assert any(chart in label for label in labels)

    @pytest.mark.parametrize("chart", ['a"b', "a\\b", "é", None],
                             ids=["quote", "backslash", "accent", "witness"])
    def test_json_export_is_the_dumped_reference(self, chart):
        if chart is None:
            graph = witness_graph(standard_configuration(), 1, 8)
        else:
            model = surface.SurfaceModel(2, "rho", (chart,))
            config = surface.validate_configuration(
                model, surface.component("lambda", {chart: (2, 0)}),
                surface.component("gamma", {chart: (1, 0)}))
            graph = build_complex(config, 2, 2)
        keys = sorted(graph.vertices)
        ids = {k: i for i, k in enumerate(keys)}
        reference = {
            "schema": 1,
            "kind": "grafting-complex",
            "twist_bound": graph.twist_bound,
            "depth": graph.depth,
            "seed": graph.seed_key,
            "vertices": [{"id": i, "key": k} for i, k in enumerate(keys)],
            "edges": [{"src": s, "dst": d, "kind": k, "chart": c, "n": n}
                      for s, d, k, c, n in sorted(
                          (ids[e.src], ids[e.dst], e.kind, e.chart, e.n)
                          for e in graph.edges)],
            "stats": {"vertices": len(graph.vertices),
                      "edges": len(graph.edges),
                      "cycle_rank": graph.cycle_rank(),
                      "rank_by_kind": graph.rank_by_kind()},
        }
        data = graph.to_json_bytes()
        assert data == json.dumps(reference, sort_keys=True,
                                  separators=(",", ":")).encode("ascii")
        assert graph.to_json_obj() == json.loads(data)
        if chart is not None:
            assert any(e.chart == chart for e in graph.edges)

    def test_repeat_builds_identical(self):
        config = standard_configuration()
        first = build_complex(config, 3, 2)
        second = build_complex(config, 3, 2)
        assert first.to_json_bytes() == second.to_json_bytes()
        assert first.to_dot() == second.to_dot()


class TestEdgeList:
    """graph.edges reads as the tuple of Edges, in discovery order, that
    the builds gave when they kept one: pinned by the sha256 of its repr
    and of a few reads (first, last, by negative index, two slices)."""

    @staticmethod
    def _graph(build):
        config = standard_configuration(1)
        if build == "skipping":
            return TestFusedPass.skipping_build()
        if build == "witness":
            return witness_graph(config, 1, 4)
        if isinstance(build, int):
            return build_complex(config, 3, 3, seed=surface.structure(
                config.model, TestSeededBuilds.SEEDS[build]))
        charts, bound, depth = build
        return build_complex(standard_configuration(charts), bound, depth)

    @pytest.mark.parametrize("build,count,digest,reads", [
        ((1, 3, 1), 9,
         "8ce1c290fd805d2101952cd605098027e228286383aca80d23449b0b7935a6eb",
         "0d1909b112c45316d5581052292814dc581a026303a28e108e4c6bf543eacb7b"),
        ((1, 8, 4), 1912,
         "0a5625949b24b519a08e59b29c38771b8f4206a6823fe266daefa99bdb68793d",
         "383ebb8084ec10031c3e7be8c6341ad154f13cc766f9983c4a36b16fdce19592"),
        ((2, 4, 3), 2739,
         "bf9da1502324089f5db6b6fae2f308c9197d5b2e0715fbdcf25a36f775a71f5e",
         "bd7111cfdee509eabc3245b617c8ee48ae5c85c79ac37844bae5ebf4052bf7c5"),
        ((3, 2, 3), 2103,
         "92186625b99a292f3bdc36106349a9c69b8e32eb0865ae212a04ffd6bef4fdd4",
         "d4ed565a5a4218f1cfc24f6a1cdb64d82d27d855c677dd6ef3a5e9f73908172e"),
        (0, 185,
         "0403f7ca7ad10403d02e36db04b1cb95e1151e96c9acbd49e05b83935e68dfd2",
         "d497b851cd86ee7f93a02b46bdde76ba3f1fbf49ff8142f9f8f69a13c2abc38e"),
        (1, 140,
         "5c8bd13ba42a807e1494942e23187a9d34617fe0be4106a52e65fc0e2f583dce",
         "643e2c198ba2db46c2fa6de5b397f2bd9846ca4453680dbc6411e683696e4ccb"),
        (2, 187,
         "97fe818a6522049b3314bd129ec93c1a24be5043f3f719c7fb69d795c89a1b16",
         "fb456b32886ec8657b03891ae21a31e3b2cd2e65913add2e11182d6e48b4a0ff"),
        ("skipping", 16,
         "de7a2bbf6929c6dc1c93774e985e1eeb1c995733f396bc05bc44d2a654e83149",
         "6ae9626a8b229e9948e248ec66903e14a5c3ab2c5db10b9003ee25b746a5026f"),
        ("witness", 18,
         "1090691457e3bbe3a6c4f6ebbde20e3fd63d23227f88757429a72d6862b26954",
         "c00c0b3296ed10f5876e668752316ebb15916d9850c9c7a85032c55b42dba973"),
    ], ids=["1-3-1", "1-8-4", "2-4-3", "3-2-3", "two-strands", "vertical",
            "two-labels", "skipping", "witness"])
    def test_edges_pinned(self, build, count, digest, reads):
        edges = self._graph(build).edges
        assert len(edges) == count
        listed = tuple(edges)
        assert hashlib.sha256(repr(listed).encode()).hexdigest() == digest
        spots = (edges[0], edges[-1], edges[-count], edges[3:-2:5],
                 edges[::-7])
        assert hashlib.sha256(repr(spots).encode()).hexdigest() == reads
        assert edges == listed and listed == edges
        assert edges != listed[:-1] and list(edges) == list(listed)
        assert all(isinstance(e, complex_graph.Edge) for e in listed)
        with pytest.raises(IndexError):
            edges[count]

    def test_depth_zero_has_no_edges(self):
        edges = build_complex(standard_configuration(1), 3, 0).edges
        assert edges == () and len(edges) == 0
        assert edges[:] == () and tuple(edges) == ()
        with pytest.raises(IndexError):
            edges[-1]


class TestWitnesses:
    @pytest.mark.parametrize("l0", [0, 1, 2, -3])
    def test_full_range_found(self, l0):
        config = standard_configuration()
        witnesses = common_grafts(config, l0, 5)
        assert len(witnesses) == 11
        assert [w.m for w in witnesses] == list(range(-5, 6))

    def test_twist_budget_relation(self):
        config = standard_configuration()
        for w in common_grafts(config, 3, 4):
            assert w.k + w.l == 2 * w.m

    def test_trivial_instance(self):
        # untwisted pair: both pipelines are the plain graft
        config = standard_configuration()
        (witness,) = common_grafts(config, 0, 0)
        assert witness.m == 0 and witness.k == 0
        from graftkit import graft_along
        assert witness.key == graft_along(config.base_structure(),
                                          config.gamma).key()

    def test_witness_graph_export(self):
        # two base structures, one vertex per witness, two edges each
        config = standard_configuration()
        graph = witness_graph(config, 1, 3)
        assert len(graph.vertices) == 2 + 7
        assert len(graph.edges) == 2 * 7
        assert graph.to_json_bytes() == witness_graph(
            config, 1, 3).to_json_bytes()

    @pytest.mark.parametrize("search", [common_grafts, witness_graph],
                             ids=["common_grafts", "witness_graph"])
    def test_negative_twist_bound_checks_nothing(self, search):
        # a search of no twists is an input error, not an empty result;
        # at 0 it still checks m = 0
        with pytest.raises(ValueError, match=re.escape(
                "the witness search checks nothing at twist_bound=-1")):
            search(standard_configuration(), 1, -1)
        assert search(standard_configuration(), 1, 0)

    def test_witness_vertices_read_only(self):
        # a witness graph's vertex map is the built graph's kind, so it is
        # frozen too: a write fails and leaves the counts and export alone
        graph = witness_graph(standard_configuration(), 1, 2)
        before = graph.cycle_rank(), graph.to_json_bytes()
        assert type(graph.vertices) is complex_graph._Vertices
        assert type(graph.vertices) is type(build_complex(
            standard_configuration(), 1, 1).vertices)
        with pytest.raises(TypeError):
            graph.vertices["junk"] = None
        assert (graph.cycle_rank(), graph.to_json_bytes()) == before


class TestFan:
    def test_standard_fan_collapses(self):
        config = standard_configuration()
        report = standard_fan(config, "a", 6, 3)
        assert report.passed
        assert len(report.rows) == 7
        assert report.common_key is not None

    def test_degenerate_single_member(self):
        config = standard_configuration()
        report = standard_fan(config, "a", 0, 0)
        assert report.passed and len(report.rows) == 1

    def test_negative_size_checks_nothing(self):
        # a fan of no members is an input error, not a failed fan
        with pytest.raises(ValueError, match=re.escape(
                "the fan checks nothing at fan_size=-1")):
            standard_fan(standard_configuration(), "a", -1, 0)

    def test_passed_reads_the_common_key(self):
        rows = [(0, 1, "k0"), (1, 0, "k1")]
        assert not FanReport(None, rows).passed
        assert FanReport("k0", rows[:1]).passed


class TestSuites:
    def test_known_names(self):
        assert suite_names() == ("dehn_twist", "flatsharp", "goldman",
                                 "iterated", "oracle", "sharp_flat",
                                 "two_meridian")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownSuite):
            verify_suite("nonsense")

    def test_rejected_parameters_are_input_errors(self):
        # named in one ValueError, before the suite runs; a TypeError
        # from inside a suite that takes every parameter passes through
        with pytest.raises(ValueError,
                           match=r"^suite 'flatsharp' does not take: "
                                 r"seed, trials$"):
            verify_suite("flatsharp", trials=3, seed=1, k_max=2)
        with pytest.raises(TypeError):
            verify_suite("flatsharp", k_max="2")

    @pytest.mark.parametrize("name,param", [
        ("sharp_flat", "k_max"), ("iterated", "twist_bound"),
        ("goldman", "trials")])
    def test_negative_size_checks_nothing(self, name, param):
        # at 0 each still checks one case (k = 0, m = 0, the odd
        # multiplicity), below it none
        with pytest.raises(ValueError, match=re.escape(
                f"suite {name!r} checks nothing at {param}=-1")):
            verify_suite(name, **{param: -1})
        report = verify_suite(name, **{param: 0})
        assert report.passed and report.instances

    @pytest.mark.parametrize("name,params", [
        ("flatsharp", {}),
        ("sharp_flat", {"k_max": 4}),
        ("dehn_twist", {"k_max": 3}),
        ("iterated", {"l0": 1, "twist_bound": 4}),
        ("two_meridian", {"k_max": 3}),
        ("goldman", {"trials": 25, "seed": 7}),
        ("oracle", {"sweep": 2}),
    ])
    def test_suites_pass(self, name, params):
        report = verify_suite(name, **params)
        assert report.passed, [i for i in report.instances if not i.ok]

    @pytest.mark.parametrize("seed", range(20))
    def test_goldman_draws_as_randint_draws(self, seed):
        # the goldman suite's multicurves come from the stream that
        # rng.randint would draw them from, and leave it where it would
        model = surface.SurfaceModel(4, "rho", tuple(f"c{i}" for i in
                                                     range(6)))
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            n = theirs.randint(1, len(model.charts))
            comps = []
            for i, chart in enumerate(theirs.sample(list(model.charts), n)):
                while True:
                    p, q = theirs.randint(-5, 5), theirs.randint(-5, 5)
                    if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                        break
                comps.append(surface.component(f"w{i}", {chart: (p, q)},
                                               2 * theirs.randint(1, 4)))
            assert suites._random_even_multicurve(ours, model) == \
                tuple(comps)
        assert ours.getstate() == theirs.getstate()

    def test_goldman_deterministic_under_seed(self):
        one = verify_suite("goldman", trials=10, seed=3)
        two = verify_suite("goldman", trials=10, seed=3)
        assert one.to_json_obj() == two.to_json_obj()

    def test_report_lines_and_json(self):
        report = verify_suite("flatsharp", k_max=3)
        lines = report.lines()
        assert len(lines) == 4
        assert lines[-1].startswith("suite flatsharp: pass")
        data = report.to_json_obj()
        assert data["passed"] is True
        assert len(data["instances"]) == 3
