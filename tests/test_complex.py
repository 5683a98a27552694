"""Graph enumeration, witness search, fan collapse, and named suites."""

import dataclasses
import hashlib
import json
import logging
import re

import pytest

from graftkit import (
    BadConfiguration,
    Component,
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
        # curve when it prepares the generators
        config = standard_configuration()
        gamma = surface.component("g", {"a": (1, 0), "zz": (1, 3)})
        config = surface.validate_configuration(config.model, config.lam,
                                                gamma)
        with pytest.raises(UnknownChart, match="'zz'"):
            build_complex(config, 1, 1)

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


def _record_renderings(monkeypatch) -> list:
    """Every key rendered from here on, under both names it is called
    by."""
    rendered = []
    render = surface._render

    def recording(identity, model):
        rendered.append(render(identity, model))
        return rendered[-1]

    for module in (surface, complex_graph):
        monkeypatch.setattr(module, "_render", recording)
    return rendered


class TestComputedOnce:
    """The BFS computes each fact once: one graft decision per structure
    and generator, a structure built and keyed only for a new vertex."""

    def test_one_admissibility_check_per_graft(self, monkeypatch):
        decided, grafted, twisted = [], [], []
        decide, graft = surface.is_admissible, complex_graph._graft
        twist = complex_graph.twist_about_meridian

        def deciding(gamma, struct):
            decided.append((struct, gamma))
            return decide(gamma, struct)

        def grafting(adm):
            grafted.append(adm.source)
            return graft(adm)

        def twisting(obj, chart, n):
            if isinstance(obj, surface.Structure):
                twisted.append(obj)
            return twist(obj, chart, n)

        # both names, so a second decision anywhere would be counted
        monkeypatch.setattr(surface, "is_admissible", deciding)
        monkeypatch.setattr(complex_graph, "is_admissible", deciding)
        monkeypatch.setattr(complex_graph, "_graft", grafting)
        monkeypatch.setattr(complex_graph, "twist_about_meridian", twisting)
        config = standard_configuration(2)
        depth = 3
        graph = build_complex(config, 4, depth)
        built = len(grafted), len(twisted)
        grafts = complex_graph._grafts(config, 4)
        levels = _levels(graph)
        assert set(levels) == set(graph.vertices)
        expanded = {id(graph.vertices[key]) for key, level in levels.items()
                    if level < depth}
        assert len(decided) == len(expanded) * len(grafts)
        assert {id(struct) for struct, _ in decided} == expanded
        assert len({(id(s), id(g)) for s, g in decided}) == len(decided)
        # a destination is built only for a new vertex, by the edge that
        # first reaches it, and the last level's only when read
        first = {}
        for e in graph.edges:
            first.setdefault(e.dst, e.kind)
        first.pop(graph.seed_key, None)
        assert len(first) == len(graph.vertices) - 1
        inner = [kind for key, kind in first.items() if levels[key] < depth]
        assert built == (inner.count("graft"), inner.count("elementary"))
        assert min(built) > 0
        kinds = sorted(first.values())
        for _ in range(2):
            for key in graph.vertices:
                graph.vertices[key]
            assert len(grafted) == kinds.count("graft") > inner.count("graft")
            assert len(twisted) == kinds.count("elementary") > \
                inner.count("elementary")

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

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_rendered_key_is_the_curves_key(self, charts, bound, depth):
        # and a structure holds its curves and key, no search state
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        for key, struct in graph.vertices.items():
            assert key == canonical_key(struct.real_curves, config.model)
        assert [f.name for f in dataclasses.fields(surface.Structure)] == \
            ["model", "real_curves", "_key"]

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
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.edges = ()

    def test_witness_graph_grafts_once(self, monkeypatch):
        # two grafts per m, one per pipeline; the graph reuses them
        calls = []
        original = complex_graph.graft_along

        def counting(struct, gamma):
            calls.append(gamma)
            return original(struct, gamma)

        monkeypatch.setattr(complex_graph, "graft_along", counting)
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
        assert len(calls) == 4732

    def test_generators_prepared_once_per_build(self, monkeypatch):
        config = standard_configuration(2)
        generators = len(complex_graph._grafts(config, 4))
        prepared, computed = [], []
        prepare = complex_graph._prepare
        graft_content = surface._graft_content

        def preparing(curve, model):
            prepared.append(curve)
            return prepare(curve, model)

        def recording(content, curve):
            computed.append(content)
            return graft_content(content, curve)

        monkeypatch.setattr(complex_graph, "_prepare", preparing)
        for module in (surface, complex_graph):
            monkeypatch.setattr(module, "_graft_content", recording)
        gamma = vars(config.gamma).copy()
        depth = 3
        graph = build_complex(config, 4, depth)
        assert len(prepared) == generators
        # the grafted content is worked out once per expanded structure,
        # from that structure's content
        expanded = [graph.vertices[key].identity()[0]
                    for key, level in _levels(graph).items() if level < depth]
        assert sorted(computed) == sorted(expanded)
        # nothing is kept on a caller's curve
        assert vars(config.gamma) == gamma
        curve = surface.twist_about_meridian(config.gamma, "a", 1)
        before = vars(curve).copy()
        assert surface.is_admissible(curve, config.base_structure())
        assert vars(curve) == before


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


SIZES = [(1, 3, 0), (1, 3, 1), (1, 8, 4), (2, 4, 3), (3, 2, 3)]


class TestDeferredVertices:
    """A last-level vertex's structure is built on its first read of
    graph.vertices; keys, counts, ranks and exports read none."""

    @pytest.mark.parametrize("charts,bound,depth", SIZES)
    def test_keys_only_reads_build_nothing(self, charts, bound, depth,
                                           monkeypatch):
        built = _count_builds(monkeypatch)
        graph = build_complex(standard_configuration(charts), bound, depth)
        levels = _levels(graph)
        assert len(built) == sum(0 < level < depth
                                 for level in levels.values())
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
        # the edge that first reaches a vertex is the move that built it
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        first = {}
        for e in graph.edges:
            first.setdefault(e.dst, e)
        first.pop(graph.seed_key, None)
        assert len(first) == len(graph.vertices) - 1
        for key, edge in first.items():
            assert _replay(config, graph, edge).real_curves == \
                graph.vertices[key].real_curves

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
        h = hashlib.sha256()
        for key, struct in graph.vertices.items():
            h.update(repr((key, struct.real_curves)).encode())
        assert h.hexdigest() == digest

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
        level_one = sum(level == 1 for level in _levels(graph).values())
        built = _count_builds(monkeypatch)
        assert cli.main(["complex", str(path), "--depth", "2",
                         "--twist-bound", "2", "--format", fmt,
                         "--output", str(out)]) == 0
        assert len(built) == level_one
        assert out.read_bytes() == (data if fmt == "json"
                                    else data.encode())
        assert capsys.readouterr().out.startswith(
            f"vertices={len(graph.vertices)} edges={len(graph.edges)} ")


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
        twists = 0
        for struct in graph.vertices.values():
            for _, gamma in grafts:
                # every graft is admitted at these sizes
                # (test_rejection_reasons covers rejections)
                adm = surface.is_admissible(gamma, struct)
                assert surface._render(adm.identity, model) == \
                    surface.graft_along(struct, gamma).key()
            for (kind, chart, n), identity, adm in complex_graph._expand(
                    config, struct, struct.identity(), grafts):
                if kind == "elementary":
                    twists += 1
                    assert adm is None
                    assert surface._render(identity, model) == \
                        surface.twist_about_meridian(struct, chart, n).key()
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
        moves = complex_graph._expand(config, struct, struct.identity(), [])
        assert len(moves) == twists
        for (kind, chart, n), identity, adm in moves:
            assert kind == "elementary" and adm is None
            assert surface._render(identity, model) == \
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
        data = self.skipping_build().to_json_bytes()
        # a logged skip names the source by the key it keeps
        assert sorted(rendered) == sorted(quiet.vertices)
        assert data == quiet.to_json_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "d34f49a15e6faafb9c35ea5ea81a4ba1ac41852ee2a2e273105223a9801b69fc")
        skips = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("skipping ")]
        assert any("is not a single strand" in m for m in skips)
        assert any("no spiral direction" in m for m in skips)


class TestPreparedCurves:
    """A build prepares each generator once (surface._prepare); deciding
    the prepared curve gives the decision of the curve itself."""

    FIELDS = ("route", "reason", "crossed", "totals", "fused")

    def assert_fresh_decision(self, prepared, struct):
        fresh = Component(prepared.content, prepared.charts,
                          prepared.multiplicity)
        assert fresh._prepared is None
        got = surface.is_admissible(prepared, struct)
        want = surface.is_admissible(fresh, struct)
        for name in self.FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        if want:
            assert got.identity == want.identity
        return want

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
            for _, gamma in grafts:
                assert gamma._prepared is not None
                want = self.assert_fresh_decision(gamma, struct)
                outcomes.add(want.route or re.sub(r".*: (grafting class"
                                                  r"|no spiral).*", r"\1",
                                                  want.reason))
        if charts is None:  # it skips every graft, for both reasons
            assert outcomes == {"grafting class", "no spiral"}
        else:
            assert "spiraling" in outcomes

    def test_prepared_for_another_chart_order(self):
        # the curve's orientation and chart positions depend on the order
        ab = surface.SurfaceModel(2, "rho", ("a", "b"))
        ba = surface.SurfaceModel(2, "rho", ("b", "a"))
        curve = surface.component("g", {"a": (1, 1), "b": (-1, 0)})
        prepared = surface._prepare(curve, ab)
        assert curve._prepared is None
        struct = surface.structure(ba, [
            surface.component("lambda", {"a": (2, 0), "b": (2, 0)})])
        assert self.assert_fresh_decision(prepared, struct).route == \
            "spiraling"


class TestOrientationFree:
    """Edges are grafts along unoriented curves: a curve and its
    reversal give the same move from every vertex."""

    def test_reversed_curve_same_graft(self):
        config = standard_configuration(2)
        graph = build_complex(config, 2, 2)
        grafts = complex_graph._grafts(config, 2)
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
    return [(desc, complex_graph._destination(struct, desc, adm))
            for desc, _, adm in complex_graph._expand(
                config, struct, struct.identity(), grafts)]


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


class TestSuites:
    def test_known_names(self):
        assert suite_names() == ("dehn_twist", "flatsharp", "goldman",
                                 "iterated", "oracle", "sharp_flat",
                                 "two_meridian")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownSuite):
            verify_suite("nonsense")

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
