"""Graph enumeration, witness search, fan collapse, and named suites."""

import hashlib
import json
import re

import pytest

from graftkit import (
    BadConfiguration,
    Component,
    NotAdmissible,
    complex_graph,
    surface,
    UnknownSuite,
    build_complex,
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


class TestComputedOnce:
    """The BFS computes each fact once: one admissibility check per
    graft and one canonical key per structure object."""

    def test_one_admissibility_check_per_graft(self, monkeypatch):
        counts = {"is_admissible": 0, "graft_along": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(surface, "is_admissible",
                            counting("is_admissible", surface.is_admissible))
        monkeypatch.setattr(complex_graph, "graft_along",
                            counting("graft_along", surface.graft_along))
        build_complex(standard_configuration(2), 4, 3)
        assert counts["graft_along"] > 0
        assert counts["is_admissible"] == counts["graft_along"]

    def test_one_key_per_structure(self, monkeypatch):
        keyed = []
        original = surface.canonical_key

        def recording(curve, model):
            keyed.append(curve)  # keeps each curve alive, so ids stay unique
            return original(curve, model)

        monkeypatch.setattr(surface, "canonical_key", recording)
        graph = build_complex(standard_configuration(2), 4, 3)
        assert len(keyed) >= len(graph.vertices)
        assert len({id(curve) for curve in keyed}) == len(keyed)

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


def reversed_curve(comp):
    return Component(comp.content,
                     tuple((name, -cls) for name, cls in comp.charts),
                     comp.multiplicity)


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


def _moves(config, struct, grafts):
    return {(desc, result.key())
            for desc, result in complex_graph._expand(config, struct, grafts)}


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
            for desc, result in complex_graph._expand(config, struct,
                                                      grafts):
                rep = graph.vertices.get(result.key())
                if rep is None or (result.real_curves.components
                                   == rep.real_curves.components):
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
