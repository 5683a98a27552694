"""An independent check of the breadth-first search: on a standard
configuration the key graph is a walk on a lattice.

A vertex is (g, chart totals), g the number of grafts so far. A graft
T^n at a chart adds (2, 2n) to that chart's total and (2, 0) to every
other chart's; the untwisted graft adds (2, 0) to each. An elementary
move exists only at g = 0, where the meridian meets the real curve twice
in every chart, and adds (0, +-2) in one chart. Nothing here reads the
grafting calculus: the model renders keys with json.dumps and runs the
search build_complex runs, so a change to the search or to the calculus
that moves a vertex or an edge shows as a difference.
"""

import ast
import json
from pathlib import Path

import pytest

from graftkit import build_complex, standard_configuration


def _key(charts, vertex):
    g, totals = vertex
    content = [["gamma", 2 * g], ["lambda", 1]] if g else [["lambda", 1]]
    return json.dumps({"charts": dict(zip(charts, totals)),
                       "content": content},
                      sort_keys=True, separators=(",", ":"))


def _moves(charts, twist_bound, vertex):
    """(kind, chart, n) and destination, in the order build_complex
    expands them: elementary moves, the untwisted graft, then per chart
    the twisted grafts."""
    g, totals = vertex
    if g == 0:
        for i, chart in enumerate(charts):
            for n in (1, -1):
                twisted = list(totals)
                twisted[i] = (totals[i][0], totals[i][1] + 2 * n)
                yield ("elementary", chart, n), (g, tuple(twisted))
    yield ("graft", "", 0), (g + 1, tuple((p + 2, q) for p, q in totals))
    for i, chart in enumerate(charts):
        for n in range(-twist_bound, twist_bound + 1):
            if n:
                yield ("graft", chart, n), (g + 1, tuple(
                    (p + 2, q + 2 * n if j == i else q)
                    for j, (p, q) in enumerate(totals)))


def lattice_walk(num_charts, twist_bound, depth):
    """The sorted vertex keys and the numbered (src, dst, kind, chart, n)
    edge rows of the walk: the same sorted-frontier search, with each
    elementary move and its inverse stored once, from the endpoint
    expanded first."""
    charts = tuple(chr(ord("a") + i) for i in range(num_charts))
    seed = (0, ((2, 0),) * num_charts)
    keys = {seed: _key(charts, seed)}
    frontier, edges, seen = [(keys[seed], seed)], [], set()
    for level in range(depth):
        next_frontier = []
        for src, vertex in sorted(frontier):
            for (kind, chart, n), dst_vertex in _moves(charts, twist_bound,
                                                       vertex):
                if dst_vertex not in keys:
                    keys[dst_vertex] = _key(charts, dst_vertex)
                    if level < depth - 1:
                        next_frontier.append((keys[dst_vertex], dst_vertex))
                dst = keys[dst_vertex]
                if kind == "elementary":
                    pair = (min(src, dst), max(src, dst), chart)
                    if pair in seen:
                        continue
                    seen.add(pair)
                edges.append((src, dst, kind, chart, n))
        frontier = next_frontier
    ordered = sorted(keys.values())
    ids = {key: i for i, key in enumerate(ordered)}
    return ordered, sorted((ids[s], ids[d], kind, chart, n)
                           for s, d, kind, chart, n in edges)


@pytest.mark.parametrize("num_charts,twist_bound,depth", [
    (1, 8, 4), (2, 4, 3), (3, 2, 3), (1, 3, 2), (2, 2, 4), (4, 1, 3),
    (2, 3, 0), (1, 0, 3)])
def test_build_is_the_lattice_walk(num_charts, twist_bound, depth):
    graph = build_complex(standard_configuration(num_charts), twist_bound,
                          depth)
    keys, rows = lattice_walk(num_charts, twist_bound, depth)
    assert sorted(graph.vertices) == keys
    exported = graph.to_json_obj()
    assert [v["key"] for v in exported["vertices"]] == keys
    assert [(e["src"], e["dst"], e["kind"], e["chart"], e["n"])
            for e in exported["edges"]] == rows


def test_model_imports_nothing_from_surface():
    """The model is independent of the calculus it checks: from the
    package it takes only the search and the standard configuration."""
    taken = set()
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("graftkit")
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("graftkit"):
            assert node.module == "graftkit"
            taken.update(alias.name for alias in node.names)
    assert taken == {"build_complex", "standard_configuration"}
