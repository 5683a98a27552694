"""Enumerate the structure graph and watch its cycle rank grow.

Vertices are canonical structure keys, edges are graft moves plus
elementary meridian twists. The enumeration is a bounded breadth-first
closure, deterministic for fixed inputs, so exports are byte-stable.
"""

import tempfile
from pathlib import Path

from graftkit import build_complex, standard_configuration


def main():
    config = standard_configuration()

    print("Growth of the enumerated graph at depth 2")
    print(f"  {'twist bound':>11} {'vertices':>9} {'edges':>6} {'rank':>5}")
    for bound in range(1, 7):
        graph = build_complex(config, bound, 2)
        print(f"  {bound:>11} {len(graph.vertices):>9} "
              f"{len(graph.edges):>6} {graph.cycle_rank():>5}")

    print("\nDeepening at twist bound 3")
    for depth in range(4):
        graph = build_complex(config, 3, depth)
        print(f"  depth {depth}: {len(graph.vertices)} vertices, "
              f"{len(graph.edges)} edges, rank {graph.cycle_rank()}")

    graph = build_complex(config, 3, 2)
    ranks = graph.rank_by_kind()
    print("\nRank by edge kind at bound 3, depth 2")
    for kind in ("all", "graft", "elementary"):
        print(f"  {kind:>10}: {ranks[kind]}")

    with tempfile.TemporaryDirectory() as tmp:
        dot_path = Path(tmp) / "complex.dot"
        json_path = Path(tmp) / "complex.json"
        dot_path.write_text(graph.to_dot())
        json_path.write_bytes(graph.to_json_bytes())
        again = build_complex(config, 3, 2).to_json_bytes()
        print(f"\nExports written ({dot_path.name}: "
              f"{len(dot_path.read_text())} bytes, {json_path.name}: "
              f"{len(json_path.read_bytes())} bytes)")
        print(f"rebuild is byte-identical: "
              f"{again == json_path.read_bytes()}")


if __name__ == "__main__":
    main()
