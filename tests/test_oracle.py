"""Grid-oracle cross-checks: the drawn-curve engine against exact formulas."""

import hashlib
import json
from itertools import product
from math import gcd

import pytest

from graftkit import (
    DegeneratePosition,
    Mode,
    NonPrimitive,
    algebraic_intersection,
    geometric_intersection,
    resolve,
    verify_suite,
)
from graftkit import grid_oracle


def draw(a, b, copies_a=1, copies_b=1):
    return grid_oracle.draw_pair(a, copies_a, b, copies_b)


class TestDrawing:
    def test_nonprimitive_rejected(self):
        with pytest.raises(NonPrimitive):
            grid_oracle.oracle_draw((2, 4))

    def test_zero_rejected(self):
        with pytest.raises(NonPrimitive):
            grid_oracle.oracle_draw((0, 0))

    def test_total_class_counts_copies(self):
        curve = grid_oracle.oracle_draw((1, -2), copies=3)
        assert curve.total_class() == (3, -6)

    def test_coincident_copies_degenerate(self):
        first = grid_oracle.oracle_draw((1, 0), role=0)
        second = grid_oracle.oracle_draw((1, 0), role=0)
        with pytest.raises(DegeneratePosition):
            grid_oracle.crossing_list(first, second)


class TestCrossings:
    def test_basis_single_crossing(self):
        first, second = draw((1, 0), (0, 1))
        crossings = grid_oracle.crossing_list(first, second)
        assert crossings.geometric == 1
        assert crossings.algebraic == 1
        assert all(c.index in (1, -1) for c in crossings.crossings)

    def test_counts_match_exact_values(self):
        # multiplicities enter as parallel copies of the primitive class
        cases = [
            ((0, 2), ((0, 1), 2), (2, -2), ((1, -1), 2)),
            ((1, 2), ((1, 2), 1), (1, 0), ((1, 0), 1)),
            ((3, 1), ((3, 1), 1), (1, 3), ((1, 3), 1)),
            ((2, 1), ((2, 1), 1), (4, 3), ((4, 3), 1)),
        ]
        for a, (a_prim, a_copies), b, (b_prim, b_copies) in cases:
            first, second = draw(a_prim, b_prim, a_copies, b_copies)
            geo, alg = grid_oracle.oracle_intersection(first, second)
            assert alg == algebraic_intersection(a, b)
            assert geo == geometric_intersection(a, b)

    def test_algebraic_is_index_sum(self):
        first, second = draw((2, 1), (1, 3))
        crossings = grid_oracle.crossing_list(first, second)
        assert crossings.algebraic == sum(c.index
                                          for c in crossings.crossings)


class TestResolution:
    def test_flat_components_frozen(self):
        first, second = draw((0, 1), (1, -1), 2, 2)
        comps = grid_oracle.oracle_resolve(first, second, Mode.FLAT)
        assert tuple(comps) == ((1, 0), (1, 0))

    def test_sharp_components_frozen(self):
        first, second = draw((0, 1), (1, -1), 2, 2)
        comps = grid_oracle.oracle_resolve(first, second, Mode.SHARP)
        assert tuple(comps) == ((-1, 2), (-1, 2))

    def test_basis_sharp_single_component(self):
        first, second = draw((1, 0), (0, 1))
        assert tuple(grid_oracle.oracle_resolve(first, second,
                                                Mode.SHARP)) == ((1, 1),)

    def test_disjoint_union_components(self):
        first, second = draw((1, 0), (1, 0), 1, 2)
        for mode in (Mode.SHARP, Mode.FLAT):
            comps = grid_oracle.oracle_resolve(first, second, mode)
            assert tuple(comps) == ((1, 0), (1, 0), (1, 0))

    def test_totals_match_exact_resolve_small_sweep(self):
        prims = [(p, q) for p in range(-2, 3) for q in range(-2, 3)
                 if gcd(abs(p), abs(q)) == 1]
        for a in prims:
            for b in prims:
                first, second = draw(a, b)
                for mode in (Mode.SHARP, Mode.FLAT):
                    comps = grid_oracle.oracle_resolve(first, second, mode)
                    total = (sum(c.p for c in comps),
                             sum(c.q for c in comps))
                    assert total == resolve(a, b, mode), (a, b, mode)

    def test_component_count_is_gcd_of_total(self):
        # every resolution of primitive drawings splits into gcd-many
        # parallel primitive leaves
        for a, b in [((1, 0), (0, 1)), ((1, 2), (1, 0)), ((3, 1), (1, 2))]:
            first, second = draw(a, b)
            for mode in (Mode.SHARP, Mode.FLAT):
                comps = grid_oracle.oracle_resolve(first, second, mode)
                total = resolve(a, b, mode)
                expected = (gcd(abs(total.p), abs(total.q))
                            if total != (0, 0) else 0)
                if expected:
                    assert len(comps) == expected
                    assert len(set(comps)) == 1


def primitives(radius):
    return [(p, q) for p in range(-radius, radius + 1)
            for q in range(-radius, radius + 1)
            if gcd(abs(p), abs(q)) == 1]


class TestInvariants:
    def test_sweep_computes_two_crossing_lists_per_pair(self, monkeypatch):
        calls = []
        original = grid_oracle.crossing_list

        def counted(first, second):
            calls.append(1)
            return original(first, second)

        monkeypatch.setattr(grid_oracle, "crossing_list", counted)
        assert verify_suite("oracle", sweep=2).passed
        assert len(calls) == 2 * len(primitives(2)) ** 2 == 512

    def test_multi_copy_agreement(self):
        # parallel copies give several copy pairs per crossing list, all
        # over the list's one denominator
        for a in primitives(2):
            for b in primitives(2):
                for m, n in product(range(1, 4), repeat=2):
                    total_a = (m * a[0], m * a[1])
                    total_b = (n * b[0], n * b[1])
                    first, second = draw(a, b, m, n)
                    assert grid_oracle.oracle_intersection(first, second) \
                        == (geometric_intersection(total_a, total_b),
                            algebraic_intersection(total_a, total_b)), \
                        (a, m, b, n)
                    for mode in (Mode.SHARP, Mode.FLAT):
                        comps = grid_oracle.oracle_resolve(first, second,
                                                           mode)
                        total = (sum(c.p for c in comps),
                                 sum(c.q for c in comps))
                        assert total == resolve(total_a, total_b, mode), \
                            (a, m, b, n, mode)

    def test_probe_lists_match_the_wrappers(self):
        pair = grid_oracle.probe_pair((2, 1), 2, (1, -3), 1)
        assert grid_oracle.draw_pair((2, 1), 2, (1, -3), 1) == \
            (pair.first, pair.second)
        assert (pair.forward.geometric, pair.forward.algebraic) == \
            grid_oracle.oracle_intersection(pair.first, pair.second)
        for mode in (Mode.SHARP, Mode.FLAT):
            assert pair.resolve(mode) == \
                grid_oracle.oracle_resolve(pair.first, pair.second, mode)

    def test_sweep_report_pinned(self):
        obj = verify_suite("oracle", sweep=3).to_json_obj()
        digest = hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == ("7c0e045af2b9fa6e96b8add60bc59d31"
                          "3137cdeaea2e6ab6a8ed956df5372e3a")
