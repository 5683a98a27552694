"""Grid-oracle cross-checks: the drawn-curve engine against exact formulas."""

import hashlib
import json
import pickle
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


MODES = (Mode.SHARP, Mode.FLAT)


def probe(a, b, copies_a=1, copies_b=1):
    return grid_oracle.probe_pair(a, copies_a, b, copies_b)


def _sign(x):
    return (x > 0) - (x < 0)


class TestDrawing:
    def test_nonprimitive_rejected(self):
        with pytest.raises(NonPrimitive):
            grid_oracle.oracle_draw((2, 4))

    def test_zero_rejected(self):
        with pytest.raises(NonPrimitive):
            grid_oracle.oracle_draw((0, 0))

    def test_coincident_copies_degenerate(self):
        first = grid_oracle.oracle_draw((1, 0), role=0)
        second = grid_oracle.oracle_draw((1, 0), role=0)
        with pytest.raises(DegeneratePosition):
            grid_oracle.crossing_list(first, second)


class TestCrossings:
    def test_basis_single_crossing(self):
        pair = probe((1, 0), (0, 1))
        crossings = grid_oracle.crossing_list(pair.first, pair.second)
        assert crossings == pair.forward
        assert crossings.geometric == 1
        assert crossings.algebraic == crossings.index == 1

    def test_counts_match_exact_values(self):
        # multiplicities enter as parallel copies of the primitive class
        cases = [
            ((0, 2), ((0, 1), 2), (2, -2), ((1, -1), 2)),
            ((1, 2), ((1, 2), 1), (1, 0), ((1, 0), 1)),
            ((3, 1), ((3, 1), 1), (1, 3), ((1, 3), 1)),
            ((2, 1), ((2, 1), 1), (4, 3), ((4, 3), 1)),
        ]
        for a, (a_prim, a_copies), b, (b_prim, b_copies) in cases:
            forward = probe(a_prim, b_prim, a_copies, b_copies).forward
            assert forward.algebraic == algebraic_intersection(a, b)
            assert forward.geometric == geometric_intersection(a, b)

    def test_algebraic_is_index_sum(self):
        # every crossing of a list has the list's one index, the sign of
        # det (0 for parallel curves), so the index sum is index * count
        for a, b in [((2, 1), (1, 3)), ((1, 3), (2, 1)), ((1, 2), (1, 2))]:
            crossings = probe(a, b).forward
            d = algebraic_intersection(a, b)
            assert crossings.index == _sign(d)
            assert crossings.algebraic == \
                crossings.index * len(crossings.crossings) == d


class TestResolution:
    def test_flat_components_frozen(self):
        _, flat = probe((0, 1), (1, -1), 2, 2).smoothings()
        assert flat == ((1, 0), (1, 0))

    def test_sharp_components_frozen(self):
        sharp, _ = probe((0, 1), (1, -1), 2, 2).smoothings()
        assert sharp == ((-1, 2), (-1, 2))

    def test_basis_sharp_single_component(self):
        sharp, _ = probe((1, 0), (0, 1)).smoothings()
        assert sharp == ((1, 1),)

    def test_disjoint_union_components(self):
        assert probe((1, 0), (1, 0), 1, 2).smoothings() == \
            (((1, 0), (1, 0), (1, 0)),) * 2

    def test_totals_match_exact_resolve_small_sweep(self):
        prims = [(p, q) for p in range(-2, 3) for q in range(-2, 3)
                 if gcd(abs(p), abs(q)) == 1]
        pairs = list(product(prims, repeat=2))
        probes = grid_oracle.probe_pairs((a, 1, b, 1) for a, b in pairs)
        for (a, b), pair in zip(pairs, probes):
            for mode, comps in zip(MODES, pair.smoothings()):
                total = (sum(c.p for c in comps), sum(c.q for c in comps))
                assert total == resolve(a, b, mode), (a, b, mode)

    def test_wrong_denominator_is_caught(self):
        # a list whose denominator is off by one puts the arcs' lengths
        # off the lattice, and the trace refuses the component it closes
        first = _curve((0, 1), (5, 10), (40, 3))
        second = _curve((1, -1), (20, 7), (61, 30))
        right = grid_oracle.crossing_list(first, second)
        wrong = grid_oracle.CrossingList(right.crossings,
                                         right.denominator + 1, right.index)
        pair = grid_oracle.ProbedPair(first, second, right)
        assert [len(comps) for comps in pair.smoothings()] == [2, 2]
        # each walk of the wrong layout fails on its own
        layout = grid_oracle._layout(pair._replace(forward=wrong))
        for backward in (False, True):
            with pytest.raises(AssertionError, match="non-integral"):
                grid_oracle._trace(layout, backward)
        with pytest.raises(AssertionError, match="non-integral"):
            grid_oracle.ProbedPair(first, second, wrong).smoothings()

    def test_component_count_is_gcd_of_total(self):
        # every resolution of primitive drawings splits into gcd-many
        # parallel primitive leaves
        for a, b in [((1, 0), (0, 1)), ((1, 2), (1, 0)), ((3, 1), (1, 2))]:
            for mode, comps in zip(MODES, probe(a, b).smoothings()):
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
    def test_sweep_solves_once_per_pair_and_draws_once_per_curve(
            self, monkeypatch):
        # one crossing list serves both resolutions of a pair, and each
        # curve is drawn once per sweep
        draws, lists = [], []
        draw_curve = grid_oracle.oracle_draw
        crossing_list = grid_oracle.crossing_list

        def counted_draw(cls, copies=1, role=0, attempt=0):
            draws.append((tuple(cls), copies, role, attempt))
            return draw_curve(cls, copies, role, attempt)

        def counted_list(first, second):
            lists.append(1)
            return crossing_list(first, second)

        monkeypatch.setattr(grid_oracle, "oracle_draw", counted_draw)
        monkeypatch.setattr(grid_oracle, "crossing_list", counted_list)
        assert verify_suite("oracle", sweep=2).passed
        assert len(draws) == len(set(draws)) == 2 * len(primitives(2)) == 32
        assert len(lists) == len(primitives(2)) ** 2 == 256

    @pytest.mark.parametrize("radius,columns,windows", [
        (2, 504, 224), (5, 34632, 6240)])
    def test_translate_columns_solved(self, radius, columns, windows,
                                      monkeypatch):
        # each crossing copy pair solves its horizontal window once, then
        # one sy interval per column sx in it: |a.p| + |b.p| columns
        # here, where the box scan solved 2 * (|a.p| + |b.p| + 2) + 1
        # (2,128 at radius 2, 100,464 at radius 5). A column's solve has
        # bound R * |det|, a multiple of R; a window's has bound
        # (|a.p| + |b.p|) * R + 1, which is not.
        solves = []
        translates = grid_oracle._translates

        def counted(c, step, bound, span):
            solves.append(bound % grid_oracle._R == 0)
            return translates(c, step, bound, span)

        monkeypatch.setattr(grid_oracle, "_translates", counted)
        assert verify_suite("oracle", sweep=radius).passed
        assert (solves.count(True), solves.count(False)) == \
            (columns, windows)

    def test_one_layout_per_probed_pair(self, monkeypatch):
        # the sweep traces both smoothings of a pair on one arc layout
        layouts = []
        layout = grid_oracle._layout

        def counted(pair):
            layouts.append(pair)
            return layout(pair)

        monkeypatch.setattr(grid_oracle, "_layout", counted)
        assert verify_suite("oracle", sweep=2).passed
        assert len(layouts) == len(set(layouts)) == 256

    def test_smoothings_are_both_resolutions(self):
        # SHARP walks the second curve backwards when the torus pairing
        # is negative, FLAT when it is positive; each walk here lays the
        # arcs out afresh, so smoothings' one shared layout is checked
        probes = 0
        cases = [(a, m, b, n) for a in primitives(3) for b in primitives(3)
                 for m, n in product(range(1, 4), repeat=2)]
        for case, pair in zip(cases, grid_oracle.probe_pairs(cases)):
            d = algebraic_intersection(case[0], case[2])
            assert pair.smoothings() == tuple(
                grid_oracle._trace(grid_oracle._layout(pair), backward)
                for backward in (d < 0, d > 0)), case
            probes += 1
        assert probes == 32 * 32 * 9

    def test_multi_copy_agreement(self):
        # parallel copies give several copy pairs per crossing list, all
        # over the list's one denominator
        for a in primitives(2):
            for b in primitives(2):
                for m, n in product(range(1, 4), repeat=2):
                    total_a = (m * a[0], m * a[1])
                    total_b = (n * b[0], n * b[1])
                    pair = probe(a, b, m, n)
                    assert (pair.forward.geometric, pair.forward.algebraic) \
                        == (geometric_intersection(total_a, total_b),
                            algebraic_intersection(total_a, total_b)), \
                        (a, m, b, n)
                    for mode, comps in zip(MODES, pair.smoothings()):
                        total = (sum(c.p for c in comps),
                                 sum(c.q for c in comps))
                        assert total == resolve(total_a, total_b, mode), \
                            (a, m, b, n, mode)

    def test_probe_lists_match_the_wrappers(self):
        # draw_pair, oracle_intersection and oracle_resolve each read
        # probe_pair, crossing_list or smoothings; the index is negative,
        # positive and 0 in turn
        for a, m, b, n in [((2, 1), 2, (1, -3), 1), ((1, -3), 1, (2, 1), 2),
                           ((1, 2), 1, (1, 2), 3)]:
            pair = grid_oracle.probe_pair(a, m, b, n)
            first, second = pair.first, pair.second
            assert grid_oracle.draw_pair(a, m, b, n) == (first, second)
            assert (pair.forward.geometric, pair.forward.algebraic) == \
                grid_oracle.oracle_intersection(first, second)
            assert pair.smoothings() == tuple(
                grid_oracle.oracle_resolve(first, second, mode)
                for mode in MODES)

    def test_sweep_report_pinned(self):
        obj = verify_suite("oracle", sweep=3).to_json_obj()
        digest = hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == ("7c0e045af2b9fa6e96b8add60bc59d31"
                          "3137cdeaea2e6ab6a8ed956df5372e3a")

    def test_swapped_smoothings_are_caught(self, monkeypatch):
        # each pair's two traced totals are compared with resolve: with
        # SHARP and FLAT swapped, every one of the 48 crossing pairs at
        # radius 1 fails, the 16 parallel ones (both totals equal) pass,
        # and the summary fails
        smoothings = grid_oracle.ProbedPair.smoothings
        monkeypatch.setattr(grid_oracle.ProbedPair, "smoothings",
                            lambda pair: smoothings(pair)[::-1])
        report = verify_suite("oracle", sweep=1)
        failed = [i for i in report.instances if not i.ok]
        assert len(failed) == 49
        assert failed[-1].detail == "48 mismatches"

    def test_wrong_crossing_count_is_caught(self, monkeypatch):
        # a count off by one fails all 64 pairs at radius 1, parallel
        # ones included, and the summary
        monkeypatch.setattr(grid_oracle.CrossingList, "geometric",
                            property(lambda cl: len(cl.crossings) + 1))
        report = verify_suite("oracle", sweep=1)
        failed = [i for i in report.instances if not i.ok]
        assert len(failed) == 65
        assert failed[-1].detail == "64 mismatches"


class TestRecords:
    """crossing_list and probe_pairs build their records with
    tuple.__new__; each must be the record its public constructor
    builds."""

    @pytest.mark.parametrize("a,m,b,n", [
        ((2, 1), 2, (1, -3), 1), ((1, 0), 1, (1, 0), 2),
        ((0, 1), 3, (1, 1), 2)])
    def test_built_records_match_the_constructors(self, a, m, b, n):
        pair = grid_oracle.probe_pair(a, m, b, n)
        forward = grid_oracle.CrossingList(
            crossings=pair.forward.crossings,
            denominator=pair.forward.denominator, index=pair.forward.index)
        built = grid_oracle.ProbedPair(pair.first, pair.second, forward)
        listed = grid_oracle.crossing_list(pair.first, pair.second)
        for record, public in ((pair, built), (pair.forward, forward),
                               (listed, forward)):
            assert type(record) is type(public)
            assert record == public
            assert hash(record) == hash(public)
            assert repr(record) == repr(public)
            restored = pickle.loads(pickle.dumps(record))
            assert type(restored) is type(public)
            assert restored == public
            assert record._asdict() == public._asdict()
        assert pair._replace(forward=listed) == built
        assert pair.forward._replace(denominator=1) == \
            forward._replace(denominator=1)


def _box_copy_crossings(ia, a, oa, ib, b, ob):
    """The full (sx, sy) box scan that the solved translate ranges
    replaced, on copy ia of direction a at offset oa and copy ib of b at
    ob, kept as their reference: the crossings' index and the crossings."""
    det = a.p * (-b.q) - (-b.p) * a.q
    if det == 0:
        if _box_parallel_coincident(a, oa, ob):
            raise DegeneratePosition("parallel curves share a geodesic")
        return 0, []
    R = grid_oracle._R
    nx = (ob[0] - oa[0]) * grid_oracle._DEN_Y
    ny = (ob[1] - oa[1]) * grid_oracle._DEN_X
    sign = 1 if det > 0 else -1
    bound = R * abs(det)
    index = 1 if a.p * b.q - a.q * b.p > 0 else -1
    out = []
    span_x = abs(a.p) + abs(b.p) + 2
    span_y = abs(a.q) + abs(b.q) + 2
    for sx in range(-span_x, span_x + 1):
        rx = nx + R * sx
        for sy in range(-span_y, span_y + 1):
            ry = ny + R * sy
            tn = (b.p * ry - b.q * rx) * sign
            if not 0 <= tn < bound:
                continue
            un = (a.p * ry - a.q * rx) * sign
            if 0 <= un < bound:
                out.append(grid_oracle.Crossing((ia, tn), (ib, un)))
    if len(out) != abs(det):
        raise AssertionError(
            f"crossing count {len(out)} differs from |det| {abs(det)}")
    return index, out


def _box_parallel_coincident(direction, o1, o2):
    """The full (sx, sy) box scan that _parallel_coincident replaced."""
    R = grid_oracle._R
    p, q = direction
    dx = (o2[0] - o1[0]) * grid_oracle._DEN_Y
    dy = (o2[1] - o1[1]) * grid_oracle._DEN_X
    span = abs(p) + abs(q) + 2
    return any((dx + R * sx) * q - (dy + R * sy) * p == 0
               for sx in range(-span, span + 1)
               for sy in range(-span, span + 1))


def _curve(direction, *offsets):
    return grid_oracle.GridCurve(grid_oracle.TorusClass(*direction),
                                 offsets)


def _copy_pair_crossings(ia, a, oa, ib, b, ob):
    """crossing_list's index and crossings of copy ia of a at oa and copy
    ib of b at ob, each drawn as a one-copy curve, with its copy numbers
    put back; a one-copy list's crossings never collide along a copy."""
    found = grid_oracle.crossing_list(_curve(a, oa), _curve(b, ob))
    return found.index, [c._replace(first_at=(ia, c.first_at[1]),
                                    second_at=(ib, c.second_at[1]))
                         for c in found.crossings]


def _box_crossing_list(first, second):
    """crossing_list's index and crossings, from the box scan of each
    copy pair; every copy pair has the index of the two directions."""
    indices, found = set(), []
    for (ia, oa), (ib, ob) in product(enumerate(first.offsets),
                                      enumerate(second.offsets)):
        index, crossings = _box_copy_crossings(ia, first.direction, oa,
                                               ib, second.direction, ob)
        indices.add(index)
        found += crossings
    if (len({c.first_at for c in found}) != len(found)
            or len({c.second_at for c in found}) != len(found)):
        raise DegeneratePosition("coincident crossing parameters")
    (index,) = indices
    return index, tuple(found)


def _crossings(first, second):
    found = grid_oracle.crossing_list(first, second)
    return found.index, found.crossings


def _reversed_curve(curve):
    """The curve with every copy reversed; each copy keeps its geodesic,
    and its reversal starts at offset + direction, the same torus point."""
    return grid_oracle.GridCurve(-curve.direction, curve.offsets)


def _traced(first, second, backward):
    """The components of one walk of the pair's layout, sorted."""
    pair = grid_oracle.ProbedPair(first, second,
                                  grid_oracle.crossing_list(first, second))
    return sorted(grid_oracle._trace(grid_oracle._layout(pair), backward))


def _reversed_resolution(first, second):
    """The forward trace against a direct solve of second reversed."""
    return _traced(first, _reversed_curve(second), False)


def _backward_resolution(first, second):
    """The backward walk of second on the one forward list."""
    return _traced(first, second, True)


def _solved_branch(a, b):
    """(b.p == 0, sign of step) of crossing_list on two directions."""
    solved = b if b.p else a
    return b.p == 0, _sign(solved.p) * _sign(b.p * a.q - a.p * b.q)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegeneratePosition:
        return DegeneratePosition
    except AssertionError as exc:
        return str(exc)


class TestTranslateSolve:
    """The solved translate ranges against the box scan they replaced."""

    def test_copy_crossings_match_the_box_scan(self):
        steps = set()
        checked = 0
        for a in primitives(3):
            for b in primitives(3):
                first = grid_oracle.oracle_draw(a, 2, role=0)
                second = grid_oracle.oracle_draw(b, 3, role=1)
                da, db = first.direction, second.direction
                for ia, oa in enumerate(first.offsets):
                    for ib, ob in enumerate(second.offsets):
                        forward = _outcome(_box_copy_crossings,
                                           ia, da, oa, ib, db, ob)
                        got = _outcome(_copy_pair_crossings,
                                       ia, da, oa, ib, db, ob)
                        assert got == forward, (a, oa, b, ob)
                        checked += 1
                # the whole list, its constants shared by the copy pairs
                assert _outcome(_crossings, first, second) == \
                    _outcome(_box_crossing_list, first, second), (a, b)
                steps.add(_solved_branch(da, db))
        assert checked == 32 * 32 * 2 * 3
        # both signs of step, on both branches (b.p == 0 solves for u)
        assert steps >= set(product((False, True), (-1, 1)))

    def test_parallel_coincident_matches_the_box_scan(self):
        # drawn offsets, and offsets sharing a coordinate so that
        # horizontal and vertical copies coincide
        offsets = sorted({grid_oracle._offset(role, copy, attempt)
                          for role in (0, 1) for copy in (0, 1)
                          for attempt in (0, 3)}
                         | set(product((0, 5, 96), (0, 7, 88))))
        coincident = 0
        for d in primitives(3):
            direction = grid_oracle.TorusClass(*d)
            for o1 in offsets:
                for o2 in offsets:
                    got = grid_oracle._parallel_coincident(direction,
                                                           o1, o2)
                    assert got == _box_parallel_coincident(direction,
                                                           o1, o2), \
                        (d, o1, o2)
                    coincident += got and o1 != o2
        assert coincident > 0

    def test_far_offsets_keep_the_box(self):
        # offsets whole periods away put solutions outside the box of
        # translates; the solved ranges are clipped to the same box, so
        # the two agree there too, short counts and all. A copy shifted
        # by whole periods lies on the same geodesic, however far.
        far = [(97 * k, 89 * l) for k in (-9, 0, 9) for l in (-9, 0, 9)]
        clipped = 0
        for a in primitives(2):
            for b in primitives(2):
                da = grid_oracle.TorusClass(*a)
                db = grid_oracle.TorusClass(*b)
                for shift in far:
                    ob = (3 + shift[0], 5 + shift[1])
                    got = _outcome(_copy_pair_crossings,
                                   0, da, (0, 0), 0, db, ob)
                    forward = _outcome(_box_copy_crossings,
                                       0, da, (0, 0), 0, db, ob)
                    assert got == forward, (a, b, shift)
                    clipped += isinstance(got, str)
                    assert grid_oracle._parallel_coincident(
                        da, (0, 0), shift), (a, shift)
        assert clipped > 0


class TestReversedList:
    """The backward walk of the second curve on the forward list against
    a direct solve and forward trace of the reversed curve."""

    def test_probes_match_the_reversed_solve(self):
        at_start = probes = 0
        degenerate = set()
        for a in primitives(3):
            for b in primitives(3):
                for m, n in ((1, 1), (2, 1), (1, 3), (7, 1), (1, 7)):
                    try:
                        pair = grid_oracle.probe_pair(a, m, b, n)
                    except DegeneratePosition:
                        degenerate.add((a, m, b, n))
                        continue
                    assert _backward_resolution(pair.first, pair.second) \
                        == _reversed_resolution(pair.first, pair.second), \
                        (a, m, b, n)
                    at_start += sum(c.second_at[1] == 0
                                    for c in pair.forward.crossings)
                    probes += 1
        assert probes == 5120
        # crossings at the start of a second copy (u = 0) put an arc end
        # on the copy's wrap; the 7-copy cases reach them
        assert at_start > 0
        # each (role, copy) steps by its own amount per rung, so copies
        # that coincide on rung 0 come apart on a later rung
        assert degenerate == set()

    def test_crossing_at_the_start_reorders(self):
        # the second copy starts on the first line, so the direct solve
        # of its reversal finds the crossing at u = 0 in another order;
        # the backward walk gives the same components
        first = _curve((1, 0), (5, 10))
        second = _curve((1, 2), (40, 10))
        forward = grid_oracle.crossing_list(first, second)
        reversed_list = grid_oracle.crossing_list(first,
                                                  _reversed_curve(second))
        assert any(c.second_at[1] == 0 for c in forward.crossings)
        assert [c.first_at for c in reversed_list.crossings] != \
            [c.first_at for c in forward.crossings]
        assert _backward_resolution(first, second) == \
            _reversed_resolution(first, second)

    def test_parallel_coincidence_in_both_orientations(self):
        curve = _curve((1, 2), (5, 10))
        for second in (curve, _reversed_curve(curve)):
            with pytest.raises(DegeneratePosition):
                grid_oracle.crossing_list(curve, second)


class TestPinnedProbes:
    def test_radius_three_digest(self):
        # crossing order and addresses, the denominator, the index and
        # both resolutions of every ordered primitive pair at radius 3
        digest = hashlib.sha256()
        probes = 0
        cases = [(a, m, b, n) for a in primitives(3) for b in primitives(3)
                 for m, n in ((1, 1), (2, 1), (1, 3))]
        for pair in grid_oracle.probe_pairs(cases):
            forward = pair.forward
            digest.update(repr((
                tuple((c.first_at, c.second_at) for c in forward.crossings),
                forward.denominator, forward.index,
                *pair.smoothings())).encode())
            probes += 1
        assert probes == 3072
        assert digest.hexdigest() == ("3d65e839dbfb9ae1c033c13b3aeb4ab0"
                                      "fb5cb4f003ba3cdfaeef50eefa403f21")

    @pytest.mark.parametrize("a,m,b,n,crossings", [
        ((15, 1), 1, (1, -14), 1, 211),
        ((11, -3), 1, (2, 9), 3, 315),
        # the seventh copy of the first curve and the second curve share
        # a y offset on rung 0; with every copy stepped alike per rung
        # they coincided on every rung
        ((1, 0), 7, (1, 0), 1, 0),
    ])
    def test_large_determinant(self, a, m, b, n, crossings):
        pair = grid_oracle.probe_pair(a, m, b, n)
        total_a = (m * a[0], m * a[1])
        total_b = (n * b[0], n * b[1])
        assert pair.forward.geometric == crossings == \
            geometric_intersection(total_a, total_b)
        assert pair.forward.algebraic == \
            algebraic_intersection(total_a, total_b)
        for mode, comps in zip(MODES, pair.smoothings()):
            assert (sum(c.p for c in comps), sum(c.q for c in comps)) == \
                resolve(total_a, total_b, mode)


class TestOffsetLadder:
    def test_offset_on_a_crossed_grid_line_is_degenerate(self):
        assert grid_oracle._offset(0, 0, 3) == (70, 0)
        with pytest.raises(DegeneratePosition):
            grid_oracle.oracle_draw((1, 1), 1, 0, 3)
        # a class parallel to that grid line never crosses it
        assert grid_oracle.oracle_draw((1, 0), 1, 0, 3).offsets == ((70, 0),)

    def test_grid_line_outside_the_cell_is_degenerate(self, monkeypatch):
        # x = 97 is the grid line x = 1: the copy starts on it, so the
        # drawing is refused whatever cell its offset lies in
        monkeypatch.setattr(grid_oracle, "_offset", lambda *_: (97, 5))
        with pytest.raises(DegeneratePosition, match="grid line"):
            grid_oracle.oracle_draw((1, 1))

    def test_ladder_steps_past_a_grid_line_offset(self, monkeypatch):
        # rungs 0-2 draw both curves on one geodesic; rung 3 puts the
        # first curve on the grid line y = 0; rung 4 is in general position
        original = grid_oracle._offset

        def offset(role, copy, attempt):
            return original(0 if attempt < 3 else role, copy, attempt)

        monkeypatch.setattr(grid_oracle, "_offset", offset)
        pair = grid_oracle.probe_pair((1, 1), 1, (1, 1), 1)
        assert pair.first.offsets == (original(0, 0, 4),)
        assert pair.second.offsets == (original(1, 0, 4),)
        assert pair.forward.geometric == 0

    def test_drawings_do_not_outlive_a_call(self, monkeypatch):
        # a sweep draws (1,1) at rung 0 for both roles; a later probe
        # under a changed ladder must draw afresh and land on rung 4
        assert verify_suite("oracle", sweep=1).passed
        original = grid_oracle._offset

        def offset(role, copy, attempt):
            return original(0 if attempt < 3 else role, copy, attempt)

        monkeypatch.setattr(grid_oracle, "_offset", offset)
        pair = grid_oracle.probe_pair((1, 1), 1, (1, 1), 1)
        assert pair.first.offsets == (original(0, 0, 4),)
        assert pair.second.offsets == (original(1, 0, 4),)

    def test_each_drawing_is_made_once_per_call(self, monkeypatch):
        # the second probe of one call reuses every drawing of the first;
        # the rung-3 draw, which raises, is tried again
        original = grid_oracle._offset
        draw_curve = grid_oracle.oracle_draw
        made, raised = [], []

        def offset(role, copy, attempt):
            return original(0 if attempt < 3 else role, copy, attempt)

        def counted_draw(cls, copies=1, role=0, attempt=0):
            key = (tuple(cls), copies, role, attempt)
            try:
                curve = draw_curve(cls, copies, role, attempt)
            except DegeneratePosition:
                raised.append(key)
                raise
            made.append(key)
            return curve

        monkeypatch.setattr(grid_oracle, "_offset", offset)
        monkeypatch.setattr(grid_oracle, "oracle_draw", counted_draw)
        first, second = grid_oracle.probe_pairs([((1, 1), 1, (1, 1), 1)] * 2)
        assert first == second
        assert first.first.offsets == (original(0, 0, 4),)
        # rungs 0-2 and 4 draw both curves, once; rung 3 raises per probe
        assert len(made) == len(set(made)) == 8
        assert raised == [((1, 1), 1, 0, 3)] * 2

    def test_copies_on_one_geodesic_are_degenerate(self, monkeypatch):
        # on rung 0 every copy of a curve gets copy 0's offset; the draw
        # raises, and the ladder's next rung separates them
        original = grid_oracle._offset

        def offset(role, copy, attempt):
            return original(role, 0 if attempt == 0 else copy, attempt)

        monkeypatch.setattr(grid_oracle, "_offset", offset)
        with pytest.raises(DegeneratePosition, match="geodesic"):
            grid_oracle.oracle_draw((1, 2), 2, 0, 0)
        pair = grid_oracle.probe_pair((1, 2), 2, (1, 0), 1)
        assert pair.first.offsets == (original(0, 0, 1), original(0, 1, 1))
        assert pair.second.offsets == (original(1, 0, 1),)
        assert pair.forward.geometric == 4

    def test_ladder_never_puts_copies_on_one_geodesic(self):
        # on rung r, copies j and j + d of one curve differ by
        # (11 + 2r)d mod 97 in x and (17 + 3r)d mod 89 in y; with
        # entries below 89 they share a geodesic only when 97 divides d,
        # or 89 does for (+-1, 0). Entries up to 8 and 16 copies are the
        # sizes that many-copy probes draw.
        checked = 0
        rungs = range(grid_oracle._ATTEMPTS)
        for c, role, attempt in product(primitives(8), (0, 1), rungs):
            direction = grid_oracle.TorusClass(*c)
            offsets = [grid_oracle._offset(role, j, attempt)
                       for j in range(16)]
            for j, offset in enumerate(offsets):
                for other in offsets[:j]:
                    assert not grid_oracle._parallel_coincident(
                        direction, offset, other), (c, role, attempt, j)
                    checked += 1
        assert checked == len(primitives(8)) * 2 * 8 * 120 == 337920
