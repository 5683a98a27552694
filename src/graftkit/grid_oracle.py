"""Brute-force crossing oracle on the square flat torus.

Validation back end for the torus calculus. Curves are drawn as straight
rational lines on the unit square with edge identifications, crossings
are found by solving the line equations per integer translate, and
resolutions reconnect arcs at every crossing and trace the components.
Each copy pair's crossing count is asserted equal to |det| of the two
directions, and a list's one index is the sign of det, so its
intersection numbers agree with the torus pairing by construction. What
the oracle works out on its own is where the crossings lie along each
copy and which components the traced reconnection gives.

All arithmetic is on integers: offsets are numerators on the fixed
97 x 89 lattice, and crossing parameters are numerators over one
denominator per crossing list, R * |det| with R = 97 * 89.

The work follows the crossings, not the box of translates: the
horizontal translates that can give a crossing form one interval, as do
the vertical ones of each, solved by floor division. Parallel copies
share a geodesic exactly when one congruence on their offset difference
holds. The trace lays the arcs out once per probed pair: per side, each
crossing's next crossing along its copy and the parameter length to it.
Each side has one direction, so a component's class is two integer sums.

A drawn curve is one direction and its copies' offsets. Each pair of
curves has one crossing list, whose constants are worked out once before
each copy pair is solved. Walking the uniform reconnection on its layout
gives one smoothing; walking the second curve backwards on the same
layout gives the other. ProbedPair.smoothings is the one route from a
probed pair to its smoothings: it alone lays the arcs out, traces them
and reads the list's index to choose the backward walk. A drawing
raises DegeneratePosition when a copy starts on a grid line its class
crosses (this grid-line rule is the drawing's check against its class)
or when two copies share a geodesic, as does a list with coincident
geodesics or parameters; probe_pairs then moves the pair to the next
rung of the offset ladder, its one retry. It draws each (class, copies,
role, rung) once per call and keeps each pair's list, so the counts and
both resolutions of a pair need no further solve.

The records are built on collections.namedtuple, as in torus.
crossing_list and probe_pairs build each Crossing, CrossingList and
ProbedPair with tuple.__new__, skipping the generated Python __new__;
the public constructors build equal records.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import DegeneratePosition, NonPrimitive
from .torus import Mode, TorusClass

# Offset lattice denominators; primes well above any sweep entry so that
# line coincidences require an unlikely congruence (and are retried away).
_DEN_X = 97
_DEN_Y = 89
_R = _DEN_X * _DEN_Y
# Rungs of the offset ladder tried before a pair is declared degenerate.
_ATTEMPTS = 8
# builds a record without its generated Python __new__, as torus does
_new = tuple.__new__


class GridCurve(namedtuple("GridCurve", "direction offsets")):
    """Straight-line representative of len(offsets) parallel copies of a
    primitive class: copy j is the path t -> offsets[j] + t*direction,
    t in [0,1], with offset (x/97, y/89) held as its numerators (x, y).
    direction is a TorusClass, offsets a tuple of (int, int) pairs."""

    __slots__ = ()


class Crossing(namedtuple("Crossing", "first_at second_at")):
    """One crossing: its curve-internal addresses, each an (int, int)
    pair: copy number, parameter numerator over the crossing list's
    denominator."""

    __slots__ = ()


class CrossingList(namedtuple("CrossingList", "crossings denominator index")):
    """A pair's crossings, a tuple of Crossings; the int common
    denominator of every crossing parameter, R * |det|; and the int
    index of every crossing, the sign of det. Both ints are 0 for
    parallel curves (they never cross)."""

    __slots__ = ()

    @property
    def geometric(self) -> int:
        """The crossing count."""
        return len(self.crossings)

    @property
    def algebraic(self) -> int:
        """The index sum: every crossing has the list's one index."""
        return self.index * len(self.crossings)


def _offset(role: int, copy: int, attempt: int) -> Tuple[int, int]:
    """A copy's offset numerators on a rung of the ladder. Each (role,
    copy) steps by its own amount per rung, so two copies that coincide on
    one rung come apart on the next."""
    return ((1 + 7 * role + 11 * copy + (23 + 2 * copy) * attempt) % _DEN_X,
            (2 + 13 * role + 17 * copy
             + (29 + 3 * copy + 5 * role) * attempt) % _DEN_Y)


def _parallel_coincident(direction: TorusClass, o1: Tuple[int, int],
                         o2: Tuple[int, int]) -> bool:
    """True when copies of a primitive class (p, q) at offsets o1 and o2
    land on the same torus geodesic: their offset difference is t*(p, q)
    plus an integer translate (m, n). The translates' m*q - n*p reach
    every integer, as gcd(p, q) = 1, so the condition is one congruence:
    the difference's dx*q - dy*p, scaled by R, is a multiple of R."""
    p, q = direction
    dx = (o2[0] - o1[0]) * _DEN_Y
    dy = (o2[1] - o1[1]) * _DEN_X
    return (dx * q - dy * p) % _R == 0


def oracle_draw(cls: Sequence[int], copies: int = 1, role: int = 0,
                attempt: int = 0) -> GridCurve:
    """Draw `copies` parallel offset lines of a primitive class.

    role and attempt select the offset family; distinct roles keep two
    curves of one comparison apart, attempts step the deterministic retry.
    A draw raises DegeneratePosition, so probe_pair tries the next rung,
    when a copy shares a geodesic with an earlier copy, or when an offset
    numerator is a multiple of its denominator in a direction the class
    crosses. That grid-line rule is the drawing's class check: a copy that
    starts off every grid line it crosses meets, for t in (0, 1), exactly
    |p| vertical and |q| horizontal grid lines, in the signs of p and q.
    """
    p, q = cls
    if gcd(abs(p), abs(q)) != 1:
        raise NonPrimitive(f"({p},{q}) is not primitive")
    if copies < 1:
        raise ValueError("copies must be positive")
    direction = TorusClass(p, q)
    offsets: List[Tuple[int, int]] = []
    for j in range(copies):
        offset = x, y = _offset(role, j, attempt)
        if (p and x % _DEN_X == 0) or (q and y % _DEN_Y == 0):
            raise DegeneratePosition(
                f"offset {offset} lies on a grid line ({p},{q}) crosses")
        if any(_parallel_coincident(direction, offset, other)
               for other in offsets):
            raise DegeneratePosition(
                f"copy {j} shares a geodesic with an earlier copy")
        offsets.append(offset)
    return GridCurve(direction, tuple(offsets))


def _translates(c: int, step: int, bound: int, span: int) -> range:
    """The s in [-span, span] with 0 <= c + step*s < bound, ascending;
    step is nonzero, and the ends come from floor division."""
    if step > 0:
        lo, hi = -(c // step), -((c - bound) // step)
    else:
        lo, hi = (c - bound) // -step + 1, c // -step + 1
    return range(max(lo, -span), min(hi, span + 1))


def crossing_list(first: GridCurve, second: GridCurve) -> CrossingList:
    """Every crossing of the two drawn curves, with local data, from one
    solve per copy pair.

    Each copy pair solves t*a - u*b = (oB - oA) + s over integer
    translates s with denominators cleared by R; t = tn/D and u = un/D
    with D = R*det, and only solutions with both parameters in [0,1) are
    real crossings. The parameters are kept as numerators over |D|.
    Everything but the offsets depends on the two directions only, so it
    is worked out once per pair of curves.

    Both translate windows are solved by floor division and clipped to
    the box [-span_x, span_x] x [-span_y, span_y]. rx = nx + R*sx is
    (a.p*tn - b.p*un)/|det|, so with tn, un in [0, |D|) the columns sx
    form one interval of at most |a.p| + |b.p| + 1. In each, tn =
    c + step*sy is linear in sy, so the sy that put tn in [0, |D|) form
    one interval too (solved for un when b.p = 0, as tn then does not
    depend on sy). Both numerators are still checked on each sy, so the
    crossings come out in the order of the full (sx, sy) scan. Each copy
    pair must cross exactly |det| times.

    Raises DegeneratePosition on coincident geodesics or when two
    crossings collide along one copy (the arc order would be ambiguous).
    Reversing the second curve keeps its geodesics and its crossing
    points, so neither check depends on its orientation.
    """
    a, b = first.direction, second.direction
    ap, aq = a
    bp, bq = b
    det = bp * aq - ap * bq
    if det == 0:
        if any(_parallel_coincident(a, oa, ob)
               for oa in first.offsets for ob in second.offsets):
            raise DegeneratePosition("parallel curves share a geodesic")
        return _new(CrossingList, ((), 0, 0))
    sign = 1 if det > 0 else -1
    count = abs(det)
    bound = _R * count
    index = -sign  # the sign of a.p*b.q - a.q*b.p
    across = abs(ap) + abs(bp)
    span_x = across + 2
    span_y = abs(aq) + abs(bq) + 2
    # the horizontal window: rx + below*R in [0, width)
    below = max(-ap, 0) + max(bp, 0)
    width = across * _R + 1
    # the numerator whose range is solved, at sy = 0 and per unit of sy
    sp, sq = b if bp else a
    step = sp * _R * sign
    found: List[Crossing] = []
    for ia, (xa, ya) in enumerate(first.offsets):
        for ib, (xb, yb) in enumerate(second.offsets):
            nx = (xb - xa) * _DEN_Y
            ny = (yb - ya) * _DEN_X
            start = len(found)
            for sx in _translates(nx + below * _R, _R, width, span_x):
                rx = nx + _R * sx
                c = (sp * ny - sq * rx) * sign
                for sy in _translates(c, step, bound, span_y):
                    ry = ny + _R * sy
                    tn = (bp * ry - bq * rx) * sign
                    if not 0 <= tn < bound:
                        continue
                    un = (ap * ry - aq * rx) * sign
                    if 0 <= un < bound:
                        found.append(_new(Crossing, ((ia, tn), (ib, un))))
            if len(found) - start != count:
                raise AssertionError(
                    f"crossing count {len(found) - start} differs from "
                    f"|det| {count}")
    if (len({c[0] for c in found}) != len(found)
            or len({c[1] for c in found}) != len(found)):
        raise DegeneratePosition("coincident crossing parameters")
    return _new(CrossingList, (tuple(found), bound, index))


def _layout(pair: ProbedPair) -> tuple:
    """The arcs of a probed pair, laid out once for both smoothings.

    Per side (first curve, then second), an arc runs along a copy from a
    crossing to the copy's next crossing in parameter order, cyclically,
    so each side has one arc per crossing, named by the crossing it
    leaves. The side keeps, indexed by crossing, the crossing its arc
    ends at and the arc's parameter length, a numerator over the list's
    denominator, and the count of its crossing-free copies.
    """
    first, second, (crossings, den, _) = pair
    n = len(crossings)
    sides = []
    for side, curve in enumerate((first, second)):
        ends, lengths = [0] * n, [0] * n
        on_copy: List[List[Tuple[int, int]]] = [[] for _ in curve.offsets]
        for k, c in enumerate(crossings):
            copy, t = c[side]
            on_copy[copy].append((t, k))
        for items in filter(None, on_copy):
            items.sort()
            t0, k0 = items[-1]
            t0 -= den  # the copy's last arc wraps to its first crossing
            for t, k in items:
                ends[k0], lengths[k0] = k, t - t0
                t0, k0 = t, k
        sides.append((ends, lengths, on_copy.count([])))
    return (first.direction, second.direction, den, *sides)


def _trace(layout: tuple, backward: bool) -> Tuple[TorusClass, ...]:
    """Reconnect in-first -> out-second at every crossing of a layout
    and trace, with the second curve walked backwards when backward is
    set; the components' classes, crossing-free copies included, sorted.

    Each side has one direction, so a component's class is
    (s0*a + s1*b)/den, where s0 and s1 are the parameter lengths it runs
    along the first and the second curve. Walked forward, the first-curve
    arc ending at k continues on the second-curve arc leaving k. Walked
    backwards, the second curve is reversed on the same crossings: the
    first-curve arc ending at k continues on the second-curve arc ending
    at k, run back to the crossing it leaves (the inverse of the second
    side's ends), and there on the first-curve arc leaving that crossing.
    """
    a, b, den, (ends, lengths, free), (ends2, lengths2, free2) = layout
    if backward:
        b = -b
        before = [0] * len(ends2)
        for k, k1 in enumerate(ends2):
            before[k1] = k
        ends2, lengths2 = before, [lengths2[k] for k in before]
    components = [a] * free + [b] * free2
    visited = [False] * len(ends)
    for start in range(len(ends)):
        if visited[start]:
            continue
        s0 = s1 = 0
        k = start
        while not visited[k]:
            visited[k] = True
            s0 += lengths[k]
            k = ends[k]
            s1 += lengths2[k]
            k = ends2[k]
        if k != start:
            raise AssertionError("trace closed on a foreign arc")
        dx, dy = s0 * a.p + s1 * b.p, s0 * a.q + s1 * b.q
        if dx % den or dy % den:
            raise AssertionError("non-integral component displacement")
        components.append(_new(TorusClass, (dx // den, dy // den)))
    return tuple(sorted(components))


class ProbedPair(namedtuple("ProbedPair", "first second forward")):
    """Two drawn GridCurves and their one CrossingList, forward. Each
    smoothing is a walk of the pair's arc layout, the other one walking
    the second curve backwards; smoothings walks both on one layout."""

    __slots__ = ()

    def smoothings(self) -> Tuple[Tuple[TorusClass, ...],
                                  Tuple[TorusClass, ...]]:
        """The (SHARP, FLAT) components, traced on one layout. Which walk
        carries which name depends on the sign of the list's index, the
        local orientation frame at each crossing: SHARP walks the second
        curve backwards when it is negative, FLAT when it is positive."""
        layout, index = _layout(self), self.forward.index
        return _trace(layout, index < 0), _trace(layout, index > 0)


def probe_pairs(pairs: Iterable[Tuple[Sequence[int], int, Sequence[int], int]]
                ) -> Iterator[ProbedPair]:
    """Probe each (first class, first copies, second class, second
    copies) in turn, as probe_pair does.

    Each (class, copies, role, rung) that draws is drawn once: its
    drawing is kept in a dict that lives as long as this iterator.
    """
    drawn: Dict[Tuple[Tuple[int, ...], int, int, int], GridCurve] = {}

    def draw(cls: Sequence[int], copies: int, role: int,
             attempt: int) -> GridCurve:
        key = (tuple(cls), copies, role, attempt)
        curve = drawn.get(key)
        if curve is None:
            curve = drawn[key] = oracle_draw(cls, copies, role, attempt)
        return curve

    for first_cls, first_copies, second_cls, second_copies in pairs:
        last: Exception | None = None
        for attempt in range(_ATTEMPTS):
            try:
                a = draw(first_cls, first_copies, 0, attempt)
                b = draw(second_cls, second_copies, 1, attempt)
                probed = _new(ProbedPair, (a, b, crossing_list(a, b)))
            except DegeneratePosition as exc:
                last = exc
            else:
                yield probed
                break
        else:
            raise DegeneratePosition(f"no general position found: {last}")


def probe_pair(first_cls: Sequence[int], first_copies: int,
               second_cls: Sequence[int], second_copies: int) -> ProbedPair:
    """Draw two curves in verified general position.

    Retries the deterministic offset ladder until both drawings and
    their crossing list are degeneracy-free.
    """
    return next(probe_pairs(
        [(first_cls, first_copies, second_cls, second_copies)]))


def draw_pair(first_cls: Sequence[int], first_copies: int,
              second_cls: Sequence[int], second_copies: int
              ) -> Tuple[GridCurve, GridCurve]:
    """The two curves of probe_pair, without their crossing lists."""
    pair = probe_pair(first_cls, first_copies, second_cls, second_copies)
    return pair.first, pair.second


def oracle_intersection(first: GridCurve,
                        second: GridCurve) -> Tuple[int, int]:
    """(geometric count, algebraic signed sum) by explicit enumeration."""
    cl = crossing_list(first, second)
    return (cl.geometric, cl.algebraic)


def oracle_resolve(first: GridCurve, second: GridCurve,
                   mode: Mode) -> Tuple[TorusClass, ...]:
    """The components of the given smoothing of the two drawn curves, as
    ProbedPair.smoothings gives them."""
    return ProbedPair(first, second, crossing_list(first, second)
                      ).smoothings()[mode is not Mode.SHARP]
