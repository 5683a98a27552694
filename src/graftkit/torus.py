"""Exact integer calculus for multicurves on an oriented torus.

A class is an ordered pair (p, q) of integers. Connected simple closed
curves are exactly the primitive pairs (gcd 1); a pair m*(p0, q0) with
gcd m stands for m parallel copies of the primitive curve (p0, q0).
All arithmetic is exact; Python integers never overflow. Entries are
taken as given: the command line and the JSON reader admit only
integers, so nothing here converts them.

Orientation conventions are pinned once and used everywhere downstream:

* algebraic_intersection((1,0), (0,1)) = +1,
* dehn_twist(b, a, k) = b + k * algebraic_intersection(b, a) * a, so that
  twisting (1,0) about (0,1) k times gives (1,k),
* resolve dispatches on the sign of the algebraic intersection, see below.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import gcd
from typing import Sequence

from .errors import ZeroTwister

Pair = Sequence[int]


class TorusClass(namedtuple("TorusClass", "p q")):
    """Oriented homology class of a (multi)curve on the torus: the
    integers p and q."""

    __slots__ = ()

    def __neg__(self) -> "TorusClass":
        p, q = self
        return _new(TorusClass, (-p, -q))

    def __str__(self) -> str:
        return f"{self.p},{self.q}"


class Mode(enum.Enum):
    """Crossing-resolution mode: join arcs with agreeing (SHARP) or
    disagreeing (FLAT) local orientations."""

    SHARP = "sharp"
    FLAT = "flat"


_SHARP = Mode.SHARP  # a module global reads faster than an Enum member
# builds a TorusClass in half the time of the Python __new__ namedtuple
# generates; for results, whose entries are already two integers
_new = tuple.__new__


class TorusMulticurve(namedtuple("TorusMulticurve",
                                 "multiplicity primitive")):
    """Unoriented multicurve: multiplicity (an int) copies of one
    primitive class (a TorusClass).

    multiplicity 0 encodes the empty multicurve (primitive is None).
    """

    __slots__ = ()

    def total(self) -> TorusClass:
        if self.multiplicity == 0 or self.primitive is None:
            return TorusClass(0, 0)
        return TorusClass(
            self.multiplicity * self.primitive.p,
            self.multiplicity * self.primitive.q,
        )


def algebraic_intersection(a: Pair, b: Pair) -> int:
    """Signed intersection number of oriented classes a=(p,q), b=(r,s).

    Antisymmetric bilinear form p*s - q*r; the basis pair ((1,0),(0,1))
    has intersection +1.
    """
    p, q = a
    r, s = b
    return p * s - q * r


def geometric_intersection(a: Pair, b: Pair) -> int:
    """Minimal unsigned crossing count of straight representatives.

    Equals |p*s - q*r|; multiplicities are absorbed because the form is
    bilinear.
    """
    return abs(algebraic_intersection(a, b))


def dehn_twist(target: Pair, twister: Pair, k: int = 1) -> TorusClass:
    """k-fold Dehn twist of `target` about `twister`.

    Convention: T^k_a(b) = b + k * i^(b, a) * a where i^ is the algebraic
    intersection. Twisting (1,0) about the meridian (0,1) gives (1,k) and
    (2,0) gives (2,2k). T^0 is the identity and powers add for a fixed
    twisting class.
    """
    p, q = target
    r, s = twister
    if r == s == 0:
        raise ZeroTwister("cannot twist about the zero class")
    c = k * algebraic_intersection(target, twister)
    return _new(TorusClass, (p + c * r, q + c * s))


def resolve(first: Pair, second: Pair, mode: Mode) -> TorusClass:
    """Resolve all crossings of `first` with `second` in the given mode.

    The outcome depends on the sign of d = algebraic_intersection(first,
    second): for d > 0 SHARP is the sum and FLAT the difference, for
    d < 0 the roles swap (the local orientation frame at each crossing is
    the mirror image), and for d = 0 the curves are disjoint so both
    modes return the union, whose class is the sum.
    """
    p, q = first
    r, s = second
    d = algebraic_intersection(first, second)
    if d == 0:
        take_sum = True
    elif mode is _SHARP:
        take_sum = d > 0
    else:
        take_sum = d < 0
    if take_sum:
        return _new(TorusClass, (p + r, q + s))
    return _new(TorusClass, (p - r, q - s))


def normalize(raw: Pair) -> TorusMulticurve:
    """Split a raw class into multiplicity and sign-normalized primitive.

    The multiplicity is gcd(|p|, |q|) (zero for the zero class). The
    primitive representative is chosen with first nonzero entry positive,
    quotienting the two orientations of the underlying curve. Idempotent
    on already-normalized input.
    """
    p, q = raw
    m = gcd(abs(p), abs(q))
    if m == 0:
        return TorusMulticurve(0, None)
    p //= m
    q //= m
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return TorusMulticurve(m, TorusClass(p, q))


def is_primitive(raw: Pair) -> bool:
    """True when the class is a single connected simple closed curve."""
    p, q = raw
    return gcd(abs(p), abs(q)) == 1
