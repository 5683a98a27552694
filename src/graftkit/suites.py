"""The paper's checks: the common-graft witness search, the fan of
standard structures, and the identity verification suites.

The witness search and the fan check that infinitely many standard
structures graft to a common structure, and witness_graph exports a
search as a graph. Each suite sweeps one identity over a range and
returns a Report of its checked cases, in order; verify_suite runs one
by name from _SUITES, where a suite registers.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import product
from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import NotAdmissible, OddMultiplicity, UnknownSuite
from .torus import Mode, TorusClass, algebraic_intersection, dehn_twist, \
    geometric_intersection, normalize, resolve
from . import grid_oracle
from .surface import Component, Configuration, Structure, SurfaceModel, \
    _identity_of, _render, component, goldman_decompose, graft_along, \
    structure, twist_about_curve, twist_about_meridian
from .complex_graph import ComplexGraph, Edge, _debug_log, \
    standard_configuration


class Witness(namedtuple("Witness", "m k l key")):
    """A verified coincidence of the two graft pipelines.

    The doubled twist on the one-step side pairs with k + l = 2m (ints)
    on the two-step side; every witness stores the checked key equality
    (key, a str)."""

    __slots__ = ()


def _witnesses(config: Configuration, base: Structure, other: Structure,
               l0: int, twist_bound: int
               ) -> Iterator[Tuple[Witness, Structure]]:
    """The common-graft search behind common_grafts and witness_graph:
    each witness with the structure both pipelines reach from base and
    its l0-twisted copy other."""
    if twist_bound < 0:
        raise ValueError(
            f"the witness search checks nothing at twist_bound={twist_bound}")
    chart = config.model.charts[0]
    for m in range(-twist_bound, twist_bound + 1):
        k = 2 * m - l0
        one_step = graft_along(base, twist_about_meridian(
            config.gamma, chart, 2 * m))
        two_step = graft_along(other, twist_about_meridian(
            config.gamma, chart, k))
        if one_step.key() == two_step.key():
            yield Witness(m, k, l0, one_step.key()), one_step
        elif (log := _debug_log()) is not None:
            log.debug("no witness at m=%d (keys %s vs %s)", m,
                      one_step.key(), two_step.key())


def common_grafts(config: Configuration, l0: int,
                  twist_bound: int) -> List[Witness]:
    """Search the doubled-twist graft coincidences for a fixed pair.

    For every |m| <= twist_bound the curve twisted 2m times is grafted
    onto the base structure, and the curve twisted k = 2m - l0 times onto
    the l0-twisted structure; a Witness records each verified key
    equality. The twist budget splits as k + l = 2m: grafting inserts two
    leaves of the curve, so each unit of twisting on the real-curve side
    trades against two units absorbed by the doubled grafting class. The
    expected hit count is the full range of m. A negative twist bound,
    which checks nothing, raises ValueError.
    """
    base = config.base_structure()
    other = twist_about_meridian(base, config.model.charts[0], l0)
    return [w for w, _ in _witnesses(config, base, other, l0, twist_bound)]


def witness_graph(config: Configuration, l0: int,
                  twist_bound: int) -> ComplexGraph:
    """Graph form of a common-graft search for export: the two base
    structures plus every common graft, with the graft moves as edges.
    A negative twist bound raises ValueError."""
    chart = config.model.charts[0]
    base = config.base_structure()
    other = twist_about_meridian(base, chart, l0)
    vertices = {base.key(): base}
    vertices.setdefault(other.key(), other)
    edges = []
    for w, target in _witnesses(config, base, other, l0, twist_bound):
        vertices.setdefault(w.key, target)
        edges += [Edge("graft", chart, 2 * w.m, base.key(), w.key),
                  Edge("graft", chart, w.k, other.key(), w.key)]
    return ComplexGraph(vertices, edges, twist_bound, 1, base.key())


class FanReport:
    """What standard_fan found: the one key every member lands on (None
    if they differ) and one (l, k, key) row per member."""

    __slots__ = ("common_key", "rows")

    def __init__(self, common_key: Optional[str],
                 rows: List[Tuple[int, int, str]]):
        self.common_key = common_key
        self.rows = rows

    @property
    def passed(self) -> bool:
        return self.common_key is not None


def standard_fan(config: Configuration, chart: str, fan_size: int,
                 m: int) -> FanReport:
    """Graft every structure of the fan to one target.

    For l = 0..fan_size the l-twisted structure is grafted along the
    (m - l)-twisted curve; all fan members must land on a single key. A
    negative fan size, which checks nothing, raises ValueError.
    """
    config.model.require_chart(chart)
    if fan_size < 0:
        raise ValueError(f"the fan checks nothing at fan_size={fan_size}")
    base = config.base_structure()
    rows = []
    keys = set()
    for l in range(fan_size + 1):
        k = m - l
        start = twist_about_meridian(base, chart, l)
        result = graft_along(start, twist_about_meridian(
            config.gamma, chart, k))
        rows.append((l, k, result.key()))
        keys.add(result.key())
    return FanReport(keys.pop() if len(keys) == 1 else None, rows)


# ---------------------------------------------------------------------------
# Verification suites


class Instance:
    """One checked case of a suite, with what was found when it fails."""

    __slots__ = ("desc", "ok", "detail")

    def __init__(self, desc: str, ok: bool, detail: str = ""):
        self.desc = desc
        self.ok = ok
        self.detail = detail

    def __repr__(self) -> str:
        return f"Instance({self.desc!r}, {self.ok!r}, {self.detail!r})"


class Report:
    """A suite's checked cases, in the order they ran."""

    __slots__ = ("suite", "instances")

    def __init__(self, suite: str):
        self.suite = suite
        self.instances: List[Instance] = []

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.instances)

    def add(self, desc: str, ok: bool, detail: str = "") -> None:
        self.instances.append(Instance(desc, ok, detail))

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "instances": [
                {"desc": i.desc, "ok": i.ok, "detail": i.detail}
                for i in self.instances],
        }

    def lines(self) -> List[str]:
        out = []
        for i in self.instances:
            mark = "ok" if i.ok else "FAIL"
            tail = f" ({i.detail})" if (i.detail and not i.ok) else ""
            out.append(f"{mark:4} {i.desc}{tail}")
        out.append(f"suite {self.suite}: "
                   f"{'pass' if self.passed else 'FAIL'} "
                   f"({len(self.instances)} instances)")
        return out


def _require_checks(suite: str, name: str, value: int,
                    least: int = 1) -> None:
    """Refuse a range at which a suite would check nothing: a value
    below least, the smallest at which it checks a case."""
    if value < least:
        raise ValueError(f"suite {suite!r} checks nothing at {name}={value}")


def _suite_flatsharp(k_max: int = 10) -> Report:
    _require_checks("flatsharp", "k_max", k_max)
    report = Report("flatsharp")
    for k in range(1, k_max + 1):
        got = resolve((0, 2 * k), (2, -2 * k), Mode.FLAT)
        report.add(f"flat (0,{2*k}) with (2,{-2*k}) -> (2,0)",
                   got == (2, 0), f"got {got}")
    return report


def _four_way(k: int) -> Tuple[TorusClass, ...]:
    lam = TorusClass(2, 0)
    two_gamma = TorusClass(2, 0)
    meridian = TorusClass(0, 1)
    e1 = dehn_twist(resolve(lam, two_gamma, Mode.SHARP), meridian, k)
    # The named modes below mirror for k < 0: the configuration is the
    # mirror image, which exchanges the two smoothings.
    m2 = Mode.SHARP if k >= 0 else Mode.FLAT
    m3 = Mode.FLAT if k >= 0 else Mode.SHARP
    e2 = resolve(lam, dehn_twist(two_gamma, meridian, 2 * k), m2)
    e3 = resolve(dehn_twist(lam, meridian, 2 * k), two_gamma, m3)
    e4 = resolve(dehn_twist(lam, meridian, k),
                 dehn_twist(two_gamma, meridian, k), Mode.SHARP)
    return e1, e2, e3, e4


def _suite_sharp_flat(k_max: int = 8) -> Report:
    _require_checks("sharp_flat", "k_max", k_max, 0)
    report = Report("sharp_flat")
    meridian = TorusClass(0, 1)
    for k in range(-k_max, k_max + 1):
        values = _four_way(k)
        want = TorusClass(4, 4 * k)
        report.add(f"four-way identity at k={k}",
                   all(v == want for v in values),
                   f"got {values}")
        pairs = [
            (TorusClass(2, 0), TorusClass(2, 0)),
            (TorusClass(2, 0), dehn_twist((2, 0), meridian, 2 * k)),
            (dehn_twist((2, 0), meridian, 2 * k), TorusClass(2, 0)),
            (dehn_twist((2, 0), meridian, k), dehn_twist((2, 0), meridian, k)),
        ]
        ok = True
        for a, b in pairs:
            sharp_ab = resolve(a, b, Mode.SHARP)
            flat_ba = resolve(b, a, Mode.FLAT)
            if algebraic_intersection(a, b) >= 0:
                ok = ok and sharp_ab == flat_ba
            else:
                ok = ok and normalize(sharp_ab) == normalize(flat_ba)
        report.add(f"switch identity at k={k}", ok)
    return report


def _suite_dehn_twist(k_max: int = 6) -> Report:
    _require_checks("dehn_twist", "k_max", k_max)
    report = Report("dehn_twist")
    config = standard_configuration()
    chart = config.model.charts[0]
    for k in range(1, k_max + 1):
        for sign, name in ((1, "right"), (-1, "left")):
            lam_k = twist_about_meridian(config.lam, chart, sign * (k - 1))
            start = structure(config.model, [lam_k])
            gam_k = twist_about_meridian(config.gamma, chart, sign * k)
            grafted = graft_along(start, gam_k)
            reference = twist_about_curve(start, gam_k, sign)
            report.add(
                f"{name}-spiraling graft at k={k} matches the "
                f"{'inverse ' if sign < 0 else ''}twisted structure",
                grafted.key() == reference.key(),
                f"{grafted.key()} vs {reference.key()}")
    return report


def _random_even_multicurve(rng: random.Random,
                            model: SurfaceModel) -> Tuple[Component, ...]:
    """Components on distinct charts, each a primitive class with entries
    in [-5, 5] and an even multiplicity up to 8. The entries and the half
    multiplicity are drawn from rng.getrandbits as CPython 3.11's
    rng.randint(-5, 5) and rng.randint(1, 4) draw them, so from the same
    stream: a range of width w takes w.bit_length() bits, drawn again
    while at or above w."""
    n = rng.randint(1, len(model.charts))
    charts = rng.sample(list(model.charts), n)
    draw = rng.getrandbits
    comps = []
    for i, chart in enumerate(charts):
        while True:
            p = draw(4)
            while p >= 11:
                p = draw(4)
            q = draw(4)
            while q >= 11:
                q = draw(4)
            p, q = p - 5, q - 5
            if gcd(p, q) == 1:  # so not (0, 0)
                break
        half = draw(3)
        while half >= 4:
            half = draw(3)
        comps.append(Component(((f"w{i}", 1),), ((chart, TorusClass(p, q)),),
                               2 * half + 2))
    return tuple(comps)


def _suite_goldman(trials: int = 100, seed: int = 7) -> Report:
    _require_checks("goldman", "trials", trials, 0)
    report = Report("goldman")
    rng = random.Random(seed)
    model = SurfaceModel(4, "rho", tuple(f"c{i}" for i in range(6)))
    empty = structure(model, [])  # a value: every trial starts from it
    for t in range(trials):
        lam = _random_even_multicurve(rng, model)
        # the key renders the identity one to one, so the identities
        # decide, and the result's key is rendered only to report a miss
        want = _identity_of(lam, model)
        target = _render(want, model)
        sigma = list(goldman_decompose(lam))
        rng.shuffle(sigma)
        current = empty
        try:
            for comp in sigma:
                current = graft_along(current, comp)
            ok = current.identity() == want
            detail = f"{target if ok else current.key()} vs {target}"
        except NotAdmissible as exc:
            ok = False
            detail = str(exc)
        report.add(f"round trip #{t}", ok, detail)
    odd = (component("w0", {"c0": (1, 0)}, 3),)
    try:
        goldman_decompose(odd)
        report.add("odd multiplicity rejected", False, "no error raised")
    except OddMultiplicity as exc:
        report.add("odd multiplicity rejected", exc.label == "w0",
                   f"named {exc.label!r}")
    return report


def _suite_iterated(l0: int = 1, twist_bound: int = 8) -> Report:
    _require_checks("iterated", "twist_bound", twist_bound, 0)
    report = Report("iterated")
    config = standard_configuration()
    witnesses = common_grafts(config, l0, twist_bound)
    expected = 2 * twist_bound + 1
    by_m = {w.m: w for w in witnesses}
    for m in range(-twist_bound, twist_bound + 1):
        w = by_m.get(m)
        report.add(f"common graft at m={m} (k={2*m-l0}, l={l0})",
                   w is not None,
                   w.key if w else "keys differ")
    report.add(f"witness count equals full range ({expected})",
               len(witnesses) == expected, f"got {len(witnesses)}")
    return report


def _suite_two_meridian(k_max: int = 5) -> Report:
    _require_checks("two_meridian", "k_max", k_max)
    report = Report("two_meridian")
    config = standard_configuration(num_charts=2)
    a, b = config.model.charts
    base = config.base_structure()
    for k in range(1, k_max + 1):
        for l in range(0, k):
            both = twist_about_meridian(
                twist_about_meridian(config.gamma, a, k), b, l)
            one = graft_along(base, both)
            other = graft_along(
                twist_about_meridian(base, a, k),
                twist_about_meridian(config.gamma, b, l))
            report.add(f"two-meridian keys at k={k}, l={l}",
                       one.key() == other.key(),
                       f"{one.key()} vs {other.key()}")
    return report


def _suite_oracle(sweep: int = 5) -> Report:
    """Exhaustive torus/oracle agreement over primitive classes with
    entries bounded by the sweep radius."""
    _require_checks("oracle", "sweep", sweep)
    report = Report("oracle")
    prims = [(p, q) for p in range(-sweep, sweep + 1)
             for q in range(-sweep, sweep + 1)
             if gcd(abs(p), abs(q)) == 1]
    mismatches = 0
    modes = (Mode.SHARP, Mode.FLAT)
    probes = grid_oracle.probe_pairs(
        (a, 1, b, 1) for a, b in product(prims, repeat=2))
    for (a, b), pair in zip(product(prims, repeat=2), probes):
        forward = pair.forward
        ok = (forward.algebraic == algebraic_intersection(a, b)
              and forward.geometric == geometric_intersection(a, b))
        for mode, comps in zip(modes, pair.smoothings()):
            p = q = 0
            for c in comps:
                p += c[0]
                q += c[1]
            ok = ok and (p, q) == resolve(a, b, mode)
        if not ok:
            mismatches += 1
            report.add(f"oracle agreement for {a} vs {b}", False)
    report.add(f"oracle agreement on {len(prims) ** 2} primitive pairs "
               f"(radius {sweep})", mismatches == 0,
               f"{mismatches} mismatches")
    return report


_SUITES: Dict[str, Callable[..., Report]] = {
    "flatsharp": _suite_flatsharp,
    "sharp_flat": _suite_sharp_flat,
    "dehn_twist": _suite_dehn_twist,
    "goldman": _suite_goldman,
    "iterated": _suite_iterated,
    "two_meridian": _suite_two_meridian,
    "oracle": _suite_oracle,
}


def suite_names() -> Tuple[str, ...]:
    return tuple(sorted(_SUITES))


def _suite(name: str) -> Callable[..., Report]:
    try:
        return _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           f"{', '.join(suite_names())}") from None


def suite_parameters(name: str) -> set:
    """Names of the range parameters the given suite accepts."""
    import inspect  # only an error path reads a signature
    return set(inspect.signature(_suite(name)).parameters)


def verify_suite(name: str, **params) -> Report:
    """Run one named identity sweep and return its report.

    Unknown names raise UnknownSuite. Parameters not taken by the chosen
    suite, which fail to bind before any of it runs (so only a TypeError
    is checked for them), and a range at which it checks nothing raise
    ValueError. The CLI reports all of these as input errors.
    """
    suite = _suite(name)
    try:
        return suite(**params)
    except TypeError:
        rejected = sorted(set(params) - suite_parameters(name))
        if not rejected:
            raise
    raise ValueError(f"suite {name!r} does not take: "
                     f"{', '.join(rejected)}")
