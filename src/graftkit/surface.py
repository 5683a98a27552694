"""Curves and structures on a genus-g surface with meridian annulus charts.

The surface is modeled by the data the calculus actually needs: a genus,
a holonomy tag (an opaque identifier for the fixed representation), and a
list of named meridian annulus charts that are pairwise disjoint. A curve
is a finite set of components, each carrying

* a content multiset of base-curve labels recording which exterior routes
  the component follows (distinct labels, and parallel copies of one
  label, never meet outside the annuli),
* one torus class per chart it enters (each chart named once), in the
  chart basis where the base real curve reads (2,0), the meridian (0,1),
  the base grafting curve (1,0),
* a positive multiplicity counting parallel leaves.

Structure identity is the canonical key of the real multicurve: the
sorted content totals together with per-chart homology totals of
sign-normalized components. Operations reduce to chart torus arithmetic.

There is one graft, graft_along. is_admissible decides its route and,
for a curve that crosses the real curves, fixes the curve's orientation,
the crossed components, and per chart their total and smoothing; the
graft only does arithmetic on that decision.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (
    BadIntersectionPattern,
    NotAdmissible,
    OddMultiplicity,
    UnknownChart,
)
from .torus import (
    Mode,
    TorusClass,
    algebraic_intersection,
    dehn_twist,
    geometric_intersection,
    resolve,
)

MERIDIAN = TorusClass(0, 1)

Content = Tuple[Tuple[str, int], ...]
ChartMap = Tuple[Tuple[str, TorusClass], ...]


@dataclass(frozen=True)
class SurfaceModel:
    """Genus-g surface with named, pairwise disjoint meridian charts.

    Every chart's core meridian has trivial holonomy, and every move
    twists about it in the chart basis (MERIDIAN).
    """

    genus: int
    holonomy_tag: str
    charts: Tuple[str, ...]

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not self.charts or len(set(self.charts)) != len(self.charts):
            raise ValueError("charts must be nonempty and distinct")

    def require_chart(self, name: str) -> None:
        if name not in self.charts:
            raise UnknownChart(f"no chart named {name!r}")


@dataclass(frozen=True)
class Component:
    """One isotopy class of leaves: content labels, chart classes, count."""

    content: Content
    charts: ChartMap
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if not self.content:
            raise ValueError("content must name at least one label")
        if len(dict(self.charts)) != len(self.charts):
            raise ValueError("a component names each chart at most once")

    def chart_class(self, name: str) -> TorusClass:
        for chart, cls in self.charts:
            if chart == name:
                return cls
        return TorusClass(0, 0)

    def content_counter(self) -> Counter:
        return Counter(dict(self.content))


def component(label: str, charts: Mapping[str, Sequence[int]],
              multiplicity: int = 1) -> Component:
    """Build a simple (single-label) component from plain chart pairs."""
    chart_map = tuple(sorted(
        (name, TorusClass(*v)) for name, v in charts.items()
    ))
    return Component(((label, 1),), chart_map, multiplicity)


def _merged_component(content: Counter, charts: Mapping[str, TorusClass],
                      multiplicity: int = 1) -> Component:
    chart_map = tuple(sorted(
        (name, cls) for name, cls in charts.items() if cls != (0, 0)
    ))
    cont = tuple(sorted((lab, n) for lab, n in content.items() if n))
    return Component(cont, chart_map, multiplicity)


def _orientation(comp: Component, chart_order: Sequence[str]) -> int:
    """The orientation rule for unoriented curves: the sign (-1 or 1) that
    makes the first nonzero entry, charts in the given order, positive."""
    classes = dict(comp.charts)
    for name in chart_order:
        p, q = classes.get(name, (0, 0))
        if p or q:
            return -1 if (p or q) < 0 else 1
    return 1


def _normalized(comp: Component, chart_order: Sequence[str]) -> Component:
    """The component in its canonical orientation (see _orientation)."""
    if _orientation(comp, chart_order) > 0:
        return comp
    charts = tuple((name, -cls) for name, cls in comp.charts)
    return Component(comp.content, charts, comp.multiplicity)


@dataclass(frozen=True)
class SurfaceMulticurve:
    components: Tuple[Component, ...] = ()

    def total_chart_class(self, name: str) -> TorusClass:
        p = sum(c.multiplicity * c.chart_class(name).p for c in self.components)
        q = sum(c.multiplicity * c.chart_class(name).q for c in self.components)
        return TorusClass(p, q)

    def content_total(self) -> Counter:
        total: Counter = Counter()
        for c in self.components:
            for lab, n in c.content:
                total[lab] += n * c.multiplicity
        return total


def multicurve(*components: Component) -> SurfaceMulticurve:
    return SurfaceMulticurve(tuple(components))


def canonicalize(curve: SurfaceMulticurve,
                 model: SurfaceModel) -> SurfaceMulticurve:
    """Sorted normal form: orientation-normalized components, identical
    ones merged by adding multiplicities."""
    merged: Dict[Tuple[Content, ChartMap], int] = {}
    for comp in curve.components:
        norm = _normalized(comp, model.charts)
        key = (norm.content, norm.charts)
        merged[key] = merged.get(key, 0) + norm.multiplicity
    comps = tuple(
        Component(content, charts, mult)
        for (content, charts), mult in sorted(merged.items())
    )
    return SurfaceMulticurve(comps)


@dataclass(frozen=True)
class Structure:
    """A projective structure with the fixed holonomy: identified by the
    canonical form of its real multicurve."""

    model: SurfaceModel
    real_curves: SurfaceMulticurve
    _key: Optional[str] = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def holonomy_tag(self) -> str:
        return self.model.holonomy_tag

    def key(self) -> str:
        """The canonical key, computed on first use and kept. The key
        forgets how the totals split into components."""
        if self._key is None:
            object.__setattr__(self, "_key",
                               canonical_key(self.real_curves, self.model))
        return self._key


def structure(model: SurfaceModel,
              components: Iterable[Component] = ()) -> Structure:
    return Structure(model, canonicalize(SurfaceMulticurve(tuple(components)),
                                         model))


def canonical_key(curve: SurfaceMulticurve, model: SurfaceModel) -> str:
    """Deterministic identity key of a multicurve.

    Flattens to what classifies the structure: the content-label totals
    and, per chart, the homology total of the orientation-normalized
    components. Component order, orientations, and how parallel leaves
    are split across equal components cannot affect the key, so the
    totals are summed straight from the components, canonical or not.
    Content labels whose total is zero are kept.
    """
    totals = {name: [0, 0] for name in model.charts}
    content: Dict[str, int] = {}
    for comp in curve.components:
        mult = comp.multiplicity
        for lab, n in comp.content:
            content[lab] = content.get(lab, 0) + n * mult
        sign = mult * _orientation(comp, model.charts)
        for name, (p, q) in comp.charts:
            total = totals.get(name)
            if total is not None:
                total[0] += sign * p
                total[1] += sign * q
    payload = {"content": sorted(content.items()), "charts": totals}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Configuration checking


@dataclass(frozen=True)
class Configuration:
    """Validated base data for grafting pipelines: the base real curve
    and the base grafting curve."""

    model: SurfaceModel
    lam: Component
    gamma: Component

    def base_structure(self) -> Structure:
        return structure(self.model, [self.lam])


def validate_configuration(
    model: SurfaceModel,
    lam: Component,
    gamma: Component,
) -> Configuration:
    """Check the chart intersection pattern the grafting calculus assumes.

    Per chart both curves enter: the meridian must meet the real curve
    twice and the grafting curve once, and the two curves must be
    chart-disjoint. Violations raise BadIntersectionPattern naming the
    failed count.
    """
    for name in model.charts:
        lam_c = lam.chart_class(name)
        gam_c = gamma.chart_class(name)
        if lam_c == (0, 0) and gam_c == (0, 0):
            continue
        n_lam = geometric_intersection(MERIDIAN, lam_c)
        if n_lam != 2:
            raise BadIntersectionPattern(
                f"chart {name!r}: meridian meets the real curve "
                f"{n_lam} times, expected 2")
        n_gam = geometric_intersection(MERIDIAN, gam_c)
        if n_gam != 1:
            raise BadIntersectionPattern(
                f"chart {name!r}: meridian meets the grafting curve "
                f"{n_gam} times, expected 1")
        n_cross = geometric_intersection(lam_c, gam_c)
        if n_cross != 0:
            raise BadIntersectionPattern(
                f"chart {name!r}: base curves intersect {n_cross} times, "
                f"expected 0")
    return Configuration(model, lam, gamma)


# ---------------------------------------------------------------------------
# Spiraling classification and admissibility


def _spiral_sign(lam_total: TorusClass, gamma_cls: TorusClass) -> int:
    """Orientation of the spiral in one chart: for a real-curve class with
    horizontal strands the sign of the algebraic intersection, otherwise
    (doubled vertical class) the sign of the grafting class's twist."""
    if lam_total.p != 0:
        d = algebraic_intersection(lam_total, gamma_cls)
    else:
        d = gamma_cls.q if gamma_cls.p >= 0 else -gamma_cls.q
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class Admissibility:
    """One graft decision: the route taken, or None and the failed
    condition. A crossing decision also fixes all the graft needs: the
    curve oriented so its first nonzero chart entry is positive, the real
    components it crosses, and per chart in model order their total and
    the smoothing (FLAT where the spiral turns left, else SHARP; where
    nothing crosses, both give the plain sum)."""

    route: Optional[str]
    reason: str = ""
    oriented: Optional[Component] = field(default=None, repr=False)
    crossed: Tuple[Component, ...] = field(default=(), repr=False)
    totals: Tuple[TorusClass, ...] = field(default=(), repr=False)
    modes: Tuple[Mode, ...] = field(default=(), repr=False)

    def __bool__(self) -> bool:
        return self.route is not None


def is_admissible(gamma: Component, struct: Structure) -> Admissibility:
    """Decide whether the curve can be grafted onto the structure.

    Disjoint route: no chart crossings with any real component (distinct
    exterior labels never meet outside charts). Spiraling route: every
    chart with crossings carries a single strand of gamma (|p| = 1) and a
    well-defined spiral direction against the total of the crossed
    components there. Returns the route taken, or the failed condition.
    """
    model = struct.model
    classes = dict(gamma.charts)
    live = [(name, classes[name]) for name in model.charts
            if classes.get(name, (0, 0)) != (0, 0)]
    crossed = []
    hit = set()
    for comp in struct.real_curves.components:
        charts = {name for name, g in live
                  if geometric_intersection(comp.chart_class(name), g)}
        if charts:
            crossed.append(comp)
            hit |= charts
    if not crossed:
        return Admissibility("disjoint")
    lam = SurfaceMulticurve(tuple(crossed))
    totals = tuple(lam.total_chart_class(name) for name in model.charts)
    # The graft depends on the unoriented curve: fix the orientation
    # whose first nonzero chart entry is positive, and read each spiral
    # direction on it.
    oriented = _normalized(gamma, model.charts)
    modes = []
    for name, lam_total in zip(model.charts, totals):
        if name not in hit:
            modes.append(Mode.SHARP)
            continue
        g = classes[name]
        if abs(g.p) != 1:
            return Admissibility(
                None, f"chart {name!r}: grafting class {g} is not a single "
                      f"strand")
        sign = _spiral_sign(lam_total, oriented.chart_class(name))
        if sign == 0:
            return Admissibility(
                None, f"chart {name!r}: no spiral direction for {g} "
                      f"against {lam_total}")
        modes.append(Mode.SHARP if sign > 0 else Mode.FLAT)
    return Admissibility("spiraling", "", oriented, lam.components, totals,
                         tuple(modes))


def check_spiraling_hypotheses(gamma_prime: Component, gamma: Component,
                               lam: Component) -> bool:
    """Verify the intersection-count hypotheses for a twisted curve.

    For a curve obtained from the base grafting curve by meridian twists
    the counts must satisfy |i^(gamma, gamma')| = i(gamma, gamma') =
    i(gamma', lam)/2, and every chart strand must be single. Curves not
    of that twist-generated shape are rejected conservatively.
    """
    charts = {name for name, _ in gamma_prime.charts}
    charts.update(name for name, _ in gamma.charts)
    alg = 0
    geo = 0
    against_lam = 0
    for name in sorted(charts):
        g1 = gamma.chart_class(name)
        g2 = gamma_prime.chart_class(name)
        if (g1 != (0, 0) and abs(g1.p) != 1) or \
           (g2 != (0, 0) and abs(g2.p) != 1):
            return False
        if g1.p != g2.p:
            return False
        alg += algebraic_intersection(g1, g2)
        geo += geometric_intersection(g1, g2)
        against_lam += geometric_intersection(g2, lam.chart_class(name))
    if against_lam % 2:
        return False
    return abs(alg) == geo == against_lam // 2


# ---------------------------------------------------------------------------
# Twisting


def _twist_component(comp: Component, chart: str, n: int) -> Component:
    charts = dict(comp.charts)
    cls = charts.get(chart, (0, 0))
    if cls != (0, 0):
        charts[chart] = dehn_twist(cls, MERIDIAN, n)
    return Component(comp.content, tuple(sorted(charts.items())),
                     comp.multiplicity)


def twist_about_meridian(obj, chart: str, n: int):
    """Apply the n-fold Dehn twist about a chart's meridian.

    Works on a Component or a Structure and returns the same kind. Only
    the named chart's classes change; content labels, other charts, and
    the holonomy tag are untouched.
    """
    if isinstance(obj, Structure):
        obj.model.require_chart(chart)
        comps = [_twist_component(c, chart, n)
                 for c in obj.real_curves.components]
        return structure(obj.model, comps)
    if isinstance(obj, Component):
        return _twist_component(obj, chart, n)
    raise TypeError(f"cannot twist {type(obj).__name__}")


def twist_about_curve(struct: Structure, curve: Component,
                      k: int) -> Structure:
    """Twist the structure's real curves k times about a charted curve.

    Chart classes transform by the chart Dehn twist; each real component
    additionally picks up |k| * (crossing count) copies of the twisting
    curve's content per leaf, since every crossing drags one full copy of
    the curve into the component.
    """
    if curve.multiplicity != 1:
        raise ValueError("twisting curve must be a single leaf")
    out = []
    for comp in struct.real_curves.components:
        crossings = sum(
            geometric_intersection(comp.chart_class(name),
                                   curve.chart_class(name))
            for name, _ in curve.charts)
        charts = dict(comp.charts)
        for name, cls in curve.charts:
            base = comp.chart_class(name)
            twisted = dehn_twist(base, cls, k)
            if twisted != (0, 0) or base != (0, 0):
                charts[name] = twisted
        content = comp.content_counter()
        for lab, cnt in curve.content:
            content[lab] += abs(k) * crossings * cnt
        out.append(_merged_component(content, charts, comp.multiplicity))
    return structure(struct.model, out)


# ---------------------------------------------------------------------------
# Grafting


def graft_along(struct: Structure, gamma: Component) -> Structure:
    """Graft along a curve by the route its admissibility decision took.

    A disjoint curve adds two parallel leaves of itself. A crossing curve
    fuses the crossed components with two of its leaves: per chart, the
    crossed total resolved with the doubled oriented curve in the decided
    smoothing. An inadmissible curve raises NotAdmissible whose message
    is the failed condition.
    """
    adm = is_admissible(gamma, struct)
    if not adm:
        raise NotAdmissible(adm.reason)
    comps = struct.real_curves.components
    if adm.route == "disjoint":
        doubled = Component(gamma.content, gamma.charts,
                            2 * gamma.multiplicity)
        return structure(struct.model, list(comps) + [doubled])
    oriented = adm.oriented
    twice = 2 * oriented.multiplicity
    content = SurfaceMulticurve(adm.crossed).content_total()
    for lab, n in oriented.content:
        content[lab] += twice * n
    charts = {}
    for name, lam_total, mode in zip(struct.model.charts, adm.totals,
                                     adm.modes):
        p, q = oriented.chart_class(name)
        charts[name] = resolve(lam_total, (twice * p, twice * q), mode)
    fused = _merged_component(content, charts, 1)
    rest = [comp for comp in comps if comp not in adm.crossed]
    return structure(struct.model, rest + [fused])


# ---------------------------------------------------------------------------
# Goldman decomposition


def goldman_decompose(curve: SurfaceMulticurve) -> SurfaceMulticurve:
    """Halve every multiplicity of an all-even multicurve.

    Grafting a standard structure with empty real curves along the result
    (components in any order) reproduces the input; a component with odd
    multiplicity means no such decomposition exists and raises
    OddMultiplicity naming it.
    """
    halved = []
    for comp in curve.components:
        if comp.multiplicity % 2:
            label = "+".join(f"{lab}x{n}" if n > 1 else lab
                             for lab, n in comp.content)
            raise OddMultiplicity(label)
        halved.append(Component(comp.content, comp.charts,
                                comp.multiplicity // 2))
    return SurfaceMulticurve(tuple(halved))


# ---------------------------------------------------------------------------
# JSON wire format (schema 1)


def _is_int(value) -> bool:
    """A JSON integer; true and false are ints to Python, but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _component_to_json(comp: Component) -> dict:
    if len(comp.content) == 1 and comp.content[0][1] == 1:
        label = comp.content[0][0]
    else:
        label = [[lab, n] for lab, n in comp.content]
    return {
        "label": label,
        "charts": {name: [cls.p, cls.q] for name, cls in comp.charts},
        "multiplicity": comp.multiplicity,
    }


def _component_from_json(data: dict, model: SurfaceModel) -> Component:
    if not isinstance(data, dict):
        raise ValueError(f"curve entry must be an object, got {data!r}")
    label = data.get("label")
    if isinstance(label, str):
        content: Content = ((label, 1),)
    elif isinstance(label, list):
        for entry in label:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not _is_int(entry[1])):
                raise ValueError(f"label entry needs a [name, integer "
                                 f"count] pair, got {entry!r}")
        content = tuple(sorted((lab, n) for lab, n in label))
    else:
        raise ValueError("curve entry needs a 'label'")
    charts = data.get("charts")
    if not isinstance(charts, dict) or not charts:
        raise ValueError("curve entry needs a nonempty 'charts' object")
    for name, v in charts.items():
        if (not isinstance(v, (list, tuple)) or len(v) != 2
                or not all(_is_int(n) for n in v)):
            raise ValueError(f"chart {name!r} needs a pair of integers "
                             f"[p, q], got {v!r}")
        model.require_chart(name)
    chart_map = tuple(sorted((str(name), TorusClass(*v))
                             for name, v in charts.items()))
    mult = data.get("multiplicity", 1)
    if not _is_int(mult):
        raise ValueError(f"'multiplicity' must be an integer, got {mult!r}")
    return Component(content, chart_map, mult)


def parse_configuration(data: dict) -> Tuple[SurfaceModel, Structure,
                                             Optional[Component]]:
    """Read a schema-1 configuration object.

    Returns the model, the structure whose real curves are the listed
    components, and the designated grafting curve when a "gamma" entry is
    present. Raises ValueError on any schema violation.
    """
    if not isinstance(data, dict):
        raise ValueError("configuration must be a JSON object")
    if not _is_int(data.get("schema")) or data["schema"] != 1:
        raise ValueError("unsupported or missing 'schema' (expected 1)")
    genus = data.get("genus")
    if not _is_int(genus):
        raise ValueError("'genus' must be an integer")
    charts = data.get("charts")
    if (not isinstance(charts, list) or not charts
            or not all(isinstance(c, str) for c in charts)):
        raise ValueError("'charts' must be a nonempty list of names")
    holonomy = data.get("holonomy", "rho")
    if not isinstance(holonomy, str):
        raise ValueError(f"'holonomy' must be a string, got {holonomy!r}")
    model = SurfaceModel(genus, holonomy, tuple(charts))
    curves = data.get("curves", [])
    if not isinstance(curves, list):
        raise ValueError("'curves' must be a list")
    comps = [_component_from_json(entry, model) for entry in curves]
    gamma = None
    if "gamma" in data:
        gamma = _component_from_json(data["gamma"], model)
    return model, structure(model, comps), gamma


def structure_to_json(struct: Structure) -> dict:
    """Schema-1 object for a structure, canonical key included."""
    return {
        "schema": 1,
        "genus": struct.model.genus,
        "holonomy": struct.holonomy_tag,
        "charts": list(struct.model.charts),
        "curves": [_component_to_json(c)
                   for c in struct.real_curves.components],
        "key": struct.key(),
    }
