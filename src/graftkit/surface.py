"""Curves and structures on a genus-g surface with meridian annulus charts.

The surface is modeled by the data the calculus actually needs: a genus,
a holonomy tag (an opaque identifier for the fixed representation), and a
list of named meridian annulus charts that are pairwise disjoint. A curve
is a finite set of components, each carrying

* a content multiset of base-curve labels recording which exterior routes
  the component follows (distinct labels, and parallel copies of one
  label, never meet outside the annuli), sorted, each label named once,
* one torus class per chart it enters, sorted, each chart named once, in
  the chart basis where the base real curve reads (2,0), the meridian
  (0,1), the base grafting curve (1,0); a (0,0) class is left out,
* a positive multiplicity counting parallel leaves.

A multicurve is a tuple of components. Component fixes this spelling when
it is built (a zero label count is kept; a label or chart named twice,
or by anything but a string, is a ValueError), so canonicalize only
orients and merges; it rejects a chart the model lacks. A copy of a
component already in this spelling (a negation, a merge, a doubling, a
halving, a meridian twist), and the fused component a graft assembles in
it from checked labels and classes, is built without checking it again. A
Structure is its model and the canonical form of its real multicurve,
which by Goldman's theorem determines it, and keeps nothing else but its
key once computed. canonicalize is the one normal form: each component
in its canonical orientation, equal ones merged, in _order. Structure
identity is the canonical key of the real multicurve, the rendering of
its identity: the sorted content totals together with per-chart homology
totals of sign-normalized components. Operations reduce to chart torus
arithmetic.

There is one graft, graft_along, and one rule decides it: a crossing
scan (_crossings) finds the real components the curve crosses and per
chart their total, a smoothing rule (_fused) fuses each chart's total
with the doubled curve or refuses, and a totals rule (_spliced) gives the
destination's chart totals (_graft_content its content), so a search
tells without building it whether a graft lands on a structure it has
seen. is_admissible applies the rule to one curve, _decide_family to a
chart's whole twist family at once.
The graft only assembles the destination from the decision, and splices
it into the source's canonical curves instead of canonicalizing them
again: the doubled curve, or the fused component in place of the
crossed ones, goes in oriented at its place in _order, merged with an
equal component if there is one. A decision reads the curve's classes
by chart position and doubled class as kept on a copy _prepare made for
the structure's chart order, and works them out for any other curve; a
curve that names a chart the model lacks is an UnknownChart either way.

SurfaceModel, Component, Structure (and complex_graph's ComplexGraph)
are immutable values on one base, _Frozen: they compare and hash by
their fields and pickle through their constructors, so the package
needs no dataclasses.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
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
ZERO = TorusClass(0, 0)
_SHARP, _FLAT = Mode.SHARP, Mode.FLAT  # globals read faster than members


class _Frozen:
    """An immutable value. Its fields, named in order by the class's
    _fields, are its constructor's arguments; it equals, hashes and
    reprs as they do, and pickles and copies through the constructor.
    Setting or deleting any attribute raises AttributeError."""

    __slots__ = ()
    _fields: Tuple[str, ...]

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # the fields as a tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value
                            in zip(self._fields, self._values(self))])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class SurfaceModel(_Frozen):
    """Genus-g surface with named, pairwise disjoint meridian charts.

    Every chart's core meridian has trivial holonomy, and every move
    twists about it in the chart basis (MERIDIAN). chart_index, each
    chart's position in charts, is not a field, nor is key_heads, for
    _render and _graft: each chart's position in name order, with the
    name quoted as a key's charts object opens its entry, "a":[.
    """

    _fields = ("genus", "holonomy_tag", "charts")

    def __init__(self, genus: int, holonomy_tag: str,
                 charts: Tuple[str, ...]):
        if genus < 2:
            raise ValueError("genus must be at least 2")
        if not all(isinstance(name, str) for name in charts):
            raise ValueError("chart names must be strings")
        if not charts or len(set(charts)) != len(charts):
            raise ValueError("charts must be nonempty and distinct")
        self.__dict__.update(
            genus=genus, holonomy_tag=holonomy_tag, charts=charts,
            chart_index={name: i for i, name in enumerate(charts)},
            key_heads=tuple([(i, f"{_quote(name)}:[") for name, i
                             in sorted(zip(charts, range(len(charts))))]))

    def require_chart(self, name: str) -> None:
        """The one raiser of UnknownChart: a name the model lacks."""
        if name not in self.chart_index:
            raise UnknownChart(f"no chart named {name!r}") from None


def _by_name(entries, what: str):
    """The entries in name order, each name a string and named once; as
    given if they are."""
    ordered, last = True, None
    for name, _ in entries:
        if not isinstance(name, str):
            raise ValueError(f"a {what} name must be a string, got {name!r}")
        if last is not None and last >= name:
            ordered = False
        last = name
    if ordered:
        return entries
    entries = tuple(sorted(entries))
    if len(dict(entries)) < len(entries):
        raise ValueError(f"a component names each {what} at most once")
    return entries


class Component(_Frozen):
    """One isotopy class of leaves: content labels, chart classes, count.
    A field is respelled (see the module docstring) only if it must be."""

    _fields = ("content", "charts", "multiplicity")
    # not a field: only the copies _prepare makes carry decision data
    _prepared = None

    def __init__(self, content: Tuple[Tuple[str, int], ...],
                 charts: Tuple[Tuple[str, TorusClass], ...],
                 multiplicity: int = 1):
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if not content:
            raise ValueError("content must name at least one label")
        content = _by_name(content, "label")
        normal = True
        for _, cls in charts:
            if type(cls) is not TorusClass or cls == (0, 0):
                normal = False
                break
        if not normal:
            charts = tuple([(name, TorusClass(*cls))
                            for name, cls in charts])
        charts = _by_name(charts, "chart")
        if not normal:
            charts = tuple([e for e in charts if e[1] != (0, 0)])
        self.__dict__.update(content=content, charts=charts,
                             multiplicity=multiplicity)

    def chart_class(self, name: str) -> TorusClass:
        for chart, cls in self.charts:
            if chart == name:
                return cls
        return ZERO


_new = object.__new__


def _normal_component(content: tuple, charts: tuple,
                      multiplicity: int) -> Component:
    """A Component of fields already in Component's normal form, as
    copied from a normal one or assembled in it, built without checking
    them. It carries no _prepared data."""
    comp = _new(Component)
    fields = comp.__dict__
    fields["content"] = content
    fields["charts"] = charts
    fields["multiplicity"] = multiplicity
    return comp


def component(label: str, charts: Mapping[str, Sequence[int]],
              multiplicity: int = 1) -> Component:
    """Build a simple (single-label) component from plain chart pairs."""
    return Component(((label, 1),), tuple([
        (name, TorusClass(*v)) for name, v in charts.items()]), multiplicity)


def _sign(classes: Iterable[Sequence[int]]) -> int:
    """The orientation rule for unoriented curves: the sign (-1 or 1) that
    makes the first nonzero entry of the classes, in order, positive."""
    for p, q in classes:
        if p or q:
            return -1 if (p or q) < 0 else 1
    return 1


def _orientation(comp: Component, model: SurfaceModel) -> int:
    """The one orientation rule: the sign _sign gives a component's
    classes, charts in model order. Its class in the first chart it
    enters, by position in model.chart_index, decides, since a
    component's classes are nonzero."""
    charts = comp.charts
    if not charts:
        return 1
    first = charts[0]
    if len(charts) > 1:
        index = model.chart_index
        at = index[first[0]]
        for entry in charts:
            i = index[entry[0]]
            if i < at:
                at, first = i, entry
    return _sign((first[1],))


def _normalized(comp: Component, model: SurfaceModel) -> Component:
    """The component in its canonical orientation (see _orientation)."""
    if _orientation(comp, model) > 0:
        return comp
    charts = tuple([(name, -cls) for name, cls in comp.charts])
    return _normal_component(comp.content, charts, comp.multiplicity)


def _order(comp: Component) -> tuple:
    """A canonical component's place in the canonical tuple: equal ones
    share it, and the tuple is sorted by it."""
    return comp.content, comp.charts


def canonicalize(curve: Iterable[Component],
                 model: SurfaceModel) -> Tuple[Component, ...]:
    """Sorted normal form: each component in its canonical orientation,
    equal ones merged by adding multiplicities, in _order. Components
    already oriented and met once are kept as they are; spelling is
    Component's. A chart the model lacks raises UnknownChart."""
    merged: Dict[tuple, Component] = {}
    index = model.chart_index
    for c in curve:
        for name, _ in c.charts:
            if name not in index:
                model.require_chart(name)
        c = _normalized(c, model)
        key = _order(c)
        if key in merged:
            c = _normal_component(*key, merged[key].multiplicity
                                  + c.multiplicity)
        merged[key] = c
    return tuple([merged[key] for key in sorted(merged)])


def _spliced_in(curves: Sequence[Component], comp: Component,
                model: SurfaceModel) -> Tuple[Component, ...]:
    """canonicalize(curves + [comp]) for canonical curves, by splicing:
    the component in its canonical orientation at its place in _order,
    merged with an equal one if the curves hold it."""
    comp = _normalized(comp, model)
    key = _order(comp)
    at = bisect_left(curves, key, key=_order)
    if at < len(curves) and _order(curves[at]) == key:
        comp = _normal_component(*key, curves[at].multiplicity
                                 + comp.multiplicity)
        return (*curves[:at], comp, *curves[at + 1:])
    return (*curves[:at], comp, *curves[at:])


class Structure(_Frozen):
    """A projective structure with the fixed holonomy: identified by the
    canonical form of its real multicurve, which is what it keeps. Built
    from any components, it canonicalizes them; a graft splices into its
    source's canonical curves and builds its destination from the result
    as it stands. The key, not a field, is kept once computed or given."""

    __slots__ = ("model", "real_curves", "_key")
    _fields = ("model", "real_curves")

    def __init__(self, model: SurfaceModel,
                 real_curves: Iterable[Component]):
        _set_model(self, model)
        _set_curves(self, canonicalize(real_curves, model))
        _set_key(self, None)

    @property
    def holonomy_tag(self) -> str:
        return self.model.holonomy_tag

    def key(self) -> str:
        """The canonical key. It forgets how the totals split into
        components."""
        if self._key is None:
            object.__setattr__(self, "_key",
                               canonical_key(self.real_curves, self.model))
        return self._key

    def identity(self) -> tuple:
        """The integers the key renders: the sorted content totals and,
        per chart in model order, the homology total of the
        orientation-normalized components, which its curves already are
        (canonicalize or _spliced_in gave them)."""
        return _identity_of(self.real_curves, self.model, oriented=True)

    def _keep(self, key: str) -> None:
        """Keep a key rendered from an identity worked out by arithmetic."""
        object.__setattr__(self, "_key", key)


_set_model = Structure.model.__set__  # the slots' own setters
_set_curves = Structure.real_curves.__set__
_set_key = Structure._key.__set__


def _canonical_structure(model: SurfaceModel,
                         curves: Tuple[Component, ...]) -> Structure:
    """A Structure of curves already as canonicalize gives them, built
    without canonicalizing them again."""
    struct = _new(Structure)
    _set_model(struct, model)
    _set_curves(struct, curves)
    _set_key(struct, None)
    return struct


def structure(model: SurfaceModel,
              components: Iterable[Component] = ()) -> Structure:
    return Structure(model, components)


def _identity_of(curve: Iterable[Component], model: SurfaceModel,
                 oriented: bool = False) -> tuple:
    """What classifies a multicurve: the content-label totals, sorted,
    and per chart in model order the homology total of the
    orientation-normalized components. Component order, orientations, and
    how parallel leaves are split across equal components cannot affect
    it, so the totals are summed straight from the components, canonical
    or not; oriented says they are all normalized already. Content labels
    whose total is zero are kept."""
    index = model.chart_index
    totals = [[0, 0] for _ in model.charts]
    content: Dict[str, int] = {}
    for comp in curve:
        mult = comp.multiplicity
        for lab, n in comp.content:
            content[lab] = content.get(lab, 0) + n * mult
        weight = mult if oriented else mult * _orientation(comp, model)
        for name, (p, q) in comp.charts:
            total = totals[index[name]]
            total[0] += weight * p
            total[1] += weight * q
    return (tuple(sorted(content.items())),
            tuple([(p, q) for p, q in totals]))


def _render(identity: tuple, model: SurfaceModel,
            labels: Optional[Dict[tuple, str]] = None) -> str:
    """The key string of an identity, written directly: byte for byte
    json.dumps({"content": content, "charts": {chart: total}},
    sort_keys=True, separators=(",", ":")), the charts in name order and
    every label and chart name ASCII-escaped as json quotes it. Names are
    strings (SurfaceModel and Component check), so the order is str's;
    the model keeps the charts in that order with their quoted names
    (key_heads), so a key only joins the totals onto them. A caller
    that renders many keys of few contents passes labels, a dict it
    keeps of each content's rendered labels (build_complex keeps one
    per build), so each content's labels are rendered once."""
    content, totals = identity
    charts = ",".join([f"{head}{totals[i][0]},{totals[i][1]}]"
                       for i, head in model.key_heads])
    text = None if labels is None else labels.get(content)
    if text is None:
        text = ",".join([f"[{_quote(lab)},{n}]" for lab, n in content])
        if labels is not None:
            labels[content] = text
    return f'{{"charts":{{{charts}}},"content":[{text}]}}'


def canonical_key(curve: Iterable[Component], model: SurfaceModel) -> str:
    """Deterministic identity key of a multicurve: its identity (see
    _identity_of) rendered by _render as compact, sorted, ASCII-escaped
    JSON. A chart the model lacks raises UnknownChart."""
    try:
        identity = _identity_of(curve, model)
    except KeyError as exc:  # only a chart lookup can miss
        model.require_chart(exc.args[0])
        raise
    return _render(identity, model)


# ---------------------------------------------------------------------------
# Configuration checking


class Configuration(namedtuple("Configuration", "model lam gamma")):
    """Validated base data for grafting pipelines: the SurfaceModel, the
    base real curve lam and the base grafting curve gamma (Components)."""

    __slots__ = ()

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


def _spiral_sign(lam_total: Sequence[int], gamma_cls: Sequence[int]) -> int:
    """Orientation of the spiral in one chart: for a real-curve class with
    horizontal strands the sign of the algebraic intersection, otherwise
    (doubled vertical class) the sign of the grafting class's twist. A
    positive multiple of the grafting class gives the same sign."""
    p, q = gamma_cls
    if lam_total[0] != 0:
        d = algebraic_intersection(lam_total, gamma_cls)
    else:
        d = q if p >= 0 else -q
    return (d > 0) - (d < 0)


class Admissibility(namedtuple("Admissibility", "route reason source curve "
                               "crossed totals fused",
                               defaults=("", None, None, (), (), ()))):
    """One graft decision of a curve (a Component) on a source Structure:
    the route taken, or None and the failed condition (strs). A crossing
    decision also fixes all the graft needs: the real Components the
    curve crosses and, per chart in model order, their total ((int, int)
    pairs) and the fused TorusClass (see _fused) with the doubled curve,
    oriented so its first nonzero chart entry is positive. Fields after
    route default to "", None or ()."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.route is not None


def _graft_content(content: tuple, curve: Component) -> tuple:
    """The content totals after either route grafts two leaves of the
    curve onto a structure with the given totals. Meridian twists keep a
    curve's content and multiplicity, so one result serves them all."""
    twice = 2 * curve.multiplicity
    gained = dict(content)
    for lab, n in curve.content:
        gained[lab] = gained.get(lab, 0) + twice * n
    return tuple(sorted(gained.items()))


def _spliced(rest: Sequence[Tuple[int, int]], fused: Sequence
             ) -> Tuple[Tuple[int, int], ...]:
    """The one totals rule, a graft's destination chart totals: per chart
    the source's total less the crossed total (rest), plus the fused
    class in its own orientation. On the disjoint route rest is the
    source's totals and the fused class the doubled curve."""
    turn = _sign(fused)
    out = []  # a loop: a comprehension costs more for one to three charts
    for (p, q), (fp, fq) in zip(rest, fused):
        out.append((p + turn * fp, q + turn * fq))
    return tuple(out)


def _by_position(gamma: Component, model: SurfaceModel) -> list:
    """The curve's class per chart, in model order; None where it does
    not enter. A chart the model lacks raises UnknownChart."""
    index = model.chart_index
    given = [None] * len(index)
    for name, cls in gamma.charts:
        if name not in index:
            model.require_chart(name)
        given[index[name]] = cls
    return given


def _doubled(gamma: Component, given: Sequence[Optional[TorusClass]],
             model: SurfaceModel) -> Tuple[Tuple[int, int], ...]:
    """Two leaves of the curve per chart position (see _by_position) in
    its canonical orientation, ZERO where it does not enter."""
    twice = 2 * gamma.multiplicity * _orientation(gamma, model)
    return tuple([ZERO if g is None else (twice * g.p, twice * g.q)
                  for g in given])


def _prepare(gamma: Component, model: SurfaceModel) -> Component:
    """A copy of the curve keeping what a decision reads of it for the
    model's chart order; the given curve is left as it is."""
    given = _by_position(gamma, model)
    copy = Component(gamma.content, gamma.charts, gamma.multiplicity)
    object.__setattr__(copy, "_prepared", (
        model.charts, given, _doubled(gamma, given, model)))
    return copy


def _crosses(cls: Sequence[int], g: Optional[TorusClass]) -> bool:
    """The crossing test: a real class meets the curve's class g in a
    chart unless they are parallel or g is None (the curve is not there)."""
    return g is not None and cls[0] * g[1] != cls[1] * g[0]


def _crossings(struct: Structure, given: Sequence[Optional[TorusClass]],
               at: int = -1) -> tuple:
    """The crossing scan of a curve's classes by chart position (see
    _by_position): the real components it crosses and, per chart,
    whether any is crossed there and their total there, which, as they
    are canonical, is their share of the identity's. Given a chart
    position at, every component there counts as crossed and its class
    there is listed."""
    index = struct.model.chart_index
    crossed, in_chart = [], []
    hit = [False] * len(given)
    for comp in struct.real_curves:
        crosses = False
        for name, cls in comp.charts:
            i = index[name]
            if i == at:
                in_chart.append(cls)
            elif not _crosses(cls, given[i]):
                continue
            hit[i] = crosses = True
        if crosses:
            crossed.append(comp)
    lam = [(0, 0)] * len(given)
    for comp in crossed:
        mult = comp.multiplicity
        for name, (p, q) in comp.charts:
            i = index[name]
            lp, lq = lam[i]
            lam[i] = (lp + mult * p, lq + mult * q)
    return crossed, hit, lam, in_chart


def _fused(total: Tuple[int, int], g: Optional[TorusClass],
           doubled: Tuple[int, int], crossed: bool):
    """The smoothing rule in one chart: the crossed total resolved with
    the doubled curve in the smoothing the spiral picks, FLAT where it
    turns left, else SHARP; where nothing is crossed, both give the plain
    sum. A crossed chart where the curve's class g is not a single strand
    (|p| = 1), or where the spiral has no direction, refuses: what comes
    back is then the failed test, "strand" or "spiral"."""
    mode = _SHARP
    if crossed:
        if abs(g.p) != 1:
            return "strand"
        sign = _spiral_sign(total, doubled)
        if not sign:
            return "spiral"
        if sign < 0:
            mode = _FLAT
    return resolve(total, doubled, mode)


def is_admissible(gamma: Component, struct: Structure) -> Admissibility:
    """Decide whether the curve can be grafted onto the structure: the
    crossing scan, then the smoothing in each chart (the totals follow in
    _handed_on). Disjoint route: no chart crossings with any real
    component (distinct exterior labels never meet outside charts).
    Spiraling route: every crossed chart carries a single strand of gamma
    and a spiral direction against the crossed total there. Returns the
    route taken, or the failed condition.
    """
    model = struct.model
    charts = model.charts
    kept = gamma._prepared
    if kept is not None and kept[0] == charts:
        _, given, doubled = kept
    else:
        given, doubled = _by_position(gamma, model), None
    crossed, hit, lam, _ = _crossings(struct, given)
    if not crossed:
        return Admissibility("disjoint", "", struct, gamma)
    if doubled is None:
        doubled = _doubled(gamma, given, model)
    fused = []
    for i, total in enumerate(lam):
        cls = _fused(total, given[i], doubled[i], hit[i])
        if cls.__class__ is str:
            g = given[i]
            return Admissibility(None, f"chart {charts[i]!r}: " + (
                f"grafting class {g} is not a single strand"
                if cls == "strand" else
                f"no spiral direction for {g} against {TorusClass(*total)}"))
        fused.append(cls)
    return Admissibility("spiraling", "", struct, gamma, tuple(crossed),
                         tuple(lam), tuple(fused))


def _positions(gamma: Component, model: SurfaceModel) -> tuple:
    """The curve's classes by chart position and doubled (see
    _by_position and _doubled): as _prepare kept them for the model's
    chart order, or worked out."""
    kept = gamma._prepared
    if kept is not None and kept[0] == model.charts:
        return kept[1], kept[2]
    given = _by_position(gamma, model)
    return given, _doubled(gamma, given, model)


def _handed_on(gamma: Component, struct: Structure,
               base: Sequence[Tuple[int, int]]):
    """A curve's own decision, as _decide_family gives it: is_admissible's
    reason, or the totals rule applied to it and the source's totals."""
    adm = is_admissible(gamma, struct)
    if not adm:
        return adm.reason
    if adm.route == "disjoint":
        return _spliced(base, _positions(gamma, struct.model)[1])
    return _spliced([(p - lp, q - lq) for (p, q), (lp, lq)
                     in zip(base, adm.totals)], adm.fused)


def _decide_family(struct: Structure, base: Sequence[Tuple[int, int]],
                   chart: str, curves: Sequence[Component]) -> list:
    """Decide grafting each curve of a twist family onto the structure
    with the given chart totals, as _handed_on would, in one pass.

    The curves are one curve and its meridian twists about the chart:
    they differ in that chart's class alone. So the crossing scan, with
    every component in the chart counted as crossed, and the smoothing in
    the other charts are done once. Per curve are left the crossing test
    against each real class in the chart and the smoothing there, and
    the totals rule then gives its destination. is_admissible decides
    what the pass does not cover, so every refusal is its: a component
    parallel to the curve in the chart, nothing crossed, or a refusing
    chart.
    """
    model = struct.model
    at = model.chart_index[chart]
    given, doubled = _positions(curves[0], model)
    crossed, hit, lam, in_chart = _crossings(struct, given, at)
    fused = [None] * len(lam)  # the chart's own is per curve, below
    for i, total in enumerate(lam):
        if i != at:
            fused[i] = _fused(total, given[i], doubled[i], hit[i])
            if fused[i].__class__ is str:  # in a chart twists leave alone
                crossed = ()
                break
    if not crossed:
        return [_handed_on(curve, struct, base) for curve in curves]
    total = lam[at]
    rest = [(p - lp, q - lq) for (p, q), (lp, lq) in zip(base, lam)]
    out = []
    for curve in curves:
        given, doubled = _positions(curve, model)
        g = given[at]
        for real in in_chart:
            if not _crosses(real, g):  # not crossed there: handed on
                cls = "parallel"
                break
        else:
            cls = _fused(total, g, doubled[at], hit[at])
        if cls.__class__ is str:
            out.append(_handed_on(curve, struct, base))
        else:
            fused[at] = cls
            out.append(_spliced(rest, fused))
    return out


# ---------------------------------------------------------------------------
# Twisting


def _twist_component(comp: Component, chart: str, n: int) -> Component:
    charts = dict(comp.charts)
    cls = charts.get(chart)
    if cls is None:
        return comp
    # nonzero, as cls is: the twist keeps p, and q where p is 0
    charts[chart] = dehn_twist(cls, MERIDIAN, n)
    return _normal_component(comp.content, tuple(charts.items()),
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
                 for c in obj.real_curves]
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
    the curve into the component. A chart the model lacks raises
    UnknownChart.
    """
    if curve.multiplicity != 1:
        raise ValueError("twisting curve must be a single leaf")
    for name, _ in curve.charts:
        struct.model.require_chart(name)
    out = []
    for comp in struct.real_curves:
        charts = dict(comp.charts)
        crossings = 0
        for name, cls in curve.charts:
            base = charts.get(name, TorusClass(0, 0))
            crossings += geometric_intersection(base, cls)
            charts[name] = dehn_twist(base, cls, k)
        content = dict(comp.content)
        if k and crossings:
            for lab, n in curve.content:
                content[lab] = content.get(lab, 0) + abs(k) * crossings * n
        out.append(Component(tuple(content.items()), tuple(charts.items()),
                             comp.multiplicity))
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
    return _graft(adm)


def _graft(adm: Admissibility) -> Structure:
    """The structure an admitted decision describes, spliced into the
    source's canonical curves (see _spliced_in): two leaves of the curve,
    or the fused component in place of the crossed ones, assembled in
    normal form: its content summed and sorted, its nonzero classes in
    chart name order."""
    model = adm.source.model
    comps = adm.source.real_curves
    curve = adm.curve
    twice = 2 * curve.multiplicity
    if adm.route == "disjoint":
        doubled = _normal_component(curve.content, curve.charts, twice)
        return _canonical_structure(model, _spliced_in(comps, doubled,
                                                       model))
    content: Dict[str, int] = {}
    for comp in adm.crossed:
        mult = comp.multiplicity
        for lab, n in comp.content:
            content[lab] = content.get(lab, 0) + n * mult
    for lab, n in curve.content:
        content[lab] = content.get(lab, 0) + twice * n
    charts, classes = model.charts, adm.fused
    fused = _normal_component(
        tuple(sorted(content.items())),
        tuple([(charts[i], classes[i]) for i, _ in model.key_heads
               if classes[i] != ZERO]), 1)
    crossed = set(map(id, adm.crossed))
    rest = tuple([comp for comp in comps if id(comp) not in crossed])
    return _canonical_structure(model, _spliced_in(rest, fused, model))


# ---------------------------------------------------------------------------
# Goldman decomposition


def goldman_decompose(curve: Iterable[Component]) -> Tuple[Component, ...]:
    """Halve every multiplicity of an all-even multicurve.

    Grafting a standard structure with empty real curves along the result
    (components in any order) reproduces the input; a component with odd
    multiplicity means no such decomposition exists and raises
    OddMultiplicity naming it.
    """
    halved = []
    for comp in curve:
        if comp.multiplicity % 2:
            label = "+".join(f"{lab}x{n}" if n > 1 else lab
                             for lab, n in comp.content)
            raise OddMultiplicity(label)
        halved.append(_normal_component(comp.content, comp.charts,
                                        comp.multiplicity // 2))
    return tuple(halved)


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
        content = ((label, 1),)
    elif isinstance(label, list):
        for entry in label:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not _is_int(entry[1])):
                raise ValueError(f"label entry needs a [name, integer "
                                 f"count] pair, got {entry!r}")
            if entry[1] < 0:
                raise ValueError(f"label count must not be negative, "
                                 f"got {entry!r}")
        content = tuple(map(tuple, label))
    else:
        raise ValueError("curve entry needs a 'label'")
    charts = data.get("charts")
    if not isinstance(charts, dict):
        raise ValueError("curve entry needs a 'charts' object")
    for name, v in charts.items():
        if (not isinstance(v, (list, tuple)) or len(v) != 2
                or not all(_is_int(n) for n in v)):
            raise ValueError(f"chart {name!r} needs a pair of integers "
                             f"[p, q], got {v!r}")
        model.require_chart(name)
    mult = data.get("multiplicity", 1)
    if not _is_int(mult):
        raise ValueError(f"'multiplicity' must be an integer, got {mult!r}")
    comp = Component(content, tuple((name, TorusClass(*v))
                                    for name, v in charts.items()), mult)
    if not comp.charts:
        raise ValueError("curve entry needs a nonzero class in some chart")
    return comp


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
                   for c in struct.real_curves],
        "key": struct.key(),
    }
