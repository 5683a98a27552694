"""Charted-surface layer: validation, spiraling, grafting, canonical keys."""

import itertools
import json
import pickle
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftkit import (
    BadIntersectionPattern,
    Component,
    NotAdmissible,
    OddMultiplicity,
    SurfaceModel,
    TorusClass,
    UnknownChart,
    build_complex,
    canonical_key,
    canonicalize,
    complex_graph,
    component,
    goldman_decompose,
    graft_along,
    is_admissible,
    parse_configuration,
    standard_configuration,
    structure,
    structure_to_json,
    twist_about_curve,
    twist_about_meridian,
    surface,
    validate_configuration,
)


def hopf_model():
    return SurfaceModel(2, "rho", ("a",))


def standard_pair(model=None):
    model = model or hopf_model()
    lam = component("lambda", {name: (2, 0) for name in model.charts})
    gam = component("gamma", {name: (1, 0) for name in model.charts})
    return model, lam, gam


class TestModel:
    def test_genus_floor(self):
        with pytest.raises(ValueError):
            SurfaceModel(1, "rho", ("a",))

    def test_duplicate_charts_rejected(self):
        with pytest.raises(ValueError):
            SurfaceModel(2, "rho", ("a", "a"))

    def test_unknown_chart(self):
        with pytest.raises(UnknownChart):
            hopf_model().require_chart("z")

    def test_repeated_chart_rejected(self):
        # a component carries one class per chart
        with pytest.raises(ValueError, match="chart"):
            Component((("x", 1),), (("a", TorusClass(2, 0)),
                                    ("b", TorusClass(1, 0)),
                                    ("b", TorusClass(3, 0))))

    def test_repeated_label_rejected(self):
        # a component names each content label once
        with pytest.raises(ValueError, match="label"):
            Component((("x", 1), ("x", 2)), (("a", TorusClass(2, 0)),))

    @pytest.mark.parametrize("charts", [(1, "1"), ("a", 1), (None,),
                                        (b"a",), (["a"],)],
                             ids=["int-first", "int-last", "none", "bytes",
                                  "unhashable"])
    def test_chart_names_are_strings(self, charts):
        # a key sorts and quotes chart names, so only strings are names
        with pytest.raises(ValueError, match="string"):
            SurfaceModel(2, "rho", charts)

    @pytest.mark.parametrize("content, charts", [
        ((("x", 1), (2, 1)), (("a", (1, 0)),)),
        (((5, 1),), (("a", (1, 0)),)),
        ((("x", 1),), ((1, (1, 0)),)),
        ((("x", 1),), (("b", (1, 0)), (0, (1, 0)))),
        ((("x", 1),), ((None, (0, 0)),)),
    ], ids=["mixed-labels", "int-label", "int-chart", "mixed-charts",
            "zero-class-chart"])
    def test_component_names_are_strings(self, content, charts):
        # the JSON reader reads string labels only, so no other label
        # can be keyed
        with pytest.raises(ValueError, match="string"):
            Component(content, charts)

    def test_simple_component_label_is_a_string(self):
        with pytest.raises(ValueError, match="label name must be a string"):
            component(5, {"a": (1, 0)})


class TestSpelling:
    """A curve has one spelling, so a structure has one identity."""

    model = SurfaceModel(2, "rho", ("a", "b"))
    meridian = component("g", {"a": (0, 1)})

    def zero_count_structure(self):
        return structure(self.model, [Component(
            (("x", 0), ("y", 1)), (("a", TorusClass(2, 0)),))])

    def test_zero_twist_keeps_zero_count(self):
        struct = self.zero_count_structure()
        twisted = twist_about_curve(struct, self.meridian, 0)
        assert twisted.key() == struct.key()
        assert json.loads(twisted.key())["content"] == [["x", 0], ["y", 1]]

    def test_spiraling_graft_keeps_zero_count(self):
        struct = self.zero_count_structure()
        grafted = graft_along(struct, component("g", {"a": (1, 1)}))
        assert json.loads(grafted.key())["content"] == \
            [["g", 2], ["x", 0], ["y", 1]]

    @pytest.mark.parametrize("charts", [
        (("a", TorusClass(1, 0)), ("b", TorusClass(0, 0))),
        (("b", TorusClass(0, 0)), ("a", TorusClass(1, 0))),
    ], ids=["zero-class", "zero-class-first"])
    def test_spellings_merge(self, charts):
        plain = component("x", {"a": (1, 0)})
        struct = structure(self.model, [plain, Component((("x", 1),), charts)])
        assert struct.real_curves == (
            Component(plain.content, plain.charts, 2),)
        assert structure_to_json(struct)["curves"] == [
            {"label": "x", "charts": {"a": [1, 0]}, "multiplicity": 2}]

    @pytest.mark.parametrize("cls", [(-1, 2), [-1, 2], (1, -2), (0, 0)])
    def test_plain_pair_classes(self, cls):
        # a class given as a plain pair is spelled as a TorusClass, so it
        # orients, keys and grafts like one
        comp = Component((("x", 1),), (("a", cls),))
        typed = component("x", {"a": cls})
        assert comp == typed
        assert all(type(c) is TorusClass for _, c in comp.charts)
        struct = structure(self.model, [comp])
        assert struct.key() == structure(self.model, [typed]).key()
        gamma = Component((("g", 1),), (("a", (1, 1)), ("b", [0, 1])))
        assert graft_along(struct, gamma).key() == graft_along(
            struct, component("g", {"a": (1, 1), "b": (0, 1)})).key()

    def test_unsorted_charts_merge(self):
        first = Component((("x", 1),), (("a", TorusClass(1, 0)),
                                        ("b", TorusClass(0, 1))))
        second = Component((("x", 1),), (("b", TorusClass(0, 1)),
                                         ("a", TorusClass(1, 0))))
        assert first == second
        merged = structure(self.model, [first, second]).real_curves
        assert [c.multiplicity for c in merged] == [2]


class TestValidation:
    def test_standard_pattern_accepted(self):
        model, lam, gam = standard_pair()
        config = validate_configuration(model, lam, gam)
        assert (config.lam, config.gamma) == (lam, gam)
        assert config.base_structure().key() == \
            canonical_key((lam,), model)

    def test_real_curve_count_enforced(self):
        model, _, gam = standard_pair()
        bad = component("lambda", {"a": (1, 0)})
        with pytest.raises(BadIntersectionPattern, match="real curve"):
            validate_configuration(model, bad, gam)

    def test_chart_disjointness_enforced(self):
        model, lam, _ = standard_pair()
        bad = component("gamma", {"a": (1, 1)})
        with pytest.raises(BadIntersectionPattern, match="intersect"):
            validate_configuration(model, lam, bad)


def reversed_curve(comp):
    """The same unoriented curve with every chart class negated."""
    return Component(comp.content,
                     tuple((name, -cls) for name, cls in comp.charts),
                     comp.multiplicity)


def dehn_twist_instance(k):
    """The dehn_twist suite's construction for a nonzero k: the real
    curve twisted k - 1 times toward the sign of k, and the grafting
    curve twisted k times."""
    model, lam, gam = standard_pair()
    sign = 1 if k > 0 else -1
    start = structure(model, [twist_about_meridian(lam, "a", k - sign)])
    return start, twist_about_meridian(gam, "a", k)


class TestSpiralingClass:
    """The spiral direction has one classifier, the one grafting uses;
    these facts are stated through the graft."""

    def test_right_label(self):
        # (1,2): positive meridian twisting spirals right, the twist +1
        start, gam_k = dehn_twist_instance(2)
        assert gam_k.chart_class("a") == (1, 2)
        grafted = graft_along(start, gam_k).key()
        assert grafted == twist_about_curve(start, gam_k, 1).key()
        assert grafted != twist_about_curve(start, gam_k, -1).key()

    def test_left_label(self):
        # (1,-3) spirals left, the twist -1
        start, gam_k = dehn_twist_instance(-3)
        assert gam_k.chart_class("a") == (1, -3)
        grafted = graft_along(start, gam_k).key()
        assert grafted == twist_about_curve(start, gam_k, -1).key()
        assert grafted != twist_about_curve(start, gam_k, 1).key()

    def test_sign_normalization(self):
        # a global orientation flip names the same unoriented curve:
        # (-1,3) grafts as (1,-3) does, in the dehn_twist suite's range
        for k in range(-6, 7):
            if k == 0:
                continue
            start, gam_k = dehn_twist_instance(k)
            flipped = reversed_curve(gam_k)
            assert flipped.chart_class("a") == (-1, -k)
            assert graft_along(start, flipped).key() == \
                twist_about_curve(start, gam_k, 1 if k > 0 else -1).key()
            assert graft_along(start, flipped).key() == \
                graft_along(start, gam_k).key()

    def test_non_spiraling_cases(self):
        model, lam, gam = standard_pair()
        base = structure(model, [lam])
        assert is_admissible(gam, base).route == "disjoint"
        for cls in ((2, 1), (0, 1)):
            verdict = is_admissible(component("gamma", {"a": cls}), base)
            assert not verdict
            assert "not a single strand" in verdict.reason


class TestAdmissibility:
    def test_disjoint_route(self):
        model, lam, gam = standard_pair()
        verdict = is_admissible(gam, structure(model, [lam]))
        assert verdict and verdict.route == "disjoint"

    def test_spiraling_route(self):
        model, lam, gam = standard_pair()
        twisted = twist_about_meridian(gam, "a", 2)
        verdict = is_admissible(twisted, structure(model, [lam]))
        assert verdict and verdict.route == "spiraling"

    def test_wide_crossing_rejected(self):
        model = hopf_model()
        lam = component("lambda", {"a": (0, 2)})
        bad = component("gamma", {"a": (1, 0)})
        # an uncrossed y@(1,0) leaves the crossed total (0,2) as it is
        uncrossed = component("y", {"a": (1, 0)})
        for real in ([lam], [lam, uncrossed]):
            verdict = is_admissible(bad, structure(model, real))
            assert not verdict
            assert "spiral" in verdict.reason or "strand" in verdict.reason

    def test_crossed_multiplicity_counts(self):
        # g@(1,1) crosses two parallel leaves of x@(1,0): the crossed
        # total is the doubled class, and the fused class and the
        # destination's identity follow from it
        model = hopf_model()
        source = structure(model, [component("x", {"a": (1, 0)}, 2)])
        gamma = component("g", {"a": (1, 1)})
        adm = is_admissible(gamma, source)
        assert adm.route == "spiraling"
        assert adm.totals == ((2, 0),)
        assert adm.fused == ((4, 2),)
        key = '{"charts":{"a":[4,2]},"content":[["g",2],["x",2]]}'
        content, totals = source.identity()
        identity = (surface._graft_content(content, gamma),
                    surface._handed_on(gamma, source, totals))
        assert surface._render(identity, model) == key
        assert graft_along(source, gamma).key() == key


@pytest.mark.parametrize("call", [
    lambda model, base: structure(model, [component("x", {"zz": (1, 0)})]),
    lambda model, base: canonicalize([component("x", {"zz": (1, 0)})],
                                     model),
    lambda model, base: canonical_key([component("x", {"zz": (1, 0)})],
                                      model),
    lambda model, base: is_admissible(component("g", {"zz": (1, 0)}), base),
    lambda model, base: twist_about_curve(
        base, component("g", {"zz": (0, 1)}), 1),
    lambda model, base: twist_about_meridian(base, "zz", 1),
    lambda model, base: parse_configuration({
        "schema": 1, "genus": 2, "charts": list(model.charts),
        "curves": [{"label": "x", "charts": {"zz": [1, 0]}}]}),
], ids=["structure", "canonicalize", "canonical_key", "is_admissible",
        "twist_about_curve", "twist_about_meridian", "parse_configuration"])
def test_unknown_chart_message(call):
    # every reader of a chart name words the miss alike
    model, lam, _ = standard_pair()
    with pytest.raises(UnknownChart) as caught:
        call(model, structure(model, [lam]))
    assert caught.value.args == ("no chart named 'zz'",)


class TestMeridianTwist:
    def test_chart_action(self):
        gam = component("gamma", {"a": (1, -1)})
        assert twist_about_meridian(gam, "a", 3).chart_class("a") == (1, 2)

    def test_multiplicity_and_content_kept(self):
        gam = component("gamma", {"a": (1, 0)}, 4)
        out = twist_about_meridian(gam, "a", 2)
        assert out.multiplicity == 4 and out.content == gam.content

    def test_other_charts_untouched(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = component("lambda", {"a": (2, 0), "b": (2, 2)})
        out = twist_about_meridian(structure(model, [lam]), "a", 5)
        comp = out.real_curves[0]
        assert comp.chart_class("a") == (2, 10)
        assert comp.chart_class("b") == (2, 2)

    def test_twisting_curve_chart_checked(self):
        # twisting about a curve in a chart the model lacks is an input
        # error, as it is for a meridian
        model, lam, _ = standard_pair()
        base = structure(model, [lam])
        with pytest.raises(UnknownChart):
            twist_about_curve(base, component("g", {"z": (0, 1)}), 1)
        with pytest.raises(UnknownChart):
            twist_about_meridian(base, "z", 1)

    def test_structure_key_changes_iff_twist_nontrivial(self):
        model, lam, _ = standard_pair()
        base = structure(model, [lam])
        assert twist_about_meridian(base, "a", 0).key() == base.key()
        assert twist_about_meridian(base, "a", 1).key() != base.key()


class TestGrafting:
    def test_disjoint_adds_doubled_leaves(self):
        model, lam, gam = standard_pair()
        out = graft_along(structure(model, [lam]), gam)
        assert out.key() == ('{"charts":{"a":[4,0]},'
                             '"content":[["gamma",2],["lambda",1]]}')

    def test_right_spiral_realizes_positive_twist(self):
        model, lam, gam = standard_pair()
        base = structure(model, [lam])
        twisted = twist_about_meridian(gam, "a", 1)
        assert graft_along(base, twisted).key() == \
            twist_about_curve(base, twisted, 1).key()

    def test_left_spiral_realizes_negative_twist(self):
        model, lam, gam = standard_pair()
        base = structure(model, [lam])
        twisted = twist_about_meridian(gam, "a", -1)
        assert graft_along(base, twisted).key() == \
            twist_about_curve(base, twisted, -1).key()

    def test_meridian_chart_spiral_values(self):
        # the real curve runs vertically in this chart; one left and one
        # right spiral land on distinct fused classes
        model = hopf_model()
        lam = component("lambda", {"a": (0, 2)})
        base = structure(model, [lam])
        right = component("gamma", {"a": (1, -1)})
        out = graft_along(base, right)
        comp = out.real_curves[0]
        assert comp.chart_class("a") == (2, 0)
        assert dict(comp.content) == {"gamma": 2, "lambda": 1}
        steeper = component("gamma", {"a": (1, -2)})
        out2 = graft_along(base, steeper)
        assert out2.real_curves[0].chart_class("a") == (2, -2)

    def test_dispatcher_picks_route(self):
        model, lam, gam = standard_pair()
        base = structure(model, [lam])
        assert is_admissible(gam, base).route == "disjoint"
        assert graft_along(base, gam).key() == \
            '{"charts":{"a":[4,0]},"content":[["gamma",2],["lambda",1]]}'
        for n, fused in ((2, "[4,4]"), (-2, "[4,-4]")):
            twisted = twist_about_meridian(gam, "a", n)
            assert is_admissible(twisted, base).route == "spiraling"
            assert graft_along(base, twisted).key() == \
                '{"charts":{"a":%s},"content":[["gamma",2],' \
                '["lambda",1]]}' % fused

    def test_curve_chart_outside_the_model(self):
        # the key reads only the model's charts, so a graft must not keep
        # another; both routes reject it, as twisting about the curve does
        model, lam, _ = standard_pair()
        base = structure(model, [lam])
        for cls in ((1, 0), (1, 1)):
            curve = component("g", {"a": cls, "zz": (1, 3)})
            with pytest.raises(UnknownChart, match="'zz'"):
                is_admissible(curve, base)
            with pytest.raises(UnknownChart, match="'zz'"):
                graft_along(base, curve)

    def test_twisting_curve_must_be_single_leaf(self):
        model, lam, gam = standard_pair()
        wide = component("gamma", {"a": (1, 1)}, 2)
        with pytest.raises(ValueError):
            twist_about_curve(structure(model, [lam]), wide, 1)

    def test_destination_content_follows_the_curve(self):
        # either route adds two leaves' worth of the curve's content
        model, lam, gam = standard_pair()
        base = structure(model, [lam])
        other = component("delta", {"a": (1, 0)})
        wide = component("gamma", {"a": (1, 0)}, 2)
        for curve, content in ((gam, (("gamma", 2), ("lambda", 1))),
                               (other, (("delta", 2), ("lambda", 1))),
                               (wide, (("gamma", 4), ("lambda", 1))),
                               (gam, (("gamma", 2), ("lambda", 1)))):
            assert is_admissible(curve, base)
            assert surface._graft_content(base.identity()[0], curve) == \
                content


class TestCanonicalKey:
    def test_component_order_irrelevant(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        x = component("x", {"a": (1, 0)}, 2)
        y = component("y", {"b": (0, 1)}, 2)
        assert canonical_key((x, y), model) == canonical_key((y, x), model)

    def test_orientation_flip_irrelevant(self):
        model = hopf_model()
        pos = component("x", {"a": (1, -2)}, 2)
        neg = component("x", {"a": (-1, 2)}, 2)
        assert canonical_key((pos,), model) == canonical_key((neg,), model)

    def test_parallel_leaves_merge(self):
        model = hopf_model()
        split = (component("x", {"a": (1, 0)}, 2),
                 component("x", {"a": (1, 0)}, 2))
        joined = (component("x", {"a": (1, 0)}, 4),)
        assert canonical_key(split, model) == canonical_key(joined, model)

    def test_key_is_canonical_json(self):
        model, lam, _ = standard_pair()
        key = canonical_key((lam,), model)
        assert json.loads(key) == {"charts": {"a": [2, 0]},
                                   "content": [["lambda", 1]]}


def reference_key(curve, model):
    """The key as first defined: canonicalize (normalize orientations,
    merge equal components), then the totals, then the JSON."""
    canon = canonicalize(curve, model)
    chart_totals = {}
    for name in model.charts:
        chart_totals[name] = [
            sum(c.multiplicity * c.chart_class(name).p for c in canon),
            sum(c.multiplicity * c.chart_class(name).q for c in canon)]
    content = {}
    for comp in canon:
        for lab, n in comp.content:
            content[lab] = content.get(lab, 0) + n * comp.multiplicity
    payload = {
        "content": sorted(content.items()),
        "charts": chart_totals,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


KEY_MODEL = SurfaceModel(2, "rho", ("a", "b", "c"))
entries = st.integers(-4, 4)
raw_components = st.builds(
    Component,
    # Unsorted; each label and each chart at most once, as Component
    # requires.
    content=st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)),
                     min_size=1, max_size=3,
                     unique_by=lambda entry: entry[0]).map(tuple),
    charts=st.lists(st.tuples(st.sampled_from(KEY_MODEL.charts),
                              st.builds(TorusClass, entries, entries)),
                    max_size=3, unique_by=lambda entry: entry[0]).map(tuple),
    multiplicity=st.integers(1, 4),
)


def _flipped(comp):
    return Component(comp.content,
                     tuple((name, -cls) for name, cls in comp.charts),
                     comp.multiplicity)


@st.composite
def split_multicurves(draw):
    """A multicurve (negative classes, zero counts and non-canonical
    chart lists included) and the same multicurve with some components
    split into parallel pieces, some of them reversed."""
    comps = draw(st.lists(raw_components, max_size=4))
    split = []
    for comp in comps:
        if comp.multiplicity > 1 and draw(st.booleans()):
            k = draw(st.integers(1, comp.multiplicity - 1))
            piece = Component(comp.content, comp.charts, k)
            rest = Component(comp.content, comp.charts,
                             comp.multiplicity - k)
            split += [_flipped(piece) if draw(st.booleans()) else piece,
                      rest]
        else:
            split.append(_flipped(comp) if draw(st.booleans()) else comp)
    split = draw(st.permutations(split))
    return tuple(comps), tuple(split)


class TestKeyDefinition:
    @settings(max_examples=300, deadline=None)
    @given(split_multicurves())
    def test_matches_reference_definition(self, curves):
        merged, split = curves
        want = reference_key(merged, KEY_MODEL)
        assert canonical_key(merged, KEY_MODEL) == want
        assert canonical_key(split, KEY_MODEL) == want
        assert reference_key(split, KEY_MODEL) == want

    def test_zero_count_content_kept(self):
        curve = (Component((("x", 0), ("y", 1)), (("a", TorusClass(1, 0)),)),)
        key = canonical_key(curve, KEY_MODEL)
        assert json.loads(key)["content"] == [["x", 0], ["y", 1]]
        assert key == reference_key(curve, KEY_MODEL)

    def test_structure_keys_once(self):
        model, lam, _ = standard_pair()
        struct = structure(model, [lam])
        first = struct.key()
        assert struct.key() is first
        assert first == canonical_key(struct.real_curves, model)


# Names that exercise every escape json.dumps makes with ensure_ascii.
names = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9'
                                          '\u2028\ud800\U0001f600ab'),
                          st.characters()), max_size=6)


@st.composite
def rendered_identities(draw):
    """A model whose chart order need not be name order, and an identity
    for it: sorted content totals (zero counts included), any totals."""
    charts = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    model = SurfaceModel(2, "rho", tuple(charts))
    content = draw(st.lists(st.tuples(names, st.integers()), max_size=4,
                            unique_by=lambda entry: entry[0]))
    totals = draw(st.lists(st.tuples(st.integers(), st.integers()),
                           min_size=len(charts), max_size=len(charts)))
    return model, (tuple(sorted(content)), tuple(totals))


def dumps_key(identity, model):
    """The key as json.dumps writes it, the spelling _render replaces."""
    content, totals = identity
    return json.dumps({"content": content,
                       "charts": dict(zip(model.charts, totals))},
                      sort_keys=True, separators=(",", ":"))


class TestKeyWriter:
    @settings(max_examples=400, deadline=None)
    @given(rendered_identities())
    def test_bytes_are_json_dumps(self, drawn):
        model, identity = drawn
        assert surface._render(identity, model) == dumps_key(identity, model)

    def test_chart_order_is_not_name_order(self):
        model = SurfaceModel(2, "rho", ("z", "\u00e9", "a\"b", "A"))
        identity = ((("", 0), ("x\ny", -3), ("\U0001f600", 10 ** 30)),
                    ((0, 0), (-1, 2), (7, -(10 ** 25)), (3, 0)))
        key = surface._render(identity, model)
        assert key == dumps_key(identity, model)
        assert key.isascii()
        assert list(json.loads(key)["charts"]) == ["A", "a\"b", "z",
                                                   "\u00e9"]

    def test_chart_names_quoted_once_per_model(self, monkeypatch):
        # a model quotes its chart names once, in name order with their
        # positions (key_heads, not a field); a key quotes only its labels
        model = SurfaceModel(2, "rho", ("z", "\u00e9", "a\"b", "A"))
        assert model.key_heads == ((3, '"A":['), (2, '"a\\"b":['),
                                   (0, '"z":['), (1, '"\\u00e9":['))
        quoted = []
        quote = surface._quote
        monkeypatch.setattr(surface, "_quote",
                            lambda name: quoted.append(name) or quote(name))
        identity = ((("x", 1), ("y", -2)), ((0, 0), (1, 2), (3, -4), (5, 6)))
        assert surface._render(identity, model) == \
            dumps_key(identity, model)
        assert quoted == ["x", "y"]
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and copy.key_heads == model.key_heads
        assert "key_heads" not in repr(model)


def dict_orientation(comp, chart_order):
    """_orientation as it was: a dict of the component's classes, read in
    the given chart order."""
    classes = dict(comp.charts)
    for name in chart_order:
        if name in classes:
            p, q = classes[name]
            return -1 if (p or q) < 0 else 1
    return 1


def dict_by_position(gamma, model):
    """_by_position as it was: require each chart, then a dict read in
    model order."""
    for name, _ in gamma.charts:
        model.require_chart(name)
    classes = dict(gamma.charts)
    return [classes.get(name) for name in model.charts]


position_classes = st.builds(TorusClass, st.integers(-3, 3),
                             st.integers(-3, 3))
position_components = st.builds(
    Component, st.just((("x", 1),)),
    st.lists(st.tuples(st.sampled_from("abc"), position_classes),
             min_size=2, max_size=3, unique_by=lambda entry: entry[0]
             ).map(tuple),
    st.integers(1, 3))


class TestPositionRules:
    """The orientation and the curve slots read chart positions from the
    model, and agree with the dict rules they replace on every chart
    order."""

    models = [SurfaceModel(2, "rho", order)
              for order in itertools.permutations("abc")]

    @pytest.mark.parametrize("charts", [
        (("a", (-1, 2)), ("b", (1, 0)), ("c", (2, 1))),
        (("a", (0, -1)), ("b", (0, 1)), ("c", (-2, 0))),
        (("a", (0, 3)), ("c", (-1, -1))),
        (("b", (-2, 0)), ("c", (0, 2))),
    ], ids=["negative-first", "zero-p-classes", "two-charts", "b-and-c"])
    def test_every_chart_order(self, charts):
        comp = Component((("x", 1),), charts, 2)
        signs = set()
        for model in self.models:
            sign = surface._orientation(comp, model)
            assert sign == dict_orientation(comp, model.charts)
            assert surface._by_position(comp, model) == \
                dict_by_position(comp, model)
            signs.add(sign)
        # each case has classes of both signs, so the order decides
        assert signs == {-1, 1}

    @settings(max_examples=200, deadline=None)
    @given(position_components)
    def test_matches_dict_rules(self, comp):
        for model in self.models:
            assert surface._orientation(comp, model) == \
                dict_orientation(comp, model.charts)
            assert surface._by_position(comp, model) == \
                dict_by_position(comp, model)

    def test_unknown_curve_chart(self):
        model = self.models[0]
        base = structure(model, [component("lambda", {"a": (2, 0)})])
        for charts in ({"zz": (1, 0)}, {"a": (1, 1), "zz": (1, 0)}):
            curve = component("g", charts)
            with pytest.raises(UnknownChart, match="'zz'"):
                surface._by_position(curve, model)
            with pytest.raises(UnknownChart, match="'zz'"):
                is_admissible(curve, base)


small_classes = st.builds(TorusClass, st.integers(-2, 2), st.integers(-2, 2))
charted_components = st.builds(
    component, st.sampled_from("xyz"),
    st.dictionaries(st.sampled_from(KEY_MODEL.charts), small_classes),
    st.integers(1, 2))
# Mostly single strands, so most curves reach the spiral-direction check.
grafting_curves = st.builds(
    component, st.just("g"),
    st.dictionaries(st.sampled_from(KEY_MODEL.charts),
                    st.builds(TorusClass, st.integers(-1, 1),
                              st.integers(-1, 1))),
    st.integers(1, 2))


@st.composite
def uncrossed_components(draw, gamma):
    """A component the curve crosses in no chart: where the curve is
    nonzero, a multiple of its primitive class."""
    charts = {}
    for name in KEY_MODEL.charts:
        g = gamma.chart_class(name)
        if g == (0, 0):
            charts[name] = draw(small_classes)
        else:
            k = draw(st.integers(-2, 2))
            d = gcd(g.p, g.q)
            charts[name] = (k * g.p // d, k * g.q // d)
    return component("e", charts, draw(st.integers(1, 2)))


class TestOneDecision:
    """Admissibility and the graft read the same crossed totals, so a
    component the curve never crosses changes neither."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_uncrossed_component_changes_nothing(self, data):
        comps = data.draw(st.lists(charted_components, max_size=3))
        gamma = data.draw(grafting_curves)
        extra = data.draw(uncrossed_components(gamma))
        before = structure(KEY_MODEL, comps)
        after = structure(KEY_MODEL, comps + [extra])
        verdict = is_admissible(gamma, before)
        assert is_admissible(gamma, after).route == verdict.route
        if verdict:
            grafted = graft_along(before, gamma).real_curves
            assert graft_along(after, gamma).key() == \
                structure(KEY_MODEL, grafted + (extra,)).key()


def _assembled(adm):
    """What an admitted decision's destination is made of, left for
    canonicalize to orient, order and merge: the source's curves and two
    leaves of the curve, or the source's curves less the crossed ones
    and the fused component."""
    source, curve = adm.source, adm.curve
    twice = 2 * curve.multiplicity
    if adm.route == "disjoint":
        return source.real_curves + (
            Component(curve.content, curve.charts, twice),)
    content = Counter()
    for comp in adm.crossed:
        for lab, n in comp.content:
            content[lab] += n * comp.multiplicity
    content.update({lab: twice * n for lab, n in curve.content})
    fused = Component(tuple(content.items()),
                      tuple(zip(source.model.charts, adm.fused)))
    return [comp for comp in source.real_curves
            if comp not in adm.crossed] + [fused]


def assert_normal(comp):
    """The component is spelled as Component spells it: built again from
    its fields, it keeps them as they are."""
    fresh = Component(comp.content, comp.charts, comp.multiplicity)
    assert fresh == comp
    assert fresh.content is comp.content and fresh.charts is comp.charts
    assert all(type(cls) is TorusClass for _, cls in comp.charts)


primitive_classes = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda c: c != (0, 0) and gcd(*c) == 1)


@st.composite
def drawn_structures(draw):
    """A structure over 1-3 charts, drawn as test_complex's
    TestFamilyPass draws its seeds: any multiplicity, one chart a
    component or up to three components that may span several charts."""
    model = standard_configuration(draw(st.integers(1, 3))).model
    charts = st.lists(st.sampled_from(model.charts), min_size=1,
                      unique=True)
    if draw(st.booleans()):
        spans = [[chart] for chart in draw(charts)]
    else:
        spans = draw(st.lists(charts, min_size=1, max_size=3))
    return structure(model, [
        component(f"w{i}", {chart: draw(primitive_classes)
                            for chart in span}, draw(st.integers(1, 8)))
        for i, span in enumerate(spans)])


@st.composite
def drawn_curves(draw, struct):
    """A curve on the structure: mostly single strands, or a component
    of the structure in either orientation, which a disjoint graft merges
    with it."""
    comps = struct.real_curves
    if comps and draw(st.booleans()):
        comp = draw(st.sampled_from(comps))
        charts = comp.charts
        if draw(st.booleans()):
            charts = tuple((name, -cls) for name, cls in charts)
        return Component(comp.content, charts, draw(st.integers(1, 3)))
    classes = st.builds(TorusClass, st.integers(-2, 2), st.integers(-3, 3))
    return component(draw(st.sampled_from(("g", "w0"))),
                     draw(st.dictionaries(st.sampled_from(struct.model.charts),
                                          classes, min_size=1)),
                     draw(st.integers(1, 3)))


class TestSplice:
    """A graft splices its new component into the source's canonical
    curves. That gives what canonicalize gives the same components: the
    same curves, equality, hash and repr."""

    def assert_assembly(self, struct, curve):
        got = graft_along(struct, curve)
        want = structure(struct.model, _assembled(
            is_admissible(curve, struct)))
        assert got.real_curves == want.real_curves
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        for comp in got.real_curves:
            assert_normal(comp)
        return got

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_graft_is_the_canonical_assembly(self, data):
        # grafts in a row, so a spliced structure is a source too
        current = data.draw(drawn_structures())
        for _ in range(data.draw(st.integers(1, 3))):
            curve = data.draw(drawn_curves(current))
            if is_admissible(curve, current):
                current = self.assert_assembly(current, curve)

    def test_disjoint_graft_merges_with_an_equal_component(self):
        model, lam, gam = standard_pair()
        base = structure(model, [lam, component("gamma", {"a": (1, 0)}, 2)])
        out = self.assert_assembly(base, gam)
        assert out.real_curves == (component("gamma", {"a": (1, 0)}, 4),
                                   lam)

    def test_curve_flips_to_its_canonical_orientation(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = component("lambda", {"a": (2, 0), "b": (2, 0)})
        curve = component("g", {"a": (-1, 0), "b": (-1, 0)})
        out = self.assert_assembly(structure(model, [lam]), curve)
        assert out.real_curves == (
            component("g", {"a": (1, 0), "b": (1, 0)}, 2), lam)

    def test_fused_component_merges_with_a_remaining_one(self):
        # the crossed totals cancel in chart a, so the fused class there
        # is the doubled curve, parallel to it: the equal component that
        # holds it is not crossed and stays
        model = SurfaceModel(2, "rho", ("b", "a"))
        fused = Component((("g", 2), ("x", 1), ("y", 1)),
                          (("a", TorusClass(2, 2)), ("b", TorusClass(1, 0))))
        base = structure(model, [
            component("x", {"a": (1, 0)}),
            component("y", {"a": (-1, 0), "b": (1, 0)}), fused])
        curve = component("g", {"a": (1, 1)})
        assert is_admissible(curve, base).route == "spiraling"
        out = self.assert_assembly(base, curve)
        assert out.real_curves == (Component(fused.content, fused.charts,
                                             2),)


class TestOrientedIdentity:
    """Structure.identity() weighs each component by its multiplicity
    alone, since every Structure holds its curves in their canonical
    orientation. Checked on every structure that the benchmark's three
    complex_build sizes and its identity suites build."""

    @staticmethod
    def assert_oriented(monkeypatch, run):
        built = []
        setter = surface._set_curves  # every Structure's curves go here

        def kept(struct, curves):
            setter(struct, curves)
            built.append(struct)

        monkeypatch.setattr(surface, "_set_curves", kept)
        run()
        monkeypatch.undo()
        assert built
        for struct in built:
            model = struct.model
            assert [surface._orientation(comp, model)
                    for comp in struct.real_curves] == \
                [1] * len(struct.real_curves)
            assert struct.identity() == surface._identity_of(
                struct.real_curves, model)

    @pytest.mark.parametrize("charts,bound,depth",
                             [(1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_complex_builds(self, monkeypatch, charts, bound, depth):
        def run():
            graph = build_complex(standard_configuration(charts), bound,
                                  depth)
            list(graph.vertices.values())  # builds the last level's too

        self.assert_oriented(monkeypatch, run)

    def test_identity_suites(self, monkeypatch):
        def run():
            for name, params in (("goldman", {"trials": 400, "seed": 7}),
                                 ("iterated", {"twist_bound": 30}),
                                 ("two_meridian", {"k_max": 10}),
                                 ("dehn_twist", {"k_max": 30})):
                assert complex_graph.verify_suite(name, **params).passed
            config = standard_configuration()
            complex_graph.standard_fan(config, "a", 30, 7)
            complex_graph.witness_graph(config, 1, 30)

        self.assert_oriented(monkeypatch, run)


class TestFusedComponent:
    """A spiraling graft assembles its fused component in normal form and
    builds it unchecked. It equals what a checked build makes of the same
    content and classes, and pickles and reprs as that one does."""

    # the seeds test_complex's TestSeededBuilds builds from: some of their
    # grafts are refused and some fuse a chart by a difference
    SEEDS = [
        [component("x", {"a": (1, 2)}), component("x", {"a": (1, -2)})],
        [component("x", {"a": (0, 1)}, 2)],
        [component("x", {"a": (1, 3)}), component("y", {"a": (1, -1)})],
    ]

    @pytest.fixture
    def fused_of(self, monkeypatch):
        """The fused component _graft splices in for a spiraling
        decision, checked against the checked build of it; each distinct
        one is also pickled and its repr evaluated."""
        spliced, seen = [], set()
        splice = surface._spliced_in
        monkeypatch.setattr(surface, "_spliced_in",
                            lambda curves, comp, model:
                            spliced.append(comp) or splice(curves, comp,
                                                           model))

        def fused_of(adm):
            assert adm.route == "spiraling"
            surface._graft(adm)
            fused = spliced.pop()
            checked = _assembled(adm)[-1]
            assert checked.multiplicity == 1
            assert fused == checked and hash(fused) == hash(checked)
            assert_normal(fused)
            assert "_prepared" not in vars(fused)
            if fused in seen:
                return fused
            seen.add(fused)
            assert repr(fused) == repr(checked)
            for copy in (pickle.loads(pickle.dumps(fused)),
                         eval(repr(fused), {"Component": Component,
                                            "TorusClass": TorusClass})):
                assert copy == fused and repr(copy) == repr(fused)
                assert_normal(copy)
            return fused
        return fused_of

    def check_build(self, config, graph, bound, fused_of) -> int:
        """Every spiraling graft of a generator onto a vertex; their
        count."""
        curves = [curve for *_, family in
                  complex_graph._grafts(config, bound) for curve in family]
        count = 0
        for struct in graph.vertices.values():
            for curve in curves:
                adm = is_admissible(curve, struct)
                if adm.route == "spiraling":
                    fused_of(adm)
                    count += 1
        return count

    @pytest.mark.parametrize("charts,bound,depth", [
        (1, 8, 4), (2, 4, 3), (3, 2, 3)])
    def test_standard_builds(self, charts, bound, depth, fused_of):
        config = standard_configuration(charts)
        graph = build_complex(config, bound, depth)
        assert self.check_build(config, graph, bound, fused_of) > 0

    @pytest.mark.parametrize("seed", range(len(SEEDS)))
    def test_seeded_builds(self, seed, fused_of):
        config = standard_configuration(1)
        graph = build_complex(config, 3, 3, seed=structure(
            config.model, self.SEEDS[seed]))
        assert self.check_build(config, graph, 3, fused_of) > 0

    def test_charts_out_of_name_order(self, fused_of):
        # model order z, a, m; the crossed totals cancel in chart m, so
        # the fused class there is (0, 0) and left out, and a label
        # counted 0 is kept
        model = SurfaceModel(2, "rho", ("z", "a", "m"))
        base = structure(model, [
            component("x", {"z": (1, 0), "a": (1, 0), "m": (1, 0)}),
            Component((("u", 0), ("y", 1)), (
                ("z", TorusClass(1, 0)), ("a", TorusClass(1, 0)),
                ("m", TorusClass(-1, 0))))])
        adm = is_admissible(component("g", {"z": (1, 1)}), base)
        assert adm.fused == ((4, 2), (2, 0), (0, 0))
        fused = fused_of(adm)
        assert fused.content == (("g", 2), ("u", 0), ("x", 1), ("y", 1))
        assert fused.charts == (("a", TorusClass(2, 0)),
                                ("z", TorusClass(4, 2)))


class TestCopies:
    """A component copied from a normal one is built unchecked: it must
    be normal already, and it carries nothing of what it was copied
    from but its fields."""

    @settings(max_examples=200, deadline=None)
    @given(raw_components, st.integers(-3, 3))
    def test_copies_revalidate_to_their_fields(self, comp, n):
        model = KEY_MODEL
        copies = [surface._normalized(comp, model),
                  *canonicalize([comp, _flipped(comp)], model),
                  *goldman_decompose([Component(comp.content, comp.charts,
                                                2 * comp.multiplicity)])]
        copies += [twist_about_meridian(comp, chart, n)
                   for chart in model.charts]
        once = graft_along(structure(model, []), comp)
        copies += [*once.real_curves,
                   *graft_along(once, comp).real_curves]
        for copy in copies:
            assert_normal(copy)

    def test_copies_of_a_prepared_curve_carry_nothing(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = structure(model, [
            component("lambda", {"a": (2, 0), "b": (2, 0)})])
        for charts in ({"a": (1, 0), "b": (1, 2)},
                       {"a": (-1, 0), "b": (-1, 2)}):
            prepared = surface._prepare(component("g", charts, 2), model)
            assert prepared._prepared is not None
            doubled, = graft_along(structure(model, []),
                                   prepared).real_curves
            copies = [doubled, twist_about_meridian(prepared, "b", 1),
                      *goldman_decompose([prepared])]
            if charts["a"] < (0, 0):  # reversed, so a copy
                copies.append(surface._normalized(prepared, model))
            for copy in copies:
                assert copy is not prepared
                assert copy._prepared is None
                assert "_prepared" not in vars(copy)
            # the doubled leaves are decided as themselves, not as the
            # single leaf whose doubled classes the prepared curve keeps
            fresh = Component(doubled.content, doubled.charts,
                              doubled.multiplicity)
            got, want = (is_admissible(curve, lam)
                         for curve in (doubled, fresh))
            assert got.route == want.route == "spiraling"
            assert got.fused == want.fused != \
                is_admissible(prepared, lam).fused


class TestGoldman:
    def test_even_multicurve_splits(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = (component("x", {"a": (1, 0)}, 4),
               component("y", {"b": (1, -1)}, 2))
        sigma = goldman_decompose(lam)
        assert sorted(c.multiplicity for c in sigma) == [1, 2]

    def test_decomposition_regrafts_to_original(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = (component("x", {"a": (1, 0)}, 4),
               component("y", {"b": (1, -1)}, 2))
        current = structure(model, [])
        for comp in goldman_decompose(lam):
            current = graft_along(current, comp)
        assert current.key() == canonical_key(lam, model)

    def test_odd_multiplicity_named(self):
        lam = (component("x", {"a": (1, 0)}, 2),
               component("bad", {"a": (0, 1)}, 3))
        with pytest.raises(OddMultiplicity) as info:
            goldman_decompose(lam)
        assert info.value.label == "bad"


class TestJsonInterface:
    def test_configuration_round_trip(self):
        data = {
            "schema": 1,
            "genus": 2,
            "charts": ["a", "b"],
            "curves": [
                {"label": "lambda", "charts": {"a": [2, 0], "b": [2, 0]},
                 "multiplicity": 1},
            ],
            "gamma": {"label": "gamma", "charts": {"a": [1, 0]},
                      "multiplicity": 1},
        }
        model, struct, gamma = parse_configuration(data)
        assert model.charts == ("a", "b")
        assert gamma is not None and gamma.chart_class("a") == (1, 0)
        emitted = structure_to_json(struct)
        assert emitted["schema"] == 1
        assert emitted["key"] == struct.key()
        reparsed, restruct, _ = parse_configuration(
            {**emitted, "curves": emitted["curves"]})
        assert restruct.key() == struct.key()

    def test_schema_version_required(self):
        with pytest.raises(ValueError, match="schema"):
            parse_configuration({"genus": 2, "charts": ["a"], "curves": []})

    @pytest.mark.parametrize("entry, match", [
        ({"label": "x", "charts": {"a": [0, 0]}}, "nonzero class"),
        ({"label": "x", "charts": {}}, "nonzero class"),
        ({"label": [["x", 1], ["x", 2]], "charts": {"a": [1, 0]}}, "label"),
        ({"label": [["x", -3]], "charts": {"a": [1, 0]}}, "negative"),
    ], ids=["zero-class", "no-chart", "repeated-label", "negative-count"])
    def test_curve_spelling_rejected(self, entry, match):
        data = {"schema": 1, "genus": 2, "charts": ["a"], "curves": [entry]}
        with pytest.raises(ValueError, match=match):
            parse_configuration(data)

    def test_unknown_chart_rejected(self):
        data = {"schema": 1, "genus": 2, "charts": ["a"],
                "curves": [{"label": "x", "charts": {"z": [1, 0]},
                            "multiplicity": 1}]}
        with pytest.raises(ValueError, match="chart"):
            parse_configuration(data)

    def test_structure_chart_outside_the_model(self):
        # a structure's curves name only the model's charts, so what
        # structure_to_json writes, parse_configuration reads back
        curve = component("x", {"a": (2, 0), "zz": (1, 3)})
        with pytest.raises(UnknownChart, match="zz"):
            structure(hopf_model(), [curve])
        with pytest.raises(UnknownChart, match="zz"):
            canonical_key((curve,), hopf_model())

    def test_enumerated_structures_round_trip(self):
        graph = build_complex(standard_configuration(2), 2, 2)
        assert len(graph.vertices) > 1
        for key, struct in graph.vertices.items():
            model, back, gamma = parse_configuration(
                structure_to_json(struct))
            assert model == struct.model and gamma is None
            assert back.real_curves == struct.real_curves
            assert back.key() == key
