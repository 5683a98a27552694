"""Charted-surface layer: validation, spiraling, grafting, canonical keys."""

import json
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
    SurfaceMulticurve,
    TorusClass,
    UnknownChart,
    canonical_key,
    canonicalize,
    check_spiraling_hypotheses,
    component,
    goldman_decompose,
    graft_along,
    is_admissible,
    multicurve,
    parse_configuration,
    structure,
    structure_to_json,
    twist_about_curve,
    twist_about_meridian,
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
        assert struct.real_curves.components == (
            Component(plain.content, plain.charts, 2),)
        assert structure_to_json(struct)["curves"] == [
            {"label": "x", "charts": {"a": [1, 0]}, "multiplicity": 2}]

    def test_unsorted_charts_merge(self):
        first = Component((("x", 1),), (("a", TorusClass(1, 0)),
                                        ("b", TorusClass(0, 1))))
        second = Component((("x", 1),), (("b", TorusClass(0, 1)),
                                         ("a", TorusClass(1, 0))))
        assert first == second
        merged = structure(self.model, [first, second]).real_curves
        assert [c.multiplicity for c in merged.components] == [2]


class TestValidation:
    def test_standard_pattern_accepted(self):
        model, lam, gam = standard_pair()
        config = validate_configuration(model, lam, gam)
        assert (config.lam, config.gamma) == (lam, gam)
        assert config.base_structure().key() == \
            canonical_key(multicurve(lam), model)

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


class TestSpiralingHypotheses:
    def test_triple_twist_accepted(self):
        _, lam, gam = standard_pair()
        twisted = twist_about_meridian(gam, "a", 3)
        assert check_spiraling_hypotheses(twisted, gam, lam)

    def test_untwisted_self_pairing_accepted(self):
        _, lam, gam = standard_pair()
        assert check_spiraling_hypotheses(gam, gam, lam)

    def test_multi_strand_rejected(self):
        _, lam, gam = standard_pair()
        wide = component("gamma", {"a": (2, 1)})
        assert not check_spiraling_hypotheses(wide, gam, lam)


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
        comp = out.real_curves.components[0]
        assert comp.chart_class("a") == (2, 10)
        assert comp.chart_class("b") == (2, 2)

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
        comp = out.real_curves.components[0]
        assert comp.chart_class("a") == (2, 0)
        assert dict(comp.content) == {"gamma": 2, "lambda": 1}
        steeper = component("gamma", {"a": (1, -2)})
        out2 = graft_along(base, steeper)
        assert out2.real_curves.components[0].chart_class("a") == (2, -2)

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

    def test_twisting_curve_must_be_single_leaf(self):
        model, lam, gam = standard_pair()
        wide = component("gamma", {"a": (1, 1)}, 2)
        with pytest.raises(ValueError):
            twist_about_curve(structure(model, [lam]), wide, 1)


class TestCanonicalKey:
    def test_component_order_irrelevant(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        x = component("x", {"a": (1, 0)}, 2)
        y = component("y", {"b": (0, 1)}, 2)
        assert canonical_key(multicurve(x, y), model) == \
            canonical_key(multicurve(y, x), model)

    def test_orientation_flip_irrelevant(self):
        model = hopf_model()
        pos = component("x", {"a": (1, -2)}, 2)
        neg = component("x", {"a": (-1, 2)}, 2)
        assert canonical_key(multicurve(pos), model) == \
            canonical_key(multicurve(neg), model)

    def test_parallel_leaves_merge(self):
        model = hopf_model()
        split = multicurve(component("x", {"a": (1, 0)}, 2),
                           component("x", {"a": (1, 0)}, 2))
        joined = multicurve(component("x", {"a": (1, 0)}, 4))
        assert canonical_key(split, model) == canonical_key(joined, model)

    def test_key_is_canonical_json(self):
        model, lam, _ = standard_pair()
        key = canonical_key(multicurve(lam), model)
        assert json.loads(key) == {"charts": {"a": [2, 0]},
                                   "content": [["lambda", 1]]}


def reference_key(curve, model):
    """The key as first defined: canonicalize (normalize orientations,
    merge equal components), then the totals, then the JSON."""
    canon = canonicalize(curve, model)
    chart_totals = {}
    for name in model.charts:
        cls = canon.total_chart_class(name)
        chart_totals[name] = [cls.p, cls.q]
    payload = {
        "content": sorted(canon.content_total().items()),
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
    return SurfaceMulticurve(tuple(comps)), SurfaceMulticurve(tuple(split))


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
        curve = multicurve(Component((("x", 0), ("y", 1)),
                                     (("a", TorusClass(1, 0)),)))
        key = canonical_key(curve, KEY_MODEL)
        assert json.loads(key)["content"] == [["x", 0], ["y", 1]]
        assert key == reference_key(curve, KEY_MODEL)

    def test_structure_keys_once(self):
        model, lam, _ = standard_pair()
        struct = structure(model, [lam])
        first = struct.key()
        assert struct.key() is first
        assert first == canonical_key(struct.real_curves, model)


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
            grafted = graft_along(before, gamma).real_curves.components
            assert graft_along(after, gamma).key() == \
                structure(KEY_MODEL, grafted + (extra,)).key()


class TestGoldman:
    def test_even_multicurve_splits(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = multicurve(component("x", {"a": (1, 0)}, 4),
                         component("y", {"b": (1, -1)}, 2))
        sigma = goldman_decompose(lam)
        assert sorted(c.multiplicity for c in sigma.components) == [1, 2]

    def test_decomposition_regrafts_to_original(self):
        model = SurfaceModel(2, "rho", ("a", "b"))
        lam = multicurve(component("x", {"a": (1, 0)}, 4),
                         component("y", {"b": (1, -1)}, 2))
        current = structure(model, [])
        for comp in goldman_decompose(lam).components:
            current = graft_along(current, comp)
        assert current.key() == canonical_key(lam, model)

    def test_odd_multiplicity_named(self):
        lam = multicurve(component("x", {"a": (1, 0)}, 2),
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
    ], ids=["zero-class", "no-chart", "repeated-label"])
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
