"""Exact arithmetic on torus classes: anchored values plus algebraic laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftkit import (
    Mode,
    TorusClass,
    ZeroTwister,
    algebraic_intersection,
    dehn_twist,
    geometric_intersection,
    is_primitive,
    normalize,
    resolve,
)

coord = st.integers(min_value=-8, max_value=8)
classes = st.builds(TorusClass, coord, coord)
nonzero_classes = classes.filter(lambda c: c != (0, 0))
powers = st.integers(min_value=-6, max_value=6)


class TestIntersection:
    def test_basis_pair(self):
        assert algebraic_intersection((1, 0), (0, 1)) == 1
        assert geometric_intersection((1, 0), (0, 1)) == 1

    def test_skew_pair(self):
        assert algebraic_intersection((2, 1), (4, 3)) == 2

    def test_negative_determinant(self):
        assert algebraic_intersection((0, 2), (2, -2)) == -4
        assert geometric_intersection((0, 2), (2, -2)) == 4

    def test_self_intersection_vanishes(self):
        assert algebraic_intersection((3, 5), (3, 5)) == 0

    @given(classes, classes)
    def test_antisymmetry(self, a, b):
        assert algebraic_intersection(a, b) == -algebraic_intersection(b, a)

    @given(classes, classes, st.integers(min_value=-5, max_value=5))
    def test_linearity_in_scaling(self, a, b, m):
        scaled = TorusClass(m * a.p, m * a.q)
        assert algebraic_intersection(scaled, b) == \
            m * algebraic_intersection(a, b)

    @given(classes, classes)
    def test_geometric_is_absolute_value(self, a, b):
        assert geometric_intersection(a, b) == \
            abs(algebraic_intersection(a, b))


class TestDehnTwist:
    def test_meridian_twist_of_horizontal(self):
        assert dehn_twist((1, 0), (0, 1), 1) == (1, 1)
        assert dehn_twist((1, 0), (0, 1), 3) == (1, 3)

    def test_doubled_class(self):
        for k in range(-4, 5):
            assert dehn_twist((2, 0), (0, 1), k) == (2, 2 * k)

    def test_zero_twister_rejected(self):
        with pytest.raises(ZeroTwister):
            dehn_twist((1, 0), (0, 0), 1)

    def test_zero_power_is_identity(self):
        assert dehn_twist((4, -3), (1, 2), 0) == (4, -3)

    def test_lists_accepted(self):
        # pairs are unpacked, not compared as tuples: a list twister of
        # zero is still the zero class
        assert dehn_twist([1, 0], [0, 1], 2) == (1, 2)
        with pytest.raises(ZeroTwister):
            dehn_twist([1, 0], [0, 0])

    @given(classes, nonzero_classes, powers)
    def test_formula(self, b, a, k):
        d = algebraic_intersection(b, a)
        assert dehn_twist(b, a, k) == (b.p + k * d * a.p, b.q + k * d * a.q)

    @given(classes, nonzero_classes, powers, powers)
    def test_composition(self, b, a, j, k):
        assert dehn_twist(dehn_twist(b, a, j), a, k) == \
            dehn_twist(b, a, j + k)

    @given(classes, nonzero_classes, powers)
    def test_intersection_growth(self, b, a, k):
        # the twisted class meets the original in |k| i(a,b)^2 points
        expected = abs(k) * algebraic_intersection(a, b) ** 2
        assert geometric_intersection(dehn_twist(b, a, k), b) == expected


class TestResolve:
    def test_flat_anchor(self):
        assert resolve((0, 2), (2, -2), Mode.FLAT) == (2, 0)

    def test_sharp_anchor(self):
        assert resolve((0, 2), (2, -2), Mode.SHARP) == (-2, 4)

    def test_basis_sharp(self):
        assert resolve((1, 0), (0, 1), Mode.SHARP) == (1, 1)

    def test_disjoint_union(self):
        assert resolve((1, 0), (2, 0), Mode.SHARP) == (3, 0)
        assert resolve((1, 0), (2, 0), Mode.FLAT) == (3, 0)

    def test_lists_accepted(self):
        assert resolve([0, 2], [2, -2], Mode.FLAT) == (2, 0)
        assert resolve([0, 2], [2, -2], Mode.SHARP) == (-2, 4)

    @given(classes, classes)
    def test_totals_by_sign(self, a, b):
        d = algebraic_intersection(a, b)
        total_sum = TorusClass(a.p + b.p, a.q + b.q)
        total_diff = TorusClass(a.p - b.p, a.q - b.q)
        if d >= 0:
            assert resolve(a, b, Mode.SHARP) == total_sum
        else:
            assert resolve(a, b, Mode.SHARP) == total_diff
        if d > 0:
            assert resolve(a, b, Mode.FLAT) == total_diff
        else:
            assert resolve(a, b, Mode.FLAT) == total_sum

    @given(classes, classes)
    def test_switch_identity(self, a, b):
        # exchanging arguments exchanges the modes, up to a global
        # orientation flip when the pairing is negative
        sharp_ab = resolve(a, b, Mode.SHARP)
        flat_ba = resolve(b, a, Mode.FLAT)
        if algebraic_intersection(a, b) >= 0:
            assert sharp_ab == flat_ba
        else:
            assert sharp_ab == -flat_ba

    @given(classes, nonzero_classes)
    def test_twist_as_surgery(self, b, a):
        # one crossing resolution against i(a,b) parallel leaves of the
        # twisting class realizes one full twist, in either direction
        i = geometric_intersection(a, b)
        if i == 0:
            return
        leaves = TorusClass(i * a.p, i * a.q)
        assert resolve(b, leaves, Mode.SHARP) == dehn_twist(b, a, 1)
        assert resolve(b, leaves, Mode.FLAT) == dehn_twist(b, a, -1)


class TestResults:
    """resolve, dehn_twist and negation build their TorusClass directly;
    what they return is the class its entries name."""

    @staticmethod
    def assert_class(got):
        assert type(got) is TorusClass
        assert repr(got) == repr(TorusClass(*got))
        assert (got.p, got.q) == tuple(got)

    @given(classes, nonzero_classes, powers)
    def test_results_are_classes(self, b, a, k):
        for got in (resolve(a, b, Mode.SHARP), resolve(a, b, Mode.FLAT),
                    dehn_twist(b, a, k), -a):
            self.assert_class(got)
        assert -a == (-a.p, -a.q)

    def test_from_lists(self):
        for got in (resolve([0, 2], [2, -2], Mode.FLAT),
                    dehn_twist([1, 0], [0, 1], 2)):
            self.assert_class(got)


class TestNormalize:
    def test_extracts_multiplicity(self):
        m = normalize((4, -6))
        assert m.multiplicity == 2 and m.primitive == (2, -3)

    def test_orientation_choice(self):
        m = normalize((-3, 6))
        assert m.multiplicity == 3 and m.primitive == (1, -2)

    def test_zero_class(self):
        m = normalize((0, 0))
        assert m.multiplicity == 0 and m.primitive is None

    def test_primitive_detection(self):
        assert is_primitive((2, -3))
        assert not is_primitive((2, -4))
        assert not is_primitive((0, 0))

    @given(classes)
    def test_idempotent(self, c):
        once = normalize(c)
        if once.primitive is None:
            assert once.total() == (0, 0)
            return
        again = normalize(once.primitive)
        assert again.multiplicity == 1
        assert again.primitive == once.primitive

    @given(classes)
    def test_total_preserved_up_to_sign(self, c):
        m = normalize(c)
        assert m.total() in (c, TorusClass(-c.p, -c.q))


class TestFourWayIdentity:
    @pytest.mark.parametrize("k", range(-8, 9))
    def test_all_routes_agree(self, k):
        lam = TorusClass(2, 0)
        two_gamma = TorusClass(2, 0)
        meridian = TorusClass(0, 1)
        want = TorusClass(4, 4 * k)
        assert dehn_twist(resolve(lam, two_gamma, Mode.SHARP),
                          meridian, k) == want
        mode_a = Mode.SHARP if k >= 0 else Mode.FLAT
        mode_b = Mode.FLAT if k >= 0 else Mode.SHARP
        assert resolve(lam, dehn_twist(two_gamma, meridian, 2 * k),
                       mode_a) == want
        assert resolve(dehn_twist(lam, meridian, 2 * k), two_gamma,
                       mode_b) == want
        assert resolve(dehn_twist(lam, meridian, k),
                       dehn_twist(two_gamma, meridian, k),
                       Mode.SHARP) == want
