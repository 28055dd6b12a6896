"""Signed permutations, length statistics, descents, and quotients."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddlen.indexset import IndexSet
from oddlen.sperm import (
    FAMILIES,
    SignedPerm,
    StatBundle,
    compose,
    descent_set,
    direct_product,
    elements,
    ell,
    ell_and_odd,
    in_quotient,
    label_mask,
    label_range,
    odd_length,
    parabolic_factorize,
    signings,
    stats,
)


def quotient_elements(family, n, I):
    return (s for s in elements(family, n) if in_quotient(s, I, family))


def flip_value(sigma, a):
    """Left-multiply by (1,-1)(v,-v) where v = sigma(a) > 0.

    Negates the entries holding values 1 and v; when v = 1 the two
    transpositions coincide and sigma comes back unchanged.
    """
    v = sigma(a)
    if v <= 0:
        raise ValueError("flip_value requires sigma(a) > 0")
    if v == 1:
        return sigma
    flip = {1, v}
    return SignedPerm(tuple(-w if abs(w) in flip else w for w in sigma.images))


@st.composite
def signed_perms(draw, n=None, nmax=6):
    if n is None:
        n = draw(st.integers(1, nmax))
    values = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPerm(tuple(v * s for v, s in zip(values, signs)))


class TestConstruction:
    @pytest.mark.parametrize("images", [(1, 1), (0, 2), (3, 1), (1, 2, 4)])
    def test_rejects_non_permutations(self, images):
        with pytest.raises(ValueError):
            SignedPerm(images)

    def test_from_text_roundtrip(self):
        s = SignedPerm.from_text("3 -2 5 1 -4")
        assert s.images == (3, -2, 5, 1, -4)
        assert SignedPerm.from_text(str(s)) == s

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            SignedPerm.from_text("1 two 3")

    def test_membership(self):
        assert SignedPerm.from_text("2 1 3").in_S
        assert not SignedPerm.from_text("-2 1 3").in_D
        assert SignedPerm.from_text("-2 -1 3").in_D
        assert not SignedPerm.from_text("-2 -1 3").in_S

    def test_call_extends_oddly(self):
        s = SignedPerm.from_text("3 -2 5 1 -4")
        assert s(2) == -2
        assert s(-2) == 2
        assert s(5) == -4


class TestGroupStructure:
    @given(signed_perms())
    def test_inverse(self, s):
        n = len(s.images)
        e = SignedPerm.identity(n)
        assert s * s.inverse() == e
        assert s.inverse() * s == e

    @given(signed_perms(n=4), signed_perms(n=4), signed_perms(n=4))
    def test_compose_is_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(signed_perms(n=4), signed_perms(n=4), st.integers(-4, 4).filter(bool))
    def test_compose_acts_pointwise(self, a, b, i):
        assert (a * b)(i) == a(b(i))

    def test_worked_product(self):
        lhs = SignedPerm.from_text("1 2") * SignedPerm.from_text("-2 -1")
        assert lhs == SignedPerm.from_text("-2 -1")

    def test_element_counts(self):
        assert len(list(elements("A", 3))) == 6
        assert len(list(elements("B", 3))) == 48
        assert len(list(elements("D", 3))) == 24
        assert all(s.in_D for s in elements("D", 3))

    def test_signings_keep_absolute_values(self):
        values = (3, 1, 2)
        for fam, count in (("A", 1), ("B", 8), ("D", 4)):
            got = list(signings(values, fam))
            assert len(got) == len(set(got)) == count
            assert all(tuple(abs(v) for v in s.images) == values for s in got)
            assert all(s.in_family(fam) for s in got)
        with pytest.raises(ValueError):
            list(signings(values, "C"))


class TestStatistics:
    def test_stat_bundle(self):
        s = SignedPerm.from_text("3 -2 5 1 -4")
        assert stats(s) == StatBundle(inv=7, nsp=4, oinv=5, onsp=2)
        assert (ell(s, "D"), odd_length(s, "D")) == (11, 7)

    def test_identity_has_zero_length(self):
        e = SignedPerm.identity(4)
        for fam in FAMILIES:
            assert ell(e, fam) == 0
            assert odd_length(e, fam) == 0

    def test_b_statistics(self):
        s = SignedPerm.from_text("-1 2")
        assert ell(s, "B") == 1
        assert odd_length(s, "B") == 1
        t = SignedPerm.from_text("1 -2")
        assert ell(t, "B") == 3
        assert odd_length(t, "B") == 2

    def test_a_statistics_need_unsigned_input(self):
        with pytest.raises(ValueError):
            ell(SignedPerm.from_text("-2 1 3"), "A")

    @given(signed_perms(nmax=5))
    def test_ell_and_odd_bundles_both(self, s):
        for fam in FAMILIES:
            if fam == "A" and not s.in_S:
                continue
            if fam == "D" and not s.in_D:
                continue
            assert ell_and_odd(s, fam) == (ell(s, fam), odd_length(s, fam))


class TestDescents:
    def test_label_ranges(self):
        assert label_range("A", 4) == range(1, 4)
        assert label_range("B", 4) == range(0, 4)
        assert label_range("D", 4) == range(0, 4)
        assert label_mask("D", 1) == 0
        assert label_mask("A", 4) == 0b1110

    def test_family_conventions(self):
        s = SignedPerm.from_text("2 -3 -1")
        assert descent_set(s, "D").members() == (0, 1)
        assert descent_set(s, "B").members() == (1,)
        assert descent_set(SignedPerm.from_text("2 1 3"), "A").members() == (1,)

    def test_identity_has_no_descents(self):
        for fam in FAMILIES:
            assert descent_set(SignedPerm.identity(4), fam).is_empty

    @given(signed_perms(5))
    def test_quotient_membership_is_descent_avoidance(self, s):
        fam = "D" if s.in_D else "B"
        n = len(s.images)
        I = IndexSet(n, label_mask(fam, n) & 0b101)
        assert in_quotient(s, I, fam) == (descent_set(s, fam).mask & I.mask == 0)


class TestParabolic:
    def test_quotient_sizes_divide_group_order(self):
        n = 4
        for fam, order in (("A", 24), ("B", 384), ("D", 192)):
            for mask in range(1 << n):
                if mask & ~label_mask(fam, n):
                    continue
                I = IndexSet(n, mask)
                q = len(list(quotient_elements(fam, n, I)))
                assert order % q == 0

    def test_factorization_is_length_additive_everywhere(self):
        J = IndexSet.of(4, [0, 2])
        for s in elements("D", 4):
            u, v = parabolic_factorize(s, J, "D")
            assert u * v == s
            assert in_quotient(u, J, "D")
            assert descent_set(v, "D").mask & ~J.mask == 0
            assert ell(s, "D") == ell(u, "D") + ell(v, "D")

    def test_odd_length_is_not_additive_in_general(self):
        s = SignedPerm.from_text("-1 -3 2 4")
        J = IndexSet.of(4, [1, 2, 3])
        u, v = parabolic_factorize(s, J, "D")
        assert odd_length(s, "D") == 3
        assert (odd_length(u, "D"), odd_length(v, "D")) == (1, 1)


class TestCombinators:
    def test_direct_product(self):
        s = SignedPerm.from_text("1 2")
        t = SignedPerm.from_text("3 4 -2 -1")
        prod = direct_product(s, t)
        assert prod == SignedPerm.from_text("1 2 5 6 -4 -3")

    def test_flip_value_negates_one_and_the_target(self):
        assert flip_value(SignedPerm.identity(3), 2) == SignedPerm.from_text("-1 -2 3")
        s = SignedPerm.from_text("3 -2 5 1 -4")
        assert flip_value(s, 3) == SignedPerm.from_text("3 -2 -5 -1 -4")
        assert flip_value(s, 4) == s
        with pytest.raises(ValueError):
            flip_value(s, 2)

    @given(signed_perms(nmax=5), st.integers(1, 5))
    def test_flip_value_preserves_even_sign_count(self, s, a):
        n = len(s.images)
        a = 1 + (a - 1) % n
        if s(a) <= 0:
            return
        assert flip_value(s, a).in_D == s.in_D
