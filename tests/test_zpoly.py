"""Integer polynomial arithmetic and cyclotomic machinery."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddlen import zpoly
from oddlen.genfun import closed_poly
from oddlen.indexset import IndexSet
from oddlen.sperm import label_mask
from oddlen.zpoly import (
    ONE,
    X,
    ZERO,
    IntPoly,
    alt_product,
    cyclotomic,
    cyclotomic_factors,
    expand,
    is_cyclotomic_product,
    q_multinomial,
    trinomial_cyclotomic,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=9)
polys = coeff_lists.map(lambda cs: IntPoly(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        assert IntPoly(()).is_zero

    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert X.degree == 1
        assert IntPoly((0, 0, 5)).degree == 2

    def test_const_and_monomial(self):
        assert IntPoly.const(7).coeffs == (7,)
        assert IntPoly.const(0) == ZERO
        assert IntPoly.monomial(3, 2).coeffs == (0, 0, 3)
        assert IntPoly.monomial(1, 0) == ONE

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1,), "1"),
            ((0, 1), "x"),
            ((0, -1), "-x"),
            ((1, 0, -1, 0, 0, 2), "1 - x^2 + 2x^5"),
            ((0, 0, 3), "3x^2"),
            ((-2, 1), "-2 + x"),
        ],
    )
    def test_str(self, coeffs, text):
        assert str(IntPoly(coeffs)) == text

    @given(polys, polys, st.integers(-4, 4))
    def test_ring_operations_agree_with_evaluation(self, p, q, t):
        assert (p + q)(t) == p(t) + q(t)
        assert (p - q)(t) == p(t) - q(t)
        assert (p * q)(t) == p(t) * q(t)
        assert (-p)(t) == -p(t)

    def test_pow(self):
        p = ONE + X
        assert p**0 == ONE
        assert p**3 == p * p * p
        assert (p**2).coeffs == (1, 2, 1)

    @given(polys, nonzero_polys)
    def test_exact_div_inverts_multiplication(self, p, q):
        assert (p * q).exact_div(q) == p

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            (X * X + ONE).exact_div(X + ONE)
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_subs_x_power(self):
        assert IntPoly((1, 2, 3)).subs_x_power(2).coeffs == (1, 0, 2, 0, 3)
        assert IntPoly((1, -1)).subs_x_power(3).coeffs == (1, 0, 0, -1)


def q_int(k):
    """[k]_q = 1 + q + ... + q^(k-1), for the reference builds."""
    return IntPoly((1,) * k)


def q_factorial(k):
    out = ONE
    for j in range(2, k + 1):
        out = out * q_int(j)
    return out


def euler_phi(k):
    """Oracle: phi(k) by trial factorisation of k."""
    out, rest, p = 1, k, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out *= (p - 1) * p ** (e - 1)
        p += 1
    if rest > 1:
        out *= rest - 1
    return out


def reference_q_multinomial(total, parts, base_exponent=1):
    """Oracle: q-factorials by IntPoly products, then exact division."""
    out = q_factorial(total)
    for p in parts:
        out = out.exact_div(q_factorial(p))
    return out.subs_x_power(base_exponent)


def reference_alt_product(lo, hi, square=False):
    """Oracle: the alternating product as IntPoly products of binomials."""
    out = ONE
    for j in range(lo, hi + 1):
        out = out * (ONE + IntPoly.monomial(1 if j % 2 else -1, j // 2))
    return out * out if square else out


def trial_division_factors(p):
    """Oracle: the cyclotomic decision by trial division.

    Divide by Phi_k for ascending k up to max(6, 2 deg(p)^2); phi(k) >=
    sqrt(k / 2), so no larger Phi_k can divide p, and k with phi(k) above
    the residual degree are skipped.
    """
    if p.is_zero:
        return None
    if p.coeffs[-1] < 0:
        p = -p
    if p.degree == 0:
        return [] if p.coeffs == (1,) else None
    if p.coeffs[-1] != 1 or abs(p.coeffs[0]) != 1:
        return None
    factors = []
    residual = p
    for k in range(1, max(6, 2 * p.degree * p.degree) + 1):
        if residual == ONE:
            break
        if k > 6 and euler_phi(k) > residual.degree:
            continue
        while True:
            try:
                residual = residual.exact_div(cyclotomic(k))
            except ValueError:
                break
            factors.append(k)
    return factors if residual == ONE else None


def cyclotomic_product(ks):
    out = ONE
    for k in ks:
        out = out * cyclotomic(k)
    return out


def trinomial(n, m):
    return ONE + IntPoly.monomial(2, m) + IntPoly.monomial(1, n)


def near_misses(count, seed):
    """Cyclotomic products of degree at most 16 with one coefficient moved by +-1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = cyclotomic_product(rng.choices(range(1, 31), k=rng.randint(1, 3)))
        if p.degree > 16:
            continue
        coeffs = list(p.coeffs)
        coeffs[rng.randrange(len(coeffs))] += rng.choice((-1, 1))
        out.append(IntPoly(coeffs))
    return out


class TestQSeries:
    def test_q_int(self):
        assert q_int(1) == ONE
        assert q_int(4).coeffs == (1, 1, 1, 1)

    def test_q_factorial(self):
        assert q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_q_multinomial(self):
        assert q_multinomial(2, [1, 1]).coeffs == (1, 1)
        assert q_multinomial(2, [1, 1], 2).coeffs == (1, 0, 1)
        assert q_multinomial(4, [2, 2]).coeffs == (1, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            q_multinomial(3, [1, 1])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_q_multinomial_has_nonnegative_coefficients(self, parts):
        poly = q_multinomial(sum(parts), parts)
        assert all(c >= 0 for c in poly.coeffs)
        assert poly(1) > 0

    def test_alt_product(self):
        assert alt_product(2, 1) == ONE
        assert alt_product(2, 2).coeffs == (1, -1)
        assert alt_product(2, 4).coeffs == (1, 0, -2, 0, 1)
        assert alt_product(2, 3, square=True) == alt_product(2, 3) ** 2
        assert alt_product(4, 7, square=True) == alt_product(4, 7) ** 2

    def test_alt_product_starts_at_two(self):
        assert alt_product(1, 0) == ONE
        with pytest.raises(ValueError):
            alt_product(1, 3)

    @pytest.mark.parametrize("square", [False, True])
    def test_alt_product_matches_the_reference_product(self, square):
        for lo in range(2, 14):
            for hi in range(lo - 2, 26):
                assert alt_product(lo, hi, square) == reference_alt_product(lo, hi, square)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.integers(1, 3))
    def test_q_multinomial_matches_the_reference_quotient(self, parts, b):
        assert q_multinomial(sum(parts), parts, b) == reference_q_multinomial(sum(parts), parts, b)


class TestExpand:
    @given(
        st.lists(st.integers(1, 12), max_size=6),
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=4),
    )
    def test_matches_the_product_of_its_factors(self, numer, blocks):
        """Factors (1 - x^d), and blocks (1 - x^dj) / (1 - x^d) = [j]_{x^d}."""
        exps = {}
        want = ONE
        for d in numer:
            exps[d] = exps.get(d, 0) + 1
            want = want * (ONE - IntPoly.monomial(1, d))
        for d, j in blocks:
            exps[d * j] = exps.get(d * j, 0) + 1
            exps[d] = exps.get(d, 0) - 1
            want = want * q_int(j).subs_x_power(d)
        assert expand(exps) == want
        assert expand(exps, head=IntPoly([3, -1, 2])) == want * IntPoly([3, -1, 2])

    def test_head_may_supply_the_missing_cyclotomic_factors(self):
        # (1 + x^16 + 2x^9)(1 - x^9)^2 / (1 - x^2): Phi_2 divides the head.
        head = ONE + IntPoly.monomial(2, 9) + IntPoly.monomial(1, 16)
        got = expand({9: 2, 2: -1}, head=head)
        assert got * (ONE - IntPoly.monomial(1, 2)) == head * (ONE - IntPoly.monomial(1, 9)) ** 2

    @pytest.mark.parametrize("exps, head", [
        ({1: -1}, ONE),
        ({2: -1}, IntPoly([1, 1])),
        ({4: 1, 2: -2}, ONE),
        ({2: -1}, IntPoly([1, 0, 1])),
    ])
    def test_rejects_what_is_no_polynomial(self, exps, head):
        with pytest.raises(ValueError, match="no polynomial"):
            expand(exps, head=head)

    def test_rejects_a_factor_index_below_one(self):
        with pytest.raises(ValueError):
            expand({0: 1})


class TestCyclotomic:
    @pytest.mark.parametrize(
        "k, coeffs",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_small_values(self, k, coeffs):
        assert cyclotomic(k).coeffs == coeffs

    @pytest.mark.parametrize("n", range(1, 31))
    def test_divisor_product(self, n):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly.monomial(1, n) - ONE

    def test_euler_phi(self):
        assert [euler_phi(k) for k in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
        assert cyclotomic(36).degree == euler_phi(36)
        phi, _ = zpoly._totients(300)
        assert list(phi[1:]) == [euler_phi(k) for k in range(1, len(phi))]

    def test_cyclotomic_factors(self):
        assert cyclotomic_factors(IntPoly((1, 0, 2, 0, 1))) == [4, 4]
        assert cyclotomic_factors(IntPoly((-1, 1))) == [1]
        assert cyclotomic_factors(IntPoly((1, -1))) == [1]
        assert sorted(cyclotomic_factors(IntPoly((1, 0, 0, 2, 0, 0, 1)))) == [2, 2, 6, 6]
        assert cyclotomic_factors(ONE) == []
        assert cyclotomic_factors(IntPoly.const(-1)) == []
        assert cyclotomic_factors(ZERO) is None
        assert cyclotomic_factors(IntPoly.const(2)) is None
        assert cyclotomic_factors(X) is None
        assert cyclotomic_factors(IntPoly((1, 0, 3))) is None

    @given(st.lists(st.sampled_from(range(1, 13)), min_size=1, max_size=4))
    def test_factorization_roundtrip(self, ks):
        prod = ONE
        for k in ks:
            prod = prod * cyclotomic(k)
        assert cyclotomic_factors(prod) == sorted(ks)

    def test_is_cyclotomic_product(self):
        assert is_cyclotomic_product(IntPoly((1, 0, 2, 0, 1)))
        assert is_cyclotomic_product(IntPoly((1, -1)))
        assert not is_cyclotomic_product(IntPoly((1, 0, 3)))
        assert not is_cyclotomic_product(IntPoly((1, 0, 2, 0, -3)))
        assert not is_cyclotomic_product(ZERO)

    def test_trinomial_criterion_matches_factorization(self):
        for n in range(2, 13):
            for m in range(1, n):
                trinomial = (
                    ONE + IntPoly.monomial(2, m) + IntPoly.monomial(1, n)
                )
                want = n == 2 * m
                assert trinomial_cyclotomic(n, m) is want
                assert is_cyclotomic_product(trinomial) is want


class TestPeelAgainstTrialDivision:
    """cyclotomic_factors peels (1 - x^d) exponents; trial division by Phi_k
    (trial_division_factors above) is the oracle it must agree with."""

    @given(st.lists(st.integers(1, 60), max_size=4), st.booleans())
    def test_products_of_cyclotomics_up_to_k_60(self, ks, negate):
        p = cyclotomic_product(ks)
        p = -p if negate else p
        assert cyclotomic_factors(p) == trial_division_factors(p) == sorted(ks)

    @pytest.mark.parametrize("ks", [[14], [14, 1], [30], [15, 30, 2], [60], [42, 1, 1]])
    def test_factors_with_k_above_the_degree(self, ks):
        p = cyclotomic_product(ks)
        assert max(ks) > p.degree
        assert cyclotomic_factors(p) == trial_division_factors(p) == sorted(ks)

    @pytest.mark.parametrize("ks", [[1] * 5, [2] * 6, [2] * 3 + [6] * 2, [1, 2] * 4])
    def test_products_at_the_peel_bounds(self, ks):
        """(1 - x)^D and (1 + x)^D meet |a_d| phi(d) <= D and sum |a_d| <= 2D
        with equality."""
        p = cyclotomic_product(ks)
        assert cyclotomic_factors(p) == trial_division_factors(p) == sorted(ks)

    def test_trinomials_up_to_degree_24(self):
        for n in range(2, 25):
            for m in range(1, n):
                p = trinomial(n, m)
                got = cyclotomic_factors(p)
                assert got == trial_division_factors(p)
                assert (got is not None) is trinomial_cyclotomic(n, m)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_misses(self, seed):
        for p in near_misses(40, seed):
            assert cyclotomic_factors(p) == trial_division_factors(p)

    def test_sympy_factor_list_agrees(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        # Every Phi_k of degree <= 16 has k <= 60.
        index = {
            tuple(sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()): k
            for k in range(1, 121)
        }
        rng = random.Random(7)
        polys = [trinomial(n, m) for n in range(2, 17) for m in range(1, n)]
        polys += [cyclotomic_product(rng.choices(range(1, 61), k=3)) for _ in range(20)]
        polys += near_misses(40, 11)
        for p in polys:
            unit, irreducibles = sympy.Poly(p.coeffs[::-1], x).factor_list()
            want = [] if abs(unit) == 1 else None
            for f, mult in irreducibles:
                coeffs = tuple(f.all_coeffs())
                k = index.get(coeffs, index.get(tuple(-c for c in coeffs)))
                if want is None or k is None:
                    want = None
                    break
                want += [k] * mult
            assert cyclotomic_factors(p) == (sorted(want) if want is not None else None), p

    def test_a_peel_truncated_past_the_degree_misses_phi_14(self, monkeypatch):
        """Planted fault: with L = D + 1 in place of K(D) + 1 the peel cannot
        see (1 - x^14) and (1 - x^7), so Phi_14 * Phi_1 (degree 7) is lost."""
        p = cyclotomic_product([14, 1])
        assert cyclotomic_factors(p) == trial_division_factors(p) == [1, 14]
        real = zpoly._totients

        def truncated(D):
            phi, _ = real(D)
            return phi, tuple(range(len(phi)))

        monkeypatch.setattr(zpoly, "_totients", truncated)
        assert cyclotomic_factors(p) is None
        assert cyclotomic_factors(p) != trial_division_factors(p)


def closed_forms(top):
    """The distinct closed quotient sums of A, B and D at ranks 1..top."""
    forms = {}
    for family in "ABD":
        for n in range(1, top + 1):
            full = label_mask(family, n)
            for mask in range(1 << n):
                if mask & ~full == 0:
                    p = closed_poly(family, n, IndexSet(n, mask))
                    forms[p.coeffs] = p
    return list(forms.values())


class TestShortPeel:
    """cyclotomic_factors peels modulo x^(D+1) first and widens to
    x^(K(D)+1) only when the short peel's final check fails."""

    @pytest.fixture
    def peel_lengths(self, monkeypatch):
        lengths = []
        real = zpoly._peel

        def spy(r, D, phi):
            lengths.append(len(r))
            return real(r, D, phi)

        monkeypatch.setattr(zpoly, "_peel", spy)
        return lengths

    def test_closed_forms_up_to_rank_12_widen_only_past_the_degree(self, peel_lengths):
        """A yes takes one short peel unless some factor Phi_k has k > D,
        as Phi_4 = 1 + x^2 has; then the short check fails and one wide
        peel decides."""
        widened = []
        for p in closed_forms(12):
            peel_lengths.clear()
            ks = cyclotomic_factors(p)
            if ks is None:
                continue
            D = p.degree
            if max(ks, default=0) <= D:
                assert peel_lengths == [D + 1], p
            else:
                assert peel_lengths == [D + 1, zpoly._totients(D)[1][D] + 1], p
                widened.append(p.coeffs)
        # 1 + x^2 + ... + x^2j and 1 + x^2j, as Phi_4 and Phi_8 are.
        sums = {(1, 0) * j + (1,) for j in range(1, 6)}
        binomials = {(1,) + (0,) * (2 * j - 1) + (1,) for j in range(2, 6)}
        assert sorted(widened) == sorted(sums | binomials)

    def test_trinomials_are_decided_without_widening(self, peel_lengths):
        """x^n + 2x^m + 1 with n != 2m is no palindrome, so it is rejected
        with no peel; (1 + x^m)^2 has every factor Phi_k with k <= 2m, so
        one short peel decides it."""
        for n in range(2, 25):
            for m in range(1, n):
                peel_lengths.clear()
                assert (cyclotomic_factors(trinomial(n, m)) is None) is (n != 2 * m)
                assert peel_lengths == ([n + 1] if n == 2 * m else []), (n, m)

    @pytest.mark.parametrize("ks", [[14, 1], [30], [15, 30, 2]])
    def test_a_peel_that_never_widens_loses_factors_above_the_degree(
        self, monkeypatch, peel_lengths, ks
    ):
        p = cyclotomic_product(ks)
        D = p.degree
        assert cyclotomic_factors(p) == sorted(ks)
        assert peel_lengths == [D + 1, zpoly._totients(D)[1][D] + 1]
        spy = zpoly._peel
        monkeypatch.setattr(zpoly, "_peel", lambda r, D, phi: spy(r[: D + 1], D, phi))
        assert cyclotomic_factors(p) is None


def test_totient_ceiling_matches_brute_force(monkeypatch):
    """K(D) = max{k : phi(k) <= D}; phi(k) >= sqrt(k / 2) bounds the search
    by 2D^2.  The table starts empty and grows with D; the last, largest one
    still answers every smaller degree."""
    monkeypatch.setattr(zpoly, "_TOTIENTS", [(0,), (0,)])
    top = 2 * 300 * 300
    phi = np.arange(top + 1)
    for q in range(2, top + 1):
        if phi[q] == q:
            phi[q::q] -= phi[q::q] // q
    wants = []
    for D in range(301):
        small = np.flatnonzero(phi[1 : 2 * D * D + 1] <= D)
        wants.append(int(small[-1]) + 1 if small.size else 0)
        _, K = zpoly._totients(D)
        assert K[D] == wants[D], D
    assert list(K[:301]) == wants


def test_a_served_degree_skips_the_bound(monkeypatch):
    """K's last index is the largest degree the table serves: a degree up
    to it is one comparison, and only a larger one computes the bound."""
    monkeypatch.setattr(zpoly, "_TOTIENTS", [(0,), (0,)])
    phi, K = zpoly._totients(40)
    assert len(K) == 41
    bound, calls = zpoly._totient_bound, []
    monkeypatch.setattr(zpoly, "_totient_bound", lambda D: calls.append(D) or bound(D))
    assert all(zpoly._totients(D) == (phi, K) for D in range(41))
    assert calls == []
    assert zpoly._totients(41)[0] is phi  # the same bound: phi is kept, K extended
    assert calls == [41] and len(zpoly._TOTIENTS[1]) == 42
