"""Chessboard elements, odd sandwiches, and support factorizations."""

from functools import cache

import numpy as np
import pytest

from oddlen.chess import (
    Sandwich,
    additive_rows,
    check_L_additivity,
    check_set_factorization,
    chess_class,
    chessboard_rows,
    in_H,
    in_T,
    is_chessboard,
    k_odd_sandwiches,
    k_sandwich_free,
    odd_sandwiches,
    parabolic_factors,
    support_sum,
    support_table,
    window_sandwich_free,
)
from oddlen.genfun import perm_table, sweep_plan
from oddlen.indexset import IndexSet, components, is_compressed
from oddlen.sperm import (
    SignedPerm,
    compose,
    elements,
    ell_and_odd,
    in_quotient,
    label_mask,
    odd_length,
    parabolic_factorize,
    signings,
)
from oddlen.zpoly import ZERO, IntPoly


@cache
def _chessboard_pool(family, n):
    """The independent scan: every group element that is_chessboard keeps."""
    return tuple(s for s in elements(family, n) if is_chessboard(s))


class TestChessboard:
    def test_class_detection(self):
        assert chess_class(SignedPerm.identity(4)) == 0
        assert chess_class(SignedPerm.from_text("2 -1 4 -3")) == 1
        assert chess_class(SignedPerm.from_text("-4 -3 5 2 -1 6 -7")) is None
        assert is_chessboard(SignedPerm.from_text("2 -1 4 -3"))
        assert not is_chessboard(SignedPerm.from_text("2 1 3"))

    def test_counts(self):
        assert [len(_chessboard_pool("D", n)) for n in (2, 3, 4, 5)] == [4, 8, 64, 192]
        assert [len(_chessboard_pool("A", n)) for n in (2, 3, 4, 5)] == [2, 2, 8, 12]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_enumerate_exactly_the_chessboard_elements(self, n):
        for family in ("A", "D"):
            want = _chessboard_pool(family, n)
            got = [s for row in chessboard_rows(n).tolist()
                   for s in signings([v + 1 for v in row], family)]
            assert len(got) == len(want) and set(got) == set(want), family

    def test_odd_rank_forces_class_zero(self):
        for s in _chessboard_pool("D", 5):
            assert chess_class(s) == 0

    def test_closed_under_composition(self):
        elems = _chessboard_pool("D", 3)
        for a in elems:
            for b in elems:
                assert is_chessboard(compose(a, b))
                assert is_chessboard(a.inverse())


class TestOddSandwiches:
    def test_final_segment_examples(self):
        s = SignedPerm.from_text("-4 -3 5 2 -1 6 -7")
        assert Sandwich(r=3, h=3) in odd_sandwiches(s, 2)
        t = SignedPerm.from_text("-1 5 6 -3 -2 7 -4")
        assert odd_sandwiches(t, 3) == [Sandwich(r=2, h=3)]

    def test_widths_are_odd_and_endpoints_match_parity(self):
        s = SignedPerm.from_text("-4 -3 5 2 -1 6 -7")
        for c in range(1, 7):
            for r, h in odd_sandwiches(s, c):
                assert h % 2 == 1
                assert (r + h + 1) - r == h + 1

    def test_k_indexed_variant(self):
        u = SignedPerm.from_text("2 3 -1 7 4 6 -5")
        assert k_odd_sandwiches(u, 4) == [Sandwich(r=3, h=3)]
        assert k_odd_sandwiches(SignedPerm.from_text("1 4 2 3"), 2) == []

    def test_membership_predicates(self):
        s = SignedPerm.from_text("2 -1 4 -3")
        assert not in_H(s, 2)
        assert in_T(s, 2)
        assert in_H(SignedPerm.identity(4), 1)


class TestArraySandwiches:
    @pytest.mark.parametrize("n, chessboard", [(5, False), (6, False), (7, True)])
    def test_filters_match_the_scalar_scans(self, n, chessboard):
        # Every element of D5 and D6, and every chessboard element of D7.
        rows = chessboard_rows(n) if chessboard else perm_table(n)
        masks = sweep_plan("D", n).masks
        grid = [
            [SignedPerm(tuple(-(v + 1) if m >> i & 1 else v + 1 for i, v in enumerate(row)))
             for m in masks.tolist()]
            for row in rows.tolist()
        ]
        for param in range(1, n):
            k_want = [[not k_odd_sandwiches(s, param) for s in line] for line in grid]
            w_want = [[not odd_sandwiches(s, param) for s in line] for line in grid]
            k_got = np.broadcast_to(k_sandwich_free(rows, param)[:, None], (len(rows), len(masks)))
            assert np.array_equal(k_got, k_want), param
            assert np.array_equal(window_sandwich_free(rows, masks, param), w_want), param

    @pytest.mark.parametrize("param", [0, 5, -1])
    def test_parameters_out_of_range(self, param):
        rows, masks = perm_table(5), sweep_plan("D", 5).masks
        with pytest.raises(ValueError):
            k_sandwich_free(rows, param)
        with pytest.raises(ValueError):
            window_sandwich_free(rows, masks, param)


class TestLAdditivity:
    def test_identity_is_additive(self):
        assert check_L_additivity(SignedPerm.identity(4))

    def test_known_violation(self):
        sigma = SignedPerm.from_text("-1 -3 2 4")
        assert not check_L_additivity(sigma)
        assert not _scalar_additivity(sigma)


def _scalar_additivity(sigma):
    """The reference: odd lengths of the loop-built parabolic factorization."""
    u, v = parabolic_factorize(sigma, IndexSet.of(sigma.n, range(1, sigma.n)), "D")
    return odd_length(sigma, "D") == odd_length(u, "D") + odd_length(v, "D")


def _element_rows(n):
    """Every element of D_n as (absolute-value row, sign mask, element)."""
    for sigma in elements("D", n):
        yield np.array([[abs(v) - 1 for v in sigma.images]]), sigma.sign_mask, sigma


class TestSortingFactorization:
    @pytest.mark.parametrize("n", [4, 5])
    def test_array_additivity_matches_the_scalar_formula(self, n):
        # D4 holds the off-chessboard counterexample -1 -3 2 4.
        plan = sweep_plan("D", n)
        for row, mask, sigma in _element_rows(n):
            assert bool(additive_rows(plan, row, mask)[0]) == _scalar_additivity(sigma), sigma


class TestParabolicFactors:
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_parabolic_factorize_for_every_J(self, n):
        # Every D_n element against the scalar loop, J = {1..n-1} (the
        # factorization additive_rows splits over) among the rest.
        group = list(elements("D", n))
        elems = np.array([s.images for s in group])
        for mask in range(1 << n):
            J = IndexSet(n, mask)
            if 0 in J and 1 not in J:
                with pytest.raises(ValueError):
                    parabolic_factors(elems, J)
                continue
            u, v = parabolic_factors(elems, J)
            for sigma, a, b in zip(group, u.tolist(), v.tolist()):
                want = parabolic_factorize(sigma, J, "D")
                assert (SignedPerm(tuple(a)), SignedPerm(tuple(b))) == want, (sigma, J)


def _filtered_sum(family, I, pool):
    """The per-set reference: scan the pool, keep the quotient elements."""
    total = ZERO
    for s in pool:
        if in_quotient(s, I, family):
            l, L = ell_and_odd(s, family)
            total = total + IntPoly.monomial(-1 if l % 2 else 1, L)
    return total


SUPPORTS = [("A", 5, "chessboard", None), ("D", 5, "chessboard", None)] + [
    ("D", n, support, param)
    for n in (5, 6)
    for support in ("H", "T")
    for param in range(1, n)
]


class TestSupportSums:
    @pytest.mark.parametrize("family, n, support, param", SUPPORTS)
    def test_table_reads_match_filtered_scans(self, family, n, support, param):
        pool = _chessboard_pool(family, n)
        if support != "chessboard":
            keep = in_H if support == "H" else in_T
            pool = [s for s in pool if keep(s, param)]
        table = support_table(n, support, family=family, param=param)
        for mask in range(1 << n):
            if mask & ~label_mask(family, n) == 0:
                I = IndexSet(n, mask)
                assert table.quotient_poly(I) == _filtered_sum(family, I, pool)

    def test_validation(self):
        I = IndexSet.of(4, [0, 2])
        with pytest.raises(ValueError):
            support_sum(4, I, "H")
        with pytest.raises(ValueError):
            support_sum(4, I, "nope")
        with pytest.raises(ValueError):
            support_sum(4, I, "all")
        with pytest.raises(ValueError):
            support_sum(4, I, "chessboard", family="B")
        with pytest.raises(ValueError):
            support_sum(4, I, "H", family="A", param=2)


class TestSetFactorizations:
    def test_verified_instances(self):
        assert check_set_factorization(6, IndexSet.of(6, [0, 1, 3, 4, 5]), "H")
        assert check_set_factorization(5, IndexSet.of(5, [0, 1, 2, 4]), "H")
        assert check_set_factorization(7, IndexSet.of(7, [0, 1, 2, 4, 5, 6]), "T")

    @pytest.mark.parametrize("n", [7, 8])
    def test_every_H_instance_past_the_verify_caps(self, n):
        # The verify tiers stop the window variant at n = 6.
        instances = [I for I in map(IndexSet, [n] * (1 << n), range(1 << n))
                     if n - 1 in I and is_compressed(I) and 2 <= components(I).zero_size <= n - 2]
        assert instances and all(check_set_factorization(n, I, "H") for I in instances)

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            check_set_factorization(6, IndexSet.of(6, [0, 1, 2, 4]), "T")
        with pytest.raises(ValueError):
            check_set_factorization(5, IndexSet.of(5, [0, 2, 3, 4]), "H")
        with pytest.raises(ValueError):
            check_set_factorization(4, IndexSet.of(4, [0, 1]), "H")
