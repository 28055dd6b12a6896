"""Chessboard elements, odd sandwiches, and support factorizations."""

import pytest

from oddlen.chess import (
    Sandwich,
    check_L_additivity,
    check_set_factorization,
    chess_class,
    chessboard_elements,
    in_H,
    in_T,
    is_chessboard,
    k_odd_sandwiches,
    odd_sandwiches,
    support_sum,
    support_table,
)
from oddlen.indexset import IndexSet
from oddlen.sperm import SignedPerm, compose, ell_and_odd, in_quotient, label_mask
from oddlen.zpoly import ZERO, IntPoly


class TestChessboard:
    def test_class_detection(self):
        assert chess_class(SignedPerm.identity(4)) == 0
        assert chess_class(SignedPerm.from_text("2 -1 4 -3")) == 1
        assert chess_class(SignedPerm.from_text("-4 -3 5 2 -1 6 -7")) is None
        assert is_chessboard(SignedPerm.from_text("2 -1 4 -3"))
        assert not is_chessboard(SignedPerm.from_text("2 1 3"))

    def test_counts(self):
        assert [len(list(chessboard_elements(n))) for n in (2, 3, 4, 5)] == [
            4, 8, 64, 192,
        ]
        assert [
            len(list(chessboard_elements(n, family="A"))) for n in (2, 3, 4, 5)
        ] == [2, 2, 8, 12]

    def test_family_guard(self):
        with pytest.raises(ValueError):
            list(chessboard_elements(3, family="B"))

    def test_odd_rank_forces_class_zero(self):
        for s in chessboard_elements(5):
            assert chess_class(s) == 0

    def test_closed_under_composition(self):
        elems = list(chessboard_elements(3))
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


class TestLAdditivity:
    def test_identity_is_additive(self):
        assert check_L_additivity(SignedPerm.identity(4))

    def test_known_violation(self):
        assert not check_L_additivity(SignedPerm.from_text("-1 -3 2 4"))


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
        pool = list(chessboard_elements(n, family))
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

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            check_set_factorization(6, IndexSet.of(6, [0, 1, 2, 4]), "T")
        with pytest.raises(ValueError):
            check_set_factorization(5, IndexSet.of(5, [0, 2, 3, 4]), "H")
        with pytest.raises(ValueError):
            check_set_factorization(4, IndexSet.of(4, [0, 1]), "H")
