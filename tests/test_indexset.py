"""Index set parsing, component structure, and compression."""

import re

import pytest

from oddlen.indexset import (
    C_poly,
    IndexSet,
    components,
    compress,
    half_sizes,
    is_compressed,
    m_of,
    noncyclotomic_condition,
    tilde,
)
from oddlen.zpoly import q_multinomial


class TestConstruction:
    def test_from_text(self):
        assert IndexSet.from_text(6, "0-2,4").members() == (0, 1, 2, 4)
        assert IndexSet.from_text(4, "").members() == ()
        assert IndexSet.from_text(4, "3").members() == (3,)
        assert IndexSet.from_text(12, " 10 , 2-3 ").members() == (2, 3, 10)

    def test_from_text_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IndexSet.from_text(4, "5")
        with pytest.raises(ValueError):
            IndexSet.from_text(3, "junk")

    @pytest.mark.parametrize("item", ["1_0", "+2", "-1", "2-", "0x1", "\uff11", "1-+2"])
    def test_from_text_items_are_ascii_digit_strings(self, item):
        with pytest.raises(ValueError, match=re.escape(f"bad index set item {item!r}")):
            IndexSet.from_text(12, f"0, {item}")

    def test_of_and_full(self):
        assert IndexSet.of(4, [2, 0]).members() == (0, 2)
        assert IndexSet.full(4).members() == (0, 1, 2, 3)
        assert IndexSet.full(4).is_full
        assert IndexSet.of(4, []).is_empty

    def test_set_operations(self):
        I = IndexSet.of(5, [0, 2])
        assert I.add(4).members() == (0, 2, 4)
        assert I.remove(0).members() == (2,)
        assert I.union(IndexSet.of(5, [1])).members() == (0, 1, 2)
        assert 2 in I and 3 not in I
        assert list(I) == [0, 2]
        assert I.size == 2
        assert str(I) == "0,2"
        with pytest.raises(ValueError):
            I.add(5)


class TestComponents:
    def test_components(self):
        d = components(IndexSet.of(6, [0, 1, 3]))
        assert d.zero_component == (0, 1)
        assert d.others == ((3, 3),)
        assert d.zero_size == 2
        assert d.all_sizes == (2, 1)

        d = components(IndexSet.of(6, [2, 3]))
        assert d.zero_component is None
        assert d.others == ((2, 3),)

        def label_walk(I):
            """Maximal runs found by testing each label in turn."""
            runs, start = [], None
            for i in range(I.n + 1):
                inside = i in I
                if inside and start is None:
                    start = i
                elif not inside and start is not None:
                    runs.append((start, i - 1))
                    start = None
            return runs

        for n in range(1, 13):
            for mask in range(1 << n):
                I = IndexSet(n, mask)
                runs = label_walk(I)
                zero = runs.pop(0) if runs and runs[0][0] == 0 else None
                d = components(I)
                assert (d.zero_component, d.others) == (zero, tuple(runs)), I

    def test_m_of(self):
        assert m_of(IndexSet.of(4, [])) == 0
        assert m_of(IndexSet.of(4, [0, 1, 3])) == 2
        assert m_of(IndexSet.full(4)) == 2
        assert m_of(IndexSet.of(7, [0, 2, 3, 5])) == 3

    def test_half_sizes(self):
        assert half_sizes(()) == ()
        assert half_sizes((0, 5, 1, 2, 0, 4)) == (1, 1, 2, 3)
        I = IndexSet.of(7, [0, 2, 3, 5])
        assert half_sizes(components(I).all_sizes) == (1, 1, 1)

    def test_C_poly(self):
        I = IndexSet.of(4, [0, 2])
        assert C_poly(I) == q_multinomial(2, [1, 1], 2)
        assert C_poly(IndexSet.of(4, [])).coeffs == (1,)


class TestCompression:
    def test_reference_examples_rank_20(self):
        before = IndexSet.from_text(20, "0-3,6-9,11-15,17-19")
        after = IndexSet.from_text(20, "0-3,5-7,9-13,15-17")
        assert compress(before) == after

        before = IndexSet.from_text(20, "2-3,6-9,11-15,17-19")
        after = IndexSet.from_text(20, "1,3-5,7-11,13-15")
        assert compress(before) == after

    def test_is_compressed(self):
        assert is_compressed(IndexSet.of(6, [0, 1, 3, 5]))
        assert not is_compressed(IndexSet.of(7, [0, 1, 3, 5, 6]))
        assert is_compressed(IndexSet.of(4, []))

    def test_compress_is_idempotent_and_preserves_m(self):
        # Every mask to n = 12: compress keeps m(I) (it asserts nothing
        # itself), and is_compressed, which reads I's runs, agrees with
        # comparing I to its compression.
        for n in range(1, 13):
            for mask in range(1 << n):
                I = IndexSet(n, mask)
                J = compress(I)
                assert m_of(J) == m_of(I), I
                assert compress(J) == J, I
                assert is_compressed(J), I
                assert is_compressed(I) == (J == I), I

    def test_tilde(self):
        assert tilde(IndexSet.of(6, [0, 1, 3])).members() == (1, 3)
        assert tilde(IndexSet.of(6, [2, 3])).members() == (2, 3)


class TestNoncyclotomicCondition:
    def test_detects_blocking_shape(self):
        assert noncyclotomic_condition(IndexSet.of(4, [0, 1, 3]))
        assert not noncyclotomic_condition(IndexSet.of(4, [0, 3]))
        assert not noncyclotomic_condition(IndexSet.of(5, [0, 1, 3]))
        assert noncyclotomic_condition(IndexSet.of(6, [0, 1, 3, 5]))
        assert noncyclotomic_condition(IndexSet.of(6, [0, 1, 3, 4, 5]))
        assert not noncyclotomic_condition(IndexSet.of(6, [0, 1, 3, 4]))

    def test_rejects_full_set(self):
        with pytest.raises(ValueError):
            noncyclotomic_condition(IndexSet.full(4))
