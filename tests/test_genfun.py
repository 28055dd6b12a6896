"""Generating functions: brute enumeration, closed forms, and budgets."""

import hashlib
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddlen.genfun import (
    BUDGET,
    BudgetError,
    DescentTable,
    _build_plan,
    _sweep_range,
    M_of,
    brute_filtered,
    brute_quotient,
    brute_table,
    closed_A,
    closed_B,
    closed_D,
    closed_poly,
    conjecture_rhs,
    conjecture_set,
    perm_table,
    pinned_table,
    resolve_workers,
    scalar_table,
    sweep_plan,
)
from oddlen.indexset import IndexSet, components
from oddlen.rootsys import odd_root_count
from oddlen.sperm import (
    SignedPerm,
    ell_and_odd,
    elements,
    in_quotient,
    label_mask,
)
from oddlen.zpoly import ONE, ZERO, IntPoly, alt_product


def quotient_elements(family, n, I):
    return (s for s in elements(family, n) if in_quotient(s, I, family))


def subsets(family, n):
    full = label_mask(family, n)
    for mask in range(1 << n):
        if mask & ~full == 0:
            yield IndexSet(n, mask)


class TestBruteTable:
    def test_group_poly_is_the_signed_sum(self):
        assert brute_table("A", 3).group_poly().coeffs == (1, 0, -1)
        assert brute_table("B", 1).group_poly().coeffs == (1, -1)
        t = brute_table("D", 4)
        assert t.group_poly() == t.quotient_poly(IndexSet.of(4, []))

    def test_quotient_of_full_set_is_one(self):
        t = brute_table("D", 4)
        assert t.quotient_poly(IndexSet.full(4)) == ONE

    def test_quotient_of_empty_set_is_group_poly(self):
        t = brute_table("B", 3)
        assert t.quotient_poly(IndexSet.of(3, [])) == t.group_poly()

    def test_quotient_matches_direct_enumeration(self):
        for family in ("A", "B", "D"):
            t = brute_table(family, 4)
            for I in subsets(family, 4):
                want = ZERO
                for s in quotient_elements(family, 4, I):
                    l, L = ell_and_odd(s, family)
                    want = want + IntPoly.monomial(-1 if l % 2 else 1, L)
                assert t.quotient_poly(I) == want

    def test_worker_split_matches_single_process(self):
        single = brute_table("D", 7, workers=1)
        split = brute_table("D", 7, workers=2)
        assert np.array_equal(single.counts, split.counts)

    @pytest.mark.parametrize("family, n", [("A", 9), ("B", 7)])
    def test_worker_split_on_uneven_block_counts(self, family, n):
        # A9 has 9 prefix blocks and B7 has one: neither splits evenly in two.
        nblocks = factorial(n) // factorial(_build_plan(family, n).suffix)
        assert nblocks % 2 == 1
        single = brute_table(family, n, workers=1)
        assert np.array_equal(brute_table(family, n, workers=2).counts, single.counts)

    def test_buckets_sum_to_the_group_poly(self):
        t = brute_table("B", 3)
        assert t.counts.dtype == np.int64
        assert t.counts.shape == (8, 2, odd_root_count("B", 3) + 1)
        total = ZERO
        for mask in range(8):
            total = total + t.bucket(mask)
        assert total == t.group_poly()
        assert t.bucket(0b111) == IntPoly.monomial(-1, 6)  # the longest element alone

    @pytest.mark.parametrize("family, n", [("A", 5), ("B", 4), ("D", 5)])
    def test_plan_table_over_every_row_matches_the_sweep(self, family, n):
        table = sweep_plan(family, n).table(family, perm_table(n))
        assert np.array_equal(table.counts, brute_table(family, n).counts)

    def test_budget(self):
        with pytest.raises(BudgetError):
            brute_table("D", BUDGET["D"] + 1)
        with pytest.raises(BudgetError):
            brute_quotient("A", BUDGET["A"] + 1, IndexSet.of(BUDGET["A"] + 1, []))

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("ODDLEN_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(5) == 5
        monkeypatch.setenv("ODDLEN_WORKERS", "3")
        assert resolve_workers(5) == 5
        assert resolve_workers(1) == 1
        assert resolve_workers(None) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("ODDLEN_WORKERS", "x")
        assert resolve_workers(2) == 2
        with pytest.raises(ValueError):
            resolve_workers(None)


def _table_digest(table):
    # One line per descent mask that holds at least one element.
    present = [m for m in range(1 << table.n) if table.counts[m].any()]
    text = "".join(f"{m}:{','.join(map(str, table.bucket(m).coeffs))}\n" for m in present)
    return hashlib.sha256(text.encode()).hexdigest()


class TestSweepKernel:
    # SHA-256 of the A10, B8 and D8 tables, as produced by the tuple-based
    # kernel the block kernel replaced.
    GOLDEN = {
        ("A", 10): "27ad339025c91abc5125c2d67c42cb7c2db8da3fd522f3cdddefc9477b4f1cee",
        ("B", 8): "e67680e3566bc4986692f68e60c4a3c8c03259936ed3328225da2a36ccce5538",
        ("D", 8): "ec21e7eaad312dc9867ac0b35775c34b25cd5f453b5059f00623637e2567cd78",
    }

    @pytest.mark.parametrize("family, n", list(GOLDEN))
    def test_golden_table_digest(self, family, n):
        assert _table_digest(brute_table(family, n, workers=1)) == self.GOLDEN[(family, n)]

    def test_every_plan_within_budget_builds(self):
        # _build_plan raises if a float32 sum could reach 2**24.
        for family, top in BUDGET.items():
            for n in range(1, top + 1):
                plan = _build_plan(family, n)
                nmasks = plan.masks.shape[0]
                assert plan.weights.shape == (n * (n - 1) // 2, 2 * nmasks)
                assert plan.lut.shape == (1 << (n - 1), nmasks)
                assert plan.width == odd_root_count(family, n) + 1

    def test_suffix_blocks(self):
        assert _build_plan("A", 10).suffix == 8
        assert _build_plan("B", 8).suffix == 7
        assert _build_plan("D", 8).suffix == 7
        assert _build_plan("A", 2).suffix == 2

    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    def test_perm_table_is_lexicographic(self, s):
        from itertools import permutations

        table = perm_table(s)
        assert table.dtype == np.int8
        assert [tuple(row) for row in table] == list(permutations(range(s)))

    def test_prefix_blocks_sum_to_the_whole_sweep(self):
        plan = _build_plan("A", 9)
        whole = _sweep_range(plan, 0, 9)
        assert np.array_equal(_sweep_range(plan, 0, 4) + _sweep_range(plan, 4, 9), whole)

    @pytest.mark.parametrize(
        "family, n",
        [
            pytest.param(family, n, id=f"{n}-{family}")
            for family, top in (("A", 6), ("B", 4), ("D", 5))
            for n in range(1, top + 1)
        ],
    )
    def test_edge_ranks_match_scalar_enumeration(self, family, n):
        # n=1 has no pairs and n=2 has no prefix.
        oracle = scalar_table(family, n, elements(family, n))
        assert np.array_equal(oracle.counts, brute_table(family, n).counts)

    def test_scalar_table_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            scalar_table("D", 3, [SignedPerm.identity(4)])
        with pytest.raises(ValueError):
            scalar_table("A", 3, [SignedPerm.from_text("-1 2 3")])


@st.composite
def family_elements(draw):
    """A family and a random element of it at a rank in 1..BUDGET."""
    family = draw(st.sampled_from(sorted(BUDGET)))
    n = draw(st.integers(1, BUDGET[family]))
    values = draw(st.permutations(range(1, n + 1)))
    signs = [1] * n
    if family != "A":
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        if family == "D" and signs.count(-1) % 2:
            signs[0] = -signs[0]
    return family, SignedPerm(tuple(v * s for v, s in zip(values, signs)))


class TestPlanReads:
    @given(family_elements())
    @settings(deadline=None)
    def test_plan_reads_match_scalar_statistics(self, drawn):
        """The sweep plan's per-element read against scalar ell_and_odd.

        Ranks stop at BUDGET, not at sperm.MAX_DEGREE: the plan carries a
        descent lookup table of 2**(n-1) words by every sign mask, which
        outgrows memory long before rank 16.
        """
        family, sigma = drawn
        row = np.array([[abs(v) - 1 for v in sigma.images]])
        length, odd = sweep_plan(family, sigma.n).stats(row, sigma.sign_mask)
        assert (int(length[0]), int(odd[0])) == ell_and_odd(sigma, family)

    def test_stats_rejects_masks_outside_the_group(self):
        rows = perm_table(3)
        with pytest.raises(ValueError):
            sweep_plan("A", 3).stats(rows, 1)
        with pytest.raises(ValueError):
            sweep_plan("D", 3).stats(rows, 0b100)

    def test_sweep_plan_respects_the_budget(self):
        with pytest.raises(BudgetError):
            sweep_plan("D", BUDGET["D"] + 1)


class TestClosedForms:
    def test_a_small_values(self):
        assert closed_A(3, IndexSet.of(3, [])).coeffs == (1, 0, -1)
        assert closed_A(3, IndexSet.of(3, [1, 2])) == ONE

    def test_a_rejects_label_zero(self):
        with pytest.raises(ValueError):
            closed_A(3, IndexSet.of(3, [0]))

    def test_b_small_values(self):
        assert closed_B(1, IndexSet.of(1, [])).coeffs == (1, -1)
        assert closed_B(2, IndexSet.full(2)) == ONE

    def test_d_special_cases(self):
        assert closed_D(1, IndexSet.of(1, [])) == ONE
        assert closed_D(4, IndexSet.full(4)) == ONE
        assert closed_D(4, IndexSet.of(4, [])) == alt_product(2, 4, square=True)

    def test_closed_poly_dispatch(self):
        I = IndexSet.of(4, [0, 2])
        assert closed_poly("D", 4, I) == closed_D(4, I)
        assert closed_poly("B", 4, I) == closed_B(4, I)
        J = IndexSet.of(4, [2])
        assert closed_poly("A", 4, J) == closed_A(4, J)

    @pytest.mark.parametrize("family, n, I", [
        ("A", 3, IndexSet.of(3, [0])),
        ("D", 1, IndexSet.of(1, [0])),
        ("A", 3, IndexSet.of(4, [3])),
        ("B", 3, IndexSet.of(4, [3])),
        ("D", 3, IndexSet.of(4, [3])),
    ])
    def test_each_family_rejects_an_out_of_range_label(self, family, n, I):
        with pytest.raises(ValueError, match="labels outside|rank mismatch"):
            closed_poly(family, n, I)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            closed_poly(family, 0, I)

    def test_closed_forms_scale_past_the_enumeration_budget(self):
        assert closed_D(12, IndexSet.of(12, [0, 5])) is not None
        assert closed_A(40, IndexSet.of(40, [7])) is not None


class TestFiltered:
    def test_pinned_entry_values(self):
        assert brute_filtered("D", 3, IndexSet.of(3, []), (3, 3)).coeffs == (1, -2, 1)
        assert brute_filtered("A", 3, IndexSet.of(3, []), (3, 3)).coeffs == (1, -1)
        assert brute_filtered("A", 3, IndexSet.of(3, []), (3, -3)) == ZERO

    def test_pinned_table_validation(self):
        assert not pinned_table("A", 3, (2, -3)).counts.any()
        for pin in ((0, 3), (4, 3), (1, 2)):
            with pytest.raises(ValueError):
                pinned_table("D", 3, pin)
        with pytest.raises(ValueError):
            brute_filtered("D", 3, IndexSet.of(4, []), (3, 3))
        with pytest.raises(BudgetError):
            pinned_table("D", BUDGET["D"] + 1, (1, BUDGET["D"] + 1))

    @pytest.mark.parametrize("family, n", [("A", 4), ("B", 3), ("D", 4)])
    def test_pinned_tables_match_the_scalar_oracle(self, family, n):
        for b in range(1, n + 1):
            for v in (n, -n):
                pool = (s for s in elements(family, n) if s(b) == v)
                want = scalar_table(family, n, pool).counts
                assert np.array_equal(pinned_table(family, n, (b, v)).counts, want), (b, v)

    def test_pinned_entries_partition_the_quotient(self):
        n = 4
        for I in subsets("D", n):
            total = ZERO
            for v in (n, -n):
                for b in range(1, n + 1):
                    total = total + brute_filtered("D", n, I, (b, v))
            assert total == brute_quotient("D", n, I)


def _pinned_sum(n, I, pin, cmp=None):
    """Quotient sum restricted to sigma(pos) = val and optionally
    sigma(a) < sigma(b)."""
    pos, val = pin
    total = ZERO
    for s in quotient_elements("D", n, I):
        if s(pos) != val:
            continue
        if cmp is not None:
            a, b = cmp
            if not s(a) < s(b):
                continue
        l, L = ell_and_odd(s, "D")
        total = total + IntPoly.monomial(-1 if l % 2 else 1, L)
    return total


class TestBoundaryComparison:
    """Sums pinned at the largest value reduce to order-restricted sums.

    For a connected run [i, k] of I, pinning sigma(i) = -n (resp.
    sigma(k+1) = n) kills the sum when i and k share a parity; otherwise
    the surviving terms are exactly those with sigma(k+1) < sigma(i-1)
    (resp. sigma(k+2) < sigma(i)).

    The cancelling swaps act on position i - 1, so the reductions need
    clearance below the run.  Pinning sigma(i) = -n additionally needs
    labels 0 and 1 free when i = 3; pinning sigma(k+1) = n additionally
    needs label 0 free when i = 2.  Both boundaries are witnessed by the
    sharpness tests below.
    """

    @pytest.mark.parametrize("n", [4, 5])
    def test_identity(self, n):
        for I in subsets("D", n):
            for i, k in components(I).others:
                parity_differs = (i - k) % 2 == 1
                if i >= 2 and not (i == 3 and (0 in I or 1 in I)):
                    lhs = _pinned_sum(n, I, (i, -n))
                    rhs = (
                        _pinned_sum(n, I, (i, -n), cmp=(k + 1, i - 1))
                        if parity_differs
                        else ZERO
                    )
                    assert lhs == rhs
                    assert lhs == brute_filtered("D", n, I, (i, -n))
                if k <= n - 2 and (k + 2) not in I and (i >= 3 or 0 not in I):
                    lhs = _pinned_sum(n, I, (k + 1, n))
                    rhs = (
                        _pinned_sum(n, I, (k + 1, n), cmp=(k + 2, i))
                        if parity_differs
                        else ZERO
                    )
                    assert lhs == rhs
                    assert lhs == brute_filtered("D", n, I, (k + 1, n))

    def test_reduction_boundaries_are_sharp(self):
        assert _pinned_sum(4, IndexSet.of(4, [0, 2]), (3, 4)).coeffs == (
            0, 0, -1, 0, 1,
        )
        assert _pinned_sum(4, IndexSet.of(4, [0, 3]), (3, -4)).coeffs == (
            0, 0, 0, 0, -1, 0, 1,
        )


class TestDerivedQuantities:
    def test_multiplier_divides_its_quotient(self):
        I = IndexSet.of(4, [0, 1, 3])
        assert M_of(4, I) == closed_D(4, I)

    def test_multiplier_guards(self):
        with pytest.raises(ValueError):
            M_of(2, IndexSet.of(2, []))
        with pytest.raises(ValueError):
            M_of(4, IndexSet.full(4))

    def test_conjecture_rhs_domain(self):
        with pytest.raises(ValueError):
            conjecture_rhs(4, 3, with_one=False)
        with pytest.raises(ValueError):
            conjecture_rhs(6, 2, with_one=False)
        assert conjecture_rhs(5, 3, with_one=False) is not None
        assert conjecture_rhs(5, 3, with_one=True) is not None

    def test_conjecture_set(self):
        assert conjecture_set(6, 4, with_one=False).members() == (0, 4)
        assert conjecture_set(6, 4, with_one=True).members() == (0, 1, 4)
