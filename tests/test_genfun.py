"""Generating functions: brute enumeration, closed forms, and budgets."""

import functools
import hashlib
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddlen import genfun, rootsys, sweep
from oddlen.genfun import (
    BUDGET,
    BudgetError,
    M_of,
    closed_A,
    closed_B,
    closed_D,
    closed_factors,
    closed_poly,
    conjecture_rhs,
    conjecture_set,
    resolve_workers,
)
from oddlen.sweep import (
    FLOATS,
    KEYS,
    SHARED_PERMS,
    DescentTable,
    _build_plan,
    _partner_table,
    _swept_form,
    _swept_prefixes,
    _sweep_range,
    _unit_plan,
    _units,
    _w0_row,
    brute_filtered,
    brute_quotient,
    brute_table,
    perm_blocks,
    perm_table,
    pinned_table,
    pinned_tables,
    scalar_table,
    sweep_plan,
)
from oddlen.indexset import IndexSet, components, half_sizes, m_of, tilde
from oddlen.rootsys import odd_root_count
from oddlen.sperm import (
    SignedPerm,
    descent_set,
    ell_and_odd,
    elements,
    in_quotient,
    label_mask,
)
from oddlen.zpoly import ONE, ZERO, IntPoly, alt_product, cyclotomic_factors
from test_zpoly import reference_alt_product, reference_q_multinomial


def quotient_elements(family, n, I):
    return (s for s in elements(family, n) if in_quotient(s, I, family))


# Every rank the unmirrored read covers; TestSweepKernel.GOLDEN covers A10,
# A11, B8, B9 and D9.
MIRROR_RANKS = [(f, n) for f, top in (("A", 9), ("B", 7), ("D", 8)) for n in range(1, top + 1)]
# Uneven ranges split the swept blocks: A10 sweeps 25 of its 90, and B7
# and D7 all 6 of the positions besides +-1.
SPLIT_RANKS = [("A", 10), ("B", 7), ("D", 7)]
# Every B and D rank the quarter units sweep, to the first ranks past BUDGET.
QUARTER_RANKS = [(f, n) for f, top in (("B", 9), ("D", 10)) for n in range(3, top + 1)]
# Ranks past BUDGET where a block's keys must still fit the key buffer.
KEY_BOUND_RANKS = [("A", 11), ("A", 12), ("B", 9), ("B", 10), ("D", 9), ("D", 10)]


@functools.cache
def unmirrored_counts(family, n):
    """Every (row x mask) element of the group read through SweepPlan.table:
    no prefix blocks and no mirror."""
    return sweep_plan(family, n).table(perm_table(n)).counts


@functools.cache
def w0_half(family, n):
    """The counts of one element of each w0 pair, read through SweepPlan.tabulate
    with no sweep: the rows below their complements in A, the sign masks
    with bit n-1 clear in B and D."""
    plan = sweep_plan(family, n)
    rows = perm_table(n)
    if family == "A":
        d = 2 * rows.astype(np.int64) - (n - 1)
        keep = (d[np.arange(len(rows)), (d != 0).argmax(axis=1)] < 0)[:, None]
    else:
        keep = (plan.masks >> (n - 1) & 1) == 0
    return plan.tabulate(plan.keys(rows), keep).counts


# Planted row faults: each undoes one part of a CountMap row.
def _no_label_swap(row):
    return row._replace(labels=tuple(sorted(row.labels)))


def _no_parity_flip(row):
    return row._replace(flip=False)


def _unreversed_odd_length(row):
    return row._replace(odd=0)


def quarter_tiling(family, n):
    """Whether, for every position j of +-1, the units' sign masks, their
    tau (B) or sigma (D) partners and the w0 partners of both cover each
    sign mask of the group once."""
    plan = _build_plan(family, n)
    full = (1 << n) - 1
    w0 = full if family == "B" or n % 2 == 0 else full - 1
    seen = Counter()
    for _, j, cols in _units(plan):
        masks = plan.masks[cols]
        if family == "B":
            masks = np.concatenate([masks, masks ^ 1 << j])
        elif j:
            masks = np.concatenate([masks, masks ^ (1 | 1 << j)])
        seen.update((j, m) for m in np.concatenate([masks, masks ^ w0]).tolist())
    return seen == Counter((j, m) for j in range(n) for m in plan.masks.tolist())


def a_quarter_tiling(n):
    """Whether the swept pairs (a, b) = (P[0], P[n-1]) of A_n, the delta
    partners (n-1-b, n-1-a) of class 1 and the w0 partners (n-1-a, n-1-b)
    of both cover every pair once.  Each map carries the rows of a pair onto
    those of its image, so the swept rows and their partners then tile S_n."""
    seen = Counter()
    for (a, b), cls in _swept_prefixes("A", n, 2):
        pairs = [(a, b), (n - 1 - b, n - 1 - a)] if cls else [(a, b)]
        seen.update(pairs + [(n - 1 - x, n - 1 - y) for x, y in pairs])
    return seen == Counter(permutations(range(n), 2))


# Planted sweep faults, each wrapping the sweep function its test names.
def _no_tau_shift(partner_table, family, n):
    # tau's +1 on the odd length undone where +-1 sits at an odd position
    # counted from 1 (the other rows shift nothing)
    return [(units, tuple(row._replace(odd=0) for row in rows))
            for units, rows in partner_table(family, n)]


def _sigma_at_j_0(partner_table, family, n):
    # sigma fixes the j = 0 elements, so adding its image counts them twice
    table = list(partner_table(family, n))
    if family == "D":
        table[0] = (table[0][0], table[1][1])
    return table


def _no_label_reversal(partner_table, family, n):
    # delta's partners counted under the descent masks of the swept elements
    table = list(partner_table(family, n))
    if family == "A":
        table[1] = ((), tuple(_no_label_swap(row) for row in table[1][1]))
    return table


def _spare_bit_at_j(partner_table, family, n):
    # the spare bit k, which w0 alone toggles, moved onto j
    return [(tuple((j, clear & ~(1 << n - 1 - (j == n - 1)) | 1 << j) for j, clear in units), rows)
            for units, rows in partner_table(family, n)]


def _delta_on_class_0(swept_prefixes, family, m, p):
    # delta maps the blocks with a + b = n - 1 onto themselves, so adding
    # their images counts them twice
    return ((x, 1 if family == "A" else cls) for x, cls in swept_prefixes(family, m, p))


def _no_turned_parity_flip(swept_form, family, n):
    # the parity flip of the n - 2 pairs (k, n-1) that A's position order
    # turns, undone
    form = swept_form(family, n)
    return form._replace(flips=form.flips ^ ((n - 2) & 1)) if family == "A" else form


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
        # The default worker count and a three-way split reach the same table.
        for family, n in SPLIT_RANKS:
            single = brute_table(family, n, workers=1)
            assert np.array_equal(brute_table(family, n).counts, single.counts)
            assert np.array_equal(brute_table(family, n, workers=3).counts, single.counts)

    @pytest.mark.parametrize("family, n", SPLIT_RANKS)
    def test_worker_split_on_uneven_block_counts(self, family, n):
        # The first worker count that does not divide the swept blocks.
        plan = _build_plan(family, n)
        nswept = _swept_form(family, n).blocks
        workers = next(w for w in range(2, nswept) if nswept % w)
        bounds = [nswept * k // workers for k in range(workers + 1)]
        parts = sum(_sweep_range(plan, a, b) for a, b in zip(bounds, bounds[1:]))
        assert np.array_equal(parts, _sweep_range(plan, 0, nswept))
        single = brute_table(family, n, workers=1)
        assert np.array_equal(brute_table(family, n, workers=workers).counts, single.counts)

    def test_buckets_sum_to_the_group_poly(self):
        t = brute_table("B", 3)
        assert t.counts.dtype == np.int64
        assert t.counts.shape == (8, 2, odd_root_count("B", 3) + 1)
        total = ZERO
        for mask in range(8):
            total = total + t.bucket(mask)
        assert total == t.group_poly()
        assert t.bucket(0b111) == IntPoly.monomial(-1, 6)  # the longest element alone

    @pytest.mark.parametrize("family, n", MIRROR_RANKS)
    def test_plan_table_over_every_row_matches_the_sweep(self, family, n):
        # The half sweep plus its mirror against a read sharing no mirror code.
        assert np.array_equal(unmirrored_counts(family, n), brute_table(family, n).counts)

    @pytest.mark.parametrize(
        "fault, failing",
        [
            pytest.param(_no_label_swap, ["D3", "D5", "D7"], id="no-label-swap"),
            pytest.param(_no_parity_flip, ["A2", "A3", "A6", "A7", "B3", "B5", "B7"],
                         id="no-parity-flip"),
            pytest.param(_unreversed_odd_length,
                         [f"A{n}" for n in range(2, 10)] + [f"B{n}" for n in range(2, 8)]
                         + [f"D{n}" for n in range(2, 9)],
                         id="unreversed-odd-length"),
        ],
    )
    def test_planted_mirror_faults_fail(self, fault, failing):
        # The w0 row maps a half read with no sweep onto the other half.  The
        # sweep's own half cannot show the label swap: in D its units add
        # their sigma partners, and sigma swaps labels 0 and 1.  The rank-1
        # groups have no pairs to map.
        broken = [f"{f}{n}" for f, n in MIRROR_RANKS if n > 1
                  and not np.array_equal(w0_half(f, n) + fault(_w0_row(f, n)).image(w0_half(f, n)),
                                         unmirrored_counts(f, n))]
        assert broken == failing

    @pytest.mark.parametrize(
        "target, fault, failing",
        [
            pytest.param("_partner_table", _no_tau_shift, [f"B{n}" for n in range(3, 8)],
                         id="no-tau-shift"),
            pytest.param("_partner_table", _sigma_at_j_0, [f"D{n}" for n in range(3, 9)],
                         id="sigma-at-j-0"),
            pytest.param("_partner_table", _no_label_reversal, [f"A{n}" for n in range(3, 10)],
                         id="no-label-reversal"),
            pytest.param("_swept_prefixes", _delta_on_class_0, [f"A{n}" for n in range(3, 10)],
                         id="delta-on-class-0"),
            pytest.param("_swept_form", _no_turned_parity_flip, ["A3", "A5", "A7", "A9"],
                         id="no-turned-parity-flip"),
        ],
    )
    def test_planted_partner_faults_fail(self, monkeypatch, target, fault, failing):
        monkeypatch.setattr(sweep, target, functools.partial(fault, getattr(sweep, target)))
        broken = [f"{f}{n}" for f, n in MIRROR_RANKS
                  if not np.array_equal(brute_table(f, n).counts, unmirrored_counts(f, n))]
        assert broken == failing

    def test_budget(self):
        with pytest.raises(BudgetError):
            brute_table("D", BUDGET["D"] + 1)
        with pytest.raises(BudgetError):
            brute_quotient("A", BUDGET["A"] + 1, IndexSet.of(BUDGET["A"] + 1, []))

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(5) == 5
        with pytest.raises(ValueError):
            resolve_workers(0)


# The map of the group each row stands for, on ranks where a pool of 100
# elements is a small part of the group: w0 at even and odd length(w0) and,
# in D, odd n; tau at every position j of +-1 in B5; sigma and delta twice.
ROW_CASES = ([("w0", f, n, None) for f, n in (("A", 5), ("A", 6), ("B", 4), ("B", 5),
                                               ("D", 4), ("D", 5))]
             + [("tau", "B", 5, j) for j in range(5)]
             + [("sigma", "D", n, None) for n in (5, 6)]
             + [("delta", "A", n, None) for n in (5, 6)])


def row_mismatch(kind, family, n, j, fault=lambda row: row):
    """Whether a row's image of a pool's scalar table differs from the
    scalar table of the pool mapped by the group operation the row stands
    for, written with sperm's compose: w0 w in A and w w0 in B and D, w0
    found as the longest element; tau w = s0 w on the elements of B with
    +1 at position j (0-based), which the sweep's units of j count; sigma,
    conjugation by diag(-1, 1, ..., 1); delta w = w0 w w0, read by descent
    mask >> 1.  Nothing here is the sweep's."""
    group = list(elements(family, n))
    pool = random.Random(f"{kind}{family}{n}").sample(group, 100)
    s0 = SignedPerm((-1, *range(2, n + 1)))
    read = (lambda counts: counts[::2]) if kind == "delta" else (lambda counts: counts)
    if kind == "w0":
        w0 = max(group, key=lambda w: ell_and_odd(w, family)[0])
        row, act = _w0_row(family, n), (lambda w: w0 * w) if family == "A" else (lambda w: w * w0)
    elif kind == "tau":
        (row,) = next(rows for units, rows in _partner_table(family, n) if j in dict(units))
        pool, act = [w for w in group if w(j + 1) == 1], lambda w: s0 * w
    else:
        (row,) = [row for _, rows in _partner_table(family, n) for row in rows]
        w0 = SignedPerm(tuple(range(n, 0, -1)))
        act = (lambda w: s0 * w * s0) if kind == "sigma" else lambda w: w0 * w * w0
    got = fault(row).image(read(scalar_table(family, n, pool).counts))
    return not np.array_equal(got, read(scalar_table(family, n, map(act, pool)).counts))


class TestCountMapRows:
    """Every partner and w0 row against the group operation it stands for,
    on tables that scalar_table counts one element at a time."""

    @pytest.mark.parametrize("kind, family, n, j", ROW_CASES)
    def test_row_maps_the_scalar_table_of_a_pool(self, kind, family, n, j):
        assert not row_mismatch(kind, family, n, j)

    @pytest.mark.parametrize(
        "kind, family, n, j, fault",
        [
            pytest.param("w0", "D", 5, None, _no_label_swap, id="w0-no-label-swap"),
            pytest.param("w0", "B", 5, None, _no_parity_flip, id="w0-no-parity-flip"),
            pytest.param("w0", "A", 6, None, _unreversed_odd_length, id="w0-unreversed-odd"),
            pytest.param("tau", "B", 5, 2, lambda row: row._replace(odd=0), id="tau-no-shift"),
            pytest.param("tau", "B", 5, 3, lambda row: row._replace(odd=1), id="tau-odd-j-shift"),
            pytest.param("tau", "B", 5, 0, lambda row: row._replace(toggle=0), id="tau-no-toggle"),
            pytest.param("sigma", "D", 6, None, _no_label_swap, id="sigma-no-label-swap"),
            pytest.param("delta", "A", 6, None, _no_label_swap, id="delta-no-label-reversal"),
        ],
    )
    def test_a_planted_wrong_row_fails(self, kind, family, n, j, fault):
        assert row_mismatch(kind, family, n, j, fault)


def signed_subset_sum(table, mask):
    """The quotient read written out: the signed counts of every descent
    mask inside mask, summed."""
    inside = (np.arange(1 << table.n) & ~mask) == 0
    counts = table.counts[inside].sum(axis=0)
    return counts[0] - counts[1]



class TestQuotientReads:
    """quotient_poly builds its polynomial from the zeta row, trimmed once
    with the transform, without IntPoly's per-read conversion."""

    @pytest.mark.parametrize("family, n", MIRROR_RANKS)
    def test_every_read_equals_the_converted_zeta_row(self, family, n):
        table = brute_table(family, n)
        labels = label_mask(family, n)
        for I in subsets(family, n):
            got = table.quotient_poly(I)
            assert got == IntPoly(signed_subset_sum(table, labels & ~I.mask).tolist()), I
            assert type(got.coeffs) is tuple
            assert all(type(c) is int for c in got.coeffs), I

    def test_an_empty_bucket_reads_zero(self):
        table = pinned_table("A", 3, (2, -3))
        assert not table.counts.any()
        for I in subsets("A", 3):
            assert table.quotient_poly(I) == ZERO
            assert table.quotient_poly(I).coeffs == ()
        table = DescentTable("D", 4, np.zeros((16, 2, 9), dtype=np.int64))
        assert table.quotient_poly(IndexSet.of(4, [0, 2])).is_zero

    def test_bad_index_sets_still_raise(self):
        table = brute_table("A", 4)
        table.quotient_poly(IndexSet.of(4, [1]))  # the transform is cached
        with pytest.raises(ValueError, match="rank does not match"):
            table.quotient_poly(IndexSet.of(5, [1]))
        with pytest.raises(ValueError, match="labels outside"):
            table.quotient_poly(IndexSet.of(4, [0]))
        with pytest.raises(ValueError, match="labels outside"):
            brute_table("D", 1).quotient_poly(IndexSet.of(1, [0]))


def _table_digest(table):
    # One line per descent mask that holds at least one element.
    present = [m for m in range(1 << table.n) if table.counts[m].any()]
    text = "".join(f"{m}:{','.join(map(str, table.bucket(m).coeffs))}\n" for m in present)
    return hashlib.sha256(text.encode()).hexdigest()


class TestSweepKernel:
    # SHA-256 of the A10, B8 and D8 tables, as produced by the tuple-based
    # kernel the block kernel replaced; of B9 and D9 as produced both by
    # the half sweep the quarter units replaced and by SweepPlan.table over
    # perm_table(9) in chunks of 2,048 rows; of A11 as produced both by the
    # quarter sweep and by SweepPlan.table over perm_table(11) in chunks of
    # the 8! rows under each first three entries.
    GOLDEN = {
        ("A", 10): "27ad339025c91abc5125c2d67c42cb7c2db8da3fd522f3cdddefc9477b4f1cee",
        ("A", 11): "11c1c4eaea26063be7c87ca23a851458d8cadccf92c09191baf0c1b634f40943",
        ("B", 8): "e67680e3566bc4986692f68e60c4a3c8c03259936ed3328225da2a36ccce5538",
        ("D", 8): "ec21e7eaad312dc9867ac0b35775c34b25cd5f453b5059f00623637e2567cd78",
        ("B", 9): "d07c3534cc572e0627aee96a9c0eb61b0a9ce73d81c857ceece0eabc9d3da3b5",
        ("D", 9): "268e1b27dbe9e3d49fdcb0e5688fa1f22b34de92f96e03302397234cecfe381f",
    }

    @pytest.mark.parametrize("family, n", list(GOLDEN))
    def test_golden_table_digest(self, monkeypatch, family, n):
        monkeypatch.setitem(genfun.BUDGET, family, max(n, BUDGET[family]))
        assert _table_digest(brute_table(family, n, workers=1)) == self.GOLDEN[(family, n)]

    def test_every_plan_within_budget_builds(self):
        # _build_plan raises if a float32 sum could reach 2**24.
        for family, top in BUDGET.items():
            for n in range(1, top + 1):
                plan = _build_plan(family, n)
                nmasks = plan.masks.shape[0]
                assert plan.weights.shape == (n * (n - 1) // 2, nmasks)
                assert plan.const.shape == plan.parity.shape == (nmasks,)
                assert plan.width == odd_root_count(family, n) + 1

    @pytest.mark.parametrize("family, n", [("A", 14), ("D", 12)])
    def test_plans_past_the_budget_build_under_the_float32_bound(self, family, n):
        # The chessboard ranks past BUDGET: the plan is one (pairs, masks)
        # matrix, with no table indexed by descent words, and its reads
        # still match the scalar statistics.
        plan = _build_plan(family, n)
        assert plan.weights.shape == (n * (n - 1) // 2, len(plan.masks))
        worst = np.abs(plan.weights).sum(axis=0, dtype=np.float64) + np.abs(plan.const)
        assert (worst + plan.width).max() < 1 << 24
        assert plan.width == odd_root_count(family, n) + 1
        rng = np.random.default_rng(n)
        for mask in rng.choice(plan.masks, 8).tolist():
            rows = np.array([rng.permutation(n) for _ in range(16)])
            got = np.stack(plan.stats(rows, mask), axis=1)
            for row, read in zip(rows.tolist(), got.tolist()):
                sigma = SignedPerm(tuple(-(v + 1) if mask >> i & 1 else v + 1
                                         for i, v in enumerate(row)))
                ell, odd = ell_and_odd(sigma, family)
                assert read == [descent_set(sigma, family).mask, ell & 1, odd], sigma

    def test_suffix_blocks(self):
        # (columns, suffix length, blocks swept, positions with a term
        # table) of every group within BUDGET and one past it.  A sweeps
        # floor(n^2 / 4) pairs (a, b) times the orders of the prefix
        # positions past them; B8's 8 units of 64 sign masks and D8's 7 of
        # 32 and one of 64 (j = 0) sweep 7 blocks each.  To A10, B8 and D8
        # every position after the first is tabled: one of A's two prefix
        # positions and none of B's and D's one.  Past them the key buffer
        # shortens B's and D10's suffixes.
        want = {
            "A": [(1, 1, 2, 1), (1, 2, 4, 1), (1, 3, 6, 1), (1, 4, 9, 1), (1, 5, 12, 1),
                  (1, 6, 16, 1), (1, 7, 20, 1), (1, 8, 25, 1), (1, 8, 270, 2), (1, 8, 3240, 3)],
            "B": [(6, 1, 2, 0), (16, 2, 3, 0), (40, 3, 4, 0), (96, 4, 5, 0), (224, 5, 6, 0),
                  (512, 6, 7, 0), (1152, 5, 336, 2), (2560, 5, 3024, 1)],
            "D": [(4, 1, 2, 0), (10, 2, 3, 0), (24, 3, 4, 0), (56, 4, 5, 0), (128, 5, 6, 0),
                  (288, 6, 7, 0), (640, 6, 56, 0), (1408, 5, 3024, 2)],
        }
        for family, rows in want.items():
            assert len(rows) == BUDGET[family] - 1  # ranks 3 to one past the budget
            for n, layout in enumerate(rows, start=3):
                form = _swept_form(family, n)
                ncols, s = len(form.const), form.suffix
                assert (ncols, s, form.blocks, form.tables) == layout, (family, n)
                assert form.tables * (s + 1) * ncols * factorial(s) <= FLOATS
                assert ncols * factorial(s) <= KEYS and s <= SHARED_PERMS

    @pytest.mark.parametrize("family, n", KEY_BOUND_RANKS)
    def test_a_block_fits_the_key_buffer(self, family, n):
        # The suffix length keeps one block's keys within KEYS, so the
        # buffer holds whole blocks and is bounded by it.
        form = _swept_form(family, n)
        assert len(form.const) * factorial(form.suffix) <= KEYS

    @pytest.mark.parametrize("family, n", QUARTER_RANKS)
    def test_quarter_units_tile_the_group(self, family, n):
        assert quarter_tiling(family, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_quarter_tiles_the_group(self, n):
        assert a_quarter_tiling(n)

    def test_a_spare_bit_equal_to_j_breaks_the_tiling(self, monkeypatch):
        monkeypatch.setattr(sweep, "_partner_table",
                            functools.partial(_spare_bit_at_j, _partner_table))
        assert [f"{f}{n}" for f, n in QUARTER_RANKS if quarter_tiling(f, n)] == []

    @pytest.mark.parametrize("family, n", QUARTER_RANKS)
    def test_unit_plans_stay_within_the_plan_bound(self, family, n):
        # Each unit's form is a subset of the plan's rows plus a folded
        # constant, so _build_plan's float32 assert bounds it too; the
        # swept form, their columns side by side with class offsets, is
        # checked as it is built.
        plan = _build_plan(family, n)
        for _, j, cols in _units(plan):
            weights, const, flips = _unit_plan(plan, j, cols)
            assert weights.shape == ((n - 1) * (n - 2) // 2, len(cols))
            worst = np.abs(weights).sum(axis=0, dtype=np.float64) + np.abs(const)
            bound = np.abs(plan.weights[:, cols]).sum(axis=0, dtype=np.float64)
            assert (worst <= bound + np.abs(plan.const[cols])).all()
        form = _swept_form(family, n)
        worst = np.abs(form.weights).sum(axis=0, dtype=np.float64) + np.abs(form.const)
        assert (worst + plan.width).max() < 1 << 24
        assert form.classes == (3 if family == "B" else 2)
        assert not form.weights.flags.writeable

    @pytest.mark.parametrize("family, top", [("A", 10), ("B", 8), ("D", 8)])
    def test_keys_binned_per_call(self, monkeypatch, family, top):
        # A sweeps floor(n^2 / 4) (n-2)!, about a quarter (A2, read whole,
        # one of its two elements); B n! 2^(n-2), a quarter; D
        # (n-1)! 2^(n-3) (n+1), 2 (n+1) / (4 n) of the group's n! 2^(n-1).
        # Without the delta, tau and sigma partners, the table holds the
        # swept keys and their w0 partners.
        swept = {"A": lambda n: n * n // 4 * factorial(n - 2),
                 "B": lambda n: factorial(n) << (n - 2),
                 "D": lambda n: (factorial(n - 1) << (n - 3)) * (n + 1)}[family]
        monkeypatch.setattr(sweep, "_partner_table", lambda family, n: [
            (units, ()) for units, _ in _partner_table(family, n)])
        for n in range(2 if family == "A" else 3, top + 1):
            assert brute_table(family, n, workers=1).counts.sum() == 2 * swept(n), (family, n)

    @pytest.mark.parametrize("n", range(2, BUDGET["A"] + 1))
    def test_a_swept_prefixes_complement_to_the_unswept_blocks(self, n):
        # w0 complements values, so the blocks of the swept prefixes' w0
        # partners are never swept.  With u = a + b - (n-1) and v = a - b on
        # the prefix's first two entries, the swept blocks have u >= 0 and
        # v > 0, and their partners u <= 0 and v < 0; the blocks left, with
        # u v < 0, are delta's images of class 1 and their complements.
        form = _swept_form("A", n)
        s, nswept = form.suffix, form.blocks
        prefixes = set(permutations(range(n), n - s))
        swept = [x for x, _ in _swept_prefixes("A", n, n - s)]
        assert len(swept) == nswept
        partners = {tuple(n - 1 - v for v in x) for x in swept}
        assert not partners & set(swept)
        rest = prefixes - partners - set(swept)
        assert rest == {x for x in prefixes if (x[0] + x[1] - (n - 1)) * (x[0] - x[1]) < 0}

    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    def test_perm_table_is_lexicographic(self, s):
        table = perm_table(s)
        assert table.dtype == np.int8
        assert [tuple(row) for row in table] == list(permutations(range(s)))

    def test_small_tables_are_built_once_and_read_only(self):
        # A verify run reads perm_table about 70 times, at no more than 8
        # entries: those tables are built once, and no reader can write to
        # the shared copy.  A larger table is built per call.
        for s in (0, 3, SHARED_PERMS, SHARED_PERMS + 1):
            table = perm_table(s)
            assert not table.flags.writeable
            assert (perm_table(s) is table) == (s <= SHARED_PERMS), s

    @pytest.mark.parametrize("n", range(1, 10))
    def test_perm_blocks_concatenate_to_the_table(self, n):
        # Bounds below 2!, between factorials, at n! and past it.  A bound
        # of one row makes n! blocks, so it stops at n = 6.
        for rows in (1, 23, 721, factorial(n), factorial(n) + 1)[n > 6:]:
            blocks = list(perm_blocks(n, rows))
            assert all(0 < len(block) <= rows for block in blocks), rows
            assert np.array_equal(np.concatenate(blocks), perm_table(n)), rows

    @pytest.mark.parametrize("n", range(1, 12))
    def test_perm_blocks_read_only_shared_tables(self, monkeypatch, n):
        # A suffix past SHARED_PERMS would build an unshared table of up to
        # 11! rows.  A call reads one suffix table before its first block,
        # so the probe stops it there, and no block is built.
        class Read(Exception):
            pass

        def probe(s):
            raise Read(s)

        monkeypatch.setattr(sweep, "perm_table", probe)
        bounds = {0, 1, *(factorial(k) + d for k in range(2, n + 1) for d in (-1, 0, 1))}
        for rows in sorted(bounds):
            with pytest.raises(Read) as read:
                next(perm_blocks(n, rows))
            s = read.value.args[0]
            assert s == max(k for k in range(1, min(n, SHARED_PERMS) + 1)
                            if factorial(k) <= max(rows, 1)), rows

    def test_prefix_blocks_sum_to_the_whole_sweep(self):
        # A9 sweeps 20 of its 72 two-position prefix blocks, the (a, b) with
        # a > b and a + b >= 8: 4 of class 0 and 16 of class 1, which also
        # count their delta partners.  That is a w0 half.
        plan, form = _build_plan("A", 9), _swept_form("A", 9)
        assert (len(form.const), form.suffix, form.blocks) == (1, 7, 20)
        classes = Counter(cls for _, cls in _swept_prefixes("A", 9, 2))
        assert classes == {0: 4, 1: 16}
        parts = _sweep_range(plan, 0, 7) + _sweep_range(plan, 7, 20)
        assert np.array_equal(parts, _sweep_range(plan, 0, 20))
        assert parts.sum() == (4 + 2 * 16) * factorial(7) == factorial(9) // 2
        assert np.array_equal(parts + _w0_row("A", 9).image(parts), unmirrored_counts("A", 9))

    def test_a_range_may_start_inside_a_run_of_equal_first_ranks(self):
        # Swept blocks 5 and 6 of A10 are the prefixes (7, 3) and (7, 4):
        # one position-0 rank, one order and one class, so the range
        # starting at 6 must build the product the range ending there had
        # already built.  Block 4, (7, 2), is of class 0 and block 5 of
        # class 1, so the range starting at 5 must build its product with
        # class 1's offset.
        plan = _build_plan("A", 10)
        prefixes = list(_swept_prefixes("A", 10, 2))
        assert prefixes[4:7] == [((7, 2), 0), ((7, 3), 1), ((7, 4), 1)]
        whole = _sweep_range(plan, 0, 25)
        for cut in (5, 6):
            assert np.array_equal(_sweep_range(plan, 0, cut) + _sweep_range(plan, cut, 25), whole)

    @pytest.mark.parametrize("blocks", [1, 7])
    def test_key_buffer_bound_does_not_change_the_counts(self, monkeypatch, blocks):
        # One A10 block is 8! keys; 7 blocks do not divide its 25.
        want = brute_table("A", 10, workers=1).counts
        monkeypatch.setattr(sweep, "KEYS", blocks * factorial(8))
        assert np.array_equal(brute_table("A", 10, workers=1).counts, want)

    @pytest.mark.parametrize("family, n, limit_mb", [("A", 10, 14), ("B", 8, 9.5), ("D", 8, 7)])
    def test_one_table_call_stays_small(self, family, n, limit_mb):
        # A call's work arrays are one allocation bounded by FLOATS and KEYS;
        # a per-block (ranks, positions, rows) step tensor peaks at 16.3 MB on A10.
        # B8 and D8 peak at 8.1 and 6.1 MB; the bounds leave about 1 MB more.
        sweep_plan(family, n)  # the cached plan is not the call's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            brute_table(family, n, workers=1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20, f"{family}{n} peaked at {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize(
        "family, n",
        [
            pytest.param(family, n, id=f"{n}-{family}")
            for family, top in (("A", 6), ("B", 4), ("D", 5))
            for n in range(1, top + 1)
        ],
    )
    def test_edge_ranks_match_scalar_enumeration(self, family, n):
        # n=1 is read whole, and so are B2 and D2; A2, and the units of B3
        # and D3, split into one prefix and one suffix position.
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
        """The sweep plan's per-element read against scalar descent_set and
        ell_and_odd: its length parity comes from the sign character."""
        family, sigma = drawn
        row = np.array([[abs(v) - 1 for v in sigma.images]])
        got = sweep_plan(family, sigma.n).stats(row, sigma.sign_mask)
        ell, odd = ell_and_odd(sigma, family)
        assert tuple(int(x[0]) for x in got) == (descent_set(sigma, family).mask, ell & 1, odd)

    def test_stats_rejects_masks_outside_the_group(self):
        rows = perm_table(3)
        with pytest.raises(ValueError):
            sweep_plan("A", 3).stats(rows, 1)
        with pytest.raises(ValueError):
            sweep_plan("D", 3).stats(rows, 0b100)

    def test_sweep_plan_respects_the_budget(self):
        with pytest.raises(BudgetError):
            sweep_plan("D", BUDGET["D"] + 1)

    def test_plans_are_built_once_and_read_only(self):
        plan = sweep_plan("D", 4)
        assert sweep_plan("D", 4) is plan
        for array in (plan.masks, plan.weights, plan.const, plan.parity):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(FrozenInstanceError):
            plan.width = 1

    def test_the_budget_holds_after_a_cached_build(self):
        _build_plan("D", BUDGET["D"] + 1)
        with pytest.raises(BudgetError):
            sweep_plan("D", BUDGET["D"] + 1)
        with pytest.raises(BudgetError):
            brute_table("D", BUDGET["D"] + 1)


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


def _closed_digest():
    # One line per index set of A, B and D at n = 1..12: "<family><n> <mask> <polynomial>".
    h = hashlib.sha256()
    for family in "ABD":
        for n in range(1, 13):
            for I in subsets(family, n):
                h.update(f"{family}{n} {I.mask} {closed_poly(family, n, I)}\n".encode())
    return h.hexdigest()


class TestClosedFormMemo:
    """closed_A/B/D check every call, then read a core cached on the signature."""

    # SHA-256 of every closed form of A, B and D at n = 1..12, as computed
    # set by set before the closed forms were keyed by signature.
    CLOSED_SHA256 = "fe2ef8bdef8b52c5c822d5a58ab978651762602a7fca93b479e60fd2b7461ef4"

    def test_every_index_set_up_to_rank_12_digest(self):
        assert _closed_digest() == self.CLOSED_SHA256

    @pytest.mark.parametrize("family, n, cached, bad, match", [
        ("A", 8, [2], IndexSet.of(8, [0]), "labels outside"),
        ("A", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("B", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("D", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("D", 8, [0, 1, 3], IndexSet.of(9, [0, 1, 5]), "rank mismatch"),
    ])
    def test_a_cached_key_never_skips_validation(self, family, n, cached, bad, match):
        # bad has the signature of the cached set, so only the check stops it.
        closed_poly(family, n, IndexSet.of(n, cached))
        with pytest.raises(ValueError, match=match):
            closed_poly(family, n, bad)

    @pytest.mark.parametrize("a, b", [([2], [5]), ([0, 4], [0, 6]), ([0, 1, 3], [0, 1, 5])])
    def test_equal_keys_share_one_polynomial(self, a, b):
        I, J = IndexSet.of(8, a), IndexSet.of(8, b)
        assert closed_D(8, I) is closed_D(8, J)
        assert closed_D(8, J) == reference_closed("D", 8, J)

    def test_the_d_full_set_builds_no_key(self):
        before = genfun._closed_D.cache_info()
        assert closed_D(8, IndexSet.full(8)) is ONE
        assert closed_D(1, IndexSet.of(1, [])) is ONE
        after = genfun._closed_D.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def _key_mismatches(family, top):
    """(n, I) where closed_key differs from the signature built from
    components, half_sizes and tilde written out, over every index set of
    family at n = 1..top: the scalar oracle for any faster signature."""
    bad = []
    for n in range(1, top + 1):
        for I in subsets(family, n):
            decomp = components(I)
            if family == "A":
                want = (n, half_sizes(decomp.all_sizes))
            elif family == "B":
                want = (n, decomp.zero_size, half_sizes(decomp.other_sizes))
            elif I.mask == label_mask("D", n):
                want = None
            else:
                twisted = I.remove(0).add(1) if 0 in I else I
                want = (n, decomp.zero_size, half_sizes(components(twisted).all_sizes))
            if genfun.closed_key(family, n, I) != want:
                bad.append((n, I))
    return bad


class TestSignatureScan:
    """closed_key reads the signature from run_halves scans of the mask."""

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_matches_the_component_formula_up_to_rank_14(self, family):
        assert _key_mismatches(family, 14) == []

    def test_a_key_without_the_tilde_fold_is_caught(self, monkeypatch):
        # The planted fault: D reads the runs of I, not of tilde(I).
        monkeypatch.setattr(genfun, "tilde_mask", lambda mask: mask)
        bad = _key_mismatches("D", 8)
        assert bad and all(0 in I for _, I in bad)


def _verdict_mismatches(family, top=10):
    """(n, I) where the memoised verdict differs from deciding the closed
    form set by set, over every index set of family at n = 1..top."""
    return [(n, I) for n in range(1, top + 1) for I in subsets(family, n)
            if closed_factors(family, n, I) != _tuple_or_none(cyclotomic_factors(
                closed_poly(family, n, I)))]


def _tuple_or_none(factors):
    return None if factors is None else tuple(factors)


class TestSignatureVerdict:
    """closed_factors decides each signature's closed form once."""

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_matches_the_per_set_verdict_up_to_rank_10(self, family):
        assert _verdict_mismatches(family) == []

    def test_a_memo_keyed_without_the_zero_run_is_caught(self, monkeypatch):
        # The planted fault: D verdicts shared across zero-run sizes.
        decide, shared = genfun._closed_factors.__wrapped__, {}

        def without_zero(family, key):
            return shared.setdefault((family, key[0], key[2]), decide(family, key))

        monkeypatch.setattr(genfun, "_closed_factors", without_zero)
        assert _verdict_mismatches("D")

    @pytest.mark.parametrize("family, n, cached, bad, match", [
        ("A", 8, [2], IndexSet.of(8, [0]), "labels outside"),
        ("A", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("B", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("D", 8, [2], IndexSet.of(9, [2]), "rank mismatch"),
        ("D", 8, [0, 1, 3], IndexSet.of(9, [0, 1, 5]), "rank mismatch"),
    ])
    def test_a_cached_key_never_skips_validation(self, family, n, cached, bad, match):
        closed_factors(family, n, IndexSet.of(n, cached))
        before = genfun._closed_factors.cache_info()
        closed_factors(family, n, IndexSet.of(n, cached))
        assert genfun._closed_factors.cache_info().hits == before.hits + 1
        with pytest.raises(ValueError, match=match):
            closed_factors(family, n, bad)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            closed_factors("C", 3, IndexSet.of(3, [1]))

    def test_the_d_full_set_builds_no_key(self):
        caches = (genfun._closed_factors, genfun._closed_D)
        before = [(c.cache_info().hits, c.cache_info().misses) for c in caches]
        assert closed_factors("D", 8, IndexSet.full(8)) == ()
        assert closed_factors("D", 1, IndexSet.of(1, [])) == ()
        assert [(c.cache_info().hits, c.cache_info().misses) for c in caches] == before


def reference_closed(family, n, I):
    """Oracle: the closed formulas built from IntPoly products and exact
    division, as they were written before exponent maps."""
    def C(J):
        parts = [(z + 1) // 2 for z in components(J).all_sizes]
        return reference_q_multinomial(sum(parts), parts, 2)

    def minus(d):
        return ONE - IntPoly.monomial(1, d)

    if family == "A":
        return C(I) * reference_alt_product(2 * m_of(I) + 2, n)
    decomp = components(I)
    zero = decomp.zero_size
    if family == "B":
        parts = [(z + 1) // 2 for z in decomp.other_sizes]
        m = sum(parts)
        out = reference_q_multinomial(m, parts, 2)
        for j in range(zero + 1, n + 1):
            out = out * minus(j)
        for i in range(1, m + 1):
            out = out.exact_div(minus(2 * i))
        return out
    if I.is_full:
        return ONE
    if I.is_empty:
        return reference_alt_product(2, n, square=True)
    m = m_of(I)
    head = ONE
    if zero >= 2 and zero % 2 == 0:
        head = ONE + IntPoly.monomial(1, zero)
        if n == 2 * m:
            head = head + IntPoly.monomial(2, m)
    twisted = tilde(I)
    out = head * (
        C(twisted)
        * reference_alt_product(2 * ((zero + 2) // 2), n)
        * reference_alt_product(2 * m_of(twisted) + 2, n)
    )
    if zero >= 2 and zero % 2 == 0 and n == 2 * m:
        out = out.exact_div(ONE + IntPoly.monomial(1, m))
    return out


class TestClosedFormsAgainstProducts:
    """closed_A/B/D expand one exponent map; reference_closed multiplies."""

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_every_index_set_up_to_rank_9(self, family):
        for n in range(1, 10):
            for I in subsets(family, n):
                assert closed_poly(family, n, I) == reference_closed(family, n, I), (n, I)

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_sampled_index_sets_up_to_rank_20(self, family):
        rng = random.Random(20)
        for n in range(10, 21):
            labels = label_mask(family, n)
            for _ in range(12):
                I = IndexSet(n, rng.getrandbits(n) & labels)
                assert closed_poly(family, n, I) == reference_closed(family, n, I), (n, I)

    def test_d_heads_with_an_even_zero_run(self):
        """Zero run z even >= 2: the trinomial head when n = 2m, else 1 + x^z."""
        rng = random.Random(2)
        seen = {"n = 2m": 0, "n > 2m": 0}
        for n in range(4, 21):
            for z in range(2, n, 2):
                for _ in range(6):
                    rest = rng.getrandbits(n) & ~((2 << z) - 1) & ((1 << n) - 1)
                    I = IndexSet(n, (1 << z) - 1 | rest)
                    if I.is_full:
                        continue
                    seen["n = 2m" if n == 2 * m_of(I) else "n > 2m"] += 1
                    assert closed_D(n, I) == reference_closed("D", n, I), (n, I)
        for n, members in [(18, [*range(16), 17]), (6, [0, 1, 3, 5]), (8, [0, 1, 3, 5, 7])]:
            I = IndexSet.of(n, members)
            assert n == 2 * m_of(I)
            assert closed_D(n, I) == reference_closed("D", n, I)
        assert min(seen.values()) > 20, seen


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

    @pytest.mark.parametrize("family, n", [("A", 4), ("B", 3), ("D", 4),
                                           ("A", 5), ("B", 4), ("D", 5)])
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

    @pytest.mark.parametrize("pin", [(1, 8), (3, 8), (8, -8)])
    def test_a_pinned_table_keys_only_its_sub_grid(self, pin):
        # One pin's read runs the per-rank pass and keeps its own table: 7!
        # rows under 64 of D8's 128 sign masks.  Keying all 8! rows under
        # every mask and filtering them for the one pin peaked at 60.5 MB.
        sweep_plan("D", 8)  # the cached plan is not the call's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = pinned_table("D", 8, pin)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert table.counts.sum() == factorial(7) * 64
        assert peak < 8 << 20, f"D8 {pin} peaked at {peak / 2**20:.2f} MB"

    def test_the_pinned_pass_keys_one_block_at_a_time(self):
        # One pass over perm_blocks bins D8's 16 pins: each 7! rows under 64
        # of its 128 sign masks, together the whole group.  About 2.1 MB of
        # counts and 2.5 MB of block temporaries; keying all 8! rows under
        # every mask for one pin peaked at 60.5 MB.
        sweep_plan("D", 8)  # the cached plan is not the pass's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tables = pinned_tables("D", 8)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sorted(tables) == sorted((b, v) for b in range(1, 9) for v in (8, -8))
        assert all(t.counts.sum() == factorial(7) * 64 for t in tables.values())
        # the pins partition the group: their tables add up to D8's
        assert np.array_equal(sum(t.counts for t in tables.values()), brute_table("D", 8).counts)
        assert peak < 6 << 20, f"D8 pinned pass peaked at {peak / 2**20:.2f} MB"

    def test_pinned_tables_do_not_depend_on_the_block_size(self, monkeypatch):
        want = pinned_tables("D", 6)
        monkeypatch.setattr(rootsys, "BLOCK", 100)  # blocks of two rows under 32 sign masks
        got = pinned_tables("D", 6)
        assert all(np.array_equal(got[pin].counts, want[pin].counts) for pin in want)


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
