"""Root-system construction and root-counting length statistics."""

from fractions import Fraction

import numpy as np
import pytest

from oddlen import rootsys
from oddlen.sweep import perm_table, sweep_plan
from oddlen.rootsys import (
    build_root_system,
    length_via_roots,
    odd_length_via_roots,
    odd_root_count,
    root_counts,
)
from oddlen.sperm import SignedPerm, descent_set, elements, ell, ell_and_odd, odd_length


def solve_height(simples, root):
    """Independent oracle for the closed-form heights: expand root over the
    simple roots by exact Gauss-Jordan elimination; the coefficients must
    be nonnegative integers, and their sum is the height."""
    n, k = len(root), len(simples)
    rows = [[Fraction(simples[j][i]) for j in range(k)] + [Fraction(root[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    coeffs = [Fraction(0)] * k
    for row_idx, c in enumerate(pivots):
        coeffs[c] = rows[row_idx][k]
    for i in range(r, n):
        if rows[i][k]:
            raise ValueError("root outside the span of the simple roots")
    total = 0
    for v in coeffs:
        if v.denominator != 1 or v < 0:
            raise ValueError("non-integral or negative simple-root coefficient")
        total += int(v)
    return total


class TestConstruction:
    @pytest.mark.parametrize(
        "family, n, count",
        [("A", 4, 6), ("A", 5, 10), ("B", 3, 9), ("B", 4, 16), ("D", 3, 6), ("D", 4, 12)],
    )
    def test_positive_root_counts(self, family, n, count):
        rs = build_root_system(family, n)
        assert len(rs.positive_roots) == count
        assert len(rs.heights) == count

    def test_simple_roots_have_height_one(self):
        for family, n in (("A", 4), ("B", 3), ("D", 4)):
            rs = build_root_system(family, n)
            labels = [label for label, _ in rs.simple_roots]
            assert len(labels) == len(set(labels))
            for _, coords in rs.simple_roots:
                assert rs.heights[rs.positive_roots.index(coords)] == 1

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_closed_form_heights_match_the_linear_solve(self, family):
        for n in range(1, 11):
            rs = build_root_system(family, n)
            basis = [coords for _, coords in rs.simple_roots]
            assert rs.heights == tuple(solve_height(basis, r) for r in rs.positive_roots)

    def test_b2_heights(self):
        rs = build_root_system("B", 2)
        assert sorted(rs.heights) == [1, 1, 2, 3]

    def test_odd_root_count(self):
        for family, n in (("A", 5), ("B", 4), ("D", 5)):
            rs = build_root_system(family, n)
            odd = sum(1 for h in rs.heights if h % 2)
            assert odd_root_count(family, n) == odd


class TestLengthAgreement:
    def test_identity(self):
        for family, n in (("A", 4), ("B", 3), ("D", 4)):
            rs = build_root_system(family, n)
            e = SignedPerm.identity(n)
            assert length_via_roots(rs, e) == 0
            assert odd_length_via_roots(rs, e) == 0

    @pytest.mark.parametrize("family, n", [("A", 4), ("B", 3), ("D", 4)])
    def test_matches_statistics_exhaustively(self, family, n):
        rs = build_root_system(family, n)
        for s in elements(family, n):
            assert length_via_roots(rs, s) == ell(s, family)
            assert odd_length_via_roots(rs, s) == odd_length(s, family)

    def test_longest_element_inverts_all_roots(self):
        rs = build_root_system("B", 3)
        w0 = SignedPerm.from_text("-1 -2 -3")
        assert length_via_roots(rs, w0) == 9
        assert odd_length_via_roots(rs, w0) == odd_root_count("B", 3)


class TestArrayCounts:
    @pytest.mark.parametrize("family, n", [("A", 6), ("A", 7), ("B", 5), ("D", 5), ("D", 6)])
    def test_scalar_statistics_match_root_counts(self, family, n):
        """The scalar pair statistics and descent sets against the array
        root counts over blocks of sign masks, on every element, at and
        below the ranks the root-oracle check covers."""
        rs = build_root_system(family, n)
        perms = perm_table(n)
        masks = sweep_plan(family, n).masks
        index = {row: k for k, row in enumerate(map(tuple, perms.tolist()))}
        counts = np.stack(root_counts(rs, perms, masks), axis=2)
        assert counts.shape == (len(perms), len(masks), 3)
        column = {mask: k for k, mask in enumerate(masks.tolist())}
        for sigma in elements(family, n):
            k = index[tuple(abs(v) - 1 for v in sigma.images)]
            want = (*ell_and_odd(sigma, family), descent_set(sigma, family).mask)
            assert tuple(counts[k, column[sigma.sign_mask]]) == want, sigma

    @pytest.mark.parametrize("family, n", [("A", 5), ("B", 4), ("D", 5)])
    def test_block_size_does_not_change_the_counts(self, family, n, monkeypatch):
        rs = build_root_system(family, n)
        perms, masks = perm_table(n), sweep_plan(family, n).masks
        want = root_counts(rs, perms, masks)
        # 64 elements per block: three to six rows under one sign mask at a time.
        monkeypatch.setattr(rootsys, "BLOCK", 64)
        assert len(list(rootsys.spans(len(perms), len(rs._coords)))) > 1
        for got, expected in zip(root_counts(rs, perms, masks), want):
            assert np.array_equal(got, expected)

    def test_rejects_masks_outside_the_family(self):
        perms = perm_table(3)
        for family, n, masks in (("A", 3, [1]), ("D", 3, [0, 0b100]),
                                 ("B", 3, [0b1000]), ("B", 4, [0])):
            with pytest.raises(ValueError):
                root_counts(build_root_system(family, n), perms, np.array(masks))
        with pytest.raises(ValueError):
            root_counts(build_root_system("B", 3), perms, np.array([[0, 1]]))

    def test_block_rows_match_one_row_reads(self):
        rs = build_root_system("D", 4)
        perms = perm_table(4)
        lengths, odds, _ = root_counts(rs, perms, np.array([0b0110]))
        for row, l, o in zip(perms.tolist(), lengths[:, 0], odds[:, 0]):
            sigma = SignedPerm(tuple(-(v + 1) if i in (1, 2) else v + 1 for i, v in enumerate(row)))
            assert (length_via_roots(rs, sigma), odd_length_via_roots(rs, sigma)) == (l, o)

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    @pytest.mark.parametrize("plant", [lambda root: tuple(-c for c in root),
                                       lambda root: (0,) * len(root),
                                       lambda root: tuple(2 * c for c in root),
                                       lambda root: root[:-1] + (1,)],
                             ids=["negated", "zero", "doubled", "third-coordinate"])
    def test_a_root_whose_key_is_not_positive_fails_the_build(self, monkeypatch, family, plant):
        """root_counts reads each root's image sign from its one or two
        nonzero coordinates, each +-1, the higher one +1, so the build
        asserts those facts.  The first root built as a sum is planted:
        negated, its higher coordinate is -1; zeroed, it has none; doubled,
        they are +-2; given a last coordinate, it has three."""
        add, calls = rootsys._add, []

        def planted(a, b, sb):
            calls.append(1)
            return plant(add(a, b, sb)) if len(calls) == 1 else add(a, b, sb)

        build_root_system(family, 4)
        monkeypatch.setattr(rootsys, "_add", planted)
        with pytest.raises(AssertionError, match="is not e_j or e_j"):
            build_root_system(family, 4)


def _seeded(family, n, rng, count=6):
    """count rows and count sign masks of the group, from rng."""
    perms = np.array([rng.permutation(n) for _ in range(count)])
    if family == "A":
        return perms, np.zeros(1, dtype=np.int64)
    masks = rng.integers(0, 1 << n, count)
    if family == "D":  # an even number of negative entries
        masks ^= np.array([bin(m).count("1") % 2 for m in masks.tolist()])
    return perms, masks


class TestPastTheKeyLimit:
    """root_counts is exact while 2^n <= 2^24: seeded elements at ranks up
    to the bound's last, n = 24, and the first rank past it."""

    @pytest.mark.parametrize("n", [16, 20, 24])
    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_seeded_elements_match_the_scalar_statistics(self, family, n):
        rs = build_root_system(family, n)
        perms, masks = _seeded(family, n, np.random.default_rng(n))
        counts = np.stack(root_counts(rs, perms, masks), axis=2)
        for row, got in zip(perms.tolist(), counts):
            for mask, (length, odd, descents) in zip(masks.tolist(), got.tolist()):
                sigma = SignedPerm(tuple(-(v + 1) if mask >> i & 1 else v + 1
                                         for i, v in enumerate(row)))
                want = (*ell_and_odd(sigma, family), descent_set(sigma, family).mask)
                assert (length, odd, descents) == want, sigma

    def test_the_largest_descent_mask_is_exact(self):
        # B24's w0 sends every root negative and has every descent: 2^24 - 1.
        rs = build_root_system("B", 24)
        got = root_counts(rs, np.arange(24)[None], np.array([(1 << 24) - 1]))
        assert [int(a[0, 0]) for a in got] == [576, odd_root_count("B", 24), (1 << 24) - 1]

    def test_a_rank_past_the_bound_raises(self):
        with pytest.raises(AssertionError, match="past float32's exact range"):
            root_counts(build_root_system("B", 25), np.arange(25)[None], np.array([0]))
