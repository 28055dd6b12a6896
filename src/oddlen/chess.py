"""Chessboard elements, odd sandwiches, and restricted support tables.

The sign-twisted quotient polynomials are supported on small structured
subsets of the group: chessboard elements, then chessboard elements
whose final segment has no odd sandwiches, then chessboard elements
with no k-odd sandwiches.  The sandwich predicates come twice: literal
scans of one SignedPerm (the scalar oracles) and filters over
absolute-value rows and sign masks.  chessboard_rows generates the rows
with one parity of i + P[i], filtering nothing: the even values in every
order on the even positions, the odd values on the odd ones, and for
even n those rows ^ 1 too.  A Chessboard owns the arrays of one group's
chessboard elements: those rows and their sweep keys under every sign
mask, then, each built on first use, read-only, their descent masks,
sandwich filters and support tables.  A restricted support is its keys
under a filter, and its descent table is one histogram of them.  The
sandwich filters count, once per element, the values below each value
that a sandwich's ends may enclose, so each pair of ends is a
difference of two counts.  Odd-length additivity splits over the
sorting factorization sigma = u . v: u depends only on the set of
negative values, so L(u) is one table per group (_sorted_u, cached like
the sweep plans), and v = u^-1 sigma is read from that table's inverse,
in blocks of at most rootsys.BLOCK elements.  The set-level product
factorizations run on signed one-line arrays of the board's rows, split
by parabolic_factors.  The board's owner decides its life: a verify
run's CheckContext holds one per group for the run, and support_table
and check_set_factorization build one per call.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .sweep import DescentTable, SweepPlan, perm_table, sweep_plan
from .indexset import IndexSet, is_compressed
from .rootsys import spans
from .sperm import SignedPerm
from .zpoly import IntPoly


class Sandwich(NamedTuple):
    r: int
    h: int


def chess_class(sigma: SignedPerm) -> int | None:
    """Common parity class of i + sigma(i), or None if not constant."""
    n = sigma.n
    cls = (1 + sigma(1)) % 2
    for i in range(2, n + 1):
        if (i + sigma(i)) % 2 != cls:
            return None
    return cls


def is_chessboard(sigma: SignedPerm) -> bool:
    return chess_class(sigma) is not None


def chessboard_rows(n: int) -> np.ndarray:
    """Absolute-value rows (int8 permutations of range(n)) on which i + P[i]
    has one parity for every position i (see the module docstring)."""
    even, odd = perm_table((n + 1) // 2), perm_table(n // 2)
    rows = np.empty((len(even), len(odd), n), dtype=np.int8)
    rows[:, :, 0::2] = 2 * even[:, None]
    rows[:, :, 1::2] = 2 * odd + 1
    rows = rows.reshape(-1, n)
    return rows if n % 2 else np.concatenate([rows, rows ^ 1])


def odd_sandwiches(sigma: SignedPerm, c: int) -> list[Sandwich]:
    """All odd sandwiches in the final segment sigma(c)..sigma(n).

    A pair (r, h) with h odd qualifies when r and r+h+1 both occur in
    the segment (in absolute value) and either the end values carry
    equal signs while every intermediate value present carries the
    opposite sign, or r is the segment minimum, the end signs differ,
    and every intermediate value present matches the sign at r.
    """
    n = sigma.n
    if not 1 <= c <= n - 1:
        raise ValueError("segment start out of range")
    window = {abs(sigma(i)) for i in range(c, n + 1)}
    inv = sigma.inverse()
    sgn = {v: (1 if inv(v) > 0 else -1) for v in window}
    wmin = min(window)
    out = []
    for r in range(1, n - 1):
        if r not in window:
            continue
        for h in range(1, n - 1, 2):
            top = r + h + 1
            if top > n or top not in window:
                continue
            mids = [s for s in range(r + 1, top) if s in window]
            if sgn[r] == sgn[top]:
                if all(sgn[r] != sgn[s] for s in mids):
                    out.append(Sandwich(r, h))
            elif r == wmin:
                if all(sgn[r] == sgn[s] for s in mids):
                    out.append(Sandwich(r, h))
    return out


def k_odd_sandwiches(sigma: SignedPerm, k: int) -> list[Sandwich]:
    """All (r, h) with h odd whose end values sit within the first k
    positions (in absolute value) while the h values between them all
    sit beyond position k."""
    n = sigma.n
    if not 1 <= k <= n - 1:
        raise ValueError("position bound out of range")
    inv = sigma.inverse()
    pos = [0] * (n + 1)
    for v in range(1, n + 1):
        pos[v] = abs(inv(v))
    out = []
    for r in range(1, n - 1):
        if pos[r] > k:
            continue
        for h in range(1, n - 1, 2):
            top = r + h + 1
            if top > n or pos[top] > k:
                continue
            if all(pos[r + i] > k for i in range(1, h + 1)):
                out.append(Sandwich(r, h))
    return out


def in_H(sigma: SignedPerm, c: int) -> bool:
    return is_chessboard(sigma) and not odd_sandwiches(sigma, c)


def in_T(sigma: SignedPerm, a0: int) -> bool:
    return is_chessboard(sigma) and not k_odd_sandwiches(sigma, a0)


def _sandwich_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The value pairs (r, top), 0-based, with top - r even and at least
    2: the ends of every odd sandwich."""
    pairs = [(r, top) for r in range(n) for top in range(r + 2, n, 2)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def k_sandwich_free(rows: np.ndarray, k: int) -> np.ndarray:
    """Array form of k_odd_sandwiches: whether each absolute-value row has
    no k-odd sandwich.  Signs play no part, so this filters rows.  With
    the values inside the first k positions counted below each value,
    the values strictly between r and top are a difference of two counts
    (see window_sandwich_free)."""
    n = rows.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError("position bound out of range")
    r, top = _sandwich_ends(n)
    free = np.empty(len(rows), dtype=bool)
    for span in spans(len(rows), max(len(r), n)):
        inside = np.argsort(rows[span], axis=1).T < k  # inside[v]: value v+1 sits at a position <= k
        upto = np.cumsum(inside, axis=0, dtype=np.int8)
        sandwich = inside[r] & inside[top] & (upto[top - 1] == upto[r])
        free[span] = ~sandwich.any(axis=0)
    return free


def window_sandwich_free(rows: np.ndarray, masks: np.ndarray, c: int) -> np.ndarray:
    """Array form of odd_sandwiches: whether each absolute-value row under
    each sign mask has no odd sandwich in its final segment from position
    c, as a (rows, masks) filter.

    The window values up to each value, and the negative ones among them,
    are counted once per element (cumsum along the values), so the values
    strictly between r and top, of either sign, are differences of two
    counts, and every pair (r, top) is decided at once.  Both ends in the
    window, (r, top) is an odd sandwich exactly when no value between them
    has the sign of top, and either the end signs agree or r is the
    window's lowest value.  Rows go in spans of at most rootsys.BLOCK
    elements per temporary, laid out (values or pairs, rows, masks)."""
    n = rows.shape[1]
    if not 1 <= c <= n - 1:
        raise ValueError("segment start out of range")
    r, top = _sandwich_ends(n)
    signs = (masks >> np.arange(n)[:, None] & 1).astype(bool)  # (positions, masks)
    free = np.empty((len(rows), len(masks)), dtype=bool)
    for span in spans(len(rows), len(masks) * max(len(r), n)):
        where = np.argsort(rows[span], axis=1).T  # where[v]: position of value v+1
        window = where >= c - 1
        neg = signs[where]  # sign of each value
        upto = np.cumsum(window, axis=0, dtype=np.int8)
        mids = (upto[top - 1] - upto[r])[..., None]
        negs = np.cumsum(neg & window[..., None], axis=0, dtype=np.int8)
        negs = negs[top - 1] - negs[r]
        lowest = (window.argmax(axis=0) == r[:, None])[..., None]
        both = (window[r] & window[top])[..., None]
        sandwich = ((neg[r] == neg[top]) | lowest) & (negs == mids * ~neg[top]) & both
        free[span] = ~sandwich.any(axis=0)
    return free


class Chessboard:
    """The read-only arrays of the chessboard elements of one group, D_n or
    A_n (see the module docstring)."""

    def __init__(self, family: str, n: int):
        if family not in ("A", "D"):
            raise ValueError("support sums cover families A and D")
        self.family, self.n = family, n
        self.plan = sweep_plan(family, n)
        self.rows = frozen(chessboard_rows(n))
        self.keys = frozen(self.plan.keys(self.rows))
        self._filters: dict[tuple[str, int], np.ndarray] = {}
        self._tables: dict[tuple[str, int | None], DescentTable] = {}

    @cached_property
    def descents(self) -> np.ndarray:
        """Descent mask of every element, as a (rows, masks) array."""
        return frozen(self.keys // (2 * self.plan.width))

    def window_free(self, c: int) -> np.ndarray:
        """in_H(sigma, c) on the board's elements, as a (rows, masks) filter."""
        if ("H", c) not in self._filters:
            self._filters["H", c] = frozen(window_sandwich_free(self.rows, self.plan.masks, c))
        return self._filters["H", c]

    def k_free(self, k: int) -> np.ndarray:
        """in_T(sigma, k) on the board's elements, as a (rows, 1) filter."""
        if ("T", k) not in self._filters:
            self._filters["T", k] = frozen(k_sandwich_free(self.rows, k)[:, None])
        return self._filters["T", k]

    def table(self, support: str = "chessboard", param: int | None = None) -> DescentTable:
        """Descent table of a restricted support: every element for
        "chessboard", those passing in_H(sigma, param) for "H", or
        in_T(sigma, param) for "T"."""
        if support not in ("chessboard", "H", "T"):
            raise ValueError(f"unknown support {support!r}")
        if (support, param) not in self._tables:
            keep = None
            if support != "chessboard":
                if self.family != "D":
                    raise ValueError("sandwich supports are defined on family D")
                if param is None:
                    raise ValueError(f"support {support!r} needs a parameter")
                keep = self.window_free(param) if support == "H" else self.k_free(param)
            self._tables[support, param] = self.plan.tabulate(self.keys, keep)
        return self._tables[support, param]

    def additive(self) -> np.ndarray:
        """additive_rows over every element, with the odd lengths read from
        the keys."""
        split = split_odd_lengths(self.plan, self.rows, self.plan.masks)
        return self.keys % self.plan.width == split

    def elements(self, keep: np.ndarray, labels: int) -> np.ndarray:
        """Signed one-line arrays of the elements that keep (broadcast to
        rows x masks) allows and whose descents avoid labels."""
        r, k = np.nonzero(keep & (self.descents & labels == 0))
        neg = (self.plan.masks[k, None] >> np.arange(self.n)) & 1
        return (self.rows[r] + 1) * (1 - 2 * neg)

    def set_factorization(self, index_set: IndexSet, variant: str = "H") -> bool:
        """Verify a product-set decomposition of a restricted support set
        on signed one-line arrays of both sides (a D_n board).

        variant "H": the no-odd-sandwich set of a compressed index set
        ending at n-1 splits off an unsigned quotient on the tail values.
        variant "T": the no-k-odd-sandwich set of a punctured interval
        splits off a chessboard quotient on the head positions.
        """
        if self.family != "D" or index_set.n != self.n:
            raise ValueError("set factorizations need a D board of the index set's rank")
        if variant == "H":
            return self._H_factorization(index_set)
        if variant == "T":
            return self._T_factorization(index_set)
        raise ValueError(f"unknown variant {variant!r}")

    def _H_factorization(self, index_set: IndexSet) -> bool:
        n, rows, masks = self.n, self.rows, self.plan.masks
        if not is_compressed(index_set):
            raise ValueError("the H factorization needs a compressed index set")
        if (n - 1) not in index_set or 0 not in index_set:
            raise ValueError("the H factorization needs an index set spanning 0 and n-1")
        a0 = next(i for i in range(n) if i not in index_set)
        if not 2 <= a0 <= n - 2:
            raise ValueError("first gap out of range")

        pool = self.window_free(a0 + 1)
        j_set = IndexSet.full(n).remove(a0)
        # Unsigned tails on positions a0+1..n, in the quotient by I's labels past a0.
        fixed = (rows[:, :a0] == np.arange(a0)).all(axis=1)[:, None] & (masks == 0)
        right = self.elements(fixed, index_set.mask >> (a0 + 1) << (a0 + 1))
        return _product_holds(self.elements(pool, index_set.mask),
                              self.elements(pool, j_set.mask), right, j_set)

    def _T_factorization(self, index_set: IndexSet) -> bool:
        n, rows, masks = self.n, self.rows, self.plan.masks
        gaps = [i for i in range(n) if i not in index_set]
        if len(gaps) != 1 or 0 not in index_set or (n - 1) not in index_set:
            raise ValueError("the T factorization needs a single-gap index set")
        a0 = gaps[0]
        if not 2 <= a0 <= n - 2:
            raise ValueError("gap out of range")
        if a0 % 2 == 0 or n % 2 == 0:
            raise ValueError("the T factorization needs the gap and the rank both odd")

        pool = self.k_free(a0)
        # Chessboard elements of D_a0 (all of parity class 0, as a0 is odd) in
        # the quotient by labels 1..a0-1, with the identity on the tail.
        fixed = (rows[:, a0:] == np.arange(a0, n)).all(axis=1)[:, None] & (masks < 1 << a0)
        right = self.elements(fixed, (1 << a0) - 2)
        return _product_holds(self.elements(pool, index_set.remove(0).mask),
                              self.elements(pool, index_set.mask), right,
                              IndexSet.of(n, range(a0)))


def frozen(array: np.ndarray) -> np.ndarray:
    """array, made read-only: the arrays a Chessboard shares are read by
    every check of a run and written by none."""
    array.flags.writeable = False
    return array


def support_table(n: int, support: str, *, family: str = "D",
                  param: int | None = None) -> DescentTable:
    """Descent table of a restricted support (see Chessboard.table)."""
    return Chessboard(family, n).table(support, param)


def support_sum(
    n: int, index_set: IndexSet, support: str, *, family: str = "D", param: int | None = None
) -> IntPoly:
    """Sum of (-1)^length x^(odd length) over the quotient elements in a
    restricted support (see support_table)."""
    return support_table(n, support, family=family, param=param).quotient_poly(index_set)


def parabolic_factors(elems: np.ndarray, J: IndexSet) -> tuple[np.ndarray, np.ndarray]:
    """sigma = u . v for D_n elements as signed one-line int arrays (one
    per row), with u free of J-descents and v in W_J; the scalar oracle is
    sperm.parabolic_factorize.  u sorts each block of positions that J's
    labels i >= 1 join (i joins i and i+1).  With labels 0 and 1, the head
    block 1..z of labels 0..z-1 is D_z: u sorts its absolute values and
    negates the first when the block has an odd number of negatives."""
    n = elems.shape[1]
    if 0 in J and 1 not in J:
        raise ValueError("label 0 is covered only together with label 1")
    u = elems.astype(np.int64)
    start = 0
    for end in range(1, n + 1):
        if end < n and end in J:
            continue
        block = u[:, start:end]
        if start == 0 and 0 in J:
            odd = (block < 0).sum(axis=1) % 2 == 1
            block[:] = np.sort(np.abs(block), axis=1)
            block[odd, 0] *= -1
        else:
            block.sort(axis=1)
        start = end
    inverse = np.empty_like(u)
    np.put_along_axis(inverse, np.abs(u) - 1, np.sign(u) * np.arange(1, n + 1), axis=1)
    return u, np.sign(elems) * np.take_along_axis(inverse, np.abs(elems) - 1, axis=1)


def additive_rows(plan: SweepPlan, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether L(sigma) = L(u) + L(v) over the sorting factorization (J =
    {1..n-1}), for each row under each sign mask of D_n (a 1-D array), as
    a (rows, masks) array; all three odd lengths are read from plan, the
    D_n sweep plan (see split_odd_lengths)."""
    odd = plan.keys(rows, plan.columns(masks)) % plan.width
    return odd == split_odd_lengths(plan, rows, masks)


@lru_cache(maxsize=None)
def _sorted_u(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor u of the sorting factorization in D_n for every even set
    S of negative values: its signed one-line array, the position in it
    of each value (0-based), and L(u), indexed by S >> 1 (bit 0 of S is
    the parity of the others).  u's one-line array is the signed values
    sorted, so it depends on S alone.  Built once per group and shared, so
    its arrays are read-only."""
    sets = np.arange(1 << max(n - 1, 0))
    bits = sets[:, None] >> np.arange(n - 1) & 1
    negative = np.hstack([bits.sum(axis=1, keepdims=True) & 1, bits])  # (sets, values)
    u = np.sort(np.arange(1, n + 1) * (1 - 2 * negative), axis=1)
    where = np.argsort(np.abs(u), axis=1)
    return frozen(u), frozen(where), frozen(_odd_lengths(sweep_plan("D", n), u))


def _odd_lengths(plan: SweepPlan, elems: np.ndarray) -> np.ndarray:
    """L of every element of signed one-line arrays, one plan read per
    sign mask present."""
    masks = (elems < 0) @ (1 << np.arange(elems.shape[1]))
    out = np.empty(len(elems), dtype=np.intp)
    for mask in np.unique(masks).tolist():
        at = masks == mask
        out[at] = plan.stats(np.abs(elems[at]) - 1, mask)[2]
    return out


def _sort_split(rows: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorting factorization sigma = u . v of each absolute-value row
    under each (n,) 0/1 sign pattern of neg, rows major: u as its index
    in _sorted_u, the set of negative values >> 1, and v's 0-based row.
    v = u^-1 sigma puts at i the position of sigma(i) in u, its rank among
    the signed entries, so v has no sign."""
    at = (neg[None] << rows[:, None]).sum(axis=2) >> 1
    v = _sorted_u(rows.shape[1])[1][at[..., None], rows[:, None]]
    return at.ravel(), v.reshape(-1, rows.shape[1])


def split_odd_lengths(plan: SweepPlan, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """L(u) + L(v) over the sorting factorization (J = {1..n-1}), for each
    row under each sign mask of D_n, as a (rows, masks) array: L(u) read
    from _sorted_u by the set of negative values, and L(v) from v's row,
    the ranks of the signed entries, one plan read per block.  Rows and
    masks go in blocks of at most BLOCK entries and pair comparisons."""
    n = rows.shape[1]
    odd_u = _sorted_u(n)[2]
    out = np.empty((len(rows), len(masks)), dtype=np.intp)
    for r in spans(len(rows), n * n):
        block = rows[r]
        for c in spans(len(masks), n * n * len(block)):
            u, v = _sort_split(block, (masks[c, None] >> np.arange(n)) & 1)
            out[r, c] = (odd_u[u] + plan.stats(v, 0)[2]).reshape(len(block), -1)
    return out


def check_L_additivity(sigma: SignedPerm) -> bool:
    """Whether the odd length splits over the parabolic factorization
    that sorts all entries (labels 1..n-1): additive_rows on one row."""
    if not sigma.in_D:
        raise ValueError("additivity check needs an even number of negative entries")
    row = np.array([[abs(v) - 1 for v in sigma.images]])
    return bool(additive_rows(sweep_plan("D", sigma.n), row, np.array([sigma.sign_mask]))[0, 0])


def check_set_factorization(n: int, index_set: IndexSet, variant: str = "H") -> bool:
    """Verify a product-set decomposition of a restricted support set on
    signed one-line arrays of both sides (see Chessboard.set_factorization)."""
    return Chessboard("D", n).set_factorization(index_set, variant)


def _product_holds(lhs: np.ndarray, left: np.ndarray, right: np.ndarray, J: IndexSet) -> bool:
    """Whether the lhs elements are exactly the products u . t of the left
    elements u with the right elements t, and the J-parabolic factorization
    of each splits it that way."""
    n = lhs.shape[1]
    product = (left[:, np.abs(right) - 1] * np.sign(right)).reshape(-1, n)
    u, v = parabolic_factors(lhs, J)
    keys = (2 * n + 1) ** np.arange(n)
    return all(np.array_equal(np.unique((a + n) @ keys), np.unique((b + n) @ keys))
               for a, b in ((product, lhs), (u, left), (v, right)))
