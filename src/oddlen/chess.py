"""Chessboard elements, odd sandwiches, and restricted support tables.

The sign-twisted quotient polynomials are supported on small structured
subsets of the group: chessboard elements, then chessboard elements
whose final segment has no odd sandwiches, then chessboard elements
with no k-odd sandwiches.  The sandwich predicates come twice: literal
scans of one SignedPerm (the scalar oracles) and filters over
absolute-value rows and sign masks.  A restricted support is
chessboard_rows (the rows with one parity of i + P[i]) under such a
filter, and its descent table is one SweepPlan.table call.  Odd-length
additivity and the set-level product factorizations run on signed
one-line arrays of the same rows, split by parabolic_factors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .genfun import DescentTable, SweepPlan, perm_table, sweep_plan
from .indexset import IndexSet, is_compressed
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
    """Absolute-value rows (int8 permutations of range(n), in lexicographic
    order) on which i + P[i] has one parity for every position i."""
    perms = perm_table(n)
    parity = (perms + np.arange(n, dtype=np.int8)) % 2
    return perms[(parity == parity[:, :1]).all(axis=1)]


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


def k_sandwich_free(rows: np.ndarray, k: int) -> np.ndarray:
    """Array form of k_odd_sandwiches: whether each absolute-value row has
    no k-odd sandwich.  Signs play no part, so this filters rows."""
    n = rows.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError("position bound out of range")
    inside = np.argsort(rows, axis=1) < k  # inside[:, v]: value v+1 sits at a position <= k
    free = np.ones(len(rows), dtype=bool)
    for r in range(n):
        for top in range(r + 2, n, 2):
            free &= ~(inside[:, r] & inside[:, top] & ~inside[:, r + 1 : top].any(axis=1))
    return free


def window_sandwich_free(rows: np.ndarray, masks: np.ndarray, c: int) -> np.ndarray:
    """Array form of odd_sandwiches: whether each absolute-value row under
    each sign mask has no odd sandwich in its final segment from position
    c, as a (rows, masks) filter."""
    n = rows.shape[1]
    if not 1 <= c <= n - 1:
        raise ValueError("segment start out of range")
    where = np.argsort(rows, axis=1)  # position of each value
    window = where >= c - 1
    neg = (masks[None, :, None] >> where[:, None, :]) & 1 == 1  # sign of each value
    low = rows[:, c - 1 :].min(axis=1)
    free = np.ones((len(rows), len(masks)), dtype=bool)
    for r in range(n):
        for top in range(r + 2, n, 2):
            mids = window[:, None, r + 1 : top]
            flips = neg[:, :, r + 1 : top] != neg[:, :, r, None]
            same = neg[:, :, r] == neg[:, :, top]
            sandwich = np.where(same, ~(mids & ~flips).any(axis=2),
                                (low == r)[:, None] & ~(mids & flips).any(axis=2))
            free &= ~(window[:, r] & window[:, top])[:, None] | ~sandwich
    return free


def support_table(n: int, support: str, *, family: str = "D",
                  param: int | None = None) -> DescentTable:
    """Descent table of a restricted support: the chessboard rows crossed
    with the family's sign masks, all of them for "chessboard", those
    passing in_H(sigma, param) for "H", or in_T(sigma, param) for "T"."""
    if family not in ("A", "D"):
        raise ValueError("support sums cover families A and D")
    if support not in ("chessboard", "H", "T"):
        raise ValueError(f"unknown support {support!r}")
    plan = sweep_plan(family, n)
    rows = chessboard_rows(n)
    if support == "chessboard":
        return plan.table(family, rows)
    if family != "D":
        raise ValueError("sandwich supports are defined on family D")
    if param is None:
        raise ValueError(f"support {support!r} needs a parameter")
    if support == "H":
        return plan.table(family, rows, window_sandwich_free(rows, plan.masks, param))
    return plan.table(family, rows, k_sandwich_free(rows, param)[:, None])


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


def additive_rows(plan: SweepPlan, rows: np.ndarray, mask: int) -> np.ndarray:
    """Whether L(sigma) = L(u) + L(v) over parabolic_factors with J =
    {1..n-1} for each row under one sign mask of D_n, all three odd lengths
    read from plan, the D_n sweep plan.  u sorts all entries, so its k
    negative entries come first and its sign mask is (1 << k) - 1."""
    n = rows.shape[1]
    neg = (mask >> np.arange(n)) & 1
    u, v = parabolic_factors((rows + 1) * (1 - 2 * neg), IndexSet.of(n, range(1, n)))
    odd = plan.stats(rows, mask)[1]
    return odd == plan.stats(np.abs(u) - 1, (1 << int(neg.sum())) - 1)[1] + plan.stats(v - 1, 0)[1]


def check_L_additivity(sigma: SignedPerm) -> bool:
    """Whether the odd length splits over the parabolic factorization
    that sorts all entries (labels 1..n-1): additive_rows on one row."""
    if not sigma.in_D:
        raise ValueError("additivity check needs an even number of negative entries")
    row = np.array([[abs(v) - 1 for v in sigma.images]])
    return bool(additive_rows(sweep_plan("D", sigma.n), row, sigma.sign_mask)[0])


def check_set_factorization(n: int, index_set: IndexSet, variant: str = "H") -> bool:
    """Verify a product-set decomposition of a restricted support set on
    signed one-line arrays of both sides.

    variant "H": the no-odd-sandwich set of a compressed index set
    ending at n-1 splits off an unsigned quotient on the tail values.
    variant "T": the no-k-odd-sandwich set of a punctured interval
    splits off a chessboard quotient on the head positions.
    """
    if index_set.n != n:
        raise ValueError("index set rank mismatch")
    if variant == "H":
        return _check_H_factorization(n, index_set)
    if variant == "T":
        return _check_T_factorization(n, index_set)
    raise ValueError(f"unknown variant {variant!r}")


def _check_H_factorization(n: int, index_set: IndexSet) -> bool:
    if not is_compressed(index_set):
        raise ValueError("the H factorization needs a compressed index set")
    if (n - 1) not in index_set or 0 not in index_set:
        raise ValueError("the H factorization needs an index set spanning 0 and n-1")
    a0 = next(i for i in range(n) if i not in index_set)
    if not 2 <= a0 <= n - 2:
        raise ValueError("first gap out of range")

    plan, rows = sweep_plan("D", n), chessboard_rows(n)
    pool = window_sandwich_free(rows, plan.masks, a0 + 1)
    j_set = IndexSet.full(n).remove(a0)
    # Unsigned tails on positions a0+1..n, in the quotient by I's labels past a0.
    fixed = (rows[:, :a0] == np.arange(a0)).all(axis=1)[:, None] & (plan.masks == 0)
    right = _elements(plan, rows, fixed, index_set.mask >> (a0 + 1) << (a0 + 1))
    return _product_holds(_elements(plan, rows, pool, index_set.mask),
                          _elements(plan, rows, pool, j_set.mask), right, j_set)


def _check_T_factorization(n: int, index_set: IndexSet) -> bool:
    gaps = [i for i in range(n) if i not in index_set]
    if len(gaps) != 1 or 0 not in index_set or (n - 1) not in index_set:
        raise ValueError("the T factorization needs a single-gap index set")
    a0 = gaps[0]
    if not 2 <= a0 <= n - 2:
        raise ValueError("gap out of range")
    if a0 % 2 == 0 or n % 2 == 0:
        raise ValueError("the T factorization needs the gap and the rank both odd")

    plan, rows = sweep_plan("D", n), chessboard_rows(n)
    pool = k_sandwich_free(rows, a0)[:, None]
    # Chessboard elements of D_a0 (all of parity class 0, as a0 is odd) in
    # the quotient by labels 1..a0-1, with the identity on the tail.
    fixed = (rows[:, a0:] == np.arange(a0, n)).all(axis=1)[:, None] & (plan.masks < 1 << a0)
    right = _elements(plan, rows, fixed, (1 << a0) - 2)
    return _product_holds(_elements(plan, rows, pool, index_set.remove(0).mask),
                          _elements(plan, rows, pool, index_set.mask), right,
                          IndexSet.of(n, range(a0)))


def _elements(plan: SweepPlan, rows: np.ndarray, keep: np.ndarray, labels: int) -> np.ndarray:
    """Signed one-line arrays of the (row, sign mask) elements that keep
    (broadcast to rows x masks) allows and whose descents avoid labels."""
    r, k = np.nonzero(keep & (plan.descents(rows) & labels == 0))
    neg = (plan.masks[k, None] >> np.arange(plan.n)) & 1
    return (rows[r] + 1) * (1 - 2 * neg)


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
