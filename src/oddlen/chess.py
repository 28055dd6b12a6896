"""Chessboard elements, odd sandwiches, and restricted support tables.

The sign-twisted quotient polynomials are supported on small structured
subsets of the group: chessboard elements, then chessboard elements
whose final segment has no odd sandwiches, then chessboard elements
with no k-odd sandwiches.  The sandwich predicates come twice: literal
scans of one SignedPerm (the scalar oracles) and filters over
absolute-value rows and sign masks.  A restricted support is
chessboard_rows (the rows with one parity of i + P[i]) under such a
filter, and its descent table is one SweepPlan.table call.  Odd-length
additivity over the sorting factorization runs on the same arrays; the
set-level product factorizations materialize sets of SignedPerms.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, NamedTuple

import numpy as np

from .genfun import DescentTable, SweepPlan, perm_table, sweep_plan
from .indexset import IndexSet, is_compressed
from .sperm import (
    SignedPerm,
    compose,
    direct_product,
    in_quotient,
    parabolic_factorize,
    signings,
)
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


def chessboard_elements(n: int, family: str = "D") -> Iterator[SignedPerm]:
    """All chessboard elements of the group: the chessboard rows under
    every sign mask of the family."""
    if family not in ("A", "D"):
        raise ValueError("chessboard enumeration covers families A and D")
    for row in chessboard_rows(n):
        yield from signings([int(v) + 1 for v in row], family)


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


def sorting_factors(rows: np.ndarray, mask: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The parabolic factorization sigma = u . v with J = {1..n-1} of each
    absolute-value row under one sign mask.

    u has no descents in J, so it lists the entries of sigma in increasing
    order: its k negative entries come first and its sign mask is
    (1 << k) - 1.  v is unsigned, and v(i) is the rank of sigma(i).
    Returns the absolute-value rows of u, the sign mask of u and the rows
    of v.
    """
    neg = (mask >> np.arange(rows.shape[1])) & 1
    entries = (rows.astype(np.int64) + 1) * (1 - 2 * neg)
    order = np.argsort(entries, axis=1)
    u = np.abs(np.take_along_axis(entries, order, axis=1)) - 1
    return u, (1 << int(neg.sum())) - 1, np.argsort(order, axis=1)


def additive_rows(plan: SweepPlan, rows: np.ndarray, mask: int) -> np.ndarray:
    """Whether the odd length splits over sorting_factors, L(sigma) =
    L(u) + L(v), for each row under one sign mask of D_n; plan is the D_n
    sweep plan, and all three odd lengths are read from it."""
    u, u_mask, v = sorting_factors(rows, mask)
    odd = plan.stats(rows, mask)[1]
    return odd == plan.stats(u, u_mask)[1] + plan.stats(v, 0)[1]


def check_L_additivity(sigma: SignedPerm) -> bool:
    """Whether the odd length splits over the parabolic factorization
    that sorts all entries (labels 1..n-1): additive_rows on one row."""
    if not sigma.in_D:
        raise ValueError("additivity check needs an even number of negative entries")
    row = np.array([[abs(v) - 1 for v in sigma.images]])
    return bool(additive_rows(sweep_plan("D", sigma.n), row, sigma.sign_mask)[0])


def _gaps(index_set: IndexSet) -> list[int]:
    return [i for i in range(index_set.n) if i not in index_set]


def check_set_factorization(n: int, index_set: IndexSet, variant: str = "H") -> bool:
    """Verify a product-set decomposition of a restricted support set
    by materializing both sides.

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
    gaps = _gaps(index_set)
    a0 = gaps[0]
    if not 2 <= a0 <= n - 2:
        raise ValueError("first gap out of range")
    c = a0 + 1

    j_set = IndexSet.of(n, [i for i in range(n) if i != a0])
    m = n - a0
    k_set = IndexSet.of(m, [i for i in range(1, m) if (i + a0) not in gaps[1:]])

    pool = [s for s in chessboard_elements(n) if not odd_sandwiches(s, c)]
    head = SignedPerm.identity(a0)
    tails = (SignedPerm(p) for p in permutations(range(1, m + 1)))
    products = (direct_product(head, t) for t in tails if in_quotient(t, k_set, "A"))
    right = {t for t in products if is_chessboard(t)}
    return _product_holds(pool, index_set, j_set, right, j_set)


def _check_T_factorization(n: int, index_set: IndexSet) -> bool:
    gaps = _gaps(index_set)
    if len(gaps) != 1 or 0 not in index_set or (n - 1) not in index_set:
        raise ValueError("the T factorization needs a single-gap index set")
    a0 = gaps[0]
    if not 2 <= a0 <= n - 2:
        raise ValueError("gap out of range")
    if a0 % 2 == 0 or n % 2 == 0:
        raise ValueError("the T factorization needs the gap and the rank both odd")

    pool = [s for s in chessboard_elements(n) if not k_odd_sandwiches(s, a0)]
    head_quotient = IndexSet.of(a0, range(1, a0))
    tail = SignedPerm.identity(n - a0)
    right = {
        direct_product(d, tail)
        for d in chessboard_elements(a0)
        if in_quotient(d, head_quotient, "D")
    }
    head_set = IndexSet.of(n, range(a0))
    return _product_holds(pool, index_set.remove(0), index_set, right, head_set)


def _product_holds(pool: list[SignedPerm], lhs_set: IndexSet, left_set: IndexSet,
                   right: set[SignedPerm], J: IndexSet) -> bool:
    """Whether the lhs_set quotient elements of pool are exactly the
    products u . t of its left_set quotient elements u with t in right,
    and the J-parabolic factorization of each splits it that way."""
    lhs = {s for s in pool if in_quotient(s, lhs_set, "D")}
    left = {s for s in pool if in_quotient(s, left_set, "D")}
    product = {compose(u, t) for u in left for t in right}
    factors = [parabolic_factorize(s, J, "D") for s in lhs]
    split = ({u for u, _ in factors}, {v for _, v in factors})
    return product == lhs and split == (left, right)
