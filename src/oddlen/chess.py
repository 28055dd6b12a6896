"""Chessboard elements, odd sandwiches, and restricted support tables.

The sign-twisted quotient polynomials are supported on small structured
subsets of the group: chessboard elements, then chessboard elements
whose final segment has no odd sandwiches, then chessboard elements
with no k-odd sandwiches.  This module provides those predicates as
literal scans and the set-level product factorizations behind the
closed formulas.  A restricted support is a pool of elements: its
descent table is built once, by the scalar oracle genfun.scalar_table,
and every quotient sum over it is a table read.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, NamedTuple

from .genfun import DescentTable, check_budget, scalar_table
from .indexset import IndexSet, is_compressed
from .sperm import (
    SignedPerm,
    compose,
    direct_product,
    in_quotient,
    odd_length,
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


def chessboard_elements(n: int, family: str = "D") -> Iterator[SignedPerm]:
    """All chessboard elements of the group, by parity class.

    Positions and absolute values split by parity, so each class is a
    pair of smaller permutations crossed with sign masks.
    """
    if family not in ("A", "D"):
        raise ValueError("chessboard enumeration covers families A and D")
    for cls in (0, 1):
        odd_vals = [v for v in range(1, n + 1) if v % 2 == 1]
        even_vals = [v for v in range(1, n + 1) if v % 2 == 0]
        odd_pos = [i for i in range(1, n + 1) if (i + cls) % 2 == 1]
        even_pos = [i for i in range(1, n + 1) if (i + cls) % 2 == 0]
        if len(odd_vals) != len(odd_pos):
            continue
        for po in permutations(odd_vals):
            for pe in permutations(even_vals):
                base = [0] * n
                for p, v in zip(odd_pos, po):
                    base[p - 1] = v
                for p, v in zip(even_pos, pe):
                    base[p - 1] = v
                yield from signings(base, family)


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


def support_table(
    n: int, support: str, *, family: str = "D", param: int | None = None
) -> DescentTable:
    """Descent table of a restricted support.

    support is one of "chessboard", "H" (the elements passing
    in_H(sigma, param)) or "T" (those passing in_T(sigma, param)).
    """
    if family not in ("A", "D"):
        raise ValueError("support sums cover families A and D")
    check_budget(family, n)
    if support == "chessboard":
        pool = chessboard_elements(n, family)
    elif support in ("H", "T"):
        if family != "D":
            raise ValueError("sandwich supports are defined on family D")
        if param is None:
            raise ValueError(f"support {support!r} needs a parameter")
        sandwiches = odd_sandwiches if support == "H" else k_odd_sandwiches
        pool = (s for s in chessboard_elements(n) if not sandwiches(s, param))
    else:
        raise ValueError(f"unknown support {support!r}")
    return scalar_table(family, n, pool)


def support_sum(
    n: int, index_set: IndexSet, support: str, *, family: str = "D", param: int | None = None
) -> IntPoly:
    """Sum of (-1)^length x^(odd length) over the quotient elements in a
    restricted support (see support_table)."""
    return support_table(n, support, family=family, param=param).quotient_poly(index_set)


def check_L_additivity(sigma: SignedPerm) -> bool:
    """Whether the odd length splits over the parabolic factorization
    that sorts all entries (labels 1..n-1)."""
    n = sigma.n
    if not sigma.in_D:
        raise ValueError("additivity check needs an even number of negative entries")
    tail = IndexSet.of(n, range(1, n))
    u, v = parabolic_factorize(sigma, tail, "D")
    return odd_length(sigma, "D") == odd_length(u, "D") + odd_length(v, "D")


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

    lhs = {
        s
        for s in chessboard_elements(n)
        if in_quotient(s, index_set, "D") and not odd_sandwiches(s, c)
    }
    left = {
        s
        for s in chessboard_elements(n)
        if in_quotient(s, j_set, "D") and not odd_sandwiches(s, c)
    }
    right = set()
    head = SignedPerm.identity(a0)
    for p in permutations(range(1, m + 1)):
        tail = SignedPerm(tuple(p))
        if not in_quotient(tail, k_set, "A"):
            continue
        t = direct_product(head, tail)
        if is_chessboard(t):
            right.add(t)

    product = {compose(u, t) for u in left for t in right}
    proj_left = {parabolic_factorize(s, j_set, "D")[0] for s in lhs}
    proj_right = {parabolic_factorize(s, j_set, "D")[1] for s in lhs}
    return product == lhs and proj_left == left and proj_right == right


def _check_T_factorization(n: int, index_set: IndexSet) -> bool:
    gaps = _gaps(index_set)
    if len(gaps) != 1 or 0 not in index_set or (n - 1) not in index_set:
        raise ValueError("the T factorization needs a single-gap index set")
    a0 = gaps[0]
    if not 2 <= a0 <= n - 2:
        raise ValueError("gap out of range")
    if a0 % 2 == 0 or n % 2 == 0:
        raise ValueError("the T factorization needs the gap and the rank both odd")

    reduced = index_set.remove(0)
    lhs = {
        s
        for s in chessboard_elements(n)
        if in_quotient(s, reduced, "D") and not k_odd_sandwiches(s, a0)
    }
    left = {
        s
        for s in chessboard_elements(n)
        if in_quotient(s, index_set, "D") and not k_odd_sandwiches(s, a0)
    }
    head_quotient = IndexSet.of(a0, range(1, a0))
    tail = SignedPerm.identity(n - a0)
    right = {
        direct_product(d, tail)
        for d in chessboard_elements(a0)
        if in_quotient(d, head_quotient, "D")
    }

    product = {compose(u, t) for u in left for t in right}
    head_set = IndexSet.of(n, range(a0))
    proj_left = {parabolic_factorize(s, head_set, "D")[0] for s in lhs}
    proj_right = {parabolic_factorize(s, head_set, "D")[1] for s in lhs}
    return product == lhs and proj_left == left and proj_right == right
