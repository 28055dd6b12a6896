"""Sign-twisted generating functions over parabolic quotients.

Both computation routes live here: the closed product formulas and a
brute-force sweep over the full group.  A DescentTable is one int64
array counting elements by (descent mask, length parity, odd length),
so all 2^n quotients of one group cost one SweepPlan.histogram plus a
subset-sum (zeta) transform.  The sweep feeds the histogram prefix
blocks of the group, and SweepPlan.table any rows under a (row, mask)
filter: the restricted sums (pinned entries here, supports in chess).
scalar_table, with no caller in the package, is the independent oracle.

The sweep is array-native.  An element is an absolute-value row P (a
permutation of 0..n-1) under one of the family's sign masks, and every
pair statistic is linear in the comparisons G[(i, j)] = [P[i] > P[j]]
over position pairs i < j:

    inv = G @ (pp - mm)^T + rowsum(pm + mm)
    nsp = G @ (mp - pm)^T + rowsum(pm + mm)

where pp/pm/mp/mm indicate the sign pattern of the pair under each mask.
The plan stacks the length and odd-length weights into one
(pairs, 2 * masks) matrix, so one float32 product gives both.  That is
exact because every partial sum is an integer, and _build_plan asserts
that the worst case stays below 2**24.

Rows come in prefix x suffix blocks.  The last s positions run over the
s! permutations of range(s), built once as an int8 table `base` in
lexicographic order.  Each (n-s)-prefix, taken in lexicographic order,
owns the block rest[base], where rest is its sorted complement, so the
blocks concatenate in itertools' order.  Relabelling by rest is
monotone, so the comparisons between two suffix positions, and their
share of the product, are the same in every block and are computed once
per sweep.  A block adds only the pairs that involve a prefix position:
prefix against suffix is base < rank (the prefix value's rank within
rest), and prefix against prefix is a constant.  s is the largest length
with s! <= min(40320, 2**21 // masks) rows, which bounds a block's
(rows, masks) arrays; worker processes take contiguous ranges of prefix
blocks.

Descent sets depend only on the n-1 adjacent comparisons.  The plan
tabulates lut[word, mask]: the descent mask, with the extra type B/D
bit, of every adjacent-comparison word under every sign mask, already
scaled to its histogram key.  A block's keys are then lut[word] plus
the length parity and the odd length.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, permutations
from math import factorial
from typing import Iterable

import numpy as np

from .indexset import IndexSet, components, m_of, C_poly, tilde
from .rootsys import odd_root_count
from .sperm import FAMILIES, SignedPerm, descent_set, ell_and_odd, label_mask
from .zpoly import ONE, IntPoly, alt_product, q_multinomial

BUDGET = {"A": 10, "B": 8, "D": 8}


class BudgetError(Exception):
    """Raised when a brute-force sweep would exceed the size budget."""


def check_budget(family: str, n: int) -> None:
    """Reject unknown families, ranks below 1 and ranks past BUDGET."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > BUDGET[family]:
        raise BudgetError(
            f"{family}_{n} exceeds the enumeration budget ({family} allows n <= {BUDGET[family]})"
        )


def resolve_workers(workers: int | None) -> int:
    """Worker count: an explicit argument wins, then the ODDLEN_WORKERS
    variable, then 1."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be positive")
        return workers
    env = os.environ.get("ODDLEN_WORKERS")
    if env is None:
        return 1
    try:
        value = int(env)
    except ValueError as exc:
        raise ValueError("ODDLEN_WORKERS must be an integer") from exc
    if value < 1:
        raise ValueError("ODDLEN_WORKERS must be positive")
    return value


def _sign_masks(family: str, n: int) -> np.ndarray:
    if family == "A":
        return np.zeros(1, dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    if family == "B":
        return masks
    bits = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return masks[bits % 2 == 0]


def _suffix_length(n: int, nmasks: int) -> int:
    """Largest s <= n whose s! rows fit a block of
    min(40320, 2**21 // nmasks) rows."""
    rows = max(1, min(40320, (1 << 21) // nmasks))
    s = 1
    while s < n and factorial(s + 1) <= rows:
        s += 1
    return s


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def perm_table(s: int) -> np.ndarray:
    """The s! permutations of range(s) as int8 rows, in lexicographic order."""
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, s + 1):
        head = np.arange(k, dtype=np.int8)[:, None, None]
        tail = table + (table >= head)  # range(k) without head, in order
        head = np.broadcast_to(head, (k, table.shape[0], 1))
        table = np.concatenate([head, tail], axis=2).reshape(-1, k)
    return table


@dataclass
class SweepPlan:
    """Weights and lookup tables for one family and rank."""

    n: int
    masks: np.ndarray
    width: int            # odd lengths run over 0..width-1
    suffix: int           # s: the last s positions form the shared suffix
    weights: np.ndarray   # (npairs, 2 * nmasks) pair weights, length | odd length
    const: np.ndarray     # (2 * nmasks,) constant parts, length | odd length
    lut: np.ndarray       # (2**(n-1), nmasks) histogram key of each descent word

    def stats(self, perms: np.ndarray, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Length and odd length of every absolute-value row of perms (each
        a permutation of range(n)) under one sign mask, read off the
        sweep's own weights: G(P) @ weights + const in the mask's columns."""
        k = int(np.searchsorted(self.masks, mask))
        if k == len(self.masks) or self.masks[k] != mask:
            raise ValueError(f"sign mask {mask} is outside the group")
        cols = [k, len(self.masks) + k]
        both = (_greater(perms) @ self.weights[:, cols] + self.const[cols]).astype(np.int64)
        return both[:, 0], both[:, 1]

    def histogram(self, block: np.ndarray, words: np.ndarray,
                  keep: np.ndarray | None = None) -> np.ndarray:
        """Flat (descent mask, length parity, odd length) histogram of a
        block of rows under every sign mask, given each row's
        G @ weights + const and adjacent-comparison word.  keep,
        broadcast to (rows, masks), drops the elements where it is False."""
        nmasks = len(self.masks)
        keys = block[:, :nmasks].astype(np.int64)  # length
        keys &= 1
        keys *= self.width
        np.add(keys, block[:, nmasks:], out=keys, casting="unsafe")  # odd length
        keys += self.lut[words]
        if keep is not None:
            keys = keys[np.broadcast_to(keep, keys.shape)]
        return np.bincount(keys.ravel(), minlength=(1 << self.n) * 2 * self.width)

    def table(self, family: str, rows: np.ndarray, keep: np.ndarray | None = None) -> DescentTable:
        """Descent table of the absolute-value rows crossed with every sign
        mask, restricted to the (row, mask) elements that keep allows."""
        counts = self.histogram(_greater(rows) @ self.weights + self.const, _words(rows), keep)
        return DescentTable(family, self.n, counts.reshape(1 << self.n, 2, self.width))

    def descents(self, rows: np.ndarray) -> np.ndarray:
        """Descent mask of every absolute-value row under every sign mask,
        read off lut, as a (rows, masks) array."""
        return self.lut[_words(rows)] // (2 * self.width)


def _words(rows: np.ndarray) -> np.ndarray:
    """Adjacent-comparison word of each row: bit k is [P[k] > P[k+1]]."""
    return ((rows[:, :-1] > rows[:, 1:]).astype(np.intp) << np.arange(rows.shape[1] - 1)).sum(1)


def _greater(perms: np.ndarray) -> np.ndarray:
    """G(P): the comparisons [P[i] > P[j]] over position pairs i < j."""
    left, right = np.array(_pairs(perms.shape[1]), dtype=np.intp).reshape(-1, 2).T
    return (perms[:, left] > perms[:, right]).astype(np.float32)


def sweep_plan(family: str, n: int) -> SweepPlan:
    """The sweep's plan for one group within BUDGET, for per-element reads
    (SweepPlan.stats) and tables over chosen rows (SweepPlan.table)."""
    check_budget(family, n)
    return _build_plan(family, n)


def _build_plan(family: str, n: int) -> SweepPlan:
    masks = _sign_masks(family, n)
    nmasks = masks.shape[0]
    neg = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float32)  # (nmasks, n)
    pos = 1.0 - neg

    pairs = _pairs(n)
    left = np.array([i for i, _ in pairs], dtype=np.intp)
    right = np.array([j for _, j in pairs], dtype=np.intp)
    pp = (pos[:, left] * pos[:, right]).T  # (npairs, nmasks)
    pm = (pos[:, left] * neg[:, right]).T
    mp = (neg[:, left] * pos[:, right]).T
    mm = (neg[:, left] * neg[:, right]).T

    w = pp - mm
    c_pair = np.zeros_like(w)
    if family != "A":
        w = w + (mp - pm)
        c_pair = 2.0 * (pm + mm)
    odd = ((right - left) % 2 == 1)[:, None]
    weights = np.concatenate([w, w * odd], axis=1)
    const = np.concatenate([c_pair.sum(axis=0), (c_pair * odd).sum(axis=0)])
    if family == "B":
        const += np.concatenate([neg.sum(axis=1), neg[:, 0::2].sum(axis=1)])

    # Every partial sum of G @ weights + const is bounded by this, so the
    # float32 products are exact integers while it stays below 2**24.
    worst = np.abs(weights).sum(axis=0, dtype=np.float64) + np.abs(const)
    if worst.max() >= 1 << 24:
        raise AssertionError(f"{family}_{n} sums reach {worst.max():.0f}, past float32's 2**24")

    # Odd lengths lie in 0..width-1.  The bound is attained (by the longest
    # element), so width - 1 is the number of odd-height positive roots.
    width = int((np.maximum(weights[:, nmasks:], 0).sum(axis=0) + const[nmasks:]).max()) + 1
    adj = np.array([pairs.index((k, k + 1)) for k in range(n - 1)], dtype=np.intp)
    words = np.arange(1 << (n - 1))
    g = ((words[:, None] >> np.arange(n - 1)) & 1).astype(np.float32)[:, :, None]
    bits = g * (pp - mm)[adj] + (pm + mm)[adj]  # (nwords, n-1, nmasks): descent at k+1
    dmask = (bits.astype(np.int64) << np.arange(1, n)[:, None]).sum(axis=1)
    if family == "B":
        dmask |= neg[:, 0].astype(np.int64)
    elif family == "D" and n >= 2:
        dmask |= (g[:, 0] * (mp - pm)[0] + (pm + mm)[0]).astype(np.int64)  # pair (0, 1)

    return SweepPlan(
        n=n,
        masks=masks,
        width=width,
        suffix=_suffix_length(n, nmasks),
        weights=weights,
        const=const,
        lut=dmask * (2 * width),
    )


def _columns(rows: list[tuple[int, int, int]]) -> np.ndarray:
    """Transpose (pair, left, right) triples into three index arrays,
    integer-typed even when empty."""
    return np.array(rows, dtype=np.intp).reshape(-1, 3).T


def _sweep_range(plan: SweepPlan, start: int, stop: int) -> np.ndarray:
    """Histogram (descent mask, length parity, odd length) over the prefix
    blocks [start, stop), crossed with all sign masks."""
    n, s = plan.n, plan.suffix
    p = n - s
    base = perm_table(s)
    counts = np.zeros((1 << n) * 2 * plan.width, dtype=np.int64)

    pairs = _pairs(n)
    inner, left, right = _columns([(k, i - p, j - p) for k, (i, j) in enumerate(pairs) if i >= p])
    fixed, head_l, head_r = _columns([(k, i, j) for k, (i, j) in enumerate(pairs) if j < p])
    # pairs (i, p..n-1) are consecutive: prefix position i against the suffix
    cross = [plan.weights[k : k + s] for k in (pairs.index((i, p)) for i in range(p))]

    shared = (base[:, left] > base[:, right]).astype(np.float32) @ plan.weights[inner] + plan.const
    word = ((base[:, :-1] > base[:, 1:]).astype(np.intp) << np.arange(p, n - 1)).sum(axis=1)
    # steps[r] = [base < r]: how a prefix value with r smaller values in
    # rest compares with each suffix position, as G entries.
    steps = (base < np.arange(s + 1)[:, None, None]).astype(np.float32)

    block = shared
    buffer = np.empty_like(shared)
    for prefix in islice(permutations(range(n), p), start, stop):
        rank = [v - sum(u < v for u in prefix) for v in prefix]
        bits = word
        if p:
            block = np.matmul(steps[rank[0]], cross[0], out=buffer)
            for r, w in zip(rank[1:], cross[1:]):
                block += steps[r] @ w
            block += shared
            if fixed.size:
                values = np.array(prefix)
                block += (values[head_l] > values[head_r]).astype(np.float32) @ plan.weights[fixed]
            head_word = sum(int(prefix[k] > prefix[k + 1]) << k for k in range(p - 1))
            bits = word + head_word + (steps[rank[-1]][:, 0].astype(np.intp) << (p - 1))
        counts += plan.histogram(block, bits)
    return counts


@dataclass
class DescentTable:
    """All 2^n sign-twisted quotient polynomials of one group, or of a pool
    of its elements, as counts by (descent mask, length parity, odd
    length) with a lazy subset-sum transform of the signed counts."""

    family: str
    n: int
    counts: np.ndarray  # int64, (2**n, 2, width)
    _zeta: np.ndarray | None = field(default=None, repr=False)

    def _zeta_table(self) -> np.ndarray:
        if self._zeta is None:
            # Yates: one in-place add per bit, over the masks with that bit set.
            zeta = self.counts[:, 0] - self.counts[:, 1]
            for bit in range(self.n):
                halves = zeta.reshape(-1, 2, 1 << bit, zeta.shape[-1])
                halves[:, 1] += halves[:, 0]
            self._zeta = zeta
        return self._zeta

    def bucket(self, mask: int) -> IntPoly:
        """Signed sum over the elements whose descent mask is exactly mask."""
        return IntPoly((self.counts[mask, 0] - self.counts[mask, 1]).tolist())

    def quotient_poly(self, index_set: IndexSet) -> IntPoly:
        """Sum of (-1)^length x^(odd length) over the minimal coset
        representatives whose descents avoid index_set."""
        if index_set.n != self.n:
            raise ValueError("index set rank does not match the table")
        labels = label_mask(self.family, self.n)
        if index_set.mask & ~labels:
            raise ValueError("index set contains labels outside the generator range")
        return IntPoly(self._zeta_table()[labels & ~index_set.mask].tolist())

    def group_poly(self) -> IntPoly:
        return self.quotient_poly(IndexSet(self.n, 0))


def brute_table(family: str, n: int, workers: int | None = None) -> DescentTable:
    """Enumerate the whole group once, bucketing by descent set."""
    check_budget(family, n)
    plan = _build_plan(family, n)
    nperms = factorial(n)
    nblocks = nperms // factorial(plan.suffix)
    nworkers = min(resolve_workers(workers), nblocks)
    if nworkers <= 1 or nperms < 50000:
        counts = _sweep_range(plan, 0, nblocks)
    else:
        bounds = [nblocks * k // nworkers for k in range(nworkers + 1)]
        jobs = [(plan, bounds[k], bounds[k + 1]) for k in range(nworkers)]
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            parts = list(pool.map(_sweep_worker, jobs))
        counts = np.sum(parts, axis=0)
    return DescentTable(family, n, counts.reshape(1 << n, 2, plan.width))


def _sweep_worker(job: tuple[SweepPlan, int, int]) -> np.ndarray:
    return _sweep_range(*job)


def brute_quotient(family: str, n: int, index_set: IndexSet, workers: int | None = None) -> IntPoly:
    return brute_table(family, n, workers).quotient_poly(index_set)


def scalar_table(family: str, n: int, pool: Iterable[SignedPerm]) -> DescentTable:
    """Descent table of any pool of group elements, one element at a time:
    the independent scalar oracle for SweepPlan.table.  Lengths come from
    sperm's pair statistics, descents from sperm.descent_set and the
    width from the root system, sharing nothing with the sweep."""
    counts = np.zeros((1 << n, 2, odd_root_count(family, n) + 1), dtype=np.int64)
    for sigma in pool:
        if sigma.n != n:
            raise ValueError("pool element of the wrong degree")
        l, odd = ell_and_odd(sigma, family)
        counts[descent_set(sigma, family).mask, l & 1, odd] += 1
    return DescentTable(family, n, counts)


def pinned_table(family: str, n: int, pin: tuple[int, int]) -> DescentTable:
    """Descent table of the elements with a pinned entry.

    pin = (b, v) keeps only elements mapping b to v, where b is a
    position in [1, n] and v is n or -n: the rows with P[b-1] = n-1
    under the sign masks whose bit b-1 is the sign of v.
    """
    b, v = pin
    if not 1 <= b <= n:
        raise ValueError("constraint position out of range")
    if abs(v) != n:
        raise ValueError("constraint value must be n or -n")
    plan = sweep_plan(family, n)
    rows = perm_table(n)
    keep = (plan.masks >> (b - 1) & 1) == (v < 0)
    return plan.table(family, rows[rows[:, b - 1] == n - 1], keep)


def brute_filtered(
    family: str, n: int, index_set: IndexSet, constraint: tuple[int, int]
) -> IntPoly:
    """Quotient sum restricted to elements with a pinned entry (see pinned_table)."""
    return pinned_table(family, n, constraint).quotient_poly(index_set)


def _closed_labels(family: str, n: int, index_set: IndexSet) -> int:
    """Check a closed formula's rank and index set; return the label mask."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if index_set.n != n:
        raise ValueError("index set rank mismatch")
    labels = label_mask(family, n)
    if index_set.mask & ~labels:
        raise ValueError(f"index set has labels outside the {family}_{n} generators")
    return labels


def closed_A(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the unsigned quotient polynomials."""
    _closed_labels("A", n, index_set)
    m = m_of(index_set)
    return C_poly(index_set) * alt_product(2 * m + 2, n)


def closed_B(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the signed quotient polynomials."""
    _closed_labels("B", n, index_set)
    decomp = components(index_set)
    zero = decomp.zero_size
    parts = decomp.other_sizes
    m = sum((z + 1) // 2 for z in parts)
    top = q_multinomial(m, [(z + 1) // 2 for z in parts], base_exponent=2) if m else ONE
    num = ONE
    for j in range(zero + 1, n + 1):
        num = num * (ONE - IntPoly.monomial(1, j))
    den = ONE
    for i in range(1, m + 1):
        den = den * (ONE - IntPoly.monomial(1, 2 * i))
    return (top * num).exact_div(den)


def closed_D(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the even-signed quotient polynomials."""
    full = _closed_labels("D", n, index_set)
    if index_set.mask == full:
        return ONE
    if index_set.is_empty:
        return alt_product(2, n, square=True)

    m_orig = m_of(index_set)
    zero = components(index_set).zero_size
    twisted = tilde(index_set)
    m_t = m_of(twisted)

    if zero >= 2 and zero % 2 == 0:
        if n == 2 * m_orig:
            head = (
                ONE
                + IntPoly.monomial(1, zero)
                + IntPoly.monomial(2, m_orig)
            )
        elif n > 2 * m_orig:
            head = ONE + IntPoly.monomial(1, zero)
        else:
            raise AssertionError("n < 2 m cannot happen for a proper index set")
    else:
        head = ONE

    body = (
        C_poly(twisted)
        * alt_product(2 * ((zero + 2) // 2), n)
        * alt_product(2 * m_t + 2, n)
    )
    out = head * body
    if zero >= 2 and zero % 2 == 0 and n == 2 * m_orig:
        out = out.exact_div(ONE + IntPoly.monomial(1, m_orig))
    return out


def closed_poly(family: str, n: int, index_set: IndexSet) -> IntPoly:
    if family == "A":
        return closed_A(n, index_set)
    if family == "B":
        return closed_B(n, index_set)
    if family == "D":
        return closed_D(n, index_set)
    raise ValueError(f"unknown family {family!r}")


def M_of(n: int, index_set: IndexSet) -> IntPoly:
    """Multiplier relating a proper even-signed quotient polynomial to
    the square-rooted tail product shared by all of them."""
    if n < 3:
        raise ValueError("the multiplier needs rank at least 3")
    if index_set.is_full:
        raise ValueError("the multiplier is defined for proper index sets")
    m = m_of(index_set)
    return closed_D(n, index_set).exact_div(alt_product(2 * m + 2, n, square=True))


def conjecture_rhs(n: int, i: int, with_one: bool) -> IntPoly:
    """Predicted product form for the two sporadic index-set shapes.

    with_one selects {0, 1, i} over {0, i}; stated for n >= 5 and
    i in [3, n-1].
    """
    if n < 5:
        raise ValueError("the sporadic shapes are stated for n >= 5")
    if not 3 <= i <= n - 1:
        raise ValueError("the sporadic shapes need 3 <= i <= n-1")
    if with_one:
        return (ONE - IntPoly.monomial(1, 4)) * alt_product(5, n, square=True)
    return alt_product(4, n, square=True)


def conjecture_set(n: int, i: int, with_one: bool) -> IndexSet:
    members = [0, i] if not with_one else [0, 1, i]
    return IndexSet.of(n, members)
