"""The enumeration route: a brute-force sweep over about a quarter of the
group, and the descent tables it fills.

A DescentTable is one int64 array counting elements by (descent mask,
length parity, odd length), so all 2^n quotients of one group cost one
sweep plus a subset-sum (zeta) transform.  Besides the sweep,
SweepPlan.table counts any rows under every sign mask, and
SweepPlan.tabulate bins keys already computed, under an optional
(row, mask) filter: the restricted sums of supports in chess.
pinned_tables bins every element of a group once, in blocks of
perm_blocks, into the 2n tables of its pinned entries.
scalar_table, with no caller in the package, is the independent oracle.
This is the only one of the two routes that imports numpy: the closed
formulas and the rank bounds, with check_budget, are oddlen.genfun's.

The sweep is array-native.  An element is an absolute-value row P (a
permutation of 0..n-1) under one of the family's sign masks, binned by one
key: descent mask * 2 width + length parity * width + odd length.  With
pp/pm/mp/mm the sign pattern of a pair i < j under a mask, descent mask
and odd length are linear in the comparisons G = [P[i] > P[j]]: the odd
length sums (pp - mm + mp - pm) G + 2 (pm + mm) over pairs at odd
distance (A keeps (pp - mm) G; B adds the signs at odd positions),
descent label k+1 is (pp - mm) G + pm + mm at pair (k, k+1), and label 0
is the first sign in B and (mp - pm) G + pm + mm at pair (0, 1) in D.
The plan folds all of it into one (pairs, masks) matrix and one
constant, so one float32 product gives it, exactly while every partial
sum stays below 2**24, as _build_plan asserts.

The length parity comes from the sign character eps(w) = sgn(P)
(-1)^(negative entries), the determinant of w as a signed permutation
matrix.  So eps is a homomorphism, and it sends every generator (a
transposition, a sign change, or D's transposition with two sign
changes) to -1: eps(w) = (-1)^length(w).  The parity is therefore
inv(P) mod 2 xor the mask's parity, and no length is computed.

The longest element w0 pairs the group off, so the sweep counts one
element of each pair {w, w'}, a w0 half, and brute_table adds the
other's counts through the w0 row (_w0_row, which gives the proof).  A
and the units of B and D below are split further, each by one more map
that keeps the sweep's half; each such map is a row of _partner_table,
next to its proof.  Every map is a CountMap: one gather on the int64
counts that moves the descent labels, toggles some, may flip the length
parity, and shifts or reverses the odd length, so every map is exact.

A is split by its diagram automorphism delta: w -> w0 w w0, the row
P -> n-1-P[n-1-i].  A's form takes its positions in the order 0, n-1, 1,
..., n-2, so a block's prefix (below) starts with (a, b) = (P[0],
P[n-1]).  The n - 2 pairs (k, n-1), 1 <= k <= n-2, then compare the
other way, G -> 1 - G: their weights fold into the constant and are
negated, and their inversions flip the parity when n - 2 is odd.  Put
u = a + b - (n-1) and v = a - b.  delta maps (a, b) to (n-1-b, n-1-a),
so (u, v) to (-u, v); w -> w w0 reverses the row, (u, -v); and w0 w, the
w0 row, complements it, (-u, -v).  v is never 0.  The sweep keeps the
blocks with v > 0 and u >= 0, that is a > b and a + b >= n-1:
floor(n^2/4) pairs (a, b), so floor(n^2/4) (n-2)! keys (1,008,000 of
A10's 3,628,800).  Those with u > 0 form class 1 (below), which adds
its delta partners, u < 0 < v; delta maps the blocks with u = 0, class
0, onto themselves, so they add none.  Together that is every element
with v > 0, a w0 half.  The prefix needs both a and b, and the suffix
one position, so A2 is read whole.

B and D are split by the position j of the entry +-1 (the row's 0).  It
has the smallest absolute value, so every comparison with it is fixed:
G = 1 on the pairs (i, j) with i < j, whose weights fold into the
constant, and G = 0 on the pairs (j, k), which drop out; and it adds j
inversions, so the parities flip when j is odd.  What is left is a
linear form of the same shape over the other n - 1 positions: a subset
of the plan's rows and a constant whose partial sums stay within the sum
_build_plan asserts.  This is the unit of j, and one more map pairs its
elements off: tau in B, w -> s0 w, which flips the sign of +-1 (bit j of
the sign mask), and sigma in D, conjugation by diag(-1, 1, ..., 1),
which flips the signs at position 0 and of +-1 (bits 0 and j) and at
j = 0 fixes every element.  A unit sweeps one element of each orbit of
<tau, w0> or <sigma, w0> on its masks, and its partners' counts are
added.  With a spare bit k = n-1 (n-2 when j = n-1), which w0 toggles
and tau and sigma do not: in B the masks with bits j and k clear, a
quarter; in D with j >= 1 the masks with bits 0 and k clear, a quarter
of D's, since bit k decides w0 and then bit 0 decides sigma, whether or
not w0 toggles bit 0 (n even or odd).  D's j = 0 keeps the w0 half, bit
k clear.  The sweep thus bins n! 2^(n-2) keys in B and (n-1)! 2^(n-3)
(n+1) in D.  With their partners the units count the masks with bit k
clear for each j, a w0 half.  That half is symmetric in labels 0 and 1
in D: a unit with j >= 1 holds its sigma partners, and at j = 0 both
labels read the sign at position 1.  The units need two positions
besides +-1, so B2 and D2 (which has no spare bit), like A2 and the
rank-1 groups, are read whole through SweepPlan.table.

The units' forms share their n - 1 positions, so they sit side by side
as the columns of one form (SweptForm, built once per group), and one
sweep runs them all.  tau reads only whether j = 0 and the parity of j,
and sigma only whether j = 0, so the units fall into partner classes,
the entries of _partner_table: three in B, two in D.  Each unit's
constant carries its class times the table size, so one bincount keeps
the classes apart, and each class's rows run once per call.  The offset
keys stay below 2**24, as _swept_form asserts.  A is one unit, the
plan's form in its position order, and its classes are its blocks'.  A
block of class 1 adds 2 width to its prefix constant, the place of
descent label 0, which no element of A has, so the classes share one
table and the call's counts and bincounts stay one table in size; A's
delta row reads them by descent mask >> 1, and _add_partners folds class
1 back.

Rows come in prefix x suffix blocks over the form's m positions (n in
A, n - 1 in B and D).  The last s positions run over the s! permutations
of range(s), built once per call as an int8 table `base` in
lexicographic order.  s is the largest length whose s! rows (at most
40320) times the form's columns fit FLOATS = 2**21 floats and KEYS keys,
capped to keep the prefix positions above; a block's arrays are
(columns, rows), so that products run along rows.  Each swept
(m-s)-prefix, taken in lexicographic order (_swept_prefixes), owns the
block rest[base], where rest is its sorted complement, so the blocks
concatenate in itertools' order.  Relabelling
by rest is monotone, so the suffix pairs' share of every key is computed
once per call, in one copy per parity of the inversions a prefix adds:
inv(prefix) plus the ranks of its values within rest.

A prefix position whose value has r smaller values in rest adds the term
cross @ [base < r], which depends on the position and r alone.  So
positions 1, 2, ... keep a table of their s + 1 terms, built once per
call while the tables together fit FLOATS floats: to A10, B8 and D8
every position after the first has one, which is A's second position
and none of B's and D's one.  Position 0, the positions past the tables
and the prefix pairs with the block's class offset (a constant per
block) make one product, rebuilt only when its ranks, the prefix's order
or the class change; with at most two positions, position 0's rank
never decreases along the prefixes, so A10 builds it 9 times, once per
(rank, class), for its 25 blocks.  A block's last add writes its keys,
cast to intp, into a buffer of up to KEYS = 2**19 keys, which one
bincount bins when full.

Every work array of a call is a view of one allocation, and nothing
outlives the call, so a call allocates the same few blocks every time
and the allocator keeps reusing their pages.  The summation order is not
SweepPlan.keys', but every partial sum, in any order, is bounded by the
sum that _build_plan or _swept_form asserts below 2**24, so every key is
exact.  Worker processes take contiguous ranges of the swept prefix
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, permutations
from math import factorial, prod
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import rootsys
from .genfun import check_budget, resolve_workers
from .indexset import IndexSet
from .sperm import SignedPerm, descent_set, ell_and_odd, label_mask
from .zpoly import IntPoly

# Bounds on a sweep call's work arrays (see above): the floats of one block,
# and of the term tables together; the keys binned per bincount.
FLOATS = 1 << 21
KEYS = 1 << 19
# perm_table(s) is built once per process up to this s: 8! rows, 320 KB.
SHARED_PERMS = 8


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
    min(40320, FLOATS // nmasks, KEYS // nmasks) rows."""
    rows = max(1, min(40320, FLOATS // nmasks, KEYS // nmasks))
    s = 1
    while s < n and factorial(s + 1) <= rows:
        s += 1
    return s


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def perm_table(s: int) -> np.ndarray:
    """The s! permutations of range(s) as read-only int8 rows, in
    lexicographic order.  Those of up to SHARED_PERMS entries are built
    once and shared: a verify run reads them about 70 times."""
    if s <= SHARED_PERMS:
        return _shared_perm_table(s)
    table = perm_table(SHARED_PERMS)
    for k in range(SHARED_PERMS + 1, s + 1):
        table = _prepend(table, k)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _shared_perm_table(s: int) -> np.ndarray:
    table = _prepend(_shared_perm_table(s - 1), s) if s else np.zeros((1, 0), dtype=np.int8)
    table.flags.writeable = False
    return table


def _prepend(table: np.ndarray, k: int) -> np.ndarray:
    """The permutations of range(k), from those of range(k-1): each head in
    turn, before the table relabelled to skip it."""
    head = np.arange(k, dtype=np.int8)[:, None, None]
    tail = table + (table >= head)  # range(k) without head, in order
    head = np.broadcast_to(head, (k, table.shape[0], 1))
    return np.concatenate([head, tail], axis=2).reshape(-1, k)


def perm_blocks(n: int, rows: int) -> Iterator[np.ndarray]:
    """perm_table(n) in lexicographic blocks of at most max(rows, 1) rows:
    whole (n-s)-prefixes, each over perm_table(s) relabelled by its sorted
    complement, where s is the longest suffix whose s! rows fit."""
    s = max((k for k in range(1, n + 1) if factorial(k) <= rows), default=1)
    base, prefixes = perm_table(s), permutations(range(n), n - s)
    while chunk := list(islice(prefixes, max(1, rows // len(base)))):
        heads = np.array(chunk, dtype=np.int8)
        rest = np.array([[v for v in range(n) if v not in x] for x in chunk], dtype=np.int8)
        yield np.hstack([heads.repeat(len(base), axis=0), rest[:, base].reshape(-1, s)])


@dataclass(frozen=True)
class SweepPlan:
    """The key's linear form, G @ weights + const = descent mask * 2 width +
    odd length, and the sign masks' parities, for one family and rank.
    Built once per group and shared, so its arrays are read-only."""

    family: str
    n: int
    masks: np.ndarray
    width: int            # odd lengths run over 0..width-1
    weights: np.ndarray   # (npairs, nmasks) float32 pair weights of the linear form
    const: np.ndarray     # (nmasks,) float32 constant part of the linear form
    parity: np.ndarray    # (nmasks,) uint8: negative entries of each sign mask, mod 2

    def keys(self, rows: np.ndarray, cols=slice(None)) -> np.ndarray:
        """(rows, masks) histogram keys of absolute-value rows under the
        sign masks cols selects: the linear form plus the parity term."""
        greater = _greater(rows)
        keys = greater.astype(np.float32) @ self.weights[:, cols] + self.const[cols]
        keys += np.float32(self.width) * _parity(greater, self.parity[cols])
        return keys.astype(np.intp)

    def columns(self, masks: np.ndarray) -> np.ndarray:
        """Column of each sign mask of a 1-D array; ValueError for a mask
        outside the group."""
        cols = np.searchsorted(self.masks, masks)
        found = self.masks[np.minimum(cols, len(self.masks) - 1)] == masks
        if not found.all():
            raise ValueError(f"sign mask {masks[~found][0]} is outside the group")
        return cols

    def stats(self, perms: np.ndarray, mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Descent mask, length parity and odd length of every row of perms
        under one sign mask, decoded from the key the sweep bins."""
        high, odd = np.divmod(self.keys(perms, self.columns(np.array([mask])))[:, 0], self.width)
        return high >> 1, high & 1, odd

    def table(self, rows: np.ndarray) -> DescentTable:
        """Descent table of the absolute-value rows crossed with every sign
        mask."""
        return self.tabulate(self.keys(rows))

    def tabulate(self, keys: np.ndarray, keep: np.ndarray | None = None) -> DescentTable:
        """Descent table of a (rows, masks) array of keys: their one
        histogram.  keep, broadcast to its shape, drops the elements where
        it is False."""
        if keep is not None:
            keys = keys[np.broadcast_to(keep, keys.shape)]
        counts = np.bincount(keys.ravel(), minlength=(1 << self.n) * 2 * self.width)
        return DescentTable(self.family, self.n, counts.reshape(1 << self.n, 2, self.width))


def _greater(perms: np.ndarray) -> np.ndarray:
    """G(P): the comparisons [P[i] > P[j]] over position pairs i < j."""
    left, right = np.array(_pairs(perms.shape[1]), dtype=np.intp).reshape(-1, 2).T
    return perms[:, left] > perms[:, right]


def _parity(greater: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """(rows, masks) uint8 length parities: each row's inversion count, read
    off its comparisons (summed mod 256), xor each sign mask's parity."""
    return np.bitwise_xor.outer(greater.sum(axis=1, dtype=np.uint8) & 1, flips)


def sweep_plan(family: str, n: int) -> SweepPlan:
    """The sweep's plan for one group within BUDGET, for per-element reads
    (SweepPlan.stats) and tables over chosen rows (SweepPlan.table)."""
    check_budget(family, n)
    return _build_plan(family, n)


@lru_cache(maxsize=None)
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

    odd = ((right - left) % 2 == 1)[:, None]
    weights = (pp - mm) * odd
    const = np.zeros(nmasks, dtype=np.float32)
    if family != "A":
        weights += (mp - pm) * odd
        const += 2.0 * ((pm + mm) * odd).sum(axis=0)
    if family == "B":
        const += neg[:, 0::2].sum(axis=1)
    # Odd lengths lie in 0..width-1.  The bound is attained (by the longest
    # element), so width - 1 is the number of odd-height positive roots.
    width = int((np.maximum(weights, 0).sum(axis=0) + const).max()) + 1

    # Descent bits (see above), each scaled to its place 2 width << label.
    adj = np.array([pairs.index((k, k + 1)) for k in range(n - 1)], dtype=np.intp)
    scale = (2 * width << np.arange(1, n))[:, None].astype(np.float32)
    weights[adj] += scale * (pp - mm)[adj]
    const += (scale * (pm + mm)[adj]).sum(axis=0)
    if family == "B":
        const += 2 * width * neg[:, 0]
    elif family == "D" and n >= 2:
        weights[0] += 2 * width * (mp - pm)[0]
        const += 2 * width * (pm + mm)[0]

    # Every partial sum of a key is bounded by this, so the float32 products
    # and adds are exact integers while it stays below 2**24.
    worst = np.abs(weights).sum(axis=0, dtype=np.float64) + np.abs(const) + width
    if worst.max() >= 1 << 24:
        raise AssertionError(f"{family}_{n} keys reach {worst.max():.0f}, past float32's 2**24")

    parity = neg.sum(axis=1).astype(np.uint8) & 1
    for array in (masks, weights, const, parity):
        array.flags.writeable = False
    return SweepPlan(family=family, n=n, masks=masks, width=width, weights=weights,
                     const=const, parity=parity)


def _columns(rows: list[tuple[int, int, int]]) -> np.ndarray:
    """Transpose (pair, left, right) triples into three index arrays,
    integer-typed even when empty."""
    return np.array(rows, dtype=np.intp).reshape(-1, 3).T


class CountMap(NamedTuple):
    """An exact map on (descent mask, length parity, odd length) counts,
    from a map of the group that takes descent label l to labels[l], then
    toggles the labels in toggle, flips the length parity when flip, and
    takes odd length o to o + odd, or to width - 1 - o when odd is None."""

    labels: tuple[int, ...]
    toggle: int = 0
    flip: bool = False
    odd: int | None = 0

    def image(self, counts: np.ndarray) -> np.ndarray:
        """The (2^len(labels), 2, width) counts of the images of the
        elements that counts, of that shape, holds, in one gather: image
        mask m reads the mask whose bit l is bit labels[l] of m ^ toggle."""
        source = np.arange(len(counts)) ^ self.toggle
        if self.labels != tuple(range(len(self.labels))):
            bits = source[:, None] >> np.array(self.labels, dtype=np.int64) & 1
            source = bits @ (1 << np.arange(len(self.labels)))
        image = counts[source, :: 1 - 2 * self.flip]
        if self.odd is None:
            return image[..., ::-1]
        if self.odd:
            zeros = np.zeros_like(image[..., : self.odd])
            image = np.concatenate([zeros, image[..., : -self.odd]], axis=-1)
        return image


@lru_cache(maxsize=None)
def _w0_row(family: str, n: int) -> CountMap:
    """The w0 row: the map from the elements w of a w0 half to their
    partners w', w0 w in A, the values complemented (P -> n-1-P), and w w0
    in B and D, the same row P with signs flipped: at every position in B
    and in D with even n (w0 = -1), at positions 2..n in D with odd n.
    Pair by pair of the linear form, with g the comparison:
    - both signs flip (pp <-> mm, pm <-> mp): an odd pair's shares in w and
      w' (g : 2 - g, 2 - g : g) sum to 2, and a descent bit's (label k+1:
      g : 1 - g, 1 : 0; D's label 0: 0 : 1, 1 - g : g) to 1;
    - in D with odd n, pairs (0, j) flip only the right sign (pp <-> pm,
      mp <-> mm): an odd pair sums to 2 again (g : 2 - g), and label 1 of w
      against label 0 of w' reads g : 1 - g, 1 : 0, 0 : 1, 1 - g : g from
      pp, pm, mp, mm, so label 0 of w' is 1 minus label 1 of w, and vice
      versa;
    - in A, g -> 1 - g: an odd pair sums to 1, and so does a descent bit;
    - B's sign terms each sum to 1.
    Summed, odd(w') = width - 1 - odd(w): the longest element attains the
    bound.  The descent mask of w' is every label toggled after a swap of
    labels 0 and 1 in D with odd n, and length(w') = length(w0) - length(w)
    flips the parity with length(w0): n(n-1)/2 in A, n^2 in B, n(n-1) in D.

    In D3, s0 (descents {0}, length 1, odd length 1) pairs with s0 w0
    (descents {0, 2}, length 5, odd length 3): labels 0 and 1 swap.

    >>> half = np.zeros((8, 2, 5), dtype=np.int64)
    >>> half[0b001, 1, 1] = 1
    >>> [int(k[0]) for k in np.nonzero(_w0_row("D", 3).image(half))]
    [5, 1, 3]
    """
    labels = (1, 0, *range(2, n)) if family == "D" and n % 2 else tuple(range(n))
    longest = {"A": n * (n - 1) // 2, "B": n * n, "D": n * (n - 1)}[family]
    return CountMap(labels, label_mask(family, n), bool(longest & 1), None)


@lru_cache(maxsize=None)
def _partner_table(family: str, n: int) -> tuple[tuple[tuple, tuple[CountMap, ...]], ...]:
    """The partner classes of the sweep of a group of rank n >= 3 (see
    above), in offset order: each class's units, as (position j of +-1, the
    sign bits their masks keep clear), and the rows whose images the class
    adds.  A's classes are its blocks' (see _swept_prefixes), so they list
    no units, and its row reads the counts by descent mask >> 1.  Cached
    like the plan: these records hold no arrays, and rebuilding them on
    every call raised the peak RSS of a long verify run."""
    # The spare bit k of each j: the last position that is not j, never 0
    # for n >= 3, which w0 toggles and tau and sigma do not.
    spare = [1 << n - 1 - (j == n - 1) for j in range(n)]
    if family == "A":
        # delta carries the pair (i, j) to (n-1-j, n-1-i), at the same
        # distance, and inversions to inversions, so it keeps the length and
        # the odd length, and it maps descent label l to n - l: bit b of
        # mask >> 1 to bit n-2-b.
        return ((), ()), ((), (CountMap(tuple(range(n - 2, -1, -1))),))
    if family == "B":
        # tau, w -> s0 w, flips the sign of +-1, bit j.  No pair share of
        # the odd length moves: pair (i, j) has G = 1, where pp and pm both
        # give 1, and mp and mm both 1; pair (j, k) has G = 0, where
        # 2 (pm + mm) reads the right sign alone.  No descent bit k+1 moves
        # either: comparing +-1 with an entry of larger absolute value reads
        # only that entry's sign.  So label 0 toggles iff j = 0, the parity
        # flips, and going from bit j clear to bit j set the odd length gains
        # B's sign term, 1 iff j + 1 is odd: one row each for j = 0, odd j
        # and even j >= 2.
        rows = (([0], 1, 1), (range(1, n, 2), 0, 0), (range(2, n, 2), 0, 1))
        return tuple((tuple((j, 1 << j | spare[j]) for j in units),
                      (CountMap(tuple(range(n)), toggle, True, odd),)) for units, toggle, odd in rows)
    # sigma, conjugation by diag(-1, 1, ..., 1), flips the signs at position
    # 0 and of +-1, bits 0 and j.  It is the diagram automorphism: it swaps
    # s0 and s1 and so descent labels 0 and 1, and keeps the length and,
    # since it keeps root heights, the odd length.  At j = 0 it flips one
    # sign twice and fixes every element, so that class adds no row.
    return ((((0, spare[0]),), ()),
            (tuple((j, 1 | spare[j]) for j in range(1, n)), (CountMap((1, 0, *range(2, n))),)))


def _units(plan: SweepPlan) -> list[tuple[int, int | None, np.ndarray]]:
    """The swept units of a group of rank n >= 3 (see above), by partner
    class: (class, position j of +-1, columns of their sign masks).  A has
    one unit, j = None, of one column; in B and D each j owns a quarter of
    the sign masks, and D's j = 0 the w0 half."""
    if plan.family == "A":
        return [(0, None, np.zeros(1, dtype=np.intp))]
    return [(cls, j, np.flatnonzero(plan.masks & clear == 0))
            for cls, (units, _) in enumerate(_partner_table(plan.family, plan.n))
            for j, clear in units]


def _unit_plan(plan: SweepPlan, j: int | None,
               cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, constant and parities of one unit's linear form over its
    positions, all but j: the pairs (i, j) compare 1 and fold into the
    constant, the pairs (j, k) compare 0 and drop out, and +-1 adds j
    inversions.  Every partial sum stays within _build_plan's bound.
    A's unit takes the positions in the order 0, n-1, 1, ..., n-2, so its
    n - 2 pairs (k, n-1), 1 <= k <= n-2, read G -> 1 - G: their weights
    fold into the constant and are negated, and the parity flips when
    n - 2 is odd."""
    pairs = _pairs(plan.n)
    if j is None:
        n = plan.n
        order = [0, n - 1, *range(1, n - 1)]
        turned = np.array([order[i] > order[k] for i, k in pairs], dtype=bool)
        weights = plan.weights[[pairs.index(tuple(sorted((order[i], order[k]))))
                                for i, k in pairs]]
        const = plan.const + weights[turned].sum(axis=0)
        weights = np.where(turned[:, None], -weights, weights)
        return weights, const, plan.parity ^ ((n - 2) & 1)
    rest = [k for k, pair in enumerate(pairs) if j not in pair]
    into = [k for k, (_, right) in enumerate(pairs) if right == j]
    const = plan.const[cols] + plan.weights[into][:, cols].sum(axis=0)
    return plan.weights[rest][:, cols], const, plan.parity[cols] ^ (j & 1)


class SweptForm(NamedTuple):
    """The linear form the sweep runs for one group: every unit's form side
    by side, over the same positions, each unit's keys offset by its
    partner class times the table size; A's keys by its block's class
    under descent label 0, added with the block's prefix constant."""

    positions: int
    weights: np.ndarray  # (pairs of the positions, columns) float32
    const: np.ndarray    # (columns,) float32
    flips: np.ndarray    # (columns,) uint8
    classes: int


@lru_cache(maxsize=None)
def _swept_form(family: str, n: int) -> SweptForm:
    """The sweep's form for one group of rank n >= 3, built once and shared,
    so its arrays are read-only."""
    plan = _build_plan(family, n)
    size = (1 << n) * 2 * plan.width
    units = _units(plan)
    parts = []
    for cls, j, cols in units:
        weights, const, flips = _unit_plan(plan, j, cols)
        parts.append((weights, const + cls * size, flips))
    weights, const, flips = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    worst = np.abs(weights).sum(axis=0, dtype=np.float64) + np.abs(const) + plan.width
    if family == "A":
        worst += 2 * plan.width  # class 1's blocks, under descent label 0
    if worst.max() >= 1 << 24:
        raise AssertionError(f"{family}_{n} offset keys reach {worst.max():.0f}, past 2**24")
    for array in (weights, const, flips):
        array.flags.writeable = False
    return SweptForm(n if family == "A" else n - 1, weights, const, flips, units[-1][0] + 1)


def _half(plan: SweepPlan) -> tuple[int, int, int]:
    """The sweep's layout (see above): the columns of its form, the suffix
    length, and the number of prefix blocks swept.  A keeps two prefix
    positions and sweeps the blocks whose first two entries have
    a > b and a + b >= n - 1, floor(n^2 / 4) pairs; in B and D every block
    of the n - 1 positions is swept."""
    form = _swept_form(plan.family, plan.n)
    m, ncols = form.positions, len(form.const)
    if plan.family == "A":
        s = min(_suffix_length(m, ncols), m - 2)
        return ncols, s, m * m // 4 * factorial(m - 2) // factorial(s)
    s = min(_suffix_length(m, ncols), m - 1)
    return ncols, s, factorial(m) // factorial(s)


def _swept_prefixes(family: str, m: int, p: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The swept prefixes of p of the form's m positions, in lexicographic
    order, each with its block's partner class: every prefix, of class 0,
    in B and D; in A those whose first two entries (a, b) have a > b and
    a + b >= m - 1, of class 1 when a + b > m - 1 (see above)."""
    prefixes = permutations(range(m), p)
    if family != "A":
        return ((x, 0) for x in prefixes)
    return ((x, int(x[0] + x[1] > m - 1)) for x in prefixes
            if x[0] > x[1] and x[0] + x[1] >= m - 1)


def _term_tables(ncols: int, s: int, p: int) -> int:
    """How many prefix positions after the first keep a table of their s + 1
    terms: as many as fit FLOATS floats together."""
    return min(p - 1, FLOATS // ((s + 1) * ncols * factorial(s)))


def _sweep_range(plan: SweepPlan, start: int, stop: int) -> np.ndarray:
    """(2^n, 2, width) counts over the swept prefix blocks [start, stop),
    with their partners (see _add_partners): that part of the w0 half."""
    n, width = plan.n, plan.width
    form = _swept_form(plan.family, n)
    ncols, s, _ = _half(plan)
    m = form.positions
    p, rows = m - s, factorial(s)
    weights, flips = form.weights, form.flips
    ntab = _term_tables(ncols, s, p)
    stacked = [0, *range(ntab + 1, p)]  # positions 1..ntab have tables
    nkeys = max(1, KEYS // (ncols * rows))  # blocks binned per bincount

    pairs = _pairs(m)
    inner, left, right = _columns([(k, i - p, j - p) for k, (i, j) in enumerate(pairs) if i >= p])
    head_pairs = [(i, j) for i, j in pairs if j < p]
    fixed = weights[[pairs.index(pair) for pair in head_pairs]]
    # pairs (i, p..m-1) are consecutive: prefix position i against the suffix
    cross = [weights[k : k + s].T for k in (pairs.index((i, p)) for i in range(p))]

    # Every work array is a view of one allocation.  The keys' bytes hold
    # the suffix comparisons G until the setup has read them.
    nstep = len(stacked) * s + 1
    # shared, term, tables, step, mixed, and block (a sum of tabled terms)
    shapes = [(2, ncols, rows), (ncols, rows), (ntab, s + 1, ncols, rows), (nstep, rows),
              (ncols, nstep), (ncols if ntab else 0, rows)]
    nfloats = sum(prod(shape) for shape in shapes)
    key_bytes = nkeys * ncols * rows * np.dtype(np.intp).itemsize
    front = max(key_bytes, 4 * len(inner) * rows)
    memory = np.empty(front + 4 * nfloats + s * rows, dtype=np.uint8)
    keys = memory[:key_bytes].view(np.intp).reshape(nkeys, ncols, rows)
    greater = memory[: 4 * len(inner) * rows].view(np.float32).reshape(-1, rows)
    shared, term, tables, step, mixed, block = _split(
        memory[front : front + 4 * nfloats].view(np.float32), shapes)
    base = memory[front + 4 * nfloats :].reshape(s, rows)

    base[...] = perm_table(s).T
    for k, (i, j) in enumerate(zip(left, right)):
        np.greater(base[i], base[j], out=greater[k])
    suffix = np.matmul(weights[inner].T, greater, out=term)
    suffix += form.const[:, None]
    # shared[q]: the suffix's share of the keys when the prefix adds q
    # inversions mod 2, the parity term being width * (inv(row) xor flips).
    # The parity is read as an integer: np.remainder on float32 rows takes
    # about 40 times as long (1 ms of A10's call).
    odd = step[1].view(np.int32)
    np.copyto(odd, greater.sum(axis=0, out=step[0]), casting="unsafe")
    odd &= 1
    np.not_equal(flips[:, None], odd, out=shared[0])
    shared[0] *= width
    np.subtract(width, shared[0], out=shared[1])
    shared += suffix
    # tables[t, r]: the term of position t + 1 at rank r, cross @ [base < r]:
    # a prefix value with r smaller values in rest against each suffix value.
    for r in range(s + 1) if ntab else ():
        np.less(base, r, out=step[:s])
        for t in range(ntab):
            np.matmul(cross[t + 1], step[:s], out=tables[t, r])
    # The other positions and the prefix pairs make one product, mixed @ step,
    # whose last step row is ones against the prefix pairs' constant.
    for c, i in enumerate(stacked):
        mixed[:, c * s : (c + 1) * s] = cross[i]
    mixed[:, -1] = 0
    step[-1] = 1

    counts = np.zeros(form.classes * (1 << n) * 2 * width, dtype=np.int64)
    built, k = None, 0
    for prefix, cls in islice(_swept_prefixes(plan.family, m, p), start, stop):
        rank = [v - sum(u < v for u in prefix) for v in prefix]
        head = [prefix[i] > prefix[j] for i, j in head_pairs]
        inputs = [rank[i] for i in stacked] + head + [cls]
        if inputs != built:  # position 0's rank only grows when p <= 2
            built = inputs
            for c, i in enumerate(stacked):
                np.less(base, rank[i], out=step[c * s : (c + 1) * s])
            if head:  # with the class of an A block under label 0 (see above)
                mixed[:, -1] = np.dot(head, fixed) + cls * 2 * width
            np.matmul(mixed, step, out=term)
        total = term
        for t in range(ntab):
            total = np.add(total, tables[t, rank[t + 1]], out=block)
        np.add(total, shared[(sum(rank) + sum(head)) & 1], out=keys[k], casting="unsafe")
        k += 1
        if k == nkeys:
            counts += np.bincount(keys.ravel(), minlength=len(counts))
            k = 0
    if k:
        counts += np.bincount(keys[:k].ravel(), minlength=len(counts))
    return _add_partners(plan, counts)


def _add_partners(plan: SweepPlan, counts: np.ndarray) -> np.ndarray:
    """The (2^n, 2, width) counts of a sweep's partner classes added up,
    each with the images of its rows in _partner_table.  In B and D class
    c sits c table sizes up; A's class 1 under descent label 0, which no
    element of A has, so A's classes are read by descent mask >> 1, and
    class 1 is folded back in place."""
    n, width = plan.n, plan.width
    if plan.family == "A":
        parts = counts.reshape(-1, 2, 2, width).swapaxes(0, 1)  # (class, mask >> 1, ...)
    else:
        parts = counts.reshape(-1, 1 << n, 2, width)
    added = parts[1:].sum(axis=0)
    for part, (_, rows) in zip(parts, _partner_table(plan.family, n)):
        for row in rows:
            added += row.image(part)
    parts[0] += added
    parts[1:] = 0  # A's class 1 lies inside the table returned
    return counts[: (1 << n) * 2 * width].reshape(1 << n, 2, width)


def _split(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of a 1-D array, one per shape."""
    views, at = [], 0
    for shape in shapes:
        views.append(flat[at : at + prod(shape)].reshape(shape))
        at += prod(shape)
    return views


@dataclass
class DescentTable:
    """All 2^n sign-twisted quotient polynomials of one group, or of a pool
    of its elements, as counts by (descent mask, length parity, odd
    length) with a lazy subset-sum transform of the signed counts."""

    family: str
    n: int
    counts: np.ndarray  # int64, (2**n, 2, width)
    _zeta: tuple[np.ndarray, list[int]] | None = field(default=None, repr=False)

    def _zeta_table(self) -> tuple[np.ndarray, list[int]]:
        """The subset sums of the signed counts, and each row's length
        without its trailing zeros, found once with the transform."""
        if self._zeta is None:
            # Yates: one in-place add per bit, over the masks with that bit set.
            zeta = self.counts[:, 0] - self.counts[:, 1]
            for bit in range(self.n):
                halves = zeta.reshape(-1, 2, 1 << bit, zeta.shape[-1])
                halves[:, 1] += halves[:, 0]
            nonzero = zeta != 0
            ends = np.where(nonzero.any(axis=1), zeta.shape[1] - nonzero[:, ::-1].argmax(axis=1), 0)
            self._zeta = zeta, ends.tolist()
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
        zeta, ends = self._zeta_table()
        mask = labels & ~index_set.mask
        return _trimmed_poly(tuple(zeta[mask, : ends[mask]].tolist()))

    def group_poly(self) -> IntPoly:
        return self.quotient_poly(IndexSet(self.n, 0))


def _trimmed_poly(coeffs: tuple[int, ...]) -> IntPoly:
    """The IntPoly of Python int coefficients with no trailing zero, built
    without IntPoly's conversion and trim."""
    poly = IntPoly.__new__(IntPoly)
    poly.coeffs = coeffs
    return poly


def brute_table(family: str, n: int, workers: int | None = None) -> DescentTable:
    """Sweep part of the group, with its delta, tau or sigma partners, and
    add the partners under w0 of that half (see above), so every
    element is counted once, bucketed by descent set.  Rank 1, B2 and D2
    are read whole."""
    check_budget(family, n)
    plan = _build_plan(family, n)
    if n <= 2:
        return plan.table(perm_table(n))
    nswept = _half(plan)[2]
    nworkers = min(resolve_workers(workers), nswept)
    if nworkers <= 1 or factorial(n) < 50000:
        half = _sweep_range(plan, 0, nswept)
    else:
        # Imported here: multiprocessing adds about 1.4 MB to every process
        # that imports sweep, and a one-process sweep never needs it.
        from concurrent.futures import ProcessPoolExecutor

        bounds = [nswept * k // nworkers for k in range(nworkers + 1)]
        jobs = [(plan, bounds[k], bounds[k + 1]) for k in range(nworkers)]
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            half = np.sum(list(pool.map(_sweep_worker, jobs)), axis=0)
    return DescentTable(family, n, half + _w0_row(family, n).image(half))


def _sweep_worker(job: tuple[SweepPlan, int, int]) -> np.ndarray:
    return _sweep_range(*job)


def brute_quotient(family: str, n: int, index_set: IndexSet, workers: int | None = None) -> IntPoly:
    return brute_table(family, n, workers).quotient_poly(index_set)


def scalar_table(family: str, n: int, pool: Iterable[SignedPerm]) -> DescentTable:
    """Descent table of any pool of group elements, one element at a time:
    the independent scalar oracle for SweepPlan.table.  Lengths come from
    sperm's pair statistics, descents from sperm.descent_set and the
    width from the root system, sharing nothing with the sweep."""
    counts = np.zeros((1 << n, 2, rootsys.odd_root_count(family, n) + 1), dtype=np.int64)
    for sigma in pool:
        if sigma.n != n:
            raise ValueError("pool element of the wrong degree")
        l, odd = ell_and_odd(sigma, family)
        counts[descent_set(sigma, family).mask, l & 1, odd] += 1
    return DescentTable(family, n, counts)


def pinned_tables(family: str, n: int) -> dict[tuple[int, int], DescentTable]:
    """Descent tables of the elements with each pinned entry (b, v): those
    mapping b to v, for every position b in [1, n] and v = n or -n.

    The pins partition the group by the position and sign of its entry
    +-n, the row's n-1.  So one pass over perm_blocks, rootsys.BLOCK keys
    at a time, keys each element once and bins it in place by (pin, key)
    into all 2n tables.
    """
    plan = sweep_plan(family, n)
    size = (1 << n) * 2 * plan.width
    counts = np.zeros((n, 2, size), dtype=np.int64)  # by position of +-n, and its sign
    at = np.arange(n)[:, None]
    offsets = (2 * at + (plan.masks >> at & 1)) * size  # of each table, by position and mask
    for rows in perm_blocks(n, rootsys.BLOCK // len(plan.masks)):
        keys = plan.keys(rows)
        keys += offsets[np.argmax(rows == n - 1, axis=1)]
        np.add.at(counts.reshape(-1), keys.ravel(), 1)
    shape = (1 << n, 2, plan.width)
    return {(b, v): DescentTable(family, n, counts[b - 1, int(v < 0)].reshape(shape))
            for b in range(1, n + 1) for v in (n, -n)}


def pinned_table(family: str, n: int, pin: tuple[int, int]) -> DescentTable:
    """Descent table of the elements mapping b to v, pin = (b, v), for a
    position b in [1, n] and v = n or -n.  Each call runs the rank's whole
    pinned_tables pass: a caller reading many pins calls that once."""
    check_budget(family, n)
    b, v = pin
    if not 1 <= b <= n:
        raise ValueError("constraint position out of range")
    if abs(v) != n:
        raise ValueError("constraint value must be n or -n")
    return pinned_tables(family, n)[pin]


def brute_filtered(family: str, n: int, index_set: IndexSet,
                   constraint: tuple[int, int]) -> IntPoly:
    """Quotient sum restricted to elements with a pinned entry.  Each call
    runs the rank's whole pinned pass (see pinned_table)."""
    return pinned_table(family, n, constraint).quotient_poly(index_set)
