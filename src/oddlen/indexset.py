"""Subsets of generator labels [0, n-1]: components, m, compression, transforms.

An index set lives in an ambient [0, n-1] and is stored as a bitmask. Its
maximal runs of consecutive members are the connected components; the run
containing 0 (possibly empty) plays a distinguished role and is tracked
separately from the rest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .zpoly import IntPoly, q_multinomial


# One item of index set text: a label or an interval of labels, in ASCII digits.
_ITEM = re.compile(r"([0-9]+)(?:-([0-9]+))?")


@dataclass(frozen=True, order=True)
class IndexSet:
    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient size must be positive")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("members out of range")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def of(n: int, members: Iterator[int] | list[int] | tuple[int, ...] | set[int]) -> "IndexSet":
        mask = 0
        for i in members:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside [0, {n - 1}]")
            mask |= 1 << i
        return IndexSet(n, mask)

    @staticmethod
    def full(n: int) -> "IndexSet":
        return IndexSet(n, (1 << n) - 1)

    @staticmethod
    def from_text(n: int, text: str) -> "IndexSet":
        """Parse '0,1,3' or interval sugar '0-3,6-9'; '' is the empty set."""
        text = text.strip()
        if not text:
            return IndexSet(n, 0)
        members: list[int] = []
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                raise ValueError("empty item in index set text")
            item = _ITEM.fullmatch(piece)
            if item is None:
                raise ValueError(f"bad index set item {piece!r}")
            lo = int(item[1])
            hi = lo if item[2] is None else int(item[2])
            if lo > hi:
                raise ValueError(f"bad interval {piece!r}")
            if hi >= n:  # before the interval is expanded
                raise ValueError(f"index {hi} outside [0, {n - 1}]")
            members.extend(range(lo, hi + 1))
        return IndexSet.of(n, members)

    # -- basic set operations --------------------------------------------------

    def members(self) -> tuple[int, ...]:
        mask = self.mask
        return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def add(self, i: int) -> "IndexSet":
        if not 0 <= i < self.n:
            raise ValueError("index out of range")
        return IndexSet(self.n, self.mask | 1 << i)

    def remove(self, i: int) -> "IndexSet":
        return IndexSet(self.n, self.mask & ~(1 << i))

    def union(self, other: "IndexSet") -> "IndexSet":
        if other.n != self.n:
            raise ValueError("ambient size mismatch")
        return IndexSet(self.n, self.mask | other.mask)

    def __str__(self) -> str:
        return ",".join(map(str, self.members()))


class ComponentDecomp(NamedTuple):
    """Maximal-run decomposition; intervals are inclusive (lo, hi) pairs.

    zero_component is the run starting at 0, or None when 0 is absent.
    """

    zero_component: tuple[int, int] | None
    others: tuple[tuple[int, int], ...]

    @property
    def zero_size(self) -> int:
        if self.zero_component is None:
            return 0
        lo, hi = self.zero_component
        return hi - lo + 1

    @property
    def other_sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.others)

    @property
    def all_sizes(self) -> tuple[int, ...]:
        """Sizes of every component, the zero run first (0 when empty)."""
        return (self.zero_size,) + self.other_sizes


def _runs(mask: int) -> list[tuple[int, int]]:
    """(lo, size) of each run of set bits in mask, lowest first, read off
    with bit arithmetic."""
    runs, lo = [], 0
    while mask:
        skip = (mask & -mask).bit_length() - 1  # zeros below the next run
        mask >>= skip
        size = (~mask & (mask + 1)).bit_length() - 1  # trailing ones
        lo += skip
        runs.append((lo, size))
        mask >>= size
        lo += size
    return runs


def components(I: IndexSet) -> ComponentDecomp:
    """The runs of set bits in I.mask."""
    runs = [(lo, lo + size - 1) for lo, size in _runs(I.mask)]
    if runs and runs[0][0] == 0:
        return ComponentDecomp(runs[0], tuple(runs[1:]))
    return ComponentDecomp(None, tuple(runs))


def run_halves(mask: int) -> tuple[int, tuple[int, ...]]:
    """(zero run, halves) of a label mask in one scan: the size of the run
    of set bits from bit 0 (0 when bit 0 is clear), and half_sizes of the
    other runs, with no IndexSet or ComponentDecomp built."""
    zero = (~mask & (mask + 1)).bit_length() - 1  # trailing ones
    return zero, tuple(sorted([(size + 1) // 2 for _, size in _runs(mask >> zero)]))


def half_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    """The nonzero floor((size+1)/2) over component sizes, sorted: the parts
    of the x^2-multinomials, and all a closed formula reads of those runs."""
    return tuple(sorted(h for z in sizes if (h := (z + 1) // 2)))


def m_of(I: IndexSet) -> int:
    """m = sum over all components (the zero one included) of floor((size+1)/2)."""
    return sum(half_sizes(components(I).all_sizes))


def C_poly(I: IndexSet) -> IntPoly:
    """The x^2-multinomial over the component sizes (zero component included)."""
    parts = half_sizes(components(I).all_sizes)
    return q_multinomial(sum(parts), parts, base_exponent=2)


def compress(I: IndexSet) -> IndexSet:
    """Canonical compressed set with the same zero-size and component m-terms.

    With b_0 = |I_0| and b_k = |I_0| + sum_{i<=k} 2*floor((|I_i|+1)/2), the
    result is [0, b_0-1] u [b_0+1, b_1-1] u ... u [b_{s-1}+1, b_s-1].
    """
    decomp = components(I)
    mask = (1 << decomp.zero_size) - 1
    b = decomp.zero_size
    for z in decomp.other_sizes:
        nxt = b + 2 * ((z + 1) // 2)
        for i in range(b + 1, nxt):
            mask |= 1 << i
        b = nxt
    return IndexSet(I.n, mask)


def is_compressed(I: IndexSet) -> bool:
    """True iff I is a fixed point of compress, read off I's runs: each run
    past the zero run has odd size and starts one label past the end of
    the run before it (at label 1 when the zero run is empty)."""
    end = 0  # one past the previous run
    for lo, size in _runs(I.mask):
        if lo and (lo != end + 1 or size % 2 == 0):
            return False
        end = lo + size
    return True


def tilde(I: IndexSet) -> IndexSet:
    """I itself when 0 is absent; otherwise (I minus {0}) union {1}."""
    if 0 not in I:
        return I
    if I.n < 2:
        raise ValueError("no label 1 available in ambient [0, 0]")
    return IndexSet(I.n, tilde_mask(I.mask))


def tilde_mask(mask: int) -> int:
    """The mask of tilde: bit 0, when set, moves to bit 1."""
    return mask & ~1 | 2 if mask & 1 else mask


def noncyclotomic_condition(I: IndexSet) -> bool:
    """True iff n is even and {0} plus every odd label below n lies in I.

    Exactly these proper I make the type D quotient polynomial fail to be a
    product of cyclotomic polynomials.
    """
    if I.is_full:
        raise ValueError("condition defined for proper subsets only")
    n = I.n
    if n % 2:
        return False
    if 0 not in I:
        return False
    return all(i in I for i in range(1, n, 2))
