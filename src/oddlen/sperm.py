"""Signed permutations, their pair statistics, descents, and factorizations.

One-line notation is canonical: images[i-1] = sigma(i), and sigma(-i) is
always -sigma(i). S_n is the all-positive subgroup; D_n the even-negative
one; B_n everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

from .indexset import IndexSet

MAX_DEGREE = 16

FAMILIES = ("A", "B", "D")


def label_range(family: str, n: int) -> range:
    """Generator labels: 1..n-1 in type A, 0..n-1 in types B and D."""
    if family == "A":
        return range(1, n)
    if family in ("B", "D"):
        # D_1 is the trivial group; it has no generators at all.
        return range(0, n) if (family == "B" or n >= 2) else range(0, 0)
    raise ValueError(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def label_mask(family: str, n: int) -> int:
    r = label_range(family, n)
    return ((1 << len(r)) - 1) << r.start if len(r) else 0


@dataclass(frozen=True)
class SignedPerm:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}]")
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError("absolute values must permute 1..n")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(1, n + 1)))

    @staticmethod
    def from_text(text: str) -> "SignedPerm":
        """Parse one-line notation, e.g. '3 -2 5 1 -4'."""
        return SignedPerm(tuple(int(tok) for tok in text.split()))

    def __call__(self, i: int) -> int:
        if i > 0:
            return self.images[i - 1]
        if i < 0:
            return -self.images[-i - 1]
        raise ValueError("positions are nonzero")

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.images)

    # -- group structure ------------------------------------------------------

    def inverse(self) -> "SignedPerm":
        out = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                out[v - 1] = i
            else:
                out[-v - 1] = -i
        return SignedPerm(tuple(out))

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        return compose(self, other)

    # -- membership -------------------------------------------------------------

    @property
    def neg_count(self) -> int:
        return sum(1 for v in self.images if v < 0)

    @property
    def sign_mask(self) -> int:
        """Bit i-1 is set where sigma(i) is negative."""
        return sum(1 << i for i, v in enumerate(self.images) if v < 0)

    @property
    def in_S(self) -> bool:
        return self.neg_count == 0

    @property
    def in_D(self) -> bool:
        return self.neg_count % 2 == 0

    def in_family(self, family: str) -> bool:
        if family == "A":
            return self.in_S
        if family == "B":
            return True
        if family == "D":
            return self.in_D
        raise ValueError(f"unknown family {family!r}")


def compose(sigma: SignedPerm, tau: SignedPerm) -> SignedPerm:
    """(sigma tau)(i) = sigma(tau(i))."""
    if sigma.n != tau.n:
        raise ValueError("degree mismatch")
    return SignedPerm(tuple(sigma(tau(i)) for i in range(1, tau.n + 1)))


@dataclass(frozen=True)
class StatBundle:
    inv: int
    nsp: int
    oinv: int
    onsp: int


def stats(sigma: SignedPerm) -> StatBundle:
    """Pair statistics: inversions, negative-sum pairs, and their odd variants.

    Odd variants keep only pairs of positions with different parity.
    """
    img = sigma.images
    inv = nsp = oinv = onsp = 0
    for i in range(len(img)):
        for j in range(i + 1, len(img)):
            odd = (j - i) % 2 == 1
            if img[i] > img[j]:
                inv += 1
                if odd:
                    oinv += 1
            if img[i] + img[j] < 0:
                nsp += 1
                if odd:
                    onsp += 1
    return StatBundle(inv, nsp, oinv, onsp)


def ell_and_odd(sigma: SignedPerm, family: str) -> tuple[int, int]:
    """(length, odd length) from a single statistics pass.

    The length matches the root-count oracle; the odd length counts the
    odd-height positive roots negated, in combinatorial form.
    """
    s = stats(sigma)
    if family == "A":
        if not sigma.in_S:
            raise ValueError("type A needs an unsigned permutation")
        return s.inv, s.oinv
    if family == "D":
        if not sigma.in_D:
            raise ValueError("type D needs an even number of negative entries")
        return s.inv + s.nsp, s.oinv + s.onsp
    if family == "B":
        oneg = sum(1 for i in range(1, sigma.n + 1, 2) if sigma(i) < 0)
        return s.inv + s.nsp + sigma.neg_count, s.oinv + s.onsp + oneg
    raise ValueError(f"unknown family {family!r}")


def ell(sigma: SignedPerm, family: str) -> int:
    """Coxeter length (see ell_and_odd)."""
    return ell_and_odd(sigma, family)[0]


def odd_length(sigma: SignedPerm, family: str) -> int:
    """Odd length (see ell_and_odd)."""
    return ell_and_odd(sigma, family)[1]


def descent_set(sigma: SignedPerm, family: str) -> IndexSet:
    """Right descents as generator labels.

    Label i >= 1 is a descent iff sigma(i) > sigma(i+1). Label 0: type D
    compares sigma(0) := -sigma(2) against sigma(1); type B tests sigma(1) < 0.
    """
    if not sigma.in_family(family):
        raise ValueError("element outside the family's group")
    n = sigma.n
    mask = 0
    for i in range(1, n):
        if sigma(i) > sigma(i + 1):
            mask |= 1 << i
    if family == "D" and n >= 2 and -sigma(2) > sigma(1):
        mask |= 1
    if family == "B" and sigma(1) < 0:
        mask |= 1
    return IndexSet(n, mask)


def in_quotient(sigma: SignedPerm, I: IndexSet, family: str) -> bool:
    if I.n != sigma.n:
        raise ValueError("ambient size mismatch")
    if I.mask & ~label_mask(family, sigma.n):
        raise ValueError("label outside the family's generator range")
    return descent_set(sigma, family).mask & I.mask == 0


def right_generator(sigma: SignedPerm, i: int, family: str) -> SignedPerm:
    """sigma * s_i (right multiplication by a simple generator)."""
    if i not in label_range(family, sigma.n):
        raise ValueError(f"label {i} invalid for {family} at degree {sigma.n}")
    img = list(sigma.images)
    if i >= 1:
        img[i - 1], img[i] = img[i], img[i - 1]
    elif family == "D":
        img[0], img[1] = -img[1], -img[0]
    else:  # family == "B"
        img[0] = -img[0]
    return SignedPerm(tuple(img))


def parabolic_factorize(
    sigma: SignedPerm, J: IndexSet, family: str
) -> tuple[SignedPerm, SignedPerm]:
    """Split sigma = u * v with v in the J-parabolic and u without J-descents.

    Right-multiplies by descent generators from J until none remain; each
    step drops the length by one, so ell(sigma) = ell(u) + ell(v).
    """
    if J.mask & ~label_mask(family, sigma.n):
        raise ValueError("label outside the family's generator range")
    u = sigma
    while True:
        des = descent_set(u, family).mask & J.mask
        if not des:
            break
        i = (des & -des).bit_length() - 1
        u = right_generator(u, i, family)
    v = compose(u.inverse(), sigma)
    return u, v


def direct_product(sigma: SignedPerm, tau: SignedPerm) -> SignedPerm:
    """Block juxtaposition: tau's entries are shifted up by sigma's degree."""
    p = sigma.n
    shifted = tuple(v + p if v > 0 else v - p for v in tau.images)
    return SignedPerm(sigma.images + shifted)


# -- enumeration helpers --------------------------------------------------------


def signings(values: Sequence[int], family: str) -> Iterator[SignedPerm]:
    """Every group element with these absolute values, position by
    position: all sign masks in type B, the even ones in type D, and the
    unsigned arrangement alone in type A."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "A":
        yield SignedPerm(tuple(values))
        return
    for mask in range(1 << len(values)):
        if family == "D" and bin(mask).count("1") % 2:
            continue
        yield SignedPerm(tuple(-v if mask >> k & 1 else v for k, v in enumerate(values)))


def elements(family: str, n: int) -> Iterator[SignedPerm]:
    """All group elements: sign choices over every |value| arrangement."""
    for perm in permutations(range(1, n + 1)):
        yield from signings(perm, family)
