"""Exact polynomials over the integers, q-analogues, and cyclotomic tests.

Coefficients are Python ints (arbitrary precision, so overflow is impossible
by construction), stored densely in ascending degree with no trailing zeros.

Every closed product in the package has the form head * prod_d (1 - x^d)^a_d,
kept as an exponent map {d: a_d}: the q-multinomials, the alternating
products and the closed formulas of genfun each write one such map and call
`expand` once.  The degree D of such a product is known in advance, so
`expand` works modulo x^(D+1), in one list of D + 1 Python ints.
Multiplying by 1 - x^d is a descending r[i] -= r[i-d] and dividing by it
an ascending r[i] += r[i-d], one pass each; truncation loses nothing
because the product is a polynomial of degree D.

Since Phi_k = +-prod_{d|k} (1 - x^d)^mu(k/d), a product of cyclotomic
polynomials is also +-prod (1 - x^d)^a_d.  `cyclotomic_factors` first
rejects an argument that is not self-reciprocal, x^D p(1/x) = +-p, as every
such product is, with no peel.  It then reads the a_d off the low
coefficients, one d at a time, and decides from them: modulo x^(D+1)
first, and modulo x^(K(D)+1), past every possible factor Phi_k, only when
that leaves the answer open.  Its docstring gives the argument.  Trial
division by Phi_k is left to the tests, as the oracle the peel is checked
against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import exp, log
from operator import neg, sub
from typing import Iterable, Mapping, Sequence


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class IntPoly:
    """Immutable dense integer polynomial.

    >>> p = IntPoly([1, 1]) * IntPoly([1, -1])
    >>> p.coeffs
    (1, 0, -1)
    >>> str(p)
    '1 - x^2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = _trim(tuple(map(int, coeffs)))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(c: int, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return IntPoly((0,) * k + (c,))

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self / other in Z[x]; raises if the division is inexact."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPoly()
        dp, dq = self.degree, other.degree
        if dp < dq:
            raise ValueError("inexact polynomial division")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        out = [0] * (dp - dq + 1)
        for k in range(dp - dq, -1, -1):
            c = rem[k + dq]
            if c % lead:
                raise ValueError("inexact polynomial division")
            f = c // lead
            out[k] = f
            if f:
                for i, qc in enumerate(other.coeffs):
                    rem[k + i] -= f * qc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(out)

    def subs_x_power(self, b: int) -> "IntPoly":
        """Substitute x -> x^b."""
        if b < 1:
            raise ValueError("power must be >= 1")
        if self.is_zero:
            return self
        out = [0] * (self.degree * b + 1)
        for k, c in enumerate(self.coeffs):
            out[k * b] = c
        return IntPoly(out)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Ascending text form, e.g. '1 - x^2 + 2x^5'."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def _times(r: list[int], d: int, a: int) -> None:
    """r <- r * (1 - x^d)^a modulo x^len(r), in place; a < 0 divides."""
    size = len(r)
    if d >= size:
        return
    for _ in range(a):
        r[d:] = map(sub, r[d:], r[: size - d])
    for _ in range(-a):
        for c in range(d):
            r[c::d] = accumulate(r[c::d])


def _cyclotomic_exponents(exps: Mapping[int, int]) -> dict[int, int]:
    """The nonzero e_k with prod (1 - x^d)^a_d = +-prod Phi_k^e_k: e_k = sum_{k|d} a_d."""
    if min(exps, default=1) < 1:
        raise ValueError("factor exponents are indexed by d >= 1")
    a = [0] * (max(exps, default=0) + 1)
    for d, v in exps.items():
        a[d] = v
    return {k: e for k in range(1, len(a)) if (e := sum(a[k::k]))}


def expand(exps: Mapping[int, int], head: IntPoly = ONE) -> IntPoly:
    """head * prod_d (1 - x^d)^a_d for exps = {d: a_d}.

    The result must be a polynomial: the product is +-prod Phi_k^e_k with
    e_k = sum_{k|d} a_d, so Phi_k^(-e_k) must divide head wherever e_k < 0;
    ValueError otherwise.

    >>> expand({2: 1}).coeffs
    (1, 0, -1)
    >>> expand({2: 1, 1: -1}).coeffs
    (1, 1)
    >>> str(expand({4: 1, 2: -1}, head=IntPoly([1, 1])))
    '1 + x + x^2 + x^3'
    >>> expand({2: -1}, head=IntPoly([1, 1]))
    Traceback (most recent call last):
        ...
    ValueError: the product is no polynomial
    """
    for k, e in _cyclotomic_exponents(exps).items():
        if e < 0:
            try:
                head.exact_div(cyclotomic(k) ** -e)
            except ValueError:
                raise ValueError("the product is no polynomial") from None
    if head.is_zero:
        return ZERO
    r = list(head.coeffs)
    r += [0] * sum(d * a for d, a in exps.items())
    for d, a in exps.items():
        _times(r, d, a)
    return IntPoly(r)


def q_multinomial_exps(total: int, parts: Sequence[int], base_exponent: int = 1) -> Counter:
    """Exponents of [total; parts]_q at q = x^base_exponent: the q-factorial
    of total over those of the parts, with [k]_q! = prod_{j<=k} (1 - q^j) / (1 - q)^k."""
    if total < 0 or any(p < 0 for p in parts):
        raise ValueError("negative multinomial argument")
    if sum(parts) != total:
        raise ValueError("parts do not sum to total")
    exps: Counter = Counter()
    for j in range(1, total + 1):
        exps[base_exponent * j] += 1
    for p in parts:
        for j in range(1, p + 1):
            exps[base_exponent * j] -= 1
    return exps


def q_multinomial(total: int, parts: Sequence[int], base_exponent: int = 1) -> IntPoly:
    """[total; parts]_q at q = x^base_exponent.

    >>> q_multinomial(2, [1, 1], 2).coeffs
    (1, 0, 1)
    >>> q_multinomial(3, [1, 2], 1).coeffs
    (1, 1, 1)
    """
    return expand(q_multinomial_exps(total, parts, base_exponent))


def alt_exps(lo: int, hi: int, square: bool = False) -> Counter:
    """Exponents of alt_product: 1 - x^(j/2) for even j, and for odd j
    1 + x^((j-1)/2) = (1 - x^(j-1)) / (1 - x^((j-1)/2))."""
    if lo < 2 and lo <= hi:
        raise ValueError("alternating products start at j = 2")
    k = 2 if square else 1
    exps: Counter = Counter()
    for j in range(lo, hi + 1):
        if j % 2:
            exps[j - 1] += k
            exps[j // 2] -= k
        else:
            exps[j // 2] += k
    return exps


def alt_product(lo: int, hi: int, square: bool = False) -> IntPoly:
    """prod_{j=lo}^{hi} (1 + (-1)^(j-1) x^floor(j/2)), squared when asked;
    the empty product is 1 and lo must be at least 2.

    >>> alt_product(2, 3).coeffs
    (1, 0, -1)
    >>> alt_product(6, 4).coeffs
    (1,)
    """
    return expand(alt_exps(lo, hi, square))


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """k-th cyclotomic polynomial via x^k - 1 = prod_{d|k} Phi_d.

    >>> str(cyclotomic(6))
    '1 - x + x^2'
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = IntPoly.monomial(1, k) - ONE
    for d in range(1, k):
        if k % d == 0:
            out = out.exact_div(cyclotomic(d))
    return out


_EULER_GAMMA = 0.5772156649015329


def _totient_bound(D: int) -> int:
    """A power of two past every k with phi(k) <= D.

    Rosser and Schoenfeld (1962, Thm. 15, weakened constant):
    phi(k) > g(k) = k / (e^gamma log log k + 3 / log log k) for k >= 3, and
    g increases for k >= 3.  The first power of two with g > D + 1 (the 1
    absorbs float rounding) therefore bounds max{k : phi(k) <= D}.
    """
    k = 64
    while True:
        u = log(log(k))
        if k / (exp(_EULER_GAMMA) * u + 3 / u) > D + 1:
            return k
        k *= 2


# [phi, K] of _totients, replaced in place (the module's bindings never
# change) when a degree needs more: K's last index is the largest degree
# the table serves.
_TOTIENTS: list[tuple[int, ...]] = [(0,), (0,)]


def _totients(D: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(phi, K): phi(k) for k up to a bound past _totient_bound(D), and
    K[j] = max{k : phi(k) <= j} for j up to the largest degree asked so far.

    One module-level table, built on first use (never at import) and
    extended when a degree past K's end asks for it; phi is rebuilt larger
    only when that degree needs a larger bound, and neither ever shrinks.
    A degree the table serves costs one comparison.
    """
    phi, K = _TOTIENTS
    if D < len(K):
        return phi, K
    bound = _totient_bound(D)
    if len(phi) <= bound:
        sieve = list(range(bound + 1))
        for p in range(2, bound + 1):
            if sieve[p] == p:
                sieve[p::p] = [v - v // p for v in sieve[p::p]]
        phi = tuple(sieve)
    K = [0] * len(phi)
    for k in range(1, len(phi)):
        K[phi[k]] = k
    _TOTIENTS[:] = phi, tuple(accumulate(K[: D + 1], max))
    return _TOTIENTS[0], _TOTIENTS[1]


def _peel(r: list[int], D: int, phi: Sequence[int]) -> dict[int, int] | None:
    """{d: a_d} with r = prod (1 - x^d)^a_d mod x^len(r), where r(0) = 1, or
    None once the a_d break a bound that degree-D cyclotomic products obey
    (see cyclotomic_factors).  Consumes r."""
    exps: dict[int, int] = {}
    budget = 2 * D
    for d in range(1, len(r)):
        t = r[d]
        if not t:
            continue
        budget -= abs(t)
        if abs(t) * phi[d] > D or budget < 0:
            return None
        exps[d] = -t
        _times(r, d, t)
        if not any(r[d + 1 :]):
            break
    return exps


def cyclotomic_factors(p: IntPoly) -> list[int] | None:
    """Ascending multiset of k with p = +-prod Phi_k, or None when p is no
    such product.

    The sign unit makes this equivalent to every root of p being a root of
    unity.  Such a p has p(0) = +-1 and is self-reciprocal,
    x^D p(1/x) = +-p, as Phi_1 = x - 1 changes sign and every other Phi_k
    is a palindrome; any other p is rejected at once, before any peel.

    With D = deg p, a factor Phi_k of p has phi(k) <= D, so
    k <= K(D) = max{k : phi(k) <= D}, read from a cached totient table.
    Work modulo x^L, first with L = D + 1, then if need be with
    L = K(D) + 1.  Divide p by p(0) to get r, then peel d = 1, 2, ...:
    t = r[d] is the lowest nonconstant coefficient left, so
    r = (1 - x^d)^a_d * (1 + O(x^(d+1))) with a_d = -t, and multiplying r
    by (1 - x^d)^t removes it.  Once r = 1 mod x^L, set e_k = sum_{k|d} a_d,
    so that prod (1 - x^d)^a_d = +-prod Phi_k^e_k.

    Complete: if p = +-prod Phi_k^e_k, Moebius inversion of
    Phi_k = +-prod_{d|k} (1 - x^d)^mu(k/d) gives a_d = sum_{d|k} mu(k/d) e_k,
    nonzero only for d <= K(D); as (1 - x^d)^a_d = 1 mod x^L for d >= L,
    the peel, whose result mod x^L is unique, finds exactly the a_d with
    d < L, at either length.  As d | k implies phi(d) <= phi(k),
    |a_d| phi(d) <= sum_{d|k} e_k phi(k) <= D (so |a_d| <= sum e_k <= D);
    and sum |a_d| <= sum e_k 2^omega(k) <= 2 sum e_k phi(k) = 2D, since
    phi(k) >= prod_{q|k} (q - 1) >= 2^(omega(k) - 1).  A peel past either
    bound rejects early.

    Sound: the answer is yes only when every e_k >= 0 and
    sum e_k phi(k) = D.  Then p / p(0) and prod Phi_k^e_k (up to sign)
    agree modulo x^L and both have degree D < L, so they are equal.

    So the short peel, L = D + 1, settles every yes it finds (sound at any
    L > D) and every broken bound (it reads true a_d of a product, which
    obey both).  Only a failed final check, which a product with some
    factor Phi_k, k > D, can also meet (Phi_14 Phi_1 has degree 7), widens
    the peel to L = K(D) + 1, where the check decides.

    >>> cyclotomic_factors(IntPoly([1, 0, 0, 2, 0, 0, 1]))
    [2, 2, 6, 6]
    >>> cyclotomic_factors(IntPoly([1, 0, 3])) is None
    True
    """
    c = p.coeffs
    if not c or abs(c[0]) != 1:
        return None
    # Self-reciprocal: a palindrome, or -p reversed when the ends differ.
    if c[::-1] != (c if c[-1] == c[0] else tuple(map(neg, c))):
        return None
    D = p.degree
    phi, K = _totients(D)
    r = [v * c[0] for v in c]
    for L in (D + 1, K[D] + 1):
        exps = _peel(r + [0] * (L - D - 1), D, phi)
        if exps is None:
            return None
        e = _cyclotomic_exponents(exps)
        if min(e.values(), default=0) >= 0 and sum(v * phi[k] for k, v in e.items()) == D:
            return [k for k in sorted(e) for _ in range(e[k])]
    return None


def is_cyclotomic_product(p: IntPoly) -> bool:
    """True iff p is, up to sign, a (possibly empty) product of cyclotomics.

    >>> is_cyclotomic_product(IntPoly([1, 0, 2, 0, 1]))
    True
    >>> is_cyclotomic_product(IntPoly([1, 0, 3]))
    False
    """
    return cyclotomic_factors(p) is not None


def trinomial_cyclotomic(n: int, m: int) -> bool:
    """Closed criterion: x^n + 2x^m + 1 is a product of cyclotomics iff n = 2m."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return n == 2 * m
