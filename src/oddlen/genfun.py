"""Sign-twisted generating functions over parabolic quotients: the
closed route, and the rank bounds of both routes.

The closed product formulas are exact integer-polynomial algebra in pure
Python, and this module imports no numpy.  It holds every rank bound:
BUDGET, which check_budget enforces on every enumeration, and TIERS, the
ranks each verify tier checks.  The enumeration route, the sweep and its
descent tables, is oddlen.sweep.  genfun serves that module's four public
names (DescentTable, brute_table, brute_quotient, brute_filtered) through
a module __getattr__ that reads oddlen.sweep on every access and caches
nothing, so importing genfun loads no numpy, and genfun.brute_table is
always sweep's current binding.

The closed formulas read an index set I only through a signature of its
runs, the half-sizes being the sorted nonzero (z+1)//2 over run sizes z
(indexset.half_sizes): in A the half-sizes of every run of I; in B the
zero-run size and the half-sizes of the other runs; in D the zero-run
size and the half-sizes of tilde(I).  closed_A/B/D check the rank and
labels on every call (closed_key, which then reads the signature from
one bit scan of the mask, indexset.run_halves) and call a core of
(n, signature) alone, cached without bound; closed_factors caches the
core's cyclotomic verdict on the same key.  The key counts grow like
partitions of n/2 (at n = 12, 30 in A, 120 in B, 129 in D, against 2,048
to 4,096 sets).  D's key needs no m(I): its head reads m(I) only when
the zero run has even size z >= 2, and then 1 is in I and z is not, so
tilde(I) = I minus {0} turns the run [0, z-1] into [1, z-1], of
half-size (z-1+1)//2 = z/2 = (z+1)//2, and leaves the other runs alone:
m(I) = m(tilde I), the sum of the key's half-sizes.  closed_core and
core_factors read the core and its verdict from a signature already
found, as the verify checks' per-run set records do.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .indexset import IndexSet, m_of, run_halves, tilde_mask
from .sperm import FAMILIES, label_mask
from .zpoly import (
    ONE,
    IntPoly,
    alt_exps,
    alt_product,
    cyclotomic_factors,
    expand,
    q_multinomial_exps,
)

BUDGET = {"A": 11, "B": 9, "D": 9}
TIERS = {
    "fast": {"A": 6, "B": 5, "D": 6},
    "full": {"A": 8, "B": 6, "D": 7},
    "extended": {"A": 9, "B": 7, "D": 8},
}

# The public names of oddlen.sweep that genfun serves (see above).
_SWEEP_NAMES = ("DescentTable", "brute_table", "brute_quotient", "brute_filtered")


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_SWEEP_NAMES])


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
    """Worker count: the argument, or 1 when it is None."""
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError("workers must be positive")
    return workers

def closed_key(family: str, n: int, index_set: IndexSet) -> tuple | None:
    """Check a closed formula's rank and index set, and return the
    signature its core reads (see above): (n, half-sizes) in A, (n, zero
    run, other half-sizes) in B, (n, zero run, half-sizes of tilde(I)) in
    D; None for D's full set, whose closed form is 1.  All of it comes from
    run_halves scans of the mask: A's shifted left, so that bit 0 is clear,
    and D's folded by tilde_mask when the zero run is not empty."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if index_set.n != n:
        raise ValueError("index set rank mismatch")
    labels, mask = label_mask(family, n), index_set.mask
    if mask & ~labels:
        raise ValueError(f"index set has labels outside the {family}_{n} generators")
    if family == "D" and mask == labels:
        return None
    if family == "A":
        return n, run_halves(mask << 1)[1]  # bit 0 clear: no zero run
    zero, halves = run_halves(mask)
    if family == "D" and zero:
        halves = run_halves(tilde_mask(mask))[1]  # bit 0 clear: every run counts
    return n, zero, halves


def closed_A(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the unsigned quotient polynomials."""
    return _closed_A(*closed_key("A", n, index_set))


@lru_cache(maxsize=None)
def _closed_A(n: int, halves: tuple[int, ...]) -> IntPoly:
    m = sum(halves)
    exps = q_multinomial_exps(m, halves, base_exponent=2)
    exps.update(alt_exps(2 * m + 2, n))
    return expand(exps)


def closed_B(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the signed quotient polynomials.

    [m; parts]_{x^2} * prod_{j>z} (1 - x^j) / prod_{i<=m} (1 - x^(2i)): the
    denominator cancels the multinomial's numerator, leaving the parts'
    x^2-factorials below the line.
    """
    return _closed_B(*closed_key("B", n, index_set))


@lru_cache(maxsize=None)
def _closed_B(n: int, zero: int, halves: tuple[int, ...]) -> IntPoly:
    exps: Counter = Counter(range(zero + 1, n + 1))
    for h in halves:
        for j in range(1, h + 1):
            exps[2 * j] -= 1
    return expand(exps)


def closed_D(n: int, index_set: IndexSet) -> IntPoly:
    """Product formula for the even-signed quotient polynomials."""
    key = closed_key("D", n, index_set)
    return ONE if key is None else _closed_D(*key)


@lru_cache(maxsize=None)
def _closed_D(n: int, zero: int, halves: tuple[int, ...]) -> IntPoly:
    # m is m(tilde I); the head reads m(I) only when zero is even and >= 2,
    # and then the two are equal (see the module docstring).
    m = sum(halves)
    exps = q_multinomial_exps(m, halves, base_exponent=2)
    exps.update(alt_exps(2 * ((zero + 2) // 2), n))
    exps.update(alt_exps(2 * m + 2, n))
    head = ONE
    if zero >= 2 and zero % 2 == 0:
        if n == 2 * m:
            # (1 + x^z + 2x^m) / (1 + x^m), and 1 + x^m = (1 - x^2m) / (1 - x^m)
            head = IntPoly.monomial(2, m) + IntPoly.monomial(1, zero) + ONE
            exps[2 * m] -= 1
            exps[m] += 1
        elif n > 2 * m:
            # 1 + x^z = (1 - x^2z) / (1 - x^z)
            exps[2 * zero] += 1
            exps[zero] -= 1
        else:
            raise AssertionError("n < 2 m cannot happen for a proper index set")
    return expand(exps, head)


_CORES = {"A": _closed_A, "B": _closed_B, "D": _closed_D}


def closed_poly(family: str, n: int, index_set: IndexSet) -> IntPoly:
    if family == "A":
        return closed_A(n, index_set)
    if family == "B":
        return closed_B(n, index_set)
    if family == "D":
        return closed_D(n, index_set)
    raise ValueError(f"unknown family {family!r}")


def closed_factors(family: str, n: int, index_set: IndexSet) -> tuple[int, ...] | None:
    """cyclotomic_factors of closed_poly(family, n, index_set), as a tuple:
    decided once per signature, as the closed form is built."""
    return core_factors(family, closed_key(family, n, index_set))


def closed_core(family: str, key: tuple | None) -> IntPoly:
    """The closed form of a closed_key signature: 1 for D's full set."""
    return ONE if key is None else _CORES[family](*key)


def core_factors(family: str, key: tuple | None) -> tuple[int, ...] | None:
    """closed_factors of a closed_key signature."""
    return () if key is None else _closed_factors(family, key)


@lru_cache(maxsize=None)
def _closed_factors(family: str, key: tuple) -> tuple[int, ...] | None:
    factors = cyclotomic_factors(_CORES[family](*key))
    return None if factors is None else tuple(factors)


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
