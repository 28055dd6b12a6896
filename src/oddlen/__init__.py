"""Exact sign-twisted generating functions over parabolic quotients.

Signed permutation groups of the three classical families carry, next to
the Coxeter length, an odd-length statistic counting inversions and
negative-sum pairs at odd distance.  This package enumerates the
generating function sum of (-1)^length x^(odd length) over every
parabolic quotient, evaluates the matching closed product formulas, and
decides when the resulting polynomial factors into cyclotomics.

The closed route (zpoly, indexset, sperm, genfun) is pure Python.  The
names backed by numpy, the sweep's and the checks', are read from
oddlen.sweep and oddlen.checks on each access (a module __getattr__), so
importing the package loads no numpy until one of them is used.
"""

from importlib import import_module

from .zpoly import (
    IntPoly,
    alt_product,
    cyclotomic,
    cyclotomic_factors,
    is_cyclotomic_product,
    q_multinomial,
    trinomial_cyclotomic,
)
from .indexset import IndexSet, compress, is_compressed, m_of, noncyclotomic_condition
from .sperm import SignedPerm, descent_set, ell, elements, odd_length
from .genfun import (
    BUDGET,
    TIERS,
    BudgetError,
    closed_A,
    closed_B,
    closed_D,
    closed_poly,
    M_of,
)

# The numpy-backed exports, by the module that defines them.
_LAZY = {
    "DescentTable": "sweep",
    "brute_quotient": "sweep",
    "brute_table": "sweep",
    "CheckContext": "checks",
    "CheckRow": "checks",
    "CHECKS": "checks",
    "run_checks": "checks",
}

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "IndexSet",
    "SignedPerm",
    "BUDGET",
    "BudgetError",
    "DescentTable",
    "TIERS",
    "CheckContext",
    "CheckRow",
    "CHECKS",
    "alt_product",
    "brute_quotient",
    "brute_table",
    "closed_A",
    "closed_B",
    "closed_D",
    "closed_poly",
    "compress",
    "cyclotomic",
    "cyclotomic_factors",
    "descent_set",
    "ell",
    "elements",
    "is_compressed",
    "is_cyclotomic_product",
    "m_of",
    "M_of",
    "noncyclotomic_condition",
    "odd_length",
    "q_multinomial",
    "run_checks",
    "trinomial_cyclotomic",
]


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
