"""Root systems for the three classical families, with the length statistics
computed straight from the definitions.

This module is the ground-truth oracle: lengths come from counting
positive roots sent negative, with no combinatorial shortcuts.  Heights
are the closed forms over the simple roots e_{i+1} - e_i, with e_1 in B
and e_1 + e_2 in D (i < j, 1-based): e_j - e_i has height j - i, B's e_i
height i and e_i + e_j height i + j, D's e_i + e_j height i + j - 2.
The tests check each against an exact linear solve.

Every root coordinate is -1, 0 or 1, and so is every coordinate of its
image under a signed permutation.  A vector c of such coordinates has the
balanced-ternary key sum_j c_j 3^j, which is one-to-one, and the key of -c
is minus the key of c.  Root counts run over arrays: a block of elements
sharing one sign mask sends every positive root to a key at once, and a
root counts when minus its image's key is a positive root's key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sperm import SignedPerm


def _e(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def _add(a: tuple[int, ...], b: tuple[int, ...], sb: int) -> tuple[int, ...]:
    return tuple(x + sb * y for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class RootSystem:
    family: str
    n: int
    positive_roots: tuple[tuple[int, ...], ...]
    heights: tuple[int, ...]
    simple_roots: tuple[tuple[int, tuple[int, ...]], ...]  # (label, coords)
    _coords: np.ndarray = field(repr=False)   # (roots, n) int8 positive-root coordinates
    _keys: np.ndarray = field(repr=False)     # balanced-ternary keys of the positive roots
    _odd_idx: tuple[int, ...] = field(repr=False)
    _simple_idx: tuple[tuple[int, int], ...] = field(repr=False)  # (label, root index)


def build_root_system(family: str, n: int) -> RootSystem:
    if n < 1:
        raise ValueError("n must be positive")
    if family not in ("A", "B", "D"):
        raise ValueError(f"unknown family {family!r}")
    roots: list[tuple[int, ...]] = []
    heights: list[int] = []
    if family == "B":
        roots = [_e(i, n) for i in range(1, n + 1)]
        heights = list(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(_add(_e(j, n), _e(i, n), -1))
            heights.append(j - i)
            if family != "A":
                roots.append(_add(_e(i, n), _e(j, n), 1))
                heights.append(i + j - 2 * (family == "D"))
    simples = [(i, _add(_e(i + 1, n), _e(i, n), -1)) for i in range(1, n)]
    if family == "B":
        simples.insert(0, (0, _e(1, n)))
    elif family == "D" and n >= 2:
        simples.insert(0, (0, _add(_e(1, n), _e(2, n), 1)))
    coords = np.array(roots, dtype=np.int8).reshape(-1, n)
    return RootSystem(
        family=family,
        n=n,
        positive_roots=tuple(roots),
        heights=tuple(heights),
        simple_roots=tuple(simples),
        _coords=coords,
        _keys=coords @ 3 ** np.arange(n, dtype=np.int64),
        _odd_idx=tuple(k for k, h in enumerate(heights) if h % 2 == 1),
        _simple_idx=tuple((label, roots.index(c)) for label, c in simples),
    )


def root_counts(rs: RootSystem, perms: np.ndarray,
                mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive roots, and odd-height positive roots, sent to negative roots
    by each element of a block, and its descent mask: bit i is set when the
    element sends the simple root labelled i to a negative root.

    Row P of perms (a permutation of range(n)) under the sign mask is the
    element with sigma(i) = -(P[i-1] + 1) where bit i-1 of mask is set and
    P[i-1] + 1 elsewhere.  It sends e_i to sgn(sigma(i)) e_{P[i-1]+1}, so
    root r goes to the vector with sgn(sigma(i)) r_i at coordinate P[i-1]:
    its key is the signed coordinate matrix times 3^P.
    """
    n = rs.n
    if perms.ndim != 2 or perms.shape[1] != n:
        raise ValueError("degree mismatch")
    if mask >> n or (rs.family == "A" and mask) or (rs.family == "D" and bin(mask).count("1") % 2):
        raise ValueError("element outside the family's group")
    sign = 1 - 2 * ((mask >> np.arange(n)) & 1)
    keys = (rs._coords * sign) @ (3 ** perms.astype(np.int64)).T  # (roots, rows)
    hits = np.isin(-keys, rs._keys)
    descents = np.zeros(hits.shape[1], dtype=np.int64)
    for label, k in rs._simple_idx:
        descents |= hits[k].astype(np.int64) << label
    return hits.sum(axis=0), hits[list(rs._odd_idx)].sum(axis=0), descents


def _one_row(rs: RootSystem, sigma: SignedPerm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return root_counts(rs, np.array([[abs(v) - 1 for v in sigma.images]]), sigma.sign_mask)


def length_via_roots(rs: RootSystem, sigma: SignedPerm) -> int:
    """Count of positive roots sent to negative roots."""
    return int(_one_row(rs, sigma)[0][0])


def odd_length_via_roots(rs: RootSystem, sigma: SignedPerm) -> int:
    """Count of odd-height positive roots sent to negative roots."""
    return int(_one_row(rs, sigma)[1][0])


def odd_root_count(family: str, n: int) -> int:
    """Number of odd-height positive roots (an upper bound for odd length)."""
    return len(build_root_system(family, n)._odd_idx)
