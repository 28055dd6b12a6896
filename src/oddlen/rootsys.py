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
balanced-ternary key sum_j c_j 3^j, whose sign is that of its highest
nonzero coordinate: +1 for a positive root (build_root_system asserts a
positive key).  A signed permutation permutes the roots, so an image is a
negative root exactly when its key is negative.  Root counts run over
arrays: a block of absolute-value rows under a block of sign masks sends
every positive root to a key at once, by one float32 product (exact while
3^n <= 2^24, so up to n = 15, as root_counts asserts), and a root counts
when that key is negative.

No temporary array of the per-element checks (here, and the additivity
pass in chess) holds more than BLOCK elements: spans cuts their rows and
sign masks into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

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
    _odd_idx: tuple[int, ...] = field(repr=False)
    _simple_idx: tuple[tuple[int, int], ...] = field(repr=False)  # (label, root index)

    @cached_property
    def _readout(self) -> np.ndarray:
        """(roots, 3) float32 weights turning the roots an element sends
        negative into its length, odd length and descent mask."""
        weights = np.zeros((len(self._coords), 3), dtype=np.float32)
        weights[:, 0] = 1
        weights[list(self._odd_idx), 1] = 1
        for label, k in self._simple_idx:
            weights[k, 2] = 1 << label
        return weights


def build_root_system(family: str, n: int) -> RootSystem:
    if n < 1:
        raise ValueError("n must be positive")
    if family not in ("A", "B", "D"):
        raise ValueError(f"unknown family {family!r}")
    e = [(), *(_e(i, n) for i in range(1, n + 1))]  # e[i] = e_i
    roots: list[tuple[int, ...]] = []
    heights: list[int] = []
    if family == "B":
        roots = e[1:]
        heights = list(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(_add(e[j], e[i], -1))
            heights.append(j - i)
            if family != "A":
                roots.append(_add(e[i], e[j], 1))
                heights.append(i + j - 2 * (family == "D"))
    simples = [(i, _add(e[i + 1], e[i], -1)) for i in range(1, n)]
    if family == "B":
        simples.insert(0, (0, e[1]))
    elif family == "D" and n >= 2:
        simples.insert(0, (0, _add(e[1], e[2], 1)))
    coords = np.array(roots, dtype=np.int8).reshape(-1, n)
    assert (coords @ 3 ** np.arange(n, dtype=np.int64) > 0).all(), "a positive root's key is <= 0"
    return RootSystem(
        family=family,
        n=n,
        positive_roots=tuple(roots),
        heights=tuple(heights),
        simple_roots=tuple(simples),
        _coords=coords,
        _odd_idx=tuple(k for k, h in enumerate(heights) if h % 2 == 1),
        _simple_idx=tuple((label, roots.index(c)) for label, c in simples),
    )


BLOCK = 1 << 17  # elements in any one temporary array of a per-element check


def spans(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices covering range(count), max(1, BLOCK // size)
    items long: a span of items of size elements each stays within BLOCK."""
    step = max(1, BLOCK // max(size, 1))
    return (slice(i, i + step) for i in range(0, count, step))


def root_counts(rs: RootSystem, perms: np.ndarray,
                masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive roots, and odd-height positive roots, sent to negative roots
    by each row of perms under each sign mask of masks (a 1-D array), and
    its descent mask: bit i is set when the element sends the simple root
    labelled i to a negative root.  All three are (rows, masks) arrays.

    Row P of perms (a permutation of range(n)) under a sign mask is the
    element with sigma(i) = -(P[i-1] + 1) where bit i-1 of the mask is set
    and P[i-1] + 1 elsewhere.  It sends e_i to sgn(sigma(i)) e_{P[i-1]+1},
    so root r goes to the vector with sgn(sigma(i)) r_i at coordinate
    P[i-1]: its key is 3^P times the signed coordinate matrix, computed
    for blocks of rows x masks x roots within BLOCK, and the image is a
    negative root when that key is negative.
    """
    n = rs.n
    masks = np.asarray(masks, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise ValueError("degree mismatch")
    if masks.ndim != 1:
        raise ValueError("sign masks come as a 1-D array")
    negatives = (masks[:, None] >> np.arange(n)) & 1
    if (masks >> n).any() or (rs.family == "A" and masks.any()) or (
            rs.family == "D" and (negatives.sum(axis=1) % 2).any()):
        raise ValueError("element outside the family's group")
    nroots = len(rs._coords)
    signs = (1 - 2 * negatives).astype(np.float32)
    assert 3 ** n <= 1 << 24, f"rank {n} keys are past float32's exact range"
    powers = 3 ** np.arange(n, dtype=np.float32)
    out = [np.empty((len(perms), len(masks)), dtype=np.int64) for _ in range(3)]
    for rows in spans(len(perms), nroots):
        block = powers[perms[rows]]
        # a mask column holds a key per (row, root) and a coordinate per (i, root)
        for cols in spans(len(masks), nroots * max(len(block), n)):
            # coordinate i of root r under mask m, at column (m, r)
            signed = signs[cols].T[:, :, None] * rs._coords.T[:, None, :]
            nelems = len(block) * signed.shape[1]
            hits = (block @ signed.reshape(n, -1) < 0).reshape(nelems, nroots)
            counts = (hits.astype(np.float32) @ rs._readout).reshape(len(block), -1, 3)
            for k in range(3):
                out[k][rows, cols] = counts[:, :, k]
    return tuple(out)


def _one_row(rs: RootSystem, sigma: SignedPerm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    row = np.array([[abs(v) - 1 for v in sigma.images]])
    return root_counts(rs, row, np.array([sigma.sign_mask]))


def length_via_roots(rs: RootSystem, sigma: SignedPerm) -> int:
    """Count of positive roots sent to negative roots."""
    return int(_one_row(rs, sigma)[0][0, 0])


def odd_length_via_roots(rs: RootSystem, sigma: SignedPerm) -> int:
    """Count of odd-height positive roots sent to negative roots."""
    return int(_one_row(rs, sigma)[1][0, 0])


def odd_root_count(family: str, n: int) -> int:
    """Number of odd-height positive roots (an upper bound for odd length)."""
    return len(build_root_system(family, n)._odd_idx)
