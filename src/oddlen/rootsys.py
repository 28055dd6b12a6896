"""Root systems for the three classical families, with the length statistics
computed straight from the definitions.

This module is the ground-truth oracle: lengths come from counting
positive roots sent negative, with no combinatorial shortcuts.  Heights
are the closed forms over the simple roots e_{i+1} - e_i, with e_1 in B
and e_1 + e_2 in D (i < j, 1-based): e_j - e_i has height j - i, B's e_i
height i and e_i + e_j height i + j, D's e_i + e_j height i + j - 2.
The tests check each against an exact linear solve.

Every positive root is e_j or e_j +- e_i (i < j): one or two nonzero
coordinates, each +-1, the higher one +1, as build_root_system asserts.
A root is negative exactly when its highest nonzero coordinate is.  A
signed permutation sends each coordinate of a root to one place, so the
image of a root with coordinates at lo <= hi is negative exactly when its
coordinate at the larger of the two places is.  So every count is linear
in the comparisons [P[lo] > P[hi]] of a row P, and root_counts reads a
block of rows by one float32 product.

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
    for root in roots:  # the facts root_counts reads
        support = [c for c in root if c]
        assert len(support) in (1, 2) and {*support} <= {1, -1} and support[-1] == 1, \
            f"{root} is not e_j or e_j +- e_i"
    return RootSystem(
        family=family,
        n=n,
        positive_roots=tuple(roots),
        heights=tuple(heights),
        simple_roots=tuple(simples),
        _coords=np.array(roots, dtype=np.int8).reshape(-1, n),
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
    element sending e_i to s_i e_{P[i]} (0-based), s_i = -1 where bit i of
    the mask is set.  A root c_lo e_lo + c_hi e_hi (lo = hi for B's e_i)
    goes to a root that is negative when its coordinate at max(P[lo],
    P[hi]) is: c_lo s_lo if P[lo] > P[hi], else c_hi s_hi.  So each count
    is a per-mask constant plus [P[lo] > P[hi]] times per-mask weights,
    (roots, 3 masks), in one product per span of rows within BLOCK.
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
    coords, nroots = rs._coords, len(rs._coords)
    # A column's partial sums are integers within its weights' sum: below 2^n
    # for the descent mask (distinct powers of 2), the root count otherwise.
    assert max(1 << n, nroots) <= 1 << 24, f"rank {n} counts are past float32's exact range"
    nonzero = coords != 0
    lo, hi = nonzero.argmax(axis=1), n - 1 - nonzero[:, ::-1].argmax(axis=1)
    # whether the coordinate at lo, and at hi, of each image is negative: (masks, roots)
    neg_lo, neg_hi = ((coords[np.arange(nroots), at] * (1 - 2 * negatives[:, at]) < 0)
                      .astype(np.float32) for at in (lo, hi))
    const = (neg_hi @ rs._readout).T.reshape(-1)  # columns by (count, mask)
    weights = (rs._readout.T[:, None, :] * (neg_lo - neg_hi)).reshape(3 * len(masks), nroots).T
    out = np.empty((len(perms), 3, len(masks)), dtype=np.int64)
    for rows in spans(len(perms), max(nroots, 3 * len(masks))):
        block = perms[rows]
        out[rows] = ((block[:, lo] > block[:, hi]).astype(np.float32) @ weights
                     + const).reshape(-1, 3, len(masks))
    return out[:, 0], out[:, 1], out[:, 2]


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
