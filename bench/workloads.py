"""The benchmark's three workloads: inputs made from a seed, one timed pass,
and the correctness gates whose failures feed the mismatch count.

Every call into the package goes through a module attribute
(``genfun.brute_table``, ``cli.main``, ...) so that the tracer's rebinding of
those names is seen here too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from time import perf_counter
from typing import Callable

from oddlen import cli, genfun, indexset, zpoly
from oddlen.indexset import IndexSet
from oddlen.sperm import label_mask

OUT_DIR = Path(__file__).resolve().parent / "out"

# The largest table of each family the enumeration budget allows.
SWEEP_TABLES = (("A", 10), ("B", 8), ("D", 8))

# Every proper D set up to this rank (the paper's classification range),
# then CLOSED_SAMPLES seeded sets per family at each rank in CLOSED_RANKS.
CLOSED_FULL_RANK = 8
CLOSED_RANKS = range(9, 21)
CLOSED_SAMPLES = 8

VERIFY_ARGV = ("verify", "--tier", "full", "--workers", "1", "--format", "json")
VERIFY_ROWS = 2175
# SHA-256 of the JSON rows written by VERIFY_ARGV; any change to a row,
# its order or the number format changes it.
VERIFY_SHA256 = "b3831313c7d5655355dbd76dd6e703269503a309b6a0e7486e8e79469402bcd5"


@dataclass
class PassResult:
    """What one pass did: wall time, work items, and gate outcomes."""

    wall_s: float
    items: int
    attempted: int
    failed: int
    latencies_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def gate(self, ok: bool, what: Callable[[], str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what())


def group_order(family: str, n: int) -> int:
    signs = {"A": 1, "B": 1 << n, "D": 1 << (n - 1)}[family]
    return factorial(n) * signs


def _subsets(family: str, n: int) -> list[IndexSet]:
    lm = label_mask(family, n)
    return [IndexSet(n, m) for m in range(1 << n) if m & ~lm == 0]


def _text(family: str, n: int, I: IndexSet) -> str:
    return f"{family}{n} {{{','.join(map(str, I.members()))}}}"


# ------------------------------------------------------------------ sweep


def sweep_inputs(seed: int, tables=SWEEP_TABLES) -> dict[tuple[str, int], list[IndexSet]]:
    """Every quotient of each table, in a seeded read order."""
    rng = random.Random(seed)
    reads = {}
    for family, n in tables:
        sets = _subsets(family, n)
        rng.shuffle(sets)
        reads[(family, n)] = sets
    return reads


def sweep_pass(reads: dict[tuple[str, int], list[IndexSet]]) -> PassResult:
    """Build each table once and compare every quotient with its closed form."""
    res = PassResult(0.0, 0, 0, 0)
    start = perf_counter()
    for (family, n), sets in reads.items():
        table = genfun.brute_table(family, n, workers=1)
        res.items += group_order(family, n)
        for I in sets:
            got = table.quotient_poly(I)
            want = genfun.closed_poly(family, n, I)
            res.gate(got == want, lambda: f"{_text(family, n, I)}: brute {got}, closed {want}")
    res.wall_s = perf_counter() - start
    return res


# ----------------------------------------------------------------- closed


def closed_inputs(seed: int) -> list[tuple[str, int, IndexSet]]:
    """All proper D sets up to CLOSED_FULL_RANK plus seeded proper A, B and
    D sets at the higher ranks, in a seeded order."""
    rng = random.Random(seed)
    sets = [
        ("D", n, I)
        for n in range(1, CLOSED_FULL_RANK + 1)
        for I in _subsets("D", n)
        if not I.is_full
    ]
    for n in CLOSED_RANKS:
        for family in ("D", "A", "B"):
            lm = label_mask(family, n)
            for _ in range(CLOSED_SAMPLES):
                mask = lm
                while mask == lm:
                    mask = rng.getrandbits(n) & lm
                sets.append((family, n, IndexSet(n, mask)))
    rng.shuffle(sets)
    return sets


def closed_pass(sets: list[tuple[str, int, IndexSet]]) -> PassResult:
    """Closed form, then the cyclotomic decision, per set.

    Type A and B quotient sums are always cyclotomic products; in type D
    the verdict must match the classification predicate and the squared
    alternating tail must divide the polynomial.
    """
    res = PassResult(0.0, len(sets), 0, 0)
    start = perf_counter()
    for family, n, I in sets:
        t = perf_counter()
        p = genfun.closed_poly(family, n, I)
        verdict = zpoly.cyclotomic_factors(p) is not None
        if family == "D":
            want = not indexset.noncyclotomic_condition(I)
            res.gate(verdict == want, lambda: f"{_text(family, n, I)}: verdict {verdict}")
            tail = zpoly.alt_product(2 * indexset.m_of(I) + 2, n, square=True)
            try:
                p.exact_div(tail)
                divides = True
            except ValueError:
                divides = False
            res.gate(divides, lambda: f"{_text(family, n, I)}: tail does not divide {p}")
        else:
            res.gate(verdict, lambda: f"{_text(family, n, I)}: {p} is no cyclotomic product")
        res.latencies_s.append(perf_counter() - t)
    res.wall_s = perf_counter() - start
    return res


# ----------------------------------------------------------------- verify


def verify_inputs(seed: int) -> tuple[str, ...]:
    """The command line is fixed; the seed changes nothing in it."""
    return VERIFY_ARGV


def rows_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_pass(argv: tuple[str, ...]) -> PassResult:
    """Run the verify command in-process and check its rows."""
    OUT_DIR.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="verify-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        start = perf_counter()
        code = cli.main([*argv, "-o", path])
        wall = perf_counter() - start
        data = Path(path).read_bytes()
    finally:
        os.unlink(path)
    rows = json.loads(data) if data else []
    res = PassResult(wall, len(rows), 0, 0)
    res.gate(code == 0, lambda: f"exit code {code}")
    res.gate(len(rows) == VERIFY_ROWS, lambda: f"{len(rows)} rows, want {VERIFY_ROWS}")
    digest = rows_digest(data)
    res.gate(digest == VERIFY_SHA256, lambda: f"rows digest {digest}")
    for r in rows:
        res.gate(r["status"] == "pass", lambda: f"{r['check']} {r['family']}{r['n']} {{{r['set']}}}: {r['detail']}")
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what items_per_s counts
    make_inputs: Callable[[int], object]
    run_pass: Callable[[object], PassResult]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "group elements", sweep_inputs, sweep_pass),
        Workload("closed", "index sets", closed_inputs, closed_pass),
        Workload("verify", "verify rows", verify_inputs, verify_pass),
    )
}
