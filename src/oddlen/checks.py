"""Named identity checks behind the verify subcommand and the test suite.

Each check sweeps one family of statements over every qualifying rank and
index set, yielding a row per verified instance.  Which ranks a check visits
is decided in one place, the gate `_ranks`: nothing unless the family is
selected in the context, and for a check that enumerates, no rank past the
tier bound ctx.nmax[family]; a closed-form check says closed_form=True and
keeps its intrinsic range.  `_sets` runs over every index set of the gated
ranks, with the rank's descent table, as the context's one SetRecord per
(family, n, mask): the set's row text and, each found on first read, its
components, m(I), closed-form signature, closed form and verdict.  So a
run reads each set once; records die with the context, and nothing is
kept on an IndexSet or in a module-level memo.

Every enumerated sum is a descent-table read, and every table is the sweep
plan's one histogram over (rows x sign masks) arrays.  The context owns
every array a run derives from a rank, each built at most once, read-only,
and freed with the context; nothing outlives the run.  The full group's
tables come from the sweep.  The pinned-entry tables of a rank come
from sweep.pinned_tables, one pass that bins every element by its pin,
the position and sign of its entry +-n.  The chessboard checks
(supports, set factorizations, additivity) read one chess.Chessboard per
group, whose key array, sandwich filters and support tables serve every
check that needs them.  No array of n! rows or of the whole group's keys
is held: the root-count check reads the rows from sweep.perm_blocks, as
the pinned pass does, and its root counts, the sandwich filters and the
factors of the additivity check run in blocks of at most rootsys.BLOCK
elements per temporary array.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .indexset import (
    C_poly,
    IndexSet,
    components,
    compress,
    is_compressed,
    m_of,
    noncyclotomic_condition,
)
from .zpoly import (
    ONE,
    IntPoly,
    alt_product,
    is_cyclotomic_product,
    q_multinomial,
    trinomial_cyclotomic,
)
from .sperm import (
    SignedPerm,
    compose,
    direct_product,
    ell_and_odd,
    label_mask,
    odd_length,
    parabolic_factorize,
)
from . import rootsys
from .rootsys import build_root_system, length_via_roots, odd_length_via_roots, root_counts
from .genfun import (
    TIERS,
    closed_core,
    closed_D,
    closed_key,
    conjecture_rhs,
    conjecture_set,
    core_factors,
    M_of,
)
from .sweep import DescentTable, brute_table, perm_blocks, pinned_tables, sweep_plan
from .chess import Chessboard, chess_class, check_L_additivity

FILTER_CAP = 5  # rank bound for pinned-entry enumeration sweeps


@dataclass
class CheckRow:
    check: str
    family: str
    n: int
    set_text: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class _Field:
    """A SetRecord field, built on first read into the record's __dict__
    (functools.cached_property locks on each first read, twice the cost)."""

    def __init__(self, build: Callable[["SetRecord"], object]):
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, rec: "SetRecord | None", owner: type | None = None):
        if rec is None:
            return self
        value = rec.__dict__[self.name] = self.build(rec)
        return value


class SetRecord:
    """One index set I of a run: its row text str(I), also the record's
    str, and the fields the checks read of I, each built on first read."""

    def __init__(self, family: str, n: int, mask: int, text: str):
        self.family, self.I, self.text = family, IndexSet(n, mask), text

    def __str__(self) -> str:
        return self.text

    parts = _Field(lambda rec: components(rec.I))
    m = _Field(lambda rec: m_of(rec.I))
    key = _Field(lambda rec: closed_key(rec.family, rec.I.n, rec.I))
    closed = _Field(lambda rec: closed_core(rec.family, rec.key))
    factors = _Field(lambda rec: core_factors(rec.family, rec.key))


@dataclass
class CheckContext:
    """Shared rank bounds and every array a run derives from a rank: the
    brute-force descent tables by (family, n), the chessboard arrays (rows,
    keys, descents, sandwich filters, support tables) by (family, n), the
    pinned-entry tables of every pin by (family, n), the index-set records
    by (family, n), and the alternating tails zpoly.alt_product builds, by
    its arguments.  Each is built on first use, at most once, and freed
    with the context, so nothing outlives a run; the chessboard arrays are
    read-only.  The families checked are the keys of nmax, in its order."""

    nmax: dict[str, int]
    workers: int | None = None
    tables: dict[tuple[str, int], DescentTable] = field(default_factory=dict)
    _built: dict[tuple, object] = field(default_factory=dict, init=False, repr=False)

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(self.nmax)

    @staticmethod
    def for_tier(tier: str, families: Iterable[str] = ("A", "B", "D"), **kw) -> "CheckContext":
        return CheckContext(nmax={f: TIERS[tier][f] for f in families}, **kw)

    def table(self, family: str, n: int) -> DescentTable:
        key = (family, n)
        if key not in self.tables:
            self.tables[key] = brute_table(family, n, self.workers)
        return self.tables[key]

    def quotient(self, family: str, n: int, I: IndexSet) -> IntPoly:
        return self.table(family, n).quotient_poly(I)

    def _once(self, key: tuple, build: Callable[[], object]):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def board(self, family: str, n: int) -> Chessboard:
        """The chessboard arrays of one group, A or D."""
        return self._once(("board", family, n), lambda: Chessboard(family, n))

    def records(self, family: str, n: int) -> dict[int, SetRecord]:
        """The record of every generator-label subset of rank n, by mask, in
        binary-counter order; a text extends that of the mask minus its top."""
        def build() -> dict[int, SetRecord]:
            labels, texts = label_mask(family, n), {0: ""}
            for mask in range(1, 1 << n):
                top = mask.bit_length() - 1
                rest = mask ^ 1 << top
                texts[mask] = f"{texts[rest]},{top}" if rest else str(top)
            return {mask: SetRecord(family, n, mask, text)
                    for mask, text in texts.items() if mask & ~labels == 0}
        return self._once(("records", family, n), build)

    def pinned(self, family: str, n: int, I: IndexSet, pin: tuple[int, int]) -> IntPoly:
        """Quotient sum over the elements with pin = (b, v): sigma(b) = v."""
        tables = self._once(("pinned", family, n), lambda: pinned_tables(family, n))
        return tables[pin].quotient_poly(I)

    def alt(self, lo: int, hi: int, square: bool = False) -> IntPoly:
        """zpoly.alt_product(lo, hi, square), built once per run."""
        return self._once(("alt", lo, hi, square), lambda: alt_product(lo, hi, square=square))


def _row(check: str, family: str, n: int, where, ok: bool, detail: str = "") -> CheckRow:
    return CheckRow(check, family, n, str(where), "pass" if ok else "fail", detail)


def _ranks(ctx: CheckContext, family: str, lo: int, hi: int | None = None, step: int = 1,
           *, closed_form: bool = False) -> range:
    """The ranks lo, lo+step, ... of family that a check visits: none when
    the family is not selected, where "-" (no group) always is.  An
    enumerating check stops at hi and at the tier bound ctx.nmax[family];
    a closed-form check keeps its intrinsic range up to hi."""
    if family != "-" and family not in ctx.families:
        return range(0)
    top = ctx.nmax.get(family, 0)
    if hi is not None:
        top = hi if closed_form else min(hi, top)
    return range(lo, top + 1, step)


def _sets(ctx: CheckContext, family: str, lo: int, hi: int | None = None, step: int = 1,
          *, closed_form: bool = False) -> Iterator[tuple[int, DescentTable | None, SetRecord]]:
    """(n, table, record) for every generator-label subset, in binary-counter
    order, at each rank n of _ranks; table is the rank's descent table, or
    None for a closed-form check, which enumerates nothing."""
    for n in _ranks(ctx, family, lo, hi, step, closed_form=closed_form):
        table = None if closed_form else ctx.table(family, n)
        for rec in ctx.records(family, n).values():
            yield n, table, rec


def _match(check: str, family: str, n: int, where, got: IntPoly, want: IntPoly) -> CheckRow:
    """An equality row, naming both sides when they differ."""
    ok = got == want
    return _row(check, family, n, where, ok, "" if ok else f"got {got}, want {want}")


# ---------------------------------------------------------------- oracles


def check_root_oracle(ctx: CheckContext) -> Iterator[CheckRow]:
    """The sweep plan's descent mask, length parity and odd length agree
    with root-system counts on every element, in blocks of rows
    (sweep.perm_blocks) under every sign mask at once, and the root
    counts binned by all three are the rank's descent table."""
    hard = {"A": 7, "B": 5, "D": 6}
    for family in ctx.families:
        for n in _ranks(ctx, family, 1, hard[family]):
            rs = build_root_system(family, n)
            plan = sweep_plan(family, n)
            bad = total = 0
            binned = np.zeros((1 << n) * 2 * plan.width, dtype=np.int64)
            # a row has a key per sign mask and a comparison per position pair
            for rows in perm_blocks(n, rootsys.BLOCK // max(len(plan.masks), len(plan.weights))):
                length, odd, descents = root_counts(rs, rows, plan.masks)
                keys = (descents * 2 + length % 2) * plan.width + odd  # the sweep's key layout
                bad += np.count_nonzero(keys != plan.keys(rows))
                total += keys.size
                # a key past the table drops out, so the counts then differ
                binned += np.bincount(keys.ravel(), minlength=len(binned))[: len(binned)]
            same = np.array_equal(binned, ctx.table(family, n).counts.ravel())
            yield _row("root-oracle", family, n, "", bad == 0 and same, f"{total} elements")


def check_point_values(ctx: CheckContext) -> Iterator[CheckRow]:
    """Hand-checked values: statistics, products, factorizations, one table."""
    if "D" not in ctx.families:
        return
    sigma = SignedPerm.from_text("3 -2 5 1 -4")
    pair = ell_and_odd(sigma, "D")
    rs = build_root_system("D", 5)
    root_pair = (length_via_roots(rs, sigma), odd_length_via_roots(rs, sigma))
    yield _row(
        "point-values", "D", 5, "",
        pair == (11, 7) and root_pair == (11, 7),
        f"3 -2 5 1 -4 has (length, odd length) = {pair}",
    )

    tau = SignedPerm.from_text("-1 -3 2 4")
    labels = IndexSet.of(4, [1, 2, 3])
    u, v = parabolic_factorize(tau, labels, "D")
    parts = (odd_length(u, "D"), odd_length(v, "D"))
    yield _row(
        "point-values", "D", 4, "",
        odd_length(tau, "D") == 3 and parts == (1, 1) and not check_L_additivity(tau),
        f"-1 -3 2 4 splits odd length 3 as {parts[0]}+{parts[1]}",
    )
    yield _row(
        "point-values", "D", 4, "",
        chess_class(tau) is None,
        "-1 -3 2 4 is not a chessboard element",
    )

    prod = direct_product(SignedPerm.identity(2), SignedPerm.from_text("3 4 -2 -1"))
    yield _row(
        "point-values", "D", 6, "",
        prod == SignedPerm.from_text("1 2 5 6 -4 -3"),
        "direct product 12 x 34(-2)(-1) = 1256(-4)(-3)",
    )

    J = IndexSet.of(5, [0, 1, 2])
    for text, utext in (
        ("-5 -2 1 -4 -3", "1 2 5 -4 -3"),
        ("-5 -2 -1 4 -3", "-1 2 5 4 -3"),
    ):
        g = SignedPerm.from_text(text)
        u, v = parabolic_factorize(g, J, "D")
        ok = (
            u == SignedPerm.from_text(utext)
            and v == SignedPerm.from_text("-3 -2 1 4 5")
            and compose(u, v) == g
        )
        yield _row("point-values", "D", 5, "0,1,2", ok, f"{text} = {u} . {v}")

    I = IndexSet.of(4, [0, 1, 3])
    want = IntPoly((1, 0, 2, 0, -3))
    got = ctx.quotient("D", 4, I)
    yield _row(
        "point-values", "D", 4, "0,1,3",
        got == want == closed_D(4, I) and not is_cyclotomic_product(want),
        f"quotient sum {got}, not a cyclotomic product",
    )


# ------------------------------------------------- closed formula sweeps


def _closed_match(check: str, family: str) -> Callable[[CheckContext], Iterator[CheckRow]]:
    def run(ctx: CheckContext) -> Iterator[CheckRow]:
        for n, table, rec in _sets(ctx, family, 1):
            yield _match(check, family, n, rec, rec.closed, table.quotient_poly(rec.I))
    return run


check_a_closed = _closed_match("a-closed-match", "A")
check_b_closed = _closed_match("b-closed-match", "B")
check_d_closed = _closed_match("d-closed-match", "D")


# ------------------------------------------------------- support sweeps


def check_support_chessboard(ctx: CheckContext) -> Iterator[CheckRow]:
    """Quotient sums are unchanged by restriction to chessboard elements."""
    for family in ("D", "A"):
        for n, table, rec in _sets(ctx, family, 1, 6):
            got = ctx.board(family, n).table().quotient_poly(rec.I)
            want = table.quotient_poly(rec.I)
            yield _match("support-chessboard", family, n, rec, got, want)


def check_support_window(ctx: CheckContext) -> Iterator[CheckRow]:
    """Restriction to elements without odd sandwiches in the value window
    past the head block preserves the quotient sum."""
    for n, table, rec in _sets(ctx, "D", 4, 6):
        a0 = rec.parts.zero_size
        if not 2 <= a0 <= n - 2:
            continue
        got = ctx.board("D", n).table("H", a0 + 1).quotient_poly(rec.I)
        want = table.quotient_poly(rec.I)
        yield _match("support-window", "D", n, rec, got, want)


def check_support_positional(ctx: CheckContext) -> Iterator[CheckRow]:
    """Restriction to chessboard elements without positional odd sandwiches
    preserves the quotient sum on single-gap sets."""
    for n in _ranks(ctx, "D", 4, 7):
        table = ctx.table("D", n)
        for a0 in range(2, n - 1):
            I = IndexSet.full(n).remove(a0)
            support = ctx.board("D", n).table("T", a0)
            for J in (I, I.remove(0)):
                got = support.quotient_poly(J)
                want = table.quotient_poly(J)
                yield _match("support-positional", "D", n, J, got, want)


def check_additivity(ctx: CheckContext) -> Iterator[CheckRow]:
    """Odd length splits over the sorting factorization on chessboard
    elements (the off-chessboard counterexample sits in point-values)."""
    for n in _ranks(ctx, "D", 2, 7):
        additive = ctx.board("D", n).additive()
        yield _row("additivity-chessboard", "D", n, "", additive.all(),
                   f"{additive.size} chessboard elements")


# ---------------------------------------------------- structural sweeps


def check_zero_one_swap(ctx: CheckContext) -> Iterator[CheckRow]:
    """Adding label 0 or label 1 to a set disjoint from {0, 1} gives the
    same quotient sum."""
    for n, table, rec in _sets(ctx, "D", 2, 6):
        I = rec.I
        if 0 in I or 1 in I:
            continue
        got = table.quotient_poly(I.add(0))
        want = table.quotient_poly(I.add(1))
        yield _match("zero-one-swap", "D", n, I.add(0), got, want)


def _even_prefix_sets(ctx: CheckContext, hi: int) -> Iterator[tuple]:
    """(n, table, record, a0) at ranks 3..hi for the sets whose head block
    has even size a0 in [2, n-1] with a0+1 absent."""
    for n, table, rec in _sets(ctx, "D", 3, hi):
        a0 = rec.parts.zero_size
        if 2 <= a0 <= n - 1 and a0 % 2 == 0 and a0 + 1 not in rec.I:
            yield n, table, rec, a0


def check_even_prefix_split(ctx: CheckContext) -> Iterator[CheckRow]:
    """Closing an even head block scales the quotient sum by 1 + x^a0."""
    for n, table, rec, a0 in _even_prefix_sets(ctx, 6):
        got = table.quotient_poly(rec.I)
        want = (ONE + IntPoly.monomial(1, a0)) * table.quotient_poly(rec.I.add(a0))
        yield _match("even-prefix-split", "D", n, rec, got, want)


def check_compression_invariance(ctx: CheckContext) -> Iterator[CheckRow]:
    """A set with a head block of size >= 2 has the same quotient sum as
    its compression."""
    for n, table, rec in _sets(ctx, "D", 2, 6):
        if rec.parts.zero_size < 2:
            continue
        got = table.quotient_poly(rec.I)
        want = table.quotient_poly(compress(rec.I))
        yield _match("compression-invariance", "D", n, rec, got, want)


def _windows(n: int, rec: SetRecord) -> Iterator[tuple[int, int]]:
    """Odd-size components [i, i+2k] of I with i >= 3, i+2k+2 <= n outside I."""
    for lo, hi in rec.parts.others:
        if lo < 3 or (hi - lo) % 2:
            continue
        if hi + 2 > n or (hi + 2 <= n - 1 and hi + 2 in rec.I):
            continue
        yield lo, hi


def check_window_shift(ctx: CheckContext) -> Iterator[CheckRow]:
    """Sliding an odd-size interior component one step right (and taking the
    union with the original) preserves quotient and pinned-entry sums."""
    for n, table, rec in _sets(ctx, "D", 5, 6):
        I = rec.I
        for i, hi in _windows(n, rec):
            shifted = I.remove(i).add(hi + 1)
            trio = (I, I.union(shifted), shifted)
            polys = [table.quotient_poly(J) for J in trio]
            ok = polys[0] == polys[1] == polys[2]
            if ok and n <= FILTER_CAP:
                for b in range(1, n + 1):
                    if i <= b <= hi + 2:
                        continue
                    for v in (n, -n):
                        sums = [ctx.pinned("D", n, J, (b, v)) for J in trio]
                        ok = ok and sums[0] == sums[1] == sums[2]
            yield _row("window-shift", "D", n, rec, ok, f"component [{i},{hi}]")


def check_pinned_entry_sums(ctx: CheckContext) -> Iterator[CheckRow]:
    """Pinned-entry restricted sums: even-head scaling, compression
    invariance, the odd-head descent to rank n-1, and vanishing sums."""
    for n, _, rec, a0 in _even_prefix_sets(ctx, FILTER_CAP):
        scale = ONE + IntPoly.monomial(1, a0)
        for b in range(a0 + 2, n + 1):
            for v in (n, -n):
                got = ctx.pinned("D", n, rec.I, (b, v))
                want = scale * ctx.pinned("D", n, rec.I.add(a0), (b, v))
                yield _row("pinned-entry-sums", "D", n, rec, got == want,
                           f"even head, entry {v} at {b}")

    for n, _, rec in _sets(ctx, "D", 2, FILTER_CAP):
        a0 = rec.parts.zero_size
        if a0 < 2:
            continue
        got = ctx.pinned("D", n, rec.I, (a0, n))
        want = ctx.pinned("D", n, compress(rec.I), (a0, n))
        yield _row("pinned-entry-sums", "D", n, rec, got == want,
                   f"compression, entry {n} at {a0}")

    for n, _, rec in _sets(ctx, "D", 4, FILTER_CAP):
        I, a0 = rec.I, rec.parts.zero_size
        if a0 % 2 == 0 or not 3 <= a0 <= n - 1 or n - 1 in I or not is_compressed(I):
            continue
        got = ctx.pinned("D", n, I, (a0, n))
        scale = IntPoly.monomial(2 if n % 2 else -2, n // 2)
        want = scale * ctx.quotient("D", n - 1, IndexSet.of(n - 1, I.members()))
        yield _row("pinned-entry-sums", "D", n, rec, got == want,
                   f"odd head, entry {n} at {a0}")

    for n, _, rec in _sets(ctx, "D", 3, FILTER_CAP):
        I = rec.I
        for a in range(2, n):
            if a + 1 <= n - 1 and a + 1 in I:
                continue
            if a == 3 and (0 in I or 1 in I):
                continue
            if a >= 4 and a - 2 in I:
                continue
            ok = all(ctx.pinned("D", n, I, (a, v)).is_zero for v in (n, -n))
            yield _row("pinned-entry-sums", "D", n, rec, ok,
                       f"vanishing sum at position {a}")


def check_odd_prefix_product(ctx: CheckContext) -> Iterator[CheckRow]:
    """A set with an odd head block of size >= 3 reduces to its compression
    at the rank where the compression is cofinal."""
    for n, table, rec in _sets(ctx, "D", 3, 6):
        a0 = rec.parts.zero_size
        if a0 < 3 or a0 % 2 == 0:
            continue
        J = compress(rec.I)
        m = m_of(J)
        got = table.quotient_poly(rec.I)
        want = (
            ctx.quotient("D", 2 * m - 1, IndexSet.of(2 * m - 1, J.members()))
            * ctx.alt(2 * m, n, square=True)
        )
        yield _match("odd-prefix-product", "D", n, rec, got, want)


def check_even_prefix_product(ctx: CheckContext) -> Iterator[CheckRow]:
    """A set with an even head block whose compression is not cofinal
    factors through a widened set at a smaller rank."""
    for n, table, rec in _sets(ctx, "D", 3, 6):
        a0 = rec.parts.zero_size
        if a0 < 2 or a0 % 2:
            continue
        CJ = compress(rec.I)
        last = CJ.members()[-1] + 1
        if last > n - 1:
            continue
        gaps = [i for i in range(last) if i not in CJ] + [last]
        runs = [range(0, gaps[0] + 1)]
        runs += [range(lo + 2, hi + 1) for lo, hi in zip(gaps, gaps[1:])]
        J = IndexSet.of(last + 1, [i for run in runs for i in run])
        got = table.quotient_poly(rec.I)
        want = (
            (ONE + IntPoly.monomial(1, a0))
            * ctx.quotient("D", last + 1, J)
            * ctx.alt(last + 2, n, square=True)
        )
        yield _match("even-prefix-product", "D", n, rec, got, want)


def _compressed_cofinal(rec: SetRecord) -> bool:
    """A compressed set containing n-1 whose head block has size in [2, n-2]."""
    I = rec.I
    return 2 <= rec.parts.zero_size <= I.n - 2 and I.n - 1 in I and is_compressed(I)


def check_tail_multinomial_split(ctx: CheckContext) -> Iterator[CheckRow]:
    """A compressed cofinal set splits off a squared-variable multinomial
    against the single-gap set with the same head."""
    for n, table, rec in _sets(ctx, "D", 4, 6):
        if not _compressed_cofinal(rec):
            continue
        I, a0 = rec.I, rec.parts.zero_size
        J = IndexSet.full(n).remove(a0)
        bounds = [i for i in range(n) if i not in I] + [n]
        parts = [(hi - lo) // 2 for lo, hi in zip(bounds, bounds[1:])]
        got = table.quotient_poly(I)
        want = q_multinomial((n - a0) // 2, parts, 2) * table.quotient_poly(J)
        yield _match("tail-multinomial-split", "D", n, rec, got, want)


def check_even_case_recurrence(ctx: CheckContext) -> Iterator[CheckRow]:
    """Single-gap sets with even gap and even rank satisfy a two-term
    recurrence in rank n-1."""
    for n in _ranks(ctx, "D", 4, 8, 2):
        table = ctx.table("D", n)
        small = ctx.table("D", n - 1)
        for a0 in range(2, n - 1, 2):
            I = IndexSet.full(n).remove(a0)
            got = table.quotient_poly(I)
            lowered = small.quotient_poly(IndexSet.full(n - 1).remove(a0 - 1))
            widened = small.quotient_poly(IndexSet.full(n - 1).remove(a0 + 1)
                                          if a0 + 1 <= n - 2 else IndexSet.full(n - 1))
            head = ONE + IntPoly.monomial(1, a0) - IntPoly.monomial(2, a0 + n // 2)
            want = IntPoly.monomial(1, n - a0) * lowered + head * widened
            yield _match("even-case-recurrence", "D", n, I, got, want)


def check_factorizations(ctx: CheckContext) -> Iterator[CheckRow]:
    """Quotient set products: compressed cofinal sets split off an
    unsigned-quotient tail; odd single-gap sets at odd rank split off an
    embedded chessboard head."""
    for n, _, rec in _sets(ctx, "D", 4, 6):
        if _compressed_cofinal(rec):
            ok = ctx.board("D", n).set_factorization(rec.I, "H")
            yield _row("set-factorization", "D", n, rec, ok, "window variant")
    for n in _ranks(ctx, "D", 5, 7, 2):
        for a0 in range(3, n - 1, 2):
            I = IndexSet.full(n).remove(a0)
            ok = ctx.board("D", n).set_factorization(I, "T")
            yield _row("set-factorization", "D", n, I, ok, "positional variant")


def check_quotient_factor_divides(ctx: CheckContext) -> Iterator[CheckRow]:
    """The squared alternating tail divides every closed quotient sum.  The
    verdict reads n, m(I) and the closed form, which is one cached object
    per signature but does not fix m(I) (D5's {0, 2} and {0} share one,
    with m 2 and 1), so it is decided once per triple."""
    verdicts: dict[tuple[int, int, IntPoly], bool] = {}
    for n, _, rec in _sets(ctx, "D", 3, 7, closed_form=True):
        m, closed = rec.m, rec.closed
        key = (n, m, closed)
        if key not in verdicts:
            try:
                closed.exact_div(ctx.alt(2 * m + 2, n, square=True))
                verdicts[key] = True
            except ValueError:
                verdicts[key] = False
        ok = verdicts[key]
        yield _row("quotient-factor-divides", "D", n, rec, ok,
                   "" if ok else "tail does not divide")


def check_remark_values(ctx: CheckContext) -> Iterator[CheckRow]:
    """Four small cofactors of the squared alternating tail."""
    if "D" not in ctx.families:
        return

    def one_m(k: int) -> IntPoly:
        return ONE - IntPoly.monomial(1, k)

    cases = [
        (4, [0, 2], one_m(2) ** 3),
        (4, [0, 3], one_m(2) * one_m(4)),
        (6, [0, 2, 3, 5], one_m(3) * one_m(4) * one_m(6)),
        (6, [0, 2, 4, 5], one_m(3) ** 2 * one_m(4) ** 2),
    ]
    for n, members, want in cases:
        I = IndexSet.of(n, members)
        got = M_of(n, I)
        yield _row("remark-values", "D", n, I, got == want, f"cofactor {got}")


def check_conjecture_products(ctx: CheckContext) -> Iterator[CheckRow]:
    """The closed quotient sums of {0,i} and {0,1,i} match the conjectured
    uniform products."""
    for n in _ranks(ctx, "D", 5, 8, closed_form=True):
        # the conjectured products do not depend on i
        wants = {with_one: conjecture_rhs(n, 3, with_one) for with_one in (False, True)}
        for i in range(3, n):
            for with_one in (False, True):
                rec = ctx.records("D", n)[conjecture_set(n, i, with_one).mask]
                yield _match("conjecture-products", "D", n, rec, rec.closed, wants[with_one])


def check_cyclo_classification(ctx: CheckContext) -> Iterator[CheckRow]:
    """A proper-set quotient sum factors into cyclotomics exactly when the
    rank is odd or some odd label (or 0) is missing."""
    for n, _, rec in _sets(ctx, "D", 1, 8, closed_form=True):
        if rec.I.is_full:
            continue
        got = rec.factors is not None
        want = not noncyclotomic_condition(rec.I)
        yield _row("cyclo-classification", "D", n, rec, got == want,
                   "cyclotomic product" if want else "no cyclotomic factorization")


def check_display_form(ctx: CheckContext) -> Iterator[CheckRow]:
    """In the non-factoring case the quotient sum matches the explicit
    trinomial-over-binomial display."""
    for n, _, rec in _sets(ctx, "D", 2, 8, 2, closed_form=True):
        if rec.I.is_full or not noncyclotomic_condition(rec.I):
            continue
        a0 = rec.parts.zero_size
        trinom = ONE + IntPoly.monomial(1, a0) + IntPoly.monomial(2, n // 2)
        numer = C_poly(rec.I) * trinom * ctx.alt(a0 + 2, n)
        want = numer.exact_div(ONE + IntPoly.monomial(1, n // 2))
        yield _match("display-form-match", "D", n, rec, rec.closed, want)


def check_trinomial_criterion(ctx: CheckContext) -> Iterator[CheckRow]:
    """x^n + 2x^m + 1 is a cyclotomic product exactly when n = 2m."""
    for n in _ranks(ctx, "-", 2, 24, closed_form=True):
        for m in range(1, n):
            coeffs = [0] * (n + 1)
            coeffs[0] = coeffs[n] = 1
            coeffs[m] = 2
            p = IntPoly(coeffs)
            got = is_cyclotomic_product(p)
            want = trinomial_cyclotomic(n, m)
            yield _row("trinomial-criterion", "-", n, f"m={m}", got == want, "")


CHECKS: dict[str, Callable[[CheckContext], Iterator[CheckRow]]] = {
    "root-oracle": check_root_oracle,
    "point-values": check_point_values,
    "a-closed-match": check_a_closed,
    "b-closed-match": check_b_closed,
    "d-closed-match": check_d_closed,
    "support-chessboard": check_support_chessboard,
    "support-window": check_support_window,
    "support-positional": check_support_positional,
    "additivity-chessboard": check_additivity,
    "zero-one-swap": check_zero_one_swap,
    "even-prefix-split": check_even_prefix_split,
    "compression-invariance": check_compression_invariance,
    "window-shift": check_window_shift,
    "pinned-entry-sums": check_pinned_entry_sums,
    "odd-prefix-product": check_odd_prefix_product,
    "even-prefix-product": check_even_prefix_product,
    "tail-multinomial-split": check_tail_multinomial_split,
    "even-case-recurrence": check_even_case_recurrence,
    "set-factorization": check_factorizations,
    "quotient-factor-divides": check_quotient_factor_divides,
    "remark-values": check_remark_values,
    "conjecture-products": check_conjecture_products,
    "cyclo-classification": check_cyclo_classification,
    "display-form-match": check_display_form,
    "trinomial-criterion": check_trinomial_criterion,
}


def run_checks(ctx: CheckContext, only: list[str] | None = None) -> Iterator[CheckRow]:
    names = list(CHECKS) if only is None else only
    for name in names:
        if name not in CHECKS:
            raise KeyError(name)
        yield from CHECKS[name](ctx)
