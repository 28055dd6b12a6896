"""Every named identity check passes at the fast tier."""

import gc
import tracemalloc
import weakref
from collections import Counter
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from oddlen import checks, chess, rootsys, sweep
from oddlen.checks import CHECKS, CheckContext, run_checks
from oddlen.genfun import BUDGET, BudgetError, closed_factors, closed_poly
from oddlen.indexset import IndexSet, components, m_of
from oddlen.rootsys import build_root_system, root_counts
from oddlen.sweep import perm_blocks, sweep_plan


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_named_check_passes(fast_ctx, name):
    rows = list(CHECKS[name](fast_ctx))
    assert rows, f"{name} produced no rows"
    bad = [r for r in rows if not r.ok]
    assert not bad, f"{name}: {len(bad)} failing rows, first: {bad[0]}"


def test_run_checks_filters_by_name():
    ctx = CheckContext.for_tier("fast")
    rows = list(run_checks(ctx, only=["remark-values"]))
    assert rows
    assert {r.check for r in rows} == {"remark-values"}


def test_run_checks_rejects_unknown_names():
    ctx = CheckContext.for_tier("fast")
    with pytest.raises(KeyError):
        list(run_checks(ctx, only=["no-such-check"]))


ONE_FAMILY = {f: CheckContext.for_tier("fast", families=(f,)) for f in "ABD"}


@pytest.mark.parametrize("family", sorted(ONE_FAMILY))
@pytest.mark.parametrize("name", list(CHECKS))
def test_family_restriction_drops_family_specific_rows(name, family):
    """With one family selected, no row names another ('-' names none)."""
    rows = list(CHECKS[name](ONE_FAMILY[family]))
    allowed = {family, "-"} if name == "trinomial-criterion" else {family}
    assert {r.family for r in rows} <= allowed


# The fixed cases and the closed-form checks keep their own ranks.
UNCAPPED = {"point-values", "remark-values", "quotient-factor-divides", "conjecture-products",
            "cyclo-classification", "display-form-match", "trinomial-criterion"}
RANK_3 = CheckContext(nmax={"A": 3, "B": 3, "D": 3})


@pytest.mark.parametrize("name", list(CHECKS))
def test_rank_cap_restricts_sweeps(name):
    rows = list(CHECKS[name](RANK_3))
    if name.endswith("closed-match"):
        assert max(r.n for r in rows) == 3
    elif name not in UNCAPPED:
        assert all(r.n <= 3 for r in rows)


def test_closed_match_past_the_budget_raises():
    ctx = CheckContext(nmax={"D": BUDGET["D"] + 1})
    with pytest.raises(BudgetError):
        list(CHECKS["d-closed-match"](ctx))


# Planted faults: each comparison must fail when one side is broken.
SMALL = {"A": 4, "B": 3, "D": 4}


def _failing(name):
    rows = list(CHECKS[name](CheckContext(nmax=dict(SMALL))))
    return rows, [r for r in rows if not r.ok]


def _broken_plans(monkeypatch, fault):
    """Route every sweep plan through fault(plan), applied to a writable copy
    (the cached plans are read-only), then run root-oracle."""
    build = sweep._build_plan

    def broken(family, n):
        plan = deepcopy(build(family, n))
        fault(plan)
        return plan

    monkeypatch.setattr(sweep, "_build_plan", broken)
    return _failing("root-oracle")


def test_root_oracle_catches_a_perturbed_odd_length_weight(monkeypatch):
    def fault(plan):
        if plan.n >= 2:
            plan.weights[0, 0] += 1  # pair (1, 2), first mask: one more odd length

    rows, bad = _broken_plans(monkeypatch, fault)
    assert {(r.family, r.n) for r in bad} == {(r.family, r.n) for r in rows if r.n >= 2}


def test_root_oracle_catches_a_perturbed_descent_weight(monkeypatch):
    def fault(plan):
        if plan.n >= 3:
            # pair (2, 3), first mask: label 2 no longer read from P[1] > P[2]
            plan.weights[plan.n - 1, 0] -= 2 * plan.width << 2

    rows, bad = _broken_plans(monkeypatch, fault)
    assert {(r.family, r.n) for r in bad} == {(r.family, r.n) for r in rows if r.n >= 3}


def test_root_oracle_catches_a_flipped_mask_parity(monkeypatch):
    def fault(plan):
        if len(plan.masks) > 1:
            plan.parity[1] ^= 1  # the second sign mask: 0b1 in B, 0b11 in D

    rows, bad = _broken_plans(monkeypatch, fault)
    # A has one sign mask, and D1 too.
    assert {(r.family, r.n) for r in bad} == {
        (r.family, r.n) for r in rows if r.family == "B" or (r.family == "D" and r.n >= 2)
    }


def _broken_root_systems(monkeypatch, fault):
    """Route every root system through fault(rs), then run root-oracle."""
    build = checks.build_root_system
    monkeypatch.setattr(checks, "build_root_system", lambda family, n: fault(build(family, n)))
    return _failing("root-oracle")


def test_root_oracle_catches_a_missing_positive_root(monkeypatch):
    def fault(rs):
        coords = rs._coords.copy()
        coords[:1] = 0  # the first root's key is 0, never negative: it is never counted
        return replace(rs, _coords=coords)

    rows, bad = _broken_root_systems(monkeypatch, fault)
    # Every group with a root fails (w0 sends each root negative): all but A1 and D1.
    assert {(r.family, r.n) for r in bad} == {
        (r.family, r.n) for r in rows if r.n >= 2 or r.family == "B"
    }


def test_root_oracle_catches_a_wrong_readout_weight(monkeypatch):
    def fault(rs):
        if len(rs._coords):
            readout = rs._readout.copy()
            readout[0, 0] = 2  # the first root sent negative adds two to the length
            rs.__dict__["_readout"] = readout
        return rs

    rows, bad = _broken_root_systems(monkeypatch, fault)
    # Every group with a root fails (w0 sends each root negative): all but A1 and D1.
    assert {(r.family, r.n) for r in bad} == {
        (r.family, r.n) for r in rows if r.n >= 2 or r.family == "B"
    }


def test_root_oracle_catches_a_shifted_simple_root_index(monkeypatch):
    def fault(rs):
        label, k = rs._simple_idx[-1]
        shifted = (label, (k + 1) % len(rs._coords))  # the last simple root's next root
        return replace(rs, _simple_idx=rs._simple_idx[:-1] + (shifted,))

    rows, bad = _broken_root_systems(monkeypatch, lambda rs: fault(rs) if rs._simple_idx else rs)
    # A2 has one positive root, so the shift lands back on it; B1 has one too.
    assert {(r.family, r.n) for r in bad} == {
        (r.family, r.n) for r in rows if len(build_root_system(r.family, r.n)._coords) > 1
    }


def test_additivity_catches_an_unsorted_factor(monkeypatch):
    """L(u) read from a table whose u sorts the signed entries descending."""
    table = chess._sorted_u

    def descending(n):
        u = table(n)[0][:, ::-1]
        return u, np.argsort(np.abs(u), axis=1), chess._odd_lengths(sweep_plan("D", n), u)

    monkeypatch.setattr(chess, "_sorted_u", descending)
    rows, bad = _failing("additivity-chessboard")
    assert rows and bad == rows


def test_set_factorization_catches_a_dropped_head_sign_fix(monkeypatch):
    factors = chess.parabolic_factors

    def unsigned_head(elems, J):
        u, v = factors(elems, J)
        if 0 in J:
            u[:, 0] = np.abs(u[:, 0])
        return u, v

    monkeypatch.setattr(chess, "parabolic_factors", unsigned_head)
    rows = list(CHECKS["set-factorization"](CheckContext.for_tier("full")))
    assert len(rows) == 8 and not any(r.ok for r in rows)


def test_support_positional_catches_an_off_by_one_position_bound(monkeypatch):
    free = chess.k_sandwich_free
    monkeypatch.setattr(chess, "k_sandwich_free", lambda rows, k: free(rows, k + 1))
    rows, bad = _failing("support-positional")
    assert rows and bad == rows


def test_support_window_catches_an_over_restrictive_filter(monkeypatch):
    free = chess.window_sandwich_free

    def strict(rows, masks, c):
        return free(rows, masks, c) & free(rows, masks, c - 1)

    monkeypatch.setattr(chess, "window_sandwich_free", strict)
    rows, bad = _failing("support-window")
    assert rows and bad == rows


def test_support_rows_miss_a_permissive_filter(monkeypatch):
    """A filter that keeps everything leaves the chessboard support, whose
    sums equal the quotient sums too: all full-tier support rows pass.
    The set-factorization rows share the filters and do see the fault.  A
    context keeps the filters it built, so each patch gets its own."""
    keep_all = {
        "window_sandwich_free": lambda rows, masks, c: np.ones((len(rows), len(masks)), dtype=bool),
        "k_sandwich_free": lambda rows, k: np.ones(len(rows), dtype=bool),
    }
    with monkeypatch.context() as patch:
        for name, fn in keep_all.items():
            patch.setattr(chess, name, fn)
        ctx = CheckContext.for_tier("full")
        for name, count in (("support-window", 22), ("support-positional", 20)):
            rows = list(CHECKS[name](ctx))
            assert len(rows) == count and all(r.ok for r in rows)
    for name, want in (("window_sandwich_free", [(6, "0,1,3,5")]),
                       ("k_sandwich_free", [(5, "0,1,2,4"), (7, "0,1,2,4,5,6"), (7, "0,1,2,3,4,6")])):
        with monkeypatch.context() as patch:
            patch.setattr(chess, name, keep_all[name])
            ctx = CheckContext.for_tier("full")
            bad = [(r.n, r.set_text) for r in CHECKS["set-factorization"](ctx) if not r.ok]
        assert bad == want, name


SHARED = ("set-factorization", "support-chessboard", "support-window", "support-positional")


@pytest.mark.parametrize("names", [("root-oracle",), ("additivity-chessboard",), SHARED],
                         ids=["root-oracle", "additivity-chessboard", "shared-chessboard-arrays"])
def test_full_tier_array_passes_stay_small(names):
    """Each block of these checks is bounded by rootsys.BLOCK elements, and
    the arrays the context shares are small, so the whole full-tier pass
    (of all the checks named, on one context) allocates under 4 MB above
    its start.  The sweep's descent tables, bounded on their own by
    test_one_table_call_stays_small, are built before it starts."""
    warm = CheckContext.for_tier("full")
    list(run_checks(warm, list(names)))
    ctx = CheckContext.for_tier("full", tables=warm.tables)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows = list(run_checks(ctx, list(names)))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rows and all(r.ok for r in rows)
    assert peak < 4 << 20, f"{names} peaked at {peak / 2**20:.2f} MB"


def test_root_oracle_keys_one_block_at_a_time(monkeypatch):
    """With rootsys.BLOCK at 4096 elements, the full-tier root-oracle pass
    allocates under 512 KB above its start: it keys each block of rows as
    it reads it (about 424 KB), where holding every element's key of a
    group for the run read about 705 KB."""
    monkeypatch.setattr(rootsys, "BLOCK", 4096)
    list(run_checks(CheckContext.for_tier("full"), ["root-oracle"]))  # cached plans and roots
    ctx = CheckContext.for_tier("full")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows = list(run_checks(ctx, ["root-oracle"]))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rows and all(r.ok for r in rows)
    assert peak < 512 << 10, f"root-oracle peaked at {peak / 2**10:.0f} KB"


def test_root_oracle_reads_a10_in_small_blocks():
    """root-oracle's keying and root counts over the A10 row blocks it
    reads, perm_blocks(10, BLOCK // 45), allocate about 1 MB above their
    start, where perm_table(10) alone takes 69 MB; every element agrees."""
    rs, plan = build_root_system("A", 10), sweep_plan("A", 10)
    rs._readout  # cached on the root system, not the pass's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bad = total = 0
        for rows in perm_blocks(10, rootsys.BLOCK // len(plan.weights)):
            high, odd = np.divmod(plan.keys(rows), plan.width)
            length, want_odd, want_descents = root_counts(rs, rows, plan.masks)
            bad += np.count_nonzero(
                (high >> 1 != want_descents) | (high & 1 != length & 1) | (odd != want_odd))
            total += high.size
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (bad, total) == (0, 3628800)
    assert peak < 3 << 20, f"A10 root-oracle peaked at {peak / 2**20:.2f} MB"


def _count_builds(monkeypatch):
    """Count every build of a context's shared arrays by (builder, rank,
    parameter), and the elements SweepPlan.keys keys, under "keyed"."""
    calls = Counter()

    def counted(owner, name, what):
        real = getattr(owner, name)

        def wrapper(*args):
            out = real(*args)
            calls[what(out, *args)] += 1
            return out

        monkeypatch.setattr(owner, name, wrapper)

    counted(checks, "Chessboard", lambda out, family, n: ("board", family, n))
    counted(checks, "SetRecord", lambda out, family, n, mask, text: ("record", family, n, mask))
    counted(chess, "window_sandwich_free",
            lambda out, rows, masks, c: ("window_sandwich_free", rows.shape[1], c))
    counted(chess, "k_sandwich_free", lambda out, rows, k: ("k_sandwich_free", rows.shape[1], k))
    counted(checks, "pinned_tables", lambda out, family, n: ("pinned", family, n))
    keys = sweep.SweepPlan.keys

    def counted_keys(plan, rows, cols=slice(None)):
        out = keys(plan, rows, cols)
        calls["keyed"] += out.size
        return out

    monkeypatch.setattr(sweep.SweepPlan, "keys", counted_keys)
    return calls


def test_a_full_tier_context_builds_each_shared_array_once(monkeypatch):
    """One chessboard and one pinned pass per group, one filter per distinct
    (rank, parameter), every chessboard key once, and one record per index
    set of every rank a check visits.  The sorted-factor tables are cached
    per group, beyond any context; each run starts without them, so both
    key the same."""
    calls = _count_builds(monkeypatch)
    chess._sorted_u.cache_clear()
    rows = list(run_checks(CheckContext.for_tier("full")))
    assert len(rows) == 2175 and all(r.ok for r in rows)
    keyed = calls.pop("keyed")
    assert keyed <= 90_000  # 206,531 when each check keyed its own rows
    assert set(calls.values()) == {1}, [what for what, k in calls.items() if k > 1]
    builders = Counter(what[0] for what in calls)
    assert builders == {"board": 13, "window_sandwich_free": 6, "k_sandwich_free": 10,
                        "pinned": 4, "record": 890}
    # A1-A8, B1-B6 and D1-D8, every label subset: 255 + 126 + (1 + 508).
    ranks = Counter(what[1:3] for what in calls if what[0] == "record")
    assert ranks == {**{("A", n): 1 << (n - 1) for n in range(1, 9)},
                     **{("B", n): 1 << n for n in range(1, 7)},
                     **{("D", n): 1 << n if n > 1 else 1 for n in range(1, 9)}}
    # A second run's context builds them all again.
    first = Counter(calls)
    calls.clear()
    chess._sorted_u.cache_clear()
    list(run_checks(CheckContext.for_tier("full")))
    assert calls.pop("keyed") == keyed and calls == first


def test_set_records_die_with_their_context():
    """A record, its fields found, is freed with its context by reference
    counting alone: nothing else holds it, and it holds nothing back."""
    ctx = CheckContext.for_tier("fast")
    list(run_checks(ctx, only=["d-closed-match", "support-window", "quotient-factor-divides",
                               "cyclo-classification"]))
    records = ctx.records("D", 5)
    assert ctx.records("D", 5) is records
    assert CheckContext.for_tier("fast").records("D", 5)[0b101] is not records[0b101]
    assert set(vars(records[0b101])) == {"family", "I", "text", "parts", "m", "key", "closed",
                                         "factors"}
    refs = [weakref.ref(rec) for n in range(1, 7) for rec in ctx.records("D", n).values()]
    gc.disable()
    try:
        del ctx, records
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_set_records_match_the_public_reads():
    """Every record field equals the public function it stands for."""
    ctx = CheckContext.for_tier("fast")
    for family, top in (("A", 8), ("B", 7), ("D", 9)):
        for n in range(1, top + 1):
            for mask, rec in ctx.records(family, n).items():
                I = IndexSet(n, mask)
                assert (rec.family, rec.I, rec.text, str(rec)) == (family, I, str(I), str(I))
                assert (rec.parts, rec.m) == (components(I), m_of(I))
                assert rec.closed == closed_poly(family, n, I)
                assert rec.factors == closed_factors(family, n, I)


def test_reads_leave_no_cache_on_an_index_set():
    """Neither the closed forms nor the text keep anything on an IndexSet,
    so no read of a long-lived set is faster for having been made before."""
    ctx = CheckContext.for_tier("fast")
    list(run_checks(ctx, only=["d-closed-match", "cyclo-classification"]))
    sets = [IndexSet.of(6, [0, 2, 3]), ctx.records("D", 6)[0b1101].I]
    for I in sets:
        for family in "BD":
            closed_poly(family, 6, I)
            closed_factors(family, 6, I)
        str(I)
        assert vars(I) == {"n": 6, "mask": 0b1101}


def test_shared_arrays_are_read_only_and_die_with_their_context():
    ctx = CheckContext.for_tier("fast")
    board = ctx.board("D", 5)
    assert ctx.board("D", 5) is board
    assert CheckContext.for_tier("fast").board("D", 5) is not board
    shared = [board.rows, board.keys, board.descents, board.window_free(3), board.k_free(2)]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
    refs = [weakref.ref(array) for array in shared]
    del ctx, board, shared, array
    gc.collect()
    assert all(ref() is None for ref in refs)
