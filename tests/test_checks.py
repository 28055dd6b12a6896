"""Every named identity check passes at the fast tier."""

from dataclasses import replace

import numpy as np
import pytest

from oddlen import checks, chess, genfun
from oddlen.checks import CHECKS, CheckContext, run_checks


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


def test_family_restriction_drops_family_specific_rows():
    ctx = CheckContext.for_tier("fast")
    a_only = CheckContext(nmax=dict(ctx.nmax), families=("A",))
    rows = list(CHECKS["d-closed-match"](a_only))
    assert rows == []


def test_rank_cap_restricts_sweeps(fast_ctx):
    small = CheckContext(nmax={"A": 3, "B": 3, "D": 3}, families=("A", "B", "D"))
    rows = list(CHECKS["a-closed-match"](small))
    assert rows and max(r.n for r in rows) == 3


# Planted faults: each comparison must fail when one side is broken.
SMALL = {"A": 4, "B": 3, "D": 4}


def _failing(name):
    rows = list(CHECKS[name](CheckContext(nmax=dict(SMALL))))
    return rows, [r for r in rows if not r.ok]


def test_root_oracle_catches_a_perturbed_odd_length_weight(monkeypatch):
    build = genfun._build_plan

    def broken(family, n):
        plan = build(family, n)
        if n >= 2:
            plan.weights[0, len(plan.masks)] += 1  # pair (1, 2), first mask, odd length
        return plan

    monkeypatch.setattr(genfun, "_build_plan", broken)
    rows, bad = _failing("root-oracle")
    assert {(r.family, r.n) for r in bad} == {(r.family, r.n) for r in rows if r.n >= 2}


def test_root_oracle_catches_a_missing_positive_root(monkeypatch):
    build = checks.build_root_system

    def missing_root(family, n):
        rs = build(family, n)
        return replace(rs, _keys=rs._keys[1:])

    monkeypatch.setattr(checks, "build_root_system", missing_root)
    rows, bad = _failing("root-oracle")
    # Every group with a root fails: all but A1 and D1.
    assert {(r.family, r.n) for r in bad} == {
        (r.family, r.n) for r in rows if r.n >= 2 or r.family == "B"
    }


def test_additivity_catches_an_unsorted_factor(monkeypatch):
    factors = chess.sorting_factors

    def unsorted(rows, mask):
        _, u_mask, v = factors(rows, mask)
        return rows, u_mask, v

    monkeypatch.setattr(chess, "sorting_factors", unsorted)
    rows, bad = _failing("additivity-chessboard")
    assert rows and bad


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
    sums equal the quotient sums too: all full-tier rows pass, and only
    the element-wise tests in test_chess.py guard against such a fault."""
    monkeypatch.setattr(chess, "window_sandwich_free",
                        lambda rows, masks, c: np.ones((len(rows), len(masks)), dtype=bool))
    monkeypatch.setattr(chess, "k_sandwich_free", lambda rows, k: np.ones(len(rows), dtype=bool))
    ctx = CheckContext.for_tier("full")
    for name, count in (("support-window", 22), ("support-positional", 20)):
        rows = list(CHECKS[name](ctx))
        assert len(rows) == count and all(r.ok for r in rows)
