"""Per-layer spans recorded from outside the package.

A ``Tracer`` rebinds the public names of each ``oddlen`` module, in every
module that binds them (such as ``oddlen.checks.brute_table`` and
``oddlen.chess.ell_and_odd``), to wrappers that time each call, and puts
the original bindings back on ``restore``.  Calls made through references
captured before ``install`` (closures, default arguments) are not seen: the
``a/b/d-closed-match`` checks hold ``closed_A/B/D`` that way, so their
closed-form time lands in those checks' self time.

Spans are aggregated in memory as they end: per layer the call count, the
busy time of its outermost spans, and the self time (busy time minus the
time covered by child spans); per (parent, child) pair the call count and
busy time.
"""

from __future__ import annotations

import sys
import weakref
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter
from typing import Callable

from oddlen import checks, chess, cli, genfun, indexset, rootsys, sperm, zpoly
from workloads import SWEEP_TABLES, group_order

# (module, attribute, layer): the functions timed as spans.
TIMED = (
    (genfun, "brute_table", "genfun.brute_table"),
    (genfun, "brute_filtered", "genfun.brute_filtered"),
    (genfun, "closed_A", "genfun.closed"),
    (genfun, "closed_B", "genfun.closed"),
    (genfun, "closed_D", "genfun.closed"),
    (zpoly, "cyclotomic_factors", "zpoly.cyclotomic_factors"),
    (indexset, "noncyclotomic_condition", "indexset.noncyclotomic_condition"),
    (chess, "support_sum", "chess.support_sum"),
    (chess, "check_set_factorization", "chess.set_factorization"),
    (chess, "check_L_additivity", "chess.additivity"),
    (rootsys, "length_via_roots", "rootsys.oracle"),
    (rootsys, "odd_length_via_roots", "rootsys.oracle"),
    (sperm, "ell_and_odd", "sperm.ell_and_odd"),
    (sperm, "parabolic_factorize", "sperm.parabolic_factorize"),
    (cli, "main", "cli.main"),
)

LAYERS = (
    "genfun.brute_table",
    "genfun.zeta",
    "genfun.quotient_poly",
    "genfun.closed",
    "genfun.brute_filtered",
    "zpoly.cyclotomic_factors",
    "indexset.noncyclotomic_condition",
    "chess.support_sum",
    "chess.set_factorization",
    "chess.additivity",
    "rootsys.oracle",
    "sperm.ell_and_odd",
    "sperm.parabolic_factorize",
    "cli.main",
)


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter[str] = Counter()
        self._stack: list[_Frame] = []
        self._open: Counter[str] = Counter()
        self._undo: list[Callable[[], None]] = []
        self._read_tables: dict[int, weakref.ref] = {}

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._open[layer] += 1
        self._stack.append(_Frame(layer, perf_counter()))

    def _exit(self) -> float:
        end = perf_counter()
        frame = self._stack.pop()
        layer = frame.layer
        dur = end - frame.start
        self.calls[layer] += 1
        self.self_time[layer] += dur - frame.child
        self._open[layer] -= 1
        if not self._open[layer]:
            self.busy[layer] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        edge = self.edges[(parent.layer if parent else "bench", layer)]
        edge[0] += 1
        edge[1] += dur
        return dur

    def _timed(self, fn: Callable, layer: str | Callable[..., str], after=None) -> Callable:
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kw):
            tracer._enter(layer if isinstance(layer, str) else layer(*args))
            try:
                out = fn(*args, **kw)
            finally:
                dur = tracer._exit()
            if after is not None:
                after(args, kw, out, dur)
            return out

        return wrapper

    # -- per-layer hooks -----------------------------------------------------

    def _after_brute_table(self, args, kw, out, dur) -> None:
        family, n = args[0], args[1]
        self.counts["genfun.elements"] += group_order(family, n)
        if (family, n) in SWEEP_TABLES:
            self.counts[f"genfun.brute_table.{family}{n}.s"] += dur

    def _after_cyclotomic(self, args, kw, out, dur) -> None:
        self.counts["zpoly.cyclotomic_yes"] += out is not None
        degree = args[0].degree
        if degree > self.counts["zpoly.max_degree"]:
            self.counts["zpoly.max_degree"] = degree

    def _quotient_layer(self, table, *args) -> str:
        """The first read of a table runs the subset-sum transform."""
        seen = self._read_tables.get(id(table))
        if seen is not None and seen() is table:
            return "genfun.quotient_poly"
        self._read_tables[id(table)] = weakref.ref(table)
        return "genfun.zeta"

    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)

        return wrapper

    def _table_lookup(self, fn: Callable) -> Callable:
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kw):
            before = tracer.calls["genfun.brute_table"]
            out = fn(*args, **kw)
            built = tracer.calls["genfun.brute_table"] > before
            tracer.counts["checks.table_builds" if built else "checks.table_hits"] += 1
            return out

        return wrapper

    def _check(self, fn: Callable, layer: str) -> Callable:
        """Checks are generators: time each resumption as a span."""
        tracer = self

        @wraps(fn)
        def wrapper(ctx):
            gen = fn(ctx)
            while True:
                tracer._enter(layer)
                try:
                    row = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                tracer.counts["checks.rows"] += 1
                yield row

        return wrapper

    # -- binding ------------------------------------------------------------

    def _rebind(self, original: object, replacement: object) -> None:
        """Point every oddlen module attribute bound to original at replacement."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "oddlen" or name.startswith("oddlen.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(lambda m=module, a=attr: setattr(m, a, original))

    def _patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        hooks = {
            "genfun.brute_table": self._after_brute_table,
            "zpoly.cyclotomic_factors": self._after_cyclotomic,
        }
        for module, attr, layer in TIMED:
            fn = getattr(module, attr)
            self._rebind(fn, self._timed(fn, layer, hooks.get(layer)))
        self._rebind(sperm.in_quotient, self._counted(sperm.in_quotient, "sperm.in_quotient.calls"))
        table_cls = genfun.DescentTable
        self._patch_attr(table_cls, "quotient_poly",
                         self._timed(table_cls.quotient_poly, self._quotient_layer))
        self._patch_attr(checks.CheckContext, "table",
                         self._table_lookup(checks.CheckContext.table))
        for check_id, fn in list(checks.CHECKS.items()):
            checks.CHECKS[check_id] = self._check(fn, f"checks.{check_id}")
            self._undo.append(lambda k=check_id, f=fn: checks.CHECKS.__setitem__(k, f))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded so far, for a pass that
        took wall_s seconds in all."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for family, n in SWEEP_TABLES:
            key = f"genfun.brute_table.{family}{n}.s"
            out[key] = (self.counts[key], "s")
        out["genfun.elements"] = (self.counts["genfun.elements"], "count")
        cyc = self.calls["zpoly.cyclotomic_factors"]
        out["zpoly.cyclotomic_yes_ratio"] = (self.counts["zpoly.cyclotomic_yes"] / cyc if cyc else 0.0, "ratio")
        out["zpoly.max_degree"] = (self.counts["zpoly.max_degree"], "count")
        out["sperm.in_quotient.calls"] = (self.counts["sperm.in_quotient.calls"], "count")
        for check_id in checks.CHECKS:
            out[f"checks.{check_id}.s"] = (self.busy[f"checks.{check_id}"], "s")
            out[f"checks.{check_id}.self_s"] = (self.self_time[f"checks.{check_id}"], "s")
        for key in ("checks.rows", "checks.table_builds", "checks.table_hits"):
            out[key] = (self.counts[key], "count")
        out["cli.output.s"] = (self.self_time["cli.main"], "s")
        top = sum(dur for (parent, _), (_, dur) in self.edges.items() if parent == "bench")
        out["bench.self_s"] = (wall_s - top, "s")
        return out

    def edge_table(self) -> list[dict]:
        return [
            {"parent": parent, "child": child, "calls": calls, "s": dur}
            for (parent, child), (calls, dur) in sorted(self.edges.items())
        ]
