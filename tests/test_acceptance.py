"""End-to-end acceptance criteria.

Each numbered test runs one criterion at its required scale, appends a
PASS/FAIL line to the session report (printed in the terminal summary),
and asserts exact integer-coefficient polynomial equality (tolerance 0)
plus the runtime bound where one applies.  The brute-force descent
tables are cached across criteria through the shared session fixture.
"""

import time

from oddlen.checks import CHECKS, CheckContext
from oddlen.genfun import closed_D
from oddlen.indexset import IndexSet
from oddlen.zpoly import IntPoly, is_cyclotomic_product


def _ctx(tables, workers=None, **nmax):
    return CheckContext(nmax=nmax, workers=workers, tables=tables)


def _run(ctx, names):
    rows = []
    for name in names:
        rows.extend(CHECKS[name](ctx))
    bad = [r for r in rows if not r.ok]
    return rows, bad


def _report(log, num, name, started, bad, nrows, bound=None):
    elapsed = time.perf_counter() - started
    ok = not bad and (bound is None or elapsed < bound)
    status = "PASS" if ok else "FAIL"
    log.append(
        f"criterion {num:02d} {name}: {status} "
        f"({nrows} comparisons, {elapsed:.1f}s)"
    )
    assert not bad, f"criterion {num}: {len(bad)} mismatches, first: {bad[0]}"
    if bound is not None:
        assert elapsed < bound, f"criterion {num}: {elapsed:.1f}s over {bound}s"


def test_c01_root_oracle_agreement(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, A=7, D=6)
    rows, bad = _run(ctx, ["root-oracle"])
    _report(acceptance_log, 1, "root-oracle agreement", started, bad, len(rows), 30)


def test_c02_point_values(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, A=4, D=4)
    rows, bad = _run(ctx, ["point-values"])
    _report(acceptance_log, 2, "point values", started, bad, len(rows))


def test_c03_type_a_closed_formula(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, A=8)
    rows, bad = _run(ctx, ["a-closed-match"])
    _report(acceptance_log, 3, "type A closed formula", started, bad, len(rows), 10)


def test_c04_type_b_closed_formula(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, B=6)
    rows, bad = _run(ctx, ["b-closed-match"])
    _report(acceptance_log, 4, "type B closed formula", started, bad, len(rows), 60)


def test_c05_type_d_closed_formula(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, workers=1, D=7)
    rows, bad = _run(ctx, ["d-closed-match"])
    _report(
        acceptance_log, 5, "type D closed formula", started, bad, len(rows), 60
    )

    started = time.perf_counter()
    ctx8 = _ctx(shared_tables, workers=1, D=8)
    table = ctx8.table("D", 8)
    mismatches = 0
    count = 0
    for mask in range(1 << 8):
        I = IndexSet(8, mask)
        count += 1
        if closed_D(8, I) != table.quotient_poly(I):
            mismatches += 1
    _report(
        acceptance_log,
        5,
        "type D closed formula, rank 8",
        started,
        ["mismatch"] * mismatches,
        count,
        600,
    )


def test_c06_support_restrictions(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, A=6, D=7)
    rows, bad = _run(
        ctx, ["support-chessboard", "support-window", "support-positional"]
    )
    _report(acceptance_log, 6, "support restrictions", started, bad, len(rows))


def test_c07_structural_identities(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, D=6)
    names = [
        "zero-one-swap",
        "even-prefix-split",
        "compression-invariance",
        "odd-prefix-product",
        "even-prefix-product",
        "tail-multinomial-split",
    ]
    rows, bad = _run(ctx, names)
    ctx8 = _ctx(shared_tables, D=8)
    recurrence_rows = list(CHECKS["even-case-recurrence"](ctx8))
    rows.extend(recurrence_rows)
    bad.extend(r for r in recurrence_rows if not r.ok)
    _report(acceptance_log, 7, "structural identities", started, bad, len(rows))


def test_c08_quotient_multipliers(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, D=7)
    rows, bad = _run(ctx, ["remark-values", "quotient-factor-divides"])
    _report(acceptance_log, 8, "quotient multipliers", started, bad, len(rows))


def test_c09_conjectured_products(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, D=8)
    rows, bad = _run(ctx, ["conjecture-products"])
    _report(acceptance_log, 9, "conjectured products", started, bad, len(rows))


def test_c10_cyclotomic_classification(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, D=8)
    rows, bad = _run(
        ctx,
        ["cyclo-classification", "display-form-match", "trinomial-criterion"],
    )
    _report(
        acceptance_log, 10, "cyclotomic classification", started, bad, len(rows)
    )


def test_c11_nonfactoring_quotient_value(shared_tables, acceptance_log):
    started = time.perf_counter()
    ctx = _ctx(shared_tables, D=4)
    I = IndexSet.of(4, [0, 1, 3])
    enumerated = ctx.quotient("D", 4, I)
    want = IntPoly((1, 0, 2, 0, -3))
    bad = []
    if enumerated != want:
        bad.append(f"enumerated {enumerated} != {want}")
    if closed_D(4, I) != want:
        bad.append("closed form disagrees")
    if is_cyclotomic_product(want):
        bad.append("value wrongly classified as a cyclotomic product")
    _report(
        acceptance_log, 11, "non-factoring quotient value", started, bad, 3
    )
