"""Self-tests of the benchmark's gates and tracer.

    python3 -m pytest bench -q

A perturbed coefficient must be counted as a mismatch by each workload's
gate, and a traced pass must leave every binding as it found it.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from oddlen import checks, cli, genfun  # noqa: E402
from oddlen.zpoly import IntPoly  # noqa: E402
from tracer import Tracer  # noqa: E402


def _perturb_one(monkeypatch, family, n, mask):
    """Make closed_poly return a wrong constant term for one index set."""
    real = genfun.closed_poly

    def closed_poly(f, k, I):
        p = real(f, k, I)
        if (f, k, I.mask) == (family, n, mask):
            return p + IntPoly((1,))
        return p

    monkeypatch.setattr(genfun, "closed_poly", closed_poly)


def test_sweep_gate_counts_a_perturbed_coefficient(monkeypatch):
    reads = workloads.sweep_inputs(7, tables=(("D", 4), ("B", 3)))
    assert workloads.sweep_pass(reads).failed == 0
    _perturb_one(monkeypatch, "D", 4, 0b0101)
    res = workloads.sweep_pass(reads)
    assert (res.attempted, res.failed) == (16 + 8, 1)
    assert res.failures[0].startswith("D4 {0,2}")


def test_closed_gate_counts_a_perturbed_coefficient(monkeypatch):
    sets = [s for s in workloads.closed_inputs(7) if s[1] <= 6]
    assert workloads.closed_pass(sets).failed == 0
    _perturb_one(monkeypatch, "D", 6, 0b000101)
    res = workloads.closed_pass(sets)
    assert res.failed >= 1
    assert all(line.startswith("D6 {0,2}") for line in res.failures)


def test_verify_gate_counts_changed_rows(monkeypatch):
    def main(argv):
        rows = [{"check": "x", "family": "D", "n": 4, "set": "0,2", "status": "fail", "detail": "1 + x"}]
        Path(argv[-1]).write_text(json.dumps(rows))
        return 0

    monkeypatch.setattr(cli, "main", main)
    res = workloads.verify_pass(workloads.VERIFY_ARGV)
    assert res.attempted == 4
    assert res.failed == 3  # row count, digest and the failing row


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "oddlen" or name.startswith("oddlen.")]
    return (
        [dict(vars(m)) for m in mods],
        dict(checks.CHECKS),
        genfun.DescentTable.quotient_poly,
        checks.CheckContext.table,
    )


def test_tracer_restores_every_binding_and_sees_nested_calls():
    before = _bindings()
    original = genfun.brute_table
    tracer = Tracer()
    tracer.install()
    try:
        assert checks.brute_table is not original
        ctx = checks.CheckContext(nmax={"A": 3, "B": 3, "D": 4}, workers=1)
        rows = list(checks.run_checks(ctx, ["d-closed-match", "cyclo-classification"]))
    finally:
        tracer.restore()
    assert _bindings() == before
    layers = tracer.metrics(1.0)
    assert layers["checks.rows"][0] == len(rows)
    assert layers["genfun.brute_table.calls"][0] == 4
    assert layers["genfun.zeta.calls"][0] == 4
    assert layers["checks.table_builds"][0] == 4
    assert layers["zpoly.cyclotomic_factors.calls"][0] > 0
    inner = layers["checks.cyclo-classification.s"][0]
    assert 0 < layers["checks.cyclo-classification.self_s"][0] < inner


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = workloads.Workload(
        "fake", "items", lambda seed: None,
        lambda inputs: workloads.PassResult(0.01, 1, 1, 0, [0.001] * 100),
    )
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        if trace:
            metrics = run.traced_run(fake, None, 0)[1]
        else:
            metrics = run.untraced_run(fake, None, 0, [0.1])[1]
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: unit for name, (_, unit) in metrics.items()} == want
