"""Import boundaries of the two routes: the closed route (zpoly, indexset,
sperm, genfun, cli) loads no numpy, and the numpy-backed names reach the
package and genfun through module __getattr__ hooks that cache nothing."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddlen
from oddlen import checks, genfun, indexset, sperm, sweep, zpoly

SRC = Path(oddlen.__file__).resolve().parents[1]
# The closed route's modules, and the modules none of them may import at
# module level.
CLOSED_ROUTE = ("__init__", "genfun", "cli", "indexset", "sperm", "zpoly")
HEAVY = ("numpy", "sweep", "checks", "chess", "rootsys")

# What a fresh interpreter runs: the named oddlen commands, then a report of
# their exit codes, their output and which heavy modules were loaded.
SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
import oddlen, oddlen.cli, oddlen.genfun
out = io.StringIO()
with redirect_stdout(out):
    codes = [oddlen.cli.main(argv) for argv in json.loads(sys.argv[1])]
heavy = ["numpy", "oddlen.sweep", "oddlen.checks", "oddlen.chess", "oddlen.rootsys"]
print(json.dumps({"codes": codes, "out": out.getvalue(),
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""

D6_02 = ("1 - x^2 - 2x^3 - 2x^4 + 2x^5 + 3x^6 + 4x^7 - 4x^9 - 3x^10 - 2x^11"
         " + 2x^12 + 2x^13 + x^14 - x^16")


def fresh_run(*argvs: list[str]) -> dict:
    """Run the commands in a fresh interpreter, with the package's source
    directory put in front of PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_closed_route_loads_no_numpy():
    got = fresh_run(["cyclo", "--trinomial", "6", "3"],
                    ["genfun", "-f", "D", "-n", "6", "-I", "0,2", "-m", "closed"])
    assert got["codes"] == [0, 0]
    assert got["out"] == f"yes: Phi_2^2 Phi_6^2\n{D6_02}\n"
    assert got["loaded"] == []


def test_the_commands_that_enumerate_load_the_sweep():
    got = fresh_run(["genfun", "-f", "D", "-n", "6", "-I", "0,2", "-m", "both"])
    assert got["codes"] == [0]
    assert got["out"] == f"closed: {D6_02}\nbrute:  {D6_02}\nequal: yes\n"
    assert got["loaded"] == ["numpy", "oddlen.sweep", "oddlen.rootsys"]
    got = fresh_run(["table", "-f", "D", "-n", "4"])
    assert got["codes"] == [0]
    assert hashlib.sha256(got["out"].encode()).hexdigest() == (
        "6b51debbf5dab7bd31983a5fc529b9a981f06a285a62f96646e482f3d4c35aca")
    assert got["loaded"] == ["numpy", "oddlen.sweep", "oddlen.rootsys"]


def module_level_imports(name: str) -> set[str]:
    """The modules a file of the package imports when it is itself imported:
    every import outside a function body, as the top-level name for an
    absolute import and the oddlen module name for a relative one."""
    tree = ast.parse((SRC / "oddlen" / f"{name}.py").read_text())
    found, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level:
                found.add(node.module.split(".")[0])
            else:
                parts = node.module.split(".")
                found.add(parts[1] if parts[0] == "oddlen" and len(parts) > 1 else parts[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("name", CLOSED_ROUTE)
def test_the_closed_route_imports_nothing_heavy_at_module_level(name):
    assert module_level_imports(name) & set(HEAVY) == set()


def test_the_import_scan_sees_the_sweep_modules_imports():
    # The scan is not vacuous: it finds what the enumeration modules import.
    assert {"numpy", "genfun", "rootsys"} <= module_level_imports("sweep")
    assert {"numpy", "sweep", "chess", "rootsys"} <= module_level_imports("checks")


def test_the_root_oracle_imports_nothing_it_checks():
    # rootsys is the independent oracle: its counts share no code with the
    # sweep, the chessboards, the checks or the closed formulas.
    found = module_level_imports("rootsys")
    assert {"numpy", "sperm"} <= found  # the scan is not vacuous
    assert found & {"sweep", "chess", "checks", "genfun"} == set()


def test_only_sweep_and_chess_read_perm_table():
    # A whole permutation table is built only by sweep's row sources and
    # chess's chessboard classes, so no n!-row array comes back unseen.
    # The scan is not vacuous: it must find both.
    readers = set()
    for path in (SRC / "oddlen").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "perm_table" in (getattr(node, "id", None), getattr(node, "attr", None)):
                readers.add(path.stem)
    assert readers == {"sweep", "chess"}


# Where each exported name is defined.
HOMES = {
    zpoly: ("IntPoly", "alt_product", "cyclotomic", "cyclotomic_factors",
            "is_cyclotomic_product", "q_multinomial", "trinomial_cyclotomic"),
    indexset: ("IndexSet", "compress", "is_compressed", "m_of", "noncyclotomic_condition"),
    sperm: ("SignedPerm", "descent_set", "ell", "elements", "odd_length"),
    genfun: ("BUDGET", "TIERS", "BudgetError", "closed_A", "closed_B", "closed_D",
             "closed_poly", "M_of"),
    sweep: ("DescentTable", "brute_quotient", "brute_table"),
    checks: ("CheckContext", "CheckRow", "CHECKS", "run_checks"),
}


def test_every_export_is_its_defining_modules_object():
    assert sorted(name for names in HOMES.values() for name in names) == sorted(oddlen.__all__)
    for module, names in HOMES.items():
        for name in names:
            obj = getattr(oddlen, name)
            assert obj is getattr(module, name), name
            if callable(obj):
                assert obj.__module__ == module.__name__, name
    assert set(oddlen.__all__) <= set(dir(oddlen))


@pytest.mark.parametrize("name", ["DescentTable", "brute_table", "brute_quotient", "brute_filtered"])
def test_genfun_serves_the_sweeps_names(name):
    assert getattr(genfun, name) is getattr(sweep, name)
    assert name in dir(genfun)


@pytest.mark.parametrize("module", [genfun, oddlen])
def test_an_unknown_name_raises_an_error_naming_the_module(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'nope'"):
        module.nope


def test_the_served_names_follow_a_rebinding(monkeypatch):
    # Nothing is cached: a patch of sweep's binding is what genfun and the
    # package return, and the original comes back with the undo.
    def fake(family, n, workers=None):
        raise AssertionError("not called")

    real = sweep.brute_table
    monkeypatch.setattr(sweep, "brute_table", fake)
    assert genfun.brute_table is fake
    assert oddlen.brute_table is fake
    monkeypatch.undo()
    assert genfun.brute_table is real
    assert oddlen.brute_table is real


# The benchmark's tracer rebinds these by name, so a rename breaks the
# benchmark though no package test calls it: the functions it times (its
# TIMED table, read from its source without importing bench) and the three
# attributes its install patches.
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PATCHED = (("sperm", "in_quotient"), ("genfun", "DescentTable.quotient_poly"),
           ("checks", "CheckContext.table"))


def traced_names() -> list[tuple[str, str]]:
    """(oddlen module, attribute) of every entry of the tracer's TIMED."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TIMED"]:
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/tracer.py has no TIMED table")


def test_the_benchmarks_traced_names_resolve():
    timed = traced_names()
    assert ("genfun", "brute_table") in timed  # the scan is not vacuous
    source = TRACER.read_text()
    for module, attr in timed + list(PATCHED):
        assert attr.split(".")[-1] in source, attr
        obj = importlib.import_module(f"oddlen.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{attr}"
