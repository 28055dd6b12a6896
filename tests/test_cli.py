"""Command-line interface: subcommands, formats, and exit codes."""

import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import oddlen
from oddlen import checks, cli
from oddlen.genfun import brute_table, closed_poly
from oddlen.indexset import IndexSet
from oddlen.zpoly import IntPoly


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenfun:
    def test_closed_text(self, capsys):
        code, out, _ = run(["genfun", "-f", "D", "-n", "3", "-I", "0,2"], capsys)
        assert code == 0
        assert out.strip() == "1 - x^2"

    def test_json_record_matches_recomputation(self, capsys):
        code, out, _ = run(
            ["genfun", "-f", "D", "-n", "4", "-I", "0,2", "-m", "both",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "D"
        assert record["n"] == 4
        assert record["set"] == [0, 2]
        assert record["method"] == "both"
        assert record["equal"] is True
        closed = IntPoly(tuple(record["closed"]["coeffs"]))
        brute = IntPoly(tuple(record["brute"]["coeffs"]))
        want = closed_poly("D", 4, IndexSet.of(4, [0, 2]))
        assert closed == brute == want
        assert record["cyclotomicProduct"] is True

    def test_both_text_reports_equality(self, capsys):
        code, out, _ = run(
            ["genfun", "-f", "B", "-n", "3", "-I", "", "-m", "both"], capsys
        )
        assert code == 0
        assert "closed:" in out and "brute:" in out
        assert "equal: yes" in out

    def test_brute_over_budget_exits_3(self, capsys):
        code, _, err = run(
            ["genfun", "-f", "D", "-n", "10", "-I", "", "-m", "brute"], capsys
        )
        assert code == 3
        assert "budget" in err

    def test_closed_method_ignores_budget(self, capsys):
        code, out, _ = run(["genfun", "-f", "D", "-n", "12", "-I", "0"], capsys)
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize("method", ["closed", "brute", "both"])
    def test_d1_has_no_generators(self, capsys, method):
        # D_1 is the trivial group: label 0 is outside its (empty) range
        # for every method, and the empty set gives 1.
        code, _, err = run(["genfun", "-f", "D", "-n", "1", "-I", "0", "-m", method], capsys)
        assert code == 2
        assert "error" in err
        code, out, _ = run(["genfun", "-f", "D", "-n", "1", "-I", "", "-m", method], capsys)
        assert code == 0
        assert out.splitlines()[0].endswith("1")

    def test_bad_set_text_exits_2(self, capsys):
        code, _, err = run(["genfun", "-f", "D", "-n", "3", "-I", "9"], capsys)
        assert code == 2
        assert "error" in err

    def test_a_huge_interval_exits_2_before_it_is_expanded(self):
        # An interval past n is refused before it is expanded.  Expanded
        # first, this one asks for tens of GB, so the run gets its own
        # 1.5 GB address-space limit.
        src = Path(oddlen.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        limit = 1536 << 20
        done = subprocess.run(
            [sys.executable, "-m", "oddlen", "genfun", "-f", "D", "-n", "4", "-I", "0-1000000000"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.strip() == "error: index 1000000000 outside [0, 3]"

    @pytest.mark.parametrize("item", ["-1", "a", "1_0", "+2"])
    def test_malformed_set_item_is_named(self, capsys, item):
        code, _, err = run(["genfun", "-f", "D", "-n", "3", "-I", item], capsys)
        assert code == 2
        assert err.strip() == f"error: bad index set item {item!r}"


@pytest.mark.parametrize("rank", ["0", "-3"])
@pytest.mark.parametrize("argv", [["genfun", "-f", "D", "-I", "1"], ["table", "-f", "D"]])
def test_nonpositive_rank_is_named(capsys, argv, rank):
    # Parsed as a rank, not read as an index set's bound ("outside [0, -1]").
    code, _, err = run([*argv, "-n", rank], capsys)
    assert code == 2
    assert err.strip().endswith(f"argument -n: expected a positive integer, got {rank!r}")


class TestCyclo:
    def test_factoring_coeffs(self, capsys):
        code, out, _ = run(["cyclo", "--coeffs", "1,0,2,0,1"], capsys)
        assert code == 0
        assert out.strip() == "yes: Phi_4^2"

    def test_nonfactoring_coeffs(self, capsys):
        code, out, _ = run(["cyclo", "--coeffs", "1,0,2,0,-3"], capsys)
        assert code == 0
        assert out.strip() == "no"

    def test_negative_leading_coefficient(self, capsys):
        # x^2 - 1 = Phi_1 Phi_2.  Only the --coeffs= form passes a value that
        # starts with '-'; a separate "-1,0,1" reads as an option.
        code, out, _ = run(["cyclo", "--coeffs=-1,0,1"], capsys)
        assert code == 0
        assert out.strip() == "yes: Phi_1 Phi_2"
        code, _, err = run(["cyclo", "--coeffs", "-1,0,1"], capsys)
        assert code == 2
        assert "argument --coeffs: expected one argument" in err

    def test_empty_product(self, capsys):
        code, out, _ = run(["cyclo", "--coeffs", "1"], capsys)
        assert code == 0
        assert "empty product" in out

    def test_trinomial_json(self, capsys):
        code, out, _ = run(
            ["cyclo", "--trinomial", "6", "3", "--format", "json"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["cyclotomicProduct"] is True
        assert record["factors"] == [2, 2, 6, 6]
        assert out == (
            '{"coeffs": [1, 0, 0, 2, 0, 0, 1], "cyclotomicProduct": true, '
            '"factors": [2, 2, 6, 6]}\n'
        )

    def test_trinomial_rejects_bad_split(self, capsys):
        code, _, err = run(["cyclo", "--trinomial", "4", "5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args, untouched", [
        (["--trinomial", "100000", "1"], ("IntPoly", "cyclotomic_factors")),
        (["--coeffs", ",".join(["1"] + ["0"] * cli.CYCLO_MAX_DEGREE + ["1"])],
         ("cyclotomic_factors",)),
    ])
    def test_degree_past_the_limit_exits_2_first(self, args, untouched, capsys, monkeypatch):
        """A trinomial is refused before its coefficients are built, and any
        input before the cyclotomic test starts."""
        def refuse(*_):
            raise AssertionError("work started on a refused input")

        for name in untouched:
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(["cyclo", *args], capsys)
        assert code == 2
        assert out == ""
        assert f"exceeds the cyclo limit {cli.CYCLO_MAX_DEGREE}" in err

    def test_degree_at_the_limit_is_decided(self, capsys):
        top = cli.CYCLO_MAX_DEGREE
        code, out, _ = run(["cyclo", "--trinomial", str(top), str(top // 2)], capsys)
        assert code == 0
        assert out.startswith("yes: ")


class TestTable:
    def test_text_lists_every_subset(self, capsys):
        code, out, _ = run(["table", "-f", "D", "-n", "2"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 4
        assert lines[0].startswith("{}")

    def test_json_buckets_round_trip(self, capsys):
        code, out, _ = run(["table", "-f", "A", "-n", "3", "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "A"
        assert record["n"] == 3
        sets = [tuple(b["set"]) for b in record["buckets"]]
        assert sets == [(), (1,), (2,), (1, 2)]

    def test_over_budget_exits_3(self, capsys):
        code, _, _ = run(["table", "-f", "A", "-n", "12"], capsys)
        assert code == 3


class TestVerify:
    def test_single_check_text(self, capsys):
        code, out, err = run(["verify", "--only", "remark-values"], capsys)
        assert code == 0
        assert "remark-values" in out
        assert "0 failures" in err

    def test_list_checks(self, capsys):
        code, out, _ = run(["verify", "--list-checks"], capsys)
        assert code == 0
        listed = out.split()
        assert set(listed) == set(checks.CHECKS)

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run(["verify", "--only", "bogus"], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["--only", ""], "no check ids selected", id="only-empty"),
            pytest.param(["--only", ","], "no check ids selected", id="only-comma"),
            pytest.param(["--families", ",,"], "no families selected", id="families-commas"),
        ],
    )
    def test_an_empty_selection_exits_2(self, capsys, argv, message):
        code, out, err = run(["verify", *argv], capsys)
        assert (code, out) == (2, "")
        assert message in err and "rows" not in err

    def test_a_repeated_check_id_exits_2(self, capsys):
        code, out, err = run(
            ["verify", "--only", "root-oracle,remark-values,root-oracle"], capsys)
        assert (code, out) == (2, "")
        assert "given more than once: root-oracle" in err

    @pytest.mark.parametrize("families", ["D,D", "d,B,D", "A, a"])
    def test_a_repeated_family_exits_2(self, capsys, families):
        """A family named twice, in any case, is refused, not merged."""
        code, out, err = run(["verify", "--families", families], capsys)
        assert (code, out) == (2, "")
        repeated = families.split(",")[-1].strip().upper()
        assert f"families given more than once: {repeated}" in err and "rows" not in err

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            ["verify", "--only", "remark-values", "--format", "csv",
             "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["family", "n", "set", "check", "status"]
        assert all(r[3] == "remark-values" and r[4] == "pass" for r in rows[1:])

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["verify", "--only", "trinomial-criterion", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["status"] == "pass" for r in rows)
        assert {r["check"] for r in rows} == {"trinomial-criterion"}

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([], id="empty"),
            pytest.param(
                [checks.CheckRow("say \"hi\"", "D", 5, 'a\\b "c"', "pass"),
                 checks.CheckRow("x", "A", 12, "0,1", "fail", 'got "1 - x", want \\ x\n\t'),
                 checks.CheckRow("é∅", "B", 3, "{ü}", "fail", "Φ₃ 𝔖 \u0001 \u2028")],
                id="escapes",
            ),
        ],
    )
    def test_json_rows_match_the_indenting_encoder(self, rows):
        records = [
            {"check": r.check, "family": r.family, "n": r.n, "set": r.set_text,
             "status": r.status, "detail": r.detail}
            for r in rows
        ]
        out = io.StringIO()
        cli._write_verify(rows, "json", out)
        assert out.getvalue() == json.dumps(records, indent=2) + "\n"

    def test_json_rows_encode_each_name_once(self, monkeypatch):
        # Check ids, families and statuses repeat across rows: each is
        # encoded once per call, the set texts and details once per row.
        rows = [checks.CheckRow(check, family, n, "0,2", status)
                for check in ("c1", "c2") for family in "AD" for n in (3, 4)
                for status in ("pass", "fail")]
        encoded = []
        real = cli.encode_basestring_ascii
        monkeypatch.setattr(cli, "encode_basestring_ascii",
                            lambda text: encoded.append(text) or real(text))
        out = cli._json_rows(rows)
        assert sorted(encoded) == sorted(["c1", "c2", "A", "D", "pass", "fail"]
                                         + ["0,2", ""] * len(rows))
        records = [{"check": r.check, "family": r.family, "n": r.n, "set": r.set_text,
                    "status": r.status, "detail": r.detail} for r in rows]
        assert out == json.dumps(records, indent=2) + "\n"

    def test_rank_flag_is_clamped_by_tier(self, capsys):
        code, _, err = run(
            ["verify", "--only", "remark-values", "--tier", "fast",
             "--nmax", "9", "--families", "D"],
            capsys,
        )
        assert code == 0
        assert "capped" in err

    def test_rank_flag_is_capped_at_the_tier_bound(self, capsys):
        code, out, err = run(
            ["verify", "--only", "b-closed-match", "--tier", "fast",
             "--nmax", "6", "--families", "B", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert "note: B rank capped at 5 by tier fast" in err
        assert max(r["n"] for r in json.loads(out)) == 5

    def test_unwritable_output_exits_2_before_the_checks(self, capsys, monkeypatch, tmp_path):
        def unreachable(ctx):
            raise AssertionError("checks ran before the output was opened")
            yield

        monkeypatch.setitem(checks.CHECKS, "remark-values", unreachable)
        code, _, err = run(
            ["verify", "--only", "remark-values", "-o", str(tmp_path / "missing" / "x.json")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("option, value", [
        pytest.param(option, value, id=value if option == "--workers" else f"nmax={value}")
        for option in ("--workers", "--nmax") for value in ("0", "-1", "x")])
    def test_workers_below_one_exits_2(self, capsys, option, value):
        code, _, err = run(["verify", option, value, "--only", "remark-values"], capsys)
        assert code == 2
        assert option in err

    # Row count and SHA-256 of the rows file that ROWS_ARGV writes at each
    # tier, and at the fast tier with the families listed out of order.
    # Any change to a row, its order or the number format changes them; a
    # deliberate change of the rows updates them in the same commit.
    ROWS_ARGV = ["verify", "--workers", "1", "--format", "json", "--tier"]
    ROWS = {
        "fast": (1779, "075bfda0612d3b6e0eccdeb5f666a3dcfcf33bcef0bab2a57ddfb8effb439697"),
        "full": (2175, "b3831313c7d5655355dbd76dd6e703269503a309b6a0e7486e8e79469402bcd5"),
        "extended": (2818, "7d0ebafc0c7908b89de8a0fc5094fc2b6f2316618676f0318ee523f7783da8b0"),
        "fast --families D,B,A":
            (1779, "defb93056e8dc6bf3e43c81d4ef7efba4097ca3454ce1d066df348e443b505e6"),
    }

    def test_fast_tier_rows_digest(self, capsys, tmp_path):
        """Every tier's rows, the fast tier first."""
        for i, (args, (count, digest)) in enumerate(self.ROWS.items()):
            out_path = tmp_path / f"rows{i}.json"
            code, _, err = run(self.ROWS_ARGV + args.split() + ["-o", str(out_path)], capsys)
            assert code == 0, args
            assert f"{count} rows, 0 failures" in err, args
            assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, args

    def test_module_entry_point_writes_the_fast_tier_rows(self):
        """python -m oddlen runs the same command line, rows and all."""
        src = Path(oddlen.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "oddlen", "verify", "--tier", "fast", "--format", "json"],
            capture_output=True, env=env, check=False,
        )
        count, digest = self.ROWS["fast"]
        assert done.returncode == 0, done.stderr
        assert f"{count} rows, 0 failures" in done.stderr.decode()
        assert hashlib.sha256(done.stdout).hexdigest() == digest

    def test_injected_failure_exits_4(self, capsys, monkeypatch):
        def bad_check(ctx):
            yield checks.CheckRow(
                "bad-check", "D", 2, "", "fail", "injected for the exit-code path"
            )

        monkeypatch.setitem(checks.CHECKS, "bad-check", bad_check)
        code, _, err = run(["verify", "--only", "bad-check"], capsys)
        assert code == 4
        assert "mismatch" in err


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert run([], capsys)[0] == 2

    def test_bad_family_exits_2(self, capsys):
        assert run(["genfun", "-f", "X", "-n", "3", "-I", ""], capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["genfun", "-n", "4", "-I", "0,2", "-m", "both", "--format", "json"],
                         id="genfun"),
            pytest.param(["table", "-n", "4", "--format", "json"], id="table"),
        ],
    )
    def test_family_flag_takes_any_case(self, capsys, argv):
        # -f normalises a family as --families does.
        upper = run([*argv, "-f", "D"], capsys)
        assert upper[0] == 0
        assert run([*argv, "-f", "d"], capsys) == upper
        assert run([*argv, "-f", " d "], capsys) == upper

    def test_workers_variable_is_not_read(self, capsys, monkeypatch):
        # The worker count comes from workers= or --workers alone.
        monkeypatch.setenv("ODDLEN_WORKERS", "x")
        assert brute_table("D", 4).counts.sum() == 8 * 4 * 3 * 2
        assert run(["verify", "--only", "remark-values"], capsys)[0] == 0
