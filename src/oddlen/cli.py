"""Command-line surface: generating functions, verification sweeps,
cyclotomic verdicts, and descent-table dumps.

Exit codes: 0 success, 2 usage error, 3 enumeration budget exceeded,
4 verification mismatch.

The commands that enumerate (verify, table, genfun -m brute|both) import
checks or sweep, and so numpy, when they run; cyclo and genfun -m closed
never load them.
"""

import argparse
import csv
import json
import sys
from collections import Counter
from contextlib import nullcontext
from itertools import groupby
from json.encoder import encode_basestring_ascii

from .zpoly import IntPoly, cyclotomic_factors
from .indexset import IndexSet
from .sperm import FAMILIES, label_mask
from .genfun import TIERS, BudgetError, closed_poly

EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

# The cyclotomic test's totient table and peel grow with the degree: the
# peel's worst known case, (1 + x)^D, makes 2D passes over D + 1 ints of
# up to D bits, in a time that grows a little faster than D^2 (0.6-0.9 s
# at this cap on 2 vCPUs).  Past this, `cyclo` refuses the input instead
# of sizing them from it.
CYCLO_MAX_DEGREE = 2000


def _family(text: str) -> str:
    """A family name as typed: any case, surrounding spaces ignored."""
    return text.strip().upper()


def _parse_families(text: str) -> tuple[str, ...]:
    fams = tuple(_family(tok) for tok in text.split(",") if tok.strip())
    for f in fams:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r} (choose from A, B, D)")
    if not fams:
        raise ValueError("no families selected")
    repeated = [f for f, count in Counter(fams).items() if count > 1]
    if repeated:
        raise ValueError(f"families given more than once: {', '.join(repeated)}")
    return fams


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _coeff_record(p: IntPoly) -> dict:
    return {"coeffs": list(p.coeffs)}


def cmd_genfun(args) -> int:
    I = IndexSet.from_text(args.n, args.iset)
    polys: dict[str, IntPoly] = {}
    if args.method in ("closed", "both"):
        polys["closed"] = closed_poly(args.family, args.n, I)
    if args.method in ("brute", "both"):
        from .sweep import brute_quotient

        polys["brute"] = brute_quotient(args.family, args.n, I)
    equal = polys["closed"] == polys["brute"] if len(polys) == 2 else None
    shown = polys.get("brute", polys.get("closed"))

    if args.format == "json":
        rec: dict = {
            "family": args.family,
            "n": args.n,
            "set": list(I.members()),
            "method": args.method,
        }
        for key in ("closed", "brute"):
            if key in polys:
                rec[key] = _coeff_record(polys[key])
        if equal is not None:
            rec["equal"] = equal
        rec["cyclotomicProduct"] = cyclotomic_factors(shown) is not None
        print(json.dumps(rec))
    elif args.method == "both":
        print(f"closed: {polys['closed']}")
        print(f"brute:  {polys['brute']}")
        print(f"equal: {'yes' if equal else 'no'}")
    else:
        print(shown)
    return EXIT_MISMATCH if equal is False else 0


def _verify_context(args) -> tuple["CheckContext", list[str] | None]:
    from .checks import CHECKS, CheckContext

    ctx = CheckContext.for_tier(args.tier, _parse_families(args.families), workers=args.workers)
    if args.nmax is not None:
        for f, top in ctx.nmax.items():
            if top < args.nmax:
                print(f"note: {f} rank capped at {top} by tier {args.tier}", file=sys.stderr)
            ctx.nmax[f] = min(top, args.nmax)
    only = None
    if args.only is not None:
        only = [tok.strip() for tok in args.only.split(",") if tok.strip()]
        if not only:
            raise ValueError("no check ids selected")
        unknown = [name for name in only if name not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown check ids {unknown}; valid ids: {', '.join(CHECKS)}"
            )
        repeated = [name for name, count in Counter(only).items() if count > 1]
        if repeated:
            raise ValueError(f"check ids given more than once: {', '.join(repeated)}")
    return ctx, only


class _Encoded(dict):
    """JSON string literals by text, each encoded on its first lookup."""

    def __missing__(self, text: str) -> str:
        value = self[text] = encode_basestring_ascii(text)
        return value


def _json_rows(rows) -> str:
    """The rows as json.dumps(records, indent=2) + "\n" writes them, byte for
    byte, with the C string encoder: an indent sends json.dumps to its pure
    Python encoder.  Each distinct check id, family and status is encoded
    once per call, and each (check, family, n) head written once."""
    if not rows:
        return "[]\n"
    q, names, heads, records = encode_basestring_ascii, _Encoded(), {}, []
    for r in rows:
        head = heads.get((r.check, r.family, r.n))
        if head is None:
            head = heads[r.check, r.family, r.n] = (
                f'  {{\n    "check": {names[r.check]},\n    "family": {names[r.family]},\n'
                f'    "n": {r.n},\n    "set": ')
        records.append(f'{head}{q(r.set_text)},\n    "status": {names[r.status]},\n'
                       f'    "detail": {q(r.detail)}\n  }}')
    return "[\n" + ",\n".join(records) + "\n]\n"


def _write_verify(rows, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_json_rows(rows))
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["family", "n", "set", "check", "status"])
        for r in rows:
            writer.writerow([r.family, r.n, r.set_text, r.check, r.status])
    else:
        for key, group in groupby(rows, key=lambda r: (r.check, r.family, r.n)):
            batch = list(group)
            check, family, n = key
            bad = [r for r in batch if not r.ok]
            verdict = "pass" if not bad else f"FAIL ({len(bad)} of {len(batch)})"
            out.write(f"{check:24s} {family} n={n}: {verdict} ({len(batch)} rows)\n")
            for r in bad:
                out.write(f"  FAIL {{{r.set_text}}}: {r.detail}\n")


def cmd_verify(args) -> int:
    from .checks import run_checks

    ctx, only = _verify_context(args)
    # Open the output first, so a bad path fails before the checks run.
    try:
        target = open(args.output, "w") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot open {args.output}: {exc.strerror}") from exc
    with target as out:
        rows = list(run_checks(ctx, only))
        _write_verify(rows, args.format, out)
    fails = [r for r in rows if not r.ok]
    summary = f"{len(rows)} rows, {len(fails)} failures"
    if fails:
        for r in fails:
            print(f"mismatch: {r.check} family {r.family} n={r.n} I={{{r.set_text}}}",
                  file=sys.stderr)
        print(f"verify: {summary}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"verify: {summary}", file=sys.stderr)
    return 0


def cmd_cyclo(args) -> int:
    if args.coeffs is not None:
        try:
            coeffs = [int(tok) for tok in args.coeffs.split(",")]
        except ValueError:
            raise ValueError("--coeffs expects comma-separated integers")
        p = IntPoly(coeffs)
    else:
        n, m = args.trinomial
        if not 1 <= m < n:
            raise ValueError("--trinomial expects 1 <= M < N")
        if n > CYCLO_MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the cyclo limit {CYCLO_MAX_DEGREE}")
        p = IntPoly([1] + [0] * (m - 1) + [2] + [0] * (n - m - 1) + [1])
    if p.degree > CYCLO_MAX_DEGREE:
        raise ValueError(f"degree {p.degree} exceeds the cyclo limit {CYCLO_MAX_DEGREE}")
    factors = cyclotomic_factors(p)

    if args.format == "json":
        print(json.dumps({
            "coeffs": list(p.coeffs),
            "cyclotomicProduct": factors is not None,
            "factors": sorted(factors) if factors is not None else None,
        }))
        return 0
    if factors is None:
        print("no")
    elif not factors:
        print("yes (empty product)")
    else:
        parts = [
            f"Phi_{k}^{mult}" if mult > 1 else f"Phi_{k}"
            for k, mult in sorted(Counter(factors).items())
        ]
        print(f"yes: {' '.join(parts)}")
    return 0


def cmd_table(args) -> int:
    from .sweep import brute_table

    table = brute_table(args.family, args.n)
    lm = label_mask(args.family, args.n)
    masks = [mask for mask in range(1 << args.n) if mask & ~lm == 0]

    def set_text(mask: int) -> str:
        return ",".join(str(i) for i in range(args.n) if mask >> i & 1)

    if args.format == "json":
        rec = {
            "family": args.family,
            "n": args.n,
            "buckets": [
                {"set": [i for i in range(args.n) if mask >> i & 1],
                 "coeffs": list(table.bucket(mask).coeffs)}
                for mask in masks
            ],
        }
        print(json.dumps(rec))
    else:
        for mask in masks:
            poly = table.bucket(mask)
            print(f"{{{set_text(mask)}}}: {poly if not poly.is_zero else 0}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddlen",
        description="Sign-twisted odd-length generating functions over "
                    "parabolic quotients of signed permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genfun", help="print one quotient generating function")
    p.add_argument("-f", "--family", required=True, type=_family, choices=FAMILIES)
    p.add_argument("-n", type=_positive_int, required=True, help="rank")
    p.add_argument("-I", dest="iset", required=True,
                   help="index set, e.g. '0,2' or '0-2,4' ('' for empty)")
    p.add_argument("-m", "--method", choices=("closed", "brute", "both"),
                   default="closed")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("verify", help="run the named identity checks")
    p.add_argument("--tier", choices=tuple(TIERS), default="fast")
    p.add_argument("--families", default="A,B,D")
    p.add_argument("--nmax", "--n", dest="nmax", type=_positive_int, default=None,
                   help="rank bound for brute sweeps (capped by the tier)")
    p.add_argument("--only", default=None,
                   help="comma-separated check ids (see --list-checks)")
    p.add_argument("--list-checks", action="store_true",
                   help="print the check ids and exit")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for brute-force tables of at least "
                        "50,000 absolute-value rows, which today means A9 to "
                        "A11, B9 and D9 only (default 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cyclo", help="decide cyclotomic-product factorability")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", default=None,
                       help="ascending coefficients, e.g. '1,0,2,0,1'; write "
                            "--coeffs=-1,0,1 when the first is negative, or it "
                            "is read as an option")
    group.add_argument("--trinomial", nargs=2, type=int, metavar=("N", "M"),
                       help="test x^N + 2x^M + 1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cyclo)

    p = sub.add_parser("table", help="dump a descent-class polynomial table")
    p.add_argument("-f", "--family", required=True, type=_family, choices=FAMILIES)
    p.add_argument("-n", type=_positive_int, required=True, help="rank")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "list_checks", False):
        from .checks import CHECKS

        for name in CHECKS:
            print(name)
        return 0
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
