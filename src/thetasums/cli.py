"""Command-line interface.

Subcommands: expand (series coefficients of a theta expression), verify
(catalog identities and decompositions), universal (bounded certification
of a polygonal sum), equiv (value-set comparison), and reproduce (one-shot
theorem reports).  Exit codes: 0 success, 1 a check failed, 2 usage or
parse error.  A usage or parse error is one 'error: <message>' line on
stderr, with nothing on stdout.  All bounded results are printed with
their bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from . import dsl
from .polygonal import certify_universal, equivalent_upto
from .theta import expression_series

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

REPRODUCE_IDS = ("thm3.1", "thm3.2", "thm3.3", "thm3.4", "section1-catalog", "all")


def _add_common(parser, order=False, bound=False, batch=False):
    if order:
        parser.add_argument("--order", type=int, default=1000, help="series truncation order")
    if bound:
        parser.add_argument("--bound", type=int, default=50000, help="certification bound")
    parser.add_argument(
        "--format",
        choices=("human", "report"),
        default="human",
        help="human-readable lines or a JSON report",
    )
    if batch:
        parser.add_argument(
            "--catalog", help="catalog file or directory (default: packaged data)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetasums",
        description="theta-series identities and universal polygonal sums, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a theta expression into coefficients")
    p.add_argument("expression")
    _add_common(p, order=True)

    p = sub.add_parser("verify", help="verify catalog identities/decompositions")
    p.add_argument("keys", nargs="+", help="catalog keys or 'all'")
    _add_common(p, order=True, bound=True, batch=True)

    p = sub.add_parser("universal", help="certify a polygonal sum up to a bound")
    p.add_argument("sum")
    _add_common(p, bound=True)

    p = sub.add_parser("equiv", help="compare the value sets of two sums")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, bound=True)

    p = sub.add_parser("reproduce", help="re-certify a whole result table")
    p.add_argument("theorem", choices=REPRODUCE_IDS)
    _add_common(p, order=True, bound=True, batch=True)
    return parser


class UsageError(ValueError):
    """An argument value out of range."""


def cmd_expand(args) -> int:
    expr = dsl.parse_theta_expression(args.expression)
    if args.order < 2:
        raise UsageError("order must be >= 2")
    series = expression_series(expr, args.order)
    pairs = series.nonzero()
    if args.format == "report":
        print(json.dumps({
            "schema": cat.SCHEMA,
            "config": {"order": args.order},
            "expression": dsl.serialize(expr),
            "coefficients": pairs,
        }))
    else:
        print(" ".join(f"{e}:{c}" for e, c in pairs))
    return EXIT_OK


def _run_catalog(args, select) -> int:
    """Check the catalog entries whose keys select(catalog) lists, and print the report."""
    if args.order < 2 or args.bound < 1:
        raise UsageError("need order >= 2 and bound >= 1")
    catalog = cat.load_catalog(args.catalog)
    report = cat.run_catalog(catalog, order=args.order, bound=args.bound, keys=select(catalog))
    if args.format == "report":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for row in report.rows:
            print(f"{row.status.upper():4}  {row.key:24}  {row.detail}")
        print(f"{report.passed} passed, {report.failed} failed "
              f"(order {report.order}, bound {report.bound})")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify(args) -> int:
    if "all" in args.keys and len(args.keys) > 1:
        raise UsageError("'all' takes no other keys")

    def select(catalog):
        if args.keys == ["all"]:
            return [e.key for e in catalog.entries if e.kind in ("identity", "decomposition")]
        return args.keys

    return _run_catalog(args, select)


def cmd_universal(args) -> int:
    s = dsl.parse_polygonal_sum(args.sum)
    if args.bound < 1:
        raise UsageError("bound must be >= 1")
    verdict = certify_universal(s, args.bound)
    if args.format == "report":
        print(json.dumps({
            "schema": cat.SCHEMA,
            "config": {"bound": args.bound},
            "sum": dsl.serialize(s),
            "universal_up_to_bound": verdict.universal,
            "missing_head": list(verdict.head(20)),
            "missing_count": verdict.missing_count,
        }))
    elif verdict.universal:
        print(f"{dsl.serialize(s)}: universal up to {args.bound}")
    else:
        head = ", ".join(str(n) for n in verdict.head(10))
        print(
            f"{dsl.serialize(s)}: NOT universal up to {args.bound}; "
            f"missing {head}"
            + (" ..." if verdict.missing_count > 10 else "")
        )
    return EXIT_OK if verdict.universal else EXIT_FAIL


def cmd_equiv(args) -> int:
    left = dsl.parse_polygonal_sum(args.left)
    right = dsl.parse_polygonal_sum(args.right)
    if args.bound < 1:
        raise UsageError("bound must be >= 1")
    equal, witness = equivalent_upto(left, right, args.bound)
    if args.format == "report":
        print(json.dumps({
            "schema": cat.SCHEMA,
            "config": {"bound": args.bound},
            "left": dsl.serialize(left),
            "right": dsl.serialize(right),
            "equal_up_to_bound": equal,
            "witness": witness,
        }))
    elif equal:
        print(f"value sets equal up to {args.bound}")
    else:
        print(f"value sets differ at {witness} (up to {args.bound})")
    return EXIT_OK if equal else EXIT_FAIL


def cmd_reproduce(args) -> int:
    # One row per claimed sum (or chain); the deriving decompositions are
    # re-verified inside each row's via-check rather than listed separately.
    prefix = {"all": "", "section1-catalog": "sec1"}.get(args.theorem, args.theorem)
    return _run_catalog(
        args, lambda catalog: [e.key for e in catalog.entries if e.key.startswith(prefix)]
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "expand": cmd_expand,
        "verify": cmd_verify,
        "universal": cmd_universal,
        "equiv": cmd_equiv,
        "reproduce": cmd_reproduce,
    }[args.command]
    try:
        return handler(args)
    except (dsl.ParseError, cat.CatalogError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
