"""Command-line front end: value tables, verification suites, path dumps.

Exit codes: 0 on success, 1 when a verification suite reports an identity
failure, 2 on usage errors or budget violations, including a check that a
budget refused (reported as REFUSED).  Data output is byte
deterministic; timing lines are segregated behind a comment marker.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import closedforms as cf
from .bijections import francon_viennot, lift_append_one
from .errors import BudgetExceededError, check_size
from .permutations import parse_permutation, stat_vector
from .poly import Poly
from .verify import SUITES, render_reports, run_suites


def _eulerian_entries(n_max: int) -> list[tuple[str, Poly]]:
    return [
        (f"Ehat_{k},{n}", cf.q_eulerian_number_closed(k, n))
        for n in range(1, n_max + 1) for k in range(n + 1)
    ]


# kind -> (cap on --n-max, function of n-max giving the labelled entries).
# Closed-form tables stay exact at any size; caps keep runtimes sane.
TABLES: dict[str, tuple[int, Callable[[int], list[tuple[str, Poly]]]]] = {
    "etangent": (40, lambda n_max: [
        (f"E_{2 * n + 1}", cf.q_tangent_closed(n)) for n in range(n_max + 1)]),
    "esecant": (40, lambda n_max: [
        (f"E_{2 * n}", cf.q_secant_closed(n)) for n in range(n_max + 1)]),
    "A": (24, lambda n_max: [(f"A_{n}", cf.q_eulerian_closed(n)) for n in range(n_max + 1)]),
    "B": (24, lambda n_max: [(f"B_{n}", cf.q_derangement_closed(n)) for n in range(n_max + 1)]),
    "eulerian": (12, _eulerian_entries),
    "touchard": (40, lambda n_max: [(f"T_{n}", cf.touchard_riordan(n)) for n in range(n_max + 1)]),
}


def cmd_table(args: argparse.Namespace) -> int:
    kind = args.kind
    cap, entries_for = TABLES[kind]
    try:
        check_size(args.n_max, cap, "n-max")
    except (ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = entries_for(args.n_max)
    if args.format == "text":
        for label, poly in entries:
            print(f"{label} = {poly}")
    elif args.format == "json":
        doc = {
            "kind": kind,
            "entries": [
                {"index": i, "label": label, "poly": poly.to_json_obj()}
                for i, (label, poly) in enumerate(entries)
            ],
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print("n,coef,yExp,qExp")
        for i, (_, poly) in enumerate(entries):
            for ye, qe, c in poly.terms():
                print(f"{i},{c},{ye},{qe}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        reports = run_suites(suites, n_max=args.n_max, seed=args.seed, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_reports(reports))
    statuses = {r.status for r in reports}
    if "REFUSED" in statuses:
        return 2
    return 1 if "FAIL" in statuses else 0


def cmd_bijection(args: argparse.Namespace) -> int:
    try:
        perm = parse_permutation(args.permutation)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    image = francon_viennot(perm)
    sv = stat_vector(perm)
    lifted = lift_append_one(perm)
    print(image.dump())
    print(f"stats: wex={sv.wex} asc={sv.asc} cr={sv.cr} 31-2={sv.p312} fix={sv.fix}")
    if all(v <= 9 for v in lifted):
        print("tilde: " + "".join(str(v) for v in lifted))
    else:
        print("tilde: " + ",".join(str(v) for v in lifted))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Euler-number toolkit: tables, identity verification, path dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a value table")
    p_table.add_argument("kind", choices=TABLES)
    p_table.add_argument("--n-max", type=int, default=5)
    p_table.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run identity-verification suites")
    p_verify.add_argument("suite", choices=("all",) + SUITES)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bij = sub.add_parser("bijection", help="dump the path image of a permutation")
    p_bij.add_argument("permutation", help="one-line digits or comma-separated values")
    p_bij.set_defaults(func=cmd_bijection)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
