"""Command-line surface.

Verdicts are data: a command that runs to completion exits 0 whether the
bound is feasible or not, unless --assert-feasible asks for exit 2 on a
negative verdict.  Usage and input errors exit 1 with one diagnostic line
on stderr.

Each handler returns (status, payload, rows) and prints nothing.  ``run``
alone prints the result, the payload as one sorted-key JSON object with
--json and the rows as a two-column table otherwise, and sets the exit
code.  frontier, which has neither, prints its one sentence itself.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import asymptotic, bounds, codesearch
from .errors import (
    DomainError,
    EnumerationSizeError,
    InputShapeError,
    ParameterRangeError,
    UnsupportedFieldError,
)


@dataclass
class CommandResult:
    status: str  # ok | infeasible | not_found | error
    payload: dict
    exit_code: int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


_ERRORS = (
    _UsageError,
    DomainError,
    EnumerationSizeError,
    InputShapeError,
    ParameterRangeError,
    UnsupportedFieldError,
    OSError,
)

_Outcome = tuple[str, dict, list[tuple[str, object]]]  # (status, payload, rows)


def _frac_str(fr: Fraction) -> str:
    # a Decimal prints an int's digits with no limit on their number
    return f"{decimal.Decimal(fr.numerator)}/{decimal.Decimal(fr.denominator)}"


def _dist_value(d: int | None):
    return "inf" if d is None else d


def _lhs(report: bounds.BoundReport, digits: int = 6) -> dict:
    return {"lhs": _frac_str(report.lhs), "lhs_decimal": report.decimal_str(digits)}


def _lhs_row(payload: dict) -> tuple[str, str]:
    return ("lhs", f"{payload['lhs']} = {payload['lhs_decimal']}")


def _pick(payload: dict, *keys: str) -> list[tuple[str, object]]:
    return [(key, payload[key]) for key in keys]


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one JSON object on stdout")


def _add_bound_flags(parser: argparse.ArgumentParser) -> None:
    _add_json(parser)
    parser.add_argument("--digits", type=int, default=6, help="decimal places (default 6)")
    parser.add_argument(
        "--assert-feasible",
        action="store_true",
        help="exit 2 if the verdict is infeasible",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="aqgv", description="GV-type existence bounds for asymmetric quantum codes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    bound = sub.add_parser("bound", help="evaluate a finite-length bound exactly")
    bsub = bound.add_subparsers(dest="family", required=True, parser_class=_Parser)
    bound_css = bsub.add_parser("css")
    for flag in ("--q", "--n", "--k1", "--k2", "--dx", "--dz"):
        bound_css.add_argument(flag, type=int, required=True)
    _add_bound_flags(bound_css)
    bound_stab = bsub.add_parser("stab")
    for flag in ("--q", "--n", "--k", "--dx", "--dz"):
        bound_stab.add_argument(flag, type=int, required=True)
    _add_bound_flags(bound_stab)

    maxk = sub.add_parser("maxk", help="largest feasible k")
    msub = maxk.add_subparsers(dest="family", required=True, parser_class=_Parser)
    maxk_stab = msub.add_parser("stab")
    for flag in ("--q", "--n", "--dx", "--dz"):
        maxk_stab.add_argument(flag, type=int, required=True)
    _add_json(maxk_stab)

    best = sub.add_parser("best", help="feasible (k1, k2) maximizing k1 - k2")
    bestsub = best.add_subparsers(dest="family", required=True, parser_class=_Parser)
    best_css = bestsub.add_parser("css")
    for flag in ("--q", "--n", "--dx", "--dz"):
        best_css.add_argument(flag, type=int, required=True)
    _add_json(best_css)

    frontier = sub.add_parser("frontier", help="trace the asymptotic delta_z frontier to CSV")
    frontier.add_argument("--q", type=int, required=True)
    frontier.add_argument("--r", type=float, required=True)
    frontier.add_argument("--points", type=int, required=True)
    frontier.add_argument("--out", required=True)

    lemma = sub.add_parser("lemma", help="verify the pair-counting identities by enumeration")
    for flag in ("--q", "--n", "--k1", "--k2"):
        lemma.add_argument(flag, type=int, required=True)
    _add_json(lemma)

    search = sub.add_parser("search", help="randomized witness search with verification")
    search.add_argument("kind", choices=("css", "stab"))
    for flag in ("--q", "--n", "--dx", "--dz", "--trials", "--seed"):
        search.add_argument(flag, type=int, required=True)
    search.add_argument("--k1", type=int)
    search.add_argument("--k2", type=int)
    search.add_argument("--k", type=int)
    search.add_argument("--out", help="write the witness code file here")
    _add_json(search)

    distances = sub.add_parser("distances", help="verified distances / profile of a code file")
    distances.add_argument("--in", dest="infile", required=True)
    _add_json(distances)

    return parser


def _cmd_bound(args) -> _Outcome:
    if args.family == "css":
        params = {"k1": args.k1, "k2": args.k2}
        report = bounds.css_gv_lhs(bounds.CssBoundQuery(q=args.q, n=args.n, dx=args.dx, dz=args.dz, **params))
        term_join = " + "
    else:
        params = {"k": args.k}
        report = bounds.stab_gv_lhs(bounds.StabBoundQuery(q=args.q, n=args.n, dx=args.dx, dz=args.dz, **params))
        term_join = " * "
    payload = {
        "q": args.q,
        "n": args.n,
        "dx": args.dx,
        "dz": args.dz,
        **params,
        **_lhs(report, args.digits),
        "feasible": report.feasible,
        "terms": [_frac_str(t) for t in report.terms],
    }
    rows = [
        ("query", f"bound {args.family} q={args.q} n={args.n} "
                  + " ".join(f"{k}={v}" for k, v in params.items())
                  + f" dx={args.dx} dz={args.dz}"),
        *_pick(payload, "lhs", "lhs_decimal"),
        ("terms", term_join.join(payload["terms"])),
        ("feasible", "yes" if report.feasible else "no"),
    ]
    return ("ok" if report.feasible else "infeasible"), payload, rows


def _cmd_maxk(args) -> _Outcome:
    k_max = bounds.max_k_stab(args.n, args.q, args.dx, args.dz)
    payload = {"q": args.q, "n": args.n, "dx": args.dx, "dz": args.dz, "k_max": k_max}
    if k_max is None:
        return "not_found", payload, [("k_max", "none")]
    report = bounds.stab_gv_lhs(bounds.StabBoundQuery(q=args.q, n=args.n, k=k_max, dx=args.dx, dz=args.dz))
    payload.update(_lhs(report))
    return "ok", payload, [("k_max", k_max), _lhs_row(payload)]


def _cmd_best(args) -> _Outcome:
    pair = bounds.best_css_params(args.n, args.q, args.dx, args.dz)
    payload = {"q": args.q, "n": args.n, "dx": args.dx, "dz": args.dz}
    if pair is None:
        payload.update({"k1": None, "k2": None, "net_k": None})
        return "not_found", payload, [("result", "none feasible")]
    k1, k2 = pair
    report = bounds.css_gv_lhs(bounds.CssBoundQuery(q=args.q, n=args.n, k1=k1, k2=k2, dx=args.dx, dz=args.dz))
    payload.update(
        {
            "k1": k1,
            "k2": k2,
            "net_k": k1 - k2,
            **_lhs(report),
        }
    )
    return "ok", payload, [*_pick(payload, "k1", "k2", "net_k"), _lhs_row(payload)]


def _cmd_frontier(args) -> _Outcome:
    grid = asymptotic.frontier_grid(args.q, args.points)
    points = asymptotic.stab_frontier(args.q, args.r, grid)
    with open(args.out, "w", newline="") as handle:
        asymptotic.write_frontier_csv(points, args.q, handle)
    payload = {"q": args.q, "r": args.r, "points": len(points), "out": args.out}
    print(f"wrote {len(points)} frontier points to {args.out}")  # no --json, no table
    return "ok", payload, []


def _cmd_lemma(args) -> _Outcome:
    report = codesearch.enumerate_nested_pairs(args.n, args.q, args.k1, args.k2)
    x_values = set(report.per_error_x.values())
    z_values = set(report.per_error_z.values())
    expected_x, expected_z = report.expected_counts()
    ok = report.identities_hold
    payload = {
        "q": args.q,
        "n": args.n,
        "k1": args.k1,
        "k2": args.k2,
        "total_pairs": report.total_pairs,
        "nonzero_errors": len(report.per_error_x),
        "per_error_x": expected_x if x_values == {expected_x} else None,
        "per_error_z": expected_z if z_values == {expected_z} else None,
        "lemma_ok": ok,
    }
    rows = [
        *_pick(payload, "total_pairs", "nonzero_errors"),
        ("per_error_x", f"{sorted(x_values)} (expected {expected_x})"),
        ("per_error_z", f"{sorted(z_values)} (expected {expected_z})"),
        ("identities", "PASS" if ok else "FAIL"),
    ]
    return "ok", payload, rows


def _cmd_search(args) -> _Outcome:
    if args.kind == "css":
        if args.k1 is None or args.k2 is None or args.k is not None:
            raise _UsageError("search css takes --k1 and --k2 (not --k)")
        params = {"k1": args.k1, "k2": args.k2}
    else:
        if args.k is None or args.k1 is not None or args.k2 is not None:
            raise _UsageError("search stab takes --k (not --k1/--k2)")
        params = {"k": args.k}
    hit = codesearch.gv_witness_search(
        args.kind,
        q=args.q,
        n=args.n,
        dx=args.dx,
        dz=args.dz,
        trials=args.trials,
        seed=args.seed,
        **params,
    )
    payload = {
        "kind": args.kind,
        "q": args.q,
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
        **params,
        "found": hit is not None,
        "trial_index": None if hit is None else hit.trial_index,
        "dx": None if hit is None else _dist_value(hit.distances.dx),
        "dz": None if hit is None else _dist_value(hit.distances.dz),
    }
    if hit is None:
        return "not_found", payload, [("found", "no"), ("trials", args.trials)]
    rows = [("found", "yes"), *_pick(payload, "trial_index", "dx", "dz")]
    if args.out:
        codesearch.write_code_file(hit.code, args.out)
        rows.append(("out", args.out))
    return "ok", payload, rows


def _cmd_distances(args) -> _Outcome:
    code = codesearch.load_code_file(args.infile)
    if isinstance(code, codesearch.NestedPair):
        dist = codesearch.css_distances(code)
        payload = {
            "type": "css",
            "q": code.q,
            "n": code.n,
            "dx": _dist_value(dist.dx),
            "dz": _dist_value(dist.dz),
        }
        return "ok", payload, _pick(payload, "type", "dx", "dz")
    matrix = codesearch.stab_profile_matrix(code)
    payload = {
        "type": "stab",
        "q": code.q,
        "n": code.n,
        "k": code.k,
        "profile": matrix,
    }
    rows = _pick(payload, "type", "n", "k")
    for dx_idx, row in enumerate(matrix):
        dz_max = sum(row)  # row is a monotone prefix of True values
        rows.append((f"dx={dx_idx + 1}", f"dz_max={dz_max if dz_max else 'none'}"))
    return "ok", payload, rows


_HANDLERS = {
    "bound": _cmd_bound,
    "maxk": _cmd_maxk,
    "best": _cmd_best,
    "frontier": _cmd_frontier,
    "lemma": _cmd_lemma,
    "search": _cmd_search,
    "distances": _cmd_distances,
}


def run(argv: list[str]) -> CommandResult:
    """Parse argv, dispatch, print the result, and return it."""
    try:
        args = _build_parser().parse_args(argv)
        status, payload, rows = _HANDLERS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult("error", {}, 1)
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    elif rows:
        width = max(len(key) for key, _ in rows)
        for key, value in rows:
            print(f"{key.ljust(width)}  {value}")
    # only bound returns "infeasible", and only bound has --assert-feasible
    return CommandResult(status, payload, 2 if status == "infeasible" and args.assert_feasible else 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
