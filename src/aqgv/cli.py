"""Command-line surface.

Verdicts are data: a command that runs to completion exits 0 whether the
bound is feasible or not, unless --assert-feasible asks for exit 2 on a
negative verdict.  Usage and input errors exit 1 with one diagnostic line
on stderr.

Each subcommand is declared once, by one ``command`` call in
``_build_parser``, and the parser's ``handler`` default dispatches it.  Its
integer flags are declared once too, in that call: in declaration order
they are its library call's keyword arguments, its payload's echo and
bound's query line.  ``run`` gathers them into ``flags`` and passes them
to the handler, which returns (status, result, rows) and prints nothing.
``run`` alone prints, and sets the exit code: with --json the payload,
``flags`` overridden by ``result``, as one sorted-key JSON object, and
otherwise the rows as a two-column table.  frontier, which has neither,
prints its one sentence itself.

Only ``bounds``, which every command's imports load anyway, is imported at
the top.  Each handler imports the submodule it calls, so a bound command
never loads the code search.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from fractions import Fraction

from . import bounds
from ._value import Value
from .errors import AqgvError


class CommandResult(Value):
    """What one command did."""

    __slots__ = _fields = ("status", "payload", "exit_code")

    def __init__(self, status: str, payload: dict, exit_code: int) -> None:
        object.__setattr__(self, "status", status)  # ok | infeasible | not_found | error
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "exit_code", exit_code)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a flag is spelled out: no prefix of it is accepted
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); we want exit 1
        raise AqgvError(message)


_Outcome = tuple[str, dict, list[tuple[str, object]]]  # (status, result, rows)


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


_DIMENSIONS = {"css": ("k1", "k2"), "stab": ("k",)}  # family -> its dimension flags

_BOUNDS = {  # family -> its query class, its bound and the joiner of its terms
    "css": (bounds.CssBoundQuery, bounds.css_gv_lhs, " + "),
    "stab": (bounds.StabBoundQuery, bounds.stab_gv_lhs, " * "),
}

_JSON = ("--json", {"action": "store_true", "help": "emit one JSON object on stdout"})


def _build_parser() -> _Parser:
    parser = _Parser(prog="aqgv", description="GV-type existence bounds for asymmetric quantum codes")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, help, families, ints, *options):
        """One leaf parser per family, or the command's own without families,
        requiring the integer flags ``ints`` ("dims": the family's dimension
        flags), whose names it keeps as its ``ints`` default, and then
        taking ``options``, each a (flag, keywords) pair."""
        leaves = {None: commands.add_parser(name, help=help)}
        if families:
            sub = leaves[None].add_subparsers(dest="family", required=True, parser_class=_Parser)
            leaves = {family: sub.add_parser(family) for family in families}
        for family, leaf in leaves.items():
            names = [each for flag in ints for each in (_DIMENSIONS[family] if flag == "dims" else (flag,))]
            leaf.set_defaults(handler=handler, ints=names)
            for each in names:
                leaf.add_argument(f"--{each}", type=int, required=True)
            for flag, keywords in options:
                leaf.add_argument(flag, **keywords)

    command("bound", _cmd_bound, "evaluate a finite-length bound exactly", ("css", "stab"),
            ("q", "n", "dims", "dx", "dz"),
            _JSON,
            ("--digits", {"type": int, "default": 6, "help": "decimal places (default 6)"}),
            ("--assert-feasible", {"action": "store_true", "help": "exit 2 if the verdict is infeasible"}))
    command("maxk", _cmd_maxk, "largest feasible k", ("stab",),
            ("q", "n", "dx", "dz"), _JSON)
    command("best", _cmd_best, "feasible (k1, k2) maximizing k1 - k2", ("css",),
            ("q", "n", "dx", "dz"), _JSON)
    command("frontier", _cmd_frontier, "trace the asymptotic delta_z frontier to CSV", (),
            ("q",),
            ("--r", {"type": float, "required": True}),
            ("--points", {"type": int, "required": True}),
            ("--out", {"required": True}))
    command("lemma", _cmd_lemma, "verify the pair-counting identities by enumeration", (),
            ("q", "n", "k1", "k2"), _JSON)
    command("search", _cmd_search, "randomized witness search with verification", ("css", "stab"),
            ("q", "n", "dims", "dx", "dz", "trials", "seed"),
            ("--out", {"help": "write the witness code file here"}),
            _JSON)
    command("distances", _cmd_distances, "verified distances / profile of a code file", (),
            (),
            ("--in", {"dest": "infile", "required": True}),
            _JSON)
    return parser


def _cmd_bound(args, flags) -> _Outcome:
    query, bound, term_join = _BOUNDS[args.family]
    report = bound(query(**flags))
    result = {
        **_lhs(report, args.digits),
        "feasible": report.feasible,
        "terms": [_frac_str(t) for t in report.terms],
    }
    rows = [
        ("query", " ".join(["bound", args.family, *(f"{k}={v}" for k, v in flags.items())])),
        *_pick(result, "lhs", "lhs_decimal"),
        ("terms", term_join.join(result["terms"])),
        ("feasible", "yes" if report.feasible else "no"),
    ]
    return ("ok" if report.feasible else "infeasible"), result, rows


def _cmd_maxk(args, flags) -> _Outcome:
    k_max = bounds.max_k_stab(**flags)
    if k_max is None:
        return "not_found", {"k_max": None}, [("k_max", "none")]
    result = {"k_max": k_max, **_lhs(bounds.stab_gv_lhs(bounds.StabBoundQuery(**flags, k=k_max)))}
    return "ok", result, [("k_max", k_max), _lhs_row(result)]


def _cmd_best(args, flags) -> _Outcome:
    pair = bounds.best_css_params(**flags)
    if pair is None:
        return "not_found", {"k1": None, "k2": None, "net_k": None}, [("result", "none feasible")]
    k1, k2 = pair
    report = bounds.css_gv_lhs(bounds.CssBoundQuery(**flags, k1=k1, k2=k2))
    result = {"k1": k1, "k2": k2, "net_k": k1 - k2, **_lhs(report)}
    return "ok", result, [*_pick(result, "k1", "k2", "net_k"), _lhs_row(result)]


def _cmd_frontier(args, flags) -> _Outcome:
    from . import asymptotic
    grid = asymptotic.frontier_grid(args.q, args.points)
    points = asymptotic.stab_frontier(args.q, args.r, grid)
    with open(args.out, "w", newline="") as handle:
        asymptotic.write_frontier_csv(points, args.q, handle)
    print(f"wrote {len(points)} frontier points to {args.out}")  # no --json, no table
    return "ok", {"r": args.r, "points": len(points), "out": args.out}, []


def _cmd_lemma(args, flags) -> _Outcome:
    from . import codesearch
    report = codesearch.enumerate_nested_pairs(**flags)
    x_values = set(report.per_error_x.values())
    z_values = set(report.per_error_z.values())
    expected_x, expected_z = report.expected_counts()
    ok = report.identities_hold
    result = {
        "total_pairs": report.total_pairs,
        "nonzero_errors": len(report.per_error_x),
        "per_error_x": expected_x if x_values == {expected_x} else None,
        "per_error_z": expected_z if z_values == {expected_z} else None,
        "lemma_ok": ok,
    }
    rows = [
        *_pick(result, "total_pairs", "nonzero_errors"),
        ("per_error_x", f"{sorted(x_values)} (expected {expected_x})"),
        ("per_error_z", f"{sorted(z_values)} (expected {expected_z})"),
        ("identities", "PASS" if ok else "FAIL"),
    ]
    return "ok", result, rows


def _cmd_search(args, flags) -> _Outcome:
    from . import codesearch
    hit = codesearch.gv_witness_search(args.family, **flags)
    result = {  # the hit's dx and dz replace the design's
        "kind": args.family,
        "found": hit is not None,
        "trial_index": None if hit is None else hit.trial_index,
        "dx": None if hit is None else _dist_value(hit.distances.dx),
        "dz": None if hit is None else _dist_value(hit.distances.dz),
    }
    if hit is None:
        return "not_found", result, [("found", "no"), ("trials", args.trials)]
    rows = [("found", "yes"), *_pick(result, "trial_index", "dx", "dz")]
    if args.out:
        codesearch.write_code_file(hit.code, args.out)
        rows.append(("out", args.out))
    return "ok", result, rows


def _cmd_distances(args, flags) -> _Outcome:
    from . import codesearch
    code = codesearch.load_code_file(args.infile)
    if isinstance(code, codesearch.NestedPair):
        dist = codesearch.css_distances(code)
        result = {
            "type": "css",
            "q": code.q,
            "n": code.n,
            "dx": _dist_value(dist.dx),
            "dz": _dist_value(dist.dz),
        }
        return "ok", result, _pick(result, "type", "dx", "dz")
    matrix = codesearch.stab_profile_matrix(code)
    result = {
        "type": "stab",
        "q": code.q,
        "n": code.n,
        "k": code.k,
        "profile": matrix,
    }
    rows = _pick(result, "type", "n", "k")
    for dx_idx, row in enumerate(matrix):
        dz_max = sum(row)  # row is a monotone prefix of True values
        rows.append((f"dx={dx_idx + 1}", f"dz_max={dz_max if dz_max else 'none'}"))
    return "ok", result, rows


def run(argv: list[str]) -> CommandResult:
    """Parse argv, dispatch, print the result, and return it."""
    try:
        args = _build_parser().parse_args(argv)
        flags = {name: getattr(args, name) for name in args.ints}
        status, result, rows = args.handler(args, flags)
    except (AqgvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult("error", {}, 1)
    payload = {**flags, **result}
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
