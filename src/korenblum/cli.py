"""Command-line front end.

Subcommands: norm, means, certify, refute, bound, sweep, verify.

Each command returns a JSON payload (for certify, refute, bound, means
and a two-polynomial verify, the fields of the result dataclass) and a
table of flat records, and one renderer writes the report to stdout:
``--output json`` (the default; ``sweep`` defaults to csv) prints the
payload, ``csv`` the table under a header row, ``human`` the same cells
as aligned columns. A negative search result is reported the same way,
as the one record {"found": false, "reason": ..., "detail": ...}.
Diagnostics go to stderr. Exit status: 0 success, 1 negative search
result (no certificate, no witness, or any other failed self-check),
2 bad input, 3 quadrature divergence.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import certifier, refuter
from .analytic import Polynomial, mean_profile, polynomial_from_spec, weighted_norm
from .errors import (
    DomainError,
    KorenblumError,
    NoCertificate,
    NoWitnessFound,
    QuadratureDivergence,
    positive,
)
from .quadrature import DEFAULT_TOL
from .weights import RadialWeight, weight_from_spec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_QUADRATURE = 3

SWEEP_HEADER = "p,c_certified,c_star_upper,witness_found_at_c_star,status"


def parse_poly(text: str) -> Polynomial:
    """Accept the JSON form {"coeffs": ...} or the shorthand "1,0,-2"."""
    text = text.strip()
    if text.startswith("{"):
        return polynomial_from_spec(text)
    try:
        coeffs = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse polynomial {text!r}: {exc}") from exc
    return Polynomial(coeffs)


def parse_weight(text: str) -> RadialWeight:
    """Accept a weight spec as inline JSON or as the path of a JSON file."""
    text = text.strip()
    if not text.startswith("{"):
        path = Path(text)
        if not path.is_file():
            raise DomainError(f"weight spec file not found: {text}")
        text = path.read_text()
    return weight_from_spec(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render(payload: dict, table: list[dict], output: str) -> str:
    """The report: the payload as JSON, or the table's records as CSV or
    as aligned columns, each under a header row of the record keys."""
    if output == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    rows = [list(table[0])] + [[_cell(v) for v in record.values()] for record in table]
    if output == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue().rstrip("\n")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def _cmd_norm(args):
    if len(args.poly) != 1:
        raise DomainError("norm requires exactly one --poly")
    f = args.poly[0]
    value = weighted_norm(f, args.weight, args.p, tol=args.tol)
    payload = {"norm": value, "p": args.p, "poly": f.to_spec(), "weight": args.weight.to_spec()}
    return EXIT_OK, payload, [{"norm": value}]


def _cmd_means(args):
    if len(args.poly) != 1:
        raise DomainError("means requires exactly one --poly")
    radii = [k / (args.grid + 1) for k in range(1, args.grid + 1)]
    profile = mean_profile(args.poly[0], args.p, radii)
    table = [{"r": r, "mean": v} for r, v in zip(profile.radii, profile.values)]
    return EXIT_OK, asdict(profile), table


def _cmd_certify(args):
    cert = certifier.certify(args.weight, quad_tol=args.tol, grid=args.grid)
    return EXIT_OK, asdict(cert) | {"weight": args.weight.to_spec()}, [asdict(cert)]


def _cmd_refute(args):
    witness = refuter.find_counterexample(
        args.p, args.c, args.weight, quad_tol=args.tol, n=args.n
    )
    return EXIT_OK, asdict(witness), [asdict(witness)]


def _cmd_bound(args):
    bound = refuter.monomial_upper_bound(args.p, args.weight)
    return EXIT_OK, asdict(bound), [asdict(bound)]


def _cmd_verify(args):
    if args.poly:
        if len(args.poly) != 2:
            raise DomainError("verify takes either two --poly arguments or none (random sweep)")
        f, g = args.poly
        report = certifier.verify_instance(f, g, args.weight, args.p, args.c, tol=args.tol)
        return EXIT_OK, asdict(report), [asdict(report)]

    rng = np.random.default_rng(args.seed)
    checked = 0
    violations = []
    for _ in range(args.count):
        f, g = certifier.random_dominating_pair(rng)
        report = certifier.verify_instance(f, g, args.weight, args.p, args.c, tol=args.tol)
        if not report.dominates:
            continue
        checked += 1
        if not report.principle_holds:
            violations.append({"f": f.to_spec(), "g": g.to_spec(), "norm_f": report.norm_f, "norm_g": report.norm_g})
    payload = {
        "pairs": args.count,
        "conclusive": checked,
        "violations": violations,
        "seed": args.seed,
    }
    return EXIT_OK, payload, [{"pairs": args.count, "conclusive": checked, "violations": len(violations)}]


def _cmd_sweep(args):
    w = args.weight
    cert_c: float | None = None
    if any(p >= 1.0 for p in args.p):
        try:
            cert_c = certifier.certify(w, quad_tol=args.tol, grid=args.grid).c
        except NoCertificate as exc:
            print(f"korenblum sweep: {exc}", file=sys.stderr)

    rows = []
    for p in args.p:
        row = dict.fromkeys(SWEEP_HEADER.split(","))
        row.update(p=p, status="ok")
        if p >= 1.0:
            row.update(c_certified=cert_c, status="ok" if cert_c is not None else "no_certificate")
        try:
            row["c_star_upper"] = refuter.monomial_upper_bound(p, w, tol=args.tol).c_star
            if p < 1.0:
                try:
                    refuter.find_counterexample(p, row["c_star_upper"], w, quad_tol=args.tol, n=args.n)
                    row["witness_found_at_c_star"] = True
                except NoWitnessFound:
                    row["witness_found_at_c_star"] = False
        except KorenblumError as exc:
            row["status"] = type(exc).__name__
            print(f"korenblum sweep: p = {_cell(p)}: {exc}", file=sys.stderr)
        rows.append(row)
    code = EXIT_OK if all(row["status"] == "ok" for row in rows) else EXIT_NEGATIVE
    return code, {"rows": rows}, rows


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed command; print the report; return the exit code."""
    try:
        code, payload, table = args.handler(args)
    except DomainError as exc:
        print(f"korenblum {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QuadratureDivergence as exc:
        print(f"korenblum {args.command}: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except KorenblumError as exc:
        print(f"korenblum {args.command}: {exc}", file=sys.stderr)
        code = EXIT_NEGATIVE
        payload = {"found": False, "reason": type(exc).__name__, "detail": str(exc)}
        table = [payload]
    print(render(payload, table, args.output))
    return code


def _argument(parse):
    """An argparse ``type=`` converter: a DomainError becomes a usage error (exit 2)."""

    def convert(text: str):
        try:
            return parse(text)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _number(cast, closed=False, many=False):
    """An argparse ``type=`` converter: ``cast`` of the text (with ``many``,
    a tuple of its comma-separated entries), each a finite number > 0
    (>= 0 when ``closed``). A bad value is a usage error naming the flag."""

    def check(text: str):
        return positive("value", cast(text), closed=closed)

    convert = _argument(lambda text: tuple(map(check, text.split(","))) if many else check(text))
    convert.__name__ = cast.__name__  # argparse: "invalid float value: 'x'"
    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command table, built once per process: each subparser binds its handler."""
    parser = argparse.ArgumentParser(
        prog="korenblum",
        description=(
            "Certify, refute, and bound the Korenblum domination principle "
            "for weighted Bergman spaces with radial weights."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    poly = _argument(parse_poly)
    real, count = _number(float), _number(int)
    scan_grid = "radius scan points (default %(default)d)"

    def common(sp, handler, weight=True, tol=True, output="json"):
        sp.set_defaults(handler=handler)
        if weight:
            sp.add_argument("--weight", type=_argument(parse_weight), required=True,
                            help="weight spec JSON or a path to one")
        if tol:
            sp.add_argument("--tol", type=real, default=DEFAULT_TOL,
                            help="quadrature tolerance (default %(default)g)")
        sp.add_argument("--output", choices=("json", "csv", "human"), default=output)

    sp = sub.add_parser("norm", help="weighted Bergman norm of a polynomial")
    sp.add_argument("--poly", type=poly, action="append", required=True, help='coefficients "a0,a1,..." or {"coeffs": ...}')
    sp.add_argument("--p", type=real, required=True)
    common(sp, _cmd_norm)

    sp = sub.add_parser("means", help="circle means along a radius grid")
    sp.add_argument("--poly", type=poly, action="append", required=True)
    sp.add_argument("--p", type=real, required=True)
    sp.add_argument("--grid", type=count, default=32, help="number of radii (default 32)")
    common(sp, _cmd_means, weight=False, tol=False)

    sp = sub.add_parser("certify", help="certify an admissible radius for a weight")
    sp.add_argument("--grid", type=count, default=certifier.DEFAULT_GRID, help=scan_grid)
    common(sp, _cmd_certify)

    sp = sub.add_parser("refute", help="search the explicit family for a norm reversal")
    sp.add_argument("--p", type=real, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--n", type=count, default=None, help="force the family exponent")
    common(sp, _cmd_refute)

    sp = sub.add_parser("bound", help="moment-ratio upper bound on the admissible radius")
    sp.add_argument("--p", type=real, required=True)
    common(sp, _cmd_bound, tol=False)

    sp = sub.add_parser("verify", help="check one dominating pair, or a random sweep")
    sp.add_argument("--poly", type=poly, action="append", default=None, help="give twice: f then g")
    sp.add_argument("--p", type=real, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--count", type=count, default=100, help="random pairs when no --poly given")
    sp.add_argument("--seed", type=_number(int, closed=True), default=0,
                    help="seed of the random sweep (default 0)")
    common(sp, _cmd_verify)

    sp = sub.add_parser("sweep", help="tabulate certificates against upper bounds over p")
    sp.add_argument("--p", type=_number(float, many=True), required=True, help="comma-separated p grid")
    sp.add_argument("--grid", type=count, default=certifier.DEFAULT_GRID, help=scan_grid)
    sp.add_argument("--n", type=count, default=None)
    common(sp, _cmd_sweep, output="csv")

    return parser


def main(argv=None) -> None:
    sys.exit(run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
