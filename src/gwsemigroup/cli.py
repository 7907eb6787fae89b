"""Command-line front end.

Subcommands: ``gen`` (write fixture descriptions), ``query`` (point
queries), ``series`` (box truncations and the semigroup polynomial),
``verify`` (the full consistency suite), and ``plot`` (SVG windows for
two-point descriptions).

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource cap.
All outputs are deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .backends import genus0_description, hermitian_description
from .core import Box, IntTuple, SemigroupDescription, load_description
from .plotting import render_membership_svg
from .semigroup import (
    dimension,
    is_absolute_maximal,
    is_maximal,
    is_member,
    riemann_roch_basis,
)
from .series import semigroup_polynomial, series_on_box
from .verify import run_verification

__all__ = ["main", "run", "parse_box", "parse_tuple"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_CAP = 10_000_000


class UsageError(Exception):
    pass


def parse_tuple(text: str) -> tuple[int, ...]:
    """Parse '3,-1' or '(3,-1)' into an integer tuple."""
    body = text.strip().strip("()")
    try:
        return tuple(int(part.strip()) for part in body.split(","))
    except ValueError:
        raise UsageError(f"cannot parse tuple from {text!r}") from None


def parse_box(text: str) -> Box:
    """Parse 'l1..u1,l2..u2,...' into a box."""
    lows, highs = [], []
    for piece in text.split(","):
        parts = piece.split("..")
        if len(parts) != 2:
            raise UsageError(f"cannot parse box range {piece!r} (expected 'lo..hi')")
        try:
            lows.append(int(parts[0]))
            highs.append(int(parts[1]))
        except ValueError:
            raise UsageError(f"cannot parse box range {piece!r}") from None
    try:
        return Box(tuple(lows), tuple(highs))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load(path: str) -> SemigroupDescription:
    try:
        return load_description(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"cannot load description {path!r}: {exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _enforce_cap(box: Box, cap: int) -> None:
    n = box.point_count()
    if n > cap:
        raise _CapExceeded(f"box holds {n} points, above the cap of {cap}")


class _CapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "hermitian":
        if args.q is None:
            raise UsageError("gen hermitian requires --q")
        try:
            d = hermitian_description(args.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        if args.m is None:
            raise UsageError("gen genus0 requires --m")
        try:
            d = genus0_description(args.m)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        _write_output(d.dumps(), args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    d = _load(args.desc)
    alpha = parse_tuple(args.alpha)
    if len(alpha) != d.m:
        raise UsageError(f"tuple {alpha} has length {len(alpha)}, description has m={d.m}")
    if args.op == "member":
        result: object = is_member(d, alpha)
    elif args.op == "dim":
        result = dimension(d, alpha)
    elif args.op == "basis":
        result = riemann_roch_basis(d, alpha)
    elif args.op == "maximal":
        result = is_maximal(d, alpha)
    else:
        result = is_absolute_maximal(d, alpha)
    if args.format == "json":
        payload = {"op": args.op, "alpha": list(alpha)}
        if args.op == "basis":
            payload["result"] = [list(b) for b in result]  # type: ignore[union-attr]
        else:
            payload["result"] = result
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        if isinstance(result, bool):
            text = ("true" if result else "false") + "\n"
        elif isinstance(result, list):
            text = " ".join("(" + ",".join(str(x) for x in b) + ")" for b in result) + "\n"
        else:
            text = str(result) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def _terms_text(pairs: Iterable[tuple[IntTuple, int]]) -> str:
    """One 'coefficient @ (point)' line per (point, coefficient) pair; '0' for none."""
    body = "\n".join(f"{c} @ (" + ",".join(str(x) for x in a) + ")" for a, c in pairs)
    return body + "\n" if body else "0\n"


def _cmd_series(args: argparse.Namespace) -> int:
    d = _load(args.desc)
    if args.kind == "polynomial":
        poly = semigroup_polynomial(d)
        if args.format == "text":
            text = _terms_text(poly.items())
        else:
            payload = {"kind": "polynomial", "terms": [[list(a), c] for a, c in poly.items()]}
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _write_output(text, args.out)
        return EXIT_OK
    if args.box is None:
        raise UsageError(f"series {args.kind} requires --box")
    box = parse_box(args.box)
    if box.dim != d.m:
        raise UsageError(f"box dimension {box.dim} disagrees with description m={d.m}")
    _enforce_cap(box, args.cap)
    bs = series_on_box(d, args.kind, box)
    text = _terms_text(bs.terms()) if args.format == "text" else bs.dumps()
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    d = _load(args.desc)
    box = parse_box(args.box)
    if box.dim != d.m:
        raise UsageError(f"box dimension {box.dim} disagrees with description m={d.m}")
    _enforce_cap(box, args.cap)
    results = run_verification(d, box)
    if args.format == "json":
        payload = [
            {"check": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rows = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            rows.append(f"{status} {r.name}" + (f": {r.detail}" if r.detail else ""))
        text = "\n".join(rows) + "\n"
    _write_output(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION


def _cmd_plot(args: argparse.Namespace) -> int:
    d = _load(args.desc)
    if d.m != 2:
        raise UsageError("plot is available for two-point descriptions only")
    box = parse_box(args.box)
    if box.dim != 2:
        raise UsageError("plot needs a two-dimensional box")
    _enforce_cap(box, args.cap)
    _write_output(render_membership_svg(d, box), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwsemigroup",
        description="Exact-integer queries on finitely described Weierstrass semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a fixture description file")
    p_gen.add_argument("family", choices=["hermitian", "genus0"])
    p_gen.add_argument("--q", type=int, help="prime power for the hermitian family")
    p_gen.add_argument("--m", type=int, help="number of points for the genus-0 family")
    p_gen.add_argument("--out", help="output path (stdout when omitted)")

    p_query = sub.add_parser("query", help="point query against a description")
    p_query.add_argument("op", choices=["member", "dim", "basis", "maximal", "absmaximal"])
    p_query.add_argument("alpha", help="integer tuple, e.g. '2,2' or '(3,-1)'")
    p_query.add_argument("--desc", required=True)
    p_query.add_argument("--out")
    p_query.add_argument("--format", choices=["json", "text"], default="text")

    p_series = sub.add_parser("series", help="series truncation or the semigroup polynomial")
    p_series.add_argument("kind", choices=["L", "Q", "P", "polynomial"])
    p_series.add_argument("--desc", required=True)
    p_series.add_argument("--box", help="window 'l1..u1,l2..u2,...'")
    p_series.add_argument("--out")
    p_series.add_argument("--format", choices=["json", "text"], default="json")
    p_series.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p_verify = sub.add_parser("verify", help="run every consistency check over a box")
    p_verify.add_argument("--desc", required=True)
    p_verify.add_argument("--box", required=True)
    p_verify.add_argument("--out")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p_plot = sub.add_parser("plot", help="SVG window plot (two-point descriptions)")
    p_plot.add_argument("--desc", required=True)
    p_plot.add_argument("--box", required=True)
    p_plot.add_argument("--out")
    p_plot.add_argument("--cap", type=int, default=DEFAULT_CAP)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "query": _cmd_query,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


_VALUE_FLAGS = {"--box", "--out", "--desc", "--q", "--m", "--cap", "--format"}


def _merge_flag_values(argv: list[str]) -> list[str]:
    # Glue '--box -8..9,...' into '--box=-8..9,...' and wrap a bare tuple
    # '-1,5' as '(-1,5)', so argparse does not read a leading minus sign as
    # a new option.
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(f"({arg})" if arg[:1] == "-" and arg[1:2].isdigit() else arg)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_flag_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CapExceeded as exc:
        print(f"error: {exc} (raise --cap to override)", file=sys.stderr)
        return EXIT_CAP


def run() -> None:
    sys.exit(main())
