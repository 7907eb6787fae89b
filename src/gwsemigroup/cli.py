"""Command-line front end.

Subcommands: ``gen`` (write fixture descriptions), ``query`` (point
queries), ``series`` (box truncations and the semigroup polynomial),
``verify`` (the full consistency suite), and ``plot`` (SVG windows for
two-point descriptions).

Each handler returns its text and exit code; :func:`main` writes the text to
stdout or ``--out`` and maps every error to its exit code, in one place.
Input faults are the library's to find: every ``ValueError`` it raises on a
request is one, and :func:`main` maps it to exit 2 with the library's text.

Exit codes: 0 ok, 1 verification failure, 2 usage error (an ``--out`` that
cannot be written included), 3 resource cap: after the usage checks and before
any work, :func:`_capped` holds to ``--cap`` (``DEFAULT_CAP`` without it) the
fundamental slab's box, which bounds ``d.dim_table``, the ``--box``, the basis
table and basis of ``query basis``, and the entries of the JSON ``gen`` writes.
All outputs are deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .backends import genus0_description, hermitian_description
from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    load_description,
    require_box_dim,
    require_point,
)
from .plotting import render_membership_svg
from .semigroup import (
    dimension,
    is_absolute_maximal,
    is_maximal,
    is_member,
    riemann_roch_basis,
)
from .series import _slab_box, semigroup_polynomial, series_on_box
from .verify import run_verification

__all__ = ["main", "run", "parse_box", "parse_tuple"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_CAP = 10_000_000


class UsageError(ValueError):
    pass


class _CapExceeded(ValueError):
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


def _capped(args: argparse.Namespace, what: str, n: int, unit: str = "points") -> None:
    """The one size gate: exit 3 when n is above ``--cap`` (``DEFAULT_CAP`` without it)."""
    cap = getattr(args, "cap", DEFAULT_CAP)
    if cap < 1:
        raise UsageError(f"cap must be a positive integer, got {cap}")
    if n > cap:
        hint = " (raise --cap to override)" if hasattr(args, "cap") else ""
        raise _CapExceeded(f"{what} holds {n} {unit}, above the cap of {cap}{hint}")


def _box(args: argparse.Namespace, d: SemigroupDescription) -> Box:
    """The ``--box`` window, checked against the description's m and ``--cap``."""
    if args.box is None:
        raise UsageError(f"{args.command} requires --box")
    box = parse_box(args.box)
    require_box_dim(box, d.m)
    _capped(args, "the fundamental slab's box", _slab_box(d).point_count())
    _capped(args, "box", box.point_count())
    return box


def _point(a: Iterable[int]) -> str:
    return "(" + ",".join(str(x) for x in a) + ")"


def _json(payload: object, indent: int | None = None) -> str:
    return json.dumps(payload, sort_keys=True, indent=indent) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (output text, exit code)

# gen family -> (the flag giving its parameter, fixture builder, the integer
# entries its JSON lists at a parameter >= 2): q + 1 gammas of two
# coordinates, or m - 1 generator rows of m coordinates
_FAMILIES = {
    "hermitian": ("q", hermitian_description, lambda q: 2 * (q + 1)),
    "genus0": ("m", genus0_description, lambda m: m * (m - 1)),
}

_QUERIES = {
    "member": is_member,
    "dim": dimension,
    "basis": riemann_roch_basis,
    "maximal": is_maximal,
    "absmaximal": is_absolute_maximal,
}


def _cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    flag, build, size = _FAMILIES[args.family]
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"gen {args.family} requires --{flag}")
    # the output's size is known before the build; a parameter < 2 is the builder's to refuse
    if value > 1:
        _capped(args, f"the {args.family} JSON", size(value), "integer entries")
    return build(value).dumps(), EXIT_OK


def _cmd_query(args: argparse.Namespace) -> tuple[str, int]:
    d = _load(args.desc)
    alpha = require_point(parse_tuple(args.alpha), d.m)
    _capped(args, "the fundamental slab's box", _slab_box(d).point_count())
    if args.op == "basis":  # both sizes are known before either is built
        _capped(args, "the basis table", d._least_translate_count())
        _capped(args, "a basis", dimension(d, alpha))
    result = _QUERIES[args.op](d, alpha)
    if args.format == "json":
        return _json({"op": args.op, "alpha": alpha, "result": result}), EXIT_OK
    # a basis is a list of points; bools and dimensions print as JSON scalars
    text = " ".join(map(_point, result)) if isinstance(result, list) else json.dumps(result)
    return text + "\n", EXIT_OK


def _terms_text(pairs: Iterable[tuple[IntTuple, int]]) -> str:
    """One 'coefficient @ (point)' line per (point, coefficient) pair; '0' for none."""
    body = "\n".join(f"{c} @ {_point(a)}" for a, c in pairs)
    return body + "\n" if body else "0\n"


def _cmd_series(args: argparse.Namespace) -> tuple[str, int]:
    d = _load(args.desc)
    if args.kind == "polynomial":
        if args.box is not None:
            raise UsageError("series polynomial reads the fundamental slab and takes no --box")
        _capped(args, "the fundamental slab's box", _slab_box(d).point_count())
        terms = list(semigroup_polynomial(d).items())
        if args.format == "text":
            return _terms_text(terms), EXIT_OK
        return _json({"kind": "polynomial", "terms": terms}, indent=2), EXIT_OK
    bs = series_on_box(d, args.kind, _box(args, d))
    return (_terms_text(bs.terms()) if args.format == "text" else bs.dumps()), EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    d = _load(args.desc)
    box = _box(args, d)
    results = run_verification(d, box)
    code = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION
    if args.format == "json":
        payload = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        return _json(payload, indent=2), code
    rows = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f": {r.detail}" if r.detail else "")
        for r in results
    ]
    return "\n".join(rows) + "\n", code


def _cmd_plot(args: argparse.Namespace) -> tuple[str, int]:
    d = _load(args.desc)
    # before _box, so that a box above --cap on such a description is still a usage error
    if d.m != 2:
        raise UsageError("plot is available for two-point descriptions only")
    return render_membership_svg(d, _box(args, d)), EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwsemigroup",
        description="Exact-integer queries on finitely described Weierstrass semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags, declared once as parent parsers
    out, desc, box = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("--out", help="output path (stdout when omitted)")
    desc.add_argument("--desc", required=True, help="description file")
    box.add_argument("--box", help="window 'l1..u1,l2..u2,...'")
    box.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest box point count")
    cmd = {}
    for name, handler, parents, fmt, summary in (
        ("gen", _cmd_gen, [], None, "write a fixture description file"),
        ("query", _cmd_query, [desc], "text", "point query against a description"),
        ("series", _cmd_series, [desc, box], "json", "series truncation or the semigroup polynomial"),
        ("verify", _cmd_verify, [desc, box], "text", "run every consistency check over a box"),
        ("plot", _cmd_plot, [desc, box], None, "SVG window plot (two-point descriptions)"),
    ):
        cmd[name] = sub.add_parser(name, help=summary, parents=[*parents, out])
        cmd[name].set_defaults(handler=handler)
        if fmt is not None:
            cmd[name].add_argument("--format", choices=["json", "text"], default=fmt)
    cmd["gen"].add_argument("family", choices=_FAMILIES)
    cmd["gen"].add_argument("--q", type=int, help="prime power for the hermitian family")
    cmd["gen"].add_argument("--m", type=int, help="number of points for the genus-0 family")
    cmd["query"].add_argument("op", choices=_QUERIES)
    cmd["query"].add_argument("alpha", help="integer tuple, e.g. '2,2' or '(3,-1)'")
    cmd["series"].add_argument("kind", choices=["L", "Q", "P", "polynomial"])
    return parser


_PARSER = _build_parser()


def _merge_flag_values(argv: list[str]) -> list[str]:
    # Every option but --help takes one value: glue '--box -8..9,...' into
    # '--box=-8..9,...' and wrap a bare tuple '-1,5' as '(-1,5)', so argparse
    # does not read a leading minus sign as a new option.
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg[:2] == "--" and not "--help".startswith(arg) and "=" not in arg:
            value = next(rest, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(f"({arg})" if arg[:1] == "-" and arg[1:2].isdigit() else arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(_merge_flag_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        text, code = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, _CapExceeded) else EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())
