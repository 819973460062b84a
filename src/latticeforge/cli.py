"""Command-line front end: file I/O, subcommands, machine-readable reports.

A report goes to stdout as one line of JSON, keys sorted and no whitespace
(`_dumps`, the encoding `input_digest` hashes); a short human summary goes
to stderr.  Exit codes partition outcomes: 0 success / property holds, 1
mathematically negative result, 2 input error, 3 resource cap exceeded.

Each command is declared once, in the `_COMMANDS` table: its name, help
text, argument set-up and handler.  A run of a command builds the parser of
that command alone (`_parser(name)`).  The full parser (`build_parser`),
built from the same table, handles the rest: no arguments, -h/--help,
--version, an unknown command, and the error for arguments a command
leaves over.  Output and exit codes are those of the full parser for every
argv.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .errors import (
    LatticeForgeError,
    PointOutsideError,
    PolytopeFileError,
    ResourceLimitError,
)
from .fixtures import example
from .geometry import LatticePolytope, LatticeSimplex, _check_positive, contains, dilate, lattice_points
from .sumsets import find_sum_decomposition, idp_check, idp_scan
from .unimodular import (
    Decomposition,
    EllReport,
    SimplicialCover,
    _placing_search,
    decompose,
    find_ell,
    hnf_diagonal,
    is_unimodular,
    lattice_index,
    verify_cover,
)

SCHEMA = "latticeforge/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# Strict JSON input: integers only, no floats anywhere.
# ---------------------------------------------------------------------------


def _reject_float(text: str):
    raise PolytopeFileError(f"floating point literal {text!r} is not allowed in input files")


def parse_strict_json(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise PolytopeFileError(f"invalid JSON: {exc}") from exc


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise PolytopeFileError(f"{what} must be an integer, got {value!r}")
    return value


def _check_vector(row, dim: int, what: str) -> tuple:
    if not isinstance(row, list) or len(row) != dim:
        raise PolytopeFileError(f"{what} must be a list of {dim} integers, got {row!r}")
    return tuple(_check_int(x, f"coordinate of {what}") for x in row)


def _check_header(data, what: str, body: str, optional: tuple) -> int:
    """The dim of a parsed `what` file: a JSON object with the fields 'dim'
    and `body`, and no others than `optional`, whose dim is an int >= 1."""
    if not isinstance(data, dict):
        raise PolytopeFileError(f"{what} file must be a JSON object")
    unknown = set(data) - {"dim", body, *optional}
    if unknown:
        raise PolytopeFileError(f"unknown {what} file fields: {sorted(unknown)}")
    if "dim" not in data or body not in data:
        raise PolytopeFileError(f"{what} file needs 'dim' and '{body}' fields")
    dim = _check_int(data["dim"], "dim")
    if dim < 1:
        raise PolytopeFileError("dim must be >= 1")
    return dim


def parse_polytope_data(data) -> dict:
    """Validate a parsed polytope file into {dim, vertices, name?}."""
    dim = _check_header(data, "polytope", "vertices", ("name",))
    rows = data["vertices"]
    if not isinstance(rows, list) or not rows:
        raise PolytopeFileError("'vertices' must be a non-empty list")
    vertices = [list(_check_vector(row, dim, "vertex")) for row in rows]
    out = {"dim": dim, "vertices": vertices}
    if "name" in data:
        out["name"] = _check_name(data["name"])
    return out


def _check_name(value) -> str:
    if not isinstance(value, str):
        raise PolytopeFileError("'name' must be a string")
    return value


def parse_cover_data(data) -> dict:
    """Validate a parsed cover file into {dim, cells, kind}; its name, if
    any, is checked and dropped."""
    dim = _check_header(data, "cover", "cells", ("kind", "name"))
    cells_raw = data["cells"]
    if not isinstance(cells_raw, list) or not cells_raw:
        raise PolytopeFileError("'cells' must be a non-empty list of vertex lists")
    cells = []
    for cell in cells_raw:
        if not isinstance(cell, list):
            raise PolytopeFileError("every cell must be a list of vertices")
        cells.append([list(_check_vector(v, dim, "cell vertex")) for v in cell])
    kind = data.get("kind", "triangulation")
    if kind not in ("triangulation", "general-cover"):
        raise PolytopeFileError(f"cover kind must be triangulation or general-cover, got {kind!r}")
    if "name" in data:
        _check_name(data["name"])
    return {"dim": dim, "cells": cells, "kind": kind}


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PolytopeFileError(f"cannot read {path}: {exc}") from exc


def _dumps(value) -> str:
    """The compact JSON of `value`, keys sorted: a report as printed, and
    the text whose hash is `input_digest`."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(data) -> str:
    return "sha256:" + hashlib.sha256(_dumps(data).encode("utf-8")).hexdigest()


def _load_input(args) -> tuple:
    """Resolve FILE / --example into (payload, file-dict, digest).

    The payload is a LatticePolytope, or a validated cover dict when the
    command is unimodular-test and the file carries a "cells" field.
    """
    if args.example is not None and args.file is not None:
        raise PolytopeFileError("give either a polytope file or --example, not both")
    if args.example is not None:
        poly = example(args.example)
        data = {"dim": poly.dim, "vertices": poly.vertices, "name": args.example}
        return poly, data, _digest(data)
    if args.file is None:
        raise PolytopeFileError("no input: give a polytope file or --example NAME")
    raw = parse_strict_json(_read_file(args.file))
    if args.command == "unimodular-test" and isinstance(raw, dict) and "cells" in raw:
        data = parse_cover_data(raw)
        return data, data, _digest(data)
    data = parse_polytope_data(raw)
    return LatticePolytope(data["vertices"]), data, _digest(data)


def _cli_int(text: str) -> int:
    """An optionally signed integer of ASCII digits, surrounding whitespace
    allowed: the integers of an input file, with no '_' or other digits."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(body)


def _parse_point(text: str) -> tuple:
    try:
        return tuple(map(_cli_int, text.split(",")))
    except argparse.ArgumentTypeError as exc:
        raise PolytopeFileError(f"--point must be comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Result serialization.
# ---------------------------------------------------------------------------


def _decomposition_json(d: Decomposition) -> dict:
    return {
        "h": d.h,
        "point": list(d.point()),
        "parts": d.parts,
        "weights": [{"vertex": list(v), "weight": w} for v, w in d.weights],
        "cell": d.cell.vertices,
    }


def _cover_json(cover: SimplicialCover) -> dict:
    return {
        "dim": cover.target.dim,
        "kind": cover.kind,
        "certified": cover.certified,
        "cells": [c.vertices for c in cover.cells],
    }


def _ell_json(report: EllReport) -> dict:
    return {
        "ell": report.ell,
        "per_ell": [
            {
                "ell": row.ell,
                "certificate": row.certificate,
                "cells": row.cell_count,
                "idp": [r._asdict() for r in row.idp],
            }
            for row in report.per_ell
        ],
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (result-dict, exit-code, summary-lines).
# ---------------------------------------------------------------------------


def _simplex_verdict(simplex: LatticeSimplex) -> dict:
    return {
        "lattice_index": lattice_index(simplex),
        "unimodular": is_unimodular(simplex),
        "hnf_diagonal": list(hnf_diagonal(simplex)),
    }


def _cmd_unimodular_test(args, inp):
    if isinstance(inp, dict):  # cover file: test one cell or every cell
        cells = inp["cells"]
        if args.cell is not None:
            if not 0 <= args.cell < len(cells):
                raise PolytopeFileError(
                    f"--cell {args.cell} out of range (cover has {len(cells)} cells)"
                )
            selected = [(args.cell, cells[args.cell])]
        else:
            selected = list(enumerate(cells))
        verdicts = []
        summary = []
        for idx, cell in selected:
            v = _simplex_verdict(LatticeSimplex(cell))
            v["cell"] = idx
            verdicts.append(v)
            word = "unimodular" if v["unimodular"] else "not unimodular"
            summary.append(f"cell {idx}: lattice index {v['lattice_index']}; {word}")
        all_ok = all(v["unimodular"] for v in verdicts)
        return {"cells": verdicts, "all_unimodular": all_ok}, (
            EXIT_OK if all_ok else EXIT_NEGATIVE
        ), summary
    if args.cell is not None:
        raise PolytopeFileError("--cell only applies to cover files")
    result = _simplex_verdict(LatticeSimplex(inp.vertices))
    word = "unimodular" if result["unimodular"] else "not unimodular"
    summary = [
        f"lattice index {result['lattice_index']}; {word}; "
        f"hnf diagonal {tuple(result['hnf_diagonal'])}"
    ]
    return result, (EXIT_OK if result["unimodular"] else EXIT_NEGATIVE), summary


def _cmd_idp_check(args, poly: LatticePolytope):
    if (args.h is None) == (args.h_max is None):
        raise PolytopeFileError("give exactly one of --h or --h-max")
    if args.h is not None:
        reports = (idp_check(poly, _check_positive(args.h, "--h")),)
    else:
        reports = idp_scan(poly, _check_positive(args.h_max, "--h-max"))
    all_hold = all(r.holds for r in reports)
    result = {"reports": [r._asdict() for r in reports], "all_hold": all_hold}
    summary = []
    for r in reports:
        if r.holds:
            summary.append(f"h={r.h}: holds ({r.dilate_size} points)")
        else:
            summary.append(
                f"h={r.h}: FAILS with {len(r.witnesses)} witness(es), first {r.witnesses[0]}"
            )
    return result, (EXIT_OK if all_hold else EXIT_NEGATIVE), summary


def _verify_cover_file(path: str, poly: LatticePolytope) -> tuple:
    """Load a cover file over `poly` and certify it: (cover carrying the
    certification's status, certification)."""
    cover_data = parse_cover_data(parse_strict_json(_read_file(path)))
    if cover_data["dim"] != poly.dim:
        raise PolytopeFileError("cover dimension does not match the polytope")
    cells = tuple(LatticeSimplex(c) for c in cover_data["cells"])
    cover = SimplicialCover(target=poly, cells=cells, kind=cover_data["kind"])
    cert = verify_cover(cover)
    return cover._replace(certified=cert.status), cert


def _cmd_decompose(args, poly: LatticePolytope):
    point = _parse_point(args.point)
    h = _check_positive(args.h, "--h")
    if len(point) != poly.dim:
        raise PolytopeFileError(f"--point has dimension {len(point)}, polytope has {poly.dim}")
    if not contains(dilate(poly, h), point):
        raise PointOutsideError(f"{point} is not in the {h}-fold dilate of the polytope")

    cover = None
    if args.cover is not None:
        candidate, cert = _verify_cover_file(args.cover, poly)
        cover_source = {"path": args.cover, "certification": cert.status, "problems": list(cert.problems)}
        if cert.status == "certified":
            cover = candidate
    else:
        attempts = _check_positive(args.attempts, "--attempts")
        certificate, cover = _placing_search(poly, attempts, args.seed)
        cover_source = {"path": None, "search": certificate}

    if cover is not None:
        dec = decompose(poly, cover, point, h)
        result = {
            "mode": "certified-cover",
            "cover": cover_source,
            "decomposition": _decomposition_json(dec),
        }
        parts = " + ".join(str(tuple(p)) for p in dec.parts)
        return result, EXIT_OK, [f"{tuple(point)} = {parts}"]

    # No certified cover: report the direct exhaustive search instead.
    parts = find_sum_decomposition(lattice_points(poly), point, h)
    result = {
        "mode": "direct-search",
        "cover": cover_source,
        "decomposition_exists": parts is not None,
        "parts": parts,
    }
    if parts is None:
        summary = [
            "no certified cover; exhaustive search proves no decomposition "
            f"of {tuple(point)} into {h} lattice points exists"
        ]
    else:
        joined = " + ".join(str(tuple(p)) for p in parts)
        summary = [f"no certified cover, but a decomposition exists: {tuple(point)} = {joined}"]
    return result, EXIT_NEGATIVE, summary


def _cmd_triangulate(args, poly: LatticePolytope):
    if args.verify_cover is not None:
        cover, cert = _verify_cover_file(args.verify_cover, poly)
        result = {
            "mode": "verify",
            "certification": cert.status,
            "problems": list(cert.problems),
            "cover": _cover_json(cover),
        }
        ok = cert.status != "uncertified"
        return result, (EXIT_OK if ok else EXIT_NEGATIVE), [f"cover status: {cert.status}"]

    attempts = _check_positive(args.attempts, "--attempts")
    certificate, cover = _placing_search(poly, attempts, args.seed)
    result = {
        "mode": "search",
        "certificate": certificate,
        "cover": _cover_json(cover) if cover is not None else None,
    }
    if cover is not None:
        return result, EXIT_OK, [f"certified triangulation with {len(cover.cells)} unimodular cells"]
    if certificate == "impossible":
        summary = ["no unimodular triangulation exists (the triangulation is unique)"]
    else:
        summary = ["no unimodular triangulation found (existence unknown)"]
    return result, EXIT_NEGATIVE, summary


def _cmd_find_ell(args, poly: LatticePolytope):
    report = find_ell(
        poly,
        ell_max=_check_positive(args.ell_max, "--ell-max"),
        h_max=_check_positive(args.h_max, "--h-max"),
        attempts=_check_positive(args.attempts, "--attempts"),
        seed=args.seed,
    )
    result = _ell_json(report)
    summary = []
    for row in report.per_ell:
        verdicts = ",".join(f"h{r.h}:{'ok' if r.holds else 'FAIL'}" for r in row.idp)
        summary.append(f"ell={row.ell}: certificate {row.certificate}; {verdicts}")
    if report.ell is not None:
        summary.append(f"smallest certified dilation factor: {report.ell}")
    else:
        summary.append("no certified dilation factor within the cap")
    return result, (EXIT_OK if report.ell is not None else EXIT_NEGATIVE), summary


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def _add_input_args(sub):
    sub.add_argument("file", nargs="?", default=None, help="polytope JSON file")
    sub.add_argument(
        "--example",
        default=None,
        metavar="NAME",
        help="built-in fixture: std-simplex-N, cube-N, a1, a2",
    )


def _add_search_args(sub):
    sub.add_argument("--attempts", type=_cli_int, default=20, help="triangulation search attempts")
    sub.add_argument("--seed", type=_cli_int, default=0, help="seed for the random insertion orders")


def _unimodular_test_args(sub):
    sub.add_argument("--cell", type=_cli_int, default=None, help="test one cell of a cover file")


def _idp_check_args(sub):
    sub.add_argument("--h", type=_cli_int, default=None, help="single h to check")
    sub.add_argument("--h-max", type=_cli_int, default=None, help="check every h up to this")


def _decompose_args(sub):
    sub.add_argument("--point", required=True, help="comma-separated integer coordinates")
    sub.add_argument("--h", type=_cli_int, required=True, help="number of summands")
    sub.add_argument("--cover", default=None, help="cover JSON file (searched when absent)")
    _add_search_args(sub)


def _triangulate_args(sub):
    _add_search_args(sub)
    sub.add_argument("--verify-cover", default=None, help="verify this cover file instead of searching")


def _find_ell_args(sub):
    sub.add_argument("--ell-max", type=_cli_int, required=True, help="largest dilation factor to try")
    sub.add_argument("--h-max", type=_cli_int, default=3, help="direct checks per factor")
    _add_search_args(sub)


# Every command once: name -> (help, its arguments after the input ones, handler).
_COMMANDS = {
    "unimodular-test": (
        "lattice index and unimodularity of a simplex", _unimodular_test_args, _cmd_unimodular_test
    ),
    "idp-check": ("brute-force h-fold decomposition check", _idp_check_args, _cmd_idp_check),
    "decompose": ("write a dilate lattice point as a sum of h points", _decompose_args, _cmd_decompose),
    "triangulate": ("search or verify a unimodular triangulation", _triangulate_args, _cmd_triangulate),
    "find-ell": (
        "search for a dilation factor with a certified triangulation", _find_ell_args, _cmd_find_ell
    ),
}


def _add_command(sub, name: str) -> None:
    """Give `sub` command `name`'s arguments and its command/handler defaults."""
    _, add_args, handler = _COMMANDS[name]
    _add_input_args(sub)
    add_args(sub)
    sub.set_defaults(command=name, handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command a subparser."""
    parser = argparse.ArgumentParser(
        prog="latticeforge",
        description="Exact certification of h-fold lattice-point decompositions in polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"latticeforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(subs.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, as build_parser's subparser for it, or
    the full parser when `command` is None; each is built on its first call,
    and parsing leaves it unchanged."""
    if command is None:
        return build_parser()
    parser = argparse.ArgumentParser(prog=f"latticeforge {command}")
    _add_command(parser, command)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the same output and exit on
    every argv, but a run of a command builds that command's parser alone.

    Arguments the command's parser leaves over go to the full parser's
    error, as a subparser's do, so the message keeps the top-level usage.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = _parser(argv[0]).parse_known_args(argv[1:])
        if extras:
            _parser().error("unrecognized arguments: " + " ".join(extras))
        return args
    return _parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    started = time.perf_counter()
    try:
        inp, data, digest = _load_input(args)
        result, code, summary = args.handler(args, inp)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, TypeError, LatticeForgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "argv": list(argv),
        "input": data,
        "input_digest": digest,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    print(_dumps(report))
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
