"""Command-line front end: file I/O, subcommands, machine-readable reports.

JSON reports go to stdout, a short human summary to stderr.  Exit codes
partition outcomes: 0 success / property holds, 1 mathematically negative
result, 2 input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .errors import (
    LatticeForgeError,
    PointOutsideError,
    PolytopeFileError,
    ResourceLimitError,
)
from .fixtures import example
from .geometry import LatticePolytope, LatticeSimplex, contains, lattice_points
from .sumsets import IdpReport, find_sum_decomposition, idp_check, idp_scan
from .unimodular import (
    Decomposition,
    EllReport,
    SimplicialCover,
    decompose,
    find_ell,
    find_unimodular_triangulation,
    has_unique_triangulation,
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


def parse_polytope_data(data) -> dict:
    """Validate a parsed polytope file into {dim, vertices, name?}."""
    if not isinstance(data, dict):
        raise PolytopeFileError("polytope file must be a JSON object")
    allowed = {"dim", "vertices", "name"}
    unknown = set(data) - allowed
    if unknown:
        raise PolytopeFileError(f"unknown polytope file fields: {sorted(unknown)}")
    if "dim" not in data or "vertices" not in data:
        raise PolytopeFileError("polytope file needs 'dim' and 'vertices' fields")
    dim = _check_int(data["dim"], "dim")
    if dim < 1:
        raise PolytopeFileError("dim must be >= 1")
    rows = data["vertices"]
    if not isinstance(rows, list) or not rows:
        raise PolytopeFileError("'vertices' must be a non-empty list")
    vertices = [_check_vector(row, dim, "vertex") for row in rows]
    out = {"dim": dim, "vertices": [list(v) for v in vertices]}
    if "name" in data:
        if not isinstance(data["name"], str):
            raise PolytopeFileError("'name' must be a string")
        out["name"] = data["name"]
    return out


def parse_cover_data(data) -> dict:
    """Validate a parsed cover file into {dim, cells, kind}."""
    if not isinstance(data, dict):
        raise PolytopeFileError("cover file must be a JSON object")
    allowed = {"dim", "cells", "kind", "name"}
    unknown = set(data) - allowed
    if unknown:
        raise PolytopeFileError(f"unknown cover file fields: {sorted(unknown)}")
    if "dim" not in data or "cells" not in data:
        raise PolytopeFileError("cover file needs 'dim' and 'cells' fields")
    dim = _check_int(data["dim"], "dim")
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
    return {"dim": dim, "cells": cells, "kind": kind}


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PolytopeFileError(f"cannot read {path}: {exc}") from exc


def _digest(data) -> str:
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_input(args, allow_cover: bool = False) -> tuple:
    """Resolve FILE / --example into (payload, file-dict, digest).

    The payload is a LatticePolytope, or a validated cover dict when
    `allow_cover` is set and the file carries a "cells" field.
    """
    if args.example is not None and args.file is not None:
        raise PolytopeFileError("give either a polytope file or --example, not both")
    if args.example is not None:
        poly = example(args.example)
        data = {"dim": poly.dim, "vertices": [list(v) for v in poly.vertices], "name": args.example}
        return poly, data, _digest(data)
    if args.file is None:
        raise PolytopeFileError("no input: give a polytope file or --example NAME")
    raw = parse_strict_json(_read_file(args.file))
    if allow_cover and isinstance(raw, dict) and "cells" in raw:
        data = parse_cover_data(raw)
        return data, data, _digest(data)
    data = parse_polytope_data(raw)
    return LatticePolytope(data["vertices"]), data, _digest(data)


def _parse_point(text: str) -> tuple:
    try:
        return tuple(int(tok.strip(), 10) for tok in text.split(","))
    except ValueError as exc:
        raise PolytopeFileError(f"--point must be comma-separated integers, got {text!r}") from exc


def _positive(args_value: int, flag: str) -> int:
    if not isinstance(args_value, int) or args_value < 1:
        raise PolytopeFileError(f"{flag} must be a positive integer, got {args_value!r}")
    return args_value


# ---------------------------------------------------------------------------
# Result serialization.
# ---------------------------------------------------------------------------


def _points_json(points) -> list:
    return [list(p) for p in points]


def _idp_json(report: IdpReport) -> dict:
    return {
        "h": report.h,
        "holds": report.holds,
        "witnesses": _points_json(report.witnesses),
        "sum_size": report.sum_size,
        "dilate_size": report.dilate_size,
    }


def _decomposition_json(d: Decomposition) -> dict:
    return {
        "h": d.h,
        "point": list(d.point()),
        "parts": _points_json(d.parts),
        "weights": [{"vertex": list(v), "weight": w} for v, w in d.weights],
        "cell": _points_json(d.cell.vertices),
    }


def _cover_json(cover: SimplicialCover) -> dict:
    return {
        "dim": cover.target.dim,
        "kind": cover.kind,
        "certified": cover.certified,
        "cells": [_points_json(c.vertices) for c in cover.cells],
    }


def _ell_json(report: EllReport) -> dict:
    return {
        "ell": report.ell,
        "per_ell": [
            {
                "ell": row.ell,
                "certificate": row.certificate,
                "cells": row.cell_count,
                "idp": [_idp_json(r) for r in row.idp],
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
        reports = (idp_check(poly, _positive(args.h, "--h")),)
    else:
        reports = idp_scan(poly, _positive(args.h_max, "--h-max"))
    all_hold = all(r.holds for r in reports)
    result = {"reports": [_idp_json(r) for r in reports], "all_hold": all_hold}
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
    """Load a cover file over `poly` and certify it: (cover, certification)."""
    cover_data = parse_cover_data(parse_strict_json(_read_file(path)))
    if cover_data["dim"] != poly.dim:
        raise PolytopeFileError("cover dimension does not match the polytope")
    cells = tuple(LatticeSimplex(c) for c in cover_data["cells"])
    cover = SimplicialCover(target=poly, cells=cells, kind=cover_data["kind"])
    return cover, verify_cover(cover)


def _cmd_decompose(args, poly: LatticePolytope):
    point = _parse_point(args.point)
    h = _positive(args.h, "--h")
    if len(point) != poly.dim:
        raise PolytopeFileError(f"--point has dimension {len(point)}, polytope has {poly.dim}")
    if not contains(poly, tuple(Fraction(x, h) for x in point)):
        raise PointOutsideError(f"{point} is not in the {h}-fold dilate of the polytope")

    cover = None
    cover_source = None
    if args.cover is not None:
        candidate, cert = _verify_cover_file(args.cover, poly)
        cover_source = {"path": args.cover, "certification": cert.status, "problems": list(cert.problems)}
        if cert.status == "certified":
            cover = replace(candidate, certified="certified")
    else:
        cover = find_unimodular_triangulation(
            poly, attempts=_positive(args.attempts, "--attempts"), seed=args.seed
        )
        cover_source = {"path": None, "search": "found" if cover else "not-found"}

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
        "parts": _points_json(parts) if parts is not None else None,
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
        candidate, cert = _verify_cover_file(args.verify_cover, poly)
        result = {
            "mode": "verify",
            "certification": cert.status,
            "problems": list(cert.problems),
            "cover": _cover_json(candidate),
        }
        ok = cert.status != "uncertified"
        return result, (EXIT_OK if ok else EXIT_NEGATIVE), [f"cover status: {cert.status}"]

    cover = find_unimodular_triangulation(
        poly, attempts=_positive(args.attempts, "--attempts"), seed=args.seed
    )
    if cover is not None:
        result = {
            "mode": "search",
            "certificate": "certified",
            "cover": _cover_json(cover),
        }
        return result, EXIT_OK, [f"certified triangulation with {len(cover.cells)} unimodular cells"]
    status = "impossible" if has_unique_triangulation(poly) else "not-found"
    result = {"mode": "search", "certificate": status, "cover": None}
    if status == "impossible":
        summary = ["no unimodular triangulation exists (the triangulation is unique)"]
    else:
        summary = ["no unimodular triangulation found (existence unknown)"]
    return result, EXIT_NEGATIVE, summary


def _cmd_find_ell(args, poly: LatticePolytope):
    report = find_ell(
        poly,
        ell_max=_positive(args.ell_max, "--ell-max"),
        h_max=_positive(args.h_max, "--h-max"),
        attempts=_positive(args.attempts, "--attempts"),
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
    sub.add_argument("--attempts", type=int, default=20, help="triangulation search attempts")
    sub.add_argument("--seed", type=int, default=0, help="seed for shuffled insertion orders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeforge",
        description="Exact certification of h-fold lattice-point decompositions in polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"latticeforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("unimodular-test", help="lattice index and unimodularity of a simplex")
    _add_input_args(p)
    p.add_argument("--cell", type=int, default=None, help="test one cell of a cover file")
    p.set_defaults(handler=_cmd_unimodular_test)

    p = subs.add_parser("idp-check", help="brute-force h-fold decomposition check")
    _add_input_args(p)
    p.add_argument("--h", type=int, default=None, help="single h to check")
    p.add_argument("--h-max", type=int, default=None, help="check every h up to this")
    p.set_defaults(handler=_cmd_idp_check)

    p = subs.add_parser("decompose", help="write a dilate lattice point as a sum of h points")
    _add_input_args(p)
    p.add_argument("--point", required=True, help="comma-separated integer coordinates")
    p.add_argument("--h", type=int, required=True, help="number of summands")
    p.add_argument("--cover", default=None, help="cover JSON file (searched when absent)")
    _add_search_args(p)
    p.set_defaults(handler=_cmd_decompose)

    p = subs.add_parser("triangulate", help="search or verify a unimodular triangulation")
    _add_input_args(p)
    _add_search_args(p)
    p.add_argument("--verify-cover", default=None, help="verify this cover file instead of searching")
    p.set_defaults(handler=_cmd_triangulate)

    p = subs.add_parser("find-ell", help="search for a dilation factor with a certified triangulation")
    _add_input_args(p)
    p.add_argument("--ell-max", type=int, required=True, help="largest dilation factor to try")
    p.add_argument("--h-max", type=int, default=3, help="direct checks per factor")
    _add_search_args(p)
    p.set_defaults(handler=_cmd_find_ell)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        inp, data, digest = _load_input(args, allow_cover=args.command == "unimodular-test")
        result, code, summary = args.handler(args, inp)
    except (PolytopeFileError, PointOutsideError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    print(json.dumps(report, indent=2, sort_keys=True))
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
