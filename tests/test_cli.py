import argparse
import importlib.util
import itertools
import json
import os
import subprocess
import sys

import pytest

from helpers import staircase_cells
from latticeforge import cli, geometry
from latticeforge.cli import (
    build_parser,
    main,
    parse_cover_data,
    parse_polytope_data,
    parse_strict_json,
)
from latticeforge.errors import PolytopeFileError
from latticeforge.fixtures import example


#: 2*a2 = conv{0, 2e1, 2e2, (2,2,4)}: no placing order certifies it, and its
#: lattice points are more than its vertices, so the verdict is not-found
A2_DOUBLED = {"dim": 3, "vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 4]]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestUnimodularTest:
    def test_stretched_simplex_file(self, capsys, tmp_path):
        path = write(tmp_path, "a1.json", {
            "dim": 3,
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 2]],
        })
        code, report, err = run(capsys, "unimodular-test", path)
        assert code == 1
        assert report["result"] == {
            "lattice_index": 2,
            "unimodular": False,
            "hnf_diagonal": [1, 1, 2],
        }
        assert "not unimodular" in err

    def test_standard_simplex_example(self, capsys):
        code, report, _ = run(capsys, "unimodular-test", "--example", "std-simplex-3")
        assert code == 0
        assert report["result"]["unimodular"] is True

    def test_collinear_points_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "line.json", {"dim": 2, "vertices": [[0, 0], [1, 0], [2, 0]]})
        code, report, err = run(capsys, "unimodular-test", path)
        assert code == 2
        assert report is None
        assert "error" in err

    def test_cover_file_all_cells(self, capsys, tmp_path):
        path = write(tmp_path, "cover.json", {
            "dim": 2,
            "cells": [
                [[0, 0], [1, 0], [0, 1]],
                [[0, 0], [2, 0], [0, 2]],
            ],
        })
        code, report, err = run(capsys, "unimodular-test", path)
        assert code == 1
        cells = report["result"]["cells"]
        assert [c["lattice_index"] for c in cells] == [1, 4]
        assert report["result"]["all_unimodular"] is False

    def test_cover_file_single_cell(self, capsys, tmp_path):
        path = write(tmp_path, "cover.json", {
            "dim": 2,
            "cells": [
                [[0, 0], [1, 0], [0, 1]],
                [[0, 0], [2, 0], [0, 2]],
            ],
        })
        code, report, _ = run(capsys, "unimodular-test", path, "--cell", "0")
        assert code == 0
        assert report["result"]["cells"] == [
            {"cell": 0, "lattice_index": 1, "unimodular": True, "hnf_diagonal": [1, 1]}
        ]
        code, _, err = run(capsys, "unimodular-test", path, "--cell", "9")
        assert code == 2
        assert "out of range" in err

    def test_cell_flag_needs_cover_file(self, capsys):
        code, _, err = run(capsys, "unimodular-test", "--example", "a1", "--cell", "0")
        assert code == 2
        assert "cover" in err


class TestIdpCheck:
    def test_reeve_simplex_single_h(self, capsys):
        code, report, _ = run(capsys, "idp-check", "--example", "a2", "--h", "2")
        assert code == 1
        rep = report["result"]["reports"][0]
        assert rep["holds"] is False
        assert rep["witnesses"] == [[1, 1, 1]]

    def test_standard_simplex_scan(self, capsys):
        code, report, _ = run(capsys, "idp-check", "--example", "std-simplex-3", "--h-max", "4")
        assert code == 0
        assert all(r["holds"] for r in report["result"]["reports"])
        assert [r["h"] for r in report["result"]["reports"]] == [1, 2, 3, 4]

    def test_h_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "idp-check", "--example", "a2", "--h", "0")
        assert code == 2
        assert "positive" in err

    def test_both_h_flags_rejected(self, capsys):
        code, _, _ = run(capsys, "idp-check", "--example", "a2", "--h", "1", "--h-max", "2")
        assert code == 2

    def test_thin_tetrahedron_decided(self, capsys, tmp_path):
        # conv{0, e1, e2, (60,61,59)}: its dilate at h = 4 has a box of more
        # than 10^7 cells, scanned in the frame's box of 150 * 4^3 cells
        path = write(tmp_path, "thin.json", {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [60, 61, 59]]})
        code, report, _ = run(capsys, "idp-check", path, "--h-max", "4")
        assert code == 1
        reports = report["result"]["reports"]
        assert [r["dilate_size"] for r in reports] == [4, 68, 252, 615]
        code, single, _ = run(capsys, "idp-check", path, "--h", "4")
        assert code == 1
        assert single["result"]["reports"] == reports[3:]

    def test_resource_cap_exit(self, capsys, tmp_path):
        path = write(tmp_path, "big.json", {"dim": 3, "vertices": [[0, 0, 0], [300, 300, 300]]})
        code, _, err = run(capsys, "idp-check", path, "--h", "2")
        assert code == 3
        assert "resource" in err.lower()


class TestDecompose:
    def test_square_point(self, capsys):
        code, report, err = run(capsys, "decompose", "--example", "cube-2", "--point", "1,1", "--h", "2")
        assert code == 0
        result = report["result"]
        assert result["mode"] == "certified-cover"
        parts = [tuple(p) for p in result["decomposition"]["parts"]]
        assert len(parts) == 2
        assert tuple(a + b for a, b in zip(*parts)) == (1, 1)

    def test_vertex_multiple(self, capsys):
        code, report, _ = run(capsys, "decompose", "--example", "std-simplex-2", "--point", "0,0", "--h", "4")
        assert code == 0
        assert report["result"]["decomposition"]["parts"] == [[0, 0]] * 4

    def test_reeve_simplex_no_decomposition(self, capsys):
        code, report, err = run(capsys, "decompose", "--example", "a2", "--point", "1,1,1", "--h", "2")
        assert code == 1
        result = report["result"]
        assert result["mode"] == "direct-search"
        assert result["decomposition_exists"] is False
        assert "no decomposition" in err

    def test_point_outside_is_input_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--example", "cube-2", "--point", "9,9", "--h", "2")
        assert code == 2
        assert "not in the 2-fold dilate" in err

    def test_dilate_membership_on_a_full_polytope(self, capsys):
        # interior, boundary and outside points of 2 * cube-2
        for point, code in (("1,1", 0), ("2,0", 0), ("2,1", 0), ("3,1", 2), ("-1,0", 2)):
            got, _, err = run(capsys, "decompose", "--example", "cube-2", f"--point={point}", "--h", "2")
            assert got == code, point
            assert ("is not in the 2-fold dilate" in err) == (code == 2), point

    def test_dilate_membership_on_a_flat_polytope(self, capsys, tmp_path):
        # a lattice triangle T on a slanted plane in Z^4: a point of 3T passes
        # the membership check and then meets the search's refusal of a flat
        # polytope; a point off the plane or beyond T's edges is outside
        path = write(tmp_path, "flat.json", {"dim": 4, "vertices": [[0, 0, 0, 0], [1, 0, 1, 2], [0, 1, 2, 1]]})
        for point, inside in (("1,1,3,3", True), ("3,0,3,6", True), ("2,1,4,5", True),
                              ("1,1,1,1", False), ("4,0,4,8", False), ("-1,0,-1,-2", False)):
            code, report, err = run(capsys, "decompose", path, f"--point={point}", "--h", "3")
            assert code == 2 and report is None, point
            if inside:
                assert err == "error: placing triangulation needs a full-dimensional polytope\n", point
            else:
                point_tuple = tuple(int(x) for x in point.split(","))
                assert err == f"error: {point_tuple} is not in the 3-fold dilate of the polytope\n"

    def test_with_explicit_cover(self, capsys, tmp_path):
        cover = write(tmp_path, "cover.json", {
            "dim": 2,
            "cells": [
                [[0, 0], [1, 0], [0, 1]],
                [[1, 0], [0, 1], [1, 1]],
            ],
        })
        code, report, _ = run(
            capsys, "decompose", "--example", "cube-2", "--point", "1,1", "--h", "2", "--cover", cover
        )
        assert code == 0
        assert report["result"]["cover"]["certification"] == "certified"

    def test_with_bad_cover_falls_back(self, capsys, tmp_path):
        cover = write(tmp_path, "half.json", {
            "dim": 2,
            "cells": [[[0, 0], [1, 0], [0, 1]]],
        })
        code, report, _ = run(
            capsys, "decompose", "--example", "cube-2", "--point", "1,1", "--h", "2", "--cover", cover
        )
        assert code == 1
        result = report["result"]
        assert result["mode"] == "direct-search"
        assert result["decomposition_exists"] is True

    def test_point_of_the_wrong_dimension(self, capsys):
        code, report, err = run(capsys, "decompose", "--example", "cube-2", "--point", "1,1,1", "--h", "2")
        assert (code, report) == (2, None)
        assert err == "error: --point has dimension 3, polytope has 2\n"

    @pytest.mark.parametrize("argv,search,mode", [
        (("--example", "a2", "--point", "1,1,1"), "impossible", "direct-search"),
        (("--example", "cube-3", "--point", "1,2,1"), "certified", "certified-cover"),
        ((A2_DOUBLED, "--point", "2,2,2"), "not-found", "direct-search"),
    ], ids=["a2", "cube-3", "2a2"])
    def test_search_verdict(self, capsys, tmp_path, argv, search, mode):
        # the searched cover's block carries the placing search's verdict as it is
        argv = [write(tmp_path, "p.json", a) if isinstance(a, dict) else a for a in argv]
        code, report, _ = run(capsys, "decompose", *argv, "--h", "2")
        result = report["result"]
        assert result["cover"] == {"path": None, "search": search}
        assert (code, result["mode"]) == ((0 if search == "certified" else 1), mode)

    @pytest.mark.parametrize("target,point", [
        ("a1", "0,0,1"), ("a2", "1,1,1"), ("std-simplex-3", "1,0,1"), ("cube-3", "1,2,1"), (A2_DOUBLED, "2,2,2"),
    ], ids=["a1", "a2", "std-simplex-3", "cube-3", "2a2"])
    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_search_verdict_is_triangulate_certificate(self, capsys, tmp_path, target, point, seed):
        source = [write(tmp_path, "p.json", target)] if isinstance(target, dict) else ["--example", target]
        _, decomposed, _ = run(capsys, "decompose", *source, "--point", point, "--h", "2", "--seed", seed)
        _, triangulated, _ = run(capsys, "triangulate", *source, "--seed", seed)
        assert decomposed["result"]["cover"]["search"] == triangulated["result"]["certificate"]


class TestTriangulate:
    def test_cube_certified(self, capsys):
        code, report, err = run(capsys, "triangulate", "--example", "cube-3")
        assert code == 0
        result = report["result"]
        assert result["certificate"] == "certified"
        assert len(result["cover"]["cells"]) == 6
        assert "6 unimodular cells" in err

    def test_reeve_simplex_impossible(self, capsys):
        code, report, err = run(capsys, "triangulate", "--example", "a2")
        assert code == 1
        assert report["result"]["certificate"] == "impossible"
        assert "unique" in err

    def test_doubled_reeve_simplex_not_found(self, capsys, tmp_path):
        code, report, err = run(capsys, "triangulate", write(tmp_path, "a2x2.json", A2_DOUBLED))
        assert code == 1
        assert report["result"]["certificate"] == "not-found"
        assert report["result"]["cover"] is None
        assert err == "no unimodular triangulation found (existence unknown)\n"

    def test_lattice_points_enumerated_once(self, capsys, monkeypatch):
        # the search's certificate decides "impossible" and the direct search
        # reads the points the polytope keeps: one enumeration per command,
        # counted at the kernel every lattice_points binding calls
        calls = []
        original = geometry._lattice_runs

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "_lattice_runs", counting)
        code, report, _ = run(capsys, "triangulate", "--example", "a2")
        assert (code, report["result"]["certificate"], len(calls)) == (1, "impossible", 1)
        calls.clear()
        code, report, _ = run(capsys, "decompose", "--example", "a2", "--point", "1,1,1", "--h", "2")
        result = report["result"]
        assert (code, result["mode"], result["decomposition_exists"], len(calls)) == (1, "direct-search", False, 1)

    def test_verify_cover_mode(self, capsys, tmp_path):
        cover = write(tmp_path, "cover.json", {
            "dim": 2,
            "cells": [
                [[0, 0], [1, 0], [0, 1]],
                [[1, 0], [0, 1], [1, 1]],
            ],
        })
        code, report, _ = run(capsys, "triangulate", "--example", "cube-2", "--verify-cover", cover)
        assert code == 0
        assert report["result"]["certification"] == "certified"

    def test_verify_cover_deficit(self, capsys, tmp_path):
        cover = write(tmp_path, "half.json", {"dim": 2, "cells": [[[0, 0], [1, 0], [0, 1]]]})
        code, report, _ = run(capsys, "triangulate", "--example", "cube-2", "--verify-cover", cover)
        assert code == 1
        assert report["result"]["certification"] == "uncertified"
        assert any("volume" in p for p in report["result"]["problems"])

    def test_verify_general_cover(self, capsys, tmp_path):
        # overlapping cells are fine for a general cover: best status is
        # vertices-only (coverage itself is not exactly checked)
        cover = write(tmp_path, "gen.json", {
            "dim": 2,
            "kind": "general-cover",
            "cells": [
                [[0, 0], [1, 0], [0, 1]],
                [[0, 0], [1, 0], [1, 1]],
                [[0, 0], [0, 1], [1, 1]],
                [[1, 0], [0, 1], [1, 1]],
            ],
        })
        code, report, _ = run(capsys, "triangulate", "--example", "cube-2", "--verify-cover", cover)
        assert code == 0
        assert report["result"]["certification"] == "vertices-only"

    @pytest.mark.parametrize("pairwise", [False, True])
    def test_verify_cover_reports_the_certified_cover(self, capsys, tmp_path, pairwise):
        # the staircase of cube-3 passes facet matching; next to a copy
        # shifted by e_1 and flipped in y it covers {0,1,2}x{0,1}^2, but not
        # face to face, so the pairwise test certifies it
        cells = staircase_cells(3)
        target = ["--example", "cube-3"]
        if pairwise:
            cells += [[(x + 1, 1 - y, z) for x, y, z in c] for c in cells]
            box = itertools.product((0, 1, 2), (0, 1), (0, 1))
            target = [write(tmp_path, "box.json", {"dim": 3, "vertices": [list(v) for v in box]})]
        cover = write(tmp_path, "cover.json", {"dim": 3, "cells": cells})
        code, report, _ = run(capsys, "triangulate", *target, "--verify-cover", cover)
        assert code == 0
        assert report["result"]["certification"] == "certified"
        assert report["result"]["cover"]["certified"] == "certified"
        assert len(report["result"]["cover"]["cells"]) == len(cells)


class TestFindEll:
    def test_standard_simplex(self, capsys):
        code, report, _ = run(capsys, "find-ell", "--example", "std-simplex-3", "--ell-max", "2", "--h-max", "2")
        assert code == 0
        assert report["result"]["ell"] == 1

    def test_unit_cube(self, capsys):
        code, report, _ = run(capsys, "find-ell", "--example", "cube-3", "--ell-max", "1", "--h-max", "2")
        assert code == 0
        assert report["result"]["ell"] == 1
        assert report["result"]["per_ell"][0]["cells"] == 6

    def test_reeve_simplex_rows(self, capsys):
        code, report, _ = run(
            capsys, "find-ell", "--example", "a2", "--ell-max", "2", "--h-max", "2", "--attempts", "5"
        )
        rows = report["result"]["per_ell"]
        assert rows[0]["certificate"] == "impossible"
        assert rows[0]["idp"][1]["holds"] is False
        assert [[1, 1, 1]] == rows[0]["idp"][1]["witnesses"]
        if report["result"]["ell"] is None:
            assert code == 1

    def test_ell_max_over_the_bound_exits_3(self, capsys, tmp_path):
        # a segment's box grows in one coordinate only: the bound on ell,
        # isqrt(10^7) = 3162, refuses it before any row runs
        path = write(tmp_path, "segment.json", {"dim": 1, "vertices": [[0], [1]]})
        code, report, err = run(capsys, "find-ell", path, "--ell-max", "1000000000")
        assert code == 3 and report is None
        assert err == "resource cap: ell capped at 3162, got 1000000000\n"


class TestInputHandling:
    # a flat lattice triangle in Z^4: only idp-check runs; every command
    # that triangulates refuses it as an input error (decompose: TestDecompose)
    @pytest.mark.parametrize("argv,code", [
        (["idp-check", "--h", "2"], 0),
        (["triangulate"], 2),
        (["find-ell", "--ell-max", "1", "--h-max", "1"], 2),
    ], ids=lambda x: x[0] if isinstance(x, list) else "")
    def test_flat_polytope(self, capsys, tmp_path, argv, code):
        path = write(tmp_path, "flat.json", {"dim": 4, "vertices": [[0, 0, 0, 0], [1, 0, 1, 2], [0, 1, 2, 1]]})
        got, report, err = run(capsys, argv[0], path, *argv[1:])
        assert got == code
        if code:
            assert report is None and err == "error: placing triangulation needs a full-dimensional polytope\n"
        else:
            assert report["result"]["reports"][0]["dilate_size"] == 6

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "idp-check", "--h", "1")
        assert code == 2
        assert "no input" in err

    def test_file_and_example_conflict(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", {"dim": 1, "vertices": [[0], [1]]})
        code, _, _ = run(capsys, "idp-check", path, "--example", "a1", "--h", "1")
        assert code == 2

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "idp-check", "--example", "nope", "--h", "1")
        assert code == 2
        assert "unknown example" in err

    def test_float_rejected(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"dim": 2, "vertices": [[0, 0], [1.5, 0], [0, 1]]}')
        code, _, err = run(capsys, "idp-check", str(path), "--h", "1")
        assert code == 2
        assert "floating point" in err

    def test_bool_rejected(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"dim": 2, "vertices": [[0, 0], [true, 0], [0, 1]]}')
        code, _, err = run(capsys, "idp-check", str(path), "--h", "1")
        assert code == 2
        assert "integer" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "unimodular-test", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "extra.json", {"dim": 1, "vertices": [[0]], "vertexes": []})
        code, _, err = run(capsys, "unimodular-test", str(path))
        assert code == 2
        assert "unknown" in err

    @pytest.mark.parametrize("payload,command,message", [
        ([[0, 0], [1, 0]], "idp-check", "polytope file must be a JSON object"),
        ({"dim": 2}, "idp-check", "polytope file needs 'dim' and 'vertices' fields"),
        ({"vertices": [[0, 0]]}, "idp-check", "polytope file needs 'dim' and 'vertices' fields"),
        ({"dim": 2, "cells": []}, "unimodular-test", "'cells' must be a non-empty list of vertex lists"),
        ({"dim": 2, "cells": {"a": 1}}, "unimodular-test", "'cells' must be a non-empty list of vertex lists"),
        ({"dim": 2, "cells": [[[0, 0], [1, 0], [0, 1]], 5]}, "unimodular-test",
         "every cell must be a list of vertices"),
        ({"dim": 2, "cells": [[[0, 0], [True, 0], [0, 1]]]}, "unimodular-test",
         "coordinate of cell vertex must be an integer, got True"),
        ({"dim": 2, "cells": [[[0, 0], [1, 0], [0, 0]]]}, "unimodular-test", "simplex vertices must be distinct"),
        ({"dim": 2, "cells": [[[0, 0], [1, 0]]]}, "unimodular-test",
         "a simplex in dimension 2 needs 3 vertices, got 2"),
    ], ids=["not-an-object", "no-vertices", "no-dim", "no-cells", "cells-not-a-list", "cell-not-a-list",
            "cell-bool", "cell-repeated-vertex", "cell-vertex-count"])
    def test_file_shape_errors(self, capsys, tmp_path, payload, command, message):
        # a cover file is refused alike where a command verifies it
        path = write(tmp_path, "f.json", payload)
        runs = [(command, path, "--h", "1") if command == "idp-check" else (command, path)]
        if "cells" in payload:
            runs += [
                ("triangulate", "--example", "cube-2", "--verify-cover", path),
                ("decompose", "--example", "cube-2", "--point", "1,1", "--h", "2", "--cover", path),
            ]
        for argv in runs:
            code, report, err = run(capsys, *argv)
            assert (code, report) == (2, None), argv
            assert err == f"error: {message}\n", argv

    def test_cover_of_another_dimension(self, capsys, tmp_path):
        cover = write(tmp_path, "cover.json", {"dim": 3, "cells": [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]})
        for argv in (
            ("triangulate", "--example", "cube-2", "--verify-cover", cover),
            ("decompose", "--example", "cube-2", "--point", "1,1", "--h", "2", "--cover", cover),
        ):
            code, report, err = run(capsys, *argv)
            assert (code, report) == (2, None), argv
            assert err == "error: cover dimension does not match the polytope\n", argv

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "unimodular-test", "/nonexistent/path.json")
        assert code == 2

    @pytest.mark.parametrize("dim", [0, -1])
    def test_cover_dim_below_one(self, capsys, tmp_path, dim):
        # the cover header is checked like a polytope file's, before any cell
        cover = write(tmp_path, "cover.json", {"dim": dim, "cells": [[[0, 0], [1, 0], [0, 1]]]})
        for argv in (
            ("unimodular-test", cover),
            ("triangulate", "--example", "cube-2", "--verify-cover", cover),
        ):
            code, report, err = run(capsys, *argv)
            assert (code, report) == (2, None), argv
            assert "dim must be >= 1" in err, argv

    def test_cover_name_must_be_a_string(self, capsys, tmp_path):
        cells = [[[0, 0], [1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]]]
        bad = write(tmp_path, "bad.json", {"dim": 2, "cells": cells, "name": 5})
        for argv in (
            ("unimodular-test", bad),
            ("triangulate", "--example", "cube-2", "--verify-cover", bad),
            ("decompose", "--example", "cube-2", "--point", "1,1", "--h", "2", "--cover", bad),
        ):
            code, report, err = run(capsys, *argv)
            assert (code, report) == (2, None), argv
            assert err == "error: 'name' must be a string\n", argv

    def test_cover_name_string_keeps_the_payload(self, capsys, tmp_path):
        cells = [[[0, 0], [1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]]]
        plain = write(tmp_path, "plain.json", {"dim": 2, "cells": cells})
        named = write(tmp_path, "named.json", {"dim": 2, "cells": cells, "name": "square"})
        reports = []
        for path in (plain, named):
            code, report, _ = run(capsys, "unimodular-test", path)
            assert code == 0
            reports.append((report["input"], report["input_digest"], report["result"]))
        assert reports[0] == reports[1]


class TestAsciiIntegers:
    """Command-line integers are read as the JSON reader reads them: ASCII
    digits with an optional sign, surrounding whitespace allowed, and no
    '_' separators or other scripts' digits."""

    # each integer flag, with the arguments of a run that reads it
    INT_FLAGS = [
        ("unimodular-test", "--cell", ["--example", "a1"]),
        ("idp-check", "--h", ["--example", "cube-2"]),
        ("idp-check", "--h-max", ["--example", "cube-2"]),
        ("decompose", "--h", ["--example", "cube-2", "--point", "1,1"]),
        ("triangulate", "--attempts", ["--example", "cube-2"]),
        ("triangulate", "--seed", ["--example", "cube-2"]),
        ("find-ell", "--ell-max", ["--example", "a1"]),
        ("find-ell", "--h-max", ["--example", "a1", "--ell-max", "1"]),
    ]

    def test_reader(self):
        for text, value in (("7", 7), (" 7 ", 7), ("+7", 7), ("-7", -7), ("007", 7), ("-0", 0)):
            assert cli._cli_int(text) == value
        for text in ("", " ", "+", "-", "1_0", "\u0662", "\u00b3", "1.0", "0x1", "--1", "1 0"):
            with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
                cli._cli_int(text)

    @pytest.mark.parametrize("value", ["1_0", "\u0662"])
    @pytest.mark.parametrize("command,flag,rest", INT_FLAGS, ids=lambda x: x if isinstance(x, str) else "")
    def test_flags_refuse(self, capsys, command, flag, rest, value):
        with pytest.raises(SystemExit) as exc:
            main([command, *rest, flag, value])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"latticeforge {command}: error: argument {flag}: invalid int value: {value!r}"

    def test_bad_value_keeps_the_int_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["idp-check", "--example", "cube-2", "--h", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "latticeforge idp-check: error: argument --h: invalid int value: 'abc'"

    def test_signs_and_whitespace_read(self, capsys):
        _, plain, _ = run(capsys, "idp-check", "--example", "cube-2", "--h", "2")
        for text in (" 2 ", "+2", "02"):
            code, report, _ = run(capsys, "idp-check", "--example", "cube-2", "--h", text)
            assert code == 0 and report["result"] == plain["result"], text

    @pytest.mark.parametrize("point", ["1_0,1", "\u0661,1", "1,\u00b9"])
    def test_point_refused(self, capsys, point):
        code, report, err = run(capsys, "decompose", "--example", "cube-2", "--point", point, "--h", "2")
        assert code == 2 and report is None
        assert f"--point must be comma-separated integers, got {point!r}" in err

    def test_point_with_spaces_and_signs(self, capsys):
        code, report, _ = run(capsys, "decompose", "--example", "cube-2", "--point", " +1 , 1", "--h", "2")
        assert code == 0 and report["result"]["decomposition"]["point"] == [1, 1]

    # N is one ASCII digit, so cube-03 is not a second name for cube-3
    @pytest.mark.parametrize(
        "name", ["cube-\u0663", "cube-\u00b3", "std-simplex-\u0662", "cube-03", "cube-00", "std-simplex-01"]
    )
    def test_example_needs_ascii_digits(self, capsys, name):
        with pytest.raises(PolytopeFileError, match="unknown example"):
            example(name)
        code, report, err = run(capsys, "idp-check", "--example", name, "--h", "1")
        assert code == 2 and report is None
        assert f"error: unknown example {name!r}" in err


class TestRoundTripAndDeterminism:
    def test_polytope_file_round_trip(self):
        data = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]], "name": "x"}
        text = json.dumps(data)
        parsed = parse_polytope_data(parse_strict_json(text))
        assert parsed == data
        # serialize -> parse is the identity on the parsed structure
        assert parse_polytope_data(parse_strict_json(json.dumps(parsed))) == parsed

    def test_cover_file_round_trip(self):
        data = {"dim": 2, "cells": [[[0, 0], [1, 0], [0, 1]]], "kind": "triangulation"}
        parsed = parse_cover_data(parse_strict_json(json.dumps(data)))
        assert parsed == data

    def test_big_integers_survive(self):
        big = 10**40
        data = {"dim": 1, "vertices": [[0], [big]]}
        parsed = parse_polytope_data(parse_strict_json(json.dumps(data)))
        assert parsed["vertices"][1][0] == big

    def test_reports_are_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            code, report, _ = run(
                capsys, "find-ell", "--example", "a2", "--ell-max", "2", "--h-max", "2",
                "--attempts", "4", "--seed", "9",
            )
            report.pop("wall_time_s")
            runs.append((code, json.dumps(report, sort_keys=True)))
        assert runs[0] == runs[1]

    def test_schema_fields_present(self, capsys):
        _, report, _ = run(capsys, "unimodular-test", "--example", "a1")
        assert report["schema"] == "latticeforge/1"
        assert report["command"] == "unimodular-test"
        assert report["input_digest"].startswith("sha256:")
        assert "version" in report and "wall_time_s" in report


class TestEncode:
    """A report is printed as one line of compact JSON, keys sorted: the
    encoding input_digest hashes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangulate", "--example", "cube-3"),
            ("find-ell", "--example", "a2", "--ell-max", "3", "--h-max", "3"),
            ("idp-check", "--example", "a2", "--h-max", "3"),
            ("decompose", "--example", "cube-3", "--point", "1,2,-0", "--h", "2"),
            ("unimodular-test", "--example", "a1"),
            # framed witnesses, and the echo of a polytope file
            ("idp-check", {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [60, 61, 59]]}, "--h-max", "4"),
            # 48 cells, each a list of points
            ("triangulate", {"dim": 3, "vertices": [list(v) for v in itertools.product((0, 2), repeat=3)]}),
            ("decompose", "--example", "cube-3", "--point", "1,2,1", "--h", "2"),
            # 720 cells
            ("triangulate", "--example", "cube-6"),
        ],
    )
    def test_reports(self, capsys, tmp_path, argv):
        main([write(tmp_path, "p.json", a) if isinstance(a, dict) else a for a in argv])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


class TestEncodeWithoutCAccelerator:
    """Where json has no C accelerator (json.encoder.c_make_encoder is None,
    as on PyPy or a CPython built without _json), the CLI imports and writes
    its reports with json's pure-Python encoder, the same compact text."""

    SCRIPT = """
import json.encoder
json.encoder.c_make_encoder = None
import contextlib, io, json, sys
from latticeforge import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
text = out.getvalue()
assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\\n"
print(code)
"""

    @pytest.mark.parametrize("argv,code", [
        (("idp-check", {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [60, 61, 59]]}, "--h-max", "4"), 1),
        (("triangulate", "--example", "cube-4"), 0),
    ], ids=["idp-check-thin", "triangulate-cube-4"])
    def test_reports(self, tmp_path, argv, code):
        # a fresh interpreter, so that cli is imported with the C encoder gone
        argv = [write(tmp_path, "p.json", a) if isinstance(a, dict) else a for a in argv]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{code}\n"


class TestStrictParsing:
    def test_reject_nan(self):
        with pytest.raises(PolytopeFileError):
            parse_strict_json('{"dim": NaN}')

    def test_vertices_shape_checked(self):
        with pytest.raises(PolytopeFileError):
            parse_polytope_data({"dim": 2, "vertices": [[0, 0, 0]]})
        with pytest.raises(PolytopeFileError):
            parse_polytope_data({"dim": 2, "vertices": []})
        with pytest.raises(PolytopeFileError, match="dim must be >= 1"):
            parse_polytope_data({"dim": 0, "vertices": [[]]})
        with pytest.raises(PolytopeFileError, match="dim must be >= 1"):
            parse_cover_data({"dim": -1, "cells": [[[0, 0]]]})

    def test_cover_kind_checked(self):
        with pytest.raises(PolytopeFileError):
            parse_cover_data({"dim": 2, "cells": [[[0, 0]]], "kind": "mystery"})

    def test_cover_name_checked(self):
        with pytest.raises(PolytopeFileError, match="^'name' must be a string$"):
            parse_cover_data({"dim": 2, "cells": [[[0, 0]]], "name": 5})
        # a string name is checked and dropped
        assert parse_cover_data({"dim": 2, "cells": [[[0, 0]]], "name": "x"}) == {
            "dim": 2, "cells": [[[0, 0]]], "kind": "triangulation",
        }


class TestParserReuse:
    """main parses with one parser per command and one full parser per
    import; a run of calls gives the same stdout (without wall time) and
    exit codes as fresh parsers on every call."""

    ARGVS = (
        ["idp-check", "--example", "a2", "--h-max", "3"],
        ["triangulate", "--example", "cube-3"],
        ["find-ell", "--example", "a2", "--ell-max", "2", "--h-max", "2"],
        ["idp-check", "--example", "cube-2", "--h", "0"],
        ["idp-check", "--example", "cube-2", "--h", "2"],
        ["--version"],
        ["idp-check", "--example", "a1", "--h", "2"],
    )

    @staticmethod
    def outcomes(capsys, argvs):
        seen = []
        for argv in argvs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out = capsys.readouterr().out
            if out.startswith("{"):
                report = json.loads(out)
                del report["wall_time_s"]
                out = json.dumps(report, sort_keys=True)
            seen.append((code, out))
        return seen

    def test_same_as_fresh_parsers(self, capsys, monkeypatch):
        shared = self.outcomes(capsys, self.ARGVS * 2)
        # the uncached function builds a new parser on every call
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
        fresh = self.outcomes(capsys, self.ARGVS * 2)
        assert shared == fresh
        assert [code for code, _ in shared[: len(self.ARGVS)]] == [1, 0, 1, 2, 0, ("exit", 0), 0]
        assert "latticeforge" in shared[5][1]

    def test_one_parser(self):
        assert cli._parser() is cli._parser()


VALID_RUNS = {
    "unimodular-test": ["--example", "a1"],
    "idp-check": ["--example", "cube-2", "--h", "2"],
    "decompose": ["--example", "cube-2", "--point", "1,1", "--h", "2"],
    "triangulate": ["--example", "cube-2"],
    "find-ell": ["--example", "a2", "--ell-max", "2", "--h-max", "2"],
}


def _parity_argvs():
    int_flag = {"unimodular-test": "--cell", "idp-check": "--h", "decompose": "--h",
                "triangulate": "--attempts", "find-ell": "--ell-max"}
    abbreviated = {
        "unimodular-test": ["--exam", "a1"],
        "idp-check": ["--exam", "cube-2", "--h-m", "2"],
        "decompose": ["--example", "cube-2", "--poi", "1,1", "--h", "2"],
        "triangulate": ["--example", "cube-2", "--att", "2"],
        "find-ell": ["--example", "a2", "--ell", "2", "--h-m", "2"],
    }
    argvs = [[], ["--help"], ["-h"], ["--version"], ["nope"], ["--bogus"], ["-h", "idp-check"],
             ["--version", "idp-check"], ["idp"]]
    for name, valid in VALID_RUNS.items():
        argvs += [
            [name, *valid],
            [name, "-h"],
            [name, *valid, "--help"],
            [name, int_flag[name], "x"],
            [name, *abbreviated[name]],
            [name, *valid, "x.json", "y.json"],
            [name, *valid, "--bogus"],
            [name, "--bogus", "--other=1", "z"],
            [name, "--version"],
            [name, *valid, "--version"],
            [name, "--", "--example"],
        ]
    argvs += [["decompose", "--example", "cube-2"], ["decompose", "--point", "1,1"],
              ["find-ell", "--example", "a2"]]
    return argvs


def _outcome(capsys, argv):
    """(exit code, stdout without wall time, stderr) of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    out = captured.out
    if out.startswith("{"):
        report = json.loads(out)
        del report["wall_time_s"]
        out = json.dumps(report, sort_keys=True)
    return code, out, captured.err


class TestCommandParsers:
    """A run of a command parses with that command's parser alone, and gives
    the output and exit code of the full parser on every argv."""

    @pytest.mark.parametrize("argv", _parity_argvs(), ids=" ".join)
    def test_same_as_full_parser(self, capsys, monkeypatch, argv):
        own = _outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        assert _outcome(capsys, argv) == own

    def test_leftover_arguments_keep_the_top_level_usage(self, capsys):
        code, out, err = _outcome(capsys, ["idp-check", "--example", "cube-2", "--h", "2", "--bogus"])
        assert (code, out) == (("exit", 2), "")
        assert err.startswith("usage: latticeforge [-h] [--version]")
        assert err.endswith("latticeforge: error: unrecognized arguments: --bogus\n")

    @staticmethod
    def count_parsers(monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return progs

    def test_a_run_builds_one_parser(self, capsys, monkeypatch):
        progs = self.count_parsers(monkeypatch)
        cli._parser.cache_clear()
        for name, valid in VALID_RUNS.items():
            before = len(progs)
            _outcome(capsys, [name, *valid])
            assert progs[before:] == [f"latticeforge {name}"]
            # the next run of the command reuses it
            _outcome(capsys, [name, *valid])
            assert len(progs) == before + 1

    def test_help_builds_the_full_parser(self, capsys, monkeypatch):
        progs = self.count_parsers(monkeypatch)
        cli._parser.cache_clear()
        code, _, _ = _outcome(capsys, ["--help"])
        assert code == ("exit", 0)
        assert progs == ["latticeforge"] + [f"latticeforge {name}" for name in VALID_RUNS]

    def test_no_parser_at_import(self, monkeypatch):
        progs = self.count_parsers(monkeypatch)
        spec = importlib.util.find_spec("latticeforge.cli")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert progs == [] and module._parser.cache_info().currsize == 0
        assert list(module._COMMANDS) == list(VALID_RUNS)
