"""Workloads: seeded inputs, the requests that drive them, and their oracles.

Every workload is a fixed list of requests against a user-facing entry point:
``latticeforge.cli.main(argv)`` in-process with its output captured, or the
library's ``decompose``.  A workload's set-up function writes its inputs and
returns a builder that makes the requests against a given import of the
package, so each pass can run against a fresh one.  Each request carries an oracle that checks its
output against ground truth which no later change may alter: normalized
volumes, brute-force IDP counts, witness sets and sums of parts.

The seed picks a signed coordinate permutation and a translation that are
applied to the generated polytope files.  Such a map is a lattice
automorphism, so it changes coordinates but not box volumes, verdicts or
sizes; the ground truth below is stated in base coordinates and the oracle
maps the program's answers back before comparing.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Base polytopes (before the seeded transform), all in Z^3.
CUBE3X2 = tuple(itertools.product((0, 2), repeat=3))
NEEDLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 7, 6), (8, 7, 6))
A2X3 = ((0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 6))
GRID4 = tuple(itertools.product(range(4), repeat=3))

# Brute-force ground truth per h: (holds, witness count, sum_size, dilate_size,
# digest of the sorted witnesses in base coordinates or None when there are none).
_ALL_HOLD = {
    "cube3x2": (27, 125, 343, 729, 1331, 2197, 3375, 4913),
    "a2x3": (24, 119, 340, 741, 1376, 2299, 3564, 5225),
    "cube-4": (16, 81, 256),
}
IDP_TRUTH = {
    name: {h: (True, 0, n, n, None) for h, n in enumerate(sizes, start=1)}
    for name, sizes in _ALL_HOLD.items()
}
IDP_TRUTH["needle"] = {
    1: (True, 0, 8, 8, None),
    2: (False, 2, 31, 33, "feb51f97b9b6b79b"),
    3: (False, 6, 82, 88, "848c99b1b7dcc7f3"),
    4: (False, 12, 173, 185, "e4f8dd06f99d0115"),
    5: (False, 20, 316, 336, "9f4eafd94425bd8a"),
    6: (False, 30, 523, 553, "2417f49bb7406550"),
    7: (False, 42, 806, 848, "226890a18db1a82a"),
    8: (False, 56, 1177, 1233, "7b25ed42dbe3aa5a"),
}
IDP_TRUTH["grid4"] = {2: (True, 0, 343, 343, None)}

# find-ell on a2 = conv{0, e1, e2, (1,1,2)}, rows ell = 1..5, h = 1..3.  Row 1
# is the Reeve simplex itself; ell >= 2 = dim - 1 dilates have the IDP.
PROBE_TRUTH = {
    1: {1: (True, 0, 4, 4, None), 2: (False, 1, 10, 11, "693897180985b98b"), 3: (False, 4, 20, 24, "6c4947796a565676")},
    2: {1: (True, 0, 11, 11, None), 2: (True, 0, 45, 45, None), 3: (True, 0, 119, 119, None)},
    3: {1: (True, 0, 24, 24, None), 2: (True, 0, 119, 119, None), 3: (True, 0, 340, 340, None)},
    4: {1: (True, 0, 45, 45, None), 2: (True, 0, 249, 249, None), 3: (True, 0, 741, 741, None)},
    5: {1: (True, 0, 76, 76, None), 2: (True, 0, 451, 451, None), 3: (True, 0, 1376, 1376, None)},
}
A2_NORMALIZED_VOLUME = 2


def witness_digest(points) -> str:
    canon = json.dumps(sorted(list(p) for p in points), separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


class Transform:
    """x -> (s_i * x[perm[i]] + shift_i)_i, a lattice automorphism of Z^n."""

    def __init__(self, perm, signs, shift):
        self.perm, self.signs, self.shift = tuple(perm), tuple(signs), tuple(shift)

    @classmethod
    def identity(cls, dim):
        return cls(range(dim), (1,) * dim, (0,) * dim)

    @classmethod
    def from_seed(cls, seed, dim):
        rng = random.Random(f"latticeforge-bench:{seed}")
        perm = rng.sample(range(dim), dim)
        signs = [rng.choice((-1, 1)) for _ in range(dim)]
        shift = [rng.randint(-2, 2) for _ in range(dim)]
        return cls(perm, signs, shift)

    def apply(self, x, h=1):
        """Image of a point of h*P in h*T(P)."""
        return tuple(s * x[p] + h * t for p, s, t in zip(self.perm, self.signs, self.shift))

    def invert(self, y, h=1):
        x = [0] * len(y)
        for yi, p, s, t in zip(y, self.perm, self.signs, self.shift):
            x[p] = s * (yi - h * t)
        return tuple(x)


def bareiss_det(rows) -> int:
    """Exact integer determinant, independent of the program's linalg."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _box(points):
    dim = len(points[0])
    return [(min(p[i] for p in points), max(p[i] for p in points)) for i in range(dim)]


def _in_box(p, box) -> bool:
    return (
        len(p) == len(box)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in p)
        and all(lo <= x <= hi for x, (lo, hi) in zip(p, box))
    )


@dataclass
class Request:
    """One call into the program and the oracle for its output.

    `run` looks its entry point up at call time, so a traced run sees the
    wrapped functions.  `check` returns a list of problems (empty when the
    output is correct).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliResult:
    code: int
    stdout: str

    def report(self):
        return json.loads(self.stdout)

    def report_bytes(self) -> int:
        """Report size without the wall-time field, which is the only varying part."""
        return len(self.stdout.encode("utf-8")) - len(json.dumps(self.report()["wall_time_s"]))


def run_cli(cli, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _cli_request(lf, label, argv, check) -> Request:
    return Request(label, lambda: run_cli(lf.cli, argv), check)


def _write_polytope(workdir: Path, name, points):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"dim": len(points[0]), "vertices": [list(p) for p in points]}))
    # Relative, so the report (which echoes argv) has the same size in every checkout.
    return os.path.relpath(path)


def _check_idp_rows(reports, truth, transform, where) -> list:
    problems = []
    if [r.get("h") for r in reports] != sorted(truth):
        return [f"{where}: h values {[r.get('h') for r in reports]}, expected {sorted(truth)}"]
    for r in reports:
        holds, count, sum_size, dilate_size, digest = truth[r["h"]]
        got = (r["holds"], len(r["witnesses"]), r["sum_size"], r["dilate_size"])
        if got != (holds, count, sum_size, dilate_size):
            problems.append(f"{where} h={r['h']}: (holds, witnesses, sum, dilate) {got}, "
                            f"expected {(holds, count, sum_size, dilate_size)}")
        elif digest is not None:
            base = [transform.invert(w, r["h"]) for w in r["witnesses"]]
            if witness_digest(base) != digest:
                problems.append(f"{where} h={r['h']}: witness set differs from ground truth")
    return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify_check(expected_cells, box):
    def check(res: CliResult) -> list:
        if res.code != 0:
            return [f"exit code {res.code}, expected 0"]
        result = res.report()["result"]
        if result.get("certificate") != "certified":
            return [f"certificate {result.get('certificate')!r}, expected 'certified'"]
        cells = result["cover"]["cells"]
        problems = []
        if len(cells) != expected_cells:
            problems.append(f"{len(cells)} cells, normalized volume is {expected_cells}")
        if len({frozenset(map(tuple, c)) for c in cells}) != len(cells):
            problems.append("repeated cell")
        for i, cell in enumerate(cells):
            if len(cell) != len(box) + 1 or not all(_in_box(v, box) for v in cell):
                problems.append(f"cell {i} is not a simplex on lattice points of the polytope")
                continue
            edges = [[v[j] - cell[0][j] for v in cell[1:]] for j in range(len(box))]
            if abs(bareiss_det(edges)) != 1:
                problems.append(f"cell {i} has |det| != 1")
        return problems

    return check


def certify(lf, seed, workdir: Path):
    t = Transform.from_seed(seed, 3)
    cube = [t.apply(p) for p in CUBE3X2]
    path = _write_polytope(workdir, "certify-cube3x2", cube)
    s = str(seed)
    return lambda lf: [
        _cli_request(lf, "triangulate cube-4", ["triangulate", "--example", "cube-4", "--seed", s],
                     _certify_check(24, [(0, 1)] * 4)),
        _cli_request(lf, "triangulate 2cube-3", ["triangulate", path, "--seed", s],
                     _certify_check(48, _box(cube))),
    ]


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def _probe_check(res: CliResult) -> list:
    rows = res.report()["result"]["per_ell"]
    if [r["ell"] for r in rows] != sorted(PROBE_TRUTH):
        return [f"rows for ell {[r['ell'] for r in rows]}, expected {sorted(PROBE_TRUTH)}"]
    problems = []
    certified = [r["ell"] for r in rows if r["certificate"] == "certified"]
    expected_code = 0 if certified else 1
    if res.code != expected_code:
        problems.append(f"exit code {res.code}, expected {expected_code}")
    if rows[0]["certificate"] != "impossible":
        problems.append(f"ell=1 certificate {rows[0]['certificate']!r}, expected 'impossible'")
    for row in rows:
        ell = row["ell"]
        if ell > 1 and row["certificate"] not in ("not-found", "certified"):
            problems.append(f"ell={ell} certificate {row['certificate']!r}")
        if row["certificate"] == "certified":
            if row["cells"] != A2_NORMALIZED_VOLUME * ell**3:
                problems.append(f"ell={ell}: {row['cells']} cells, normalized volume is "
                                f"{A2_NORMALIZED_VOLUME * ell**3}")
            if not all(r["holds"] for r in row["idp"]):
                problems.append(f"ell={ell} is certified but a direct check fails")
        problems += _check_idp_rows(row["idp"], PROBE_TRUTH[ell], Transform.identity(3), f"ell={ell}")
    return problems


def probe(lf, seed, workdir: Path):
    argv = ["find-ell", "--example", "a2", "--ell-max", "5", "--h-max", "3", "--seed", str(seed)]
    return lambda lf: [_cli_request(lf, "find-ell a2", argv, _probe_check)]


# ---------------------------------------------------------------------------
# bruteforce
# ---------------------------------------------------------------------------


def _idp_check(truth, transform):
    expected_code = 0 if all(v[0] for v in truth.values()) else 1

    def check(res: CliResult) -> list:
        problems = [] if res.code == expected_code else [f"exit code {res.code}, expected {expected_code}"]
        return problems + _check_idp_rows(res.report()["result"]["reports"], truth, transform, "idp")

    return check


def bruteforce(lf, seed, workdir: Path):
    t = Transform.from_seed(seed, 3)
    commands = []  # (label, argv, check)
    for name, base in (("needle", NEEDLE), ("cube3x2", CUBE3X2), ("a2x3", A2X3)):
        path = _write_polytope(workdir, f"bruteforce-{name}", [t.apply(p) for p in base])
        commands.append((f"idp-check {name} --h-max 8", ["idp-check", path, "--h-max", "8"],
                         _idp_check(IDP_TRUTH[name], t)))
    commands.append(("idp-check cube-4 --h-max 3", ["idp-check", "--example", "cube-4", "--h-max", "3"],
                     _idp_check(IDP_TRUTH["cube-4"], Transform.identity(4))))
    grid = [t.apply(p) for p in GRID4]
    random.Random(f"latticeforge-bench:{seed}:grid").shuffle(grid)
    path = _write_polytope(workdir, "bruteforce-grid4", grid)
    commands.append(("idp-check grid4 --h 2", ["idp-check", path, "--h", "2"], _idp_check(IDP_TRUTH["grid4"], t)))
    return lambda lf: [_cli_request(lf, *command) for command in commands]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

DECOMPOSE_H = (1, 2, 3, 4)
DECOMPOSE_CELLS = 48


def _decompose_check(q, h, box):
    def check(d) -> list:
        parts = [tuple(p) for p in d.parts]
        if len(parts) != h:
            return [f"{len(parts)} parts, expected {h}"]
        if not all(_in_box(p, box) for p in parts):
            return ["a part is not a lattice point of the polytope"]
        if tuple(map(sum, zip(*parts))) != q:
            return [f"parts sum to {tuple(map(sum, zip(*parts)))}, expected {q}"]
        return []

    return check


def decompose(lf, seed, workdir: Path):
    """Certify a cover of 2*cube-3 (set-up), then query every lattice point of h*P.

    The builder remakes the polytope and the certified cover from the cells'
    vertices with the given import's classes, as the CLI does for a cover
    file it has verified, so a pass shares no objects with an earlier one.
    """
    t = Transform.from_seed(seed, 3)
    points = [t.apply(p) for p in CUBE3X2]
    cover = lf.unimodular.find_unimodular_triangulation(lf.geometry.LatticePolytope(points), seed=seed)
    if cover is None or len(cover.cells) != DECOMPOSE_CELLS:
        raise RuntimeError(f"set-up expected a certified cover with {DECOMPOSE_CELLS} cells, got {cover}")
    cells, kind = [cell.vertices for cell in cover.cells], cover.kind
    box = _box(points)
    queries = [
        (q, h)
        for h in DECOMPOSE_H
        for q in itertools.product(*(range(h * lo, h * hi + 1) for lo, hi in box))
    ]
    random.Random(f"latticeforge-bench:{seed}:queries").shuffle(queries)

    def build(lf) -> list:
        poly = lf.geometry.LatticePolytope(points)
        cover = lf.unimodular.SimplicialCover(poly, tuple(map(lf.geometry.LatticeSimplex, cells)), kind, "certified")
        for cell in cover.cells:  # fill each cell's lazily cached adjugate
            cell.contains_point(cell.vertices[0])
        return [
            Request(f"decompose {q}/{h}",
                    lambda q=q, h=h: lf.unimodular.decompose(poly, cover, q, h),
                    _decompose_check(q, h, box))
            for q, h in queries
        ]

    return build


SETUP = {"certify": certify, "probe": probe, "bruteforce": bruteforce, "decompose": decompose}
NAMES = tuple(SETUP)
