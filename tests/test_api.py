"""The package's public surface: what `latticeforge` exports, and what it no longer does."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import latticeforge
from latticeforge.fixtures import unit_square

# names the package exported once and removed, with no command or paper object needing them
REMOVED = (
    "solve_rational",
    "integral_solution",
    "is_affinely_independent",
    "placing_triangulation",
    "SingularMatrixError",
    "barycentric",
    "_adj_times",
    "IntMatrix",
    "vec_add",
)


def test_public_surface():
    for name in latticeforge.__all__:
        assert getattr(latticeforge, name) is not None, name
    assert len(set(latticeforge.__all__)) == len(latticeforge.__all__)
    namespace = {}
    exec("from latticeforge import *", namespace)
    assert set(latticeforge.__all__) <= namespace.keys()
    modules = [latticeforge] + [
        importlib.import_module(f"latticeforge.{info.name}") for info in pkgutil.iter_modules(latticeforge.__path__)
    ]
    assert latticeforge.linalg in modules
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    # linalg is integer kernels only: the rational coordinate types live in
    # geometry, their one reader
    assert not hasattr(latticeforge.linalg, "_RATIONAL") and not hasattr(latticeforge.linalg, "Fraction")
    # the polytope helpers that nothing in the package called
    for cls, name in (
        (latticeforge.LatticeSimplex, "difference_matrix"),
        (latticeforge.LatticeSimplex, "hull"),
        (latticeforge.LatticePolytope, "as_simplex"),
        (latticeforge.LatticePolytope, "translate"),
        (latticeforge.LatticePolytope, "generators"),
    ):
        assert not hasattr(cls, name), (cls.__name__, name)


# the result records: NamedTuples, created without the code generation a
# dataclass runs at import; each with its fields in order and its defaults.
# The record checks import no pytest, so they also run as plain functions.
RECORDS = (
    ("IdpReport", ("h", "holds", "witnesses", "sum_size", "dilate_size"), {}),
    ("SimplicialCover", ("target", "cells", "kind", "certified"), {"kind": "triangulation", "certified": "uncertified"}),
    ("Certification", ("status", "problems"), {"problems": ()}),
    ("EllProbe", ("ell", "certificate", "cell_count", "idp"), {}),
    ("EllReport", ("ell", "per_ell"), {}),
)


def test_only_decomposition_is_a_dataclass():
    # a fresh interpreter: what importing the package alone creates
    script = (
        "import dataclasses, latticeforge\n"
        "print(sorted(n for n in latticeforge.__all__ if dataclasses.is_dataclass(getattr(latticeforge, n))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(latticeforge.__file__))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['Decomposition']\n"


def test_record_fields_and_defaults():
    for name, fields, defaults in RECORDS:
        cls = getattr(latticeforge, name)
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls), name
        assert cls._fields == fields and cls._field_defaults == defaults, name


def test_records_immutable_with_altered_copies():
    square = unit_square()
    cover = latticeforge.find_unimodular_triangulation(square)
    ell = latticeforge.find_ell(square, 1, 1)
    records = (latticeforge.idp_check(square, 2), cover, latticeforge.verify_cover(cover), ell.per_ell[0], ell)
    for (name, fields, _), record in zip(RECORDS, records):
        assert type(record).__name__ == name
        try:
            setattr(record, fields[0], None)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"{name}.{fields[0]} assigned")
        altered = record._replace(**{fields[0]: None})
        assert getattr(altered, fields[0]) is None and altered[1:] == record[1:], name
        # a plain tuple of the fields: unpacked, indexed and equal
        assert record == tuple(getattr(record, f) for f in fields) == tuple(record._asdict().values()), name
    status, problems = records[2]
    assert (status, problems) == ("certified", ()) and records[1][3] == "certified"
    assert repr(records[2]) == "Certification(status='certified', problems=())"


def test_decomposition_stays_a_dataclass():
    d = latticeforge.decompose_in_simplex(latticeforge.LatticeSimplex([(0, 0), (1, 0), (0, 1)]), (1, 1), 2)
    assert dataclasses.is_dataclass(d)
    other = dataclasses.replace(d, parts=((0, 0), (2, 2)))
    assert other.parts == ((0, 0), (2, 2)) and other.weights == d.weights and d.parts == ((0, 1), (1, 0))
    try:
        d.h = 3
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError("Decomposition.h assigned")
