"""The package's public surface: what `latticeforge` exports, and what it no longer does."""

import importlib
import pkgutil

import latticeforge
from latticeforge.linalg import IntMatrix

# names the package exported once and removed, with no command or paper object needing them
REMOVED = (
    "solve_rational",
    "integral_solution",
    "is_affinely_independent",
    "placing_triangulation",
    "SingularMatrixError",
    "barycentric",
    "_adj_times",
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
    assert not hasattr(IntMatrix, "mul_vector")
