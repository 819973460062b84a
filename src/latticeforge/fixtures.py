"""Built-in example polytopes used by the CLI and the test suite."""

from __future__ import annotations

import itertools

from .errors import PolytopeFileError
from .geometry import LatticePolytope


def std_simplex(n: int) -> LatticePolytope:
    """conv{0, e_1, ..., e_n}: the unimodular workhorse in Z^n."""
    zero = (0,) * n
    return LatticePolytope([zero] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])


def unit_cube(n: int) -> LatticePolytope:
    return LatticePolytope(list(itertools.product((0, 1), repeat=n)))


def unit_square() -> LatticePolytope:
    return unit_cube(2)


def stretched_simplex() -> LatticePolytope:
    """conv{0, e1, e2, 2*e3}: index 2, with an extra lattice point mid-edge."""
    return LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2)])


def reeve_simplex(q: int = 2) -> LatticePolytope:
    """conv{0, e1, e2, (1,1,q)}: no lattice points besides its vertices."""
    return LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)])


def example(name: str) -> LatticePolytope:
    """Resolve a CLI fixture name (std-simplex-N, cube-N, a1, a2).

    N is one ASCII digit 1..8, so cube-03 is not a second name for cube-3.
    """
    if name == "a1":
        return stretched_simplex()
    if name == "a2":
        return reeve_simplex()
    for prefix, builder in (("std-simplex-", std_simplex), ("cube-", unit_cube)):
        if name.startswith(prefix):
            suffix = name[len(prefix) :]
            if len(suffix) == 1 and "1" <= suffix <= "8":
                return builder(int(suffix))
    raise PolytopeFileError(
        f"unknown example {name!r}; available: std-simplex-N, cube-N (N=1..8), a1, a2"
    )
