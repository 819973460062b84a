"""latticeforge: exact certification of the h-fold decomposition property.

A lattice polytope P satisfies the integer decomposition property at h when
every lattice point of the dilate hP is a sum of h lattice points of P.
This package tests simplices for unimodularity, constructs the exact
decomposition when a unimodular simplex or certified unimodular
triangulation is available, verifies the property by brute force as an
independent check, and searches for a dilation factor whose dilate carries
a certified triangulation.  All arithmetic is exact.
"""

from .errors import (
    CoverageError,
    DegeneratePolytopeError,
    DimensionMismatchError,
    LatticeForgeError,
    NotUnimodularError,
    PointOutsideError,
    PolytopeFileError,
    ResourceLimitError,
)
from .geometry import (
    LatticePolytope,
    LatticeSimplex,
    contains,
    dilate,
    lattice_points,
    normalized_volume,
)
from .linalg import determinant, hermite_normal_form
from .sumsets import IdpReport, hfold_sumset, idp_check, idp_scan, point_set, sumset
from .unimodular import (
    Certification,
    Decomposition,
    EllProbe,
    EllReport,
    SimplicialCover,
    decompose,
    decompose_in_simplex,
    find_ell,
    find_unimodular_triangulation,
    hnf_diagonal,
    is_unimodular,
    lattice_index,
    verify_cover,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageError",
    "DegeneratePolytopeError",
    "DimensionMismatchError",
    "LatticeForgeError",
    "NotUnimodularError",
    "PointOutsideError",
    "PolytopeFileError",
    "ResourceLimitError",
    "LatticePolytope",
    "LatticeSimplex",
    "contains",
    "dilate",
    "lattice_points",
    "determinant",
    "hermite_normal_form",
    "IdpReport",
    "hfold_sumset",
    "idp_check",
    "idp_scan",
    "point_set",
    "sumset",
    "Certification",
    "Decomposition",
    "EllProbe",
    "EllReport",
    "SimplicialCover",
    "decompose",
    "decompose_in_simplex",
    "find_ell",
    "find_unimodular_triangulation",
    "hnf_diagonal",
    "is_unimodular",
    "lattice_index",
    "normalized_volume",
    "verify_cover",
    "__version__",
]
