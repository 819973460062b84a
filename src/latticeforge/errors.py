"""Exception hierarchy shared by all latticeforge modules."""


class LatticeForgeError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatchError(LatticeForgeError):
    """Operands live in different ambient dimensions, or a matrix is not square."""


class SingularMatrixError(LatticeForgeError):
    """A linear solve was attempted on a matrix with determinant zero."""


class DegeneratePolytopeError(LatticeForgeError):
    """An operation required a full-dimensional polytope and got a flat one,
    or a simplex got repeated or affinely dependent vertices."""


class ResourceLimitError(LatticeForgeError):
    """A desk-scale cap was hit: ambient dimension, box volume, pair count,
    point-set size or multiset search space."""


class NotUnimodularError(LatticeForgeError):
    """A constructive decomposition was requested in a non-unimodular simplex."""


class PointOutsideError(LatticeForgeError):
    """The query point is not in the region the operation requires it to be in."""


class CoverageError(LatticeForgeError):
    """A cover marked certified failed to contain a point it must cover."""


class PolytopeFileError(LatticeForgeError):
    """An input file for the CLI is malformed (bad JSON, floats, wrong shapes)."""
