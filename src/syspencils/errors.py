"""Exception types raised across the package."""


class PencilError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PencilError):
    """Shapes or block partitions are inconsistent."""


class PoleError(PencilError):
    """Evaluation point is (numerically) a pole of the transfer function."""


class StructureError(PencilError):
    """Realization fails a required structural property (symmetry, ...)."""


class NotAMember(PencilError):
    """Pencil is not in the requested ansatz space to tolerance."""


class DegenerateFit(PencilError):
    """Ansatz vector cannot be identified (degenerate coefficient data)."""


class InterpolationError(PencilError):
    """Too few sample points away from the poles of G could be drawn."""


class SingularSystem(PencilError):
    """A pencil, or the system matrix S(lambda), is singular: det vanishes identically."""


class SolverFailure(PencilError):
    """Generalized eigensolver did not converge."""


class ZeroAnsatz(PencilError):
    """Ansatz vector is zero; the reduction requires v != 0 and w != 0."""


class DegenerateVector(PencilError):
    """Vector lacks the structure needed for eigenvector recovery."""


class SingularBasis(PencilError):
    """Polynomial basis specification does not yield a nonsingular map."""
