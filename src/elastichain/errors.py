"""Exception types shared across the toolkit."""


class ElasticChainError(Exception):
    """Base class for model and solver failures raised by this package."""


class DimensionMismatchError(ElasticChainError, ValueError):
    """A vector length does not match the number of joints of the chain."""


class UnreachableTargetError(ElasticChainError):
    """Requested end-point lies outside the reachable workspace."""


class SingularConfigurationError(ElasticChainError):
    """The Jacobian lost rank, so force recovery is not defined here."""


class DegenerateModelError(ElasticChainError, ValueError):
    """Chain parameters admit no elastic model (singular system matrix).

    Raised when two or more joints are passive: by ChainModel when all are,
    otherwise by build_system and the buckling solve.
    """


class RankAnomalyError(ElasticChainError):
    """The linearized system produced an unexpected zero-eigenvalue count.

    Kept for compatibility: the symmetric solve in buckling_modes has no
    structural zeros to count and no longer raises it.
    """


class ComplexSpectrumError(ElasticChainError):
    """An eigenvalue acquired an imaginary part beyond tolerance.

    Kept for compatibility: buckling_modes solves a symmetric problem, whose
    spectrum is real, and no longer raises it.
    """


class DegenerateModeError(ElasticChainError):
    """A buckling mode produces no axial deflection; its energy factor is undefined."""


class SingularSampleError(ElasticChainError):
    """The closed-form force expression is singular at a requested sample."""


class NotApplicableError(ElasticChainError):
    """The requested quantity is not defined for the given model."""
