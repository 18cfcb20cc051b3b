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


class DegenerateModeError(ElasticChainError):
    """A buckling mode produces no axial deflection; its energy factor is undefined."""


class SingularSampleError(ElasticChainError):
    """The closed-form force expression is singular at a requested sample."""


class NotApplicableError(ElasticChainError):
    """The requested quantity is not defined for the given model."""
