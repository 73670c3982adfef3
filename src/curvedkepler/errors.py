"""Exception types shared across the package."""


class CurvedKeplerError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CurvedKeplerError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation at a pole of a tagged trig function.

    Carries the sign of the one-sided limit in ``sign`` so callers can
    branch on the direction of blow-up instead of receiving an IEEE
    infinity of unclear provenance.
    """

    def __init__(self, message: str, sign: int):
        super().__init__(message)
        self.sign = sign


class SingularityError(DomainError):
    """Evaluation at the r = 0 singularity of a chart or potential."""


class DegenerateError(DomainError):
    """A defining element of a geometric construction collapsed to zero."""


class RadialOrbitError(CurvedKeplerError):
    """The operation needs nonzero angular momentum but got J = 0."""


class InfeasibleError(CurvedKeplerError):
    """Dynamically unattainable parameter combination."""


class StiffnessError(CurvedKeplerError):
    """The adaptive step size underflowed; integration cannot continue."""


class NumericalError(CurvedKeplerError):
    """A quantity computed from finite inputs overflowed to inf or NaN."""
