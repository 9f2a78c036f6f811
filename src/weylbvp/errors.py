"""Exception hierarchy for weylbvp."""


class WeylbvpError(Exception):
    """Base class for all library errors."""


class ConfigError(WeylbvpError):
    """Invalid configuration or malformed input data."""


class MathDomainError(WeylbvpError):
    """Base class for errors caused by evaluating outside an admissible set."""


class DimensionMismatch(ConfigError):
    """Operands live in incompatible spaces."""


class SpectrumPoint(MathDomainError):
    """The requested point lies in a spectrum: of the operator or relation
    factored there, outside the solvability set (M + tau singular), or at a
    pole of tau."""


class InsufficientSamples(ConfigError):
    """Too few sample points for the requested analysis."""


class NotStrict(MathDomainError):
    """Function has a nontrivial common kernel; the strict construction does not apply."""


class RealTheta(ConfigError):
    """The anchor point of the constant realization must be nonreal."""


class NonAdjointBlocks(ConfigError):
    """The off-diagonal coupling blocks are not mutually adjoint."""


class BetaOneSingular(ConfigError):
    """The leading coefficient of the rational function must be positive definite."""


class NonPositiveCoefficient(ConfigError):
    """A diffusion coefficient was sampled nonpositive."""


class RankDeficientCoupling(MathDomainError):
    """A coupling does not determine its unknowns: a boundary channel is
    disconnected from the interior, or the coupling conditions of a
    linearization fail to determine it uniquely."""

