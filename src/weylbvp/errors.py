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
    """The requested point belongs to the spectrum of the operator/relation."""


class PoleOrSpectrum(MathDomainError):
    """Evaluation point is a pole of the function or outside the resolvent set."""


class NonInvertibleTrace(MathDomainError):
    """Gamma_0 restricted to the defect subspace is singular."""


class InsufficientSamples(ConfigError):
    """Too few sample points for the requested analysis."""


class NotStrict(WeylbvpError):
    """Function has a nontrivial common kernel; the strict construction does not apply."""


class RealTheta(ConfigError):
    """The anchor point of the constant realization must be nonreal."""


class NonAdjointBlocks(ConfigError):
    """The off-diagonal coupling blocks are not mutually adjoint."""


class BetaOneSingular(ConfigError):
    """The leading coefficient of the rational function must be positive definite."""


class NonPositiveCoefficient(ConfigError):
    """A diffusion coefficient was sampled nonpositive."""


class RankDeficientCoupling(WeylbvpError):
    """A coupling does not determine its unknowns: a boundary channel is
    disconnected from the interior, or the coupling conditions of a
    linearization fail to determine it uniquely."""


class OutsideU(MathDomainError):
    """M(lambda) + tau(lambda) is numerically singular; problem not uniquely solvable."""

    def __init__(self, lam, sigma_min, scale):
        self.lam = lam
        self.sigma_min = sigma_min
        self.scale = scale
        super().__init__(
            f"lambda={lam} is outside the solvability set: "
            f"sigma_min(M+tau)={sigma_min:.3e} (scale {scale:.3e})"
        )


class SingularSystem(MathDomainError):
    """The assembled direct-solve system is numerically singular."""
