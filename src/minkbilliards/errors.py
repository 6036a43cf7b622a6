"""Exception hierarchy for the billiard engine and conditions machinery."""


class BilliardError(Exception):
    """Base class for all errors raised by this package."""


# -- vector / reflection ----------------------------------------------------

class ZeroVectorError(BilliardError):
    """A direction vector is (numerically) zero where a nonzero one is required."""


class LightLikeNormalError(BilliardError):
    """Reflection in a plane whose normal is light-like is not defined."""


# -- confocal family --------------------------------------------------------

class DegenerateParameterError(BilliardError):
    """Quadric parameter hits a pole of the confocal family."""


class DegeneratePointError(BilliardError):
    """Point lies on a degenerate locus; elliptic coordinates collide."""


class OutsideDomainError(BilliardError):
    """Point is outside the (closed) ellipsoid."""


class InvalidCoordsError(BilliardError):
    """Elliptic coordinates do not correspond to a real point."""


class NoInteriorIntersectionError(BilliardError):
    """Line does not meet the open interior of the ellipsoid."""


class ComplexCausticsError(BilliardError):
    """Tangency equation has no real roots; line misses the interior."""


class InconsistentConfigurationError(BilliardError):
    """Caustic pair matches no admissible interval configuration."""


# -- simulation -------------------------------------------------------------

class NoForwardIntersectionError(BilliardError):
    """Ray does not re-enter the ellipsoid (degenerate tangential start)."""


class UndefinedReflectionError(BilliardError):
    """Transversal impact at a tropic point; the billiard map does not extend."""


# -- exact conditions -------------------------------------------------------

class SingularCurveError(BilliardError):
    """Parameters produce a singular quintic (repeated branch points)."""


class ZeroGammaError(BilliardError):
    """Series division requires a nonzero caustic parameter."""


class InsufficientOrderError(BilliardError):
    """Series is too short for the requested Hankel block."""


class CaseMismatchError(BilliardError):
    """Parameters are inconsistent with the declared caustic case."""


class GammaOutOfRangeError(BilliardError):
    """Caustic parameter outside the admissible interval for this test."""


class NonpositiveIntegrandError(BilliardError):
    """The quintic is not positive inside a requested integration interval."""


class QuadratureError(BilliardError):
    """Adaptive quadrature reached its panel cap before converging."""


# -- Pell -------------------------------------------------------------------

class ThresholdViolationError(BilliardError):
    """Period below the admissible threshold for the requested variant."""


class UnverifiedInputError(BilliardError):
    """Composition requires a solution that verifies exactly."""


# -- search / CLI -----------------------------------------------------------

class EmptyRangeError(BilliardError):
    """Scan range is empty or outside the admissible region."""


class InvalidToleranceError(BilliardError):
    """A tolerance is not a finite positive number."""


class NoConvergenceError(BilliardError):
    """Root polishing / line construction failed to converge."""
