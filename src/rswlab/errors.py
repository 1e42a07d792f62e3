"""Exception hierarchy shared by every module of the package."""


class RswError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(RswError, ValueError):
    """A constructor or command received parameters violating an invariant."""


class OriginSingular(RswError):
    """Polar decomposition requested at the coordinate origin."""


class ZeroDepth(RswError):
    """Depth at or below the depth floor; diagnostics are undefined there."""


class WindowViolation(RswError):
    """Evaluation requested outside a field's validity window."""


class SingularTime(RswError):
    """A time-dependent map was evaluated at one of its singular times."""


class NoRingExists(RswError):
    """The stationary ring constants admit no radius interval with real branches."""


class UnsupportedFamily(RswError):
    """The requested operation is not defined for this solution family."""


class FitDegenerate(RswError):
    """The structure-constant sample matrix is rank deficient."""


class LeftDomain(RswError):
    """A trajectory left the field's spatial domain."""


class BlowUp(RswError):
    """Adaptive step size underflowed; the trajectory is blowing up."""


class NegativeDepth(RswError):
    """The finite-volume update produced a significantly negative depth."""


class QuadratureFail(RswError):
    """The collapse solution's tabulated time map is not strictly increasing."""
