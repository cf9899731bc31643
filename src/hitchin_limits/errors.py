"""Exception and warning types shared across the library."""


class HitchinLimitsError(Exception):
    """Base class for all library errors."""


class ZeroPeriod(HitchinLimitsError):
    """A segment period is zero; exponents are undefined."""


class DegeneratePath(HitchinLimitsError):
    """A path has no segments, or a closed geodesic cannot be traced on the
    patch."""


class NotConverged(HitchinLimitsError):
    """An iterative routine exceeded its iteration budget."""


class NewtonDiverged(NotConverged):
    """Newton iteration failed to reduce the residual.

    Carries the residual history so the failure can be inspected.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals or [])


class GridTooCoarse(HitchinLimitsError):
    """A solve left its sub/supersolution bracket: the grid is too coarse."""


class StepUnstable(HitchinLimitsError):
    """An ODE integration step is not finite or grew beyond the stable range."""


class ConfigurationInvalid(HitchinLimitsError):
    """A turn configuration violates the geodesic angle condition."""


class OriginSingular(HitchinLimitsError):
    """The local model cannot be evaluated at the cone point itself."""


class NonDeformable(HitchinLimitsError):
    """Triangle group admits no nonzero cubic differential."""


class WallAmbiguity(UserWarning):
    """A diagonal factor has a doubled top eigenvalue (wall-direction segment).

    Not fatal: the leading term then carries several top entries, all with
    positive coefficients.
    """
