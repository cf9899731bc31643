"""Numerical failures, each naming the layer that failed.

Bad input (a zero period, a degenerate path, a turn outside the geodesic
range, the cone point itself, a triangle group with no cubic differential)
raises ValueError; the CLI exits 1 on ValueError and 2 on these types.
"""


class HitchinLimitsError(Exception):
    """Base class for the library's numerical failures."""


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
