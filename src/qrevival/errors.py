"""Exception and warning types shared across the package."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class AmbiguousWindowError(RuntimeError):
    """A detection window holds competing peaks of nearly equal height."""


class EdgePeakError(RuntimeError):
    """A detection window's highest sample is its first or last one."""


class HorizonTooShortError(RuntimeError):
    """A scan ended before the sought feature could be confirmed."""


class CutoffTooSmallError(ValueError):
    """A weight distribution is not exhausted within the largest range of
    levels computed."""


class CompletenessWarning(UserWarning):
    """The projected state is not fully captured by the bound-state basis."""
