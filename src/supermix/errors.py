"""Exception and warning types shared across the package."""


class SupermixError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(SupermixError):
    """Two grid functions do not share the same grid."""


class CutoffAboveNyquist(SupermixError):
    """A requested frequency cutoff exceeds the grid's Nyquist band."""


class InvalidP(SupermixError):
    """Norm order outside the supported range."""


class ScaleTooSmall(SupermixError):
    """Kernel scale is not resolved by the grid spacing."""


class UnknownFamily(SupermixError):
    """Kernel family name is not in the catalog."""


class InvalidShape(SupermixError):
    """Kernel shape parameters or id fields are missing, out of range or miscounted."""


class SeriesNotConverged(SupermixError):
    """Transform truncation order too small for the requested bandwidth."""


class IllConditionedMoments(SupermixError):
    """Moment Hankel matrix too ill-conditioned to extract a quadrature rule."""


class InvalidSupport(SupermixError):
    """Atoms fall outside the declared support interval."""


class RegimeUnavailable(SupermixError):
    """Support-budget side condition fails; use the partition path instead."""


class InvalidDiscount(SupermixError):
    """Stick-breaking parameters outside d in [0,1), c > -d."""


class TruncationOverflow(SupermixError):
    """Adaptive stick-breaking truncation exceeded the level cap."""


class BoundaryPoint(SupermixError):
    """Simplex density evaluated at or outside the boundary."""


class PreconditionViolated(SupermixError):
    """A prior-mass bound was requested outside its validity region."""


class NonPositiveSigma(SupermixError):
    """Scale parameter must be strictly positive."""


class SupportViolation(SupermixError):
    """Density vanishes or goes negative where the reference has mass."""


class InvalidConfig(SupermixError):
    """Sampler or experiment configuration fails validation."""


class TooFewDraws(SupermixError):
    """Not enough posterior draws for the requested summary."""


class AliasingRisk(UserWarning):
    """Input carries non-negligible mass near the grid boundary.

    Emitted (not raised) because spectral results remain exact for the
    periodized function; the caller decides whether wraparound matters.
    """


class NonConvergenceWarning(UserWarning):
    """Chain diagnostics look suspicious; results are still returned."""
