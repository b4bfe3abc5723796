"""Exception types shared across the solver modules."""


class MemdiffError(Exception):
    """Base class for all library errors."""


class TimeOrderError(MemdiffError):
    """Raised when an operation requires s < t but received s >= t."""


class NonparabolicCoefficientError(MemdiffError):
    """A diffusion coefficient sample was <= 0 somewhere on the audit grid."""


class DegenerateWentzellError(MemdiffError):
    """q1(s) + q2(s) vanished at some sample time."""


class AtomOnMembraneError(MemdiffError):
    """A jump-measure atom sits on the membrane at some sample time."""


class ConvergenceFailureError(MemdiffError):
    """The correction-kernel series terms stopped decreasing before the depth cap."""


class SeriesDivergenceError(MemdiffError):
    """Successive approximations for the layer densities diverge (spectral
    radius at least 1), exhaust k_max or lose the precision of their sum."""


class MeshMismatchError(MemdiffError):
    """An evaluation point falls outside the span of a density mesh."""


class SingularIntegrandError(MemdiffError):
    """The Holmgren integrand does not decay at the left endpoint, a
    quadrature node rounded onto an end of its interval, or a field value
    or check statistic came out NaN or infinite."""


class StepTooLargeError(MemdiffError):
    """Monte Carlo membrane-crossing resolution is unreliable at this step size."""


class ZeroVarianceError(MemdiffError):
    """Every Monte Carlo path returned the same phi value: no standard error."""


class ConfigError(MemdiffError):
    """A problem, run configuration or setting is malformed or out of range."""
