"""Exception hierarchy shared across the workbench."""


class TccBenchError(Exception):
    """Base class for all workbench errors."""


class InputError(TccBenchError):
    """Bad user input (files, configs, index ranges)."""


class MalformedHeaderError(InputError):
    pass


class IndexOutOfRangeError(InputError):
    pass


class DuplicateCanonicalEntryError(InputError):
    """Conflicting integral values for the same canonical index."""


class NonFiniteIntegralError(InputError):
    """An integral or the core energy is NaN or infinite."""


class StateCountError(InputError):
    """More eigenpairs requested than the space has, or fewer than one."""


class SizeLimitError(TccBenchError):
    """Requested system exceeds the supported desk scale."""


class DimensionLimitError(SizeLimitError):
    """Determinant space too large for the dense solver path."""


class DimensionMismatchError(TccBenchError):
    pass


class SpaceMismatchError(TccBenchError):
    """Amplitude vector lives on a different index set than required."""


class NonFiniteAmplitudeError(TccBenchError):
    """An amplitude is NaN or infinite."""


class NonPositiveWeightError(TccBenchError):
    """An epsilon weight is <= 0; the CAS-ext gap assumption is violated."""


class GapViolationError(TccBenchError):
    """min epsilon over the external index set is <= 0."""


class ZeroReferenceOverlapError(TccBenchError):
    """State has (numerically) zero overlap with the reference determinant."""


class NotNormalizedError(TccBenchError):
    pass


class SameOrbitalError(TccBenchError):
    pass


class MissingReferenceError(TccBenchError):
    """A converged reference amplitude vector is required but absent."""


class SingularJacobianError(TccBenchError):
    """Adjoint system is singular; monotonicity constant is ~0."""


class SolverFailureError(TccBenchError):
    """A sub-solve required by a diagnostic did not converge."""


class InsufficientPointsError(TccBenchError):
    """Fewer than three usable rows for a log-log slope fit."""
