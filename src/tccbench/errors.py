"""Exception hierarchy shared across the workbench."""


class TccBenchError(Exception):
    """Base class for all workbench errors, with the exit code and stderr prefix the CLI uses."""

    exit_code, prefix = 1, "error"


class InputError(TccBenchError, ValueError):
    """Bad user input (files, configs, index ranges, argument values); a ValueError too."""


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

    exit_code, prefix = 3, "limit exceeded"


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


class SolverError(TccBenchError):
    """A solve failed, or the problem it was given is ill-posed."""

    exit_code, prefix = 2, "solver error"


class GapViolationError(SolverError):
    """min epsilon over the external index set is <= 0."""


class ZeroReferenceOverlapError(TccBenchError):
    """State has (numerically) zero overlap with the reference determinant."""


class NotNormalizedError(TccBenchError):
    pass


class MissingReferenceError(TccBenchError):
    """A converged reference amplitude vector is required but absent."""


class SingularJacobianError(SolverError):
    """Adjoint system is singular; monotonicity constant is ~0."""


class SolverFailureError(SolverError):
    """A sub-solve required by a diagnostic did not converge."""


class InsufficientPointsError(TccBenchError):
    """Fewer than three usable rows for a log-log slope fit."""
