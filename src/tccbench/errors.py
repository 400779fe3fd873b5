"""The workbench's errors: one class for each exit code of the CLI."""


class TccBenchError(Exception):
    """Base class for all workbench errors, with the exit code and stderr prefix the CLI uses."""

    exit_code, prefix = 1, "error"


class InputError(TccBenchError, ValueError):
    """Bad user input (files, configs, index ranges, argument values); a ValueError too."""


class SolverError(TccBenchError):
    """A solve failed, or its problem is ill-posed: a closed gap or a singular adjoint."""

    exit_code, prefix = 2, "solver error"


class SizeLimitError(TccBenchError):
    """Requested system exceeds the supported desk scale."""

    exit_code, prefix = 3, "limit exceeded"
