"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: DataError family -> 3, SolverError
family -> 4. Usage problems exit 2: argparse's own, and any other
``ValueError`` (a bad flag value or combination).
"""


class DataError(ValueError):
    """The input data cannot be used (parse failure, ragged rows, too small)."""


class DegenerateDataError(DataError):
    """Total variance is zero (or a column set is unusable), so R^2 is undefined."""


class SolverError(RuntimeError):
    """A solver was invoked with an infeasible or unsupported configuration."""


class InfeasibleStartError(SolverError):
    """A warm-start partition does not meet the required R^2 threshold."""
