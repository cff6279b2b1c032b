"""The package's error kinds, one for each way a run can fail.

Each kind names what went wrong, not where it was noticed, and the CLI
turns each into one exit code:

    UsageError     exit 2  a parameter is missing, malformed or out of range
    InputError     exit 3  a graph, coloring or color set is malformed or not
                           accepted, or a file cannot be read or written
    BudgetError    exit 4  a search or enumeration would exceed its budget
    InternalError  exit 3  a self-check failed ("internal error"): a bug

`CycolorError` is their common base; it is never raised directly.
`require_positive_int` is the one check of a count parameter.
"""


class CycolorError(Exception):
    """Base class for all package-specific errors."""


class UsageError(CycolorError):
    """A parameter is missing, malformed or out of range."""


class InputError(CycolorError):
    """A graph, coloring or color set is malformed or not accepted, or a file
    cannot be read or written."""


class BudgetError(CycolorError):
    """A search or enumeration was refused or abandoned for exceeding its budget."""


class InternalError(CycolorError):
    """A self-check failed: the package contradicted itself."""


def require_positive_int(name: str, value) -> None:
    """Raise a UsageError unless `value` is an int of at least 1 (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
