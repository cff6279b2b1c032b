"""The package's error kinds, one for each way a run can fail.

Each kind names what went wrong, not where it was noticed, and the CLI
turns each into one exit code:

    UsageError     exit 2  a parameter is missing, malformed or out of range
    InputError     exit 3  a graph, coloring or color set is malformed or not
                           accepted, or a file cannot be read or written
    BudgetError    exit 4  a search or enumeration would exceed its budget
    InternalError  exit 3  a self-check failed ("internal error"): a bug

`CycolorError` is their common base; it is never raised directly.
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
