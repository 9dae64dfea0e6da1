"""The package's exceptions: one class per exit code, each carrying its code,
in one module that imports nothing.  A command raises one, and cli.main
prints ``error: <message>`` and returns its ``code``, without loading a
layer.  Any other exception is a bug and keeps its traceback.
"""


class Error(Exception):
    """Base of the errors a command reports; a bare Error is an input error."""

    code = 2


class InputError(Error):
    """An argument, field, partition or matrix file that names no valid run,
    an input file that cannot be read, or an output that cannot be written."""


class VerifyError(Error):
    """A matrix, partition or construction that fails its verification."""

    code = 1


class BudgetExceeded(Error):
    """A scheme search that needs more candidates than its budget allows."""

    code = 3


class NotHadamard(VerifyError):
    """Carries the first row pair (i, j) with nonzero dot product."""

    def __init__(self, rows: tuple[int, int]):
        super().__init__(f"rows {rows[0]} and {rows[1]} are not orthogonal")
        self.rows = rows


class BadEll(InputError):
    """An ell that is not admissible; construct names it as --ell."""
