"""The package's exceptions, in one module that imports nothing, so that the
CLI maps every error to its exit code without loading a layer.  Each layer
re-exports the ones it raises under its own name: finite_field.FieldError,
character_sums.CharError, intersection_sets.IntersectionError,
association_schemes.SchemeError, hadamard.HadamardError and so on.
"""


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class NotPrime(FieldError):
    pass


class TooLarge(FieldError):
    pass


class NoSubfield(FieldError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class CharError(ValueError):
    pass


class NoMatch(CharError):
    """No closed-form sign pair matches the coset counts or the numeric sum."""


class IntersectionError(ValueError):
    pass


class WrongResidue(IntersectionError):
    pass


class BadE(IntersectionError):
    pass


class BadEll(IntersectionError):
    pass


class NotFound(IntersectionError):
    """No admissible parameter pair; signals an implementation bug."""


class SchemeError(ValueError):
    pass


class BadForm(SchemeError):
    pass


class SchemeInvalid(SchemeError):
    pass


class BudgetExceeded(SchemeError):
    pass


class ParseError(SchemeError):
    """A partition or matrix file that does not parse."""


class HadamardError(ValueError):
    pass


class NotHadamard(HadamardError):
    """Carries the first row pair (i, j) with nonzero dot product."""

    def __init__(self, rows: tuple[int, int]):
        super().__init__(f"rows {rows[0]} and {rows[1]} are not orthogonal")
        self.rows = rows


class LengthMismatch(HadamardError):
    pass


class NotPrimePower(HadamardError):
    pass


class ParamSearchFailed(HadamardError):
    pass


class UsageError(Exception):
    """Arguments that do not name a valid run."""


class InputFileError(Exception):
    """An input file that cannot be opened or is not UTF-8 text, or an
    output directory that cannot be written."""
