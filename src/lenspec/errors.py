"""Exception types shared across the package.

Every error the package raises is one of these three kinds or a subclass.
The CLI maps InputError and NumericError to exit 2 and ResourceCapError
to exit 3 (a per-check ``resource-cap`` entry when one check hits it).
"""


class InputError(ValueError):
    """Malformed or inconsistent input (bad letters, weights, scenario fields)."""


class ResourceCapError(RuntimeError):
    """An enumeration or search would exceed a configured size cap."""


class SearchExhaustedError(ResourceCapError):
    """A word-metric search did not reach its target within its budget.

    Raised by word_length when the search passes its cost radius or its
    node cap.  Says nothing about the target beyond that budget.
    """


class NumericError(ArithmeticError):
    """Floating point breakdown (overflow, non-finite matrix entries)."""
