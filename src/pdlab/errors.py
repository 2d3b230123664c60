"""Exception hierarchy shared across the package, and the integer check
that config parsing raises through it.

The CLI maps these onto exit codes: ValidationError -> 2,
ResourceBudgetError (and a MemoryError from a failed allocation) -> 3,
and any AssertionError -> 4.
"""

import numbers


class PdlabError(Exception):
    """Base class for all pdlab errors."""


class ValidationError(PdlabError):
    """A parameter or input violates a documented precondition."""


class ResourceBudgetError(PdlabError):
    """A computation would exceed a configured memory or size budget."""


def integral(value, what: str) -> int:
    """value as an int; ValidationError unless it is an integer or an
    integral float such as 1e6.  Booleans and fractional values are
    rejected, never truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")
