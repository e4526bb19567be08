"""Exception types and the integer check shared across the package."""

import numbers


class DimensionError(ValueError):
    """Shapes or block structures of the operands do not match."""


class BudgetError(RuntimeError):
    """An enumeration or memory budget would be exceeded.

    Raised before any large allocation happens; the message says which
    budget was hit and, where applicable, what to use instead.
    """


def as_int(v, what: str) -> int:
    """v as an int; TypeError naming v for a bool or a non-integral value,
    which must not silently stand for its integer twin.  numpy integers
    are accepted."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"{what} must be integers, got {v!r}")
    return int(v)
