"""Exception types shared across the package."""

from __future__ import annotations


class ChoquetError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAGame(ChoquetError):
    """The set function does not vanish on the empty set."""

    def __init__(self, empty_value: float):
        self.empty_value = float(empty_value)
        super().__init__(
            f"set function is not a game: value on the empty set is "
            f"{self.empty_value!r}, expected exactly 0"
        )


class NotMonotone(ChoquetError):
    """A covering pair S < T with v(S) > v(T) was found.

    Attributes:
        witness: tuple (s_mask, t_mask, value_s, value_t) of the first
            offending covering pair in (bit, mask) scan order.
    """

    def __init__(self, s_mask: int, t_mask: int, value_s: float, value_t: float):
        self.witness = (s_mask, t_mask, float(value_s), float(value_t))
        super().__init__(
            f"set function is not monotone: value {value_s!r} on mask "
            f"{s_mask:#b} exceeds value {value_t!r} on mask {t_mask:#b}"
        )


class EmptyT(ChoquetError):
    """The empty set is not a valid base for a unanimity game."""


class DimensionMismatch(ChoquetError):
    """A point's length does not match the ground-set size."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected a point of length {expected}, got {got}")


class GroundSetTooLarge(ChoquetError, ValueError):
    """The ground set exceeds the bound an operation supports.  Also a
    ValueError, as UnsupportedGroundSet is: both reject a size argument."""

    def __init__(self, n: int, bound: int):
        self.n = n
        self.bound = bound
        super().__init__(f"ground set size {n} exceeds the supported bound {bound}")


class NonFiniteResult(ChoquetError):
    """An operation on finite inputs overflowed the float range."""

    def __init__(self, operation: str):
        self.operation = operation
        super().__init__(f"{operation} overflowed: the result is not a finite float")


class UnsupportedGroundSet(ChoquetError, ValueError):
    """The ground-set size is not an integer >= 1, or the family is not defined on it."""


class FileFormatError(ChoquetError):
    """A set-function document is malformed; the message names the field."""
