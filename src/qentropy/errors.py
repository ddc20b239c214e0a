"""Exception types, one per failure channel the library distinguishes, and the
integer rule the spec and document parsers share."""

import numbers
from typing import Any


class QEntropyError(Exception):
    """Base class for all library errors."""


class StructuralError(QEntropyError, ValueError):
    """Shapes, labels, or dimensions do not fit together."""


class InvalidStateError(QEntropyError, ValueError):
    """A matrix violates the density-matrix invariants beyond tolerance."""


class InvalidChannelError(QEntropyError, ValueError):
    """A Kraus set is not trace preserving within tolerance."""


class PreconditionError(QEntropyError, ValueError):
    """An operation-specific precondition failed (e.g. input not pure)."""


class DegenerateTruncationError(QEntropyError, ValueError):
    """A projection annihilated the state: normalization weight below cutoff."""

    def __init__(self, message: str, weight: float):
        super().__init__(message)
        self.weight = weight


class ParseError(QEntropyError, ValueError):
    """A state/channel document or a catalog spec string could not be parsed."""


def as_integer(value: Any, what: str) -> int:
    """``value`` as an int; an integral float such as 2.0 or 1e1 counts, while a
    bool, a fraction or a non-number raises :class:`ParseError`."""
    integral = isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not (integral or isinstance(value, numbers.Integral)):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)
