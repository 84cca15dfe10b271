"""Exception types shared across the package, and the checks of caller input that raise one."""

import contextlib
import numbers

import numpy as np


class InvalidInput(ValueError):
    """Caller passed arguments that violate an operation's preconditions."""


class StructureError(ValueError):
    """A region graph failed ``validate_region_graph``, which every circuit build runs."""


class DataFormatError(ValueError):
    """A data or model file could not be parsed or is internally inconsistent."""


class ModelVersionError(DataFormatError):
    """A model file was written by an unsupported format version."""


class NumericFailure(RuntimeError):
    """A numeric quantity (objective, gradient) became non-finite during training."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


def check_real(name: str, value, low, high, ends: str = "[]"):
    """``value`` unchanged; InvalidInput unless it is a real number in the interval.

    ``ends`` holds the interval's brackets, ``[`` or ``(`` for ``low`` and
    ``]`` or ``)`` for ``high``. Python and numpy reals pass; bool, NaN and
    anything else fail.
    """
    opened, closed = ends
    if not (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and (low <= value if opened == "[" else low < value)
        and (value <= high if closed == "]" else value < high)
    ):
        raise InvalidInput(f"{name} must be in {opened}{low}, {high}{closed}, got {value!r}")
    return value


def check_int(name: str, value, minimum: int, maximum: int = 2**63 - 1) -> int:
    """``value`` as an int; InvalidInput unless it is an integer in [``minimum``, ``maximum``].

    Python and numpy integers pass; bool, float and anything else fail. The
    default ``maximum`` is the largest int64.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(check_real(name, value, minimum, maximum))


def check_floats(name: str, value) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; InvalidInput naming ``name`` unless numpy converts it."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond any float
        raise InvalidInput(f"{name} must be a numeric array, got {value!r:.80}") from None


# numpy's ValueErrors for an array whose size it cannot hold
_SIZE_ERRORS = ("array is too big", "Maximum allowed dimension exceeded")


@contextlib.contextmanager
def too_large(what: str):
    """Turn an allocation the caller's sizes make impossible into InvalidInput.

    Inside the block, a ``MemoryError`` or one of numpy's size ``ValueError``s
    becomes ``InvalidInput("<what> too large: ...")``; every other error
    passes unchanged.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not any(s in str(exc) for s in _SIZE_ERRORS):
            raise
        raise InvalidInput(f"{what} too large: {exc}") from exc
