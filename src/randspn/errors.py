"""Exception types shared across the package, and the integer check that raises one."""

import numbers


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


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; InvalidInput unless it is an integer of at least ``minimum``.

    Python and numpy integers pass; bool, float and anything else fail.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")
    return int(value)
