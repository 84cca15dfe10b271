"""Exception types shared across the package."""


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
