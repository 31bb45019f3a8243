"""Error taxonomy shared across the package.

Contract violations (bad shapes, bad or inconsistent config values,
including malformed config lines) raise ContractError subclasses and map
to CLI exit code 1.  Problems with on-disk container bytes (truncated or
corrupt files) raise FormatError subclasses and map to exit code 2.
"""


class ContractError(ValueError):
    """A caller violated an API contract."""


class DimensionError(ContractError):
    """Operands have incompatible or unsupported shapes."""


class ConfigError(ContractError):
    """A configuration value is missing, unknown, or out of range."""


class NumericError(ContractError):
    """A tensor value is NaN or infinite where finite values are required.

    For a stacked value, whose leading axis holds one client each, index
    is the lowest position along that axis with a non-finite entry.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SchemaError(ContractError):
    """Parameter collections disagree on names or shapes."""


class FormatError(ValueError):
    """Bytes on disk do not parse as the expected format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
