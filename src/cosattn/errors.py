"""Exception types shared across the package; the CLI maps them onto its
exit codes (cli's docstring)."""


class CosattnError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CosattnError):
    """Operand shapes are inconsistent with the requested operation."""


class ConfigurationError(CosattnError):
    """A config value is invalid or incompatible with the inputs."""


class MatrixParseError(CosattnError):
    """A matrix or image file is malformed; line is the 1-based line
    where parsing failed, when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
