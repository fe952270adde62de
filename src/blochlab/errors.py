"""Exception types shared across the package."""


class ConfigParseError(ValueError):
    """Malformed experiment configuration text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column else "") + f": {message}"
        super().__init__(message)


class ConfigValidationError(ValueError):
    """A parsed configuration violates a documented constraint."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
