"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or inconsistent parameter combination.

    Carries an optional ``field`` naming the offending configuration key so
    that file parsers can attach line information.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ConfigParseError(ConfigurationError):
    """Malformed configuration file; ``line`` is 1-based (0 = whole file)."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class NumericalError(ArithmeticError):
    """A detector's output or adapted state is no longer finite."""
