"""Exception types shared across the package."""


class NegativeCurvatureError(ValueError):
    """No positive definite metric: a pair with s'y <= 0, or a splitting
    that is indefinite in floating point."""


class SecantError(ValueError):
    """A freshly built metric misses the secant condition H^{-1} y = s."""


class DivergenceError(RuntimeError):
    """Objective exceeded the divergence guard during a solver run."""


class ConvergenceError(RuntimeError):
    """Iterative subroutine hit its iteration cap before reaching tolerance."""


class EnumerationLimitError(ValueError):
    """Requested exact enumeration exceeds the support-size guard."""


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; carries 1-based line and column of the offender."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ConfigError(ValueError):
    """Invalid experiment configuration."""
