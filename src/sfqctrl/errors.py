"""Exception types shared across the package."""


class IntegratorDivergence(ArithmeticError):
    """Time integration produced a propagator that is not unitary to tolerance.

    Usually signals an insufficient substep count for the configured pulse.
    """


class NonFiniteObjective(ArithmeticError):
    """The objective J or an entry of its gradient is NaN or infinite.

    A non-finite value cannot rank trust-region steps, so the run stops
    rather than treating it as a rejected step or a non-improving flip.
    """


class ParseError(ValueError):
    """A config or matrix file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """A configuration value breaks an invariant; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class NonUnitaryTarget(ValueError):
    """A gate target matrix failed the unitarity check."""
