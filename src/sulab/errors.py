"""Exception hierarchy shared by all modules."""


class SulabError(Exception):
    """Base class for laboratory errors."""


class InvalidArgumentError(SulabError, ValueError):
    """Caller violated a precondition (bad shape, empty input, out-of-range value)."""


class FormatError(SulabError, ValueError):
    """A file failed to parse. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class SingularTimeError(SulabError, ValueError):
    """An operation was requested at a timestep where it divides by zero."""


class RankDeficiencyError(SulabError, ValueError):
    """A linear system is singular or not positive definite."""

    def __init__(self, message, pivot=None):
        self.pivot = pivot
        if pivot is not None:
            message = f"{message} (pivot {pivot})"
        super().__init__(message)


class NumericFailureError(SulabError, FloatingPointError):
    """Non-finite values appeared mid-computation. Carries context."""

    def __init__(self, message, iteration=None, state=None):
        self.iteration = iteration
        self.state = state
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)


class DivergenceError(NumericFailureError):
    """An ODE integration exceeded its step budget."""
