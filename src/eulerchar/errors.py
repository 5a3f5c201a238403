"""Exception types shared across the package."""


class EulerCharError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(EulerCharError):
    """Invalid group specification (syntax or invariant violation)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RealizeError(EulerCharError):
    """A group spec cannot be turned into a concrete multiplication table."""


class UnsupportedFamilyError(EulerCharError):
    """The requested invariant has no computation path for this family."""


class TruncationError(EulerCharError):
    """A dimension series is too short for the requested degree."""


class BudgetError(EulerCharError):
    """A brute-force computation would exceed the configured memory budget."""

    def __init__(self, required_bytes, budget_bytes):
        super().__init__(
            f"computation needs ~{required_bytes} bytes, budget is {budget_bytes}"
        )
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
