"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PrecisionLossError(ArithmeticError):
    """A route cannot reach its accuracy: a partial term grew large enough that
    cancellation would destroy it, or a series did not settle to its tolerance."""
