"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PrecisionLossError(ArithmeticError):
    """A route cannot reach its accuracy.  The library raises it where a Wehrl
    series does not settle to ``series_tol``; the test oracles raise it too."""
