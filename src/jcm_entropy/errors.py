"""Exception types shared across the package."""


class _Located:
    """``index``: the flat position, in the raising call's array input, of
    the first entry that fails the check, or None where the check has no
    such entry (a bad tolerance or count).  ``sweep.run_sweep`` names by it
    the first failing T of the first check to fail, in the first run that
    fails; no stage is re-run, so every value named is the sweep's own."""

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class DomainError(_Located, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PrecisionLossError(_Located, ArithmeticError):
    """A route cannot reach its accuracy.  The library raises it where a Wehrl
    series does not settle to ``series_tol``; the test oracles raise it too."""
