"""Exception types shared across the solver modules."""


class BkmError(Exception):
    """Base class for solver-specific failures."""


class DegenerateGeometryError(BkmError, ValueError):
    """Raised when knots coincide or a boundary description is unusable."""


class IllConditionedError(BkmError, ArithmeticError):
    """Raised when a linear system is too ill-conditioned to solve reliably.

    Carries the 1-norm condition estimate, or None where a stage has none.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message if condition is None
                         else f"{message} (condition estimate {condition:.3e})")
        self.condition = condition
