"""Exception types shared across the package."""


class QEulerError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(QEulerError):
    """A computation was requested outside its bounds: above what it may enumerate,
    or below the least size that can witness what it checks."""


class NotDivisibleError(QEulerError, ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class NotPolynomialError(QEulerError, ArithmeticError):
    """Negative exponents survived where a genuine polynomial was required."""


class HalfPowerResidueError(QEulerError, ArithmeticError):
    """An odd power of the half-exponent variable survived a computation."""


class OddCrossingError(QEulerError):
    """A fixed-point-free involution reported an odd crossing number."""


class InvalidTransposeError(QEulerError):
    """Transposing a tableau left the derangement-tableau family."""


class RelationMismatchError(QEulerError):
    """A normal form was evaluated under a relation it was not built with."""


def check_budget(value: int, bound: int, what: str) -> None:
    """Refuse (rather than truncate) work above the configured bound."""
    if value > bound:
        raise BudgetExceededError(f"{what}={value} exceeds bound {bound}")
