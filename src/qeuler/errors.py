"""Exception types shared across the package, the size and budget checks, and
the check that a tuple is a permutation."""

from functools import cache


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


def check_size(n: int, bound: int | None = None, what: str = "n") -> None:
    """Reject a negative size; refuse (rather than truncate) one above the bound."""
    if n < 0:
        raise ValueError(f"{what}={n} must be nonnegative")
    if bound is not None and n > bound:
        raise BudgetExceededError(f"{what}={n} exceeds bound {bound}")


@cache
def _one_to(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def check_permutation(t: tuple[int, ...]) -> None:
    """Reject a tuple that does not hold each of 1..len(t) exactly once."""
    if set(t) != _one_to(len(t)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t}")
