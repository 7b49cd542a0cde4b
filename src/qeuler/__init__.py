"""Exact enumeration toolkit for q-analogs of Euler numbers.

Every generating polynomial in the package is computed over the exact ring
of integer-coefficient Laurent polynomials in y and q, and the verification
suites cross-check each quantity along independent routes (brute-force
enumeration, lattice-path transfer recurrences, tableau enumeration, closed
formulas, operator normal ordering, and continued-fraction extraction).
"""

from .errors import (
    BudgetExceededError,
    HalfPowerResidueError,
    InvalidTransposeError,
    NotDivisibleError,
    NotPolynomialError,
    OddCrossingError,
    QEulerError,
    RelationMismatchError,
)
from .poly import Poly, binom_safe, exact_div_one_minus_q_pow, q_integer

__all__ = [
    "BudgetExceededError",
    "HalfPowerResidueError",
    "InvalidTransposeError",
    "NotDivisibleError",
    "NotPolynomialError",
    "OddCrossingError",
    "Poly",
    "QEulerError",
    "RelationMismatchError",
    "binom_safe",
    "exact_div_one_minus_q_pow",
    "q_integer",
]

__version__ = "0.1.0"
