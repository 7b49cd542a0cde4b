"""Direct evaluators for the closed formulas, with checked exact division.

Every formula is computed as (numerator, divisor power) and finished by an
exact division by that power of (1 - q); a nonzero remainder raises instead
of producing a silently wrong polynomial, so typos in coefficients become
hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPolynomialError
from .poly import (
    ONE,
    HalfExponentPoly,
    Poly,
    binom_safe,
    exact_div_one_minus_q_pow,
    one_minus_q,
    poly_sum,
    q_integer,
)


@dataclass(frozen=True)
class FormulaResult:
    """A closed-form value together with its numerator and (1-q) power."""

    value: Poly
    numerator: Poly
    divisor_power: int

    def check(self) -> bool:
        return self.value * one_minus_q() ** self.divisor_power == self.numerator


def checked_quotient(numerator: Poly, divisor_power: int) -> FormulaResult:
    value = exact_div_one_minus_q_pow(numerator, divisor_power)
    return FormulaResult(value=value, numerator=numerator, divisor_power=divisor_power)


def _ballot(m: int, k: int) -> int:
    """binom(m, m//2 - k) - binom(m, m//2 - k - 1) for even m treated via halves."""
    half = m // 2
    return binom_safe(m, half - k) - binom_safe(m, half - k - 1)


# -- core pieces of the second-route formulas ---------------------------------


def tangent_core_piece(k: int) -> Poly:
    """sum_{j=0}^{2k+1} (-1)^(j+k) q^(j(2k+2-j)); zero for k = -1."""
    if k < -1:
        raise ValueError("piece index must be >= -1")
    if k == -1:
        return Poly.zero()
    return Poly([((0, j * (2 * k + 2 - j)), (-1) ** (j + k)) for j in range(2 * k + 2)])


def secant_core_closed(k: int) -> Poly:
    """sum_{j=0}^{2k} (-1)^(j+k) q^(j(2k-j)+k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Poly([((0, j * (2 * k - j) + k), (-1) ** (j + k)) for j in range(2 * k + 1)])


def tangent_core_closed(k: int) -> Poly:
    """(piece(k) + piece(k-1)) / (1 - q), exactly."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = tangent_core_piece(k) + tangent_core_piece(k - 1)
    return checked_quotient(num, 1).value


# -- q-tangent and q-secant numbers --------------------------------------------


def q_tangent_closed_parts(n: int) -> FormulaResult:
    num = poly_sum(
        _ballot(2 * n + 1, k) * tangent_core_piece(k) for k in range(n + 1)
    )
    return checked_quotient(num, 2 * n + 1)


def q_tangent_closed(n: int) -> Poly:
    """The q-tangent number E_{2n+1}(q) by its ballot-weighted closed form."""
    value = q_tangent_closed_parts(n).value
    if not value.is_polynomial() or any(c < 0 for _, _, c in value.terms()):
        raise NotPolynomialError(f"q-tangent value left the polynomial cone: {value}")
    return value


def q_secant_closed_parts(n: int) -> FormulaResult:
    num = poly_sum(_ballot(2 * n, k) * secant_core_closed(k) for k in range(n + 1))
    return checked_quotient(num, 2 * n)


def q_secant_closed(n: int) -> Poly:
    """The q-secant number E_{2n}(q) by its ballot-weighted closed form."""
    value = q_secant_closed_parts(n).value
    if not value.is_polynomial() or any(c < 0 for _, _, c in value.terms()):
        raise NotPolynomialError(f"q-secant value left the polynomial cone: {value}")
    return value


def q_euler_closed(n: int) -> Poly:
    """E_n(q) routed through the matching parity's closed form."""
    return q_tangent_closed(n // 2) if n % 2 else q_secant_closed(n // 2)


def tangent_via_core_rearrangement(n: int) -> Poly:
    """E_{2n+1}(q) from the even-length ballot numbers and the tangent core.

    Rearranges the (2n+1)-ballot sum of pieces into the 2n-ballot sum of
    core polynomials, dropping one power of (1 - q).
    """
    num = poly_sum(_ballot(2 * n, k) * tangent_core_closed(k) for k in range(n + 1))
    return checked_quotient(num, 2 * n).value


# -- the bivariate closed forms -------------------------------------------------


def _wex_factor(k: int) -> Poly:
    """sum_{i=0}^k y^i q^(i(k+1-i))."""
    return Poly([((i, i * (k + 1 - i)), 1) for i in range(k + 1)])


def q_eulerian_closed(n: int) -> Poly:
    """Closed form of the (wex, cr) distribution over all permutations."""
    total = Poly.zero()
    for k in range(n + 1):
        inner = Poly(
            [
                ((j, 0), binom_safe(n, j) * binom_safe(n, j + k)
                 - binom_safe(n, j - 1) * binom_safe(n, j + k + 1))
                for j in range(n - k + 1)
            ]
        )
        total = total + (-1) ** k * (inner * _wex_factor(k))
    return checked_quotient(total, n).value


def _derangement_coeff(n: int, k: int, j: int) -> Poly:
    first = Poly(
        [
            ((0, j - i), binom_safe(j, i) * binom_safe(n - j, i + k))
            for i in range(j + 1)
        ]
    ) * binom_safe(n, j)
    second = Poly(
        [
            ((0, j - i), binom_safe(j - 1, i - 1) * binom_safe(n - j + 1, i + k + 1))
            for i in range(j + 1)
        ]
    ) * binom_safe(n, j - 1)
    return first - second


def q_derangement_closed(n: int) -> Poly:
    """Closed form of the (wex, cr) distribution over derangements."""
    total = Poly.zero()
    for k in range(n + 1):
        inner = poly_sum(
            Poly.monomial(1, j, 0) * _derangement_coeff(n, k, j) for j in range(n - k + 1)
        )
        total = total + (-1) ** k * (inner * _wex_factor(k))
    return checked_quotient(total, n).value


def q_eulerian_number_closed(k: int, n: int) -> Poly:
    """The q-Eulerian number refining permutations with k weak exceedances.

    Intermediate terms carry negative q-powers that must cancel; a surviving
    negative exponent signals an index-convention mismatch.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    acc = Poly.zero()
    for i in range(k):
        factor = Poly.monomial(binom_safe(n, i), 0, k - i) + Poly.const(binom_safe(n, i - 1))
        term = (q_integer(k - i) ** n) * factor
        acc = acc + (-1) ** i * term.shift_q(k * i - k * k)
    if not acc.is_polynomial():
        raise NotPolynomialError(f"negative q-powers survive in q-Eulerian number ({k},{n})")
    return acc


# -- involutions ------------------------------------------------------------------


def touchard_riordan(n: int) -> Poly:
    """Crossing distribution of fixed-point-free involutions of size 2n."""
    num = Poly(
        [((0, k * (k + 1) // 2), (-1) ** k * _ballot(2 * n, k)) for k in range(n + 1)]
    )
    return checked_quotient(num, n).value


def weighted_involution_sum(n: int) -> Poly:
    """sum over 0 <= k <= j <= n of (-1)^j (C(n,k) - C(n,k-1)) q^((j-k)(n-j-k)-k)."""
    terms = []
    for j in range(n + 1):
        for k in range(j + 1):
            c = (-1) ** j * (binom_safe(n, k) - binom_safe(n, k - 1))
            terms.append(((0, (j - k) * (n - j - k) - k), c))
    return Poly(terms)


# -- the finite hypergeometric identity -------------------------------------------


def alternating_binom_convolution(n: int, k: int) -> int:
    """sum_j (-1)^j binom(2n+1, j) binom(2n+1, j+k), evaluated directly."""
    m = 2 * n + 1
    return sum((-1) ** j * binom_safe(m, j) * binom_safe(m, j + k) for j in range(m - k + 1))


def alternating_binom_convolution_closed(n: int, k: int) -> int:
    """The evaluated form: 0 for even k, a signed central binomial for odd k."""
    if k % 2 == 0:
        return 0
    i = (k - 1) // 2
    return (-1) ** (n + i) * binom_safe(2 * n + 1, n - i)


# -- the parity-independent formula -------------------------------------------------


def parity_free_wex_sum(n: int) -> Poly:
    """First intermediate sum (integral exponents); vanishes for even n."""
    terms = []
    for k in range(n // 2 + 1):
        b = binom_safe(n, k) - binom_safe(n, k - 1)
        for i in range(n - 2 * k + 1):
            terms.append(((0, i * (n - 2 * k - i) + i), (-1) ** (k + i) * b))
    return Poly(terms)


def parity_free_derangement_sum(n: int) -> HalfExponentPoly:
    """Second intermediate sum, carrying q^(n/2 - k); vanishes for odd n."""
    terms = []
    for k in range(n // 2 + 1):
        b = binom_safe(n, k) - binom_safe(n, k - 1)
        for i in range(n - 2 * k + 1):
            terms.append(((0, 2 * i * (n - 2 * k - i) + n - 2 * k), (-1) ** (k + i) * b))
    return HalfExponentPoly(Poly(terms))


def parity_free_euler_closed(n: int) -> Poly:
    """E_n(q) for either parity, via the half-exponent substitution q = s**2.

    The two intermediate sums are combined in the s-ring; all odd s-powers
    must cancel before conversion back to q and the exact division by
    (1 - q)^n.  For n = 0 the two parity routes coincide on the empty object
    instead of alternating, so the degenerate value is returned directly.
    """
    if n == 0:
        return ONE
    sign = (-1) ** (n // 2)
    terms = []
    for k in range(n // 2 + 1):
        b = (binom_safe(n, k) - binom_safe(n, k - 1)) * sign
        for i in range(n - 2 * k + 1):
            c = (-1) ** (k + i) * b
            base = 2 * i * (n - 2 * k - i)
            terms.append(((0, base + 2 * i), c))
            terms.append(((0, base + n - 2 * k), c))
    num = HalfExponentPoly(Poly(terms)).to_q_poly()
    return checked_quotient(num, n).value
