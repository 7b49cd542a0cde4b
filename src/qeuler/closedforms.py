"""Direct evaluators for the closed formulas, with checked exact division.

Every formula builds its numerator and finishes with an exact division by a
power of (1 - q); a nonzero remainder raises instead of producing a silently
wrong polynomial, so typos in coefficients become hard errors.  A negative
size is a ValueError that names the size.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator

from .errors import HalfPowerResidueError, NotPolynomialError, check_size
from .poly import (
    ONE, ZERO, Poly, binom_safe, exact_div_one_minus_q_pow, poly_dot, poly_sum, q_integer,
)


def ballot(m: int, k: int) -> int:
    """The number of Dyck-path left factors of m steps ending at height m % 2 + 2k."""
    if m < 0 or k < 0:
        raise ValueError(f"ballot numbers need m >= 0 and k >= 0, got m={m}, k={k}")
    half = m // 2
    return binom_safe(m, half - k) - binom_safe(m, half - k - 1)


def _ballot_sum(m: int, core: Callable[[int], Poly], power: int) -> Poly:
    """sum_{k <= m//2} ballot(m, k) core(k), divided exactly by (1 - q)^power."""
    num = poly_sum(ballot(m, k) * core(k) for k in range(m // 2 + 1))
    return exact_div_one_minus_q_pow(num, power)


def _in_cone(value: Poly, what: str) -> Poly:
    """The value, once it is a polynomial with nonnegative coefficients."""
    if not value.is_polynomial() or any(c < 0 for _, _, c in value.terms()):
        raise NotPolynomialError(f"{what} value left the polynomial cone: {value}")
    return value


# -- core pieces of the second-route formulas ---------------------------------


def tangent_core_piece(k: int) -> Poly:
    """sum_{j=0}^{2k+1} (-1)^(j+k) q^(j(2k+2-j)); zero for k = -1."""
    if k < -1:
        raise ValueError("piece index must be >= -1")
    if k == -1:
        return ZERO
    return Poly([((0, j * (2 * k + 2 - j)), (-1) ** (j + k)) for j in range(2 * k + 2)])


def secant_core_closed(k: int) -> Poly:
    """sum_{j=0}^{2k} (-1)^(j+k) q^(j(2k-j)+k)."""
    check_size(k, what="k")
    return Poly([((0, j * (2 * k - j) + k), (-1) ** (j + k)) for j in range(2 * k + 1)])


def tangent_core_closed(k: int) -> Poly:
    """(piece(k) + piece(k-1)) / (1 - q), exactly."""
    check_size(k, what="k")
    return exact_div_one_minus_q_pow(tangent_core_piece(k) + tangent_core_piece(k - 1), 1)


# -- q-tangent and q-secant numbers --------------------------------------------


def q_tangent_closed(n: int) -> Poly:
    """The q-tangent number E_{2n+1}(q) by its ballot-weighted closed form."""
    check_size(n)
    return _in_cone(_ballot_sum(2 * n + 1, tangent_core_piece, 2 * n + 1), "q-tangent")


def q_secant_closed(n: int) -> Poly:
    """The q-secant number E_{2n}(q) by its ballot-weighted closed form."""
    check_size(n)
    return _in_cone(_ballot_sum(2 * n, secant_core_closed, 2 * n), "q-secant")


def q_euler_closed(n: int) -> Poly:
    """E_n(q) routed through the matching parity's closed form."""
    check_size(n)
    return q_tangent_closed(n // 2) if n % 2 else q_secant_closed(n // 2)


def tangent_via_core_rearrangement(n: int) -> Poly:
    """E_{2n+1}(q) from the even-length ballot numbers and the tangent core.

    Rearranges the (2n+1)-ballot sum of pieces into the 2n-ballot sum of
    core polynomials, dropping one power of (1 - q).
    """
    check_size(n)
    return _ballot_sum(2 * n, tangent_core_closed, 2 * n)


# -- the bivariate closed forms -------------------------------------------------


def _wex_factor(k: int) -> Poly:
    """sum_{i=0}^k y^i q^(i(k+1-i))."""
    return Poly([((i, i * (k + 1 - i)), 1) for i in range(k + 1)])


def _wex_expansion(n: int, inner: Callable[[int], Poly]) -> Poly:
    """sum_{k <= n} (-1)^k inner(k) wex_factor(k), divided exactly by (1 - q)^n."""
    total = poly_dot((inner(k), (-1) ** k * _wex_factor(k)) for k in range(n + 1))
    return exact_div_one_minus_q_pow(total, n)


def q_eulerian_closed(n: int) -> Poly:
    """Closed form of the (wex, cr) distribution over all permutations."""
    check_size(n)
    return _wex_expansion(n, lambda k: Poly(
        ((j, 0), binom_safe(n, j) * binom_safe(n, j + k)
         - binom_safe(n, j - 1) * binom_safe(n, j + k + 1))
        for j in range(n - k + 1)
    ))


def _derangement_inner(n: int, k: int) -> Poly:
    """The k-th inner sum of the derangement closed form, sum_j y^j D(n, k, j), as one Poly.

    D(n, k, j) = sum_i (C(n, j) C(j, i) C(n-j, i+k) - C(n, j-1) C(j-1, i-1) C(n-j+1, i+k+1)) q^(j-i).
    """
    return Poly({
        (j, j - i): binom_safe(n, j) * binom_safe(j, i) * binom_safe(n - j, i + k)
        - binom_safe(n, j - 1) * binom_safe(j - 1, i - 1) * binom_safe(n - j + 1, i + k + 1)
        for j in range(n - k + 1) for i in range(j + 1)
    })


def q_derangement_closed(n: int) -> Poly:
    """Closed form of the (wex, cr) distribution over derangements."""
    check_size(n)
    return _wex_expansion(n, lambda k: _derangement_inner(n, k))


@cache
def _q_integer_power(m: int, n: int) -> Poly:
    """[m]_q ** n, built once and shared by every k of one row of q-Eulerian numbers."""
    return q_integer(m) ** n


def q_eulerian_number_closed(k: int, n: int) -> Poly:
    """The q-Eulerian number refining permutations with k weak exceedances.

    Intermediate terms carry negative q-powers that must cancel; a surviving
    negative exponent signals an index-convention mismatch.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    # term i: [k-i]_q^n times (-1)^i (C(n,i) q^(k-i) + C(n,i-1)) q^(k(i-k))
    acc = poly_dot((_q_integer_power(k - i, n), Poly([
        ((0, k * (i - k) + k - i), (-1) ** i * binom_safe(n, i)),
        ((0, k * (i - k)), (-1) ** i * binom_safe(n, i - 1))])) for i in range(k))
    if not acc.is_polynomial():
        raise NotPolynomialError(f"negative q-powers survive in q-Eulerian number ({k},{n})")
    return acc


# -- involutions ------------------------------------------------------------------


def touchard_riordan(n: int) -> Poly:
    """Crossing distribution of fixed-point-free involutions of size 2n."""
    check_size(n)
    return _ballot_sum(2 * n, lambda k: Poly.monomial((-1) ** k, 0, k * (k + 1) // 2), n)


def weighted_involution_sum(n: int) -> Poly:
    """sum over 0 <= k <= j <= n of (-1)^j (C(n,k) - C(n,k-1)) q^((j-k)(n-j-k)-k)."""
    check_size(n)
    terms = []
    for j in range(n + 1):
        for k in range(j + 1):
            c = (-1) ** j * (binom_safe(n, k) - binom_safe(n, k - 1))
            terms.append(((0, (j - k) * (n - j - k) - k), c))
    return Poly(terms)


# -- the finite hypergeometric identity -------------------------------------------


def alternating_binom_convolution(n: int, k: int) -> int:
    """sum_j (-1)^j binom(2n+1, j) binom(2n+1, j+k), evaluated directly."""
    check_size(n)
    m = 2 * n + 1
    return sum((-1) ** j * binom_safe(m, j) * binom_safe(m, j + k) for j in range(m - k + 1))


def alternating_binom_convolution_closed(n: int, k: int) -> int:
    """The evaluated form: 0 for even k, a signed central binomial for odd k."""
    check_size(n)
    if k % 2 == 0:
        return 0
    i = (k - 1) // 2
    return (-1) ** (n + i) * binom_safe(2 * n + 1, n - i)


# -- the parity-independent formula -------------------------------------------------


def _parity_free_terms(n: int) -> Iterator[tuple[int, int, int]]:
    """(c, i, r) for k <= n/2 and i <= r = n - 2k, with c = (-1)^(k+i) (C(n,k) - C(n,k-1))."""
    for k in range(n // 2 + 1):
        b = binom_safe(n, k) - binom_safe(n, k - 1)
        r = n - 2 * k
        for i in range(r + 1):
            yield (-1) ** (k + i) * b, i, r


def _s_to_q(p: Poly) -> Poly:
    """The q-polynomial of a polynomial in s = q^(1/2) stored in the q slot.

    Only even s-exponents may survive; an odd one raises HalfPowerResidueError.
    """
    odd = Poly(((ye, se), c) for ye, se, c in p.terms() if se % 2)
    if odd:
        raise HalfPowerResidueError(f"odd half-exponent terms survive: {odd}")
    return Poly(((ye, se // 2), c) for ye, se, c in p.terms())


def parity_free_wex_sum(n: int) -> Poly:
    """First intermediate sum (integral exponents); vanishes for even n."""
    check_size(n)
    return Poly(((0, i * (r - i) + i), c) for c, i, r in _parity_free_terms(n))


def parity_free_derangement_sum(n: int) -> Poly:
    """Second intermediate sum, carrying q^(n/2 - k); vanishes for odd n.

    Its exponents are those of s = q^(1/2), stored in the q slot.
    """
    check_size(n)
    return Poly(((0, 2 * i * (r - i) + r), c) for c, i, r in _parity_free_terms(n))


def parity_free_euler_closed(n: int) -> Poly:
    """E_n(q) for either parity, via the half-exponent substitution q = s**2.

    The two intermediate sums are combined in the s-ring; all odd s-powers
    must cancel before conversion back to q and the exact division by
    (1 - q)^n.  For n = 0 the two parity routes coincide on the empty object
    instead of alternating, so the degenerate value is returned directly.
    """
    check_size(n)
    if n == 0:
        return ONE
    sign = (-1) ** (n // 2)
    num = Poly(
        ((0, 2 * i * (r - i) + e), sign * c)
        for c, i, r in _parity_free_terms(n) for e in (2 * i, r)
    )
    return exact_div_one_minus_q_pow(_s_to_q(num), n)
