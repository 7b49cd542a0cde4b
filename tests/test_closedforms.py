"""Closed-formula evaluators, each cross-checked against an independent route."""

import re

import pytest

import qeuler.closedforms as cf
from qeuler.closedforms import (
    _s_to_q,
    alternating_binom_convolution,
    alternating_binom_convolution_closed,
    parity_free_derangement_sum,
    parity_free_euler_closed,
    parity_free_wex_sum,
    q_derangement_closed,
    q_euler_closed,
    q_eulerian_closed,
    q_eulerian_number_closed,
    q_secant_closed,
    q_tangent_closed,
    secant_core_closed,
    tangent_core_closed,
    tangent_core_piece,
    tangent_via_core_rearrangement,
    touchard_riordan,
    weighted_involution_sum,
)
from qeuler.errors import HalfPowerResidueError
from qeuler.paths import (
    derangement_motzkin_sum, euler_dyck_sum, laguerre_sum, secant_core_path_sum,
    tangent_core_path_sum, touchard_dyck_sum,
)
from qeuler.permutations import (
    alternating_31_2_poly,
    involution_crossing_poly,
    q_derangement_poly,
    q_eulerian_poly,
)
from qeuler.poly import ONE, ZERO, Poly, Q, Y, binom_safe
from qeuler.verify import build_suite, run_check


def test_tangent_closed():
    assert q_tangent_closed(0) == ONE
    assert q_tangent_closed(1) == ONE + Q
    assert q_tangent_closed(2) == Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1})
    for n in range(5):
        assert q_tangent_closed(n) == euler_dyck_sum(n, 1)
    for n in range(5):
        assert q_tangent_closed(n) == alternating_31_2_poly(2 * n + 1)


def test_secant_closed():
    assert q_secant_closed(0) == ONE
    assert q_secant_closed(1) == ONE
    assert q_secant_closed(2) == Poly({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    for n in range(6):
        assert q_secant_closed(n) == euler_dyck_sum(n, 0)
    for n in range(4):
        assert q_secant_closed(n) == alternating_31_2_poly(2 * n)


def test_core_pieces():
    assert tangent_core_piece(-1).is_zero
    assert tangent_core_piece(0) == ONE - Q
    assert tangent_core_closed(0) == ONE
    assert secant_core_closed(1) == Q**2 - 2 * Q
    for k in range(7):
        assert secant_core_closed(k) == secant_core_path_sum(k)
        assert tangent_core_closed(k) == tangent_core_path_sum(k)
    with pytest.raises(ValueError):
        tangent_core_piece(-2)


def test_rearrangement():
    for n in range(6):
        assert tangent_via_core_rearrangement(n) == q_tangent_closed(n)


def test_bivariate_closed_forms():
    assert q_eulerian_closed(0) == ONE
    assert q_eulerian_closed(1) == Y
    assert q_eulerian_closed(2) == Y + Y**2
    assert q_derangement_closed(1).is_zero
    assert q_derangement_closed(2) == Y
    assert q_derangement_closed(3) == Y + Y**2 * Q
    for n in range(7):
        assert q_eulerian_closed(n) == q_eulerian_poly(n)
        assert q_derangement_closed(n) == q_derangement_poly(n)


def test_bivariate_closed_forms_equal_their_path_transfers():
    """Past the reach of enumeration, each closed form meets its Laguerre or Motzkin transfer."""
    for n in range(17):
        assert q_eulerian_closed(n) == laguerre_sum(n), n
        assert q_derangement_closed(n) == derangement_motzkin_sum(n), n


def test_q_eulerian_numbers():
    assert q_eulerian_number_closed(1, 1) == ONE
    assert q_eulerian_number_closed(2, 2) == ONE
    for n in range(1, 5):
        assert q_eulerian_number_closed(0, n).is_zero
        assert q_eulerian_number_closed(n, n) == ONE
    for n in range(1, 7):
        full = q_eulerian_poly(n)
        for k in range(n + 1):
            assert q_eulerian_number_closed(k, n) == full.coefficient_of_y(k)
    with pytest.raises(ValueError):
        q_eulerian_number_closed(3, 2)


def test_touchard_riordan():
    assert touchard_riordan(0) == ONE
    assert touchard_riordan(1) == ONE
    assert touchard_riordan(2) == 2 + Q
    for n in range(5):
        assert touchard_riordan(n) == involution_crossing_poly(2 * n)
        assert touchard_riordan(n) == touchard_dyck_sum(n)


def test_binomial_convolution_identity():
    assert alternating_binom_convolution(0, 1) == 1
    assert alternating_binom_convolution(3, 2) == 0
    assert alternating_binom_convolution(2, 3) == -5
    for n in range(9):
        for k in range(2 * n + 2):
            assert alternating_binom_convolution(n, k) == alternating_binom_convolution_closed(n, k)


def test_weighted_involution_sum():
    assert weighted_involution_sum(0) == ONE
    assert weighted_involution_sum(1).is_zero
    assert weighted_involution_sum(2) == Poly({(0, 0): 2, (0, 1): -1, (0, -1): -1})


def test_secant_involution_relation():
    for n in range(6):
        lhs = q_secant_closed(n) * (ONE - Q) ** (2 * n)
        rhs = Poly.monomial((-1) ** n, 0, n) * weighted_involution_sum(2 * n)
        assert lhs == rhs


def _parity_free_terms_with_k_minus_i(n):
    """_parity_free_terms with (-1) ** (k - i): the same signs, but a float whenever i > k."""
    for k in range(n // 2 + 1):
        b = binom_safe(n, k) - binom_safe(n, k - 1)
        r = n - 2 * k
        for i in range(r + 1):
            yield (-1) ** (k - i) * b, i, r


def test_a_float_coefficient_fails_the_parity_free_check(monkeypatch):
    check = next(c for c in build_suite("section6") if c.check_id == "parity_free/n=4")
    assert run_check(check).status == "PASS"
    monkeypatch.setattr(cf, "_parity_free_terms", _parity_free_terms_with_k_minus_i)
    result = run_check(check)
    assert result.status == "FAIL"
    assert re.fullmatch(r"ValueError: coefficient -1\.0 of term y\^0 q\^\d+ is not an int", result.detail)


def test_parity_free_formula():
    assert parity_free_euler_closed(0) == ONE
    assert parity_free_euler_closed(2) == ONE
    assert parity_free_euler_closed(3) == ONE + Q
    for n in range(11):
        expect = q_tangent_closed(n // 2) if n % 2 else q_secant_closed(n // 2)
        assert parity_free_euler_closed(n) == expect
    for n in range(2, 11, 2):
        assert parity_free_wex_sum(n).is_zero
    for n in range(1, 11, 2):
        assert parity_free_derangement_sum(n).is_zero
    # at odd sizes the second sum vanishes in s = q^(1/2), not only after q = s^2
    assert parity_free_derangement_sum(3).is_zero
    assert not parity_free_derangement_sum(4).is_zero


def test_half_exponent_residue():
    # s-exponents live in the q slot: s^2 + 2s^4 is q + 2q^2
    assert _s_to_q(Y * Q**2 + 2 * Q**4) == Y * Q + 2 * Q**2
    assert _s_to_q(ZERO).is_zero
    with pytest.raises(HalfPowerResidueError, match=r"^odd half-exponent terms survive: q\^3$"):
        _s_to_q(ONE + Q**3)


def test_even_size_vanishing_at_formula_level():
    # reaches past the brute-force range: the closed form itself vanishes
    for n in range(2, 13, 2):
        assert q_eulerian_closed(n).substitute_y(-1).is_zero


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "fn, what",
    [
        (q_tangent_closed, "n"),
        (q_secant_closed, "n"),
        (q_euler_closed, "n"),
        (tangent_via_core_rearrangement, "n"),
        (q_eulerian_closed, "n"),
        (q_derangement_closed, "n"),
        (touchard_riordan, "n"),
        (weighted_involution_sum, "n"),
        (parity_free_wex_sum, "n"),
        (parity_free_derangement_sum, "n"),
        (parity_free_euler_closed, "n"),
        (secant_core_closed, "k"),
        (tangent_core_closed, "k"),
        (lambda n: alternating_binom_convolution(n, 1), "n"),
        (lambda n: alternating_binom_convolution(n, 0), "n"),
        (lambda n: alternating_binom_convolution_closed(n, 1), "n"),
        (lambda n: alternating_binom_convolution_closed(n, 0), "n"),
    ],
)
def test_negative_size_is_rejected(fn, what, n):
    with pytest.raises(ValueError, match=rf"^{what}={n} must be nonnegative$"):
        fn(n)


def test_ballot_is_the_binomial_difference():
    for m in range(31):
        for k in range(m + 3):
            assert cf.ballot(m, k) == binom_safe(m, m // 2 - k) - binom_safe(m, m // 2 - k - 1), (m, k)
    for m, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="ballot numbers need m >= 0 and k >= 0"):
            cf.ballot(m, k)
