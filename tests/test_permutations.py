"""Statistics, classifiers, and brute-force distribution polynomials."""

import math

import pytest

from qeuler.errors import BudgetExceededError
from qeuler.permutations import (
    Permutation,
    all_permutations,
    alternating_31_2_poly,
    asc_312_multiset,
    ascents,
    crossings,
    derangements,
    fixed_points,
    fpf_involutions,
    inversion_check,
    involution_crossing_poly,
    is_alternating,
    is_derangement,
    is_fpf_involution,
    pattern_31_2,
    q_derangement_poly,
    q_eulerian_poly,
    stat_vector,
    weak_exceedances,
    wex_cr_multiset,
)
from qeuler.poly import Poly, Q, Y

FIG = (4, 3, 7, 1, 2, 6, 5)


def test_permutation_type():
    p = Permutation.parse("4371265")
    assert p.n == 7 and p.images == FIG
    assert p.image(0) == 0 and p.image(8) == 8 and p.image(1) == 4
    assert Permutation.parse("10,3,2,4,5,6,7,8,9,1").n == 10
    with pytest.raises(ValueError):
        Permutation.parse("441")
    with pytest.raises(ValueError):
        Permutation.parse("4x1")


def test_crossings():
    assert crossings(FIG) == 3
    assert crossings(range(1, 9)) == 0
    assert crossings((2, 1)) == 0
    assert crossings((3, 4, 1, 2)) == 2  # one from each clause


def test_weak_exceedances_and_ascents():
    assert weak_exceedances(FIG) == 4
    assert weak_exceedances((1, 2, 3, 4, 5)) == 5
    assert weak_exceedances((2, 1)) == 1
    assert ascents(FIG) == 4
    assert ascents((1, 2, 3)) == 3
    assert ascents((5, 4, 3, 2, 1)) == 1


def test_pattern_31_2():
    assert pattern_31_2(FIG) == 3
    assert pattern_31_2((1, 2, 3, 4)) == 0
    assert pattern_31_2((3, 2, 1)) == 0
    assert pattern_31_2((3, 1, 2)) == 1


def test_classify():
    assert not is_alternating(FIG)
    assert is_fpf_involution((3, 4, 1, 2))
    assert not is_derangement((1, 2, 3))
    assert is_alternating((2, 1, 3)) and is_alternating((3, 1, 2))
    assert not is_alternating((1, 3, 2))
    assert is_derangement((2, 3, 1)) and not is_fpf_involution((2, 3, 1))


def test_stat_vector():
    sv = stat_vector(FIG)
    assert (sv.wex, sv.asc, sv.cr, sv.fix, sv.p312) == (4, 4, 3, 1, 3)


def test_generators():
    assert sum(1 for _ in all_permutations(5)) == 120
    assert sum(1 for _ in derangements(5)) == 44
    assert sorted(fpf_involutions(4)) == [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    assert list(fpf_involutions(3)) == []
    assert all(is_fpf_involution(p) for p in fpf_involutions(6))
    assert sum(1 for _ in fpf_involutions(8)) == 105


def test_distribution_polys():
    assert q_eulerian_poly(1) == Y
    assert q_eulerian_poly(2) == Y + Y**2
    assert q_eulerian_poly(3) == Y + 3 * Y**2 + Y**2 * Q + Y**3
    assert q_derangement_poly(2) == Y
    assert q_derangement_poly(3) == Y + Y**2 * Q
    assert q_derangement_poly(4) == Y + Y**2 * (2 + 4 * Q + Q**2) + Y**3 * Q**2
    assert q_eulerian_poly(0) == Poly.one()
    for n in range(7):
        assert q_eulerian_poly(n).evaluate(1, 1) == math.factorial(n)
    assert [q_derangement_poly(n).evaluate(1, 1) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


def test_alternating_poly():
    assert alternating_31_2_poly(0) == Poly.one()
    assert alternating_31_2_poly(4) == Poly({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    assert alternating_31_2_poly(5) == Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1})
    assert [alternating_31_2_poly(n).evaluate(1, 1) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]


def test_involution_poly():
    assert involution_crossing_poly(0) == Poly.one()
    assert involution_crossing_poly(2) == Poly.one()
    assert involution_crossing_poly(4) == Poly({(0, 0): 2, (0, 1): 1})
    assert involution_crossing_poly(8).evaluate(1, 1) == 105


def test_inversion_formulas():
    for n in range(7):
        assert inversion_check(n)


def test_signed_sums_small():
    # even sizes vanish, odd sizes give the alternating-distribution value
    assert q_eulerian_poly(2).substitute_y(-1).is_zero
    assert q_eulerian_poly(4).substitute_y(-1).is_zero
    assert q_eulerian_poly(3).substitute_y(-1) == alternating_31_2_poly(3)
    assert q_eulerian_poly(5).substitute_y(-1) == -alternating_31_2_poly(5)
    assert q_derangement_poly(3).substitute_y(-1, -1).is_zero
    assert q_derangement_poly(4).substitute_y(-1, -1) == Poly.monomial(1, 0, -2) * alternating_31_2_poly(4)


def test_equidistribution_and_its_failure():
    for n in range(1, 7):
        assert wex_cr_multiset(n) == asc_312_multiset(n)
    assert wex_cr_multiset(2, derangements_only=True) == asc_312_multiset(2, derangements_only=True)
    assert wex_cr_multiset(3, derangements_only=True) != asc_312_multiset(3, derangements_only=True)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        q_eulerian_poly(11)
    with pytest.raises(BudgetExceededError):
        alternating_31_2_poly(4, bound=3)
