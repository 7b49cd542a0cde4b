"""Statistics, classifiers, and brute-force distribution polynomials."""

import math
import re
from collections import Counter

import pytest

from qeuler.closedforms import q_derangement_closed, q_euler_closed, q_eulerian_closed
from qeuler.errors import BudgetExceededError
from qeuler.permutations import (
    DEFAULT_BOUND,
    _alt_312_counts,
    _asc_312_counts,
    _asc_312_transfer,
    _field_width,
    _pairs,
    _wex_cr_counts,
    all_permutations,
    alternating_31_2_poly,
    asc_312_multiset,
    ascents,
    crossings,
    fpf_involutions,
    involution_crossing_poly,
    is_alternating,
    parse_permutation,
    pattern_31_2,
    q_derangement_poly,
    q_eulerian_poly,
    stat_vector,
    weak_exceedances,
    wex_cr_multiset,
)
from qeuler.poly import ONE, Poly, Q, Y
from qeuler.verify import _binomial_transform

FIG = (4, 3, 7, 1, 2, 6, 5)


def test_permutation_type():
    assert parse_permutation("4371265") == FIG
    assert ascents(parse_permutation("21")) == 1  # sigma(n+1) = n+1: position n is an ascent
    assert parse_permutation("10,3,2,4,5,6,7,8,9,1") == (10, 3, 2, 4, 5, 6, 7, 8, 9, 1)
    assert parse_permutation(" 2, 1 ") == (2, 1)
    for text in ("441", "0"):
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation(text)
    # an empty comma part, or a digit that int() rejects, is malformed text too
    for text in ("4x1", "", "12 3", ",1", "1,,2", "1,2,", "1²"):
        with pytest.raises(ValueError, match=re.escape(f"malformed permutation: {text!r}")):
            parse_permutation(text)


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


def _is_derangement(p):
    return all(v != i + 1 for i, v in enumerate(p))


def test_classify():
    assert not is_alternating(FIG)
    t = (3, 4, 1, 2)
    assert all(t[v - 1] == i + 1 != v for i, v in enumerate(t))  # a fixed-point-free involution
    assert not _is_derangement((1, 2, 3))
    assert is_alternating((2, 1, 3)) and is_alternating((3, 1, 2))
    assert not is_alternating((1, 3, 2))
    t = (2, 3, 1)
    assert _is_derangement(t) and not all(t[v - 1] == i + 1 != v for i, v in enumerate(t))


def test_stat_vector():
    sv = stat_vector(FIG)
    assert (sv.wex, sv.asc, sv.cr, sv.fix, sv.p312) == (4, 4, 3, 1, 3)


@pytest.mark.parametrize("stat, value, message", [
    ("fixed_points", 5, "every fixed point is a weak exceedance"),
    ("ascents", 0, "position n is always an ascent"),
])
def test_stat_vector_rejects_inconsistent_statistics(monkeypatch, stat, value, message):
    import qeuler.permutations as pm

    monkeypatch.setattr(pm, stat, lambda p: value)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        stat_vector(FIG)


def test_generators():
    assert sum(1 for _ in all_permutations(5)) == 120
    assert sum(map(_is_derangement, all_permutations(5))) == 44
    assert sorted(fpf_involutions(4)) == [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    assert list(fpf_involutions(3)) == []
    assert all(p[p[i] - 1] == i + 1 != p[i] for p in fpf_involutions(6) for i in range(6))
    assert sum(1 for _ in fpf_involutions(8)) == 105


def test_distribution_polys():
    assert q_eulerian_poly(1) == Y
    assert q_eulerian_poly(2) == Y + Y**2
    assert q_eulerian_poly(3) == Y + 3 * Y**2 + Y**2 * Q + Y**3
    assert q_derangement_poly(2) == Y
    assert q_derangement_poly(3) == Y + Y**2 * Q
    assert q_derangement_poly(4) == Y + Y**2 * (2 + 4 * Q + Q**2) + Y**3 * Q**2
    assert q_eulerian_poly(0) == ONE
    for n in range(7):
        assert q_eulerian_poly(n).evaluate(1, 1) == math.factorial(n)
    assert [q_derangement_poly(n).evaluate(1, 1) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


def test_alternating_poly():
    assert alternating_31_2_poly(0) == ONE
    assert alternating_31_2_poly(4) == Poly({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    assert alternating_31_2_poly(5) == Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1})
    assert [alternating_31_2_poly(n).evaluate(1, 1) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]


def test_involution_poly():
    assert involution_crossing_poly(0) == ONE
    assert involution_crossing_poly(2) == ONE
    assert involution_crossing_poly(4) == Poly({(0, 0): 2, (0, 1): 1})
    assert involution_crossing_poly(8).evaluate(1, 1) == 105


def test_inversion_formulas():
    """A_n = sum_k C(n,k) y^(n-k) B_k and B_n = sum_k C(n,k) (-y)^(n-k) A_k."""
    for n in range(7):
        assert _binomial_transform(n, q_derangement_poly, 1) == q_eulerian_poly(n)
        assert _binomial_transform(n, q_eulerian_poly, -1) == q_derangement_poly(n)


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
        alternating_31_2_poly(DEFAULT_BOUND + 1)
    with pytest.raises(BudgetExceededError):
        all_permutations(DEFAULT_BOUND + 1)


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "fn",
    [
        q_eulerian_poly,
        q_derangement_poly,
        wex_cr_multiset,
        asc_312_multiset,
        alternating_31_2_poly,
        involution_crossing_poly,
        all_permutations,
    ],
)
def test_negative_size_is_rejected(fn, n):
    with pytest.raises(ValueError):
        fn(n)


def _oracle_key(p):
    return (weak_exceedances(p), crossings(p), ascents(p), pattern_31_2(p), _is_derangement(p))


def _projections(keys):
    """(wex, cr) and (asc, 31-2) counts of oracle keys, over all of them and over derangements."""
    keys = list(keys)
    return tuple(
        Counter(key[slots] for key in keys if not derangements_only or key[4])
        for slots in (slice(0, 2), slice(2, 4))
        for derangements_only in (False, True)
    )


def test_census_matches_per_permutation_statistics():
    for n in range(8):
        wex_cr, wex_cr_der, asc_312, asc_312_der = _projections(map(_oracle_key, all_permutations(n)))
        assert _wex_cr_counts(n) == (wex_cr, wex_cr_der), n
        assert _asc_312_counts(n) == (asc_312, asc_312_der), n


def test_pruned_census_is_the_alternating_restriction():
    # the pruning reads the last value, so only the (placed set, last value) transfer has it
    for n in range(9):
        keys = [_oracle_key(p) for p in all_permutations(n) if is_alternating(p)]
        _, _, asc_312, asc_312_der = _projections(keys)
        assert _pairs(_asc_312_transfer(n, True), _field_width(n)) == (asc_312, asc_312_der), n
        assert _alt_312_counts(n) == Counter(key[3] for key in keys), n


def test_transfers_at_the_default_bound_stay_in_their_fields():
    n = DEFAULT_BOUND
    pairs, pairs_der = _wex_cr_counts(n)
    stats, stats_der = _asc_312_counts(n)
    alternating = _alt_312_counts(n)
    assert sum(pairs.values()) == sum(stats.values()) == math.factorial(n)
    assert sum(pairs_der.values()) == sum(stats_der.values()) == 1334961  # D_10
    assert sum(alternating.values()) == 50521  # E_10
    assert all(0 <= wex <= n and 0 <= cr <= math.comb(n, 2) for wex, cr in pairs)
    assert all(1 <= asc <= n and 0 <= p <= math.comb(n, 3) for asc, p in stats)
    assert all(0 <= p <= math.comb(n, 3) for p in alternating)
    # a carry between fields moves counts from one key to another: the closed forms see it
    assert q_eulerian_poly(n) == q_eulerian_closed(n)
    assert q_derangement_poly(n) == q_derangement_closed(n)
    assert alternating_31_2_poly(n) == q_euler_closed(n)
    assert pairs == stats


def test_each_marginal_fills_once_and_the_pair_polys_read_only_wex_cr():
    marginals = (_wex_cr_counts, _asc_312_counts, _alt_312_counts)
    for cached in marginals:
        cached.cache_clear()
    for n in range(7):
        for _ in range(2):
            assert wex_cr_multiset(n) == asc_312_multiset(n)
            alternating_31_2_poly(n)
    assert [cached.cache_info().misses for cached in marginals] == [7, 7, 7]
    for cached in marginals:
        cached.cache_clear()
    q_eulerian_poly(7)
    q_derangement_poly(7)
    assert [cached.cache_info().misses for cached in marginals] == [1, 0, 0]
