"""Normal-ordering engine: rewriting, boundaries, confluence, tableau oracle."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qeuler.ansatz import (
    HAT,
    MAIN,
    PRIMED,
    NormalForm,
    Relation,
    boundary_eval,
    left_mul_d,
    nf_mul,
    normal_power,
    q_derangement_ansatz,
    q_eulerian_ansatz,
    weighted_involution_ansatz,
    word_boundary_value,
    word_normal_form,
)
from qeuler.closedforms import q_secant_closed, weighted_involution_sum
from qeuler.errors import BudgetExceededError, RelationMismatchError
from qeuler.permutations import q_derangement_poly, q_eulerian_poly
from qeuler.poly import ONE, Q, Y, ZERO, Poly, binom_safe, poly_sum
from qeuler.tableaux import derangement_sum_for_shape, shape_of_word


def test_normal_power_examples():
    nf = normal_power(MAIN, 1, Y, ONE)
    assert dict(nf.table) == {(0, 1): Y, (1, 0): ONE}
    nf2 = normal_power(MAIN, 2, Y, ONE)
    assert dict(nf2.table)[(0, 0)] == Y
    hat2 = normal_power(HAT, 2, -ONE, ONE)
    assert boundary_eval(HAT, hat2) == Poly({(0, 0): 2, (0, 1): -1, (0, -1): -1})


def test_boundary_examples():
    assert q_derangement_ansatz(2) == Y
    assert q_eulerian_ansatz(1) == Y
    assert weighted_involution_ansatz(1).is_zero


def test_relation_mismatch():
    nf = normal_power(MAIN, 2, Y, ONE)
    with pytest.raises(RelationMismatchError):
        boundary_eval(PRIMED, nf)
    with pytest.raises(RelationMismatchError):
        nf_mul(nf, NormalForm.identity(HAT))


def test_relations_compare_by_identity():
    twin = Relation(*(getattr(MAIN, f) for f in ("name", "c_ed", "c_id", "c_e", "c_d", "boundary")))
    assert twin != MAIN and not twin == MAIN and MAIN == MAIN and not MAIN != MAIN
    assert len({MAIN, twin}) == 2


def test_normal_forms_are_immutable():
    nf = normal_power(MAIN, 2, Y, ONE)
    for field in ("relation", "table", "extra"):
        with pytest.raises(AttributeError):
            setattr(nf, field, ())
    assert nf.relation is MAIN


def test_budget():
    with pytest.raises(BudgetExceededError):
        q_derangement_ansatz(15)


def test_matches_brute_force():
    for n in range(8):
        assert q_derangement_ansatz(n) == q_derangement_poly(n)
        assert q_eulerian_ansatz(n) == q_eulerian_poly(n)
        assert weighted_involution_ansatz(n) == weighted_involution_sum(n)


def test_generator_shift_identity():
    # y D + E under MAIN equals y(D' - I) + E' under PRIMED after collapse
    for n in range(7):
        shifted = boundary_eval(PRIMED, normal_power(PRIMED, n, Y, ONE, -Y))
        assert shifted == q_derangement_ansatz(n)


def test_binomial_inversion_through_operators():
    for n in range(7):
        inv = poly_sum(
            Poly.monomial((-1) ** (n - k) * binom_safe(n, k), n - k, 0) * q_eulerian_ansatz(k)
            for k in range(n + 1)
        )
        assert inv == q_derangement_ansatz(n)


def test_secant_relation_through_operators():
    for n in range(6):
        lhs = q_secant_closed(n) * (ONE - Q) ** (2 * n)
        rhs = Poly.monomial((-1) ** n, 0, n) * weighted_involution_ansatz(2 * n)
        assert lhs == rhs


def test_confluence_random_words():
    rng = random.Random(0)
    for rel in (MAIN, PRIMED, HAT):
        for _ in range(80):
            length = rng.randint(0, 8)
            word = "".join(rng.choice("DE") for _ in range(length))
            cut = rng.randint(0, length)
            whole = word_normal_form(rel, word)
            split = nf_mul(word_normal_form(rel, word[:cut]), word_normal_form(rel, word[cut:]))
            assert whole == split


words = st.text(alphabet="DE", max_size=6)


@given(st.sampled_from((MAIN, PRIMED, HAT)), words, words, words)
def test_nf_mul_is_associative(rel, u, v, w):
    a, b, c = (word_normal_form(rel, x) for x in (u, v, w))
    assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))


def _nf_mul_oracle(x, y):
    """The product as first written: D^j y is rebuilt from y for every left term E^i D^j."""
    acc = {}
    for (i, j), c in x.table:
        part = y
        for _ in range(j):
            part = left_mul_d(part)
        for (a, b), t in part.table:
            acc[a + i, b] = acc.get((a + i, b), ZERO) + c * t
    return NormalForm.from_dict(x.relation, acc)


def test_nf_mul_matches_the_rebuilding_oracle():
    rng = random.Random(20261018)
    for rel in (MAIN, PRIMED, HAT):
        for _ in range(20):
            forms = []
            for _ in range(3):
                if rng.random() < 0.7:
                    word = "".join(rng.choice("DE") for _ in range(rng.randint(0, 6)))
                    forms.append(word_normal_form(rel, word))
                else:
                    forms.append(normal_power(rel, rng.randint(0, 2), Y, Q + ONE, Poly.monomial(-2)))
            a, b, c = forms
            assert nf_mul(a, b) == _nf_mul_oracle(a, b)
            assert nf_mul(nf_mul(a, b), c) == _nf_mul_oracle(_nf_mul_oracle(a, b), c)
            assert nf_mul(a, nf_mul(b, c)) == _nf_mul_oracle(a, _nf_mul_oracle(b, c))


def test_word_oracle_against_tableaux():
    for length in range(7):
        for letters in product("DE", repeat=length):
            word = "".join(letters)
            shape = shape_of_word(word)
            expected = ZERO if shape is None else derangement_sum_for_shape(shape)
            assert word_boundary_value(MAIN, word) == expected


def test_edge_words():
    assert word_boundary_value(MAIN, "") == ONE
    assert word_boundary_value(MAIN, "E").is_zero
    assert word_boundary_value(MAIN, "D").is_zero
    assert word_boundary_value(MAIN, "DE") == ONE
    assert word_boundary_value(MAIN, "DDE") == Q
    with pytest.raises(ValueError):
        word_normal_form(MAIN, "DX")


def test_normal_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match=r"^n=-1 must be nonnegative$"):
        normal_power(MAIN, -1, ONE, ONE)
