"""The path encoding of permutations and its structural consequences."""

import math
from itertools import permutations as itperms

import pytest
from hypothesis import given, strategies as st

import path_oracles as oracle
from qeuler import bijections
from qeuler.bijections import (
    francon_viennot,
    lift_append_one,
    lifted_histories,
    path_saturated_step_free,
    returns_to_zero_early,
)
from qeuler.paths import WeightedPath, euler_dyck_sum, laguerre_sum
from qeuler.permutations import all_permutations, ascents, is_alternating, pattern_31_2
from qeuler.poly import Poly, poly_sum
from qeuler.verify import Check, run_check

FIG = (4, 3, 7, 1, 2, 6, 5)


def test_figure_example():
    image = francon_viennot(FIG)
    assert len(image.records) == 7  # one step per value
    assert image.dump() == (
        "U[+1,1,0] F[+1,1,1] U[+1,1,0] D[+1,0,0] U[+1,1,1] D[+1,0,1] D[+1,0,0]"
    )
    assert image.records == (
        (1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 0), (-1, 1, 0, 0),
        (1, 1, 1, 1), (-1, 1, 0, 1), (-1, 1, 0, 0),
    )
    assert image.weight() == Poly.monomial(1, 4, 3)


def test_small_images():
    assert francon_viennot((1,)).dump() == "F[+1,1,0]"
    assert francon_viennot((2, 1)).dump() == "U[+1,1,0] D[+1,0,0]"
    ident = francon_viennot((1, 2, 3, 4))
    assert ident.shape() == "FFFF"
    assert ident.heights() == [0] * 4 and all(ypow == 1 for _, _, ypow, _ in ident.records)
    with pytest.raises(ValueError):
        francon_viennot(())


def test_weight_property_exhaustive():
    for n in range(1, 7):
        for p in itperms(range(1, n + 1)):
            image = francon_viennot(p)
            assert image.weight() == Poly.monomial(1, ascents(p), pattern_31_2(p))


def test_injectivity_and_cardinality():
    for n in range(1, 7):
        images = {francon_viennot(p).records for p in itperms(range(1, n + 1))}
        assert len(images) == math.factorial(n) == laguerre_sum(n).evaluate(1, 1)


def test_lift():
    assert lift_append_one((2, 1)) == (3, 2, 1)
    assert lift_append_one((1, 2)) == (2, 3, 1)
    assert lift_append_one((2, 3, 1)) == (3, 4, 2, 1)


def _lifted(n):
    """t -> (full, trimmed) image of its lift, from the walk."""
    return {t: (full, reduced) for t, _, full, reduced in lifted_histories(n)}


def test_lifted_images():
    full, reduced = _lifted(1)[(1,)]
    assert full.shape() == "UD" and reduced.records == ()
    full, reduced = _lifted(3)[2, 3, 1]
    assert full.shape() == "UFFD" and full.family == "laguerre"
    assert full.weight() == Poly.monomial(1, 2, 0)
    assert reduced.records == full.records[1:-1] and reduced.family == "large_laguerre"
    full, reduced = _lifted(2)[2, 1]
    assert full.weight() == Poly.monomial(1, 1, 0)


def test_saturated_step_criterion():
    assert path_saturated_step_free(francon_viennot((3, 2, 1)))
    assert not path_saturated_step_free(francon_viennot((1, 2, 3)))
    assert path_saturated_step_free(francon_viennot((3, 4, 2, 1)))
    for n in range(1, 7):
        for p in itperms(range(1, n + 1)):
            assert path_saturated_step_free(francon_viennot(p)) == (p[-1] == 1)
            if n > 1 and p[-1] == 1:
                assert not returns_to_zero_early(francon_viennot(p))


def test_encoding_multiplies_no_polynomials(monkeypatch):
    """The weight check of a size-8 encoding adds exponents; it makes no Poly product."""
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    p = (4, 8, 3, 7, 1, 2, 6, 5)
    image = francon_viennot(p)
    assert image.weight() == Poly.monomial(1, ascents(p), pattern_31_2(p))
    assert calls == []


def test_alternating_characterizations():
    for n in (2, 4, 6):
        for p in itperms(range(1, n + 1)):
            assert is_alternating(p) == (not francon_viennot(p).has_flat())
    for n in (1, 3, 5):
        for p, _, full, reduced in lifted_histories(n):
            assert is_alternating(p) == (not reduced.has_flat())
            assert reduced.has_flat() == full.has_flat()


def test_signed_reduced_path_sums():
    # flats cancel at y = -1; odd sizes leave (-1)^((n-1)/2) times the
    # q-tangent value, even sizes vanish outright
    for n in range(1, 7):
        total = poly_sum(reduced.weight() for _, _, _, reduced in lifted_histories(n))
        value = total.substitute_y(-1)
        if n % 2 == 0:
            assert value.is_zero
        else:
            assert value == Poly.monomial((-1) ** ((n - 1) // 2)) * euler_dyck_sum(n // 2, 1)


# -- the record encoding against the object-based oracle ------------------------


def test_records_match_object_oracle_exhaustive():
    for n in range(1, 8):
        for p in itperms(range(1, n + 1)):
            assert francon_viennot(p).records == oracle.as_records(oracle.francon_viennot(p)), p
        for p, _, full, reduced in lifted_histories(n):
            want_full, want_reduced = oracle.lifted_francon_viennot(p)
            assert full.records == oracle.as_records(want_full), p
            assert reduced.records == oracle.as_records(want_reduced), p


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_records_match_object_oracle_on_random_permutations(p):
    p = tuple(p)
    assert francon_viennot(p).records == oracle.as_records(oracle.francon_viennot(p))
    full, reduced = oracle.lifted_paths(p)
    want_full, want_reduced = oracle.lifted_francon_viennot(p)
    assert full.records == oracle.as_records(want_full)
    assert reduced.records == oracle.as_records(want_reduced)
    assert oracle.as_items(reduced) == want_reduced


def test_steps_carry_derived_start_heights():
    image = francon_viennot(FIG)
    assert image.heights() == [0, 1, 1, 2, 1, 2, 1]
    assert oracle.as_items(image) == oracle.francon_viennot(FIG)


@pytest.mark.parametrize(
    "bad_first, bad_last, message",
    [
        ((1, 1, 0, 0), None, "open with an up step of weight y"),
        (None, (-1, 1, 0, 1), "close with a down step of weight 1"),
    ],
)
def test_lift_trim_assertions_fire(monkeypatch, bad_first, bad_last, message):
    """An encoder whose lifted image breaks either end is caught by the oracle's trim checks."""
    encode = bijections.francon_viennot

    def tampered(p):
        path = encode(p)
        records = list(path.records)
        if bad_first is not None:
            records[0] = bad_first
        if bad_last is not None:
            records[-1] = bad_last
        return WeightedPath(tuple(records), path.family)  # tampered: bypasses validation

    monkeypatch.setattr(bijections, "francon_viennot", tampered)
    with pytest.raises(AssertionError, match=message):
        oracle.lifted_paths((2, 3, 1))


# -- the prefix walk against the per-permutation encoders -------------------------


def test_walk_matches_the_per_permutation_encoding():
    for n in range(1, 8):
        walk = list(lifted_histories(n))
        assert [t for t, _, _, _ in walk] == list(all_permutations(n))
        for t, stats, full, reduced in walk:
            want_full, want_reduced = oracle.lifted_paths(t)
            assert full.records == want_full.records and full.family == "laguerre", t
            assert reduced.records == want_reduced.records, t
            assert reduced.family == "large_laguerre", t
            assert stats == (ascents(t), pattern_31_2(t)), t


@pytest.mark.parametrize("n", [0, -1])
def test_walk_rejects_an_empty_size(n):
    with pytest.raises(ValueError, match="nonempty permutation"):
        next(lifted_histories(n))


@pytest.mark.parametrize("kind", list(bijections._KINDS))
def test_walk_assertions_fire_in_the_check(monkeypatch, kind):
    """Flipping the y mark of one step kind makes reduced_path_sum fail by an assertion."""
    kinds = dict(bijections._KINDS)
    delta, ypow = kinds[kind]
    kinds[kind] = (delta, 1 - ypow)
    monkeypatch.setattr(bijections, "_KINDS", kinds)
    result = run_check(Check("th1", "reduced_path_sum/n=4", "reduced_path_sum", {"n": 4}))
    assert result.status == "FAIL"
    assert result.detail.startswith(("AssertionError", "ValueError")), result.detail
