"""The path encoding of permutations and its structural consequences."""

import math
import re
from itertools import permutations as itperms, product

import pytest
from hypothesis import given, strategies as st

import path_oracles as oracle
from qeuler import bijections
from qeuler.bijections import (
    francon_viennot,
    francon_viennot_inverse,
    lift_append_one,
    lifted_histories,
    path_saturated_step_free,
    returns_to_zero_early,
)
from qeuler.errors import BudgetExceededError
from qeuler.paths import (
    UNIT_DOWN,
    WeightedPath,
    _records,
    enumerate_family,
    euler_dyck_sum,
    laguerre_sum,
    path_from_steps,
)
from qeuler.permutations import (
    all_permutations,
    ascents,
    is_alternating,
    parse_permutation,
    pattern_31_2,
)
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
    assert [delta for delta, *_ in ident.records] == [0] * 4
    assert ident.heights() == [0] * 4 and all(ypow == 1 for _, _, ypow, _ in ident.records)
    with pytest.raises(ValueError):
        francon_viennot(())


def test_encoding_refuses_every_small_non_permutation():
    """Every sequence of size <= 4 with entries in -1..n+1 that is not a
    permutation, such as (0,), (0, 1), (2, -1), (1, 1) or (2, 3), is refused
    with parse_permutation's error, never encoded."""
    for n in range(1, 5):
        for t in product(range(-1, n + 2), repeat=n):
            if sorted(t) == list(range(1, n + 1)):
                continue
            message = re.escape(f"not a permutation of 1..{n}: {t}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                francon_viennot(t)
            if n > 1:  # one value with a sign is malformed text before it is a value
                with pytest.raises(ValueError, match=f"^{message}$"):
                    parse_permutation(",".join(map(str, t)))


def test_weight_property_exhaustive():
    for n in range(1, 7):
        for p in itperms(range(1, n + 1)):
            image = francon_viennot(p)
            assert image.weight() == Poly.monomial(1, ascents(p), pattern_31_2(p))


def test_injectivity_and_cardinality():
    for n in range(1, 7):
        images = {francon_viennot(p).records for p in itperms(range(1, n + 1))}
        assert len(images) == math.factorial(n) == laguerre_sum(n).evaluate(1, 1)


def test_decoding_inverts_the_encoding_exhaustive():
    for n in range(1, 9):
        for p in all_permutations(n):
            assert francon_viennot_inverse(francon_viennot(p)) == p


def test_every_laguerre_history_decodes_to_its_own_permutation():
    """The surjective direction object by object: the histories of size n decode
    to n! distinct permutations, each of which encodes back to its history."""
    for n in range(1, 8):
        decoded = set()
        for path in enumerate_family("laguerre", n):
            p = francon_viennot_inverse(path)
            assert sorted(p) == list(range(1, n + 1)) and francon_viennot(p) == path, path
            decoded.add(p)
        assert len(decoded) == math.factorial(n)


def test_decoding_refuses_a_path_of_another_family():
    """(1, 1, 1, 0) (1, 1, 1, 0) (-1, 1, 0, 0) (-1, 1, 0, 0) is also a Laguerre history,
    but as a derangement_motzkin path it is refused by its family."""
    path = next(iter(enumerate_family("derangement_motzkin", 4)))
    path_from_steps("laguerre", path.records)  # its records pass as a Laguerre history
    with pytest.raises(ValueError, match="^not a Laguerre history: a derangement_motzkin path$"):
        francon_viennot_inverse(path)


def test_an_encoding_collision_fails_the_injectivity_check(monkeypatch):
    encode = bijections.francon_viennot
    monkeypatch.setattr(bijections, "francon_viennot",
                        lambda p: encode((1, 2, 3) if tuple(p) == (2, 1, 3) else p))
    result = run_check(Check("bijection", "bijection_size/n=3", "bijection_size", {"n": 3}))
    assert result.status == "FAIL"
    assert "(2, 1, 3)" in result.detail, result.detail


def test_images_share_their_equal_records():
    """Equal step records of two images are one object, so a set of images keeps each once."""
    first = {}
    for p in all_permutations(6):
        for r in francon_viennot(p).records:
            assert first.setdefault(r, r) is r, p
    assert francon_viennot(FIG).records[0] is francon_viennot((2, 1, 3, 4, 5, 6, 7)).records[0]


def test_lift():
    assert lift_append_one((2, 1)) == (3, 2, 1)
    assert lift_append_one((1, 2)) == (2, 3, 1)
    assert lift_append_one((2, 3, 1)) == (3, 4, 2, 1)


@pytest.mark.parametrize("t", [(0,), (2, 3)])
def test_lift_refuses_a_non_permutation(t):
    message = re.escape(f"not a permutation of 1..{len(t)}: {t}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        lift_append_one(t)


def test_lifted_images():
    trimmed = {t: reduced for t, reduced, _ in lifted_histories(1)}
    assert trimmed[(1,)].records == ()  # the lift (2, 1) has the image U D
    trimmed = {t: reduced for t, reduced, _ in lifted_histories(3)}
    # the lift (3, 4, 2, 1) has the image U F F D of weight y^2
    assert [delta for delta, *_ in trimmed[2, 3, 1].records] == [0, 0]
    assert trimmed[2, 3, 1].weight() == Poly.monomial(1, 1, 0)
    assert trimmed[2, 3, 1].family == "large_laguerre"
    trimmed = {t: reduced for t, reduced, _ in lifted_histories(2)}
    assert trimmed[2, 1].weight() == Poly.monomial(1, 0, 0)  # the lift (3, 2, 1) weighs y


def test_saturated_step_criterion():
    assert path_saturated_step_free(francon_viennot((3, 2, 1)))
    assert not path_saturated_step_free(francon_viennot((1, 2, 3)))
    assert path_saturated_step_free(francon_viennot((3, 4, 2, 1)))
    for n in range(1, 7):
        for p in itperms(range(1, n + 1)):
            assert path_saturated_step_free(francon_viennot(p)) == (p[-1] == 1)
            if n > 1 and p[-1] == 1:
                assert not returns_to_zero_early(francon_viennot(p))


@given(st.integers(1, 200).flatmap(lambda n: st.permutations(range(1, n + 1))), st.booleans())
def test_path_criterion_beyond_the_exhaustive_bound(p, one_last):
    """Permutations of size up to 200, half of them moved to end in 1: the
    saturated-step criterion holds, an image of a permutation ending in 1 does
    not touch 0 early, the encoder asserts the weight property and the image
    decodes to the permutation."""
    p = list(p)
    if one_last:
        p.remove(1)
        p.append(1)
    image = francon_viennot(p)
    assert francon_viennot_inverse(image) == tuple(p)
    assert path_saturated_step_free(image) == (p[-1] == 1)
    if p[-1] == 1:
        assert not returns_to_zero_early(image)


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
        for p, reduced, _ in lifted_histories(n):
            assert is_alternating(p) == (not reduced.has_flat())


def test_signed_reduced_path_sums():
    # flats cancel at y = -1; odd sizes leave (-1)^((n-1)/2) times the
    # q-tangent value, even sizes vanish outright
    for n in range(1, 7):
        total = poly_sum(reduced.weight() for _, reduced, _ in lifted_histories(n))
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
        for p, reduced, _ in lifted_histories(n):
            _, want_reduced = oracle.lifted_francon_viennot(p)
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
        assert [t for t, _, _ in walk] == list(all_permutations(n))
        for t, reduced, _ in walk:
            _, want_reduced = oracle.lifted_paths(t)
            assert reduced.records == want_reduced.records, t
            assert reduced.family == "large_laguerre", t


def test_walk_yields_the_interned_weight_of_each_image():
    """The yielded weight is the image's own weight() object, the monomial
    y^(asc-1) q^(31-2) of t's statistics."""
    for n in range(1, 8):
        for t, reduced, weight in lifted_histories(n):
            assert weight is reduced.weight(), t
            assert weight == Poly.monomial(1, ascents(t) - 1, pattern_31_2(t)), t


def test_a_large_laguerre_step_is_a_laguerre_step_one_level_up():
    """Why the walk validates only the trimmed image: each of its steps from h is a
    Laguerre step from h + 1, and the two ends are Laguerre steps from 0 and 1."""
    for h in range(40):
        for delta in (1, -1, 0):
            assert set(_records("large_laguerre", delta, h)) <= set(_records("laguerre", delta, h + 1))
    assert oracle.Y_UP in _records("laguerre", 1, 0)
    assert UNIT_DOWN in _records("laguerre", -1, 1)


def test_walk_images_with_both_ends_are_laguerre_histories():
    for n in range(1, 8):
        for t, reduced, _ in lifted_histories(n):
            full = path_from_steps("laguerre", (oracle.Y_UP, *reduced.records, UNIT_DOWN))
            assert full.exponents() == (1, ascents(t), pattern_31_2(t)), t


def test_interleaved_walks_share_no_state():
    """Two walks advanced alternately, one 37 leaves ahead, yield what two walks in turn yield."""
    first, second = lifted_histories(6), lifted_histories(6)
    got_first = [next(first) for _ in range(37)]
    got_second = []
    for a, b in zip(first, second):
        got_first.append(a)
        got_second.append(b)
    got_second += second
    want = list(lifted_histories(6))
    assert len(want) == math.factorial(6)
    assert got_first == want and got_second == want


@pytest.mark.parametrize("n", [0, -1])
def test_walk_rejects_an_empty_size(n):
    with pytest.raises(ValueError, match="nonempty permutation"):
        next(lifted_histories(n))


def test_walk_refuses_above_the_census_bound():
    with pytest.raises(BudgetExceededError, match="n=11 exceeds bound 10"):
        next(lifted_histories(11))


@pytest.mark.parametrize("suite, func", [("th1", "reduced_path_sum"),
                                         ("bijection", "bijection_size")])
def test_checks_that_walk_s_n_are_refused_above_the_census_bound(suite, func):
    result = run_check(Check(suite, f"{func}/n=11", func, {"n": 11}))
    assert result.status == "REFUSED"
    assert result.detail == "BudgetExceededError: n=11 exceeds bound 10"


def test_encoder_does_not_read_the_walk_s_kinds(monkeypatch):
    """The encoder's cached records are its own: flipping every y mark of _KINDS
    changes no image, before, during or after the patch."""
    perms = list(all_permutations(5))

    def images():
        return [francon_viennot(p).dump() for p in perms]

    before = images()
    kinds = {kind: (delta, 1 - ypow) for kind, (delta, ypow) in bijections._KINDS.items()}
    monkeypatch.setattr(bijections, "_KINDS", kinds)
    bijections._encoder_records.cache_clear()  # a table built under the patch would show
    during = images()
    monkeypatch.undo()
    assert before == during == images()


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
