"""Exact-arithmetic core: canonical form, ring axioms, division, wire format."""

import json
import random
import types
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from qeuler import poly
from qeuler.closedforms import _wex_factor
from qeuler.errors import NotDivisibleError
from qeuler.poly import (
    ONE,
    Q,
    Y,
    ZERO,
    Poly,
    _dense_box,
    _dict_product,
    _packed_product,
    binom_safe,
    exact_div_one_minus_q_pow,
    one_minus_q,
    poly_dot,
    poly_sum,
    q_integer,
)


def rand_poly(rng, terms=6, span=5):
    return Poly(
        [
            ((rng.randint(-span, span), rng.randint(-span, span)), rng.randint(-9, 9))
            for _ in range(rng.randint(0, terms))
        ]
    )


# Signed bivariate Laurent polynomials; coefficients reach past 64 bits.
laurent_polys = st.lists(
    st.tuples(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), st.integers(-(2**70), 2**70)),
    max_size=6,
).map(Poly)


# Coefficient widths around the 8-byte digit (63, 64, 65 bits) and far past it.
wide_coefficients = st.sampled_from([1, 2, 62, 63, 64, 65, 129, 200]).flatmap(
    lambda bits: st.integers(-(2**bits), 2**bits)
)


@st.composite
def dense_polys(draw):
    """Every cell of a small (y x q) box at negative or positive offsets, zeros allowed."""
    y0, q0 = draw(st.integers(-4, 4)), draw(st.integers(-8, 8))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 14))
    coefs = draw(st.lists(wide_coefficients, min_size=rows * cols, max_size=rows * cols))
    return Poly({(y0 + i // cols, q0 + i % cols): c for i, c in enumerate(coefs)})


sparse_polys = st.lists(
    st.tuples(st.tuples(st.integers(-20, 20), st.integers(-40, 40)), wide_coefficients),
    max_size=10,
).map(Poly)
one_term_polys = st.builds(
    Poly.monomial, wide_coefficients.filter(bool), st.integers(-9, 9), st.integers(-9, 9)
)
product_operands = st.one_of(dense_polys(), sparse_polys, one_term_polys)


def full_box(terms):
    """The bounding box of the terms whatever their density."""
    ys, qs = zip(*terms)
    return min(ys), min(qs), max(ys) - min(ys) + 1, max(qs) - min(qs) + 1


def test_q_integer_values():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(3) == ONE + Q + Q**2
    with pytest.raises(ValueError):
        q_integer(-1)


def test_binom_safe_boundaries():
    assert binom_safe(4, 2) == 6
    assert binom_safe(4, -1) == 0
    assert binom_safe(3, 5) == 0
    assert binom_safe(-2, -3) == 0


def test_product_and_substitution_examples():
    assert (ONE + Y * Q) * (ONE - Y * Q) == ONE - Y**2 * Q**2
    assert (Y + Y**2).substitute_y(-1) == ZERO
    # the size-3 derangement distribution vanishes at y = -1/q
    assert (Y + Y**2 * Q).substitute_y(-1, -1) == ZERO


def dict_div_one_minus_q_pow(p, m):
    """Division by (1 - q)**m as m dict passes, one Poly per stage: the dense kernel's oracle."""
    for _ in range(m):
        if p.is_zero:
            return p
        slices = {}
        for (ye, qe), c in p._terms.items():
            slices.setdefault(ye, {})[qe] = c
        out = {}
        for ye, sl in slices.items():
            lo, hi = min(sl), max(sl)
            run = 0
            for e in range(lo, hi + 1):
                run += sl.get(e, 0)
                if e == hi:
                    if run:
                        raise NotDivisibleError(
                            f"remainder {run} in y^{ye} slice when dividing by (1 - q)"
                        )
                elif run:
                    out[(ye, e)] = run
        p = Poly(out)
    return p


def division_outcome(divide, p, m):
    """The quotient, or the text of the NotDivisibleError raised instead."""
    try:
        return divide(p, m)
    except NotDivisibleError as exc:
        return f"NotDivisibleError: {exc}"


def test_exact_division_examples():
    assert exact_div_one_minus_q_pow(one_minus_q(), 1) == ONE
    assert exact_div_one_minus_q_pow(Poly({(0, 0): 2, (0, 1): -3, (0, 3): 1}), 2) == Poly(
        {(0, 0): 2, (0, 1): 1}
    )
    with pytest.raises(NotDivisibleError):
        exact_div_one_minus_q_pow(ONE + Q, 1)


def test_canonical_form_idempotent_and_duplicate_folding():
    rng = random.Random(7)
    for _ in range(200):
        raw = [
            ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 10))
        ]
        p = Poly(raw)
        again = Poly({(ye, qe): c for ye, qe, c in p.terms()})
        rebuilt = Poly([((ye, qe), c) for ye, qe, c in p.terms()])
        assert p == rebuilt
        assert all(c != 0 for *_, c in p.terms())
        keys = [(ye, qe) for ye, qe, _ in p.terms()]
        assert keys == sorted(keys) and len(keys) == len(set(keys))
        assert again == p


def test_construction_from_any_mapping_or_pairs():
    pairs = [((0, 0), 2), ((1, -1), 3), ((0, 0), -2), ((2, 1), 0), ((1, -1), 1)]
    folded = {(1, -1): 4}
    expected = ((1, -1, 4),)
    assert Poly(pairs).terms() == expected
    assert Poly(folded).terms() == expected
    assert Poly(Counter({(1, -1): 4, (0, 0): 0})).terms() == expected
    assert Poly(types.MappingProxyType(folded)).terms() == expected
    assert Poly(iter(pairs)).terms() == expected
    assert Poly().is_zero and Poly({}).is_zero and Poly(Counter()).is_zero


def test_ring_axioms_on_random_triples():
    rng = random.Random(11)
    for _ in range(150):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero
        assert a * ONE == a and (a * ZERO).is_zero


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero and a - b == a + (-b)
    assert a * ONE == a and a + ZERO == a and (a * ZERO).is_zero


@given(product_operands, product_operands)
def test_packed_product_matches_dict_product(a, b):
    expected = _dict_product(a._terms, b._terms)
    assert (a * b)._terms == expected
    if a and b:  # the packed kernel on any shape, bypassing the density gate
        assert _packed_product(a._terms, full_box(a._terms), b._terms, full_box(b._terms)) == expected
    assert (a * b + a * (-b)).is_zero


def test_packed_product_digit_width_holds_at_the_extremes():
    # Coefficients at the extremes of their bit lengths, all of one sign, so the
    # centre digit sums min(len a, len b) maximal products.  The lengths cover
    # every residue mod 8 around the 8-byte digit, so the rounding to whole
    # bytes leaves no slack in some of them.
    for m in (8, 15, 16):
        for ka in range(56, 73):
            for kb in (ka, ka + 1, ka + 3):
                for ca, cb in ((2**ka - 1, 2**kb - 1), (1 - 2**ka, 2**kb - 1), (-(2**ka), -(2**kb))):
                    a = Poly({(0, i): ca for i in range(m)})
                    b = Poly({(1, i - 3): cb for i in range(m)})
                    assert (a * b)._terms == _dict_product(a._terms, b._terms), (m, ka, kb)


def test_packed_product_drops_digits_that_cancel():
    # [2k]_q [2k]_{-q} = (1 - q^2k) [k]_{q^2}: every odd coefficient cancels.
    for k in (4, 5, 16):
        a = q_integer(2 * k)
        b = Poly({(0, i): (-1) ** i for i in range(2 * k)})
        packed = _packed_product(a._terms, _dense_box(a._terms), b._terms, _dense_box(b._terms))
        assert packed == _dict_product(a._terms, b._terms)
        assert all(qe % 2 == 0 for _, qe in packed) and 0 not in packed.values()


def _count_kernel_calls(monkeypatch):
    calls = Counter()
    for name in ("_packed_product", "_dict_product"):
        def spy(*args, _name=name, _kernel=getattr(poly, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(poly, name, spy)
    return calls


def test_product_gate_takes_the_packed_path_only_on_dense_operands(monkeypatch):
    dense = q_integer(8) ** 6  # 43 terms filling their box
    sparse = _wex_factor(12)  # 13 terms in a 13 x 43 box
    calls = _count_kernel_calls(monkeypatch)
    square = dense * dense
    assert calls == {"_packed_product": 1}
    assert square._terms == _dict_product(dense._terms, dense._terms)
    calls.clear()
    mixed = sparse * dense
    assert calls == {"_dict_product": 1}
    assert mixed == dense * sparse
    calls.clear()
    assert q_integer(7) * dense == dense * q_integer(7)  # 7 terms: below the gate
    assert calls == {"_dict_product": 2}


@given(product_operands)
def test_monomial_factor_shifts_and_scales(p):
    for mono in (ONE, Y, Poly.monomial(1, 0, -3), Poly.monomial(-7, 2, -1), Poly.monomial(2**70, -4, 5)):
        expected = _dict_product(p._terms, mono._terms)
        assert (p * mono)._terms == expected and (mono * p)._terms == expected
    assert p * ONE is p  # a unit factor returns the other operand
    assert ONE * p is p or len(p) == 1  # a one-term p is taken as the factor
    assert (p * -3)._terms == _dict_product(p._terms, {(0, 0): -3})


# Operands for poly_dot: the unit, monomials, sparse operands and dense ones past
# the packing gate (at least _PACK_MIN_TERMS terms).
dot_operands = st.one_of(
    st.just(ONE), st.just(ZERO), one_term_polys, sparse_polys, dense_polys(),
    st.integers(8, 20).map(q_integer),
)


@st.composite
def dot_pairs(draw):
    """A list of pairs; some are followed by their negation, so that sums cancel to zero."""
    pairs = draw(st.lists(st.tuples(dot_operands, dot_operands), max_size=6))
    cancel = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return pairs + [(-a, b) for (a, b), c in zip(pairs, cancel) if c]


@given(dot_pairs())
def test_poly_dot_is_the_sum_of_the_products(pairs):
    assert poly_dot(pairs) == poly_sum(a * b for a, b in pairs)
    assert 0 not in poly_dot(pairs)._terms.values()


def test_poly_dot_cancels_to_zero_and_takes_each_kernel(monkeypatch):
    dense = q_integer(8) ** 6
    sparse = _wex_factor(12)
    calls = _count_kernel_calls(monkeypatch)
    pairs = [(dense, dense), (sparse, dense), (ONE, dense), (-dense, dense), (dense, -sparse)]
    assert poly_dot(pairs) == ONE * dense
    assert calls == {"_packed_product": 2}  # the other pairs run the term-pair loop in place
    assert poly_dot([]) == ZERO and poly_dot([(Y, Q), (-Q, Y)]) == ZERO


@pytest.mark.parametrize("build", [
    lambda: Poly({(0, 0): 1.0}),
    lambda: Poly([((1, 2), 3), ((1, 2), 0.5)]),
    lambda: Poly.monomial(2.5),
    lambda: Poly.monomial(True, 1, 2),
    lambda: Poly.const(1.0),
], ids=["dict", "pairs", "monomial", "bool", "const"])
def test_a_coefficient_that_is_not_an_int_is_refused(build):
    with pytest.raises(ValueError, match=r"coefficient .* of term y\^-?\d+ q\^-?\d+ is not an int"):
        build()


@given(laurent_polys, st.integers(0, 8))
def test_exact_division_roundtrip_property(p, m):
    assert exact_div_one_minus_q_pow(p * one_minus_q() ** m, m) == p


@given(laurent_polys, st.integers(0, 8), st.just(ZERO) | laurent_polys)
def test_dense_division_matches_dict_oracle(p, m, r):
    n = p * one_minus_q() ** m + r
    assert division_outcome(exact_div_one_minus_q_pow, n, m) == division_outcome(
        dict_div_one_minus_q_pow, n, m
    )


def test_division_error_names_the_first_failing_stage_then_slice():
    # Slices are taken in first-seen order (the dict order of the terms).
    # y^1 comes first and fails at stage 3 (remainder 5); y^2 fails at stage 2
    # (remainder 3), so from m = 2 on the error names y^2.
    first = Y * one_minus_q() ** 2 * (ONE + 4 * Q)
    second = Y**2 * one_minus_q() * (2 * ONE + Q)
    p = Poly(first._terms | second._terms)
    for divide in (exact_div_one_minus_q_pow, dict_div_one_minus_q_pow):
        assert divide(p, 1) == Y * one_minus_q() * (ONE + 4 * Q) + Y**2 * (2 * ONE + Q)
        for m in (2, 3, 5):
            with pytest.raises(NotDivisibleError) as exc:
                divide(p, m)
            assert str(exc.value) == "remainder 3 in y^2 slice when dividing by (1 - q)"
    # Both slices fail at stage 2: the first-seen one, y^2, is named.
    both = Poly(second._terms | (Y * one_minus_q() * (ONE + 4 * Q))._terms)
    for divide in (exact_div_one_minus_q_pow, dict_div_one_minus_q_pow):
        with pytest.raises(NotDivisibleError) as exc:
            divide(both, 2)
        assert str(exc.value) == "remainder 3 in y^2 slice when dividing by (1 - q)"


def test_division_by_the_zeroth_power_and_of_zero():
    not_divisible = ONE + Q + Poly.monomial(1, -1, -3)
    assert exact_div_one_minus_q_pow(not_divisible, 0) == not_divisible
    for m in range(12):
        assert exact_div_one_minus_q_pow(ZERO, m) == ZERO
    with pytest.raises(ValueError):
        exact_div_one_minus_q_pow(ONE, -1)


def test_exact_division_roundtrip():
    rng = random.Random(13)
    for _ in range(80):
        p = rand_poly(rng)
        m = rng.randint(0, 8)
        assert exact_div_one_minus_q_pow(p * one_minus_q() ** m, m) == p


def test_substitution_is_a_homomorphism():
    rng = random.Random(17)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        sign, shift = rng.choice([1, -1]), rng.randint(-2, 2)
        assert (a + b).substitute_y(sign, shift) == a.substitute_y(sign, shift) + b.substitute_y(sign, shift)
        assert (a * b).substitute_y(sign, shift) == a.substitute_y(sign, shift) * b.substitute_y(sign, shift)


def test_coefficient_extraction():
    p = Y + 3 * Y**2 + Y**2 * Q + Y**3
    assert p.coefficient_of_y(2) == Poly.const(3) + Q
    assert p.coefficient_of_y(0).is_zero


def test_wire_format_roundtrip_and_order():
    p = Poly({(1, 0): 1, (0, 2): -3, (0, -1): 5})
    obj = p.to_json_obj()
    assert obj["vars"] == ["y", "q"]
    assert obj["terms"] == [[5, 0, -1], [-3, 0, 2], [1, 1, 0]]
    assert Poly.from_json_obj(json.loads(json.dumps(obj))) == p
    assert Poly.from_json_obj({"vars": ["y", "q"], "terms": []}) == ZERO
    malformed = [
        {"vars": ["y", "q"], "terms": [[1, 0, 0], [2, 0, 0]]},  # duplicate (yExp, qExp)
        {"vars": ["y", "q"], "terms": [[1, 0.5, 0]]},  # float exponent
        {"vars": ["y", "q"], "terms": [[1.0, 0, 0]]},  # float coefficient
        {"vars": ["y", "q"], "terms": [[True, 0, 0]]},  # bool coefficient
        {"vars": ["y", "q"], "terms": [[1, False, 0]]},  # bool exponent
        {"vars": ["y", "q"], "terms": [["1", 0, 0]]},  # string coefficient
        {"vars": ["y", "q"], "terms": [[1, 0]]},  # two fields
        {"vars": ["y", "q"], "terms": [[1, 0, 0, 0]]},  # four fields
        {"vars": ["y", "q"], "terms": [3]},  # term not a list
        {"vars": ["y", "q"], "terms": [[0, 1, 1]]},  # zero coefficient
        {"vars": ["y", "q"]},  # missing terms
        {"vars": ["y", "q"], "terms": {"0": 1}},  # terms not a list
        {"vars": ["q", "y"], "terms": []},  # wrong variables
        [["y", "q"], []],  # not an object
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            Poly.from_json_obj(bad)


@given(laurent_polys)
def test_wire_format_roundtrip_property(p):
    assert Poly.from_json_obj(json.loads(json.dumps(p.to_json_obj()))) == p


def test_rendering():
    assert str(ZERO) == "0"
    assert str(Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1})) == "2 + 5q + 5q^2 + 3q^3 + q^4"
    assert str(Y + Y**2) == "y + y^2"
    assert str(ONE - Y**2 * Q**2) == "1 - y^2q^2"
    assert str(Poly.monomial(-1, 0, -1)) == "-q^-1"


def test_evaluate():
    p = Y**2 * Q + 2 * Y
    assert p.evaluate(1, 1) == 3
    assert Poly.monomial(1, 0, -1).evaluate(1, 1) == 1
    with pytest.raises(ValueError):
        Poly.monomial(1, 0, -1).evaluate(1, 2)
