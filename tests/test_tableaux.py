"""Tableau enumeration, statistics, signed sums, and the transpose pairing."""

import hashlib
import math
import re
from itertools import product

import pytest

from qeuler.errors import BudgetExceededError, InvalidTransposeError
from qeuler.permutations import q_derangement_poly, q_eulerian_poly
from qeuler.poly import ONE, ZERO, Poly, Q, Y
from qeuler.tableaux import (
    Shape,
    Tableau,
    derangement_sum_for_shape,
    derangement_tableau_poly,
    enumerate_derangement_tableaux,
    enumerate_tableaux,
    fillings,
    shape_of_word,
    shapes_of_half_perimeter,
    signed_derangement_tableau_sum,
    tableau_poly,
)


def test_shapes():
    assert list(shapes_of_half_perimeter(0)) == [Shape(())]
    three = set(s.rows for s in shapes_of_half_perimeter(3))
    assert three == {(2,), (1, 1), (1, 0), (0, 0, 0)}
    assert Shape((2, 1)).column_heights() == (2, 1)
    assert Shape((3, 1)).conjugate() == Shape((2, 1, 1))
    for rows in ((1, 2), (1, -1)):
        with pytest.raises(
            ValueError, match=re.escape(f"must be weakly decreasing and nonnegative: {rows}")
        ):
            Shape(rows)


def test_a_copy_of_a_shape_is_checked():
    message = re.escape("must be weakly decreasing and nonnegative: (1, 2)")
    with pytest.raises(ValueError, match=message):
        Shape((2, 1))._replace(rows=(1, 2))
    with pytest.raises(ValueError, match=message):
        Shape._make([(1, 2)])
    assert Shape((2, 1))._replace(rows=(3, 1)) == Shape((3, 1))


def test_tableaux_are_immutable():
    t = Tableau(Shape((1,)), ((1,),))
    for field in ("shape", "filling", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, field, ())
    assert t.shape == Shape((1,)) and t.filling == ((1,),)


def test_counts():
    assert sum(1 for _ in enumerate_tableaux(3)) == 6
    assert sum(1 for _ in enumerate_derangement_tableaux(4)) == 9
    assert list(enumerate_derangement_tableaux(1)) == []
    for n in range(7):
        assert sum(1 for _ in enumerate_tableaux(n)) == math.factorial(n)
    with pytest.raises(BudgetExceededError):
        tableau_poly(8)


def test_stats_examples():
    def stats(t):
        return (t.r, t.c, t.o, t.so)

    assert stats(Tableau(Shape((1,)), ((1,),))) == (1, 1, 1, 0)
    assert stats(Tableau(Shape((0,)), ((),))) == (1, 0, 0, 0)
    column = Tableau(Shape((1, 1)), ((1,), (1,)))
    assert column.is_valid() and stats(column) == (2, 1, 2, 1)


def test_distribution_identities():
    assert tableau_poly(1) == Y
    assert tableau_poly(2) == Y + Y**2
    assert derangement_tableau_poly(3) == Y + Y**2 * Q
    for n in range(7):
        assert tableau_poly(n) == q_eulerian_poly(n)
        assert derangement_tableau_poly(n) == q_derangement_poly(n)


def test_signed_sums():
    assert signed_derangement_tableau_sum(1).is_zero
    assert signed_derangement_tableau_sum(3).is_zero
    assert signed_derangement_tableau_sum(2) == Poly.monomial(-1, 0, -1)
    for n in range(7):
        assert signed_derangement_tableau_sum(n) == derangement_tableau_poly(n).substitute_y(-1, -1)


@pytest.mark.parametrize("n", range(7))
def test_counted_sums_equal_the_per_tableau_sums(n):
    """The sums counted by exponent pair equal one monomial per tableau, added one by one."""
    everything = list(enumerate_tableaux(n))
    deranged = [t for t in everything if t.is_derangement_tableau()]
    assert tableau_poly(n) == sum((Poly.monomial(1, t.r, t.so) for t in everything), ZERO)
    assert derangement_tableau_poly(n) == sum(
        (Poly.monomial(1, t.r, t.so) for t in deranged), ZERO)
    assert signed_derangement_tableau_sum(n) == sum(
        (Poly.monomial((-1) ** t.r, 0, t.o - n) for t in deranged), ZERO)


def test_enumerator_against_direct_validity_oracle():
    """Every shape of half-perimeter < 6, and wide rows, a tall column and
    length-0 rows beyond them, each filling once."""
    shapes = [s for n in range(6) for s in shapes_of_half_perimeter(n)]
    shapes += [Shape(rows) for rows in ((9, 2), (1,) * 9, (4, 4, 0, 0), (0, 0))]
    for shape in shapes:
        fast = [t.filling for t in fillings(shape)]
        cells = sum(shape.rows)
        slow = set()
        for bits in product((0, 1), repeat=cells):
            it = iter(bits)
            filling = tuple(tuple(next(it) for _ in range(r)) for r in shape.rows)
            if Tableau(shape, filling).is_valid():
                slow.add(filling)
        assert len(fast) == len(slow) and set(fast) == slow, shape


# sha256 of the (rows, filling) reprs of enumerate_tableaux(n), one per line,
# recorded when fillings was a recursive walk.  A check that stops at the
# first failing tableau (transpose names it) reads this order.
FILLING_ORDER = {
    0: "56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88",
    1: "1c9574031d8d8bfb946ab1d3742ef114b9a83c4ce128f3f9615f037d037de63d",
    2: "250af2103589ec9f740e6ec1a645e356bf792a19d4dcaf07081dce6e195b907c",
    3: "bae993fa92f19d19b7af4e0a84170ece8be3416bbe58dc81ff64f9bc60108b25",
    4: "65feb7b75d164a538b49a7698a487558c3d0fc3941d04d82feb7b4e8b6f3d188",
    5: "d5031aa9fa2743dc0e1199a4e1614176acf44cdcc7e7b2fac0debd20ae218c0b",
    6: "ee90a635c88eb359eae42487c41801e75c424ee5f44ac3882d20f7977ba68d04",
    7: "9671a5a65b6f73a52255789f7bcfcc51faaf0989f07226524c97ebe727cf2861",
}


# sha256 of the rows of shapes_of_half_perimeter(n) for n <= 12, one shape per
# line, recorded when the shapes came from a recursive walk.
SHAPE_ORDER = "8a3f67ea852fb01a9d35cd491d9c4386a88abbec6606c150437c9d1b308c3222"


def test_shapes_keep_their_recorded_order():
    text = "\n".join(repr(s.rows) for n in range(13) for s in shapes_of_half_perimeter(n))
    assert hashlib.sha256(text.encode()).hexdigest() == SHAPE_ORDER


@pytest.mark.parametrize("n", sorted(FILLING_ORDER))
def test_fillings_keep_their_recorded_order(n):
    tableaux = list(enumerate_tableaux(n))
    assert all(type(t) is Tableau and type(t.filling) is tuple for t in tableaux)
    text = "\n".join(repr((t.shape.rows, t.filling)) for t in tableaux)
    assert hashlib.sha256(text.encode()).hexdigest() == FILLING_ORDER[n]


def test_transpose():
    single = Tableau(Shape((1,)), ((1,),))
    assert single.transpose() == single
    for n in range(6):
        for t in enumerate_derangement_tableaux(n):
            tt = t.transpose()
            assert tt.r == t.c == n - t.r
            assert tt.o == t.o
            assert tt.transpose() == t
    with pytest.raises(InvalidTransposeError):
        Tableau(Shape((0,)), ((),)).transpose()


def test_zero_pattern_condition_is_transpose_symmetric():
    # the 0-pattern condition on square fillings is invariant under flipping
    for size in (2, 3):
        for bits in product((0, 1), repeat=size * size):
            rows = tuple(tuple(bits[i * size + j] for j in range(size)) for i in range(size))
            flipped = tuple(tuple(rows[j][i] for j in range(size)) for i in range(size))
            shape = Shape((size,) * size)
            a = Tableau(shape, rows)
            b = Tableau(shape, flipped)

            def pattern_ok(t):
                for i, row in enumerate(t.filling):
                    for j, v in enumerate(row):
                        if v:
                            continue
                        if any(row[x] for x in range(j)) and any(
                            t.filling[x][j] for x in range(i)
                        ):
                            return False
                return True

            assert pattern_ok(a) == pattern_ok(b)


def test_word_shapes():
    assert shape_of_word("") == Shape(())
    assert shape_of_word("DE") == Shape((1,))
    assert shape_of_word("DDE") == Shape((1, 1))
    assert shape_of_word("DDEE") == Shape((2, 2))
    assert shape_of_word("D") == Shape((0,))
    assert shape_of_word("ED") is None
    assert shape_of_word("E") is None
    with pytest.raises(ValueError):
        shape_of_word("DX")
    assert derangement_sum_for_shape(Shape((2, 2))) == ONE + 3 * Q + Q**2
    assert derangement_sum_for_shape(Shape(())) == ONE
    assert derangement_sum_for_shape(Shape((0,))).is_zero


def test_dump_format():
    t = Tableau(Shape((2, 1)), ((1, 0), (1,)))
    assert t.dump() == "2,1\n10\n1"
    empty_rows = Tableau(Shape((0, 0)), ((), ()))
    assert empty_rows.dump() == "0,0"


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "fn",
    [
        tableau_poly,
        derangement_tableau_poly,
        signed_derangement_tableau_sum,
        lambda n: list(enumerate_tableaux(n)),
        lambda n: list(enumerate_derangement_tableaux(n)),
        lambda n: list(shapes_of_half_perimeter(n)),
    ],
)
def test_negative_size_is_rejected(fn, n):
    with pytest.raises(ValueError, match=rf"^n={n} must be nonnegative$"):
        fn(n)
