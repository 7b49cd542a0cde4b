"""Tableau enumeration, statistics, signed sums, and the transpose pairing."""

import math
import re
from itertools import product

import pytest

from qeuler.errors import BudgetExceededError, InvalidTransposeError
from qeuler.permutations import q_derangement_poly, q_eulerian_poly
from qeuler.poly import ONE, Poly, Q, Y
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


def test_enumerator_against_direct_validity_oracle():
    for n in range(6):
        for shape in shapes_of_half_perimeter(n):
            fast = {t.filling for t in fillings(shape)}
            cells = sum(shape.rows)
            slow = set()
            for bits in product((0, 1), repeat=cells):
                it = iter(bits)
                filling = tuple(tuple(next(it) for _ in range(r)) for r in shape.rows)
                if Tableau(shape, filling).is_valid():
                    slow.add(filling)
            assert fast == slow


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
