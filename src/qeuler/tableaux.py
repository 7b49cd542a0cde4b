"""Permutation tableaux: enumeration, statistics, and the transpose pairing.

A tableau is a 0/1 filling of a Young diagram (empty rows allowed, English
notation) in which every column holds at least one 1 and every 0 has only
0s to its left or only 0s above it.  A zero-row is a row containing no 1;
derangement tableaux are the tableaux without zero-rows.

Filling enumeration walks columns left to right and prunes with a per-row
"everything to the left is 0" flag, so only valid fillings are ever built.
Enumerations refuse a negative size (ValueError) and one above TABLEAU_BOUND
(BudgetExceededError).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple

from .errors import InvalidTransposeError, check_size
from .paths import CheckedTuple
from .poly import Poly

TABLEAU_BOUND = 7


class Shape(CheckedTuple, NamedTuple("Shape", [("rows", tuple[int, ...])])):
    """Weakly decreasing row lengths; columns = first row length."""

    __slots__ = ()

    def __new__(cls, rows: tuple[int, ...]) -> Shape:
        if any(a < b for a, b in zip(rows, rows[1:])) or any(r < 0 for r in rows):
            raise ValueError(f"row lengths must be weakly decreasing and nonnegative: {rows}")
        return tuple.__new__(cls, (rows,))

    @property
    def cols(self) -> int:
        return self.rows[0] if self.rows else 0

    def column_heights(self) -> tuple[int, ...]:
        return tuple(sum(1 for r in self.rows if r >= j + 1) for j in range(self.cols))

    def conjugate(self) -> Shape:
        return Shape(self.column_heights())


def shapes_of_half_perimeter(n: int) -> Iterator[Shape]:
    """All shapes with rows + columns = n, empty rows allowed."""
    check_size(n)
    if n == 0:
        yield Shape(())
        return
    for m in range(1, n + 1):
        c = n - m
        if c == 0:
            yield Shape((0,) * m)
            continue
        def rec(prefix: list[int], remaining: int, cap: int) -> Iterator[Shape]:
            if remaining == 0:
                yield Shape((c, *prefix))
                return
            for r in range(min(cap, c) + 1):
                prefix.append(r)
                yield from rec(prefix, remaining - 1, r)
                prefix.pop()
        yield from rec([], m - 1, c)


class Tableau(NamedTuple):
    shape: Shape
    filling: tuple[tuple[int, ...], ...]  # row i holds shape.rows[i] entries

    @property
    def r(self) -> int:
        return len(self.shape.rows)

    @property
    def c(self) -> int:
        return self.shape.cols

    @property
    def o(self) -> int:
        return sum(sum(row) for row in self.filling)

    @property
    def so(self) -> int:
        return self.o - self.c

    def zero_rows(self) -> int:
        """Rows containing no 1 (length-0 rows always count)."""
        return sum(1 for row in self.filling if not any(row))

    def is_derangement_tableau(self) -> bool:
        return self.zero_rows() == 0

    def is_valid(self) -> bool:
        """Direct check of the filling conditions, used as the oracle."""
        if tuple(len(row) for row in self.filling) != self.shape.rows:
            return False
        if any(v not in (0, 1) for row in self.filling for v in row):
            return False
        for j in range(self.c):
            col = [row[j] for row in self.filling if len(row) > j]
            if not any(col):
                return False
        for i, row in enumerate(self.filling):
            for j, v in enumerate(row):
                if v:
                    continue
                left_zero = all(row[t] == 0 for t in range(j))
                above_zero = all(
                    self.filling[t][j] == 0 for t in range(i) if len(self.filling[t]) > j
                )
                if not (left_zero or above_zero):
                    return False
        return True

    def transpose(self) -> Tableau:
        """Flip along the diagonal; closed on derangement tableaux.

        Preserves the number of 1s and swaps rows with columns; the filling
        condition is symmetric under the flip.  Raises if the result is not
        again a valid derangement tableau.
        """
        if not self.is_derangement_tableau():
            raise InvalidTransposeError("transpose is defined on derangement tableaux")
        conj = self.shape.conjugate()
        flipped = tuple(
            tuple(self.filling[i][j] for i in range(conj.rows[j]))
            for j in range(len(conj.rows))
        )
        out = Tableau(conj, flipped)
        if not (out.is_valid() and out.is_derangement_tableau()):
            raise InvalidTransposeError(f"transpose left the family: {self.dump()}")
        return out

    def dump(self) -> str:
        # length-0 rows are carried by the header, so only filled rows print
        header = ",".join(str(r) for r in self.shape.rows)
        body = "\n".join("".join(str(v) for v in row) for row in self.filling if row)
        return header + ("\n" + body if body else "")


def fillings(shape: Shape) -> Iterator[Tableau]:
    """All valid fillings of the shape, built column by column.

    Within a column, a 0 above the first 1 is always admissible (everything
    above it is 0); below the first 1 a 0 is admissible only while the whole
    row to its left is 0.  The first-1 position therefore drives the scan.
    """
    m = len(shape.rows)
    heights = shape.column_heights()

    def rec(col: int, left_zero: tuple[bool, ...], cols_acc: list[tuple[int, ...]]) -> Iterator[Tableau]:
        if col == len(heights):
            filling = tuple(
                tuple(cols_acc[j][i] for j in range(shape.rows[i])) for i in range(m)
            )
            yield Tableau(shape, filling)
            return
        h = heights[col]
        for t in range(h):  # row index of the topmost 1 in this column
            free = [i for i in range(t + 1, h) if left_zero[i]]
            for bits in product((0, 1), repeat=len(free)):
                vec = [0] * h
                vec[t] = 1
                for i in range(t + 1, h):
                    vec[i] = 1
                for i, b in zip(free, bits):
                    vec[i] = b
                nlz = tuple(
                    left_zero[i] and (i >= h or vec[i] == 0) for i in range(m)
                )
                cols_acc.append(tuple(vec))
                yield from rec(col + 1, nlz, cols_acc)
                cols_acc.pop()

    yield from rec(0, (True,) * m, [])


def enumerate_tableaux(n: int) -> Iterator[Tableau]:
    check_size(n, TABLEAU_BOUND)
    for shape in shapes_of_half_perimeter(n):
        yield from fillings(shape)


def enumerate_derangement_tableaux(n: int) -> Iterator[Tableau]:
    for t in enumerate_tableaux(n):
        if t.is_derangement_tableau():
            yield t


@lru_cache(maxsize=None)
def _tableau_polys(n: int) -> tuple[Poly, Poly, Poly]:
    pt: list[tuple[tuple[int, int], int]] = []
    dt: list[tuple[tuple[int, int], int]] = []
    signed: list[tuple[tuple[int, int], int]] = []
    for shape in shapes_of_half_perimeter(n):
        for t in fillings(shape):
            pt.append(((t.r, t.so), 1))
            if t.is_derangement_tableau():
                dt.append(((t.r, t.so), 1))
                signed.append(((0, t.o - n), (-1) ** t.r))
    return Poly(pt), Poly(dt), Poly(signed)


def tableau_poly(n: int) -> Poly:
    """sum of y^rows q^superfluous over all tableaux of half-perimeter n."""
    check_size(n, TABLEAU_BOUND)
    return _tableau_polys(n)[0]


def derangement_tableau_poly(n: int) -> Poly:
    """The same sum restricted to derangement tableaux."""
    check_size(n, TABLEAU_BOUND)
    return _tableau_polys(n)[1]


def signed_derangement_tableau_sum(n: int) -> Poly:
    """sum of (-1)^rows q^(ones - n) over derangement tableaux (Laurent)."""
    check_size(n, TABLEAU_BOUND)
    return _tableau_polys(n)[2]


# -- word-indexed shapes (operator-word oracle) -------------------------------


def shape_of_word(word: str) -> Shape | None:
    """Shape traced by a D/E word along the south-east boundary, read from
    the top-right corner: each D closes a row, each E narrows by one column.

    Rows (top to bottom) sit at the D letters; each row's length counts the
    E letters after it.  An E before the first D would open a height-0
    column, which no tableau can fill: None marks that case.
    """
    if any(ch not in "DE" for ch in word):
        raise ValueError(f"word must use letters D and E only: {word!r}")
    first_d = word.find("D")
    if "E" in word[: first_d + 1 if first_d >= 0 else len(word)]:
        return None
    rows = []
    e_remaining = word.count("E")
    for ch in word:
        if ch == "D":
            rows.append(e_remaining)
        else:
            e_remaining -= 1
    return Shape(tuple(rows))


def derangement_sum_for_shape(shape: Shape) -> Poly:
    """sum of q^superfluous over derangement tableaux of one fixed shape."""
    return Poly(
        [((0, t.so), 1) for t in fillings(shape) if t.is_derangement_tableau()]
    )
