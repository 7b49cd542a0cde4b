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

from collections import Counter
from functools import cache, lru_cache
from itertools import combinations_with_replacement, product
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
    """All shapes with rows + columns = n, empty rows allowed, widest first, then lexicographic."""
    check_size(n)
    if n == 0:
        yield Shape(())
    for c in range(n - 1, -1, -1):  # c cells in the first row, n - c rows
        for rest in reversed(list(combinations_with_replacement(range(c, -1, -1), n - 1 - c))):
            yield Shape((c, *rest))


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


@cache
def _column_choices(h: int, left_zero: int) -> tuple[tuple[int, int], ...]:
    """Every admissible filling of a column of height h, in scan order, as
    (column, left_zero after it): bit i of a column is its entry in row i, and
    bit i of left_zero is set while row i < h holds only 0s so far.

    Within a column, a 0 above the first 1 is always admissible (everything
    above it is 0); below the first 1 a 0 is admissible only while the whole
    row to its left is 0.  The scan takes the first 1 at rows 0, 1, ..., h - 1,
    and for each the free rows below it count in binary, the topmost slowest.
    """
    out = []
    for t in range(h):  # row index of the topmost 1 in this column
        free = [i for i in range(t + 1, h) if left_zero >> i & 1]
        forced = 1 << t | sum(1 << i for i in range(t + 1, h) if not left_zero >> i & 1)
        for bits in product((0, 1), repeat=len(free)):
            column = forced | sum(1 << i for i, b in zip(free, bits) if b)
            out.append((column, left_zero & ~column))
    return tuple(out)


@cache
def _spread(stride: int, h: int) -> tuple[int, ...]:
    """Each column of height h, indexed by its bits, with bit i moved to bit i * stride.

    Its 2**h entries are one more than the fillings of a first column of h rows.
    """
    return tuple(sum(1 << (i * stride) for i in range(h) if v >> i & 1) for v in range(1 << h))


class _Rows(dict):
    """Row tuples, filled on first use: key (1 << length) | bits gives the
    row of that length whose entry j is bit j of bits."""

    def __missing__(self, key: int) -> tuple[int, ...]:
        row = self[key] = tuple(key >> j & 1 for j in range(key.bit_length() - 1))
        return row


_ROWS = _Rows()


def fillings(shape: Shape) -> Iterator[Tableau]:
    """All valid fillings of the shape, built column by column (_column_choices).

    The walk runs in this one generator frame with an explicit stack, one
    iterator of column choices per column placed; the last column yields
    its tableaux inline.  The columns placed so far are one integer, row i
    at bits i * stride with its length marked by one bit above its entries,
    so each row of a filling is one lookup in _ROWS.  Only rows below a
    column's height can change, and later columns are no taller, so each
    choice is looked up by the column's height and the rows below it.
    """
    rows = shape.rows
    heights = shape.column_heights()
    width = len(heights)
    if not width:
        yield tuple.__new__(Tableau, (shape, ((),) * len(rows)))
        return
    stride = width + 1
    spread = _spread(stride, heights[0])
    field = (1 << stride) - 1
    shifts = [i * stride for i in range(len(rows))]
    lows = [(1 << h) - 1 for h in heights]
    last = width - 1
    # grids[j]: the columns < j and the row-length marks; its[j]: the choices column j has left
    grids = [sum(1 << (i * stride + r) for i, r in enumerate(rows))] + [0] * last
    its = [iter(_column_choices(heights[0], lows[0]))] + [None] * last
    j = 0
    while j >= 0:
        if j < last:
            choice = next(its[j], None)
            if choice is None:  # column j has placed all its choices
                j -= 1
                continue
            column, left_zero = choice
            grids[j + 1] = grids[j] | spread[column] << j
            j += 1
            its[j] = iter(_column_choices(heights[j], left_zero & lows[j]))
            continue
        placed = grids[last]
        for column, _ in its[last]:
            grid = placed | spread[column] << last
            filling = tuple([_ROWS[grid >> s & field] for s in shifts])
            yield tuple.__new__(Tableau, (shape, filling))  # Tableau(shape, filling), built in C
        j -= 1


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
    """The three sums, counted by exponent pair as the tableaux are enumerated."""
    pt: Counter[tuple[int, int]] = Counter()
    dt: Counter[tuple[int, int]] = Counter()
    signed: Counter[tuple[int, int]] = Counter()
    for t in enumerate_tableaux(n):
        key = (t.r, t.so)
        pt[key] += 1
        if t.is_derangement_tableau():
            dt[key] += 1
            signed[0, t.o - n] += (-1) ** t.r
    return Poly(pt), Poly(dt), Poly(signed)


def tableau_poly(n: int) -> Poly:
    """sum of y^rows q^superfluous over all tableaux of half-perimeter n."""
    return _tableau_polys(n)[0]


def derangement_tableau_poly(n: int) -> Poly:
    """The same sum restricted to derangement tableaux."""
    return _tableau_polys(n)[1]


def signed_derangement_tableau_sum(n: int) -> Poly:
    """sum of (-1)^rows q^(ones - n) over derangement tableaux (Laurent)."""
    return _tableau_polys(n)[2]


# -- word-indexed shapes (operator-word oracle) -------------------------------


def shape_of_word(word: str) -> Shape | None:
    """Shape traced by a D/E word along the south-east boundary, read from
    the top-right corner: each D closes a row, each E narrows by one column.

    Rows (top to bottom) sit at the D letters; each row's length counts the
    E letters after it.  A word that starts with E would open a height-0
    column, which no tableau can fill: None marks that case.
    """
    if any(ch not in "DE" for ch in word):
        raise ValueError(f"word must use letters D and E only: {word!r}")
    if word.startswith("E"):
        return None
    return Shape(tuple(word.count("E", i) for i, ch in enumerate(word) if ch == "D"))


def derangement_sum_for_shape(shape: Shape) -> Poly:
    """sum of q^superfluous over derangement tableaux of one fixed shape."""
    return Poly(
        [((0, t.so), 1) for t in fillings(shape) if t.is_derangement_tableau()]
    )
