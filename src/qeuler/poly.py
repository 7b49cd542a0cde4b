"""Exact arithmetic on bivariate Laurent polynomials in y and q.

Coefficients are arbitrary-precision Python integers and exponents may be
negative.  Values are immutable after construction and all operations are
pure, so they are safe to share between concurrent enumeration workers.
The canonical form (terms sorted by (y exponent, q exponent), no zero
coefficients, no duplicate keys) is unique: two polynomials are equal iff
their term tuples are identical.

Every sum adds coefficients into one dict and drops the zeros once at the
end; every product, ``*`` included, is a poly_dot, the one place that picks
a product kernel; a one-term factor shifts and scales the other operand in
one comprehension.  The ring's values have one name each: ZERO, ONE, Y, Q
and Poly.monomial(c, y, q).
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate
from typing import Iterable, Iterator, Mapping

from .errors import NotDivisibleError, check_size

_TermKey = tuple[int, int]  # (y exponent, q exponent)


class Poly:
    """Immutable Laurent polynomial in the variables y and q."""

    __slots__ = ("_terms", "_key")

    def __init__(self, terms: Mapping[_TermKey, int] | Iterable[tuple[_TermKey, int]] = ()):
        data: dict[_TermKey, int] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for (ye, qe), c in items:
            if type(c) is not int:
                raise _not_int(c, ye, qe)
            k = (ye, qe)
            data[k] = data.get(k, 0) + c
        self._terms = _nonzero(data)
        self._key: tuple[tuple[int, int, int], ...] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, c: int, yexp: int = 0, qexp: int = 0) -> Poly:
        """c * y**yexp * q**qexp; with the defaults, the constant c."""
        if type(c) is not int:
            raise _not_int(c, yexp, qexp)
        return _from_terms({(yexp, qexp): c} if c else {})

    # -- canonical form ----------------------------------------------------

    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical term list: (yExp, qExp, coef) sorted by (yExp, qExp)."""
        if self._key is None:
            self._key = tuple((ye, qe, c) for (ye, qe), c in sorted(self._terms.items()))
        return self._key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.monomial(int(other))  # a bool compares as its int
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms() == other.terms()

    def __hash__(self) -> int:
        return hash(self.terms())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly.monomial(other)
        if not isinstance(other, Poly):
            return NotImplemented
        data = dict(self._terms)
        _add_terms(data, other._terms)
        return _from_terms(_nonzero(data))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _from_terms({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly.monomial(other)  # a bool is refused, as by + and *
        return self + (-other)

    def __rsub__(self, other: int) -> Poly:
        return -self + other

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly.monomial(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure queries and specializations ------------------------------

    def coefficient_of_y(self, k: int) -> Poly:
        """The q-polynomial multiplying y**k."""
        return Poly({(0, qe): c for (ye, qe), c in self._terms.items() if ye == k})

    def substitute_y(self, sign: int, qexp: int = 0) -> Poly:
        """Replace y by the signed monomial sign*q**qexp (sign is +1 or -1)."""
        if sign not in (1, -1):
            raise ValueError("substitution monomial must carry sign +1 or -1")
        return Poly(
            ((0, qe + ye * qexp), -c if sign == -1 and ye % 2 else c)
            for (ye, qe), c in self._terms.items()
        )

    def evaluate(self, yval: int, qval: int) -> int:
        """Evaluate at integer points; negative exponents require |base| = 1."""
        total = 0
        for (ye, qe), c in self._terms.items():
            v = c
            for base, e in ((yval, ye), (qval, qe)):
                if e < 0:
                    if base not in (1, -1):
                        raise ValueError("negative exponent at non-unit base")
                    e %= 2
                v *= base**e
            total += v
        return total

    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs in any variable."""
        return all(ye >= 0 and qe >= 0 for ye, qe in self._terms)

    # -- serialization and rendering ----------------------------------------

    def to_json_obj(self) -> dict:
        """The wire form {"vars": ["y", "q"], "terms": [[coef, yExp, qExp], ...]}."""
        return {
            "vars": ["y", "q"],
            "terms": [[c, ye, qe] for ye, qe, c in self.terms()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> Poly:
        """Inverse of to_json_obj; any malformed object is a ValueError."""
        if not isinstance(obj, dict) or obj.get("vars") != ["y", "q"]:
            raise ValueError("unexpected variable list in polynomial object")
        terms = obj.get("terms")
        if not isinstance(terms, list):
            raise ValueError("polynomial object needs a list of terms")
        data: dict[_TermKey, int] = {}
        for term in terms:
            if not (
                isinstance(term, list) and len(term) == 3
                and all(type(x) is int for x in term)
            ):
                raise ValueError(f"term {term!r} is not three integers [coef, yExp, qExp]")
            c, ye, qe = term
            if not c:
                raise ValueError(f"term {term!r} has a zero coefficient")
            if (ye, qe) in data:
                raise ValueError(f"duplicate exponents in term {term!r}")
            data[ye, qe] = c
        return cls(data)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for ye, qe, c in self.terms():
            mono = ""
            if ye:
                mono += "y" + (f"^{ye}" if ye != 1 else "")
            if qe:
                mono += "q" + (f"^{qe}" if qe != 1 else "")
            mag = abs(c)
            body = (str(mag) if (mag != 1 or not mono) else "") + mono
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)})"


def _from_terms(data: dict[_TermKey, int]) -> Poly:
    """A Poly owning data, which must already hold no zero coefficient."""
    out = Poly.__new__(Poly)
    out._terms = data
    out._key = None
    return out


def _not_int(c: object, ye: int, qe: int) -> ValueError:
    return ValueError(f"coefficient {c!r} of term y^{ye} q^{qe} is not an int")


def _add_terms(data: dict[_TermKey, int], terms: dict[_TermKey, int]) -> None:
    """Add the terms into data, which may be left holding zero coefficients."""
    if not data:
        data.update(terms)
        return
    get = data.get
    for k, c in terms.items():
        data[k] = get(k, 0) + c


def _nonzero(data: dict[_TermKey, int]) -> dict[_TermKey, int]:
    """data without its zero coefficients."""
    return {k: c for k, c in data.items() if c} if 0 in data.values() else data


# -- products ---------------------------------------------------------------

# A product is packed when both operands have at least _PACK_MIN_TERMS terms
# and each fills at least half of its own dense (y x q) box.  Below that the
# term-pair loop is faster; a sparse operand (a few far-apart terms, such as
# closedforms._wex_factor) would pack mostly zero digits.
_PACK_MIN_TERMS = 8
_PACK_MIN_FILL = 2  # box cells per term, at most

_Box = tuple[int, int, int, int]  # (lowest y, lowest q, y rows, q columns)


def _add_products(data: dict[_TermKey, int], a: dict[_TermKey, int], b: dict[_TermKey, int]) -> None:
    """Add a * b into data, one term pair at a time: the one term-pair loop.

    data may be left holding zero coefficients.  Into an empty dict and
    followed by _nonzero, it is the packed product's test oracle.
    """
    get = data.get
    for (y1, q1), c1 in a.items():
        for (y2, q2), c2 in b.items():
            k = (y1 + y2, q1 + q2)
            data[k] = get(k, 0) + c1 * c2


def _packing(a: dict[_TermKey, int], b: dict[_TermKey, int]) -> tuple[_Box, _Box] | None:
    """The boxes of two operands that the packed product takes, else None."""
    if len(a) < _PACK_MIN_TERMS or len(b) < _PACK_MIN_TERMS:
        return None
    box_a = _dense_box(a)
    box_b = box_a and _dense_box(b)
    return (box_a, box_b) if box_b else None


def _dense_box(terms: dict[_TermKey, int]) -> _Box | None:
    """The bounding box of the terms, or None when they fill less than half of it."""
    ys, qs = zip(*terms)
    y0, q0 = min(ys), min(qs)
    rows, cols = max(ys) - y0 + 1, max(qs) - q0 + 1
    return (y0, q0, rows, cols) if rows * cols <= _PACK_MIN_FILL * len(terms) else None


def _pack(terms: dict[_TermKey, int], box: _Box, width: int, nbytes: int) -> int:
    """The terms as digits of base 2**(8*nbytes) at (y - y0) * width + (q - q0), signed."""
    y0, q0, rows, _ = box
    zero = bytes(nbytes)
    pos = [zero] * (rows * width)
    neg: list[bytes] | None = None
    for (y, q), c in terms.items():
        i = (y - y0) * width + q - q0
        if c > 0:
            pos[i] = c.to_bytes(nbytes, "little")
        else:
            if neg is None:
                neg = [zero] * len(pos)
            neg[i] = (-c).to_bytes(nbytes, "little")
    value = int.from_bytes(b"".join(pos), "little")
    return value - int.from_bytes(b"".join(neg), "little") if neg else value


def _packed_product(
    a: dict[_TermKey, int], box_a: _Box, b: dict[_TermKey, int], box_b: _Box
) -> dict[_TermKey, int]:
    """Kronecker product: one big-int multiplication of the two packed operands.

    Both operands are packed onto one grid whose q-width is the product's, so
    no product digit wraps into the next y row.  A product digit sums at most
    min(len a, len b) pairs, so it fits in the signed digit width chosen here;
    adding 2**(bits - 1) to every digit makes them all nonnegative, and the
    digits are then read off the bytes with no borrow to propagate.
    """
    width = box_a[3] + box_b[3] - 1
    bits = (
        max(map(abs, a.values())).bit_length() + max(map(abs, b.values())).bit_length()
        + min(len(a), len(b)).bit_length() + 1
    )
    nbytes = max(8, -(-bits // 8))  # whole bytes; 8-byte digits unpack in one struct call
    rows = box_a[2] + box_b[2] - 1
    count = rows * width
    half_digit = bytes(nbytes - 1) + b"\x80"
    biased = (
        _pack(a, box_a, width, nbytes) * _pack(b, box_b, width, nbytes)
        + int.from_bytes(half_digit * count, "little")
    )
    raw = biased.to_bytes(count * nbytes, "little")
    if nbytes == 8:
        digits = struct.unpack(f"<{count}Q", raw)
    else:
        view = memoryview(raw)
        digits = [
            int.from_bytes(view[i:i + nbytes], "little") for i in range(0, len(raw), nbytes)
        ]
    half = 1 << (8 * nbytes - 1)
    y0, q0 = box_a[0] + box_b[0], box_a[1] + box_b[1]
    qs = range(q0, q0 + width)
    data: dict[_TermKey, int] = {}
    for r in range(rows):
        y = y0 + r
        row = digits[r * width:(r + 1) * width]
        data.update({(y, q): d - half for q, d in zip(qs, row) if d != half})
    return data


def q_integer(n: int) -> Poly:
    """[n]_q = 1 + q + ... + q**(n-1), the empty sum for n = 0."""
    check_size(n)
    return Poly({(0, i): 1 for i in range(n)})


def binom_safe(n: int, k: int) -> int:
    """Binomial coefficient, 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_div_one_minus_q_pow(p: Poly, m: int) -> Poly:
    """Divide by (1 - q)**m, verifying a zero remainder at every stage.

    A nonzero remainder signals a formula-implementation bug upstream, so it
    raises NotDivisibleError instead of returning a truncated quotient.

    Each y-slice becomes one dense coefficient list from its lowest
    q-exponent; dividing by (1 - q) is then a prefix sum whose last entry is
    the remainder.  The stages run stage-major, every slice in first-seen
    order through a stage before the next one, so the first failing stage
    and slice are the same as for m single divisions.  A slice whose top
    coefficient is c leaves -c on top of its quotient, so no stage creates
    trailing zeros.
    """
    if m < 0:
        raise ValueError("divisor power must be nonnegative")
    if not m or not p._terms:
        return p
    slices: dict[int, dict[int, int]] = {}
    for (ye, qe), c in p._terms.items():
        slices.setdefault(ye, {})[qe] = c
    rows: dict[int, tuple[int, list[int]]] = {}
    for ye, sl in slices.items():
        lo = min(sl)
        row = [0] * (max(sl) - lo + 1)
        for qe, c in sl.items():
            row[qe - lo] = c
        rows[ye] = (lo, row)
    for _ in range(m):
        for ye, (lo, row) in rows.items():
            row = list(accumulate(row))
            run = row.pop()
            if run:
                raise NotDivisibleError(
                    f"remainder {run} in y^{ye} slice when dividing by (1 - q)"
                )
            rows[ye] = (lo, row)
    return _from_terms(
        {(ye, lo + i): c for ye, (lo, row) in rows.items() for i, c in enumerate(row) if c}
    )


def poly_sum(items: Iterator[Poly] | Iterable[Poly]) -> Poly:
    """Sum many polynomials with one shared accumulator dict."""
    data: dict[_TermKey, int] = {}
    for p in items:
        _add_terms(data, p._terms)
    return _from_terms(_nonzero(data))


def poly_dot(pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """The sum of a * b over the pairs, built in one accumulator dict.

    This is the ring's one product dispatcher; ``a * b`` is poly_dot of the
    one pair.  Of its three kernels, a one-term factor c y^a q^b shifts and
    scales the other operand in one dict comprehension, which becomes the
    accumulator while that is still empty (the unit adds the operand as it
    is); a pair past the packing gate is multiplied by the packed product and
    merged; and every other pair runs the term-pair loop straight into the
    accumulator, the shorter operand outside.  A one-term factor into an
    accumulator that already holds terms takes that loop too: it is one pass,
    where a comprehension would need a second to merge.  No product Poly is
    built, no partial sum is copied and no operand's dict is aliased; the
    zeros are dropped once.
    """
    data: dict[_TermKey, int] = {}
    for a, b in pairs:
        x, y = a._terms, b._terms
        if len(x) > len(y):
            x, y = y, x
        if len(x) == 1:
            if x == ONE._terms:
                _add_terms(data, y)
            elif data:
                _add_products(data, x, y)
            else:
                (((dy, dq), c),) = x.items()
                data = {(ye + dy, qe + dq): c * d for (ye, qe), d in y.items()}
        elif boxes := _packing(x, y):
            _add_terms(data, _packed_product(x, boxes[0], y, boxes[1]))
        else:
            _add_products(data, x, y)
    return _from_terms(_nonzero(data))


# The ring's constants and variables.
ZERO = Poly()
ONE = Poly.monomial(1)
Y = Poly.monomial(1, 1)
Q = Poly.monomial(1, 0, 1)
