"""Normal ordering of words in two generators under a q-commutation rule.

A relation reduces the product D*E to a combination of E*D, the identity,
E, and D with Laurent-polynomial coefficients in q.  Expressions are kept
in normal form (all E powers left of all D powers) as a finite table
(i, j) -> coefficient of E^i D^j; words are never expanded into 2^n
summands, each left multiplication re-normalizes the table directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import RelationMismatchError, check_size
from .poly import ONE, Poly, poly_sum

ANSATZ_BOUND = 14

_Q = Poly.var_q()


class Relation(NamedTuple):
    """D*E = c_ed E*D + c_id I + c_e E + c_d D, plus a boundary functional."""

    name: str
    c_ed: Poly
    c_id: Poly
    c_e: Poly
    c_d: Poly
    boundary: str  # "constant", "row", or "total"

    # The relations are module singletons, so identity equality and hashing
    # suffice and keep the _d_times_epow cache key from hashing four Poly fields.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


# DE - qED = I + qE + D; <W|E = 0, D|V> = 0: only the constant term survives.
MAIN = Relation("main", _Q, ONE, _Q, ONE, boundary="constant")
# D'E' - qE'D' = D' + E'; <W|E' = 0, D'|V> = |V>: row i = 0 survives.
PRIMED = Relation("primed", _Q, Poly.zero(), ONE, ONE, boundary="row")
# Dh*Eh - q Eh*Dh = (1-q)/q; <W|Eh = <W|, Dh|V> = |V>: everything survives.
HAT = Relation("hat", _Q, Poly.monomial(1, 0, -1) - ONE, Poly.zero(), Poly.zero(), boundary="total")

_Table = dict[tuple[int, int], Poly]


class NormalForm(NamedTuple):
    """A finite combination sum c_ij E^i D^j under a fixed relation."""

    relation: Relation
    table: tuple[tuple[tuple[int, int], Poly], ...]

    @classmethod
    def from_dict(cls, relation: Relation, data: _Table) -> NormalForm:
        items = tuple(sorted((k, v) for k, v in data.items() if not v.is_zero))
        return cls(relation, items)

    @classmethod
    def identity(cls, relation: Relation) -> NormalForm:
        return cls.from_dict(relation, {(0, 0): ONE})


def _accumulate(acc: _Table, key: tuple[int, int], value: Poly) -> None:
    cur = acc.get(key)
    new = value if cur is None else cur + value
    if new.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = new


@lru_cache(maxsize=None)
def _d_times_epow(relation: Relation, i: int) -> tuple[tuple[tuple[int, int], Poly], ...]:
    """Normal form of D * E^i, by one application of the relation at a time."""
    if i == 0:
        return (((0, 1), ONE),)
    prev = _d_times_epow(relation, i - 1)
    acc: _Table = {}
    for (a, b), c in prev:
        _accumulate(acc, (a + 1, b), relation.c_ed * c)  # E * (D E^(i-1)) part
        _accumulate(acc, (a, b), relation.c_d * c)
    _accumulate(acc, (i - 1, 0), relation.c_id)
    _accumulate(acc, (i, 0), relation.c_e)
    return tuple(sorted(acc.items()))


def left_mul_e(nf: NormalForm) -> NormalForm:
    return NormalForm(nf.relation, tuple(((i + 1, j), c) for (i, j), c in nf.table))


def left_mul_d(nf: NormalForm) -> NormalForm:
    acc: _Table = {}
    for (i, j), c in nf.table:
        for (a, b), t in _d_times_epow(nf.relation, i):
            _accumulate(acc, (a, b + j), t * c)
    return NormalForm.from_dict(nf.relation, acc)


def nf_scale(nf: NormalForm, factor: Poly) -> NormalForm:
    if factor.is_zero:
        return NormalForm.from_dict(nf.relation, {})
    return NormalForm(nf.relation, tuple((k, factor * c) for k, c in nf.table))


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product of two normal forms, re-normalized."""
    if x.relation != y.relation:
        raise RelationMismatchError("cannot multiply forms built under different relations")
    acc: _Table = {}
    part, power = y, 0  # part is D^power y; the left terms come by increasing power of D
    for (i, j), c in sorted(x.table, key=lambda item: item[0][1]):
        for _ in range(j - power):
            part = left_mul_d(part)
        power = j
        for (a, b), t in part.table:
            _accumulate(acc, (a + i, b), c * t)
    return NormalForm.from_dict(x.relation, acc)


def word_normal_form(relation: Relation, word: str) -> NormalForm:
    """Normal form of a word over the alphabet {D, E}, rewriting DE-first."""
    nf = NormalForm.identity(relation)
    for ch in reversed(word):
        if ch == "D":
            nf = left_mul_d(nf)
        elif ch == "E":
            nf = left_mul_e(nf)
        else:
            raise ValueError(f"word must use letters D and E only: {word!r}")
    return nf


def normal_power(
    relation: Relation,
    n: int,
    coeff_d: Poly,
    coeff_e: Poly,
    coeff_id: Poly = Poly.zero(),
) -> NormalForm:
    """Normal form of (coeff_d D + coeff_e E + coeff_id I)^n."""
    check_size(n)
    nf = NormalForm.identity(relation)
    for _ in range(n):
        parts = [nf_scale(left_mul_d(nf), coeff_d), nf_scale(left_mul_e(nf), coeff_e)]
        if not coeff_id.is_zero:
            parts.append(nf_scale(nf, coeff_id))
        acc: _Table = {}
        for part in parts:
            for k, c in part.table:
                _accumulate(acc, k, c)
        nf = NormalForm.from_dict(relation, acc)
    return nf


def boundary_eval(relation: Relation, nf: NormalForm) -> Poly:
    """Collapse a normal form with the relation's boundary functional."""
    if nf.relation != relation:
        raise RelationMismatchError(
            f"form built under {nf.relation.name!r}, evaluated under {relation.name!r}"
        )
    if relation.boundary == "constant":
        return poly_sum(c for (i, j), c in nf.table if i == 0 and j == 0)
    if relation.boundary == "row":
        return poly_sum(c for (i, j), c in nf.table if i == 0)
    return poly_sum(c for _, c in nf.table)


def q_derangement_ansatz(n: int) -> Poly:
    """The derangement distribution via <W|(yD + E)^n|V> under MAIN."""
    check_size(n, ANSATZ_BOUND)
    return boundary_eval(MAIN, normal_power(MAIN, n, Poly.var_y(), ONE))


def q_eulerian_ansatz(n: int) -> Poly:
    """The full distribution via <W|(yD' + E')^n|V> under PRIMED."""
    check_size(n, ANSATZ_BOUND)
    return boundary_eval(PRIMED, normal_power(PRIMED, n, Poly.var_y(), ONE))


def weighted_involution_ansatz(n: int) -> Poly:
    """<W|(-Dh + Eh)^n|V> under HAT; a Laurent polynomial in q."""
    check_size(n, ANSATZ_BOUND)
    return boundary_eval(HAT, normal_power(HAT, n, Poly.const(-1), ONE))


def word_boundary_value(relation: Relation, word: str) -> Poly:
    """<W| word |V> for a single word in D and E."""
    return boundary_eval(relation, word_normal_form(relation, word))
