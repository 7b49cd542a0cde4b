"""Normal ordering of words in two generators under a q-commutation rule.

A relation reduces the product D*E to a combination of E*D, the identity,
E, and D with Laurent-polynomial coefficients in q.  Expressions are kept
in normal form (all E powers left of all D powers) as a finite table
(i, j) -> coefficient of E^i D^j; words are never expanded into 2^n
summands, each left multiplication re-normalizes the table directly.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import NamedTuple

from .errors import RelationMismatchError, check_size
from .poly import ONE, Q, Y, ZERO, Poly, poly_dot, poly_sum

ANSATZ_BOUND = 14


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
MAIN = Relation("main", Q, ONE, Q, ONE, boundary="constant")
# D'E' - qE'D' = D' + E'; <W|E' = 0, D'|V> = |V>: row i = 0 survives.
PRIMED = Relation("primed", Q, ZERO, ONE, ONE, boundary="row")
# Dh*Eh - q Eh*Dh = (1-q)/q; <W|Eh = <W|, Dh|V> = |V>: everything survives.
HAT = Relation("hat", Q, Poly.monomial(1, 0, -1) - ONE, ZERO, ZERO, boundary="total")

_Table = dict[tuple[int, int], Poly]
_Entries = tuple[tuple[tuple[int, int], Poly], ...]


class NormalForm(NamedTuple):
    """A finite combination sum c_ij E^i D^j under a fixed relation."""

    relation: Relation
    table: _Entries

    @classmethod
    def from_dict(cls, relation: Relation, data: _Table) -> NormalForm:
        items = tuple(sorted((k, v) for k, v in data.items() if not v.is_zero))
        return cls(relation, items)

    @classmethod
    def identity(cls, relation: Relation) -> NormalForm:
        return cls.from_dict(relation, {(0, 0): ONE})


def _entries(pairs: dict[tuple[int, int], list[tuple[Poly, Poly]]]) -> _Entries:
    """The sorted nonzero entries of a table given, per (i, j), as the pairs of
    coefficients whose products sum to the entry of E^i D^j: one poly_dot per key."""
    return tuple(sorted((k, v) for k, v in ((k, poly_dot(p)) for k, p in pairs.items()) if v))


@lru_cache(maxsize=None)
def _d_times_epow(relation: Relation, i: int) -> _Entries:
    """Normal form of D * E^i, by one application of the relation at a time."""
    if i == 0:
        return (((0, 1), ONE),)
    pairs = defaultdict(list)
    for (a, b), c in _d_times_epow(relation, i - 1):
        pairs[a + 1, b].append((relation.c_ed, c))  # E * (D E^(i-1)) part
        pairs[a, b].append((relation.c_d, c))
    pairs[i - 1, 0].append((relation.c_id, ONE))
    pairs[i, 0].append((relation.c_e, ONE))
    return _entries(pairs)


def left_mul_e(nf: NormalForm) -> NormalForm:
    return NormalForm(nf.relation, tuple(((i + 1, j), c) for (i, j), c in nf.table))


def left_mul_d(nf: NormalForm) -> NormalForm:
    pairs = defaultdict(list)
    for (i, j), c in nf.table:
        for (a, b), t in _d_times_epow(nf.relation, i):
            pairs[a, b + j].append((t, c))
    return NormalForm(nf.relation, _entries(pairs))


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product of two normal forms, re-normalized."""
    if x.relation != y.relation:
        raise RelationMismatchError("cannot multiply forms built under different relations")
    pairs = defaultdict(list)
    part, power = y, 0  # part is D^power y; the left terms come by increasing power of D
    for (i, j), c in sorted(x.table, key=lambda item: item[0][1]):
        for _ in range(j - power):
            part = left_mul_d(part)
        power = j
        for (a, b), t in part.table:
            pairs[a + i, b].append((c, t))
    return NormalForm(x.relation, _entries(pairs))


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
    coeff_id: Poly = ZERO,
) -> NormalForm:
    """Normal form of (coeff_d D + coeff_e E + coeff_id I)^n."""
    check_size(n)
    nf = NormalForm.identity(relation)
    for _ in range(n):
        pairs = defaultdict(list)
        for coeff, part in ((coeff_d, left_mul_d(nf)), (coeff_e, left_mul_e(nf)), (coeff_id, nf)):
            if coeff:
                for k, c in part.table:
                    pairs[k].append((coeff, c))
        nf = NormalForm(relation, _entries(pairs))
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
    return boundary_eval(MAIN, normal_power(MAIN, n, Y, ONE))


def q_eulerian_ansatz(n: int) -> Poly:
    """The full distribution via <W|(yD' + E')^n|V> under PRIMED."""
    check_size(n, ANSATZ_BOUND)
    return boundary_eval(PRIMED, normal_power(PRIMED, n, Y, ONE))


def weighted_involution_ansatz(n: int) -> Poly:
    """<W|(-Dh + Eh)^n|V> under HAT; a Laurent polynomial in q."""
    check_size(n, ANSATZ_BOUND)
    return boundary_eval(HAT, normal_power(HAT, n, -ONE, ONE))


def word_boundary_value(relation: Relation, word: str) -> Poly:
    """<W| word |V> for a single word in D and E."""
    return boundary_eval(relation, word_normal_form(relation, word))
