"""Permutation classes, their statistics, and brute-force distributions.

Permutations are tuples in one-line notation with values 1..n, parsed from
text by parse_permutation; the statistics take any sequence.  The boundary
convention sigma(0) = 0 and sigma(n+1) = n+1 is applied by every statistic
that needs a neighbor.  Exhaustive enumerations refuse a negative size
(ValueError) and one above DEFAULT_BOUND (BudgetExceededError).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations as _itperms
from operator import lt
from typing import Iterator, NamedTuple, Sequence

from .errors import OddCrossingError, check_permutation, check_size
from .poly import Poly

DEFAULT_BOUND = 10


def parse_permutation(text: str) -> tuple[int, ...]:
    """Accept one-line digits ("4371265") or comma-separated values."""
    text = text.strip()
    malformed = ValueError(f"malformed permutation: {text!r}")
    if "," in text:
        parts = text.split(",")
    elif text.isdigit():
        parts = list(text)
    else:
        raise malformed
    try:
        t = tuple(int(part) for part in parts)
    except ValueError:  # an empty part, or a digit that int() rejects ("²")
        raise malformed from None
    check_permutation(t)
    return t


class StatVector(NamedTuple):
    wex: int
    asc: int
    cr: int
    fix: int
    p312: int


# -- statistics -------------------------------------------------------------


def crossings(p: Sequence[int]) -> int:
    """Pairs (i, j) with i < j <= sigma(i) < sigma(j) or sigma(i) < sigma(j) < i < j."""
    n = len(p)
    c = 0
    for i in range(n):
        si = p[i]
        for j in range(i + 1, n):
            sj = p[j]
            # positions are 1-based: a = i + 1, b = j + 1
            if si < sj and (j < si or sj <= i):
                c += 1
    return c


def weak_exceedances(p: Sequence[int]) -> int:
    return sum(1 for i, v in enumerate(p) if v > i)


def ascents(p: Sequence[int]) -> int:
    """Positions i with sigma(i) < sigma(i+1); position n always counts."""
    if not p:
        return 0
    return 1 + sum(map(lt, p, p[1:]))


def pattern_31_2(p: Sequence[int]) -> int:
    """Pairs (u, j), u + 1 < j, with sigma(u) > sigma(j) > sigma(u+1)."""
    n = len(p)
    c = 0
    for u in range(n - 1):
        hi = p[u]
        lo = p[u + 1]
        if hi > lo:
            for j in range(u + 2, n):
                if lo < p[j] < hi:
                    c += 1
    return c


def fixed_points(p: Sequence[int]) -> int:
    return sum(1 for i, v in enumerate(p) if v == i + 1)


def stat_vector(p: Sequence[int]) -> StatVector:
    t = tuple(p)
    sv = StatVector(
        wex=weak_exceedances(t),
        asc=ascents(t),
        cr=crossings(t),
        fix=fixed_points(t),
        p312=pattern_31_2(t),
    )
    if sv.fix > sv.wex:
        raise AssertionError("every fixed point is a weak exceedance")
    if len(t) >= 1 and sv.asc < 1:
        raise AssertionError("position n is always an ascent")
    return sv


def is_alternating(p: Sequence[int]) -> bool:
    """sigma(2i-1) > sigma(2i) < sigma(2i+1) for all i <= floor(n/2), with boundary."""
    t = tuple(p)
    n = len(t)
    ext = (0,) + t + (n + 1,)
    return all(ext[2 * i - 1] > ext[2 * i] < ext[2 * i + 1] for i in range(1, n // 2 + 1))


# -- generators -------------------------------------------------------------


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    check_size(n, DEFAULT_BOUND)
    return _itperms(range(1, n + 1))


def fpf_involutions(n: int) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free involutions of {1..n}; empty for odd n."""
    if n % 2:
        return
    img = [0] * n  # img[i] is the image of i + 1; 0 while i + 1 is unpaired
    def rec() -> Iterator[tuple[int, ...]]:
        if 0 not in img:
            yield tuple(img)
            return
        a = img.index(0)  # pair the smallest unpaired value with each later one
        for b in range(a + 1, n):
            if not img[b]:
                img[a], img[b] = b + 1, a + 1
                yield from rec()
                img[a] = img[b] = 0
    yield from rec()


# -- brute-force distributions ----------------------------------------------


@lru_cache(maxsize=None)
def _census(n: int, alternating: bool = False) -> Counter:
    """Counts of (wex, cr, asc, 31-2, is_derangement) over the permutations of size n.

    One depth-first placement of values, position by position, one leaf per
    permutation; alternating prunes a prefix at the first adjacent pair that
    breaks t1 > t2 < t3 > ....  Value v is bit v - 1 of a mask, and P[i] is
    the mask of the values at positions 0..i-1.  Placing v at position j
    (0-based) costs O(1) big-int operations:

    * crossings: the earlier positions i with sigma(i) < v and either
      j < sigma(i) (the placed values strictly between j and v, when v > j) or
      v <= i (the values below v placed at positions v..j-1, P[j] ^ P[v]);
    * 31-2: a descent (hi, lo) adds the values strictly between lo and hi
      that are not placed yet, since they all come after it; the last value
      closes no such descent, as nothing comes after it.
    """
    check_size(n, DEFAULT_BOUND)
    counts: Counter = Counter()
    if n < 2:
        counts[n, 0, n, 0, n == 0] += 1  # the empty permutation, or 1 (a fixed point)
        return counts
    low = [(1 << k) - 1 for k in range(n + 1)]  # the values 1..k
    free_of = [tuple(v for v in range(1, n + 1) if not m >> (v - 1) & 1) for m in range(1 << n)]
    # spans[hi][lo]: the values strictly between lo and hi
    spans = [[low[hi - 1] ^ low[lo] for lo in range(hi)] for hi in range(n + 1)]
    full = low[n]
    last = n - 1
    last_odd = last % 2 == 1
    P = [0] * n

    def place(j: int, prev: int, wex: int, cr: int, p312: int, desc: int, der: bool) -> None:
        Pj = P[j]
        j1 = j + 1
        above = Pj >> j  # bit 0 is the value j + 1
        odd = j % 2 == 1
        for v in free_of[Pj]:
            if alternating and j and (prev < v) == odd:
                continue
            if v > j:
                c = cr + (above & low[v - j1]).bit_count()
                w = wex + 1
                d = der and v != j1
            else:
                c = cr + ((Pj ^ P[v]) & low[v - 1]).bit_count()
                w = wex
                d = der
            P[j1] = Pv = Pj | 1 << (v - 1)
            if prev > v:
                p = p312 + (spans[prev][v] & ~Pv).bit_count()
                e = desc + 1
            else:
                p = p312
                e = desc
            if j1 < last:
                place(j1, v, w, c, p, e, d)
                continue
            # the one value u left goes at the last position, counted here
            u = (full ^ Pv).bit_length()
            if alternating and (v < u) == last_odd:
                continue
            if u == n:
                w += 1
                d = False
            else:
                c += ((Pv ^ P[u]) & low[u - 1]).bit_count()
            counts[w, c, n - e - (v > u), p, d] += 1

    place(0, 0, 0, 0, 0, 0, True)
    return counts


def _marginal(census: Counter, slots: int | slice) -> tuple[Counter, Counter]:
    """Counts of key[slots] over all census leaves and over the derangements."""
    full, der = Counter(), Counter()
    for key, mult in census.items():
        full[key[slots]] += mult
        if key[4]:
            der[key[slots]] += mult
    return full, der


# Cached by name: the benchmark tracer counts one S_n sweep per fill of these three.
@lru_cache(maxsize=None)
def _wex_cr_counts(n: int) -> tuple[Counter, Counter]:
    return _marginal(_census(n), slice(0, 2))


@lru_cache(maxsize=None)
def _asc_312_counts(n: int) -> tuple[Counter, Counter]:
    return _marginal(_census(n), slice(2, 4))


@lru_cache(maxsize=None)
def _alt_312_counts(n: int) -> Counter:
    return _marginal(_census(n, True), 3)[0]


def q_eulerian_poly(n: int) -> Poly:
    """Distribution of (wex, cr) over all permutations of size n."""
    return Poly(_wex_cr_counts(n)[0])


def q_derangement_poly(n: int) -> Poly:
    """Distribution of (wex, cr) over derangements of size n."""
    return Poly(_wex_cr_counts(n)[1])


def wex_cr_multiset(n: int, derangements_only: bool = False) -> Counter:
    return _wex_cr_counts(n)[1 if derangements_only else 0]


def asc_312_multiset(n: int, derangements_only: bool = False) -> Counter:
    return _asc_312_counts(n)[1 if derangements_only else 0]


def alternating_31_2_poly(n: int) -> Poly:
    """Distribution of 31-2 over alternating permutations (a q-polynomial)."""
    return Poly({(0, e): mult for e, mult in _alt_312_counts(n).items()})


@lru_cache(maxsize=None)
def _involution_half_cr_counts(m: int) -> Counter:
    counts: Counter = Counter()
    for p in fpf_involutions(m):
        c = crossings(p)
        if c % 2:
            raise OddCrossingError(f"odd crossing count {c} for involution {p}")
        counts[c // 2] += 1
    return counts


def involution_crossing_poly(m: int) -> Poly:
    """Distribution of cr/2 over fixed-point-free involutions of size m (even)."""
    check_size(m, DEFAULT_BOUND, "m")
    return Poly({(0, e): mult for e, mult in _involution_half_cr_counts(m).items()})

