"""Permutation classes, their statistics, and brute-force distributions.

Permutations are tuples in one-line notation with values 1..n, parsed from
text by parse_permutation; the statistics take any sequence.  The boundary
convention sigma(0) = 0 and sigma(n+1) = n+1 is applied by every statistic
that needs a neighbor.  Exhaustive enumerations refuse a negative size
(ValueError) and one above DEFAULT_BOUND (BudgetExceededError).

The distributions over S_n count every permutation exactly, but by prefix
state rather than one by one: placing value v at position b changes each
statistic by an amount that depends only on the values placed before b (and,
for ascents and 31-2, on the last of them), so the prefixes that share that
state share their whole future and are counted together.  (wex, cr) is one
transfer over the 2^n placed sets; (asc, 31-2) and the alternating 31-2 are
another over the placed sets and their last values, about n 2^(n-1) states.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations as _itperms
from math import comb
from operator import lt
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

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


def _field_width(n: int) -> int:
    """Bits per field of a key (first << 2 * width | second << width | fixed points).

    Wide enough that no field carries into the next: 31-2 is at most C(n, 3), one
    per triple of positions, cr at most C(n, 2), one per pair, and every other
    field at most n.
    """
    return max(n, comb(n, 2), comb(n, 3)).bit_length()


def _transfer(n: int, start: Hashable, moves: Callable) -> Iterable[dict[int, int]]:
    """The key counts of the states after n positions, from `start` with key 0.

    Layer b - 1 maps each state of the prefixes of length b - 1 to the counts of
    their keys.  moves(state, b) yields (successor, increment) for each value that
    position b may take there, and all the state's keys move to the successor
    shifted by the increment.  A state leaves its layer once its keys have moved,
    so no more than one layer is whole at a time.
    """
    layer = {start: {0: 1}}
    for b in range(1, n + 1):
        nxt: dict = {}
        while layer:
            state, src = layer.popitem()
            for target, inc in moves(state, b):
                dst = nxt.get(target)
                if dst is None:
                    nxt[target] = {key + inc: mult for key, mult in src.items()}
                    continue
                get = dst.get
                for key, mult in src.items():
                    key += inc
                    dst[key] = get(key, 0) + mult
        layer = nxt
    return layer.values()


def _pairs(leaves: Iterable[dict[int, int]], width: int) -> tuple[Counter, Counter]:
    """Counts of the first two fields, over all keys and over the keys with no fixed point."""
    field = (1 << width) - 1
    full, der = Counter(), Counter()
    for counts in leaves:
        for key, mult in counts.items():
            pair = key >> 2 * width, key >> width & field
            full[pair] += mult
            if not key & field:
                der[pair] += mult
    return full, der


def _asc_312_transfer(n: int, alternating: bool) -> Iterable[dict[int, int]]:
    """Keys (asc, 31-2, fixed points) over S_n, by placed set and last value.

    The last value starts as the boundary 0, so the first value rises from it:
    that rise is the ascent that `ascents` counts at position n.  A descent
    (prev, v) adds the values strictly between v and prev not placed yet, since
    they all come after it.  alternating keeps, at each position b, only a value
    that falls from prev when b is even and rises when b is odd.
    """
    width = _field_width(n)
    asc, pat = 1 << 2 * width, 1 << width
    bit = [0, *(1 << v for v in range(n))]  # bit[v]: value v in a mask of placed values
    # spans[hi][lo]: the values strictly between lo and hi
    spans = [[sum(bit[lo + 1:hi]) for lo in range(hi)] for hi in range(n + 1)]

    def moves(state: tuple[int, int], b: int) -> Iterator[tuple[tuple[int, int], int]]:
        m, prev = state
        must_fall = b % 2 == 0
        for v in range(1, n + 1):
            if m & bit[v] or alternating and (prev > v) != must_fall:
                continue
            placed = m | bit[v]
            inc = v == b
            if prev < v:
                inc += asc
            else:
                inc += pat * (spans[prev][v] & ~placed).bit_count()
            yield (placed, v), inc

    return _transfer(n, (0, 0), moves)


# Cached by name: the benchmark tracer counts n! S_n permutations per fill of these three.
@lru_cache(maxsize=None)
def _wex_cr_counts(n: int) -> tuple[Counter, Counter]:
    """(wex, cr) over S_n and over its derangements, by placed set.

    Value v at position b is a weak exceedance when v >= b, and a fixed point
    when v = b.  Each crossing is counted where it depends only on the set m of
    values placed before b:
    * an upper crossing a < b <= sigma(a) < v at its right end: the values of m
      in [b, v), whose positions a are all below b;
    * a lower crossing v < sigma(c) < b < c at its left end: the values strictly
      between v and b not in m, since each of them goes to a later position c.
    """
    check_size(n, DEFAULT_BOUND)
    width = _field_width(n)
    wex, cr = 1 << 2 * width, 1 << width
    low = [(1 << k) - 1 for k in range(n + 1)]  # the k lowest bits

    def moves(m: int, b: int) -> Iterator[tuple[int, int]]:
        for v in range(1, n + 1):
            if m >> (v - 1) & 1:
                continue
            if v >= b:
                inc = wex + (v == b) + cr * (m >> (b - 1) & low[v - b]).bit_count()
            else:
                inc = cr * (~m >> v & low[b - v - 1]).bit_count()
            yield m | 1 << (v - 1), inc

    return _pairs(_transfer(n, 0, moves), width)


@lru_cache(maxsize=None)
def _asc_312_counts(n: int) -> tuple[Counter, Counter]:
    """(asc, 31-2) over S_n and over its derangements."""
    check_size(n, DEFAULT_BOUND)
    return _pairs(_asc_312_transfer(n, False), _field_width(n))


@lru_cache(maxsize=None)
def _alt_312_counts(n: int) -> Counter:
    """31-2 over the alternating permutations of size n."""
    check_size(n, DEFAULT_BOUND)
    width = _field_width(n)
    field = (1 << width) - 1
    counts: Counter = Counter()
    for leaf in _asc_312_transfer(n, True):
        for key, mult in leaf.items():
            counts[key >> width & field] += mult
    return counts


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

