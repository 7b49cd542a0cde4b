"""Permutation classes, their statistics, and brute-force distributions.

Permutations are tuples in one-line notation with values 1..n; the boundary
convention sigma(0) = 0 and sigma(n+1) = n+1 is applied by every statistic
that needs a neighbor.  Exhaustive enumerations refuse (BudgetExceededError)
above the configured bound instead of silently truncating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _itperms
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, OddCrossingError, check_budget
from .poly import Poly, binom_safe, poly_sum

DEFAULT_BOUND = 10


class Permutation:
    """One-line-notation permutation of {1..n} with boundary accessors."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def parse(cls, text: str) -> Permutation:
        """Accept one-line digits ("4371265") or comma-separated values."""
        text = text.strip()
        if "," in text:
            return cls(int(part) for part in text.split(","))
        if not text.isdigit():
            raise ValueError(f"malformed permutation: {text!r}")
        return cls(int(ch) for ch in text)

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, i: int) -> int:
        """sigma(i) extended by sigma(0) = 0 and sigma(n+1) = n+1."""
        if i == 0:
            return 0
        if i == self.n + 1:
            return self.n + 1
        return self.images[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({''.join(map(str, self.images)) or '()'})"


def _images(p: Sequence[int] | Permutation) -> tuple[int, ...]:
    return p.images if isinstance(p, Permutation) else tuple(p)


@dataclass(frozen=True)
class StatVector:
    wex: int
    asc: int
    cr: int
    fix: int
    p312: int

    def __post_init__(self) -> None:
        if self.fix > self.wex:
            raise AssertionError("every fixed point is a weak exceedance")


# -- statistics -------------------------------------------------------------


def crossings(p: Sequence[int] | Permutation) -> int:
    """Pairs (i, j) with i < j <= sigma(i) < sigma(j) or sigma(i) < sigma(j) < i < j."""
    t = _images(p)
    n = len(t)
    c = 0
    for i in range(n):
        si = t[i]
        for j in range(i + 1, n):
            sj = t[j]
            # positions are 1-based: a = i + 1, b = j + 1
            if si < sj and (j < si or sj <= i):
                c += 1
    return c


def weak_exceedances(p: Sequence[int] | Permutation) -> int:
    t = _images(p)
    return sum(1 for i, v in enumerate(t) if v > i)


def ascents(p: Sequence[int] | Permutation) -> int:
    """Positions i with sigma(i) < sigma(i+1); position n always counts."""
    t = _images(p)
    n = len(t)
    if n == 0:
        return 0
    return 1 + sum(1 for i in range(n - 1) if t[i] < t[i + 1])


def pattern_31_2(p: Sequence[int] | Permutation) -> int:
    """Pairs (u, j), u + 1 < j, with sigma(u) > sigma(j) > sigma(u+1)."""
    t = _images(p)
    n = len(t)
    c = 0
    for u in range(n - 1):
        hi = t[u]
        lo = t[u + 1]
        if hi > lo:
            for j in range(u + 2, n):
                if lo < t[j] < hi:
                    c += 1
    return c


def fixed_points(p: Sequence[int] | Permutation) -> int:
    t = _images(p)
    return sum(1 for i, v in enumerate(t) if v == i + 1)


def stat_vector(p: Sequence[int] | Permutation) -> StatVector:
    t = _images(p)
    sv = StatVector(
        wex=weak_exceedances(t),
        asc=ascents(t),
        cr=crossings(t),
        fix=fixed_points(t),
        p312=pattern_31_2(t),
    )
    if len(t) >= 1 and sv.asc < 1:
        raise AssertionError("position n is always an ascent")
    return sv


def is_alternating(p: Sequence[int] | Permutation) -> bool:
    """sigma(2i-1) > sigma(2i) < sigma(2i+1) for all i <= floor(n/2), with boundary."""
    t = _images(p)
    n = len(t)
    ext = (0,) + t + (n + 1,)
    return all(ext[2 * i - 1] > ext[2 * i] < ext[2 * i + 1] for i in range(1, n // 2 + 1))


def is_derangement(p: Sequence[int] | Permutation) -> bool:
    t = _images(p)
    return all(v != i + 1 for i, v in enumerate(t))


def is_fpf_involution(p: Sequence[int] | Permutation) -> bool:
    t = _images(p)
    return all(v != i + 1 and t[v - 1] == i + 1 for i, v in enumerate(t))


@dataclass(frozen=True)
class ClassFlags:
    is_alternating: bool
    is_derangement: bool
    is_fpf_involution: bool


def classify(p: Sequence[int] | Permutation) -> ClassFlags:
    t = _images(p)
    return ClassFlags(is_alternating(t), is_derangement(t), is_fpf_involution(t))


# -- generators -------------------------------------------------------------


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return _itperms(range(1, n + 1))


def permutations_with_first(n: int, first: int) -> Iterator[tuple[int, ...]]:
    """The block {sigma : sigma(1) = first}; used to partition enumerations."""
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in _itperms(rest):
        yield (first, *tail)


def derangements(n: int) -> Iterator[tuple[int, ...]]:
    return (p for p in all_permutations(n) if is_derangement(p))


def fpf_involutions(n: int) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free involutions of {1..n}; empty for odd n."""
    if n % 2:
        return
    def rec(avail: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not avail:
            yield ()
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            rest = avail[1:idx] + avail[idx + 1:]
            for pairs in rec(rest):
                yield ((a, b), *pairs)
    for pairs in rec(tuple(range(1, n + 1))):
        img = [0] * n
        for a, b in pairs:
            img[a - 1] = b
            img[b - 1] = a
        yield tuple(img)


# -- brute-force distributions ----------------------------------------------


@lru_cache(maxsize=None)
def _wex_cr_counts(n: int) -> tuple[Counter, Counter]:
    """(wex, cr) multisets over all permutations and over derangements."""
    full: Counter = Counter()
    der: Counter = Counter()
    for p in _itperms(range(1, n + 1)):
        w = 0
        has_fix = False
        for i in range(n):
            v = p[i]
            if v > i:
                w += 1
                if v == i + 1:
                    has_fix = True
        c = 0
        for i in range(n):
            si = p[i]
            for j in range(i + 1, n):
                sj = p[j]
                if si < sj and (j < si or sj <= i):
                    c += 1
        key = (w, c)
        full[key] += 1
        if not has_fix:
            der[key] += 1
    return full, der


@lru_cache(maxsize=None)
def _asc_312_counts(n: int) -> tuple[Counter, Counter]:
    """(asc, 31-2) multisets over all permutations and over derangements."""
    full: Counter = Counter()
    der: Counter = Counter()
    for p in _itperms(range(1, n + 1)):
        key = (ascents(p), pattern_31_2(p))
        full[key] += 1
        if is_derangement(p):
            der[key] += 1
    return full, der


def _counts_to_poly(counts: Counter) -> Poly:
    return Poly({(w, c): mult for (w, c), mult in counts.items()})


def q_eulerian_poly(n: int, bound: int | None = None) -> Poly:
    """Distribution of (wex, cr) over all permutations of size n."""
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
    return _counts_to_poly(_wex_cr_counts(n)[0])


def q_derangement_poly(n: int, bound: int | None = None) -> Poly:
    """Distribution of (wex, cr) over derangements of size n."""
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
    return _counts_to_poly(_wex_cr_counts(n)[1])


def wex_cr_multiset(n: int, derangements_only: bool = False, bound: int | None = None) -> Counter:
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
    return _wex_cr_counts(n)[1 if derangements_only else 0]


def asc_312_multiset(n: int, derangements_only: bool = False, bound: int | None = None) -> Counter:
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
    return _asc_312_counts(n)[1 if derangements_only else 0]


@lru_cache(maxsize=None)
def _alt_312_counts(n: int) -> Counter:
    counts: Counter = Counter()
    for p in _itperms(range(1, n + 1)):
        if is_alternating(p):
            counts[pattern_31_2(p)] += 1
    return counts


def alternating_31_2_poly(n: int, bound: int | None = None) -> Poly:
    """Distribution of 31-2 over alternating permutations (a q-polynomial)."""
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
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


def involution_crossing_poly(m: int, bound: int | None = None) -> Poly:
    """Distribution of cr/2 over fixed-point-free involutions of size m (even)."""
    check_budget(m, DEFAULT_BOUND if bound is None else bound, "m")
    return Poly({(0, e): mult for e, mult in _involution_half_cr_counts(m).items()})


def inversion_check(n: int, bound: int | None = None) -> bool:
    """Binomial inversion between the full and derangement distributions.

    Checks A_n = sum_k C(n,k) y^(n-k) B_k and B_n = sum_k C(n,k) (-y)^(n-k) A_k.
    """
    b = DEFAULT_BOUND if bound is None else bound
    check_budget(n, b, "n")
    a_n = q_eulerian_poly(n, b)
    b_n = q_derangement_poly(n, b)
    lhs_a = poly_sum(
        Poly.monomial(binom_safe(n, k), n - k, 0) * q_derangement_poly(k, b) for k in range(n + 1)
    )
    lhs_b = poly_sum(
        Poly.monomial((-1) ** (n - k) * binom_safe(n, k), n - k, 0) * q_eulerian_poly(k, b)
        for k in range(n + 1)
    )
    return lhs_a == a_n and lhs_b == b_n


def q_eulerian_poly_partitioned(n: int, parts: int, bound: int | None = None) -> Poly:
    """q_eulerian_poly computed over groups of first-image-value blocks, then summed.

    The enumeration space is split by sigma(1); blocks are assigned to the
    requested number of groups round-robin.  The reduction is additive and
    order-independent, so the result is bit-identical for every parts value.
    """
    check_budget(n, DEFAULT_BOUND if bound is None else bound, "n")
    if parts < 1:
        raise ValueError("parts must be positive")
    if n == 0:
        return Poly.one()
    group_polys: list[Poly] = []
    for g in range(parts):
        counts: Counter = Counter()
        for first in range(g + 1, n + 1, parts):
            for p in permutations_with_first(n, first):
                counts[(weak_exceedances(p), crossings(p))] += 1
        group_polys.append(_counts_to_poly(counts))
    return poly_sum(group_polys)
