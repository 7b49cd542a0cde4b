"""The Francon-Viennot encoding of permutations as weighted Motzkin paths.

The value k of a permutation determines the kth step: valleys rise, peaks
fall, double ascents and double descents stay flat (all with the boundary
convention sigma(0) = 0, sigma(n+1) = n+1).  The step weight is y^delta q^i
where delta marks an ascent position and i counts the 31-2 patterns whose
"2" sits at that position, so the total path weight is y^asc q^(31-2).

There are two encoders.  francon_viennot encodes one permutation; it serves
`qeuler bijection` and the first loop of verify's bijection_size check, which
checks that this encoder is a bijection.  lifted_histories walks all of S_n
once and yields the full and trimmed images of every lift; verify's
reduced_path_sum and the odd-size pass of bijection_size read it, because a
walk does the work of a prefix once for all the permutations that extend it.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence

from .errors import check_size
from .paths import UNIT_DOWN, Record, WeightedPath, path_from_steps
from .permutations import DEFAULT_BOUND, ascents, pattern_31_2

# The lifted image opens with an up step of weight y.
_Y_UP = (1, 1, 1, 0)


@cache
def _encoder_records(n: int) -> tuple[tuple[Record, ...], ...]:
    """The records of the encoding at size n, indexed by 2 * (successor larger)
    + (predecessor larger), then by the cover: a peak falls, a double descent
    and a double ascent stay flat, a valley rises; y marks an ascent position.

    Every image of size n takes its records from here, so equal records are
    one object and a set of images keeps each record once.
    """
    return tuple(tuple((delta, 1, ypow, c) for c in range(n + 1))
                 for delta, ypow in ((-1, 0), (0, 0), (0, 1), (1, 1)))


def francon_viennot(p: Sequence[int]) -> WeightedPath:
    """Encode a permutation of size n >= 1 as a Laguerre history of n steps.

    The path weight is asserted to be y^asc q^(31-2).
    """
    t = tuple(p)
    n = len(t)
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    table = _encoder_records(n)
    # cover[v]: descents (hi, lo) at earlier adjacent positions with hi > v > lo
    cover = [0] * (n + 2)
    records = [None] * n
    before = 0
    for k, after in zip(t, (*t[1:], n + 1)):
        records[k - 1] = table[2 * (k < after) + (before > k)][cover[k]]
        for v in range(k + 1, before):  # the descent (before, k) counts from the next position on
            cover[v] += 1
        before = k
    path = path_from_steps("laguerre", records)
    if path.exponents() != (1, ascents(t), pattern_31_2(t)):
        raise AssertionError(f"weight property failed for {t}")
    return path


def lift_append_one(p: Sequence[int]) -> tuple[int, ...]:
    """Shift all values up by one and append the value 1 at the end.

    The lift preserves both the ascent count and the 31-2 count (asserted).
    """
    lifted = (*[v + 1 for v in p], 1)
    if (ascents(lifted), pattern_31_2(lifted)) != (ascents(p), pattern_31_2(p)):
        raise AssertionError(f"lift changed the statistics of {p}")
    return lifted


# A value's step by its kind, (predecessor larger, successor larger) -> (delta,
# ypow): a peak falls, a double descent and a double ascent stay flat, a valley
# rises; y marks an ascent position.  The walk builds its record tables from it.
_KINDS = {(False, False): (-1, 0), (True, False): (0, 0), (False, True): (0, 1), (True, True): (1, 1)}


def lifted_histories(
    n: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, int], WeightedPath, WeightedPath]]:
    """(t, (ascents, 31-2) of t, full image of its lift, trimmed image) for every
    permutation t of size n >= 1, in all_permutations order.

    The lift appends 1 to t shifted up by one.  Its full image opens with an
    up step of weight y and closes with a down step of weight 1; removing both
    and shifting the origin down by one leaves a large Laguerre history of size
    n.  Both images are validated, and the full weight is asserted to be
    y^asc q^(31-2).  Iterating raises ValueError when n < 1 and
    BudgetExceededError when n > DEFAULT_BOUND, the census's bound.

    One depth-first walk places the lift's values 2..n+1 position by position,
    then the 1.  A value's record is fixed once its successor is placed, from
    a per-kind table indexed by its cover: the earlier descents (hi, lo) with
    hi > value > lo, one field of `fields` per value, a descent adding a run
    of ones.  The statistics come from their own rules: an ascent is a value
    placed above its predecessor, and a descent (hi, lo) adds the values
    between lo and hi not placed yet, since they all follow it.  Those of t
    are read at depth n and asserted equal to the lift's, counted after the 1
    is placed by the same rule.
    """
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    check_size(n, DEFAULT_BOUND)
    top = n + 1  # the lift's largest value
    width = top.bit_length()  # a cover counts at most n descents, so never carries
    field = (1 << width) - 1
    # bit[k]: value k >= 2 in a mask of placed values; the 1, placed last, needs none
    bit = [0, 0, *(1 << (k - 2) for k in range(2, top + 1))]
    free_of = [tuple(k for k in range(2, top + 1) if not m & bit[k]) for m in range(1 << n)]
    runs = [[sum(1 << (width * v) for v in range(lo + 1, hi)) for lo in range(hi)]
            for hi in range(top + 1)]
    spans = [[sum(bit[v] for v in range(lo + 1, hi)) for lo in range(hi)] for hi in range(top + 1)]
    table = {kind: tuple((delta, 1, ypow, c) for c in range(top))
             for kind, (delta, ypow) in _KINDS.items()}
    # indexed by whether the predecessor is larger, then by the cover
    falls = (table[False, False], table[True, False])
    rises = (table[False, True], table[True, True])
    rec = [None] * top  # rec[k - 1]: the record of the lift's value k
    t = [0] * top  # t[j]: the value of t at position j; t[n] = 0 stands for the 1

    def place(j, m, prev, prev_fell, prev_cover, fields, asc, p312, stats):
        if j > n:  # the boundary n + 2 follows the 1
            rec[0] = rises[prev_fell][prev_cover]
            p = tuple(t[:n])
            if (asc + 1, p312) != stats:
                raise AssertionError(f"lift changed the statistics of {p}")
            records = tuple(rec)
            full = path_from_steps("laguerre", records)
            if full.exponents() != (1, *stats):
                raise AssertionError(f"weight property failed for the lift of {p}")
            if records[0] != _Y_UP:
                raise AssertionError("lifted image must open with an up step of weight y")
            if records[-1] != UNIT_DOWN:
                raise AssertionError("lifted image must close with a down step of weight 1")
            yield p, stats, full, path_from_steps("large_laguerre", records[1:-1])
            return
        if j == n:  # t is placed; its position n is an ascent, the lift's is not
            stats = (asc + 1, p312)
            values = (1,)
        else:
            values = free_of[m]
        for k in values:
            t[j] = k - 1
            mk = m | bit[k]
            cover = fields >> (k * width) & field
            if prev < k:
                rec[prev - 1] = rises[prev_fell][prev_cover]
                yield from place(j + 1, mk, k, False, cover, fields, asc + 1, p312, stats)
            else:
                rec[prev - 1] = falls[prev_fell][prev_cover]
                yield from place(j + 1, mk, k, True, cover, fields + runs[prev][k], asc,
                                 p312 + (spans[prev][k] & ~mk).bit_count(), stats)

    for k in range(2, top + 1):  # the boundary 0 before position 0 is no ascent
        t[0] = k - 1
        yield from place(1, bit[k], k, False, 0, 0, 0, 0, None)


def path_saturated_step_free(path: WeightedPath) -> bool:
    """True when no step after the first carries weight y q^h from height h.

    On the Francon-Viennot image of a permutation this path condition
    characterizes the permutations whose last position holds the value 1.
    """
    return not any(
        ypow == 1 and qpow == h
        for h, (_, _, ypow, qpow) in zip(path.heights()[1:], path.records[1:])
    )


def returns_to_zero_early(path: WeightedPath) -> bool:
    """True when the path touches height 0 before its final step."""
    return 0 in path.heights()[1:]
