"""The Francon-Viennot encoding of permutations as weighted Motzkin paths.

The value k of a permutation determines the kth step: valleys rise, peaks
fall, double ascents and double descents stay flat (all with the boundary
convention sigma(0) = 0, sigma(n+1) = n+1).  The step weight is y^delta q^i
where delta marks an ascent position and i counts the 31-2 patterns whose
"2" sits at that position, so the total path weight is y^asc q^(31-2).
"""

from __future__ import annotations

from typing import Sequence

from .paths import UNIT_DOWN, WeightedPath, path_from_steps
from .permutations import Permutation, ascents, pattern_31_2, _images

# The lifted image opens with an up step of weight y.
_Y_UP = (1, 1, 1, 0)


def francon_viennot(
    p: Sequence[int] | Permutation, stats: tuple[int, int] | None = None
) -> WeightedPath:
    """Encode a permutation of size n >= 1 as a Laguerre history of n steps.

    The path weight is asserted to be y^asc q^(31-2); stats passes the
    (ascents, 31-2) pair of p when the caller has already computed it.
    """
    t = _images(p)
    n = len(t)
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    # cover[v]: descents (hi, lo) at earlier adjacent positions with hi > v > lo
    cover = [0] * (n + 2)
    records = [None] * n
    before = 0
    for k, after in zip(t, (*t[1:], n + 1)):
        if k < after:  # an ascent position: a valley rises, a double ascent stays flat
            records[k - 1] = (1 if before > k else 0, 1, 1, cover[k])
        else:  # a double descent stays flat, a peak falls
            records[k - 1] = (0 if before > k else -1, 1, 0, cover[k])
        for v in range(k + 1, before):  # the descent (before, k) counts from the next position on
            cover[v] += 1
        before = k
    path = path_from_steps("laguerre", records)
    asc, p312 = (ascents(t), pattern_31_2(t)) if stats is None else stats
    if path.exponents() != (1, asc, p312):
        raise AssertionError(f"weight property failed for {t}")
    return path


def _lift(t: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The lift of t and its (ascents, 31-2) pair, asserted equal to that of t."""
    lifted = (*[v + 1 for v in t], 1)
    stats = (ascents(lifted), pattern_31_2(lifted))
    if stats != (ascents(t), pattern_31_2(t)):
        raise AssertionError(f"lift changed the statistics of {t}")
    return lifted, stats


def lift_append_one(p: Sequence[int] | Permutation) -> tuple[int, ...]:
    """Shift all values up by one and append the value 1 at the end.

    The lift preserves both the ascent count and the 31-2 count (asserted).
    """
    return _lift(_images(p))[0]


def lifted_francon_viennot(p: Sequence[int] | Permutation) -> tuple[WeightedPath, WeightedPath]:
    """Encode the lifted permutation; also return the trimmed inner path.

    The full image starts with an up step of weight y and ends with a down
    step of weight 1; removing both and shifting the origin down by one
    yields a valid large Laguerre history of the original size.
    """
    t = _images(p)
    if len(t) < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    lifted, stats = _lift(t)
    full = francon_viennot(lifted, stats)
    records = full.records
    if records[0] != _Y_UP:
        raise AssertionError("lifted image must open with an up step of weight y")
    if records[-1] != UNIT_DOWN:
        raise AssertionError("lifted image must close with a down step of weight 1")
    return full, path_from_steps("large_laguerre", records[1:-1])


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
