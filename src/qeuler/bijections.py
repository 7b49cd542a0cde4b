"""The Francon-Viennot encoding of permutations as weighted Motzkin paths.

The value k of a permutation determines the kth step: valleys rise, peaks
fall, double ascents and double descents stay flat (all with the boundary
convention sigma(0) = 0, sigma(n+1) = n+1).  The step weight is y^delta q^i
where delta marks an ascent position and i counts the 31-2 patterns whose
"2" sits at that position, so the total path weight is y^asc q^(31-2).

There are two encoders.  francon_viennot encodes one permutation; it serves
`qeuler bijection` and the first loop of verify's bijection_size check, which
checks that this encoder is a bijection: francon_viennot_inverse, the one
decoder, rebuilds each permutation from its image, so the encoder is
injective, and there are n! Laguerre histories.  lifted_histories walks all of S_n
once and yields the trimmed image of every lift with its weight; verify's
reduced_path_sum sums the weights and the odd-size pass of bijection_size
reads the images.  A walk does the work of a prefix once for all the
permutations that extend it, and the depth of the second-to-last value also
places the forced last one, so each leaf costs one iteration, one validated
path and one weight.

The lift of t appends 1 to t shifted up by one, and its image needs no lift
to compute: it is the up step of weight y (the 1, a valley of cover 0)
followed by the encoding of t under the boundary sigma(n+1) = 0, whose last
step, the maximum's peak of cover 0, is a down step of weight 1.  The
trimmed image is what lies between those two steps.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence

from .errors import check_permutation, check_size
from .paths import UNIT_DOWN, Record, WeightedPath, _monomial, path_from_steps
from .permutations import DEFAULT_BOUND, ascents, pattern_31_2
from .poly import Poly


@cache
def _encoder_records(n: int) -> tuple[tuple[Record, ...], ...]:
    """The records of the encoding at size n, indexed by 2 * (successor larger)
    + (predecessor larger), then by the cover: a peak falls, a double descent
    and a double ascent stay flat, a valley rises; y marks an ascent position.

    The encoder looks each record up here by kind and cover instead of
    building it per step, so the images of one size share their records.
    """
    return tuple(tuple((delta, 1, ypow, c) for c in range(n + 1))
                 for delta, ypow in ((-1, 0), (0, 0), (0, 1), (1, 1)))


def francon_viennot(p: Sequence[int]) -> WeightedPath:
    """Encode a permutation of size n >= 1 as a Laguerre history of n steps.

    Any other sequence is refused with ValueError before it is encoded.  The
    path weight is asserted to be y^asc q^(31-2).
    """
    t = tuple(p)
    n = len(t)
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    check_permutation(t)
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


def francon_viennot_inverse(path: WeightedPath) -> tuple[int, ...]:
    """The permutation whose Francon-Viennot image is the Laguerre history path.

    The values 1..n go in order into holes, the runs of larger values still
    to come, where the boundary n+1 stands in the last one.  The record of
    value k picks its hole by qpow, counted from the left: a peak fills the
    hole, a valley splits it, a double ascent goes to its left end and a
    double descent to its right end.  A path of another family is refused
    with ValueError.
    """
    if path.family != "laguerre":
        raise ValueError(f"not a Laguerre history: a {path.family} path")
    n = len(path.records)
    nxt = [n + 1] * (n + 2)  # nxt[v]: the value placed after v, n+1 at the end
    holes = [0]  # holes[c]: the value that hole c follows, 0 for the left boundary
    for k, (delta, _, ypow, c) in enumerate(path.records, 1):
        a = holes[c]
        nxt[k], nxt[a] = nxt[a], k  # every kind goes right after the value its hole follows
        if delta == 1:
            holes.insert(c + 1, k)
        elif delta == -1:
            del holes[c]
        elif ypow:
            holes[c] = k
    out, v = [], nxt[0]
    while v <= n:
        out.append(v)
        v = nxt[v]
    return tuple(out)


def lift_append_one(p: Sequence[int]) -> tuple[int, ...]:
    """Shift all values up by one and append the value 1 at the end.

    A sequence that is not a permutation is refused with ValueError.  The
    lift preserves both the ascent count and the 31-2 count (asserted).
    """
    t = tuple(p)
    check_permutation(t)
    lifted = (*[v + 1 for v in t], 1)
    if (ascents(lifted), pattern_31_2(lifted)) != (ascents(t), pattern_31_2(t)):
        raise AssertionError(f"lift changed the statistics of {t}")
    return lifted


# A value's step by its kind, (predecessor larger, successor larger) -> (delta,
# ypow): a peak falls, a double descent and a double ascent stay flat, a valley
# rises; y marks an ascent position.  The walk builds its record tables from it.
_KINDS = {(False, False): (-1, 0), (True, False): (0, 0), (False, True): (0, 1), (True, True): (1, 1)}


def lifted_histories(n: int) -> Iterator[tuple[tuple[int, ...], WeightedPath, Poly]]:
    """(t, trimmed image of its lift, its weight) for every permutation t of
    size n >= 1, in all_permutations order.

    The full image of the lift is the up step of weight y followed by the
    encoding of t under the boundary sigma(n+1) = 0 (see the module
    docstring).  Only the trimmed image is built and validated: without both
    ends and with its origin shifted down by one, as a large Laguerre history
    of size n whose weight is read once and asserted to be y^(asc-1) q^(31-2)
    for the statistics of t, and the maximum's step is asserted to be a down
    step of weight 1.  That proves the full image too: a large Laguerre step
    from height h is a Laguerre step from h + 1, the up step of weight y is
    one from 0 and the down step of weight 1 one from 1, so the full image is
    a Laguerre history of weight y^asc q^(31-2).  The weight is the interned
    monomial of paths.WeightedPath.weight, so the assertion is an identity
    test.  Iterating raises ValueError when n < 1 and BudgetExceededError
    when n > DEFAULT_BOUND, the census's bound.

    One depth-first walk places t's values position by position, in this one
    generator frame with an explicit stack: an iterator of the values still
    to try at each depth.  The last value is forced, so the depth that places
    the second-to-last value places it too, and it falls to the boundary 0;
    that depth finishes the leaf.  When n = 1 the only depth places t's one
    value, and the boundary 0 stands for the value after it.  A value's
    record is fixed once its successor is placed, from a per-kind table
    indexed by its cover: the earlier descents (hi, lo) with hi > value > lo,
    one field of `fields` per value, a descent adding a run of ones.  The
    statistics come from their own rules: an ascent is a value placed above
    its predecessor, and a descent (hi, lo) adds the values between lo and hi
    not placed yet, since they all follow it; none are left when the forced
    value is placed.
    """
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    check_size(n, DEFAULT_BOUND)
    last = n - 1  # t's last value is forced there
    close = max(last - 1, 0)  # the depth that places the forced value and finishes the leaf
    width = n.bit_length()  # a cover counts at most n - 1 descents, so never carries
    field = (1 << width) - 1
    bit = [0, *(1 << v for v in range(n))]  # bit[k]: value k in a mask of placed values
    # free_of[m]: the values not in m; the boundary 0 when all are placed (n = 1 only)
    free_of = [tuple(k for k in range(1, n + 1) if not m & bit[k]) or (0,) for m in range(1 << n)]
    runs = [[sum(1 << (width * v) for v in range(lo + 1, hi)) for lo in range(hi)]
            for hi in range(n + 1)]
    spans = [[sum(bit[v] for v in range(lo + 1, hi)) for lo in range(hi)] for hi in range(n + 1)]
    table = {kind: tuple((delta, 1, ypow, c) for c in range(n))
             for kind, (delta, ypow) in _KINDS.items()}
    # indexed by whether the predecessor is larger, then by the cover
    falls = (table[False, False], table[True, False])
    rises = (table[False, True], table[True, True])
    # rec[k]: the record of t's value k, the lift's k + 1.  rec[0] is a scratch slot for the
    # steps of the boundary 0, which stands for the lift's 1; the leaf builds only rec[1:n].
    rec = [None] * (n + 1)
    t = [0] * n  # t[j]: the value of t at position j
    # frames[j]: (placed mask, predecessor, whether it fell, its cover, fields, ascents, 31-2)
    # before depth j places a value.  The boundary 0 is the predecessor at depth 0: its
    # rise to t's first value counts as the ascent that `ascents` sees at position n.
    frames = [(0, 0, False, 0, 0, 0, 0)] + [None] * close
    its = [iter(free_of[0])] + [None] * close  # its[j]: the values depth j has left
    j = 0
    while j >= 0:
        k = next(its[j], 0)
        if not k:  # depth j has placed all its values
            j -= 1
            continue
        m, prev, prev_fell, prev_cover, fields, asc, p312 = frames[j]
        cover = fields >> (k * width) & field
        if prev < k:
            rec[prev] = rises[prev_fell][prev_cover]
            asc += 1
            fell = False
        else:
            rec[prev] = falls[prev_fell][prev_cover]
            fields += runs[prev][k]
            p312 += (spans[prev][k] & ~m).bit_count()
            fell = True
        m |= bit[k]
        if j < close:
            t[j] = k
            j += 1
            frames[j] = (m, k, fell, cover, fields, asc, p312)
            its[j] = iter(free_of[m])
            continue
        after = free_of[m][0]  # the forced last value, or the boundary 0 when n = 1
        if k < after:
            rec[k] = rises[fell][cover]
            asc += 1
            fell = False
        else:
            rec[k] = falls[fell][cover]
            fell = True
        rec[after] = falls[fell][fields >> (after * width) & field]
        t[last], t[j] = after, k  # in this order: when n = 1, j is last and after is 0
        if rec[n] != UNIT_DOWN:
            raise AssertionError("lifted image must close with a down step of weight 1")
        reduced = path_from_steps("large_laguerre", rec[1:n])
        weight = reduced.weight()
        if weight is not _monomial(1, asc - 1, p312):
            raise AssertionError(f"weight property failed for the lift of {tuple(t)}")
        yield tuple(t), reduced, weight


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
