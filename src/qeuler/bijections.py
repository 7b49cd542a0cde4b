"""The Francon-Viennot encoding of permutations as weighted Motzkin paths.

The value k of a permutation determines the kth step: valleys rise, peaks
fall, double ascents and double descents stay flat (all with the boundary
convention sigma(0) = 0, sigma(n+1) = n+1).  The step weight is y^delta q^i
where delta marks an ascent position and i counts the 31-2 patterns whose
"2" sits at that position, so the total path weight is y^asc q^(31-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .paths import UNIT_WEIGHT, Weight, WeightedPath, path_from_steps, step_weight
from .permutations import Permutation, ascents, pattern_31_2, _images
from .poly import Poly


@dataclass(frozen=True)
class FVImage:
    """A Laguerre-history image tagged with its source permutation size."""

    path: WeightedPath
    size: int


def francon_viennot(p: Sequence[int] | Permutation) -> FVImage:
    """Encode a permutation of size n >= 1 as a Laguerre history of n steps."""
    t = _images(p)
    n = len(t)
    if n < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    position_of = [0] * (n + 2)
    for pos, v in enumerate(t, start=1):
        position_of[v] = pos

    def img(i: int) -> int:
        if i == 0:
            return 0
        if i == n + 1:
            return n + 1
        return t[i - 1]

    items: list[tuple[str, Weight]] = []
    for k in range(1, n + 1):
        j = position_of[k]
        before, after = img(j - 1), img(j + 1)
        if before > k < after:
            direction = "U"
        elif before < k > after:
            direction = "D"
        else:
            direction = "F"
        delta = 1 if k < after else 0
        exp = sum(1 for u in range(1, j - 1) if t[u - 1] > k > t[u])
        items.append((direction, step_weight(1, delta, exp)))
    path = path_from_steps("laguerre", items)
    if path.weight() != Poly.monomial(1, ascents(t), pattern_31_2(t)):
        raise AssertionError(f"weight property failed for {t}")
    return FVImage(path, n)


def lift_append_one(p: Sequence[int] | Permutation) -> tuple[int, ...]:
    """Shift all values up by one and append the value 1 at the end.

    The lift preserves both the ascent count and the 31-2 count (asserted).
    """
    t = _images(p)
    lifted = tuple(v + 1 for v in t) + (1,)
    if ascents(lifted) != ascents(t) or pattern_31_2(lifted) != pattern_31_2(t):
        raise AssertionError(f"lift changed the statistics of {t}")
    return lifted


def lifted_francon_viennot(p: Sequence[int] | Permutation) -> tuple[FVImage, WeightedPath]:
    """Encode the lifted permutation; also return the trimmed inner path.

    The full image starts with an up step of weight y and ends with a down
    step of weight 1; removing both and shifting the origin down by one
    yields a valid large Laguerre history of the original size.
    """
    t = _images(p)
    if len(t) < 1:
        raise ValueError("the encoding needs a nonempty permutation")
    full = francon_viennot(lift_append_one(t))
    steps = full.path.steps
    first, last = steps[0], steps[-1]
    if first.direction != "U" or first.weight != step_weight(1, 1, 0):
        raise AssertionError("lifted image must open with an up step of weight y")
    if last.direction != "D" or last.weight != UNIT_WEIGHT:
        raise AssertionError("lifted image must close with a down step of weight 1")
    reduced = path_from_steps(
        "large_laguerre", [(s.direction, s.weight) for s in steps[1:-1]]
    )
    return full, reduced


def saturated_step_free(p: Sequence[int] | Permutation) -> bool:
    """True when no step after the first carries weight y q^h from height h.

    This path condition characterizes the permutations whose last position
    holds the value 1.
    """
    return path_saturated_step_free(francon_viennot(p).path)


def path_saturated_step_free(path: WeightedPath) -> bool:
    """The step test of saturated_step_free on an already encoded path."""
    return not any(s.weight.ypow == 1 and s.weight.qpow == s.start_height for s in path.steps[1:])


def returns_to_zero_early(path: WeightedPath) -> bool:
    """True when the path touches height 0 before its final step."""
    h = 0
    for s in path.steps[:-1]:
        h += {"U": 1, "D": -1, "F": 0}[s.direction]
        if h == 0:
            return True
    return False
