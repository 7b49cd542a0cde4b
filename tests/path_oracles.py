"""Test oracles: the path encodings as first written, one pair per step.

Each step is a (direction letter, weight) pair, the weight a (sign, ypow,
qpow) triple of the FAMILIES table, and each path a list of them, validated
by walking the pairs and weighed by multiplying the step monomials.  The
library stores a path as a tuple of integer records; these functions are
the independent reference the record code is compared with.

lifted_paths is the per-permutation record encoding of a lift, which the
walk bijections.lifted_histories replaced in qeuler verify.
"""

from qeuler import bijections
from qeuler.paths import FAMILIES, UNIT_DOWN, path_from_steps
from qeuler.permutations import ascents, pattern_31_2
from qeuler.poly import ONE, Poly

DELTA = {"U": 1, "D": -1, "F": 0}
UNIT = (1, 0, 0)  # the weight triple of weight 1
Y_UP = (1, 1, 1, 0)  # the record of the up step of weight y, which opens a lifted image


def as_records(items):
    """The (delta, sign, ypow, qpow) records of (direction, weight) pairs."""
    return tuple((DELTA[d], *w) for d, w in items)


def as_items(path):
    """The (direction, weight) pairs of a library path."""
    letter = {delta: d for d, delta in DELTA.items()}
    return [(letter[delta], tuple(w)) for delta, *w in path.records]


def validate(family, items):
    """Walk the pairs against the family table; raise ValueError on a violation."""
    fam = FAMILIES[family]
    h = 0
    for d, w in items:
        if w not in {"U": fam.up, "D": fam.down, "F": fam.flat}[d](h):
            raise ValueError(f"step {d}{w} violates {family} weight rule")
        h += DELTA[d]
        if h < 0:
            raise ValueError("path dips below height 0")
    if h != 0 and fam.closed:
        raise ValueError(f"closed family path ends at height {h}")
    return items


def francon_viennot(t):
    """The Laguerre history of t, value by value, 31-2 counts by a generator."""
    n = len(t)
    position_of = [0] * (n + 2)
    for pos, v in enumerate(t, start=1):
        position_of[v] = pos

    def img(i):
        if i == 0:
            return 0
        if i == n + 1:
            return n + 1
        return t[i - 1]

    items = []
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
        items.append((direction, (1, delta, exp)))
    validate("laguerre", items)
    weight = ONE
    for _, w in items:
        weight = weight * Poly.monomial(*w)
    if weight != Poly.monomial(1, ascents(t), pattern_31_2(t)):
        raise AssertionError(f"weight property failed for {t}")
    return items


def lifted_francon_viennot(t):
    """(full image of the lift, trimmed large Laguerre history), as pair lists."""
    lifted = tuple(v + 1 for v in t) + (1,)
    if ascents(lifted) != ascents(t) or pattern_31_2(lifted) != pattern_31_2(t):
        raise AssertionError(f"lift changed the statistics of {t}")
    full = francon_viennot(lifted)
    if full[0] != ("U", (1, 1, 0)) or full[-1] != ("D", UNIT):
        raise AssertionError("lifted image must open with U weight y and close with D weight 1")
    return full, validate("large_laguerre", full[1:-1])


def lifted_paths(p):
    """(full image of the lift of p, trimmed large Laguerre history) as library paths.

    lift_append_one checks that the lift keeps the statistics of p and
    francon_viennot checks the weight; both trimmed ends are checked here.
    """
    full = bijections.francon_viennot(bijections.lift_append_one(p))
    records = full.records
    if records[0] != Y_UP:
        raise AssertionError("lifted image must open with an up step of weight y")
    if records[-1] != UNIT_DOWN:
        raise AssertionError("lifted image must close with a down step of weight 1")
    return full, path_from_steps("large_laguerre", records[1:-1])


def maximal_unit_factors(items):
    """[a, b) spans of the maximal balanced all-unit factors, greedy from the left."""
    n = len(items)
    factors = []
    pos = 0
    while pos < n:
        h = 0
        best = -1
        j = pos
        while j < n and items[j][1] == UNIT:
            h += DELTA[items[j][0]]
            j += 1
            if h < 0:
                break
            if h == 0:
                best = j
        if best > pos:
            factors.append((pos, best))
            pos = best
        else:
            pos += 1
    return factors


def penaud_decompose(family, items):
    """(left factor, core) of a signed Dyck path, as pair lists."""
    in_factor = [False] * len(items)
    for a, b in maximal_unit_factors(items):
        for i in range(a, b):
            in_factor[i] = True
    left, core = [], []
    for flag, (d, w) in zip(in_factor, items):
        if flag:
            left.append((d, UNIT))
        else:
            left.append(("U", UNIT))
            core.append((d, w))
    return validate("left_factor", left), validate(family, core)
