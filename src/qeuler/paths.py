"""Weighted lattice-path engines and continued-fraction coefficient extraction.

One table, FAMILIES, gives each path family's admissible step weights per
direction and start height.  Path validation, the transfer recurrence behind
every closed-family sum, and the explicit enumeration oracle for small sizes
all read it.  Schroeder flat steps span two length units so that "length 2k"
matches the t-degree accounting of the associated T-fractions.

A step weight is a (sign, ypow, qpow) triple standing for the monomial
sign * y**ypow * q**qpow; the table lists triples and the transfer makes
them monomials.  A path holds its steps as one tuple of small integer
records (delta, sign, ypow, qpow): delta, +1 up, -1 down and 0 flat,
followed by the weight triple.  Start heights are derived.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import check_size
from .poly import ONE, ZERO, Poly, poly_dot, poly_sum, q_integer

_DIRECTION = {1: "U", -1: "D", 0: "F"}


class CheckedTuple:
    """Mixin, listed before the named-tuple base, for a tuple whose __new__ checks its fields.

    The named tuple's own _make, which _replace calls, builds through
    tuple.__new__ and would skip the check; this one builds through the class.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# -- the family table ---------------------------------------------------------

# A step weight: (sign, ypow, qpow), the monomial sign * y**ypow * q**qpow.
Monomial = tuple[int, int, int]

_UNIT: Monomial = (1, 0, 0)  # weight 1


def _qint(n: int, ypow: int = 0, shift: int = 0) -> tuple[Monomial, ...]:
    """The monomials of y**ypow q**shift [n]: y**ypow q**(shift+i) for i < n."""
    return tuple((1, ypow, shift + i) for i in range(n))


def _signed(qpow: int) -> tuple[Monomial, ...]:
    """A signed-core step: weight 1 or -q**qpow."""
    return (_UNIT, (-1, 0, qpow))


def _no_steps(h: int) -> tuple[Monomial, ...]:
    return ()


class Family(NamedTuple):
    """One path family: the weights allowed on each step from height h.

    up, down and flat map the start height to the admissible weight
    triples, in enumeration order.  Flat steps span flat_length units (2 in the
    Schroeder families, so that length 2k matches the T-fraction t-degree);
    paths of a closed family return to height 0.
    """

    up: Callable[[int], tuple[Monomial, ...]]
    down: Callable[[int], tuple[Monomial, ...]]
    flat: Callable[[int], tuple[Monomial, ...]] = _no_steps
    flat_length: int = 1
    closed: bool = True


def _euler_dyck(delta: int) -> Family:
    return Family(up=lambda h: _qint(h + 1), down=lambda h: _qint(h + delta))


def _signed_core(down_shift: int) -> Family:
    return Family(up=lambda h: _signed(h + 1), down=lambda h: _signed(h + down_shift))


def _schroder(core: Family) -> Family:
    return core._replace(flat=lambda h: ((-1, 0, 0),), flat_length=2)


# Laguerre histories: up y[h+1], flat [h] + y[h+1], down [h] (Francon-Viennot);
# the signed cores and their Schroeder forms follow Penaud.
FAMILIES: dict[str, Family] = {
    "laguerre": Family(
        up=lambda h: _qint(h + 1, 1),
        down=lambda h: _qint(h),
        flat=lambda h: _qint(h) + _qint(h + 1, 1),
    ),
    "large_laguerre": Family(
        up=lambda h: _qint(h + 1, 1),
        down=lambda h: _qint(h + 1),
        flat=lambda h: _qint(h + 1) + _qint(h + 1, 1),
    ),
    "euler_dyck_0": _euler_dyck(0),
    "euler_dyck_1": _euler_dyck(1),
    "touchard_dyck": Family(up=lambda h: (_UNIT,), down=lambda h: _qint(h)),
    "derangement_motzkin": Family(
        up=lambda h: _qint(h + 1, 1),
        down=lambda h: _qint(h),
        flat=lambda h: _qint(h) + _qint(h, 1, 1),
    ),
    "secant_core": _signed_core(0),
    "tangent_core": _signed_core(1),
    "schroder_secant": _schroder(_signed_core(0)),
    "schroder_tangent": _schroder(_signed_core(1)),
    "left_factor": Family(up=lambda h: (_UNIT,), down=lambda h: (_UNIT,), closed=False),
}


# A step record: (delta, sign, ypow, qpow), delta +1 up, -1 down, 0 flat.
Record = tuple[int, int, int, int]

UNIT_UP: Record = (1, 1, 0, 0)
UNIT_DOWN: Record = (-1, 1, 0, 0)


@cache
def _records(family: str, delta: int, h: int) -> tuple[Record, ...]:
    """The step records of the family from height h, in enumeration order."""
    fam = FAMILIES[family]
    return tuple((delta, *w) for w in {1: fam.up, -1: fam.down, 0: fam.flat}[delta](h))


@cache
def _allowed(family: str, steps: int) -> tuple[frozenset[Record], ...]:
    """Indexed by h: every record a step of the family may be from height h,
    for the heights h < steps that a path of that many steps can start a step at."""
    return tuple(
        frozenset(r for delta in (1, -1, 0) for r in _records(family, delta, h))
        for h in range(steps)
    )


class WeightedPath(NamedTuple):
    """A path as one tuple of step records; start heights are derived.

    Build it with path_from_steps, which validates the records.
    """

    records: tuple[Record, ...]
    family: str

    def heights(self) -> list[int]:
        """The start height of each step."""
        out = []
        h = 0
        for r in self.records:
            out.append(h)
            h += r[0]
        return out

    def exponents(self) -> tuple[int, int, int]:
        """(sign, y exponent, q exponent) of the path weight: the step signs
        multiplied, the step exponents added."""
        sign, ypow, qpow = 1, 0, 0
        for _, s, y, q in self.records:
            sign *= s
            ypow += y
            qpow += q
        return sign, ypow, qpow

    def weight(self) -> Poly:
        """The product of the step monomials, one monomial of the summed exponents."""
        return Poly.monomial(*self.exponents())

    def shape(self) -> str:
        return "".join(_DIRECTION[r[0]] for r in self.records)

    def has_flat(self) -> bool:
        return any(r[0] == 0 for r in self.records)

    def dump(self) -> str:
        """Each step as its direction letter and [sign,ypow,qpow], e.g. U[+1,1,0]."""
        return " ".join(f"{_DIRECTION[d]}[{s:+d},{y},{q}]" for d, s, y, q in self.records)


def path_from_steps(family: str, records: Iterable[Record]) -> WeightedPath:
    """Build a path of the family from (delta, sign, ypow, qpow) records.

    One pass checks each record against the records allowed from its start
    height, that the path never dips below 0 and that a closed family's path
    returns to 0; any violation raises ValueError.
    """
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown path family {family!r}")
    records = tuple(records)
    allowed = _allowed(family, len(records))
    h = 0
    for r in records:
        if r not in allowed[h]:
            raise ValueError(f"step {r} from height {h} violates {family} weight rule")
        h += r[0]
        if h < 0:
            raise ValueError("path dips below height 0")
    if h != 0 and fam.closed:
        raise ValueError(f"closed family path ends at height {h}")
    return WeightedPath(records, family)


# -- the transfer sum -----------------------------------------------------------


@cache
def _step_sums(family: str, delta: int, h: int, restricted: bool) -> tuple[tuple[Poly, bool], ...]:
    """Summed weights of the steps from height h, as (polynomial, is unit) pairs.

    When restricted, the unit weight is split off from the others so that the
    transfer can forbid a unit down step right after a unit up step.
    """
    weights = [r[1:] for r in _records(family, delta, h)]
    if restricted:
        parts = [
            (poly_sum(Poly.monomial(*w) for w in weights if w == _UNIT), True),
            (poly_sum(Poly.monomial(*w) for w in weights if w != _UNIT), False),
        ]
    else:
        parts = [(poly_sum(Poly.monomial(*w) for w in weights), False)]
    return tuple((p, unit) for p, unit in parts if not p.is_zero)


def family_sums(family: str, length: int, restricted: bool) -> list[Poly]:
    """Total weight of the closed paths of a family of every length 0..length, in units.

    Layer u holds the paths of u units keyed by (height, last step was a unit
    up step), as the pairs (path weight, step weight) whose products sum to
    it; each key is summed by one poly_dot when its layer is reached.  The
    height cap of the longest length keeps every path that can still close
    by then, so each shorter closed sum is read off the same pass.  With
    restricted=True a unit down step never follows a unit up step (the
    core-family condition).
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    flat_length = FAMILIES[family].flat_length
    pending: list[defaultdict[tuple[int, bool], list[tuple[Poly, Poly]]]] = [
        defaultdict(list) for _ in range(length + 1)
    ]
    pending[0][0, False].append((ONE, ONE))
    sums = []
    for u in range(length + 1):
        layer = {key: poly_dot(pairs) for key, pairs in pending[u].items()}
        sums.append(layer.get((0, False), ZERO))
        for (h, unit_up), val in layer.items():
            for d, ln in ((1, 1), (-1, 1), (0, flat_length)):
                nh = h + d
                if nh < 0 or nh > length - u - ln:
                    continue
                for w, unit in _step_sums(family, d, h, restricted):
                    if not (unit and unit_up and d == -1):
                        pending[u + ln][nh, unit and d == 1].append((val, w))
    return sums


def family_sum(family: str, length: int, restricted: bool = False) -> Poly:
    """Total weight of the closed paths of a family, length in units."""
    return family_sums(family, length, restricted)[-1]


def euler_dyck_sum(n: int, delta: int) -> Poly:
    """Sum over weighted Dyck paths of length 2n under the delta rule.

    Up steps from height h contribute q**i for i in 0..h, down steps q**i
    for i in 0..h-1+delta; the total equals the q-Euler number E(2n+delta).
    """
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    check_size(n)
    return family_sum(f"euler_dyck_{delta}", 2 * n)


def touchard_dyck_sum(n: int) -> Poly:
    """Dyck paths of length 2n with unit up steps and down steps q**i, i < h."""
    check_size(n)
    return family_sum("touchard_dyck", 2 * n)


def laguerre_sum(n: int) -> Poly:
    """Total weight of all Laguerre histories of size n (n Motzkin steps)."""
    check_size(n)
    return family_sum("laguerre", n)


def large_laguerre_sum(n: int) -> Poly:
    """Total weight of large Laguerre histories of size n (n - 1 steps)."""
    if n < 1:
        raise ValueError("large Laguerre histories have size >= 1")
    return family_sum("large_laguerre", n - 1)


def derangement_motzkin_sum(n: int) -> Poly:
    """Motzkin paths of length n with up y[h+1], flat (1+yq)[h], down [h]."""
    check_size(n)
    return family_sum("derangement_motzkin", n)


def secant_core_path_sum(k: int) -> Poly:
    """Signed Dyck paths of length 2k, up 1 or -q**(h+1), down 1 or -q**h,
    with no unit up step followed by a unit down step."""
    check_size(k, what="k")
    return family_sum("secant_core", 2 * k, restricted=True)


def tangent_core_path_sum(k: int) -> Poly:
    """As secant_core_path_sum with down weights 1 or -q**(h+1)."""
    check_size(k, what="k")
    return family_sum("tangent_core", 2 * k, restricted=True)


def schroder_signed_sum(k: int, variant: str) -> Poly:
    """Signed Schroeder paths of length 2k; flat steps weigh -1 and span 2 units."""
    if variant not in ("secant", "tangent"):
        raise ValueError("variant must be 'secant' or 'tangent'")
    check_size(k, what="k")
    return family_sum(f"schroder_{variant}", 2 * k)


# -- continued fractions -------------------------------------------------------


class CFSpec(CheckedTuple, NamedTuple("CFSpec", [("kind", str), ("level_weight", Callable[[int], Poly])])):
    """A J- or T-fraction given by its level-weight function.

    level_weight(h) is the coefficient at nesting depth h, h = 0 outermost:
    J-fractions expand 1/(1 - w(0) x / (1 - w(1) x / ...)) and T-fractions
    1/(1 + t - w(0) t / (1 + t - w(1) t / ...)).
    """

    __slots__ = ()

    def __new__(cls, kind: str, level_weight: Callable[[int], Poly]) -> CFSpec:
        if kind not in ("J", "T"):
            raise ValueError("kind must be 'J' or 'T'")
        return tuple.__new__(cls, (kind, level_weight))


def _wallis_step(cur: list[Poly], prev: list[Poly], minus_w: Poly, shift: bool) -> list[Poly]:
    """b * cur - w * x * prev, truncated: one Euler-Wallis step, given -w."""
    out = [cur[0]]
    for m in range(1, len(cur)):
        pairs = [(ONE, cur[m]), (minus_w, prev[m - 1])]
        if shift:
            pairs.append((ONE, cur[m - 1]))
        out.append(poly_dot(pairs))
    return out


def cf_series(spec: CFSpec, n_max: int, depth: int | None = None) -> list[Poly]:
    """Coefficients of x**0..x**n_max of the truncated continued fraction.

    Truncation depth defaults to n_max + 1 with tail 1, which is exact
    because level h first contributes at order h + 1.

    The fraction 1/(b + a_2/(b + ... + a_{depth+1}/1)), with b = 1 (J) or
    1 + x (T) and a_{h+2} = -w(h) x, is the last Euler-Wallis convergent
    A/B; both are kept as x-series truncated at n_max and divided once,
    which works because B has constant term 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    depth = n_max + 1 if depth is None else depth
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    t_fraction = spec.kind == "T"
    unit = [ONE] + [ZERO] * n_max
    # A_0 = 0, A_1 = 1; B_0 = 1, B_1 = b_1, the tail 1 when depth is 0.
    num_prev, num = [ZERO] * (n_max + 1), unit
    den_prev, den = unit, list(unit)
    if t_fraction and depth > 0 and n_max:
        den[1] = ONE  # b_1 = 1 + x
    for h in range(depth):
        minus_w = -spec.level_weight(h)
        shift = t_fraction and h < depth - 1
        num_prev, num = num, _wallis_step(num, num_prev, minus_w, shift)
        den_prev, den = den, _wallis_step(den, den_prev, minus_w, shift)
    minus_den = [-d for d in den]
    g: list[Poly] = []
    for m, acc in enumerate(num):
        g.append(poly_dot([(ONE, acc)] + [(minus_den[r], g[m - r]) for r in range(1, m + 1)]))
    return g


def tangent_cf_spec() -> CFSpec:
    return CFSpec("J", lambda h: q_integer(h + 1) * q_integer(h + 2))


def secant_cf_spec() -> CFSpec:
    return CFSpec("J", lambda h: q_integer(h + 1) * q_integer(h + 1))


def secant_core_cf_spec() -> CFSpec:
    return CFSpec("T", lambda h: (ONE - Poly.monomial(1, 0, h + 1)) ** 2)


def tangent_core_cf_spec() -> CFSpec:
    return CFSpec(
        "T", lambda h: (ONE - Poly.monomial(1, 0, h + 1)) * (ONE - Poly.monomial(1, 0, h + 2))
    )


# -- explicit enumeration (independent oracle, exponential) ---------------------


def enumerate_dyck_shapes(length: int, final_height: int = 0) -> Iterator[str]:
    """All U/D strings of the given length staying >= 0, ending at final_height."""
    def rec(prefix: list[str], h: int, rem: int) -> Iterator[str]:
        if abs(h - final_height) > rem:
            return
        if rem == 0:
            yield "".join(prefix)
            return
        prefix.append("U")
        yield from rec(prefix, h + 1, rem - 1)
        prefix.pop()
        if h >= 1:
            prefix.append("D")
            yield from rec(prefix, h - 1, rem - 1)
            prefix.pop()
    yield from rec([], 0, length)


@cache
def _moves(family: str, h: int, rem: int) -> tuple[tuple[Record, int, int], ...]:
    """(record, next height, units left) for every step of the family from
    height h after which a closed path can still end within rem units."""
    flat_len = FAMILIES[family].flat_length
    out = []
    for delta in (1, -1, 0):
        ln = flat_len if delta == 0 else 1
        nh = h + delta
        if ln <= rem and 0 <= nh <= rem - ln:
            out += [(r, nh, rem - ln) for r in _records(family, delta, h)]
    return tuple(out)


def enumerate_family(family: str, length: int, restricted: bool = False) -> Iterator[WeightedPath]:
    """Materialize every weighted path of a closed family, length in units.

    With restricted=True, paths containing an up-down pair of consecutive
    steps both weighted 1 are skipped (the core-family condition).  The walk
    is depth first with one iterator of moves per step of the prefix.
    """
    if length == 0:
        yield path_from_steps(family, ())
        return
    prefix: list[Record] = []
    stack = [iter(_moves(family, 0, length))]
    while stack:
        for r, nh, rem in stack[-1]:
            if restricted and r == UNIT_DOWN and prefix and prefix[-1] == UNIT_UP:
                continue
            if rem == 0:
                yield path_from_steps(family, (*prefix, r))
                continue
            prefix.append(r)
            stack.append(iter(_moves(family, nh, rem)))
            break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def family_sum_by_enumeration(family: str, length: int, restricted: bool = False) -> Poly:
    return poly_sum(p.weight() for p in enumerate_family(family, length, restricted))


# -- the secant/tangent path decomposition --------------------------------------


def _maximal_unit_factors(path: WeightedPath) -> list[tuple[int, int]]:
    """Maximal contiguous balanced all-unit-weight Dyck factors of the path.

    A factor [a, b) is balanced, never dips below its starting height, and
    every step in it has weight exactly 1.  Maximal factors are pairwise
    disjoint, so a greedy left-to-right scan that always takes the longest
    factor starting at the current position finds exactly all of them.
    """
    records = path.records
    n = len(records)
    factors: list[tuple[int, int]] = []
    pos = 0
    while pos < n:
        h = 0
        best = -1
        j = pos
        while j < n and records[j][1:] == _UNIT:
            h += records[j][0]
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


def penaud_decompose(path: WeightedPath) -> tuple[WeightedPath, WeightedPath]:
    """Split a signed Dyck path into (left factor, restricted core).

    Steps inside maximal all-unit Dyck factors keep their direction in the
    left factor; every other step becomes an up step there.  The core is
    the path of surviving (non-factor) steps with their original weights;
    removed factors are balanced, so surviving steps keep their heights and
    remain admissible in the same family.
    """
    if path.family not in ("secant_core", "tangent_core"):
        raise ValueError("decomposition applies to the signed Dyck families")
    records = path.records
    in_factor = [False] * len(records)
    for a, b in _maximal_unit_factors(path):
        in_factor[a:b] = [True] * (b - a)
    # a factor step is a unit step, so its record is already a left-factor record
    left = [r if flag else UNIT_UP for flag, r in zip(in_factor, records)]
    core = [r for flag, r in zip(in_factor, records) if not flag]
    return path_from_steps("left_factor", left), path_from_steps(path.family, core)
