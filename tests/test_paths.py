"""Transfer sums, continued fractions, enumeration oracle, decomposition."""

import math
import re

import pytest
from hypothesis import given, strategies as st

import path_oracles as oracle
import qeuler.paths as pa
import qeuler.verify as verify
from qeuler.closedforms import ballot, secant_core_closed, tangent_core_closed
from qeuler.paths import (
    FAMILIES,
    CFSpec,
    WeightedPath,
    cf_series,
    derangement_motzkin_sum,
    enumerate_family,
    euler_dyck_sum,
    family_sum,
    family_sum_by_enumeration,
    family_sums,
    laguerre_sum,
    large_laguerre_sum,
    path_from_steps,
    penaud_decompose,
    schroder_signed_sum,
    secant_core_cf_spec,
    secant_core_path_sum,
    tangent_cf_spec,
    secant_cf_spec,
    tangent_core_cf_spec,
    tangent_core_path_sum,
    touchard_dyck_sum,
)
from qeuler.permutations import (
    alternating_31_2_poly,
    involution_crossing_poly,
    q_derangement_poly,
    q_eulerian_poly,
)
from qeuler.poly import ONE, Q, Y, ZERO, Poly, poly_dot, poly_sum, q_integer


def test_euler_dyck_values():
    assert euler_dyck_sum(1, 1) == ONE + Q
    assert euler_dyck_sum(0, 0) == ONE and euler_dyck_sum(0, 1) == ONE
    assert euler_dyck_sum(2, 0) == Poly({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    for n in range(4):
        assert euler_dyck_sum(n, 1) == alternating_31_2_poly(2 * n + 1)
        assert euler_dyck_sum(n, 0) == alternating_31_2_poly(2 * n)


def test_laguerre_history_sums():
    assert laguerre_sum(1) == Y
    assert laguerre_sum(2) == Y + Y**2
    assert laguerre_sum(6).evaluate(1, 1) == 720
    for n in range(7):
        assert laguerre_sum(n) == q_eulerian_poly(n)
    for n in range(1, 8):
        assert large_laguerre_sum(n).evaluate(1, 1) == math.factorial(n)


def test_derangement_motzkin_sums():
    assert derangement_motzkin_sum(1).is_zero
    assert derangement_motzkin_sum(2) == Y
    assert derangement_motzkin_sum(3) == Y + Y**2 * Q
    for n in range(8):
        assert derangement_motzkin_sum(n) == q_derangement_poly(n)


def test_cf_series_examples():
    out = cf_series(tangent_cf_spec(), 2)
    assert out == [ONE, ONE + Q, Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1})]
    catalan = cf_series(CFSpec("J", lambda h: ONE), 4)
    assert [p.evaluate(1, 1) for p in catalan] == [1, 1, 2, 5, 14]
    assert cf_series(secant_core_cf_spec(), 1)[1] == Q**2 - 2 * Q


def test_cf_series_depth_stability():
    for spec in (tangent_cf_spec(), secant_cf_spec(), secant_core_cf_spec(), tangent_core_cf_spec()):
        base = cf_series(spec, 9)
        assert base == cf_series(spec, 9, depth=10)
        assert base == cf_series(spec, 9, depth=11)
        assert base == cf_series(spec, 9, depth=14)


def bottom_up_cf_series(spec, n_max, depth=None):
    """Test oracle: the fraction evaluated inside out, one series inversion per level.

    f = 1 (the tail), then f <- 1/(b - w(h) x f) for h = depth-1 .. 0, with
    b = 1 for a J-fraction and 1 + x for a T-fraction; O(n^3) Poly products.
    """
    depth = n_max + 1 if depth is None else depth
    f = [ONE] + [ZERO] * n_max
    for level in reversed(range(depth)):
        w = spec.level_weight(level)
        d = [ONE] + [-(w * f[m - 1]) for m in range(1, n_max + 1)]
        if spec.kind == "T" and n_max >= 1:
            d[1] = d[1] + ONE
        f = [ONE] + [ZERO] * n_max
        for m in range(1, n_max + 1):
            f[m] = -poly_sum(d[r] * f[m - r] for r in range(1, m + 1))
    return f


BUILTIN_CF_SPECS = (tangent_cf_spec, secant_cf_spec, secant_core_cf_spec, tangent_core_cf_spec)


def test_cf_series_matches_bottom_up_oracle():
    """Every depth from 0 to n_max + 3, so T-fractions are checked below n_max + 1 too."""
    for make_spec in BUILTIN_CF_SPECS:
        spec = make_spec()
        for n_max in range(8):
            for depth in range(n_max + 4):
                assert cf_series(spec, n_max, depth) == bottom_up_cf_series(spec, n_max, depth), (
                    make_spec.__name__, n_max, depth,
                )
            assert cf_series(spec, n_max) == bottom_up_cf_series(spec, n_max)


laurent_polys = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-5, 5)),
    max_size=4,
).map(Poly)


@given(
    kind=st.sampled_from("JT"),
    weights=st.lists(laurent_polys, min_size=6, max_size=6),
    n_max=st.integers(0, 4),
    depth=st.integers(0, 6),
)
def test_cf_series_matches_oracle_on_random_specs(kind, weights, n_max, depth):
    spec = CFSpec(kind, weights.__getitem__)
    assert cf_series(spec, n_max, depth) == bottom_up_cf_series(spec, n_max, depth)


def test_cf_series_product_count(monkeypatch):
    """The convergent recurrence makes O(n^2) Poly products; inverting per level made 1,208."""
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    cf_series(tangent_cf_spec(), 12, depth=14)
    assert 0 < len(calls) <= 400


def test_cf_series_rejects_negative_bounds():
    with pytest.raises(ValueError):
        cf_series(tangent_cf_spec(), -1)
    for make_spec in BUILTIN_CF_SPECS:
        with pytest.raises(ValueError):
            cf_series(make_spec(), 3, depth=-1)


def test_cf_matches_transfer():
    tangent = cf_series(tangent_cf_spec(), 8)
    secant = cf_series(secant_cf_spec(), 8)
    for n in range(9):
        assert tangent[n] == euler_dyck_sum(n, 1)
        assert secant[n] == euler_dyck_sum(n, 0)


def test_core_path_sums():
    assert secant_core_path_sum(0) == ONE
    assert secant_core_path_sum(1) == Q**2 - 2 * Q
    assert tangent_core_path_sum(1) == -Q - Q**2 + Q**3
    assert secant_core_path_sum(9) == secant_core_closed(9)
    assert tangent_core_path_sum(9) == tangent_core_closed(9)


def test_schroder_sums():
    assert schroder_signed_sum(0, "secant") == ONE
    assert schroder_signed_sum(1, "secant") == Q**2 - 2 * Q
    assert schroder_signed_sum(2, "secant") == 2 * Q**2 - 2 * Q**5 + Q**6
    for k in range(7):
        assert schroder_signed_sum(k, "secant") == secant_core_path_sum(k)
        assert schroder_signed_sum(k, "tangent") == tangent_core_path_sum(k)
    with pytest.raises(ValueError):
        schroder_signed_sum(1, "other")


def test_ballot_numbers_count_left_factors():
    # ballot(m, k) counts the left factors with m steps ending at height m % 2 + 2k;
    # the odd m are the ones the q-tangent closed form uses.
    assert ballot(2, 0) == 1 and ballot(4, 1) == 3 and ballot(4, 3) == 0 and ballot(3, 1) == 1
    for m in range(13):
        for k in range(m // 2 + 2):
            end = m % 2 + 2 * k
            left = list(enumerate_family("left_factor", m, end))
            assert ballot(m, k) == len(left), (m, k)
            assert all(sum(r[0] for r in path.records) == end for path in left), (m, k)
    for m, k in ((-1, 0), (-2, 0), (4, -1), (3, -2)):
        with pytest.raises(ValueError):
            ballot(m, k)


def test_touchard_path_family():
    for n in range(5):
        assert touchard_dyck_sum(n) == involution_crossing_poly(2 * n)


def test_enumeration_oracle_matches_transfer():
    for n in range(5):
        assert family_sum_by_enumeration("euler_dyck_1", 2 * n) == euler_dyck_sum(n, 1)
        assert family_sum_by_enumeration("euler_dyck_0", 2 * n) == euler_dyck_sum(n, 0)
        assert family_sum_by_enumeration("touchard_dyck", 2 * n) == touchard_dyck_sum(n)
    for n in range(6):
        assert family_sum_by_enumeration("laguerre", n) == laguerre_sum(n)
        assert family_sum_by_enumeration("derangement_motzkin", n) == derangement_motzkin_sum(n)
        if n >= 1:
            assert family_sum_by_enumeration("large_laguerre", n - 1) == large_laguerre_sum(n)
    for k in range(4):
        assert family_sum_by_enumeration("secant_core", 2 * k, restricted=True) == secant_core_path_sum(k)
        assert family_sum_by_enumeration("tangent_core", 2 * k, restricted=True) == tangent_core_path_sum(k)
        assert family_sum_by_enumeration("schroder_secant", 2 * k) == secant_core_path_sum(k)
        assert family_sum_by_enumeration("schroder_tangent", 2 * k) == tangent_core_path_sum(k)


@pytest.mark.parametrize("restricted", [False, True], ids=["all", "restricted"])
@pytest.mark.parametrize("family", [f for f, fam in FAMILIES.items() if fam.closed])
def test_one_pass_holds_every_shorter_closed_sum(family, restricted):
    sums = family_sums(family, 12, restricted)
    assert len(sums) == 13
    for length, total in enumerate(sums):
        assert total == family_sum(family, length, restricted), length
        if length <= 6:
            assert total == family_sum_by_enumeration(family, length, restricted), length


@pytest.mark.parametrize("family", ["euler_dyck_0", "euler_dyck_1"])
def test_cf_coefficients_compares_every_order_of_the_one_pass(family, monkeypatch):
    n_max = 6
    row = verify.AGREEMENTS["cf_coefficients"]
    assert verify._agree(row, n_max)[0]
    one_pass = pa.family_sums
    for n in range(n_max + 1):
        def perturbed(fam, length, restricted, n=n):
            sums = one_pass(fam, length, restricted)
            if fam == family:
                sums[2 * n] += Q
            return sums

        monkeypatch.setattr(pa, "family_sums", perturbed)
        assert verify._agree(row, n_max) == (False, f"paths differs from fraction at entry {n}")


@pytest.mark.parametrize("build", [
    lambda: CFSpec("J", lambda h: ONE)._replace(kind="S"),
    lambda: CFSpec._make(("S", lambda h: ONE)),
], ids=["cfspec-replace", "cfspec-make"])
def test_a_copy_of_a_checked_value_is_checked(build):
    with pytest.raises(ValueError, match=r"^kind must be"):
        build()
    spec = CFSpec("J", lambda h: ONE)
    assert spec._replace(kind="T") == CFSpec("T", spec.level_weight)


def test_family_table_step_sums():
    """Each family's options sum to its q-integer step weight (heights 0..6)."""
    def summed(family, direction, h):
        fam = FAMILIES[family]
        options = {"U": fam.up, "D": fam.down, "F": fam.flat}[direction](h)
        return poly_sum(Poly.monomial(*w) for w in options)

    qi = q_integer
    for h in range(7):
        core_up = ONE - Q ** (h + 1)
        expected = {
            "laguerre": (Y * qi(h + 1), qi(h), Y * qi(h + 1) + qi(h)),
            "large_laguerre": (Y * qi(h + 1), qi(h + 1), (ONE + Y) * qi(h + 1)),
            "derangement_motzkin": (Y * qi(h + 1), qi(h), (ONE + Y * Q) * qi(h)),
            "euler_dyck_0": (qi(h + 1), qi(h), ZERO),
            "euler_dyck_1": (qi(h + 1), qi(h + 1), ZERO),
            "touchard_dyck": (ONE, qi(h), ZERO),
            "secant_core": (core_up, ONE - Q**h, ZERO),
            "tangent_core": (core_up, ONE - Q ** (h + 1), ZERO),
            "schroder_secant": (core_up, ONE - Q**h, -ONE),
            "schroder_tangent": (core_up, ONE - Q ** (h + 1), -ONE),
            "left_factor": (ONE, ONE, ZERO),
        }
        assert set(expected) == set(FAMILIES)
        for family, sums in expected.items():
            assert tuple(summed(family, d, h) for d in "UDF") == sums, (family, h)
    assert {f for f, fam in FAMILIES.items() if fam.flat_length == 2} == {"schroder_secant", "schroder_tangent"}
    assert {f for f, fam in FAMILIES.items() if not fam.closed} == {"left_factor"}


def test_path_weight_is_product_of_step_monomials():
    """weight() adds exponents; a plain Poly product of the step monomials is the oracle."""
    for family, fam in FAMILIES.items():
        if not fam.closed:
            continue
        for length in range(7):  # length 0 yields the empty path
            for restricted in (False, True) if family.endswith("_core") else (False,):
                for path in enumerate_family(family, length, restricted=restricted):
                    product = ONE
                    for _, *w in path.records:
                        product = product * Poly.monomial(*w)
                    assert path.weight() == product, (family, path.dump())
    assert WeightedPath((), "laguerre").weight() == ONE


def test_family_table_weights_are_monomials():
    """Every weight of the table is a (sign, ypow, qpow) triple: sign +-1, ypow 0 or 1, qpow >= 0."""
    for family, fam in FAMILIES.items():
        for h in range(12):
            for w in fam.up(h) + fam.down(h) + fam.flat(h):
                assert type(w) is tuple and len(w) == 3, (family, h, w)
                sign, ypow, qpow = w
                assert sign in (1, -1) and ypow in (0, 1) and qpow >= 0, (family, h, w)


@pytest.mark.parametrize("build, message", [
    (lambda: CFSpec("K", lambda h: ONE), "kind must be 'J' or 'T'"),
])
def test_value_types_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


Y_UP, UNIT_UP_R, UNIT_DOWN_R = (1, 1, 1, 0), (1, 1, 0, 0), (-1, 1, 0, 0)


def test_paths_are_immutable():
    p = path_from_steps("laguerre", [Y_UP, UNIT_DOWN_R])
    for field in ("records", "family", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, field, ())
    assert p.records == (Y_UP, UNIT_DOWN_R) and p.family == "laguerre"


def test_path_validation_and_dump():
    p = path_from_steps("laguerre", [Y_UP, UNIT_DOWN_R])
    assert p.dump() == "U[+1,1,0] D[+1,0,0]"
    assert p.weight() == Y
    assert p.heights() == [0, 1]
    with pytest.raises(ValueError):
        path_from_steps("laguerre", [UNIT_DOWN_R])
    with pytest.raises(ValueError):  # down from height 1 may not carry q
        path_from_steps("laguerre", [Y_UP, (-1, 1, 0, 1)])
    with pytest.raises(ValueError):  # closed family must end at zero
        path_from_steps("laguerre", [Y_UP])
    # tangent down steps from height 2 carry q**i for i <= 2
    dyck = [UNIT_UP_R, (1, 1, 0, 1), (-1, 1, 0, 2), UNIT_DOWN_R]
    assert path_from_steps("euler_dyck_1", dyck).weight() == Q**3
    dyck[2] = (-1, 1, 0, 3)
    with pytest.raises(ValueError):
        path_from_steps("euler_dyck_1", dyck)
    with pytest.raises(ValueError):  # a signed secant core step is 1 or -q**(h+1), never +q
        path_from_steps("secant_core", [(1, 1, 0, 1), UNIT_DOWN_R])
    with pytest.raises(ValueError):  # Schroeder flat steps weigh exactly -1
        path_from_steps("schroder_tangent", [(0, 1, 0, 0)])
    flat = path_from_steps("schroder_tangent", [(0, -1, 0, 0)])
    assert flat.records == ((0, -1, 0, 0),) and FAMILIES[flat.family].flat_length == 2


@pytest.mark.parametrize(
    "family, records, message",
    [
        ("laguerre", [Y_UP, (-1, 1, 0, 1)], "violates laguerre weight rule"),  # q on a down step from 1
        ("laguerre", [(1, 1, 0, 0), UNIT_DOWN_R], "violates laguerre weight rule"),  # up without y
        ("laguerre", [(2, 1, 1, 0), (-1, 1, 0, 0)], "violates laguerre weight rule"),  # no such delta
        ("euler_dyck_1", [UNIT_DOWN_R, UNIT_UP_R], "dips below height 0"),  # down 1 is allowed from 0
        ("left_factor", [UNIT_UP_R, UNIT_DOWN_R, UNIT_DOWN_R], "dips below height 0"),
        ("laguerre", [Y_UP], "closed family path ends at height 1"),
        ("secant_core", [UNIT_UP_R, UNIT_UP_R, UNIT_DOWN_R], "closed family path ends at height 1"),
        ("motzkin", [], "unknown path family 'motzkin'"),
    ],
)
def test_path_from_steps_rejects(family, records, message):
    with pytest.raises(ValueError, match=message):
        path_from_steps(family, records)


def test_path_from_steps_builds_exactly_a_weighted_path():
    """The checked constructor skips the named tuple's __new__ but returns the same
    value, and the enumeration, which builds its leaves the same way without the
    check, yields only paths the constructor accepts, up to the length penaud
    reaches in the signed cores."""
    for family, fam in FAMILIES.items():
        longest = 10 if family in ("secant_core", "tangent_core") else 6
        for length in range(longest + 1):
            for end in range(length + 1) if not fam.closed else (0,):
                for restricted in (False, True):
                    for path in enumerate_family(family, length, end, restricted=restricted):
                        built = path_from_steps(family, path.records)
                        plain = WeightedPath(path.records, family)
                        assert type(built) is type(path) is WeightedPath, family
                        assert built == path == plain and hash(built) == hash(plain), built.dump()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_path_from_steps_keeps_its_three_messages(family):
    """A step the table refuses, a step the table allows that dips below 0, and
    an open end each keep their message, in every family."""
    closed = FAMILIES[family].closed
    with pytest.raises(ValueError, match=re.escape(
            f"step (1, 1, 0, 99) from height 0 violates {family} weight rule")):
        path_from_steps(family, [(1, 1, 0, 99)])
    down = [(-1, *w) for w in FAMILIES[family].down(0)]
    for r in down:
        with pytest.raises(ValueError, match="^path dips below height 0$"):
            path_from_steps(family, [r])
    assert bool(down) == (family in {"large_laguerre", "euler_dyck_1", "secant_core", "tangent_core",
                                     "schroder_secant", "schroder_tangent", "left_factor"})
    up = (1, *FAMILIES[family].up(0)[0])
    if closed:
        with pytest.raises(ValueError, match="^closed family path ends at height 1$"):
            path_from_steps(family, [up])
    else:
        assert path_from_steps(family, [up]).records == (up,)
    # a refused step is named before the dip it would make
    with pytest.raises(ValueError, match="violates"):
        path_from_steps(family, [(-1, 1, 0, 99)])


def test_path_weights_are_interned():
    """Every path of every family up to length 6 weighs Poly.monomial of its
    exponents, paths of equal exponents share one Poly, and no ring operation
    on the shared values changes them."""
    shared = {}
    for family, fam in FAMILIES.items():
        for length in range(7):
            for end in range(length + 1) if not fam.closed else (0,):
                for path in enumerate_family(family, length, end):
                    w = path.weight()
                    assert w == Poly.monomial(*path.exponents()), path.dump()
                    assert shared.setdefault(path.exponents(), w) is w, path.dump()
    values = list(shared.values())
    before = {e: (w.terms(), dict(w._terms)) for e, w in shared.items()}
    poly_sum(values)
    for a, b in zip(values, values[1:] + values[:1]):
        a + b, a - b, a * b, b * a, -a, a + 1, 1 - a, 2 * a
    poly_dot((a, b) for a in values[:40] for b in values[:40])
    poly_dot((ONE, a) for a in values)
    assert {e: (w.terms(), dict(w._terms)) for e, w in shared.items()} == before
    assert all(path.weight() is shared[path.exponents()]
               for path in enumerate_family("laguerre", 4))


def test_unknown_family_raises_on_every_call():
    """The rule cache keeps no failed lookup."""
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown path family 'motzkin'"):
            path_from_steps("motzkin", [UNIT_UP_R, UNIT_DOWN_R])


@pytest.mark.parametrize("engine", [
    pytest.param(lambda family, length: list(enumerate_family(family, length)),
                 id="enumerate_family"),
    pytest.param(family_sum_by_enumeration, id="family_sum_by_enumeration"),
    pytest.param(lambda family, length: family_sums(family, length, False), id="family_sums"),
])
@pytest.mark.parametrize("family, length, message", [
    ("laguerre", -1, "length must be nonnegative"),
    ("motzkin", 2, "unknown path family 'motzkin'"),
])
def test_enumeration_and_transfer_share_one_error_contract(engine, family, length, message):
    with pytest.raises(ValueError, match=message):
        engine(family, length)


def test_enumeration_ends_only_where_the_family_can():
    assert [p.records for p in enumerate_family("left_factor", 0)] == [()]
    assert list(enumerate_family("left_factor", 0, 2)) == []
    for family, end in (("euler_dyck_0", 2), ("laguerre", -1)):
        with pytest.raises(ValueError, match=f"no path of {family} ends at height {end}"):
            list(enumerate_family(family, 4, end))


def test_open_family_may_end_above_zero():
    left = path_from_steps("left_factor", [UNIT_UP_R, UNIT_UP_R, UNIT_DOWN_R])
    assert left.records == (UNIT_UP_R, UNIT_UP_R, UNIT_DOWN_R) and left.heights() == [0, 1, 2]
    assert sum(delta for delta, *_ in left.records) == 1  # the final height


def test_penaud_examples():
    both_unit = path_from_steps("secant_core", [UNIT_UP_R, UNIT_DOWN_R])
    h1, h2 = penaud_decompose(both_unit)
    assert h1.records == (UNIT_UP_R, UNIT_DOWN_R) and h2.records == ()
    mixed = path_from_steps("secant_core", [UNIT_UP_R, (-1, -1, 0, 1)])
    h1, h2 = penaud_decompose(mixed)
    assert h2.weight() == -Q
    assert h1.records == (UNIT_UP_R, UNIT_UP_R) and h2.records == mixed.records
    empty = path_from_steps("secant_core", [])
    assert penaud_decompose(empty) == (
        WeightedPath((), "left_factor"),
        WeightedPath((), "secant_core"),
    )
    with pytest.raises(ValueError):
        penaud_decompose(path_from_steps("euler_dyck_0", []))


def test_penaud_matches_object_oracle():
    """Every signed Dyck path of length <= 10 splits as the object-based code,
    one in-factor flag per step, split it."""
    for family in ("secant_core", "tangent_core"):
        for length in range(0, 11, 2):
            for path in enumerate_family(family, length):
                want_left, want_core = oracle.penaud_decompose(family, oracle.as_items(path))
                h1, h2 = penaud_decompose(path)
                assert (h1.records, h2.records) == (
                    oracle.as_records(want_left),
                    oracle.as_records(want_core),
                ), path.dump()
                assert (h1.family, h2.family) == ("left_factor", family)


def test_penaud_parts_are_validated(monkeypatch):
    built = []
    real = pa.path_from_steps
    monkeypatch.setattr(pa, "path_from_steps", lambda f, r: built.append(f) or real(f, r))
    penaud_decompose(real("tangent_core", [UNIT_UP_R, UNIT_DOWN_R, (1, -1, 0, 1), UNIT_DOWN_R]))
    assert built == ["left_factor", "tangent_core"]


@st.composite
def signed_core_paths(draw):
    """A signed Dyck path: each step a direction that can still close, then one
    of the family's records for it at that height."""
    family = draw(st.sampled_from(("secant_core", "tangent_core")))
    records, h = [], 0
    for rem in range(2 * draw(st.integers(0, 20)), 0, -1):
        delta = draw(st.sampled_from([d for d in (1, -1) if 0 <= h + d < rem]))
        records.append(draw(st.sampled_from(pa._records(family, delta, h))))
        h += delta
    return path_from_steps(family, records)


@given(signed_core_paths())
def test_penaud_matches_object_oracle_on_long_paths(path):
    want_left, want_core = oracle.penaud_decompose(path.family, oracle.as_items(path))
    h1, h2 = penaud_decompose(path)
    assert (h1.records, h2.records) == (oracle.as_records(want_left), oracle.as_records(want_core))


def test_penaud_bijection_small():
    for family in ("secant_core", "tangent_core"):
        cores = [{p.records for p in enumerate_family(family, 2 * k, restricted=True)}
                 for k in range(4)]
        for n in range(4):
            seen = set()
            count = 0
            for path in enumerate_family(family, 2 * n):
                h1, h2 = penaud_decompose(path)
                assert path.weight() == h2.weight()
                assert sum(delta for delta, *_ in h1.records) == len(h2.records)
                assert h2.records in cores[len(h2.records) // 2], path.dump()
                key = (h1.records, h2.records)
                assert key not in seen
                seen.add(key)
                count += 1
            assert count == sum(ballot(2 * n, k) * len(cores[k]) for k in range(n + 1))


@pytest.mark.parametrize("decompose, detail", [
    # (all up, the path itself): injective and counted, but the core is not restricted
    (lambda path: (path_from_steps("left_factor", [UNIT_UP_R] * len(path.records)), path),
     "core not restricted"),
    # the true core under an all-up left factor, which ends above the core's length
    (lambda path: (path_from_steps("left_factor", [UNIT_UP_R] * len(path.records)),
                   penaud_decompose(path)[1]),
     "left factor does not end at the core length"),
])
def test_penaud_check_fails_a_part_outside_the_product_set(monkeypatch, decompose, detail):
    check = verify.Check("section5", "penaud/2n=4", "penaud", {"n": 2})
    assert verify.run_check(check).status == "PASS"
    monkeypatch.setattr(pa, "penaud_decompose", decompose)
    result = verify.run_check(check)
    assert result.status == "FAIL" and result.detail.startswith(detail), result.detail


def test_penaud_aggregate_identity():
    # total family weight = sum over heights of ballot count times core sum
    for family, core in (("secant_core", secant_core_path_sum), ("tangent_core", tangent_core_path_sum)):
        for n in range(4):
            total = family_sum_by_enumeration(family, 2 * n)
            expected = poly_sum(
                ballot(2 * n, k) * core(k) for k in range(n + 1)
            )
            assert total == expected


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "fn, what",
    [
        (laguerre_sum, "n"),
        (touchard_dyck_sum, "n"),
        (derangement_motzkin_sum, "n"),
        (lambda n: euler_dyck_sum(n, 1), "n"),
        (secant_core_path_sum, "k"),
        (tangent_core_path_sum, "k"),
        (lambda k: schroder_signed_sum(k, "secant"), "k"),
    ],
)
def test_negative_size_is_rejected(fn, what, n):
    with pytest.raises(ValueError, match=rf"^{what}={n} must be nonnegative$"):
        fn(n)


def test_large_laguerre_sum_keeps_its_least_size():
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^large Laguerre histories have size >= 1$"):
            large_laguerre_sum(n)
