"""Acceptance criteria: every identity at its stated range, exact equality.

Each criterion prints one pass/fail line (run with -s to stream them).
All equalities are exact polynomial identities; stated runtime ceilings are
asserted as part of the criterion.

One deliberate expected failure: the odd-size signed permutation identity
is also recorded with the sign (-1)^((n-1)/2); exhaustive enumeration forces
(-1)^((n+1)/2) instead (see test_c02b), so that variant is kept as a strict
xfail beside the passing corrected form.
"""

import time
from itertools import permutations as itperms

import pytest

from qeuler import ansatz as az
from qeuler import bijections as bj
from qeuler import closedforms as cf
from qeuler import paths as pa
from qeuler import permutations as pm
from qeuler import tableaux as tb
from qeuler.poly import ONE, Poly, Q

EXPECTED_E = {
    0: ONE,
    1: ONE,
    2: ONE,
    3: ONE + Q,
    4: Poly({(0, 0): 2, (0, 1): 2, (0, 2): 1}),
    5: Poly({(0, 0): 2, (0, 1): 5, (0, 2): 5, (0, 3): 3, (0, 4): 1}),
}


def euler_number(n: int) -> Poly:
    return cf.q_tangent_closed(n // 2) if n % 2 else cf.q_secant_closed(n // 2)


def criterion(cid: str, ok: bool, desc: str) -> None:
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {cid} failed: {desc}"


def test_c01_first_values_four_routes():
    start = time.perf_counter()
    tangent_cf = pa.cf_series(pa.tangent_cf_spec(), 2)
    secant_cf = pa.cf_series(pa.secant_cf_spec(), 2)
    ok = True
    for n in range(6):
        half, parity = n // 2, n % 2
        routes = [
            tangent_cf[half] if parity else secant_cf[half],
            pa.euler_dyck_sum(half, parity),
            pm.alternating_31_2_poly(n),
            cf.q_tangent_closed(half) if parity else cf.q_secant_closed(half),
        ]
        ok = ok and all(r == EXPECTED_E[n] for r in routes)
    elapsed = time.perf_counter() - start
    criterion("01", ok and elapsed < 1.0, f"E_0..E_5 via four routes ({elapsed:.2f}s < 1s)")


def test_c02_signed_permutation_sums():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9, 2):
        ok = ok and pm.q_eulerian_poly(n).substitute_y(-1).is_zero
    for n in range(1, 10, 2):
        value = pm.q_eulerian_poly(n).substitute_y(-1)
        ok = ok and value == Poly.monomial((-1) ** ((n + 1) // 2)) * euler_number(n)
    elapsed = time.perf_counter() - start
    criterion(
        "02",
        ok and elapsed < 180.0,
        f"signed (wex,cr) sums: 0 for even n<=8, (-1)^((n+1)/2) E_n for odd n<=9 ({elapsed:.1f}s < 180s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="enumeration forces sign (-1)^((n+1)/2) at odd sizes; this variant pins (-1)^((n-1)/2)",
)
def test_c02b_signed_permutation_sums_stated_sign_variant():
    ok = True
    for n in range(1, 10, 2):
        value = pm.q_eulerian_poly(n).substitute_y(-1)
        ok = ok and value == Poly.monomial((-1) ** ((n - 1) // 2)) * euler_number(n)
    criterion("02b", ok, "odd-size signed sums with sign (-1)^((n-1)/2)")


def test_c03_signed_derangement_sums():
    start = time.perf_counter()
    ok = True
    for n in range(1, 10, 2):
        ok = ok and pm.q_derangement_poly(n).substitute_y(-1, -1).is_zero
    for n in range(0, 9, 2):
        value = pm.q_derangement_poly(n).substitute_y(-1, -1)
        half = n // 2
        ok = ok and value == Poly.monomial((-1) ** half, 0, -half) * euler_number(n)
    elapsed = time.perf_counter() - start
    criterion(
        "03",
        ok and elapsed < 120.0,
        f"signed derangement sums: 0 for odd n<=9, (-1/q)^(n/2) E_n for even n<=8 ({elapsed:.1f}s < 120s)",
    )


def test_c04_four_way_distribution_agreement():
    start = time.perf_counter()
    ok = True
    for n in range(10):
        a = pm.q_eulerian_poly(n)
        ok = ok and a == cf.q_eulerian_closed(n) == pa.laguerre_sum(n) == az.q_eulerian_ansatz(n)
        b = pm.q_derangement_poly(n)
        ok = (
            ok
            and b == cf.q_derangement_closed(n) == pa.derangement_motzkin_sum(n) == az.q_derangement_ansatz(n)
        )
    elapsed = time.perf_counter() - start
    criterion(
        "04",
        ok and elapsed < 300.0,
        f"four-way agreement for both distributions, n<=9 ({elapsed:.1f}s < 300s)",
    )


def test_c05_tableaux_route():
    start = time.perf_counter()
    ok = True
    for n in range(8):
        ok = ok and tb.tableau_poly(n) == pm.q_eulerian_poly(n)
        ok = ok and tb.derangement_tableau_poly(n) == pm.q_derangement_poly(n)
        ok = ok and tb.signed_derangement_tableau_sum(n) == pm.q_derangement_poly(n).substitute_y(-1, -1)
    for n in range(7):
        for t in tb.enumerate_derangement_tableaux(n):
            tt = t.transpose()
            ok = ok and tt.r == n - t.r and tt.o == t.o and tt.transpose() == t
        if n % 2:
            ok = ok and tb.signed_derangement_tableau_sum(n).is_zero
    elapsed = time.perf_counter() - start
    criterion(
        "05",
        ok and elapsed < 180.0,
        f"tableau distributions n<=7, signed sum, transpose pairing n<=6 ({elapsed:.1f}s < 180s)",
    )


def test_c06_q_eulerian_number_formula():
    ok = True
    for n in range(1, 8):
        poly = tb.tableau_poly(n)
        for k in range(n + 1):
            ok = ok and cf.q_eulerian_number_closed(k, n) == poly.coefficient_of_y(k)
    criterion("06", ok, "refined coefficient formula = tableau coefficients, all k, n<=7")


def test_c07_touchard_riordan():
    ok = True
    for n in range(6):
        closed = cf.touchard_riordan(n)
        ok = ok and closed == pm.involution_crossing_poly(2 * n)
        ok = ok and closed == pa.touchard_dyck_sum(n)
    criterion("07", ok, "involution crossing distribution via three routes, 2n<=10")


def test_c08_core_machinery():
    ok = True
    mk_series = pa.cf_series(pa.secant_core_cf_spec(), 8)
    nk_series = pa.cf_series(pa.tangent_core_cf_spec(), 8)
    for k in range(9):
        m = cf.secant_core_closed(k)
        ok = ok and m == pa.secant_core_path_sum(k) == pa.schroder_signed_sum(k, "secant") == mk_series[k]
        n = cf.tangent_core_closed(k)
        ok = ok and n == pa.tangent_core_path_sum(k) == pa.schroder_signed_sum(k, "tangent") == nk_series[k]
    for family in ("secant_core", "tangent_core"):
        for half in range(6):
            seen = set()
            count = 0
            for path in pa.enumerate_family(family, 2 * half):
                h1, h2 = pa.penaud_decompose(path)
                ok = ok and path.weight() == h2.weight()
                seen.add((h1.shape(), h2.records))
                count += 1
            expected = sum(
                cf.ballot(2 * half, k)
                * sum(1 for _ in pa.enumerate_family(family, 2 * k, restricted=True))
                for k in range(half + 1)
            )
            ok = ok and count == len(seen) == expected
    for n in range(7):
        ok = ok and cf.tangent_via_core_rearrangement(n) == cf.q_tangent_closed(n)
    criterion("08", ok, "core sums four ways k<=8; decomposition bijective to length 10; rearrangement n<=6")


def test_c09_binomial_sum_identity():
    ok = True
    for n in range(11):
        for k in range(2 * n + 2):
            ok = ok and cf.alternating_binom_convolution(n, k) == cf.alternating_binom_convolution_closed(n, k)
    criterion("09", ok, "alternating binomial convolution identity, all k, n<=10")


def test_c10_parity_independent_formula():
    ok = True
    for n in range(11):
        ok = ok and cf.parity_free_euler_closed(n) == euler_number(n)  # raises on odd s-powers
    for n in range(2, 11, 2):
        ok = ok and cf.parity_free_wex_sum(n).is_zero
    for n in range(1, 11, 2):
        ok = ok and cf.parity_free_derangement_sum(n).is_zero
    criterion("10", ok, "parity-independent formula = E_n for n<=10; intermediates vanish; s-powers cancel")


def test_c11_bijection_suite():
    import math

    ok = True
    for n in range(1, 8):
        images = set()
        trimmed = {t: reduced for t, _, _, reduced in bj.lifted_histories(n)} if n % 2 else {}
        for p in itperms(range(1, n + 1)):
            image = bj.francon_viennot(p)  # weight property asserted inside
            images.add(image.records)
            ok = ok and bj.path_saturated_step_free(image) == (p[-1] == 1)
            if n > 1 and p[-1] == 1:
                ok = ok and not bj.returns_to_zero_early(image)
            if n % 2 == 0:
                ok = ok and pm.is_alternating(p) == (not image.has_flat())
            else:
                ok = ok and pm.is_alternating(p) == (not trimmed[p].has_flat())
        ok = ok and len(images) == math.factorial(n) == pa.laguerre_sum(n).evaluate(1, 1)
    criterion("11", ok, "weight property, injectivity + cardinality, path criterion, alternating marks, n<=7")


def test_c12_equidistribution():
    ok = True
    for n in range(1, 9):
        ok = ok and pm.wex_cr_multiset(n) == pm.asc_312_multiset(n)
    split = any(
        pm.wex_cr_multiset(n, derangements_only=True) != pm.asc_312_multiset(n, derangements_only=True)
        for n in range(1, 9)
    )
    ok = ok and split
    criterion("12", ok, "(wex,cr) ~ (asc,31-2) on all permutations n<=8; splits on derangements")
