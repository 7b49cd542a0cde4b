"""Identity-verification suites behind the command-line front end.

Each suite bundles the cross-checks of one part of the library into a list
of independent named checks; checks are pure and picklable so the runner
may execute them in worker processes.  Report ordering follows declaration
order (suite, then index), never completion order.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations as _itperms
from itertools import product
from typing import Callable

from . import ansatz as az
from . import bijections as bj
from . import closedforms as cf
from . import paths as pa
from . import permutations as pm
from . import tableaux as tb
from .errors import BudgetExceededError
from .poly import ONE, Poly, binom_safe, one_minus_q, poly_sum

SUITES = (
    "th1",
    "th2",
    "th3",
    "th4",
    "tableaux",
    "paths",
    "ansatz",
    "bijection",
    "section5",
    "section6",
)

# Default bounds keep a full run of every suite below ten desktop minutes.
DEFAULT_BUDGETS = {
    "th1": 9,
    "th2": 9,
    "th3": 10,
    "th4": 12,
    "tableaux": 7,
    "paths": 9,
    "ansatz": 12,
    "bijection": 7,
    "section5": 8,
    "section6": 10,
}

BUDGET_ENV_VAR = "QEULER_BUDGET_OVERRIDE"


def budget_for(suite: str, override: int | None = None) -> int:
    """Default budget, then the environment variable, then the explicit flag.

    A negative bound is a usage error (ValueError), whichever source set it.
    """
    value = DEFAULT_BUDGETS[suite]
    raw = os.environ.get(BUDGET_ENV_VAR, "")
    for pair in raw.replace(",", " ").split():
        name, _, num = pair.partition("=")
        if name == suite:
            try:
                value = int(num)
            except ValueError:
                raise ValueError(f"bad {BUDGET_ENV_VAR} entry: {pair!r}") from None
    if override is not None:
        value = override
    if value < 0:
        raise ValueError(f"the bound of suite {suite} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class Check:
    suite: str
    check_id: str
    func: str
    kwargs: dict


@dataclass
class CheckResult:
    suite: str
    check_id: str
    status: str  # "PASS", "FAIL", or "REFUSED" when a budget refused the work
    detail: str
    elapsed: float


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        """FAIL if any check failed, else REFUSED if any was refused, else PASS."""
        statuses = {c.status for c in self.checks}
        for status in ("FAIL", "REFUSED"):
            if status in statuses:
                return status
        return "PASS"


# -- individual checks (top-level and picklable) --------------------------------


def _chk_equidistribution(n: int) -> tuple[bool, str]:
    same = pm.wex_cr_multiset(n) == pm.asc_312_multiset(n)
    return same, "multisets equal" if same else "multisets differ"


def _chk_non_equidistribution_derangements(n_max: int) -> tuple[bool, str]:
    for n in range(1, n_max + 1):
        if pm.wex_cr_multiset(n, derangements_only=True) != pm.asc_312_multiset(
            n, derangements_only=True
        ):
            return True, f"distributions split at n={n}"
    return False, f"no splitting found for n <= {n_max}"


def _chk_signed_wex_sum(n: int) -> tuple[bool, str]:
    """Signed (wex, cr) sum: 0 for even n, (-1)^((n+1)/2) E_n(q) for odd n."""
    value = pm.q_eulerian_poly(n).substitute_y(-1)
    if n % 2 == 0:
        ok = value.is_zero
        return ok, "vanishes" if ok else f"got {value}"
    expect = Poly.const((-1) ** ((n + 1) // 2)) * cf.q_euler_closed(n)
    ok = value == expect
    return ok, "matches q-tangent value" if ok else f"got {value}, want {expect}"


def _chk_closed_form_even_vanishing(n: int) -> tuple[bool, str]:
    """The closed form of the full distribution vanishes at y = -1, even n."""
    value = cf.q_eulerian_closed(n).substitute_y(-1)
    return value.is_zero, "vanishes" if value.is_zero else f"got {value}"


def _chk_reduced_path_sum(n: int) -> tuple[bool, str]:
    """Trimmed lifted-path weights at y = -1 give (-1)^((n-1)/2) E_n(q)."""
    total = poly_sum(
        bj.lifted_francon_viennot(p)[1].weight() for p in pm.all_permutations(n)
    )
    value = total.substitute_y(-1)
    if n % 2 == 0:
        ok = value.is_zero
        return ok, "vanishes" if ok else f"got {value}"
    expect = Poly.const((-1) ** ((n - 1) // 2)) * cf.q_euler_closed(n)
    ok = value == expect
    return ok, "matches q-tangent value" if ok else f"got {value}, want {expect}"


def _chk_signed_derangement_sum(n: int) -> tuple[bool, str]:
    """Signed derangement sum: (-1/q)^(n/2) E_n(q) for even n, 0 for odd n."""
    value = pm.q_derangement_poly(n).substitute_y(-1, -1)
    if n % 2:
        ok = value.is_zero
        return ok, "vanishes" if ok else f"got {value}"
    half = n // 2
    expect = Poly.monomial((-1) ** half, 0, -half) * cf.q_euler_closed(n)
    ok = value == expect
    return ok, "matches q-secant value" if ok else f"got {value}, want {expect}"


def _chk_inversion(n: int) -> tuple[bool, str]:
    ok = pm.inversion_check(n)
    return ok, "both inversion formulas hold" if ok else "inversion failed"


def _chk_g_identity(n: int) -> tuple[bool, str]:
    for k in range(0, 2 * n + 2):
        if cf.alternating_binom_convolution(n, k) != cf.alternating_binom_convolution_closed(n, k):
            return False, f"mismatch at k={k}"
    return True, f"all k <= {2 * n + 1}"


def _chk_tangent_routes(n: int) -> tuple[bool, str]:
    closed = cf.q_tangent_closed(n)
    dyck = pa.euler_dyck_sum(n, 1)
    alt = pm.alternating_31_2_poly(2 * n + 1)
    ok = closed == dyck == alt
    return ok, "closed = dyck = alternating" if ok else "routes disagree"


def _chk_secant_routes(n: int) -> tuple[bool, str]:
    closed = cf.q_secant_closed(n)
    dyck = pa.euler_dyck_sum(n, 0)
    alt = pm.alternating_31_2_poly(2 * n)
    ok = closed == dyck == alt
    return ok, "closed = dyck = alternating" if ok else "routes disagree"


def _chk_touchard(n: int) -> tuple[bool, str]:
    closed = cf.touchard_riordan(n)
    brute = pm.involution_crossing_poly(2 * n)
    paths = pa.touchard_dyck_sum(n)
    ok = closed == brute == paths
    return ok, "closed = involutions = path family" if ok else "routes disagree"


def _chk_involution_relation(n: int) -> tuple[bool, str]:
    """E_2n (1-q)^2n = (-q)^n <W|(-Dh+Eh)^2n|V>, both sum and operator routes."""
    lhs = cf.q_secant_closed(n) * one_minus_q() ** (2 * n)
    factor = Poly.monomial((-1) ** n, 0, n)
    ok = lhs == factor * cf.weighted_involution_sum(2 * n) and lhs == factor * az.weighted_involution_ansatz(2 * n)
    return ok, "relation holds" if ok else "relation failed"


def _chk_tableau_distributions(n: int) -> tuple[bool, str]:
    ok = tb.tableau_poly(n) == pm.q_eulerian_poly(n) and tb.derangement_tableau_poly(
        n
    ) == pm.q_derangement_poly(n)
    return ok, "tableau sums match permutation sums" if ok else "distribution mismatch"


def _chk_signed_tableau_sum(n: int) -> tuple[bool, str]:
    signed = tb.signed_derangement_tableau_sum(n)
    via_poly = tb.derangement_tableau_poly(n).substitute_y(-1, -1)
    via_perms = pm.q_derangement_poly(n).substitute_y(-1, -1)
    ok = signed == via_poly == via_perms
    return ok, "signed sum consistent" if ok else "signed sum mismatch"


def _chk_williams_numbers(n: int) -> tuple[bool, str]:
    poly = tb.tableau_poly(n)
    for k in range(n + 1):
        if cf.q_eulerian_number_closed(k, n) != poly.coefficient_of_y(k):
            return False, f"coefficient mismatch at k={k}"
    return True, f"all k <= {n}"


def _chk_transpose(n: int) -> tuple[bool, str]:
    for t in tb.enumerate_derangement_tableaux(n):
        tt = t.transpose()
        if tt.r != t.c or tt.o != t.o or tt.transpose() != t:
            return False, f"transpose misbehaved on {t.dump()!r}"
    if n % 2 and not tb.signed_derangement_tableau_sum(n).is_zero:
        return False, "odd-size signed sum did not vanish"
    return True, "closure, involution, and parity pairing hold"


def _chk_laguerre_transfer(n: int) -> tuple[bool, str]:
    ok = pa.laguerre_sum(n) == pm.q_eulerian_poly(n)
    return ok, "matches brute force" if ok else "mismatch"


def _chk_motzkin_transfer(n: int) -> tuple[bool, str]:
    ok = pa.derangement_motzkin_sum(n) == pm.q_derangement_poly(n)
    return ok, "matches brute force" if ok else "mismatch"


def _chk_large_history_count(n: int) -> tuple[bool, str]:
    import math

    got = pa.large_laguerre_sum(n).evaluate(1, 1)
    ok = got == math.factorial(n)
    return ok, f"count {got}" if ok else f"count {got} != {n}!"


def _chk_cf_coefficients(n_max: int) -> tuple[bool, str]:
    tangent = pa.cf_series(pa.tangent_cf_spec(), n_max)
    secant = pa.cf_series(pa.secant_cf_spec(), n_max)
    deeper_t = pa.cf_series(pa.tangent_cf_spec(), n_max, depth=n_max + 2)
    deeper_s = pa.cf_series(pa.secant_cf_spec(), n_max, depth=n_max + 2)
    if tangent != deeper_t or secant != deeper_s:
        return False, "truncation depth is not stable"
    for n in range(n_max + 1):
        if tangent[n] != pa.euler_dyck_sum(n, 1) or secant[n] != pa.euler_dyck_sum(n, 0):
            return False, f"coefficient mismatch at n={n}"
    return True, f"all coefficients to order {n_max}, depth-stable"


def _chk_path_enumeration_oracle(n: int) -> tuple[bool, str]:
    pairs = [
        ("euler_dyck_1", 2 * n, pa.euler_dyck_sum(n, 1)),
        ("euler_dyck_0", 2 * n, pa.euler_dyck_sum(n, 0)),
        ("laguerre", n, pa.laguerre_sum(n)),
        ("derangement_motzkin", n, pa.derangement_motzkin_sum(n)),
        ("touchard_dyck", 2 * n, pa.touchard_dyck_sum(n)),
    ]
    for family, length, expect in pairs:
        if pa.family_sum_by_enumeration(family, length) != expect:
            return False, f"{family} enumeration disagrees with transfer"
    return True, "explicit enumeration matches transfer sums"


def _chk_ansatz_distribution(n: int) -> tuple[bool, str]:
    if n <= pm.DEFAULT_BOUND - 1:
        ref_a, ref_b = pm.q_eulerian_poly(n), pm.q_derangement_poly(n)
        source = "brute force"
    else:
        ref_a, ref_b = cf.q_eulerian_closed(n), cf.q_derangement_closed(n)
        source = "closed forms"
    ok = az.q_eulerian_ansatz(n) == ref_a and az.q_derangement_ansatz(n) == ref_b
    return ok, f"matches {source}" if ok else f"disagrees with {source}"


def _chk_ansatz_hat(n: int) -> tuple[bool, str]:
    ok = az.weighted_involution_ansatz(n) == cf.weighted_involution_sum(n)
    return ok, "matches double sum" if ok else "mismatch"


def _chk_ansatz_shift(n: int) -> tuple[bool, str]:
    """(y(D'-I) + E')^n under the primed relation reproduces the MAIN value."""
    y = Poly.var_y()
    via_shift = az.boundary_eval(az.PRIMED, az.normal_power(az.PRIMED, n, y, ONE, -y))
    via_inversion = poly_sum(
        Poly.monomial((-1) ** (n - k) * binom_safe(n, k), n - k, 0) * az.q_eulerian_ansatz(k)
        for k in range(n + 1)
    )
    target = az.q_derangement_ansatz(n)
    ok = via_shift == target == via_inversion
    return ok, "operator shift and inversion agree" if ok else "mismatch"


def _chk_confluence(seed: int, words: int = 80, max_len: int = 8) -> tuple[bool, str]:
    rng = random.Random(seed)
    for rel in (az.MAIN, az.PRIMED, az.HAT):
        for _ in range(words):
            length = rng.randint(0, max_len)
            word = "".join(rng.choice("DE") for _ in range(length))
            cut = rng.randint(0, length)
            whole = az.word_normal_form(rel, word)
            split = az.nf_mul(
                az.word_normal_form(rel, word[:cut]), az.word_normal_form(rel, word[cut:])
            )
            if whole != split:
                return False, f"association order changed {word!r} under {rel.name}"
    return True, f"{words} random words per relation"


def _chk_word_oracle(max_len: int = 6) -> tuple[bool, str]:
    for length in range(max_len + 1):
        for letters in product("DE", repeat=length):
            word = "".join(letters)
            shape = tb.shape_of_word(word)
            expected = Poly.zero() if shape is None else tb.derangement_sum_for_shape(shape)
            if az.word_boundary_value(az.MAIN, word) != expected:
                return False, f"word {word!r} disagrees with tableau enumeration"
    return True, f"all words of length <= {max_len}"


def _chk_bijection_size(n: int) -> tuple[bool, str]:
    import math

    seen = set()
    for p in _itperms(range(1, n + 1)):
        image = bj.francon_viennot(p)  # validates weight property internally
        key = tuple((s.direction, s.weight) for s in image.path.steps)
        if key in seen:
            return False, f"image collision at {p}"
        seen.add(key)
        if bj.path_saturated_step_free(image.path) != (p[-1] == 1):
            return False, f"path criterion mismatch at {p}"
        if p[-1] == 1 and n > 1 and bj.returns_to_zero_early(image.path):
            return False, f"early return to zero at {p}"
        flats = image.path.has_flat()
        if n % 2 == 0 and pm.is_alternating(p) != (not flats):
            return False, f"alternating characterization failed at {p}"
    count = pa.laguerre_sum(n).evaluate(1, 1)
    if not (len(seen) == count == math.factorial(n)):
        return False, f"image count {len(seen)} != history count {count}"
    if n % 2:
        for p in _itperms(range(1, n + 1)):
            _, reduced = bj.lifted_francon_viennot(p)
            if pm.is_alternating(p) != (not reduced.has_flat()):
                return False, f"odd alternating characterization failed at {p}"
    return True, "injective, counted, and characterized"


def _chk_core_sums(k: int) -> tuple[bool, str]:
    m_closed = cf.secant_core_closed(k)
    n_closed = cf.tangent_core_closed(k)
    bound = max(k, pa.PATH_BOUND)
    ok = (
        m_closed == pa.secant_core_path_sum(k, bound)
        and m_closed == pa.schroder_signed_sum(k, "secant", bound)
        and m_closed == pa.cf_series(pa.secant_core_cf_spec(), k)[k]
        and n_closed == pa.tangent_core_path_sum(k, bound)
        and n_closed == pa.schroder_signed_sum(k, "tangent", bound)
        and n_closed == pa.cf_series(pa.tangent_core_cf_spec(), k)[k]
    )
    return ok, "closed = paths = Schroeder = T-fraction" if ok else "routes disagree"


@cache
def _restricted_core_count(family: str, length: int) -> int:
    """Number of restricted core paths of a family; every Penaud check reuses it."""
    return sum(1 for _ in pa.enumerate_family(family, length, restricted=True))


def _chk_penaud(n: int) -> tuple[bool, str]:
    for family in ("secant_core", "tangent_core"):
        pairs = set()
        count = 0
        for path in pa.enumerate_family(family, 2 * n):
            h1, h2 = pa.penaud_decompose(path)
            if path.weight() != h2.weight():
                return False, f"weight not preserved for {path.dump()!r}"
            key = (h1.shape(), tuple((s.direction, s.weight) for s in h2.steps))
            if key in pairs:
                return False, f"decomposition collision in {family}"
            pairs.add(key)
            count += 1
        expected = sum(
            pa.left_factor_count(2 * n, 2 * k) * _restricted_core_count(family, 2 * k)
            for k in range(n + 1)
        )
        if count != expected:
            return False, f"{family}: {count} paths vs {expected} pairs"
    return True, "injective onto the full product set, weights preserved"


def _chk_left_factors(n: int) -> tuple[bool, str]:
    for k in range(n + 2):
        counted = sum(1 for _ in pa.enumerate_dyck_shapes(2 * n, 2 * k))
        if counted != pa.left_factor_count(2 * n, 2 * k):
            return False, f"ballot mismatch at height {2 * k}"
    return True, "ballot numbers count left factors"


def _chk_rearrangement(n: int) -> tuple[bool, str]:
    ok = cf.tangent_via_core_rearrangement(n) == cf.q_tangent_closed(n)
    return ok, "binomial rearrangement holds" if ok else "mismatch"


def _chk_parity_free(n: int) -> tuple[bool, str]:
    value = cf.parity_free_euler_closed(n)  # raises if odd s-powers survive
    if value != cf.q_euler_closed(n):
        return False, "formula value differs from E_n"
    if n >= 1:
        if n % 2 == 0 and not cf.parity_free_wex_sum(n).is_zero:
            return False, "even-size intermediate sum did not vanish"
        if n % 2 == 1 and not cf.parity_free_derangement_sum(n).is_zero:
            return False, "odd-size intermediate sum did not vanish"
    return True, "equals E_n; intermediate sum vanishes; s-powers cancel"


_CHECK_FUNCS: dict[str, Callable[..., tuple[bool, str]]] = {
    "equidistribution": _chk_equidistribution,
    "non_equidistribution_derangements": _chk_non_equidistribution_derangements,
    "signed_wex_sum": _chk_signed_wex_sum,
    "closed_form_even_vanishing": _chk_closed_form_even_vanishing,
    "reduced_path_sum": _chk_reduced_path_sum,
    "signed_derangement_sum": _chk_signed_derangement_sum,
    "inversion": _chk_inversion,
    "g_identity": _chk_g_identity,
    "tangent_routes": _chk_tangent_routes,
    "secant_routes": _chk_secant_routes,
    "touchard": _chk_touchard,
    "involution_relation": _chk_involution_relation,
    "tableau_distributions": _chk_tableau_distributions,
    "signed_tableau_sum": _chk_signed_tableau_sum,
    "williams_numbers": _chk_williams_numbers,
    "transpose": _chk_transpose,
    "laguerre_transfer": _chk_laguerre_transfer,
    "motzkin_transfer": _chk_motzkin_transfer,
    "large_history_count": _chk_large_history_count,
    "cf_coefficients": _chk_cf_coefficients,
    "path_enumeration_oracle": _chk_path_enumeration_oracle,
    "ansatz_distribution": _chk_ansatz_distribution,
    "ansatz_hat": _chk_ansatz_hat,
    "ansatz_shift": _chk_ansatz_shift,
    "confluence": _chk_confluence,
    "word_oracle": _chk_word_oracle,
    "bijection_size": _chk_bijection_size,
    "core_sums": _chk_core_sums,
    "penaud": _chk_penaud,
    "left_factors": _chk_left_factors,
    "rearrangement": _chk_rearrangement,
    "parity_free": _chk_parity_free,
}


def build_suite(suite: str, n_max: int | None = None, seed: int = 0) -> list[Check]:
    b = budget_for(suite, n_max)
    checks: list[Check] = []

    def add(func: str, label: str, **kwargs) -> None:
        checks.append(Check(suite, f"{func}/{label}", func, kwargs))

    if suite == "th1":
        for n in range(1, min(b, 8) + 1):
            add("equidistribution", f"n={n}", n=n)
        add("non_equidistribution_derangements", f"n<={min(b, 8)}", n_max=min(b, 8))
        for n in range(1, b + 1):
            add("signed_wex_sum", f"n={n}", n=n)
        for n in range(1, b + 1):
            add("reduced_path_sum", f"n={n}", n=n)
        for n in range(2, max(b, 12) + 1, 2):
            add("closed_form_even_vanishing", f"n={n}", n=n)
    elif suite == "th2":
        for n in range(0, b + 1):
            add("signed_derangement_sum", f"n={n}", n=n)
        for n in range(0, min(b, 8) + 1):
            add("inversion", f"n={n}", n=n)
    elif suite == "th3":
        for n in range(0, b + 1):
            add("g_identity", f"n={n}", n=n)
        for n in range(0, (min(b, 9) - 1) // 2 + 1):
            add("tangent_routes", f"n={n}", n=n)
    elif suite == "th4":
        for n in range(0, min(b, 8) // 2 + 1):
            add("secant_routes", f"n={n}", n=n)
        for n in range(0, min(b, 10) // 2 + 1):
            add("touchard", f"n={n}", n=n)
        for n in range(0, min(b, 12) // 2 + 1):
            add("involution_relation", f"n={n}", n=n)
    elif suite == "tableaux":
        for n in range(0, b + 1):
            add("tableau_distributions", f"n={n}", n=n)
            add("signed_tableau_sum", f"n={n}", n=n)
        for n in range(1, b + 1):
            add("williams_numbers", f"n={n}", n=n)
        for n in range(0, min(b, 6) + 1):
            add("transpose", f"n={n}", n=n)
    elif suite == "paths":
        for n in range(0, b + 1):
            add("laguerre_transfer", f"n={n}", n=n)
            add("motzkin_transfer", f"n={n}", n=n)
        for n in range(1, min(b, 8) + 1):
            add("large_history_count", f"n={n}", n=n)
        add("cf_coefficients", f"n<={max(b, 12)}", n_max=max(b, 12))
        for n in range(0, 5):
            add("path_enumeration_oracle", f"n={n}", n=n)
    elif suite == "ansatz":
        for n in range(0, b + 1):
            add("ansatz_distribution", f"n={n}", n=n)
            add("ansatz_hat", f"n={n}", n=n)
        for n in range(0, min(b, 8) + 1):
            add("ansatz_shift", f"n={n}", n=n)
        add("confluence", f"seed={seed}", seed=seed)
        add("word_oracle", "len<=6")
    elif suite == "bijection":
        for n in range(1, b + 1):
            add("bijection_size", f"n={n}", n=n)
    elif suite == "section5":
        for k in range(0, b + 1):
            add("core_sums", f"k={k}", k=k)
        for n in range(0, min(b, 5) + 1):
            add("penaud", f"2n={2 * n}", n=n)
        for n in range(0, min(b, 5) + 1):
            add("left_factors", f"2n={2 * n}", n=n)
        for n in range(0, min(b, 6) + 1):
            add("rearrangement", f"n={n}", n=n)
    elif suite == "section6":
        for n in range(0, b + 1):
            add("parity_free", f"n={n}", n=n)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return checks


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = _CHECK_FUNCS[check.func](**check.kwargs)
        status = "PASS" if passed else "FAIL"
    except BudgetExceededError as exc:  # a refusal is not an identity failure
        status, detail = "REFUSED", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # identity errors are data, not crashes
        status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
    return CheckResult(check.suite, check.check_id, status, detail, time.perf_counter() - start)


def run_suites(
    suites: list[str], n_max: int | None = None, seed: int = 0, jobs: int = 1
) -> list[SuiteReport]:
    """Run the suites' checks; jobs is clamped to the CPU and check counts."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    all_checks: list[Check] = []
    for s in suites:
        all_checks.extend(build_suite(s, n_max, seed))
    workers = min(jobs, os.cpu_count() or 1, len(all_checks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_check, all_checks))
    else:
        results = [run_check(c) for c in all_checks]
    reports = {s: SuiteReport(s) for s in suites}
    for res in results:
        reports[res.suite].checks.append(res)
    return [reports[s] for s in suites]


def render_reports(reports: list[SuiteReport]) -> str:
    """Deterministic data section, timings segregated to a trailing block."""
    lines: list[str] = []
    for rep in reports:
        for c in rep.checks:
            lines.append(f"{rep.suite:<9} {c.check_id:<42} {c.status}  {c.detail}")
        lines.append(f"{rep.suite:<9} {'suite result':<42} {rep.status}  {len(rep.checks)} checks")
    lines.append("# timing (informational, excluded from determinism guarantees)")
    total = 0.0
    for rep in reports:
        suite_time = sum(c.elapsed for c in rep.checks)
        total += suite_time
        slowest = max(rep.checks, key=lambda c: c.elapsed, default=None)
        worst = f" (slowest {slowest.check_id} {slowest.elapsed:.2f}s)" if slowest else ""
        lines.append(f"# {rep.suite}: {suite_time:.2f}s{worst}")
    lines.append(f"# total: {total:.2f}s")
    return "\n".join(lines)
