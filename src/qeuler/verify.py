"""Identity-verification suites behind the command-line front end.

Each suite bundles the cross-checks of one part of the library into a list
of independent named checks.  Checks are pure, and they and their results
are plain named tuples of picklable fields, so the runner may execute them
in worker processes.  One table, PLAN in qeuler.plan,
declares every suite's default bound and its index loops, with the caps and
floors that override the bound; the report states those that bind.  Another,
AGREEMENTS, names the routes of each check that only compares routes at one
index; a check that loops or branches is a _chk_ function.  Report ordering
follows declaration order (suite, then row, then index), never completion
order.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Callable
from functools import cache
from itertools import product
from typing import NamedTuple

from . import ansatz as az
from . import bijections as bj
from . import closedforms as cf
from . import paths as pa
from . import permutations as pm
from . import tableaux as tb
from .errors import BudgetExceededError
from .plan import PLAN, SUITES, WORD_ORACLE_MAX_LEN
from .poly import ONE, Q, Y, ZERO, Poly, binom_safe, poly_sum


class Check(NamedTuple):
    suite: str
    check_id: str
    func: str
    kwargs: dict


class CheckResult(NamedTuple):
    suite: str
    check_id: str
    status: str  # "PASS", "FAIL", or "REFUSED" when a budget refused the work
    detail: str
    elapsed: float


class SuiteReport(NamedTuple):
    suite: str
    checks: list[CheckResult]
    limits: list[str]  # limit_notes at the run's bound

    @property
    def status(self) -> str:
        """FAIL if any check failed, else REFUSED if any was refused, else PASS."""
        statuses = {c.status for c in self.checks}
        for status in ("FAIL", "REFUSED"):
            if status in statuses:
                return status
        return "PASS"


# -- individual checks (top-level and picklable) --------------------------------


def _chk_non_equidistribution_derangements(n_max: int) -> tuple[bool, str]:
    """The derangement distributions split; n=3 is the least size that shows it."""
    if n_max < 3:
        raise BudgetExceededError(f"n_max={n_max} is below 3, the least size where they split")
    for n in range(1, n_max + 1):
        if pm.wex_cr_multiset(n, derangements_only=True) != pm.asc_312_multiset(
            n, derangements_only=True
        ):
            return True, f"distributions split at n={n}"
    return False, f"no splitting found for n <= {n_max}"


def _zero_or_euler(value: Poly, zero: bool, factor: Poly, n: int, what: str) -> tuple[bool, str]:
    """A signed sum that vanishes for one parity of n and is factor * E_n(q) for the other."""
    if zero:
        ok = value.is_zero
        return ok, "vanishes" if ok else f"got {value}"
    expect = factor * cf.q_euler_closed(n)
    ok = value == expect
    return ok, f"matches {what} value" if ok else f"got {value}, want {expect}"


def _chk_signed_wex_sum(n: int) -> tuple[bool, str]:
    """Signed (wex, cr) sum: 0 for even n, (-1)^((n+1)/2) E_n(q) for odd n."""
    value = pm.q_eulerian_poly(n).substitute_y(-1)
    sign = Poly.monomial((-1) ** ((n + 1) // 2))
    return _zero_or_euler(value, n % 2 == 0, sign, n, "q-tangent")


def _chk_closed_form_even_vanishing(n: int) -> tuple[bool, str]:
    """The closed form of the full distribution vanishes at y = -1, even n."""
    value = cf.q_eulerian_closed(n).substitute_y(-1)
    return value.is_zero, "vanishes" if value.is_zero else f"got {value}"


def _chk_reduced_path_sum(n: int) -> tuple[bool, str]:
    """Trimmed lifted-path weights at y = -1 give (-1)^((n-1)/2) E_n(q)."""
    total = poly_sum(reduced.weight() for _, _, _, reduced in bj.lifted_histories(n))
    sign = Poly.monomial((-1) ** ((n - 1) // 2))
    return _zero_or_euler(total.substitute_y(-1), n % 2 == 0, sign, n, "q-tangent")


def _chk_signed_derangement_sum(n: int) -> tuple[bool, str]:
    """Signed derangement sum: (-1/q)^(n/2) E_n(q) for even n, 0 for odd n."""
    value = pm.q_derangement_poly(n).substitute_y(-1, -1)
    half = n // 2
    return _zero_or_euler(value, n % 2 == 1, Poly.monomial((-1) ** half, 0, -half), n, "q-secant")


def _chk_g_identity(n: int) -> tuple[bool, str]:
    for k in range(0, 2 * n + 2):
        if cf.alternating_binom_convolution(n, k) != cf.alternating_binom_convolution_closed(n, k):
            return False, f"mismatch at k={k}"
    return True, f"all k <= {2 * n + 1}"


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
    # One transfer per parity holds every shorter closed sum: E_{2n+1} and E_{2n}
    # are the Dyck sums of length 2n.
    tangent_paths = pa.family_sums("euler_dyck_1", 2 * n_max, False)
    secant_paths = pa.family_sums("euler_dyck_0", 2 * n_max, False)
    for n in range(n_max + 1):
        if tangent[n] != tangent_paths[2 * n] or secant[n] != secant_paths[2 * n]:
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


# Random words per relation in the confluence check, and their greatest length.
_CONFLUENCE_WORDS = 80
_CONFLUENCE_MAX_LEN = 8


def _chk_confluence(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for rel in (az.MAIN, az.PRIMED, az.HAT):
        for _ in range(_CONFLUENCE_WORDS):
            length = rng.randint(0, _CONFLUENCE_MAX_LEN)
            word = "".join(rng.choice("DE") for _ in range(length))
            cut = rng.randint(0, length)
            whole = az.word_normal_form(rel, word)
            split = az.nf_mul(
                az.word_normal_form(rel, word[:cut]), az.word_normal_form(rel, word[cut:])
            )
            if whole != split:
                return False, f"association order changed {word!r} under {rel.name}"
    return True, f"{_CONFLUENCE_WORDS} random words per relation"


def _chk_word_oracle() -> tuple[bool, str]:
    for length in range(WORD_ORACLE_MAX_LEN + 1):
        for letters in product("DE", repeat=length):
            word = "".join(letters)
            shape = tb.shape_of_word(word)
            expected = ZERO if shape is None else tb.derangement_sum_for_shape(shape)
            if az.word_boundary_value(az.MAIN, word) != expected:
                return False, f"word {word!r} disagrees with tableau enumeration"
    return True, f"all words of length <= {WORD_ORACLE_MAX_LEN}"


def _chk_bijection_size(n: int) -> tuple[bool, str]:
    import math

    seen = set()
    for p in pm.all_permutations(n):
        image = bj.francon_viennot(p)  # validates weight property internally
        if image.records in seen:
            return False, f"image collision at {p}"
        seen.add(image.records)
        if bj.path_saturated_step_free(image) != (p[-1] == 1):
            return False, f"path criterion mismatch at {p}"
        if p[-1] == 1 and n > 1 and bj.returns_to_zero_early(image):
            return False, f"early return to zero at {p}"
        flats = image.has_flat()
        if n % 2 == 0 and pm.is_alternating(p) != (not flats):
            return False, f"alternating characterization failed at {p}"
    count = pa.laguerre_sum(n).evaluate(1, 1)
    if not (len(seen) == count == math.factorial(n)):
        return False, f"image count {len(seen)} != history count {count}"
    if n % 2:
        for p, _, _, reduced in bj.lifted_histories(n):
            if pm.is_alternating(p) != (not reduced.has_flat()):
                return False, f"odd alternating characterization failed at {p}"
    return True, "injective, counted, and characterized"


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
            if path.exponents() != h2.exponents():
                return False, f"weight not preserved for {path.dump()!r}"
            key = (h1.records, h2.records)
            if key in pairs:
                return False, f"decomposition collision in {family}"
            pairs.add(key)
            count += 1
        expected = sum(
            cf.ballot(2 * n, k) * _restricted_core_count(family, 2 * k)
            for k in range(n + 1)
        )
        if count != expected:
            return False, f"{family}: {count} paths vs {expected} pairs"
    return True, "injective onto the full product set, weights preserved"


def _chk_left_factors(n: int) -> tuple[bool, str]:
    for k in range(n + 2):
        counted = sum(1 for _ in pa.enumerate_dyck_shapes(2 * n, 2 * k))
        if counted != cf.ballot(2 * n, k):
            return False, f"ballot mismatch at height {2 * k}"
    return True, "ballot numbers count left factors"


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


def _binomial_transform(n: int, f: Callable[[int], Poly], sign: int) -> Poly:
    """sum_k C(n,k) (sign y)^(n-k) f(k) over k <= n; sign -1 inverts the transform with sign 1."""
    return poly_sum(
        Poly.monomial(sign ** (n - k) * binom_safe(n, k), n - k, 0) * f(k) for k in range(n + 1)
    )


# -- agreements: checks that compare independent routes at one index -----------
# A route calls the library through its module when it runs (pa.f(n), never a
# stored pa.f), so that a name rebound after import is the one it calls.


class Agreement(NamedTuple):
    """Named routes to one quantity, evaluated in order; all must equal the first."""

    routes: tuple[tuple[str, Callable[[int], object]], ...]
    agree: str  # the detail of a pass
    disagree: str  # the detail of a failure


AGREEMENTS: dict[str, Agreement] = {
    "equidistribution": Agreement((
        ("wex_cr", lambda n: pm.wex_cr_multiset(n)),
        ("asc_312", lambda n: pm.asc_312_multiset(n)),
    ), "multisets equal", "multisets differ"),
    # A_n = sum_k C(n,k) y^(n-k) B_k and B_n = sum_k C(n,k) (-y)^(n-k) A_k
    "inversion": Agreement((
        ("census", lambda n: (pm.q_eulerian_poly(n), pm.q_derangement_poly(n))),
        ("inversion", lambda n: (_binomial_transform(n, pm.q_derangement_poly, 1),
                                 _binomial_transform(n, pm.q_eulerian_poly, -1))),
    ), "both inversion formulas hold", "inversion failed"),
    "tangent_routes": Agreement((
        ("closed", lambda n: cf.q_tangent_closed(n)),
        ("dyck", lambda n: pa.euler_dyck_sum(n, 1)),
        ("alternating", lambda n: pm.alternating_31_2_poly(2 * n + 1)),
    ), "closed = dyck = alternating", "routes disagree"),
    "secant_routes": Agreement((
        ("closed", lambda n: cf.q_secant_closed(n)),
        ("dyck", lambda n: pa.euler_dyck_sum(n, 0)),
        ("alternating", lambda n: pm.alternating_31_2_poly(2 * n)),
    ), "closed = dyck = alternating", "routes disagree"),
    "touchard": Agreement((
        ("closed", lambda n: cf.touchard_riordan(n)),
        ("involutions", lambda n: pm.involution_crossing_poly(2 * n)),
        ("paths", lambda n: pa.touchard_dyck_sum(n)),
    ), "closed = involutions = path family", "routes disagree"),
    # E_2n (1-q)^2n = (-q)^n <W|(-Dh+Eh)^2n|V>, by the double sum and by the operators
    "involution_relation": Agreement((
        ("closed", lambda n: cf.q_secant_closed(n) * (ONE - Q) ** (2 * n)
                             * Poly.monomial((-1) ** n, 0, -n)),
        ("double_sum", lambda n: cf.weighted_involution_sum(2 * n)),
        ("ansatz", lambda n: az.weighted_involution_ansatz(2 * n)),
    ), "relation holds", "relation failed"),
    "tableau_distributions": Agreement((
        ("tableaux", lambda n: (tb.tableau_poly(n), tb.derangement_tableau_poly(n))),
        ("census", lambda n: (pm.q_eulerian_poly(n), pm.q_derangement_poly(n))),
    ), "tableau sums match permutation sums", "distribution mismatch"),
    "signed_tableau_sum": Agreement((
        ("signed", lambda n: tb.signed_derangement_tableau_sum(n)),
        ("tableaux", lambda n: tb.derangement_tableau_poly(n).substitute_y(-1, -1)),
        ("census", lambda n: pm.q_derangement_poly(n).substitute_y(-1, -1)),
    ), "signed sum consistent", "signed sum mismatch"),
    "laguerre_transfer": Agreement((
        ("transfer", lambda n: pa.laguerre_sum(n)),
        ("census", lambda n: pm.q_eulerian_poly(n)),
        ("closed", lambda n: cf.q_eulerian_closed(n)),
    ), "matches brute force", "mismatch"),
    "motzkin_transfer": Agreement((
        ("transfer", lambda n: pa.derangement_motzkin_sum(n)),
        ("census", lambda n: pm.q_derangement_poly(n)),
        ("closed", lambda n: cf.q_derangement_closed(n)),
    ), "matches brute force", "mismatch"),
    "ansatz_hat": Agreement((
        ("ansatz", lambda n: az.weighted_involution_ansatz(n)),
        ("double_sum", lambda n: cf.weighted_involution_sum(n)),
    ), "matches double sum", "mismatch"),
    # the derangement ansatz by (y(D'-I) + E')^n under the primed relation, by inversion
    "ansatz_shift": Agreement((
        ("shift", lambda n: az.boundary_eval(
            az.PRIMED, az.normal_power(az.PRIMED, n, Y, ONE, -Y))),
        ("inversion", lambda n: _binomial_transform(n, az.q_eulerian_ansatz, -1)),
        ("ansatz", lambda n: az.q_derangement_ansatz(n)),
    ), "operator shift and inversion agree", "mismatch"),
    # (secant core, tangent core)
    "core_sums": Agreement((
        ("closed", lambda k: (cf.secant_core_closed(k), cf.tangent_core_closed(k))),
        ("paths", lambda k: (pa.secant_core_path_sum(k), pa.tangent_core_path_sum(k))),
        ("schroder", lambda k: (pa.schroder_signed_sum(k, "secant"),
                                pa.schroder_signed_sum(k, "tangent"))),
        ("t_fraction", lambda k: (pa.cf_series(pa.secant_core_cf_spec(), k)[k],
                                  pa.cf_series(pa.tangent_core_cf_spec(), k)[k])),
    ), "closed = paths = Schroeder = T-fraction", "routes disagree"),
    "rearrangement": Agreement((
        ("rearranged", lambda n: cf.tangent_via_core_rearrangement(n)),
        ("closed", lambda n: cf.q_tangent_closed(n)),
    ), "binomial rearrangement holds", "mismatch"),
}


def _agree(agreement: Agreement, index: int) -> tuple[bool, str]:
    first, *rest = [route(index) for _, route in agreement.routes]
    ok = all(value == first for value in rest)
    return ok, agreement.agree if ok else agreement.disagree


# -- the plan (qeuler.plan) made into checks, budgets and limit notes -----------


DEFAULT_BUDGETS = {suite: budget for suite, (budget, _) in PLAN.items()}


def build_suite(suite: str, n_max: int | None = None, seed: int = 0) -> list[Check]:
    """The suite's checks in report order: row by row, then index by index."""
    bound = budget_for(suite, n_max)
    checks: list[Check] = []
    for row in PLAN[suite][1]:
        reach = row.reach(bound)
        if row.label in ("n<=", "seed="):
            key, value = ("n_max", reach) if row.label == "n<=" else ("seed", seed)
            runs = [(f"{row.label}{value}", {key: value})]
        elif row.label.endswith("="):
            last = {"n": reach, "2n": reach // 2, "2n+1": (reach - 1) // 2}[row.size]
            scale = 2 if row.label == "2n=" else 1
            indices = range(row.first, last + 1, row.step)
            runs = [(f"{row.label}{scale * n}", {row.label[-2]: n}) for n in indices]
        else:
            runs = [(row.label, {})]
        checks += [Check(suite, f"{f}/{label}", f, dict(kw))
                   for label, kw in runs for f in row.checks.split()]
    return checks


def limit_notes(suite: str, n_max: int | None = None) -> list[str]:
    """One report line per row whose cap, floor or fixed limit overrides the bound."""
    bound = budget_for(suite, n_max)
    return [f"{row.checks} {row.limit[0]} {reach} on {row.size} (bound {bound})"
            for row in PLAN[suite][1] if (reach := row.reach(bound)) != bound]


BUDGET_ENV_VAR = "QEULER_BUDGET_OVERRIDE"


def _env_budgets() -> dict[str, int]:
    """The whole override variable; an unknown suite, a malformed entry or a
    negative bound is a usage error, whichever suites run."""
    budgets = {}
    for pair in os.environ.get(BUDGET_ENV_VAR, "").replace(",", " ").split():
        name, _, num = pair.partition("=")
        try:
            budgets[name] = int(num)
        except ValueError:
            raise ValueError(f"bad {BUDGET_ENV_VAR} entry: {pair!r}") from None
    unknown = sorted(set(budgets) - set(SUITES))
    if unknown:
        raise ValueError(f"unknown suite in {BUDGET_ENV_VAR}: {', '.join(unknown)}")
    for name, value in budgets.items():
        if value < 0:
            raise ValueError(f"{BUDGET_ENV_VAR} bound of {name} must be nonnegative, got {value}")
    return budgets


def budget_for(suite: str, override: int | None = None) -> int:
    """Default budget, then the environment variable, then the explicit flag.

    A negative bound is a usage error (ValueError), whichever source set it.
    """
    value = _env_budgets().get(suite, DEFAULT_BUDGETS[suite])
    if override is not None:
        value = override
    if value < 0:
        raise ValueError(f"the bound of suite {suite} must be nonnegative, got {value}")
    return value


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        if check.func in AGREEMENTS:
            passed, detail = _agree(AGREEMENTS[check.func], *check.kwargs.values())
        else:
            passed, detail = globals()[f"_chk_{check.func}"](**check.kwargs)
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
    reports = {s: SuiteReport(s, [], limit_notes(s, n_max)) for s in suites}
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
        lines.extend(f"# {rep.suite}: {note}" for note in rep.limits)
    lines.append(f"# total: {total:.2f}s")
    return "\n".join(lines)
