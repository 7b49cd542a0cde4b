"""Identity-verification suites behind the command-line front end.

Each suite bundles the cross-checks of one part of the library into a list
of independent named checks.  Checks are pure, and they and their results
are plain named tuples of picklable fields, so the runner may execute them
in worker processes.  One table, PLAN in qeuler.plan,
declares every suite's default bound and its index loops, with the caps and
floors that override the bound; the report states those that bind.  Another,
AGREEMENTS, names the routes of every check that only compares routes at one
index; a route returns a tuple with one entry per inner index k, order or path
family when it has them.  A failure names the routes that differ (_agree).
Only a check that branches, counts or asserts on each object is a _chk_
function.  Report ordering follows declaration order (suite, then row, then
index), never completion order.
"""

from __future__ import annotations

import math
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


def _chk_transpose(n: int) -> tuple[bool, str]:
    for t in tb.enumerate_derangement_tableaux(n):
        tt = t.transpose()
        if tt.r != t.c or tt.o != t.o or tt.transpose() != t:
            return False, f"transpose misbehaved on {t.dump()!r}"
    if n % 2 and not tb.signed_derangement_tableau_sum(n).is_zero:
        return False, "odd-size signed sum did not vanish"
    return True, "closure, involution, and parity pairing hold"


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
    for p in pm.all_permutations(n):
        image = bj.francon_viennot(p)  # validates weight property internally
        if bj.francon_viennot_inverse(image) != p:
            return False, f"image of {p} does not decode to it"
        if bj.path_saturated_step_free(image) != (p[-1] == 1):
            return False, f"path criterion mismatch at {p}"
        if p[-1] == 1 and n > 1 and bj.returns_to_zero_early(image):
            return False, f"early return to zero at {p}"
        flats = image.has_flat()
        if n % 2 == 0 and pm.is_alternating(p) != (not flats):
            return False, f"alternating characterization failed at {p}"
    count = pa.laguerre_sum(n).evaluate(1, 1)
    if count != math.factorial(n):
        return False, f"history count {count} != {n}!"
    if n % 2:
        for p, reduced, _ in bj.lifted_histories(n):
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
        lefts = {}  # each distinct left factor, kept once for every key
        cores = {}  # each distinct core, checked restricted when first seen
        count = 0
        for path in pa.enumerate_family(family, 2 * n):
            h1, h2 = pa.penaud_decompose(path)
            if path.exponents() != h2.exponents():
                return False, f"weight not preserved for {path.dump()!r}"
            left = lefts.setdefault(h1.records, h1.records)
            core = cores.get(h2.records)
            if core is None:
                core = cores[h2.records] = h2.records
                if (pa.UNIT_UP, pa.UNIT_DOWN) in zip(core, core[1:]):
                    return False, f"core not restricted for {path.dump()!r}"
            if len(left) != 2 * n or 2 * n - 2 * left.count(pa.UNIT_DOWN) != len(core):
                return False, f"left factor does not end at the core length for {path.dump()!r}"
            key = (left, core)
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


def _binomial_transform(n: int, f: Callable[[int], Poly], sign: int) -> Poly:
    """sum_k C(n,k) (sign y)^(n-k) f(k) over k <= n; sign -1 inverts the transform with sign 1."""
    return poly_sum(
        Poly.monomial(sign ** (n - k) * binom_safe(n, k), n - k, 0) * f(k) for k in range(n + 1)
    )


# -- agreements: checks that compare independent routes at one index -----------
# A route calls the library through its module when it runs (pa.f(n), never a
# stored pa.f), so that a name rebound after import is the one it calls.  A
# route with an inner index k returns one tuple entry per k.


class Agreement(NamedTuple):
    """Named routes to one quantity, evaluated in order; all must equal the first.

    The detail of a pass is a string, or a function of the index and the route
    values; the detail of a failure names the routes that differ (_agree).
    """

    routes: tuple[tuple[str, Callable[[int], object]], ...]
    agree: str | Callable[..., str]


def _signed_row(route: tuple[str, Callable[[int], Poly]], vanishing: int,
                factor: Callable[[int], Poly], what: str) -> Agreement:
    """A signed sum against its closed value: zero when n % 2 == vanishing, else
    factor(n) * E_n(q), where what names E_n as the q-tangent or q-secant value."""
    closed = ("closed", lambda n: ZERO if n % 2 == vanishing else factor(n) * cf.q_euler_closed(n))
    return Agreement((route, closed),
                     lambda n, *_: "vanishes" if n % 2 == vanishing else f"matches {what} value")


# The families that path_enumeration_oracle enumerates, each with its length in units at n.
_ORACLE_FAMILIES = (("euler_dyck_1", 2), ("euler_dyck_0", 2), ("laguerre", 1),
                    ("derangement_motzkin", 1), ("touchard_dyck", 2))


def _reference_source(n: int) -> str:
    """Where ansatz_distribution reads A_n and B_n: the census within its budget."""
    return "brute force" if n <= pm.DEFAULT_BOUND - 1 else "closed forms"


AGREEMENTS: dict[str, Agreement] = {
    "equidistribution": Agreement((
        ("wex_cr", lambda n: pm.wex_cr_multiset(n)),
        ("asc_312", lambda n: pm.asc_312_multiset(n)),
    ), "multisets equal"),
    # Euler's refinement A_n(-1, q): 0 for even n, (-1)^((n+1)/2) E_n(q) for odd n
    "signed_wex_sum": _signed_row(
        ("census", lambda n: pm.q_eulerian_poly(n).substitute_y(-1)),
        0, lambda n: Poly.monomial((-1) ** ((n + 1) // 2)), "q-tangent"),
    # the trimmed lifted-path weights at y = -1 give (-1)^((n-1)/2) E_n(q) for odd n
    "reduced_path_sum": _signed_row(
        ("lifted_paths", lambda n: poly_sum(
            weight for _, _, weight in bj.lifted_histories(n)).substitute_y(-1)),
        0, lambda n: Poly.monomial((-1) ** ((n - 1) // 2)), "q-tangent"),
    "closed_form_even_vanishing": Agreement((
        ("closed", lambda n: cf.q_eulerian_closed(n).substitute_y(-1)),
        ("zero", lambda n: ZERO),
    ), "vanishes"),
    # Roselle's refinement B_n(-1/q, q): (-1/q)^(n/2) E_n(q) for even n, 0 for odd n
    "signed_derangement_sum": _signed_row(
        ("census", lambda n: pm.q_derangement_poly(n).substitute_y(-1, -1)),
        1, lambda n: Poly.monomial((-1) ** (n // 2), 0, -(n // 2)), "q-secant"),
    # A_n = sum_k C(n,k) y^(n-k) B_k and B_n = sum_k C(n,k) (-y)^(n-k) A_k
    "inversion": Agreement((
        ("census", lambda n: (pm.q_eulerian_poly(n), pm.q_derangement_poly(n))),
        ("inversion", lambda n: (_binomial_transform(n, pm.q_derangement_poly, 1),
                                 _binomial_transform(n, pm.q_eulerian_poly, -1))),
    ), "both inversion formulas hold"),
    # sum_j (-1)^j C(2n+1, j) C(2n+1, j+k) for each k <= 2n+1
    "g_identity": Agreement((
        ("direct", lambda n: tuple(cf.alternating_binom_convolution(n, k)
                                   for k in range(2 * n + 2))),
        ("closed", lambda n: tuple(cf.alternating_binom_convolution_closed(n, k)
                                   for k in range(2 * n + 2))),
    ), lambda n, *_: f"all k <= {2 * n + 1}"),
    "tangent_routes": Agreement((
        ("closed", lambda n: cf.q_tangent_closed(n)),
        ("dyck", lambda n: pa.euler_dyck_sum(n, 1)),
        ("alternating", lambda n: pm.alternating_31_2_poly(2 * n + 1)),
    ), "closed = dyck = alternating"),
    "secant_routes": Agreement((
        ("closed", lambda n: cf.q_secant_closed(n)),
        ("dyck", lambda n: pa.euler_dyck_sum(n, 0)),
        ("alternating", lambda n: pm.alternating_31_2_poly(2 * n)),
    ), "closed = dyck = alternating"),
    "touchard": Agreement((
        ("closed", lambda n: cf.touchard_riordan(n)),
        ("involutions", lambda n: pm.involution_crossing_poly(2 * n)),
        ("paths", lambda n: pa.touchard_dyck_sum(n)),
    ), "closed = involutions = path family"),
    # E_2n (1-q)^2n = (-q)^n <W|(-Dh+Eh)^2n|V>, by the double sum and by the operators
    "involution_relation": Agreement((
        ("closed", lambda n: cf.q_secant_closed(n) * (ONE - Q) ** (2 * n)
                             * Poly.monomial((-1) ** n, 0, -n)),
        ("double_sum", lambda n: cf.weighted_involution_sum(2 * n)),
        ("ansatz", lambda n: az.weighted_involution_ansatz(2 * n)),
    ), "relation holds"),
    "tableau_distributions": Agreement((
        ("tableaux", lambda n: (tb.tableau_poly(n), tb.derangement_tableau_poly(n))),
        ("census", lambda n: (pm.q_eulerian_poly(n), pm.q_derangement_poly(n))),
    ), "tableau sums match permutation sums"),
    "signed_tableau_sum": Agreement((
        ("signed", lambda n: tb.signed_derangement_tableau_sum(n)),
        ("tableaux", lambda n: tb.derangement_tableau_poly(n).substitute_y(-1, -1)),
        ("census", lambda n: pm.q_derangement_poly(n).substitute_y(-1, -1)),
    ), "signed sum consistent"),
    # the q-Eulerian numbers: the coefficient of y^k in A_n, for each k <= n
    "williams_numbers": Agreement((
        ("closed", lambda n: tuple(cf.q_eulerian_number_closed(k, n) for k in range(n + 1))),
        ("tableaux", lambda n: tuple(map(tb.tableau_poly(n).coefficient_of_y, range(n + 1)))),
    ), lambda n, *_: f"all k <= {n}"),
    "laguerre_transfer": Agreement((
        ("transfer", lambda n: pa.laguerre_sum(n)),
        ("census", lambda n: pm.q_eulerian_poly(n)),
        ("closed", lambda n: cf.q_eulerian_closed(n)),
    ), "matches brute force"),
    "motzkin_transfer": Agreement((
        ("transfer", lambda n: pa.derangement_motzkin_sum(n)),
        ("census", lambda n: pm.q_derangement_poly(n)),
        ("closed", lambda n: cf.q_derangement_closed(n)),
    ), "matches brute force"),
    # (tangent, secant) to order n; E_{2k+1} and E_{2k} are the Dyck sums of length 2k
    "cf_coefficients": Agreement((
        ("fraction", lambda n: tuple(zip(pa.cf_series(pa.tangent_cf_spec(), n),
                                         pa.cf_series(pa.secant_cf_spec(), n)))),
        ("deeper", lambda n: tuple(zip(pa.cf_series(pa.tangent_cf_spec(), n, depth=n + 2),
                                       pa.cf_series(pa.secant_cf_spec(), n, depth=n + 2)))),
        ("paths", lambda n: tuple(zip(pa.family_sums("euler_dyck_1", 2 * n, False)[::2],
                                      pa.family_sums("euler_dyck_0", 2 * n, False)[::2]))),
    ), lambda n, *_: f"all coefficients to order {n}, depth-stable"),
    "path_enumeration_oracle": Agreement((
        ("transfer", lambda n: (pa.euler_dyck_sum(n, 1), pa.euler_dyck_sum(n, 0),
                                pa.laguerre_sum(n), pa.derangement_motzkin_sum(n),
                                pa.touchard_dyck_sum(n))),
        ("enumeration", lambda n: tuple(pa.family_sum_by_enumeration(family, scale * n)
                                        for family, scale in _ORACLE_FAMILIES)),
    ), "explicit enumeration matches transfer sums"),
    # large Laguerre histories of size n at y = q = 1 count S_n
    "large_history_count": Agreement((
        ("transfer", lambda n: pa.large_laguerre_sum(n).evaluate(1, 1)),
        ("factorial", lambda n: math.factorial(n)),
    ), lambda n, count, _: f"count {count}"),
    "ansatz_distribution": Agreement((
        ("reference", lambda n: (pm.q_eulerian_poly(n), pm.q_derangement_poly(n))
            if _reference_source(n) == "brute force"
            else (cf.q_eulerian_closed(n), cf.q_derangement_closed(n))),
        ("ansatz", lambda n: (az.q_eulerian_ansatz(n), az.q_derangement_ansatz(n))),
    ), lambda n, *_: f"matches {_reference_source(n)}"),
    "ansatz_hat": Agreement((
        ("ansatz", lambda n: az.weighted_involution_ansatz(n)),
        ("double_sum", lambda n: cf.weighted_involution_sum(n)),
    ), "matches double sum"),
    # the derangement ansatz by (y(D'-I) + E')^n under the primed relation, by inversion
    "ansatz_shift": Agreement((
        ("shift", lambda n: az.boundary_eval(
            az.PRIMED, az.normal_power(az.PRIMED, n, Y, ONE, -Y))),
        ("inversion", lambda n: _binomial_transform(n, az.q_eulerian_ansatz, -1)),
        ("ansatz", lambda n: az.q_derangement_ansatz(n)),
    ), "operator shift and inversion agree"),
    # (secant core, tangent core)
    "core_sums": Agreement((
        ("closed", lambda k: (cf.secant_core_closed(k), cf.tangent_core_closed(k))),
        ("paths", lambda k: (pa.secant_core_path_sum(k), pa.tangent_core_path_sum(k))),
        ("schroder", lambda k: (pa.schroder_signed_sum(k, "secant"),
                                pa.schroder_signed_sum(k, "tangent"))),
        ("t_fraction", lambda k: (pa.cf_series(pa.secant_core_cf_spec(), k)[k],
                                  pa.cf_series(pa.tangent_core_cf_spec(), k)[k])),
    ), "closed = paths = Schroeder = T-fraction"),
    # Dyck left factors of 2n steps ending at height 2k, for each k <= n+1
    "left_factors": Agreement((
        ("shapes", lambda n: tuple(sum(1 for _ in pa.enumerate_family("left_factor", 2 * n, 2 * k))
                                   for k in range(n + 2))),
        ("ballot", lambda n: tuple(cf.ballot(2 * n, k) for k in range(n + 2))),
    ), "ballot numbers count left factors"),
    "rearrangement": Agreement((
        ("rearranged", lambda n: cf.tangent_via_core_rearrangement(n)),
        ("closed", lambda n: cf.q_tangent_closed(n)),
    ), "binomial rearrangement holds"),
    # (E_n, the intermediate sum that vanishes); the formula raises if odd s-powers survive
    "parity_free": Agreement((
        ("parity_free", lambda n: (
            cf.parity_free_euler_closed(n),
            ZERO if n == 0 else cf.parity_free_derangement_sum(n) if n % 2
            else cf.parity_free_wex_sum(n))),
        ("closed", lambda n: (cf.q_euler_closed(n), ZERO)),
    ), "equals E_n; intermediate sum vanishes; s-powers cancel"),
}


def _first_difference(a: tuple, b: tuple) -> int:
    """The first k at which the tuples differ, or the shorter length."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _agree(agreement: Agreement, index: int) -> tuple[bool, str]:
    """Run the routes in order; a failure names the routes whose value differs from
    the first route's, then the first, and for tuple values the least entry that differs."""
    names = [name for name, _ in agreement.routes]
    values = [route(index) for _, route in agreement.routes]
    differ = [i for i in range(1, len(values)) if values[i] != values[0]]
    if not differ:
        detail = agreement.agree
        return True, detail if isinstance(detail, str) else detail(index, *values)
    verb = "differs" if len(differ) == 1 else "differ"
    detail = f"{', '.join(names[i] for i in differ)} {verb} from {names[0]}"
    if all(isinstance(value, tuple) for value in values):
        detail += f" at entry {min(_first_difference(values[0], values[i]) for i in differ)}"
    return False, detail


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
