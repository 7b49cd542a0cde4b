"""The declarative suite plan: the checks it builds and the limits it states."""

import hashlib
import inspect
import json
import types

import pytest

import qeuler.verify as verify
from qeuler import ansatz, bijections, closedforms, paths, permutations, tableaux
from qeuler.poly import Poly
from qeuler.verify import (
    AGREEMENTS,
    PLAN,
    SUITES,
    build_suite,
    limit_notes,
    render_reports,
    run_check,
    run_suites,
)

# sha256 of [[(check_id, func, kwargs) for each check] for b in 0..13 for seed in (0, 5)],
# recorded from the if/elif chain that the plan table replaced.
PLAN_DIGESTS = {
    "th1": "0939f2a10e2e1debc45746e654ad05278429d18d9ac997d5ae71605978ce3290",
    "th2": "d2b984b6b76a91870c9f38b6d5e66af1b6ec09fdcd07e8b5cee8492ddffbd8ff",
    "th3": "dc5381346d0010b3cfd500144912a367f190fcc837a82d870973028009594117",
    "th4": "558dbe3ac85c70b5b08e339acb8cd835bc9e9be54b78ce2e3caf35c50d24106f",
    "tableaux": "96cd2cd1384e7ee511b915605e0ece16c661929e85df55ebdb856e5ef9ce4b40",
    "paths": "4ad36354decf3e53ae9abeb4a2c2ecce247f8aa83d7e3fde3b40197df44ada0a",
    "ansatz": "e4cd1adf01f3fcc6f736f9b6e2a205a2e2778869bd829d6698da27c567dfe9ca",
    "bijection": "b117a166a4a0d67815be55ee8cad85ba41d97e8f25088c81a54b575984145eef",
    "section5": "ac8d39e2ee387db125cd80cf0bc308bbecb636ab25d9d753c853ea3758fc6b58",
    "section6": "401ff4997672fa604c1a8813f978f8fac92b2dc740c8037ccf07541c745559dd",
}


# sha256 of the data section of every suite's report at n_max=4: each check id,
# status and detail string.  Recorded before the inversion check became an
# agreement row and the step-weight objects were deleted.
REPORT_DIGEST = "ef2036cf08bfe4c7a5913d3fafb3fb9eb0ea67c830b5c9bf6431b5c6f2aa7fb8"


@pytest.mark.parametrize("suite", SUITES)
def test_plan_builds_the_recorded_checks(suite, monkeypatch):
    monkeypatch.delenv(verify.BUDGET_ENV_VAR, raising=False)
    plan = [
        [(c.check_id, c.func, c.kwargs) for c in build_suite(suite, b, seed)]
        for b in range(14)
        for seed in (0, 5)
    ]
    digest = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    assert digest == PLAN_DIGESTS[suite], f"suite {suite} builds a different plan"


def test_report_data_at_n_max_4_is_the_recorded_one(monkeypatch):
    monkeypatch.delenv(verify.BUDGET_ENV_VAR, raising=False)
    data = render_reports(run_suites(list(SUITES), n_max=4)).partition("\n# timing")[0]
    assert hashlib.sha256(data.encode()).hexdigest() == REPORT_DIGEST


# The checks that stay _chk_ functions, each with what it does per object that a row
# of routes could not.  A new check that only compares routes is an AGREEMENTS row.
PER_OBJECT_CHECKS = {
    "non_equidistribution_derangements": "stops at the first size whose distributions split",
    "transpose": "asserts closure and involution on each derangement tableau",
    "confluence": "compares two association orders on each random word",
    "word_oracle": "compares the operator and tableau values of each word",
    "bijection_size": "asserts injectivity and the path criteria on each permutation",
    "penaud": "asserts weight, injectivity, a restricted core and the left factor's end height"
              " on each decomposed path",
}


def test_only_the_per_object_checks_are_functions():
    functions = {name[len("_chk_"):] for name in vars(verify) if name.startswith("_chk_")}
    assert functions == set(PER_OBJECT_CHECKS)


def test_every_check_function_has_a_row_and_every_row_a_function():
    in_rows = [name for _, rows in PLAN.values() for row in rows for name in row.checks.split()]
    functions = {name[len("_chk_"):] for name in vars(verify) if name.startswith("_chk_")}
    assert len(in_rows) == len(set(in_rows)), "a check is named in two rows"
    assert not functions & set(AGREEMENTS), "a check is both a function and an agreement"
    assert set(in_rows) == functions | set(AGREEMENTS)
    assert set(SUITES) == set(PLAN_DIGESTS)


def test_every_route_is_a_function_of_verify():
    # perfbench/tracer.py wraps a library function by rebinding the names that
    # refer to it; a route holding the function object itself would escape it.
    for name, agreement in AGREEMENTS.items():
        for route, fn in agreement.routes:
            assert fn.__module__ == "qeuler.verify", f"{name}: route {route}"


def _first_check_from_two(name):
    """The first check of a row at the default bounds whose index is at least 2."""
    checks = [c for suite in SUITES for c in build_suite(suite) if c.func == name]
    return next(c for c in checks if min(c.kwargs.values()) >= 2)


def _perturbed(value):
    """The value changed but of its kind: a tuple with entry 1 changed, a Poly or an int
    plus one; a value of any other kind becomes a bare object."""
    if isinstance(value, tuple):
        return (value[0], _perturbed(value[1]), *value[2:])
    if isinstance(value, (Poly, int)):
        return value + 1
    return object()


def _perturbing(agreement, position):
    """The row with the route at position perturbed."""
    routes = list(agreement.routes)
    route, fn = routes[position]
    routes[position] = (route, lambda index: _perturbed(fn(index)))
    return agreement._replace(routes=tuple(routes))


@pytest.mark.parametrize("name, position", [
    pytest.param(name, i, id=f"{name}-{route}")
    for name, agreement in AGREEMENTS.items() for i, (route, _) in enumerate(agreement.routes)
])
def test_every_route_can_fail_its_check(name, position, monkeypatch):
    monkeypatch.delenv(verify.BUDGET_ENV_VAR, raising=False)
    agreement = AGREEMENTS[name]
    check = _first_check_from_two(name)
    assert run_check(check).status == "PASS", check.check_id
    monkeypatch.setitem(AGREEMENTS, name, _perturbing(agreement, position))
    result = run_check(check)
    # The rule of _agree: a perturbed first route differs from every other route,
    # any other route differs alone, and a tuple value differs at entry 1.
    names = [route for route, _ in agreement.routes]
    differ = names[1:] if position == 0 else [names[position]]
    tuples = isinstance(agreement.routes[position][1](*check.kwargs.values()), tuple)
    want = f"{', '.join(differ)} {'differs' if len(differ) == 1 else 'differ'} from {names[0]}"
    assert (result.status, result.detail) == ("FAIL", want + " at entry 1" * tuples), check.check_id


# Exact strings, so that the rule is not checked only against its restatement above.
@pytest.mark.parametrize("name, position, detail", [
    ("signed_wex_sum", 1, "closed differs from census"),
    ("parity_free", 1, "closed differs from parity_free at entry 1"),
    ("tangent_routes", 0, "dyck, alternating differ from closed"),
    ("core_sums", 0, "paths, schroder, t_fraction differ from closed at entry 1"),
])
def test_fail_detail_names_the_routes_that_differ(name, position, detail):
    assert verify._agree(_perturbing(AGREEMENTS[name], position), 2) == (False, detail)


def test_every_row_names_its_routes_apart():
    for name, agreement in AGREEMENTS.items():
        names = [route for route, _ in agreement.routes]
        assert all(names) and len(set(names)) == len(names), name


@pytest.mark.parametrize("name, n, detail", [
    ("signed_wex_sum", 2, "vanishes"),
    ("signed_wex_sum", 3, "matches q-tangent value"),
    ("reduced_path_sum", 2, "vanishes"),
    ("reduced_path_sum", 3, "matches q-tangent value"),
    ("closed_form_even_vanishing", 2, "vanishes"),
    ("signed_derangement_sum", 3, "vanishes"),
    ("signed_derangement_sum", 2, "matches q-secant value"),
])
def test_signed_rows_pass_with_the_detail_of_their_parity(name, n, detail):
    assert verify._agree(AGREEMENTS[name], n) == (True, detail)


@pytest.mark.parametrize("name, n, detail", [
    ("ansatz_distribution", 9, "matches brute force"),
    ("ansatz_distribution", 10, "matches closed forms"),
    ("parity_free", 0, "equals E_n; intermediate sum vanishes; s-powers cancel"),
])
def test_rows_pass_with_the_detail_of_their_index(name, n, detail):
    assert verify._agree(AGREEMENTS[name], n) == (True, detail)


def _code_names(code: types.CodeType) -> set[str]:
    """The global and attribute names that a code object and the code nested in it read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _names_the_checks_read() -> set[str]:
    """The names read by every route, every _chk_ function and the verify helpers they call."""
    todo = [fn for agreement in AGREEMENTS.values() for _, fn in agreement.routes]
    todo += [fn for name, fn in vars(verify).items() if name.startswith("_chk_")]
    seen, names = set(), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        found = _code_names(fn.__code__)
        names |= found
        for name in found:
            helper = inspect.unwrap(getattr(verify, name, None))
            if inspect.isfunction(helper) and helper.__module__ == verify.__name__:
                todo.append(helper)
    return names


# Public library functions that no route or _chk_ function names, with the reason.
NOT_ROUTES = {
    "qeuler.closedforms.tangent_core_piece": "a term of q_tangent_closed and tangent_core_closed",
    "qeuler.paths.path_from_steps": "the validating constructor under every encoded, lifted and "
                                     "decomposed path; enumerated paths come from its own table",
    "qeuler.paths.family_sum": "the last entry of family_sums; every named transfer sum is one",
    "qeuler.permutations.parse_permutation": "reads the argument of qeuler bijection",
    "qeuler.permutations.crossings": "one permutation's statistic; the census's test oracle",
    "qeuler.permutations.weak_exceedances": "one permutation's statistic; the census's test oracle",
    "qeuler.permutations.ascents": "asserted on every image by francon_viennot",
    "qeuler.permutations.pattern_31_2": "asserted on every image by francon_viennot",
    "qeuler.permutations.fixed_points": "a per-permutation statistic of stat_vector",
    "qeuler.permutations.stat_vector": "the statistics line of qeuler bijection",
    "qeuler.permutations.fpf_involutions": "the involutions that involution_crossing_poly sums",
    "qeuler.tableaux.shapes_of_half_perimeter": "the shapes that enumerate_tableaux fills",
    "qeuler.tableaux.fillings": "the fillings that enumerate_tableaux yields",
    "qeuler.tableaux.enumerate_tableaux": "the enumeration under tableau_poly",
    "qeuler.ansatz.left_mul_e": "a rewrite step of normal_power",
    "qeuler.ansatz.left_mul_d": "a rewrite step of normal_power and nf_mul",
    "qeuler.bijections.lift_append_one": "the lift that qeuler bijection prints",
}


def test_every_public_library_function_is_a_route_or_listed():
    names = _names_the_checks_read()
    unrouted = {
        f"{module.__name__}.{name}"
        for module in (closedforms, paths, permutations, tableaux, ansatz, bijections)
        for name, obj in vars(module).items()
        if not name.startswith("_") and name not in names
        and inspect.isfunction(fn := inspect.unwrap(obj)) and fn.__module__ == module.__name__
    }
    assert sorted(unrouted - set(NOT_ROUTES)) == [], "public functions no check reaches"
    assert sorted(set(NOT_ROUTES) - unrouted) == [], "listed, but a check reaches them"


@pytest.mark.parametrize(
    "suite, bound, notes",
    [
        ("th1", 10, ["equidistribution cap 8 on n (bound 10)",
                     "non_equidistribution_derangements cap 8 on n (bound 10)",
                     "closed_form_even_vanishing floor 12 on n (bound 10)"]),
        ("th1", 4, ["closed_form_even_vanishing floor 12 on n (bound 4)"]),
        ("th1", 8, ["closed_form_even_vanishing floor 12 on n (bound 8)"]),
        ("th3", 10, ["tangent_routes cap 9 on 2n+1 (bound 10)"]),
        ("th3", 9, []),
        ("paths", 12, ["large_history_count cap 8 on n (bound 12)",
                       "path_enumeration_oracle fixed 4 on n (bound 12)"]),
        ("section6", 4, []),
    ],
)
def test_limit_notes_name_each_binding_limit(suite, bound, notes):
    assert limit_notes(suite, bound) == notes

