"""The declarative suite plan: the checks it builds and the limits it states."""

import hashlib
import json

import pytest

import qeuler.verify as verify
from qeuler.verify import AGREEMENTS, PLAN, SUITES, build_suite, limit_notes, run_check

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


@pytest.mark.parametrize("name, position", [
    pytest.param(name, i, id=f"{name}-{route}")
    for name, agreement in AGREEMENTS.items() for i, (route, _) in enumerate(agreement.routes)
])
def test_every_route_can_fail_its_check(name, position, monkeypatch):
    monkeypatch.delenv(verify.BUDGET_ENV_VAR, raising=False)
    agreement = AGREEMENTS[name]
    check = _first_check_from_two(name)
    assert run_check(check).status == "PASS", check.check_id
    routes = list(agreement.routes)
    routes[position] = (routes[position][0], lambda index: object())
    monkeypatch.setitem(AGREEMENTS, name, agreement._replace(routes=tuple(routes)))
    result = run_check(check)
    assert (result.status, result.detail) == ("FAIL", agreement.disagree), check.check_id


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

