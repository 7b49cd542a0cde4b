"""Peak memory of the exhaustive checks, and what the ansatz caches keep.

penaud keeps the (left factor, core) pair of every signed Dyck path, and the
tableau sums read every tableau once.  The keys are compact or share their
parts, so the peaks stay well below a fresh copy per object.
bijection_size and reduced_path_sum keep no key: the first decodes each
image back to its permutation, and the walk of the second yields one image
at a time while the sum holds only weights, so their ceilings guard against
a check that keeps its objects alive.  Each check
runs under tracemalloc with every cache of the library cleared first, so the
peak counts what the check itself builds.
"""

import tracemalloc

import pytest

from qeuler import ansatz, bijections, closedforms, paths, permutations, tableaux, verify
from qeuler.verify import Check, run_check

_MODULES = (ansatz, bijections, closedforms, paths, permutations, tableaux, verify)


def _clear_caches():
    for module in _MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.mark.parametrize("suite, check_id, func, kwargs, ceiling_mb", [
    ("bijection", "bijection_size/n=7", "bijection_size", {"n": 7}, 0.2),
    ("tableaux", "tableau_distributions/n=7", "tableau_distributions", {"n": 7}, 1.0),
    ("section5", "penaud/2n=8", "penaud", {"n": 4}, 0.8),
    ("th1", "reduced_path_sum/n=8", "reduced_path_sum", {"n": 8}, 0.25),
])
def test_exhaustive_check_peak_memory(suite, check_id, func, kwargs, ceiling_mb):
    _clear_caches()
    tracemalloc.start()
    try:
        result = run_check(Check(suite, check_id, func, kwargs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "PASS", result.detail
    assert peak / 2**20 < ceiling_mb, f"{check_id} peaked at {peak / 2**20:.2f} MB"


def test_ansatz_caches_keep_only_the_newest_power():
    # the caches keep the newest power of each of the four sequences these checks
    # build and the values: about 1.6 MB at n=10, and about 3.5 MB if every power stayed
    _clear_caches()
    tracemalloc.start()
    try:
        results = [run_check(Check("ansatz", f"{func}/n=10", func, {"n": 10}))
                   for func in ("ansatz_distribution", "ansatz_hat", "ansatz_shift")]
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.status == "PASS" for r in results), [r.detail for r in results]
    assert current / 2**20 < 2.5, f"the ansatz caches hold {current / 2**20:.2f} MB"
