"""Peak memory of the exhaustive checks, and what the ansatz caches keep.

The tableau sums read every tableau once; their keys are compact, so the
peak stays well below a fresh copy per object.
bijection_size, penaud and reduced_path_sum keep no key: the first decodes
each image back to its permutation, the second recomposes each path from its
parts, and the walk of the third yields one image at a time while the sum
holds only weights, so their ceilings guard against a check that keeps its
objects alive.  Each check
runs under tracemalloc with every cache of the library cleared first, so the
peak counts what the check itself builds.
The census transfers hold one layer of prefix states and the part of the
next built so far, so their peak is well below the sum of the layers.
A table streams its entries, so its peak is about its largest entry; the
per-k blocks that closedforms caches for the next entry stay well below it.
"""

import contextlib
import os
import tracemalloc

import pytest

from qeuler import ansatz, bijections, cli, closedforms, paths, permutations, tableaux, verify
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
    ("section5", "penaud/2n=8", "penaud", {"n": 4}, 0.1),
    ("th1", "reduced_path_sum/n=8", "reduced_path_sum", {"n": 8}, 0.25),
    ("section5", "penaud/2n=10", "penaud", {"n": 5}, 0.1),
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


def test_census_transfers_keep_about_one_layer():
    # measured: 2.04 MB at n=9, 3.4 MB with both layers whole, 5.7 MB with every layer kept
    _clear_caches()
    tracemalloc.start()
    try:
        assert permutations.wex_cr_multiset(9) == permutations.asc_312_multiset(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 4.0, f"the S_9 census transfers peaked at {peak / 2**20:.2f} MB"


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


@pytest.mark.parametrize("kind, n_max, peak_mb", [("etangent", 40, 2.9), ("B", 24, 2.0)])
def test_table_memory_is_its_largest_entry_and_the_cached_blocks(kind, n_max, peak_mb):
    # measured: peaks of 1.44 and 0.95 MB; the caches then hold 0.31 and 0.06 MB
    _clear_caches()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["table", kind, "--n-max", str(n_max), "--format", "json"])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak / 2**20 < peak_mb, f"table {kind} peaked at {peak / 2**20:.2f} MB"
    assert held / 2**20 < 0.5, f"the caches hold {held / 2**20:.2f} MB after table {kind}"
