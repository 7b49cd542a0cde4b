"""The suite plan: every verification suite, its default bound and its index loops.

Kept apart from the check engines so that the command-line parser can list
the suites without importing them; qeuler.verify builds and runs the checks.
"""

from __future__ import annotations

from typing import NamedTuple


class Row(NamedTuple):
    """One index loop of a suite; checks sharing it run interleaved per index.

    "n=", "k=" and "2n=" loop over an index n (passed as k for "k="); "n<=" runs
    once with n_max, "seed=" once with the seed, any other label once with no
    arguments.  A loop reaches its limit when the size of n (n, 2n, 2n+1) does.
    """

    checks: str  # names in verify.AGREEMENTS or of verify._chk_* functions, separated by spaces
    label: str = "n="
    first: int = 0
    limit: tuple[str, int] | None = None  # ("cap", N): min(bound, N); "floor": max; "fixed": N
    size: str = "n"
    step: int = 1

    def reach(self, bound: int) -> int:
        kind, n = self.limit or ("", bound)
        return {"cap": min(bound, n), "floor": max(bound, n), "fixed": n}.get(kind, bound)


# The greatest word length that the tableau oracle checks exhaustively.
WORD_ORACLE_MAX_LEN = 6

# Default bounds keep a full run of every suite below ten desktop minutes.
PLAN: dict[str, tuple[int, tuple[Row, ...]]] = {
    "th1": (9, (Row("equidistribution", first=1, limit=("cap", 8)),
                Row("non_equidistribution_derangements", "n<=", limit=("cap", 8)),
                Row("signed_wex_sum", first=1),
                Row("reduced_path_sum", first=1),
                Row("closed_form_even_vanishing", first=2, step=2, limit=("floor", 12)))),
    "th2": (9, (Row("signed_derangement_sum"), Row("inversion", limit=("cap", 8)))),
    "th3": (10, (Row("g_identity"), Row("tangent_routes", limit=("cap", 9), size="2n+1"))),
    "th4": (12, (Row("secant_routes", limit=("cap", 8), size="2n"),
                 Row("touchard", limit=("cap", 10), size="2n"),
                 Row("involution_relation", limit=("cap", 12), size="2n"))),
    "tableaux": (7, (Row("tableau_distributions signed_tableau_sum"),
                     Row("williams_numbers", first=1),
                     Row("transpose", limit=("cap", 6)))),
    "paths": (9, (Row("laguerre_transfer motzkin_transfer"),
                  Row("large_history_count", first=1, limit=("cap", 8)),
                  Row("cf_coefficients", "n<=", limit=("floor", 12)),
                  Row("path_enumeration_oracle", limit=("fixed", 4)))),
    "ansatz": (12, (Row("ansatz_distribution ansatz_hat"),
                    Row("ansatz_shift", limit=("cap", 8)),
                    Row("confluence", "seed="),
                    Row("word_oracle", f"len<={WORD_ORACLE_MAX_LEN}"))),
    "bijection": (7, (Row("bijection_size", first=1),)),
    "section5": (8, (Row("core_sums", "k="),
                     Row("penaud", "2n=", limit=("cap", 5)),
                     Row("left_factors", "2n=", limit=("cap", 5)),
                     Row("rearrangement", limit=("cap", 6)))),
    "section6": (10, (Row("parity_free"),)),
}
SUITES = tuple(PLAN)
