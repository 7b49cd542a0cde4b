"""Independent reference values for the `tables` workload.

Each table entry is a polynomial in y and q; at y = q = 1 it counts a classical
family, computed here with plain integers and no qeuler code:

* etangent, esecant: the zigzag numbers E_{2n+1} and E_{2n}, by the
  boustrophedon (Seidel) recurrence;
* A: n!;  B: the derangement numbers;  touchard: (2n-1)!!;
* eulerian: the number of permutations of n with k weak exceedances,
  W(n, k) = k W(n-1, k) + (n-k+1) W(n-1, k-1).
"""

from __future__ import annotations

import json
import math


def zigzag_numbers(count: int) -> list[int]:
    """E_0 .. E_{count-1}, the alternating-permutation counts."""
    row, out = [1], [1]
    while len(out) < count:
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[-1])
    return out


def derangement_numbers(count: int) -> list[int]:
    out = [1, 0]
    for n in range(2, count):
        out.append((n - 1) * (out[-1] + out[-2]))
    return out[:count]


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, with (-1)!! = 1."""
    return math.prod(range(1, 2 * n, 2))


def weak_exceedance_eulerian(n_max: int) -> dict[tuple[int, int], int]:
    """W(n, k) for 0 <= k <= n <= n_max."""
    w = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            w[(n, k)] = k * w.get((n - 1, k), 0) + (n - k + 1) * w.get((n - 1, k - 1), 0)
    return w


def expected_entries(kind: str, n_max: int) -> list[tuple[str, int]]:
    """(label, value at y = q = 1) for every entry of `qeuler table kind`."""
    ns = range(n_max + 1)
    if kind == "etangent":
        zig = zigzag_numbers(2 * n_max + 2)
        return [(f"E_{2 * n + 1}", zig[2 * n + 1]) for n in ns]
    if kind == "esecant":
        zig = zigzag_numbers(2 * n_max + 1)
        return [(f"E_{2 * n}", zig[2 * n]) for n in ns]
    if kind == "A":
        return [(f"A_{n}", math.factorial(n)) for n in ns]
    if kind == "B":
        der = derangement_numbers(n_max + 1)
        return [(f"B_{n}", der[n]) for n in ns]
    if kind == "touchard":
        return [(f"T_{n}", double_factorial_odd(n)) for n in ns]
    if kind == "eulerian":
        w = weak_exceedance_eulerian(n_max)
        return [(f"Ehat_{k},{n}", w[(n, k)]) for n in range(1, n_max + 1) for k in range(n + 1)]
    raise ValueError(f"no reference for table kind {kind!r}")


def check_table(kind: str, n_max: int, text: str) -> list[str]:
    """Problems found in the JSON wire-format output of one table invocation."""
    try:
        doc = json.loads(text)
        got = [
            (e["index"], e["label"], e["poly"]["vars"], sum(t[0] for t in e["poly"]["terms"]))
            for e in doc["entries"]
        ]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable table output: {type(exc).__name__}: {exc}"]
    if doc.get("kind") != kind:
        return [f"table kind {doc.get('kind')!r}, expected {kind!r}"]
    want = expected_entries(kind, n_max)
    if len(got) != len(want):
        return [f"{len(got)} entries, expected {len(want)}"]
    problems = []
    for i, ((index, label, variables, value), (want_label, want_value)) in enumerate(zip(got, want)):
        if (index, label, variables) != (i, want_label, ["y", "q"]):
            problems.append(f"entry {i}: header {index}, {label!r}, {variables}")
        elif value != want_value:
            problems.append(f"{label} at y=q=1 is {value}, reference {want_value}")
    return problems
