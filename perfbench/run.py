"""The qeuler benchmark: fixed workloads of `qeuler` CLI invocations.

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --workload tables --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload verify-enum --trace 1   # per-layer metrics

Each invocation runs in a fresh interpreter (`python -m qeuler.cli ...`), one
at a time: a closed loop with one client, so every run pays the import and the
lru_cache fills that a user pays.  A pass runs every invocation of the workload
once, in an order drawn from the seed; passes repeat while one more still fits
in `--seconds`.  Every invocation must exit 0, print no FAIL line and reproduce the
pinned sha256 of its data section (stdout before the `# timing` trailer);
tables are also checked against plain-integer reference values.

The speed of a shared virtual CPU changes by 20% and more, within seconds and
over minutes, and CPU time changes with it.  So a timed run pins its
invocations to one CPU, where `probe.py` times a fixed kernel every 40 ms, and
every reported time is scaled to the speed at which that kernel takes
PROBE_REFERENCE_S.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
PROBE = HERE / "probe.py"
SPAWN = HERE / "spawn.py"

# A typical time of the probe's kernel: it reads 0.8 to 1.5 ms on the 2-vCPU
# Intel Xeon virtual machine the baseline was recorded on.  Times are reported
# at the speed at which it takes this long.
PROBE_REFERENCE_S = 0.0012

# Every --n-max is pinned so that a change to the package's default budgets
# cannot change what a workload runs.
WORKLOADS = {
    "verify-enum": (
        "verify th1 --n-max 8",
        "verify bijection --n-max 7",
        "verify section5 --n-max 4",
        "verify tableaux --n-max 7",
        "verify th2 --n-max 8",
    ),
    "verify-algebra": (
        "verify paths --n-max 8",
        "verify ansatz --n-max 8 --seed {seed}",
    ),
    "tables": (
        "table etangent --n-max 40 --format json",
        "table esecant --n-max 40 --format json",
        "table touchard --n-max 40 --format json",
        "table A --n-max 24 --format json",
        "table B --n-max 24 --format json",
        "table eulerian --n-max 12 --format json",
    ),
}

# Per-layer counters that must be nonzero on a traced run of each workload:
# each workload is the mover of these metrics (README, "Layer metrics").
MOVERS = {
    "verify-enum": (
        "poly.mul.calls", "poly.mul.s", "poly.mul.term_pairs", "poly.new.calls",
        "poly.new.s", "poly.add.s", "permutations.s", "permutations.sweep_perms",
        "bijections.fv.calls", "bijections.fv.s", "paths.build.calls", "paths.build.s",
        "paths.weight.calls", "paths.weight.s", "paths.enumerate.paths",
        "paths.enumerate.s", "paths.enumerate.distinct_ratio", "tableaux.fillings.s",
        "tableaux.count", "verify.checks", "verify.max_check_s", "verify.critical_share",
        "trace.overhead_ratio",
    ),
    "verify-algebra": (
        "poly.mul.calls", "poly.mul.s", "poly.mul.term_pairs", "poly.mul.monomial_share",
        "poly.mul.cf_series_share", "paths.cf_series.s", "paths.cf_series.share",
        "paths.transfer.s", "ansatz.normal_power.calls", "ansatz.normal_power.s",
        "trace.overhead_ratio",
    ),
    "tables": (
        "poly.div.calls", "poly.div.s", "poly.div.share", "poly.new.calls", "poly.new.s",
        "poly.add.s", "closedforms.self_s", "cli.render.s", "cli.output_bytes",
        "trace.overhead_ratio",
    ),
}

SETUP_PROBES = 16
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0
STATUS = re.compile(r" (PASS|FAIL)  ")
SEED_ARG = re.compile(r"(confluence/seed=)-?\d+ *")


@dataclass
class Invocation:
    template: str  # the workload line; its pinned digest is keyed by it
    argv: list[str]
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    code: int = 0
    stdout: bytes = b""
    stderr: bytes = b""
    start: float = 0.0  # time.monotonic(), to match the probe's readings
    end: float = 0.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QEULER_BUDGET_OVERRIDE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(inv: Invocation, traced: bool, deadline: float, cpu: int | None = None) -> Invocation:
    """Run one fresh interpreter through spawn.py, which times it and reads
    its rusage with os.wait4.

    With `cpu`, the child is pinned to that CPU: it inherits the affinity of
    the thread that starts it.
    """
    entry = [str(HERE / "tracer.py")] if traced else ["-m", "qeuler.cli"]
    own = os.sched_getaffinity(0)
    report_r, report_w = os.pipe()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        proc = subprocess.Popen(
            [sys.executable, str(SPAWN), str(report_w), sys.executable, *entry, *inv.argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(report_w,), start_new_session=True,
        )
    finally:
        os.close(report_w)
        if cpu is not None:
            os.sched_setaffinity(0, own)
    # The session holds spawn.py and the invocation; a kill takes both.
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), kill_group, (proc,))
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        inv.stdout = proc.stdout.read()
        reader.join()
        proc.wait()
        with os.fdopen(report_r, "rb") as fh:
            report = fh.read()
    finally:
        killer.cancel()
    proc.stdout.close()
    proc.stderr.close()
    inv.stderr = err[0] if err else b""
    if not report:  # killed before it could report
        inv.code = proc.returncode or -signal.SIGKILL
        return inv
    measured = json.loads(report)
    inv.wall, inv.cpu, inv.rss_mb = measured["wall"], measured["cpu"], measured["rss_mb"]
    inv.code, inv.start, inv.end = measured["code"], measured["start"], measured["end"]
    return inv


def data_section(stdout: bytes) -> str:
    text = stdout.decode("utf-8", "replace")
    head, _, _ = text.partition("\n# timing")
    return head


def digest(template: str, data: str) -> str:
    if "{seed}" in template:  # the confluence check's id carries the seed
        data = SEED_ARG.sub(r"\1* ", data)
    return hashlib.sha256(data.encode()).hexdigest()


def problems(inv: Invocation, pinned: dict[str, str]) -> list[str]:
    """Why one invocation failed; empty when it passed every check."""
    if inv.code != 0:
        return [f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-300:]}"]
    data = data_section(inv.stdout)
    found = []
    if inv.argv[0] == "verify":
        bad = [ln for ln in data.splitlines() if (m := STATUS.search(ln)) is None or m[1] != "PASS"]
        if bad:
            found.append(f"not PASS: {bad[0]!r}")
    if digest(inv.template, data) != pinned.get(inv.template):
        found.append("data-section digest differs from the pinned one")
    if inv.argv[0] == "table":
        found.extend(reference.check_table(inv.argv[1], int(inv.argv[3]), data))
    return found


def invocations(workload: str, seed: int) -> list[Invocation]:
    return [Invocation(t, t.format(seed=seed).split()) for t in WORKLOADS[workload]]


class Probe:
    """Runs probe.py on `cpu` and collects its readings of the CPU's speed."""

    def __init__(self, cpu: int):
        self.readings: list[tuple[float, float]] = []
        self.proc = subprocess.Popen([sys.executable, str(PROBE), str(cpu)], cwd=ROOT,
                                     stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            at, seconds = line.split()
            self.readings.append((float(at), float(seconds)))

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()

    def slowdown(self, inv: Invocation) -> float:
        """The CPU's mean slowdown against the reference while `inv` ran; the
        nearest reading when none fell inside it."""
        starts = [at for at, _ in self.readings]
        lo, hi = bisect.bisect_left(starts, inv.start), bisect.bisect_right(starts, inv.end)
        inside = [seconds for _, seconds in self.readings[lo:hi]]
        if not inside:
            mid = (inv.start + inv.end) / 2
            inside = [min(self.readings, key=lambda r: abs(r[0] - mid))[1]]
        return statistics.fmean(inside) / PROBE_REFERENCE_S


def another_pass(durations: list[float], start: float, seconds: float, deadline: float,
                 minimum: int) -> bool:
    """Whether one more pass, of the median length so far, still fits the run."""
    now = time.perf_counter()
    expected = statistics.median(durations)
    if now + expected > deadline:
        return False
    return len(durations) < minimum or now - start + expected <= seconds


def run_pass(workload: str, seed: int, rng: random.Random, traced: bool, deadline: float,
             probes: list[Invocation] | None = None, cpu: int | None = None):
    """One pass over the workload in a seeded order; returns (wall, invocations).

    The wall time of a pass is the sum of its invocations' wall times.  With
    `probes`, a set-up probe follows each invocation until SETUP_PROBES are
    taken, so that set-up is sampled across the run and not in one burst.
    """
    order = invocations(workload, seed)
    rng.shuffle(order)
    for inv in order:
        invoke(inv, traced, deadline, cpu)
        if probes is not None and len(probes) < SETUP_PROBES:
            probes.append(invoke(Invocation("--help", ["--help"]), False, deadline, cpu))
    return sum(inv.wall for inv in order), order


# -- per-layer metrics from the tracer's aggregates ------------------------------


def merge_traces(runs: list[Invocation]) -> dict:
    total = {"calls": {}, "incl": {}, "self": {}, "counts": {}, "edges": {}, "checks": [],
             "requests": 0, "distinct_requests": 0}
    for inv in runs:
        line = inv.stderr.decode(errors="replace").rpartition("perfbench-trace ")[2]
        trace = json.loads(line)
        for key in ("calls", "incl", "self", "counts", "edges"):
            for name, value in trace[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["checks"].extend(trace["checks"])
        requests = [v for k, v in trace["counts"].items() if k.startswith("paths.enumerate.request:")]
        total["requests"] += sum(requests)
        total["distinct_requests"] += len(requests)
    return total


def layer_metrics(t: dict, wall: float, untraced_wall: float, output_bytes: int) -> dict[str, float]:
    calls, incl, counts, checks = t["calls"], t["incl"], t["counts"], t["checks"]
    c = lambda name: calls.get(name, 0)
    s = lambda group: incl.get(group, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    mul_calls = c("poly.Poly.__mul__")
    return {
        "poly.mul.calls": mul_calls,
        "poly.mul.s": s("poly.mul"),
        "poly.mul.term_pairs": counts.get("poly.mul.term_pairs", 0),
        "poly.mul.monomial_share": ratio(counts.get("poly.mul.monomial_calls", 0), mul_calls),
        "poly.mul.cf_series_share": ratio(s("poly.mul@paths.cf_series"), s("paths.cf_series")),
        "poly.div.calls": c("poly.exact_div_one_minus_q_pow"),
        "poly.div.s": s("poly.div"),
        "poly.div.share": s("poly.div") / wall,
        "poly.new.calls": c("poly.Poly.__init__"),
        "poly.new.s": s("poly.new"),
        "poly.add.s": s("poly.add"),
        "permutations.s": s("permutations"),
        "permutations.sweep_perms": counts.get("permutations.sweep_perms", 0),
        "bijections.fv.calls": c("bijections.francon_viennot"),
        "bijections.fv.s": s("bijections.fv"),
        "paths.build.calls": c("paths.path_from_steps"),
        "paths.build.s": s("paths.build"),
        "paths.weight.calls": c("paths.WeightedPath.weight"),
        "paths.weight.s": s("paths.weight"),
        "paths.enumerate.paths": counts.get("paths.enumerate.paths", 0),
        "paths.enumerate.s": s("paths.enumerate"),
        "paths.enumerate.distinct_ratio": ratio(t["distinct_requests"], t["requests"]),
        "paths.cf_series.s": s("paths.cf_series"),
        "paths.cf_series.share": s("paths.cf_series") / wall,
        "paths.transfer.s": s("paths.transfer"),
        "tableaux.fillings.s": s("tableaux.fillings"),
        "tableaux.count": counts.get("tableaux.count", 0),
        "ansatz.normal_power.calls": c("ansatz.normal_power"),
        "ansatz.normal_power.s": s("ansatz.normal_power"),
        "closedforms.self_s": t["self"].get("closedforms", 0.0),
        "enum.share": s("enum") / wall,
        "verify.checks": len(checks),
        "verify.max_check_s": max(checks, default=0.0),
        "verify.critical_share": ratio(max(checks, default=0.0), sum(checks)),
        "cli.render.s": s("cli.render"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": wall / untraced_wall,
    }


LAYER_UNITS = {"calls": "count", "term_pairs": "count", "sweep_perms": "count",
               "paths": "count", "count": "count", "checks": "count", "output_bytes": "B"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    return "s" if last == "s" or last.endswith("_s") else "ratio"


def self_test(workload: str, t: dict, metrics: dict, untraced: list, traced: list) -> list[str]:
    """Checks that the tracer saw what the workload does; empty when all hold."""
    found = [f"{name} is 0 on {workload}" for name in MOVERS[workload] if not metrics[name]]
    plain = {inv.template: digest(inv.template, data_section(inv.stdout)) for inv in untraced}
    for inv in traced:
        if digest(inv.template, data_section(inv.stdout)) != plain[inv.template]:
            found.append(f"traced output differs from untraced: {inv.template}")
    # Names imported with `from .x import f` must be wrapped where they are bound.
    edges = t["edges"]
    if workload == "verify-enum":
        if edges.get("bijections>paths.path_from_steps", 0) < metrics["bijections.fv.calls"]:
            found.append("path_from_steps as bound in bijections is not traced")
        if not edges.get("bijections>permutations.ascents"):
            found.append("ascents as bound in bijections is not traced")
    if workload == "tables" and not edges.get("closedforms>poly.exact_div_one_minus_q_pow"):
        found.append("exact_div_one_minus_q_pow as bound in closedforms is not traced")
    return found


# -- one run of one workload -----------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Returns (attempted, failed, metrics, failure notes, measured times before scaling)."""
    pinned = json.loads(DIGESTS.read_text())
    rng = random.Random(seed)
    notes: list[str] = []
    attempted = failed = 0

    def tally(runs: list[Invocation]) -> None:
        nonlocal attempted, failed
        for inv in runs:
            attempted += 1
            found = problems(inv, pinned) if inv.template != "--help" else (
                [] if inv.code == 0 and inv.stdout.startswith(b"usage:") else ["--help failed"])
            if found:
                failed += 1
                notes.append(f"{inv.template}: {'; '.join(found)}")

    start = time.perf_counter()
    if trace:
        plain_wall, untraced = run_pass(workload, seed, rng, False, deadline)
        tally(untraced)
        per_pass, walls, traced_runs = [], [], []
        while not walls or another_pass(walls, start, seconds, deadline, 1):
            wall, traced_runs = run_pass(workload, seed, rng, True, deadline)
            tally(traced_runs)
            if any(inv.code != 0 for inv in traced_runs):
                break
            walls.append(wall)
            out_bytes = sum(len(inv.stdout) for inv in traced_runs)
            total = merge_traces(traced_runs)
            per_pass.append((layer_metrics(total, wall, plain_wall, out_bytes), total))
        if not per_pass:
            return attempted, failed, {}, notes + ["traced pass failed"], {}
        metrics = {name: statistics.median(m[name] for m, _ in per_pass) for name in per_pass[0][0]}
        notes.extend(self_test(workload, per_pass[-1][1], metrics, untraced, traced_runs))
        return attempted, failed, metrics, notes, {}

    invoke(Invocation("--help", ["--help"]), False, deadline)  # writes __pycache__
    # The invocations and the probe share the last CPU; this process, which
    # reads their output, keeps the others when there are others.
    cpus_allowed = sorted(os.sched_getaffinity(0))
    cpu = cpus_allowed[-1]
    if len(cpus_allowed) > 1:
        os.sched_setaffinity(0, cpus_allowed[:-1])
    probe = Probe(cpu)
    passes: list[list[Invocation]] = []
    setup: list[Invocation] = []
    durations: list[float] = []
    try:
        while not durations or another_pass(durations, start, seconds, deadline, MIN_PASSES):
            pass_start = time.perf_counter()
            passes.append(run_pass(workload, seed, rng, False, deadline, setup, cpu)[1])
            durations.append(time.perf_counter() - pass_start)
            tally(passes[-1])
    finally:
        probe.stop()
        os.sched_setaffinity(0, cpus_allowed)
    if not probe.readings:
        return attempted, failed, {}, notes + ["the speed probe gave no readings"], {}
    slow = {id(inv): probe.slowdown(inv) for inv in setup + [i for p in passes for i in p]}
    walls = [sum(inv.wall for inv in p) for p in passes]
    cpus = [sum(inv.cpu for inv in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(sum(inv.wall / slow[id(inv)] for inv in p) for p in passes),
        "cpu_s": statistics.median(sum(inv.cpu / slow[id(inv)] for inv in p) for p in passes),
        "setup_s": statistics.median(inv.wall / slow[id(inv)] for inv in setup),
        "peak_rss_mb": max(inv.rss_mb for p in passes for inv in p),
    }
    raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
           "setup_s": statistics.median(inv.wall for inv in setup),
           "slowdown": statistics.fmean(r for _, r in probe.readings) / PROBE_REFERENCE_S,
           "passes": len(passes), "probes": len(setup), "readings": len(probe.readings)}
    tally(setup)
    return attempted, failed, metrics, notes, raw


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_context(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qeuler").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def pin(seed: int) -> int:
    """Record the data-section digest of every invocation from the current code."""
    pinned = {}
    for workload in WORKLOADS:
        for inv in invocations(workload, seed):
            invoke(inv, False, time.perf_counter() + 600)
            data = data_section(inv.stdout)
            if inv.code != 0 or (inv.argv[0] == "verify" and " FAIL  " in data):
                print(f"refusing to pin a failing invocation: {inv.template}", file=sys.stderr)
                return 1
            pinned[inv.template] = digest(inv.template, data)
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"pinned {len(pinned)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the current code and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qeuler" / "cli.py").is_file():
        print(f"error: no qeuler source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(args.seed)

    print("context " + json.dumps(run_context(args.seed)), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics_out: dict[str, dict] = {}
    all_notes: list[str] = []
    for workload in names:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        a, f, metrics, notes, raw = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        attempted, failed = attempted + a, failed + f
        all_notes.extend(f"{workload}: {n}" for n in notes)
        prefix = "" if len(names) == 1 else workload + "."
        if args.trace:
            for name, value in metrics.items():
                metrics_out[prefix + name] = {"value": value, "unit": layer_unit(name)}
                print(f"{workload:<15} {name:<32} {value:>14.6g} {layer_unit(name)}")
            continue
        for name, value in metrics.items():
            metrics_out[prefix + name] = {"value": value, "unit": E2E_UNITS[name]}
            measured = f"  (measured {raw[name]:.4f} {E2E_UNITS[name]})" if name in raw else ""
            print(f"{workload:<15} {name:<12} {value:>10.4f} {E2E_UNITS[name]}{measured}")
        print(f"{workload:<15} {'fail_ratio':<12} {f / a:>10.4f} ratio  ({f} of {a} invocations failed)")
        print(f"{workload:<15} samples: {raw['passes']} passes, {raw['probes']} set-up probes, "
              f"{raw['readings']} speed readings; CPU slowdown {raw['slowdown']:.3f}",
              flush=True)
    for note in all_notes:
        print("FAILED " + note, file=sys.stderr)
    result = {
        "correct": failed == 0 and not all_notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
