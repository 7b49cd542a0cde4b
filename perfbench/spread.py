"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/spread.py --workload tables --runs 10 --first-seed 101 \
        --out perfbench/baseline/my-label.json

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4), the interquartile distance as a share of the
median, and the metric's bound from BENCHMARK.json.  A spread above a third
of the bound is flagged: two medians of such a metric cannot tell a change
within its bound from noise.  With --out, every run's context line and result
line are saved with the summary, so a later change can be compared with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    context = next(json.loads(ln[len("context "):]) for ln in lines if ln.startswith("context "))
    return {"context": context, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = one_run(args.workload, seed, spec["run_seconds"], args.trace)
        res = run["result"]
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"{values}", flush=True)
        runs.append(run)
    summary = summarize(runs, bounds)
    steady = True
    for name, s in summary.items():
        flag = ""
        if s["bound"] is not None and name != "setup_s" and (
                s["spread"] is None or s["spread"] > s["bound"] / 3):
            flag, steady = "  above a third of its bound", False
        bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload:<15} {name:<32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {spread} bound {bound}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"], "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady and all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
