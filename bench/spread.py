"""Measure the run-to-run spread of the end-to-end metrics and derive bounds.

    python3 bench/spread.py --runs 10 --first-seed 1

Runs ``bench/run.py`` one run at a time, for ``run_seconds`` of
BENCHMARK.json, in two sets of ``--runs`` runs per workload, each run with
its own seed.  For every end-to-end metric it prints the median and the
spread of each set (distance between the first and third quartile, as a
share of the median), the bound in BENCHMARK.json, the bound the spread
suggests (three times the spread, rounded up to 0.05, at most 0.25) and
how far the second median moved from the first.  It fails when a spread
or that move exceeds the bound, or when the share of failed operations
differs between runs.  The figures are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(argv)}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def suggested_bound(s: float) -> float:
    return min(0.25, max(0.05, round(math.ceil(3 * s / 0.05) * 0.05, 2)))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sets = []
        for k in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                t0 = time.perf_counter()
                result = one_run(workload, seed, seconds)
                print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
                ok &= result["correct"]
                runs.append(result)
            sets.append(runs)
        shares = {round(r["failed"] / r["attempted"], 12) for runs in sets for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: the share of failed operations differs between runs: {shares}")
        rows = {}
        for name, bound in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians, spreads = zip(*(spread(v) for v in per_set))
            row = {"values": per_set, "medians": medians, "spreads": spreads, "bound": bound,
                   "suggested_bound": suggested_bound(max(spreads))}
            line = (f"{workload:10s} {name:12s} median {medians[0]:<12.6g} spread "
                    + " ".join(f"{s:.3f}" for s in spreads)
                    + f"  bound {bound}  suggested {row['suggested_bound']}")
            if max(spreads) > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            better = next(m["better"] for m in config["end_to_end"] if m["name"] == name)
            worse = (medians[1] - medians[0]) / medians[0] * (1 if better == "lower" else -1)
            row["second_set_worse_by"] = worse
            line += f"  second set worse by {worse:+.3f}"
            if worse > bound:
                ok = False
                line += "  OVER BOUND"
            print(line, flush=True)
            rows[name] = row
        report["workloads"][workload] = rows

    out = ROOT / "bench" / "results"
    out.mkdir(exist_ok=True)
    path = out / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}; {'all within bounds' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
