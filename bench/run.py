"""Benchmark of the intervalcat counting engine.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  One run:

1. set-up: starts a fresh interpreter ``SETUP_REPEATS`` times, each
   importing the package and planning the workload's inputs, and reports
   the median wall time, scaled to the reference host speed, as
   ``setup_s``;
2. rounds: repeats the workload's fixed round of operations, in an order
   drawn afresh for every round, while the next round is expected to end
   within ``--seconds``; only the operations are timed, and every CLI call
   builds its rule tables afresh;
3. checks: compares every round's outputs with references computed apart
   from the program (``refs.py``), outside the timed part.

With ``--trace 0`` it prints the end-to-end metrics: ``run_s`` (the median
round time, scaled to the reference host speed that ``probe`` measures),
``items_per_s``, ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced rounds alternate and it prints the
per-layer metrics (medians over traced rounds) and the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
# Lower-quartile time of probe() on the reference host (2-core VM, CPython 3.11) when quiet.
PROBE_REF_S = 0.005

# Names and units of the metrics, as the benchmark declares them.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import intervalcat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "intervalcat" / "__init__.py").is_file():
        sys.exit(f"error: no intervalcat sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import intervalcat

    if Path(intervalcat.__file__).resolve().parent != (src / "intervalcat").resolve():
        sys.exit(f"error: imported intervalcat from {intervalcat.__file__}, not from {src}")


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports and plans.

    It is divided by the host slowdown that the median of the probes run
    before and after each set-up shows: a set-up is short, so scaling each
    by its own pair of probes would add the probes' noise to it.  This
    process and the interpreters it starts are held to one CPU meanwhile,
    so that the probes time the CPU the set-ups run on.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times, probes = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            probes.append(probe_time())
            t0 = time.perf_counter()
            # no timeout: waiting with one polls in steps of up to 50 ms
            subprocess.run(argv, check=True, cwd=ROOT)
            times.append(time.perf_counter() - t0)
            probes.append(probe_time())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times) * PROBE_REF_S / statistics.median(probes)


def probe() -> int:
    """Fixed pure-Python work, a gauge of the host's speed: bit tricks, a list stack, a dict."""
    stack = []
    seen = {}
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        bits = x
        while bits:
            low = bits & -bits
            stack.append(low.bit_length())
            bits ^= low
        while stack:
            seen[stack.pop() & 63] = i
    return len(seen)


class Run:
    """The rounds of one run and what they produced."""

    def __init__(self, workload, plan, seed: int):
        self.wl = workload
        self.plan = plan
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.round_summaries: list[list] = []

    def round(self) -> tuple[float, float]:
        """One round in a fresh order; returns its time, raw and scaled to the reference host.

        The order changes from round to round because an operation's time
        depends on what ran before it: the heap it inherits.  The round is
        cut into up to about 16 segments of consecutive operations, each
        between two probes; a segment's time is divided by the host
        slowdown that the mean of its two probes shows.
        """
        gc.collect()
        summaries = [None] * len(self.plan)
        segments: list[float] = []
        probes: list[float] = []
        stride = max(1, len(self.plan) // 16)
        for k, i in enumerate(self.rng.sample(range(len(self.plan)), len(self.plan))):
            if k % stride == 0:
                probes.append(probe_time())
                segments.append(0.0)
            op = self.plan[i]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.wl.run(op)
            except Exception:  # one operation's failure is counted, the run goes on
                segments[-1] += time.perf_counter() - t0
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            segments[-1] += time.perf_counter() - t0
            try:
                summaries[i] = self.wl.digest(op, out)
            except (ValueError, KeyError, IndexError) as exc:
                self.errors.append(f"unreadable output of {op!r:.80}: {exc}")
        probes.append(probe_time())
        self.round_summaries.append(summaries)
        scaled = sum(t * 2 * PROBE_REF_S / (before + after) for t, before, after in zip(segments, probes, probes[1:]))
        return sum(segments), scaled

    def items(self, summaries) -> int:
        return sum(self.wl.items(op, s) for op, s in zip(self.plan, summaries) if s is not None)

    def check(self) -> list[str]:
        """Every round's outputs against the references; failed operations are skipped."""
        errors = list(self.errors)
        for summaries in self.round_summaries:
            if None not in summaries:
                errors += self.wl.check(self.plan, summaries)
        return errors


def probe_time() -> float:
    """Wall time of one ``probe()``; over ``PROBE_REF_S`` it gives the host's slowdown at that moment.

    On a shared host, other tenants' load slows the program by up to half,
    in phases of seconds to minutes; no statistic over a run's rounds
    filters load that lasts the whole run, while the probes measure it.
    """
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def median_round(rounds: list[tuple[float, float]]) -> tuple[float, float]:
    """Median raw and median scaled round time."""
    return tuple(statistics.median(r[k] for r in rounds) for k in (0, 1))


def run_rounds(run: Run, seconds: float, trace: bool):
    """Rounds until the next one would end past ``seconds``; at least one."""
    from tracing import Tracer

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run.round())
        if trace:
            with Tracer() as tracer:
                traced.append(run.round())
            useful = getattr(run.wl, "useful", lambda _: 0)(run.round_summaries[-1])
            layers.append(tracer.metrics(useful))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return untraced, traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in CONFIG["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        wl.plan(args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    run = Run(wl, wl.plan(args.seed), args.seed)
    untraced, traced, layers = run_rounds(run, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = run.check()
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    raw_run_s, run_s = median_round(untraced)
    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.run_s"] = median_round(traced)[1]
        values["trace.untraced_run_s"] = run_s
        values["trace.overhead_ratio"] = values["trace.run_s"] / run_s
        declared = CONFIG["per_layer"]
    else:
        values = {
            "run_s": run_s,
            "items_per_s": run.items(run.round_summaries[0]) / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = CONFIG["end_to_end"]
    print(f"{args.workload}: {len(run.plan)} operations a round; (raw, scaled) round times untraced "
          f"{[(round(a, 3), round(b, 3)) for a, b in untraced]}, traced {[(round(a, 3), round(b, 3)) for a, b in traced]}; "
          f"median raw {raw_run_s:.3f} s, scaled {run_s:.3f} s", file=sys.stderr)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        sys.exit(f"error: measured metrics and BENCHMARK.json differ in {sorted(set(values) ^ set(names))}")
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
