"""dkjoyce benchmark: time to a verification verdict, and where it goes.

    python3 perfbench/run.py --workload identities|waves|exact \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dkjoyce is imported from ``src/``.
``--trace 0`` times untraced passes for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs traced and untraced passes of one
case and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_SAMPLES = 5

# Run in a fresh interpreter: import dkjoyce and build the workload's inputs.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import dkjoyce, dkjoyce.cli
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
cases = [w.make_case(i) for i in workloads.case_ids(int(sys.argv[4]))]
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here, or its own checks failed."""


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, after one warm-up that
    fills the bytecode cache."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


def import_program():
    if not (SRC / "dkjoyce" / "__init__.py").is_file():
        raise BenchError(f"no dkjoyce sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import dkjoyce
    if Path(dkjoyce.__file__).resolve().parent != SRC / "dkjoyce":
        raise BenchError(f"dkjoyce imported from {dkjoyce.__file__}, not {SRC}")
    import workloads
    return workloads


class Checker:
    """Counts operations and compares their outputs with the reference."""

    def __init__(self, workloads, workload):
        self.workloads = workloads
        with open(REFERENCE_DIR / f"{workload.name}.json") as fh:
            self.reference = json.load(fh)["cases"]
        self.attempted = 0
        self.failed = 0

    def check(self, case_id, ops):
        ref = self.reference[str(case_id)]
        self.attempted += max(len(ref), len(ops))
        self.failed += abs(len(ref) - len(ops)) + sum(
            not self.workloads.matches(r, o) for r, o in zip(ref, ops))

    def raised(self, case_id):
        n = len(self.reference[str(case_id)])
        self.attempted += n
        self.failed += n


def timed_pass(workload, case, workdir):
    """Run one pass; returns the wall time of each step and the outputs."""
    gc.collect()
    times = {}
    results = []
    for label, step in workload.steps(case, workdir):
        t0 = time.perf_counter()
        results.append(step())
        times[label] = time.perf_counter() - t0
    return times, workload.outputs(case, results, workdir)


def pass_seconds(passes) -> float:
    """Wall time of one pass: the sum over its steps of each step's median
    over the passes, so a burst of machine noise that hits one step of one
    pass does not move it."""
    return sum(statistics.median(p[label] for p in passes)
               for label in passes[0])


def highest_percentile(n: int) -> str:
    """The highest of p50/p90/p99 with at least ten passes beyond it."""
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}"
    return f"none (needs >= 20 passes, have {n})"


def run_untraced(workload, cases, checker, seconds, workdir):
    """Timed passes, cycling through the cases, until the next pass would
    end after ``seconds``; returns the step times of the passes that ran."""
    passes = []
    spent = []
    start = time.perf_counter()
    while not spent or time.perf_counter() - start \
            + statistics.mean(spent) <= seconds:
        case = cases[len(spent) % len(cases)]
        t0 = time.perf_counter()
        try:
            times, ops = timed_pass(workload, case, workdir)
        except Exception as exc:  # a raising pass counts its operations failed
            print(f"case {case['id']}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            checker.raised(case["id"])
        else:
            checker.check(case["id"], ops)
            passes.append(times)
        spent.append(time.perf_counter() - t0)
    return passes


def run_traced(workload, case, checker, workdir, spans_path):
    """Untraced, traced, untraced, traced passes of one case."""
    import layertrace
    tracer = layertrace.Tracer()
    passes = {False: [], True: []}
    outputs = {}
    stats = []
    for traced in (False, True, False, True):
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times, ops = timed_pass(workload, case, workdir)
        finally:
            tracer.uninstall()
        checker.check(case["id"], ops)
        passes[traced].append(times)
        if outputs.setdefault(traced, ops) != ops:
            raise BenchError("two passes of one case gave different outputs")
        if traced:
            if not stats:
                tracer.write_spans(spans_path)
            stats.append({k: list(v) for k, v in tracer.stats.items()})
    if outputs[True] != outputs[False]:
        raise BenchError("a traced pass gave other outputs than an untraced one")
    counts = [{k: v[:2] for k, v in s.items()} for s in stats]
    if counts[0] != counts[1]:
        raise BenchError("calls/coeffs differ between two traced passes")
    overhead = pass_seconds(passes[True]) - pass_seconds(passes[False])
    self_total = {k: v[2] for k, v in stats[0].items()}
    return layertrace.layer_metrics(stats, overhead), self_total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads = import_program()
        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            raise BenchError(f"unknown workload {args.workload!r}; choose from "
                             f"{', '.join(workloads.WORKLOADS)}")
        setup_s = None if args.trace else setup_seconds(workload.name, args.seed)
        cases = [workload.make_case(i) for i in workloads.case_ids(args.seed)]
        checker = Checker(workloads, workload)
        OUT_DIR.mkdir(exist_ok=True)
        workdir = OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            if args.trace:
                spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
                metrics, self_total = run_traced(
                    workload, cases[0], checker, str(workdir), spans_path)
            else:
                passes = run_untraced(workload, cases, checker, args.seconds,
                                      str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        busiest = sorted(self_total.items(), key=lambda kv: -kv[1])[:8]
        total = sum(self_total.values()) or 1.0
        print(f"{workload.name} seed {args.seed}: traced case {cases[0]['id']};"
              f" spans in {spans_path.relative_to(ROOT)}")
        for name, s in busiest:
            print(f"  {name:42} self {s:8.3f} s  {100 * s / total:5.1f}%")
        out_metrics = metrics
    else:
        if not passes:
            print("error: no pass completed", file=sys.stderr)
            return 1
        wall_s = pass_seconds(passes)
        totals = [sum(p.values()) for p in passes]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mismatch = checker.failed / max(checker.attempted, 1)
        print(f"{workload.name} seed {args.seed}: {len(passes)} passes over "
              f"cases {[c['id'] for c in cases]}; whole passes median "
              f"{statistics.median(totals):.4f} s, min {min(totals):.4f}, max "
              f"{max(totals):.4f}; highest percentile with >= 10 passes beyond "
              f"it: {highest_percentile(len(totals))}")
        print(f"mismatch_ratio {checker.failed}/{checker.attempted} = "
              f"{mismatch:g} (ratio)")
        out_metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
    for name, (value, unit) in out_metrics.items():
        print(f"  {name:40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
