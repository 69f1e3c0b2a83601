"""Compare two commits on the dkjoyce benchmark and write a BENCH file.

    python3 tools/bench_compare.py --parent REF --change REF --out FILE

Each commit is exported with ``git archive`` into a temporary directory and
run there with ``perfbench/run.py``, so the benchmark of each side is the one
committed with it.  Workloads and run length are read from ``BENCHMARK.json``.
For every workload the script runs ten pairs of ``--trace 0`` runs with seeds
1..10, alternating which side goes first, then three pairs on the hold-out
seed 9973, then one ``--trace 1 --seed 1`` run per side.  It writes every run, per-side medians
and quartiles, the pairs each side won, the git SHAs and the Python and
numpy versions.  It runs one benchmark process at a time.  Having written
the file, it exits 1 and names on stderr each run whose result reads
``failed > 0`` or ``"correct": false``, else it exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SECONDS = CONTRACT["run_seconds"]
PAIRS = 10
HOLDOUT_SEED = 9973
HOLDOUT_PAIRS = 3
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> Path:
    """Write the tree of ``ref`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit "
                           f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def pairs(trees: dict, workload: str, seeds: list) -> list:
    """Alternating runs: even pairs start with the parent, odd ones with the
    change."""
    out = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(trees[side], workload, seed, 0)
            print(f"{workload} seed {seed} {side}: "
                  f"{pair[side]['metrics']}", flush=True)
        out.append(pair)
    return out


def compare(runs: list) -> dict:
    """Per metric: both sides' summaries, the change/parent median ratio and
    the pairs the change won (lower is better for every metric)."""
    out = {}
    for metric in END_TO_END:
        side = {s: [p[s]["metrics"][metric] for p in runs]
                for s in ("parent", "change")}
        out[metric] = {
            "parent": summary(side["parent"]),
            "change": summary(side["change"]),
            "median_ratio": statistics.median(side["change"])
            / statistics.median(side["parent"]),
            "change_wins": sum(c < p for p, c in zip(side["parent"],
                                                     side["change"])),
            "pairs": len(runs),
        }
    out["failed"] = {s: sum(p[s]["failed"] for p in runs)
                     for s in ("parent", "change")}
    return out


def bad_runs(workloads: dict) -> list:
    """(side, workload, seed, trace) of every run in ``workloads`` whose
    result reads ``failed > 0`` or ``"correct": false``."""
    out = []
    for w, rec in workloads.items():
        runs = [(side, pair[side], 0) for pair in rec["runs"]
                + rec["holdout_runs"] for side in ("parent", "change")]
        runs += [(side, r, 1) for side, r in rec["trace_seed_1"].items()]
        out += [(side, w, r["seed"], trace) for side, r, trace in runs
                if r["failed"] > 0 or not r["correct"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {side: export(sha, Path(tmp) / side)
                 for side, sha in shas.items()}
        workloads = {}
        for w in WORKLOADS:
            runs = pairs(trees, w, list(range(1, PAIRS + 1)))
            holdout = pairs(trees, w, [HOLDOUT_SEED] * HOLDOUT_PAIRS)
            workloads[w] = {
                "runs": runs, "summary": compare(runs),
                "holdout_runs": holdout, "holdout_summary": compare(holdout),
                "trace_seed_1": {side: run(trees[side], w, 1, 1)
                                 for side in ("parent", "change")},
            }
    record = {
        "command": " ".join(["python3", "tools/bench_compare.py",
                             *(argv if argv is not None else sys.argv[1:])]),
        "benchmark_command": "python3 perfbench/run.py --workload W "
                             "--seed S --seconds T --trace 0|1",
        "seconds": SECONDS,
        "git": shas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": {"platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    bad = bad_runs(workloads)
    for side, w, seed, trace in bad:
        print(f"{side} {w} seed {seed} trace {trace}: result does not match "
              f"the reference", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
