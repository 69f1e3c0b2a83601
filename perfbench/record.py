"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record.py [--workload NAME ...]

Runs every case of the pool (development and hold-out) once and writes
``perfbench/reference/<workload>.json``.  Re-record only on purpose: the
references pin the outputs of the commit they were recorded at.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(workloads, workload) -> dict:
    workdir = run.OUT_DIR / f"record-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    cases = {}
    try:
        for case_id in workloads.DEV_CASES + workloads.HOLDOUT_CASES:
            times, ops = run.timed_pass(
                workload, workload.make_case(case_id), str(workdir))
            print(f"{workload.name} case {case_id}: {len(ops)} ops, "
                  f"{sum(times.values()):.2f} s", file=sys.stderr)
            cases[str(case_id)] = ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload.name, "cases": cases}


def main(argv=None) -> int:
    workloads = run.import_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        data = record(workloads, workloads.WORKLOADS[name])
        with open(run.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
