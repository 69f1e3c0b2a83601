"""The benchmark comparison script on fabricated runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _fake_run(bad):
    """A benchmark run that reads incorrect for each (side, workload, seed,
    trace) in ``bad``, and then has every case failed unless traced."""
    def run(tree, workload, seed, trace):
        wrong = (tree.name, workload, seed, trace) in bad
        return {"seed": seed, "correct": not wrong, "attempted": 4,
                "failed": 4 * (wrong and trace == 0),
                "metrics": {m: 1.0 for m in bench_compare.END_TO_END}}
    return run


@pytest.fixture
def fake_benchmark(monkeypatch):
    """Sets the runs that read bad; nothing is exported or run."""
    monkeypatch.setattr(bench_compare, "WORKLOADS", ["waves", "exact"])
    monkeypatch.setattr(bench_compare, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_compare, "export", lambda ref, dest: dest)
    return lambda bad: monkeypatch.setattr(bench_compare, "run",
                                           _fake_run(bad))


def test_bench_compare_writes_the_record_then_names_each_bad_run(
        fake_benchmark, tmp_path, capsys):
    # seed 9973 fails on the change's side; the parent's traced seed-1 run
    # reads incorrect with nothing failed
    fake_benchmark({("change", "exact", 9973, 0), ("parent", "waves", 1, 1)})
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", "p", "--change", "c", "--out",
                               str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["git"] == {"parent": "p", "change": "c"}
    # three hold-out pairs, so the change fails seed 9973 three times
    assert sorted(bench_compare.bad_runs(record["workloads"])) \
        == [("change", "exact", 9973, 0)] * 3 + [("parent", "waves", 1, 1)]
    err = capsys.readouterr().err.splitlines()
    assert err.count("change exact seed 9973 trace 0: result does not match "
                     "the reference") == 3
    assert "parent waves seed 1 trace 1: result does not match the " \
        "reference" in err
    assert len(err) == 4


def test_bench_compare_exits_0_when_every_run_matches(
        fake_benchmark, tmp_path, capsys):
    fake_benchmark(set())
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", "p", "--change", "c", "--out",
                               str(out)]) == 0
    assert out.exists() and capsys.readouterr().err == ""
