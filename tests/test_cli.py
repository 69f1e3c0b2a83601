import csv
import json

import pytest

from dkjoyce.cli import (
    ConfigInvalid,
    SuiteConfig,
    config_from_args,
    build_parser,
    dispersion_scan,
    format_report,
    main,
    run_suite,
)


def run(argv):
    return main(argv)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SuiteConfig(suite="nope")
    with pytest.raises(ConfigInvalid):
        SuiteConfig(suite="identities", window=(2, 4, 4, 4))
    with pytest.raises(ConfigInvalid):
        SuiteConfig(suite="identities", tol=0)
    with pytest.raises(ConfigInvalid):
        SuiteConfig(suite="identities", mass=-1)
    with pytest.raises(ConfigInvalid):
        SuiteConfig(suite="planewave", p=(1, 0, 0, 0), spatial=(0, 0, 0))
    cfg = SuiteConfig(suite="planewave", spatial=(0.0, 0.0, 0.0), branch="-")
    assert cfg.momentum() == (-1.0, 0.0, 0.0, 0.0)


def test_identities_suite_passes():
    cfg = SuiteConfig(suite="identities", window=(4, 4, 4, 4), seed=42)
    report = run_suite(cfg)
    assert report["overall"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert "eq2.25-adjointness" in names


def test_identities_exit_code(tmp_path):
    out = tmp_path / "r.json"
    code = run(["run", "--suite", "identities", "--window", "4,4,4,4",
                "--seed", "42", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"


def test_json_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run(["run", "--suite", "planewave", "--seed", "9",
                    "--spatial", "0,0,0", "--branch", "+",
                    "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_dispersion_violated_reported(tmp_path):
    out = tmp_path / "r.json"
    code = run(["run", "--suite", "planewave", "--p", "1,1,0,0",
                "--mass", "1", "--format", "json", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall"] == "fail"
    details = " ".join(c.get("detail", "") for c in report["checks"])
    assert "DispersionViolated" in details


def test_config_error_exit_code(tmp_path, capsys):
    code = run(["run", "--suite", "identities", "--window", "2,4,4,4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_dispersion_scan_rows():
    rows = dispersion_scan(1.0, (0.0, 0.5), (4, 4, 4, 4))
    assert len(rows) == 16
    rest = [r for r in rows if (r["p1"], r["p2"], r["p3"]) == (0, 0, 0)]
    assert sorted(r["p0"] for r in rest) == [-1.0, 1.0]
    for r in rest:
        assert r["residual_interior_max"] == 0


def test_dispersion_scan_perturb_column():
    rows = dispersion_scan(1.0, (0.0,), (4, 4, 4, 4), perturb=True)
    assert len(rows) == 2
    for r in rows:
        assert r["residual_perturbed"] > 1e-2


def test_scan_csv_output(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["run", "--suite", "dispersion-scan", "--mass", "1",
                "--grid", "0,0.5", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p1", "p2", "p3", "branch", "p0",
                       "residual_interior_max"]
    assert len(rows) == 17


def test_amplitudes_file(tmp_path):
    amp = tmp_path / "amp.json"
    amp.write_text(json.dumps({"alpha0": [1, 0], "alpha12": [0, 2]}))
    out = tmp_path / "r.json"
    code = run(["run", "--suite", "planewave", "--spatial", "0,0,0",
                "--branch", "+", "--amplitudes", str(amp),
                "--format", "json", "--out", str(out)])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphaX": [1, 0]}))
    assert run(["run", "--suite", "planewave", "--amplitudes", str(bad)]) == 2


def test_tol_env_override(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["run", "--suite", "identities"])
    monkeypatch.setenv("DKJOYCE_TOL", "1e-6")
    cfg = config_from_args(args)
    assert cfg.tol == 1e-6
    monkeypatch.setenv("DKJOYCE_TOL", "zzz")
    with pytest.raises(ConfigInvalid):
        config_from_args(args)
    monkeypatch.delenv("DKJOYCE_TOL")
    args = parser.parse_args(["run", "--suite", "identities",
                              "--tol", "1e-4"])
    assert config_from_args(args).tol == 1e-4


def test_text_and_csv_formats():
    cfg = SuiteConfig(suite="planewave", spatial=(0.0, 0.0, 0.0),
                      branch="+", seed=1)
    report = run_suite(cfg)
    text = format_report(report, "text")
    assert "overall:" in text and "eq4.7-eigen-relation" in text
    out = format_report(report, "csv")
    assert out.splitlines()[0] == "name,status,value,threshold"


@pytest.mark.parametrize("suite, extra", [
    ("dispersion-scan", ["--grid", "0,abc"]),
    ("dispersion-scan", ["--grid", ","]),
    ("dispersion-scan", ["--grid", "0,nan"]),
    ("planewave", ["--p", "nan,0,0,0"]),
    ("planewave", ["--mass", "inf"]),
    ("planewave", ["--spatial", "0,inf,0"]),
    ("planewave", ["--tol", "inf"]),
])
def test_malformed_or_nonfinite_input_exit_code(suite, extra, capsys):
    assert run(["run", "--suite", suite] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ['{"alpha4": [1, Infinity]}', '{'])
def test_amplitudes_file_rejected(tmp_path, capsys, text):
    amp = tmp_path / "amp.json"
    amp.write_text(text)
    assert run(["run", "--suite", "planewave", "--amplitudes", str(amp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
