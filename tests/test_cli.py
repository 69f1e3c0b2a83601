import csv
import itertools
import json

import numpy as np
import pytest

from dkjoyce import DiscreteForm, InhomogeneousForm, Window
from dkjoyce.cli import (
    DEFAULT_TOL,
    IDENTITY_CHECKS,
    ConfigInvalid,
    SuiteConfig,
    _random_amplitudes,
    config_from_args,
    build_parser,
    dispersion_scan,
    format_report,
    identity_check,
    main,
    random_form,
    random_inhomogeneous,
    run_suite,
)
from dkjoyce.complex4 import _BLADE_TABLE, ALL_BLADES, blade_product
from dkjoyce.dirac_joyce import DK_SYSTEM, JOYCE_RHS
from dkjoyce.planewave import EvenAmplitudes


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


def test_tol_flag_and_default():
    parser = build_parser()
    args = parser.parse_args(["run", "--suite", "identities"])
    assert config_from_args(args).tol == DEFAULT_TOL
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
    ("planewave", ["--spatial", "1e200,0,0"]),
    ("planewave", ["--p", "1e200,0,0,0"]),
    ("dispersion-scan", ["--grid", "1e200"]),
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_inputs_equal_per_value_draws(seed):
    # each suite input is one array draw; it must give the values, and leave
    # the generator in the state, of one scalar draw per real and imaginary
    # part taken site by site, then blade by blade, re before im
    win = Window((3, 4, 3, 5))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)

    def value():
        return complex(slow.integers(-9, 10), slow.integers(-9, 10))

    def form(degree):
        return DiscreteForm(degree, {
            (k, dirs): value() for k in win.sites()
            for dirs in itertools.combinations(range(4), degree)})

    for degree in range(5):
        got = random_form(fast, degree, win)
        assert list(got.items()) == list(form(degree).items())
        assert fast.bit_generator.state == slow.bit_generator.state
    got = random_inhomogeneous(fast, win)
    assert list(got.items()) == list(
        InhomogeneousForm([form(r) for r in range(5)]).items())
    assert fast.bit_generator.state == slow.bit_generator.state
    assert _random_amplitudes(fast) == EvenAmplitudes(
        *[value() for _ in range(8)])
    assert fast.bit_generator.state == slow.bit_generator.state


# ---------------------------------------------------------------------------
# each identity check catches a wrong entry in the table it tests

@pytest.mark.parametrize("entry, count", [(((1,), (2,)), 58),
                                          (((0,), (0,)), 56)])
def test_associativity_counts_the_failing_triples(monkeypatch, entry, count):
    sign, blade = _BLADE_TABLE[entry]
    monkeypatch.setitem(_BLADE_TABLE, entry, (-sign, blade))

    def triple(x, y, z, left):
        s1, xy = blade_product(*((x, y) if left else (y, z)))
        s2, xyz = blade_product(*((xy, z) if left else (x, xy)))
        return s1 * s2, xyz

    brute = sum(triple(a, b, c, True) != triple(a, b, c, False)
                for a, b, c in itertools.product(ALL_BLADES, repeat=3))
    assert brute == count
    rec = identity_check("sec3-clifford-associativity",
                         SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    assert rec["value"] == count


def test_flipped_dk_system_sign_fails_the_check(monkeypatch):
    row = DK_SYSTEM[(0, 1)]
    sign, kind, mu, src = row[2]
    monkeypatch.setitem(DK_SYSTEM, (0, 1),
                        row[:2] + [(-sign, kind, mu, src)] + row[3:])
    cfg = SuiteConfig(suite="identities")
    rec = identity_check("eq3.3-dk-system-consistency", cfg,
                         np.random.default_rng(0))
    assert rec["status"] == "fail" and rec["value"] > rec["threshold"]
    # a residual check reports its largest gap, not a sum of its cases
    check, _kind = IDENTITY_CHECKS["eq3.3-dk-system-consistency"]
    gaps = list(check(cfg, np.random.default_rng(0)))
    assert len(gaps) == 3 and rec["value"] == max(gaps) < sum(gaps)


def test_flipped_joyce_rhs_sign_fails_the_check(monkeypatch):
    sign, src = JOYCE_RHS[(0, 2, 3)]
    monkeypatch.setitem(JOYCE_RHS, (0, 2, 3), (-sign, src))
    rec = identity_check("eq3.9-joyce-system-consistency",
                         SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    assert rec["status"] == "fail" and rec["value"] > rec["threshold"]


EXACT = {"eq2.16-star-defining", "sec2-star-double",
         "eq3.5-clifford-anticommutators", "sec3-clifford-associativity"}


def test_identities_report_lists_the_sixteen_checks():
    cfg = SuiteConfig(suite="identities", seed=3, tol=1e-9)
    checks = run_suite(cfg)["checks"]
    assert [c["name"] for c in checks] == sorted(IDENTITY_CHECKS)
    assert len(checks) == 16
    for c in checks:
        assert c["threshold"] == (0.5 if c["name"] in EXACT else cfg.tol)
        assert c["value"] == 0.0 and c["status"] == "pass"


def test_negated_table_entry_fails_both_kinds_of_check(monkeypatch):
    # one wrong sign in the blade table reaches residual and exact checks
    sign, blade = _BLADE_TABLE[((1,), (2,))]
    monkeypatch.setitem(_BLADE_TABLE, ((1,), (2,)), (-sign, blade))
    report = run_suite(SuiteConfig("identities", seed=1))
    assert report["overall"] == "fail"
    failed = {c["name"]: c for c in report["checks"] if c["status"] == "fail"}
    assert sorted(failed) == ["eq2.15-leibniz",
                              "eq3.5-clifford-anticommutators",
                              "eq3.6-decomposition",
                              "sec3-clifford-associativity"]
    assert failed["eq3.5-clifford-anticommutators"]["value"] == 2.0
    assert failed["sec3-clifford-associativity"]["value"] == 58.0
    for c in failed.values():
        assert c["value"] > c["threshold"]
