import csv
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from dkjoyce import DiscreteForm, InhomogeneousForm, Window, cli, cup, forms
from dkjoyce.cli import (
    DEFAULT_TOL,
    IDENTITY_CHECKS,
    ConfigInvalid,
    SuiteConfig,
    _random_amplitudes,
    _random_forms,
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
from dkjoyce.complex4 import (_BLADE_TABLE, ALL_BLADES, GRADE_BLADES,
                              blade_product)
from dkjoyce.forms import _assemble, _form
from dkjoyce.dirac_joyce import DK_SYSTEM, JOYCE_RHS
from dkjoyce.planewave import EvenAmplitudes

from helpers import PER_CASE_CHECKS


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


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_config_rejects_a_seed_that_is_no_int_from_0(seed):
    with pytest.raises(ConfigInvalid, match="seed"):
        SuiteConfig(suite="identities", seed=seed)


@pytest.mark.parametrize("branch", ["+", "-"])
@pytest.mark.parametrize("mass", [1.5e-154, 1e-150, 4e-10, 4e-9, 1e-9])
def test_a_tiny_mass_at_rest_passes_with_one_family_skipped(mass, branch):
    # m - s p0 vanishes for the family whose s is the branch's sign only;
    # the nullity and the mirror family are judged relative to m
    report = run_suite(SuiteConfig(suite="planewave", spatial=(0.0, 0.0, 0.0),
                                   branch=branch, mass=mass))
    assert report["overall"] == "pass"
    family = "plus" if branch == "+" else "minus"
    assert [c["name"] for c in report["checks"] if "skipped" in
            c.get("detail", "")] == [f"prop4.2-family-{family}-residual"]


@pytest.mark.parametrize("mass", ["1e-154", "1e-200", "5e-324"])
def test_a_mass_whose_square_underflows_exits_2(capsys, mass):
    assert run(["run", "--suite", "planewave", "--mass", mass]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_perturbed_scan_at_a_family_pole_takes_the_mirror_family():
    # at m = 0.05 the minus branch's detuned energy, -0.05 + 0.1, is the pole
    # m - p0 = 0 of its plus family; the minus family is built there instead,
    # and as that energy is on shell on the + branch its residual vanishes
    rows = dispersion_scan(0.05, (0.0,), (3, 3, 3, 3), perturb=True)
    assert [r["branch"] for r in rows] == ["+", "-"]
    assert rows[0]["residual_perturbed"] > 1e-2
    assert rows[1]["residual_perturbed"] < 1e-12


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
    # finite momentum whose waves overflow inside the window
    ("planewave", ["--spatial", "1e60,0,0", "--branch", "+", "--mass", "1"]),
    # finite waves, but their products with the pattern coefficients overflow
    ("planewave", ["--spatial", "1e35,0,0", "--branch", "+", "--mass", "1"]),
    # a window of more than 32^4 sites, rejected before any allocation
    ("identities", ["--window", "3,100000,100000,100000", "--grid", "0"]),
    ("planewave", ["--spatial", "0,0,0", "--window", "3,100000,100000,100000",
                   "--grid", "0"]),
    # malformed argv, reported by the parser in one line
    ("planewave", ["--mass", "abc"]),
    ("planewave", ["--tol", "x"]),
    ("identities", ["--seed", "1.5"]),
    ("identities", ["--suite", "nope"]),
    ("identities", ["--bogus", "1"]),
    # waves that fit with amplitude 1 but not with the drawn ones (|alpha|
    # up to 12.7) and the checks' sums
    ("planewave", ["--spatial", "0,0,0", "--grid", "0",
                   "--window", "2046,3,3,3"]),
])
def test_malformed_or_nonfinite_input_exit_code(suite, extra, capsys):
    assert run(["run", "--suite", suite] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("suite, option, value, code", [
    ("planewave", "--spatial", "-0.5,0,0", 1),  # families fail off rest
    ("dispersion-scan", "--grid", "-0.5,0", 0),
])
def test_negative_first_component_needs_the_equals_form(tmp_path, capsys,
                                                        suite, option,
                                                        value, code):
    # after a space, argparse reads "-0.5,..." as an option, not a value
    out = tmp_path / "r.json"
    argv = ["run", "--suite", suite, "--mass", "1", "--format", "json",
            "--out", str(out)]
    assert run(argv + [f"{option}={value}"]) == code
    assert json.loads(out.read_text())["overall"] in ("pass", "fail")
    assert capsys.readouterr().err == ""
    assert run(argv + [option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_large_waves_inside_the_bound_run_without_warnings(tmp_path, capsys):
    # the waves reach about 1e240 here: no check's arithmetic may overflow,
    # which numpy would report as a RuntimeWarning on stderr
    argv = ["run", "--suite", "planewave", "--spatial", "1e30,0,0",
            "--branch", "+", "--mass", "1", "--out", str(tmp_path / "r.txt")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, amplitudes", [
    # the largest window the bound accepts here, with drawn amplitudes
    (["--spatial", "0,0,0", "--grid", "0", "--window", "2034,3,3,3"], None),
    # the largest amplitude the bound accepts at rest on 3^4, about 9.9e305
    (["--spatial", "0,0,0", "--grid", "0", "--window", "3,3,3,3"],
     {"alpha0": [9.8e305, 0]}),
])
def test_waves_at_the_bound_run_without_warnings(tmp_path, capsys, argv,
                                                 amplitudes):
    if amplitudes is not None:
        path = tmp_path / "amp.json"
        path.write_text(json.dumps(amplitudes))
        argv = argv + ["--amplitudes", str(path)]
    argv = ["run", "--suite", "planewave", "--out",
            str(tmp_path / "r.txt")] + argv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_config_checks_its_waves_through_the_spec():
    # branch, mass and momentum are checked by the specs SuiteConfig builds
    for kwargs in (dict(p=(1, 0, 0, 0), branch="x"), dict(mass=math.nan),
                   dict(p=(1, 0, 0)), dict(spatial=(0, math.nan, 0)),
                   dict(window=(3, 100000, 100000, 100000), grid=(0,)),
                   dict(amplitudes=EvenAmplitudes(alpha12=1e308))):
        with pytest.raises(ConfigInvalid):
            SuiteConfig(suite="planewave", **kwargs)


@pytest.mark.parametrize("argv", [
    ["--mass", "1e6", "--spatial", "1e6,3.3,0", "--branch", "+"],
    ["--mass", "1e3", "--spatial", "123.4,567.8,9.1", "--branch", "+"],
])
def test_on_shell_gap_is_judged_relative_to_its_scale(tmp_path, argv):
    # p0 from solve_p0 leaves an absolute gap of 1.4e-4 and -2.4e-10 here,
    # which is rounding at the scale max(p0^2, m^2, 1)
    out = tmp_path / "r.json"
    run(["run", "--suite", "planewave", "--format", "json",
         "--out", str(out)] + argv)
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["eq4.17-amplitude-nullity"]["status"] == "pass"
    assert checks["eq4.17-amplitude-nullity"]["value"] == 4.0
    assert checks["eq4.8-system-oracle"]["status"] == "pass"
    assert not any("DispersionViolated" in c.get("detail", "")
                   for c in checks.values())


@pytest.mark.parametrize("text", [
    '{"alpha4": [1, Infinity]}', '{',
    # finite amplitudes whose waves overflow
    '{"alpha0": [1.7e308, 1.7e308], "alpha12": [1e308, 0]}',
    # JSON that is not an object of amplitudes
    'null', '[]', '0',
])
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


@pytest.mark.parametrize("groups", [range(5), [2, 2, 2], [3, 1]])
def test_random_boxes_equal_the_summed_blade_slices(groups):
    # each of the degrees ``groups`` gives one form, built from the drawn
    # array directly; it must equal the sum of one slice per blade
    win, origin = Window((3, 4, 3, 2)), (2, 0, 1, 2)
    fast, slow = np.random.default_rng(7), np.random.default_rng(7)
    size = sum(len(GRADE_BLADES[r]) for r in groups) * math.prod(win.n)
    vals = slow.integers(-9, 10, size=(size, 2)).astype(float).view(complex)
    for r, got in zip(groups, _random_forms(fast, groups, win, origin)):
        blades = GRADE_BLADES[r]
        a, vals = np.split(vals, [len(blades) * math.prod(win.n)])
        a = a.reshape(tuple(win.n) + (len(blades),))
        want = _assemble([(b, 1, origin, a[..., i])
                          for i, b in enumerate(blades)]).part(r)
        assert list(got.items()) == list(want.items())
        assert (got.data.shape, got.data.dtype, got.origin) == \
            (want.data.shape, want.data.dtype, want.origin)
        assert got.data.flags.c_contiguous
    assert fast.bit_generator.state == slow.bit_generator.state


# ---------------------------------------------------------------------------
# each identity check catches a wrong entry in the table it tests

@pytest.mark.parametrize("entry, count", [
    (((), (1,)), 60), (((1,), (2,)), 58), (((0,), (0,)), 56),
    (((0, 1), (2, 3)), 58), (((1, 2, 3), (0,)), 58),
    (((0, 1, 2, 3), (0, 1, 2, 3)), 56)], ids=str)
def test_associativity_counts_the_failing_triples(monkeypatch, entry, count):
    # flipped entries whose left blade is of each grade 0..4: each left
    # blade's count of failing triples must land in its own entry
    sign, blade = _BLADE_TABLE[entry]
    monkeypatch.setitem(_BLADE_TABLE, entry, (-sign, blade))

    def triple(x, y, z, left):
        s1, xy = blade_product(*((x, y) if left else (y, z)))
        s2, xyz = blade_product(*((xy, z) if left else (x, xy)))
        return s1 * s2, xyz

    # the failing triples of each left blade, in ALL_BLADES order
    brute = [sum(triple(a, b, c, True) != triple(a, b, c, False)
                 for b, c in itertools.product(ALL_BLADES, repeat=2))
             for a in ALL_BLADES]
    assert sum(brute) == count
    check, _kind = IDENTITY_CHECKS["sec3-clifford-associativity"]
    assert list(check(SuiteConfig(suite="identities"), None)) == brute
    rec = identity_check("sec3-clifford-associativity",
                         SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    assert rec["value"] == count


@pytest.mark.parametrize("entry", [((), (1,)), ((1,), (2,)), ((0,), (0,)),
                                   ((0, 1), (2, 3)), ((1, 2, 3), (0,))],
                         ids=str)
def test_associativity_catches_a_wrong_blade(monkeypatch, entry):
    # the entry's product times e_0.  A failing triple with a wrong blade is
    # nonzero on two blades, and as e_0 times C, the sum of all 16 blades,
    # is C, triples can also cancel: the check counts nonzero coefficients,
    # here more than the failing triples, and fails
    sign, blade = _BLADE_TABLE[entry]
    s0, wrong = blade_product(blade, (0,))
    monkeypatch.setitem(_BLADE_TABLE, entry, (sign * s0, wrong))

    def coefficients(a, b):
        """The blade coefficients of (a b) C - a (b C), C all 16 blades."""
        out = dict.fromkeys(ALL_BLADES, 0)
        for c in ALL_BLADES:
            s1, ab = blade_product(a, b)
            s2, x = blade_product(ab, c)
            out[x] += s1 * s2
            s1, bc = blade_product(b, c)
            s2, x = blade_product(a, bc)
            out[x] -= s1 * s2
        return out

    brute = [sum(v != 0 for b in ALL_BLADES
                 for v in coefficients(a, b).values()) for a in ALL_BLADES]
    check, _kind = IDENTITY_CHECKS["sec3-clifford-associativity"]
    assert list(check(SuiteConfig(suite="identities"), None)) == brute
    rec = identity_check("sec3-clifford-associativity",
                         SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    assert rec["status"] == "fail" and rec["value"] == sum(brute) > 0


def test_flipped_dk_system_sign_fails_the_check(monkeypatch):
    # the signs of the row's last two terms, each read from its own blade
    row = DK_SYSTEM[(0, 1)]
    monkeypatch.setitem(DK_SYSTEM, (0, 1), row[:2] + [
        (-sign, kind, mu, src) for sign, kind, mu, src in row[2:]])
    cfg = SuiteConfig(suite="identities")
    rec = identity_check("eq3.3-dk-system-consistency", cfg,
                         np.random.default_rng(0))
    assert rec["status"] == "fail" and rec["value"] > rec["threshold"]
    # a residual check reports its largest gap, not a sum of its cases: a
    # batch of impulses gives the largest of the impulses' own gaps
    check, _kind = IDENTITY_CHECKS["eq3.3-dk-system-consistency"]
    gaps = list(check(cfg, np.random.default_rng(0)))
    batches = list(PER_CASE_CHECKS["eq3.3-dk-system-consistency"](cfg, None))
    alone = sum(batches, [])
    assert gaps == [max(b) for b in batches]
    assert rec["value"] == max(gaps) == max(alone) < sum(alone)


def test_flipped_joyce_rhs_sign_fails_the_check(monkeypatch):
    sign, src = JOYCE_RHS[(0, 2, 3)]
    monkeypatch.setitem(JOYCE_RHS, (0, 2, 3), (-sign, src))
    rec = identity_check("eq3.9-joyce-system-consistency",
                         SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    assert rec["status"] == "fail" and rec["value"] > rec["threshold"]


@pytest.mark.parametrize("gaps, failed", [([0.0, float("nan")], True),
                                          ([float("nan"), 1.0], True),
                                          ([], False)])
def test_a_nan_gap_fails_a_residual_check(monkeypatch, gaps, failed):
    def probe(cfg, rng):
        yield from gaps

    monkeypatch.setitem(IDENTITY_CHECKS, "probe", (probe, "residual"))
    rec = identity_check("probe", SuiteConfig(suite="identities"),
                         np.random.default_rng(0))
    if failed:
        assert rec["status"] == "fail" and np.isnan(rec["value"])
    else:
        assert rec["status"] == "pass" and rec["value"] == 0.0


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


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_all_reports_the_planewave_suite_s_records(seed):
    # each suite draws from its own generator, seeded with --seed
    wave = run_suite(SuiteConfig(suite="planewave", seed=seed))["checks"]
    names = {c["name"] for c in wave}
    every = run_suite(SuiteConfig(suite="all", seed=seed))["checks"]
    assert [c for c in every if c["name"] in names] == wave


def test_negated_table_entry_fails_both_kinds_of_check(monkeypatch):
    # one wrong sign in the blade table reaches residual and exact checks
    sign, blade = _BLADE_TABLE[((1,), (2,))]
    monkeypatch.setitem(_BLADE_TABLE, ((1,), (2,)), (-sign, blade))
    report = run_suite(SuiteConfig("identities", seed=1))
    assert report["overall"] == "fail"
    failed = {c["name"]: c for c in report["checks"] if c["status"] == "fail"}
    assert sorted(failed) == ["eq2.15-leibniz",
                              "eq3.3-dk-system-consistency",
                              "eq3.5-clifford-anticommutators",
                              "eq3.6-decomposition",
                              "sec3-clifford-associativity"]
    assert failed["eq3.5-clifford-anticommutators"]["value"] == 2.0
    assert failed["sec3-clifford-associativity"]["value"] == 58.0
    for c in failed.values():
        assert c["value"] > c["threshold"]


@pytest.mark.parametrize("table, key", [
    ("star", ()), ("star", (1,)), ("star", (0, 2)), ("star", (1, 2, 3)),
    ("star", (0, 1, 2, 3)), ("blade", ((1,), (0, 2, 3))),
    ("blade", ((0, 1), (2, 3)))])
def test_batched_star_checks_count_the_failing_blades(monkeypatch, table,
                                                      key):
    # a degree's blades in one form fail as many sites as the blades fail
    # one product at a time
    if table == "star":
        monkeypatch.setitem(forms.STAR_SIGN, key, -forms.STAR_SIGN[key])
    else:
        sign, blade = _BLADE_TABLE[key]
        monkeypatch.setitem(_BLADE_TABLE, key, (-sign, blade))
    k, vol = (2, 2, 2, 2), (0, 1, 2, 3)
    alone = {
        "eq2.16-star-defining": sum(
            dict(cup(s, forms.hodge_star(s)).items())
            != {(k, vol): -1 if 0 in b else 1}
            for b in ALL_BLADES for s in [DiscreteForm.basis(k, b)]),
        "sec2-star-double": sum(
            forms.hodge_star(forms.hodge_star(DiscreteForm.basis(k, b)))
            != DiscreteForm.basis((3, 3, 3, 3), b, (-1) ** (len(b) + 1))
            for b in ALL_BLADES)}
    assert any(alone.values())
    for name, count in alone.items():
        rec = identity_check(name, SuiteConfig(suite="identities"), None)
        assert rec["value"] == count


# ---------------------------------------------------------------------------
# checks that run their cases in batches report what the cases give alone

#: the linear checks, which run on one unit impulse per blade
IMPULSE_CHECKS = sorted(set(PER_CASE_CHECKS) - {"eq2.15-leibniz"})
#: the checks that lay their cases side by side; the Clifford unit's
#: impulses sit on distinct sites of its 3^4 window instead
SIDE_BY_SIDE = sorted(set(PER_CASE_CHECKS) - {"sec3-clifford-unit"})


def _negate_last_axis_blades(op):
    """``op`` with its result negated on the blades that hold axis 3."""
    def negated(w):
        out = op(w)
        sign = [-1 if 3 in b else 1 for b in GRADE_BLADES[out.degree]]
        return _form(out.degree, out.origin,
                     np.reshape(sign, (-1, 1, 1, 1, 1)) * out.data)
    return negated


def _flip_last_axis_routes(monkeypatch):
    # a wrong sign on the axis the cases lie along, so that the residuals
    # are nonzero and differ from case to case: the routes of d from the
    # 1-forms and of delta from the 2-forms, every plain difference (the
    # operator route of d + delta), the unit's product with e_3 (the
    # Clifford unit, the DK table's mass term), and, since the inverse star
    # is the star's row inverse from the same signs, the inverse star itself,
    # wherever the checks and their per-case loops read it
    for routes, degree in ((forms._RAISE, 1), (forms._LOWER, 2)):
        for dirs in GRADE_BLADES[degree]:
            monkeypatch.setitem(routes, dirs, [
                (mu, -s if mu == 3 else s, nd) for mu, s, nd in routes[dirs]])
    for d in ALL_BLADES:
        monkeypatch.setitem(forms._ALONG[3], d, [(3, -1, d)])
    for key in (((), (3,)), ((3,), ())):
        monkeypatch.setitem(_BLADE_TABLE, key, (-1, (3,)))
    inverse = _negate_last_axis_blades(forms.hodge_star_inverse)
    for module in (cli, forms):
        monkeypatch.setattr(module, "hodge_star_inverse", inverse)


def _leibniz_alone(monkeypatch, alone):
    """With ``alone``, a Leibniz batch holds one case at every window."""
    if alone:
        monkeypatch.setattr(cli, "LEIBNIZ_SITES", 0)


@pytest.mark.parametrize("alone", [False, True], ids=["joined", "alone"])
@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("window", [(3, 3, 3, 3), (4, 4, 4, 4), (5, 4, 3, 6)])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_side_by_side_checks_equal_their_per_case_loops(monkeypatch, seed,
                                                        window, flipped,
                                                        alone):
    # one gap per batch of cases: the largest of the batch's own gaps
    if flipped:
        _flip_last_axis_routes(monkeypatch)
    _leibniz_alone(monkeypatch, alone)
    cfg = SuiteConfig(suite="identities", window=window, seed=seed)
    for name, per_case in PER_CASE_CHECKS.items():
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [max(batch) for batch in per_case(cfg, slow)]
        assert list(IDENTITY_CHECKS[name][0](cfg, fast)) == want
        assert fast.bit_generator.state == slow.bit_generator.state
        assert any(want) == flipped
        if name == "eq2.15-leibniz":  # three cases, joined below the budget
            assert len(want) == (3 if alone else 1)


@pytest.mark.parametrize("flipped", [False, True])
def test_only_the_bilinear_checks_read_window_and_seed(monkeypatch, flipped):
    # the impulse proofs and the exhaustive table checks draw nothing and
    # give the same gaps at every --window and --seed
    if flipped:
        _flip_last_axis_routes(monkeypatch)
    for name in sorted(set(IDENTITY_CHECKS) - {
            "eq2.6-pairing-duality", "eq2.15-leibniz", "eq2.25-adjointness"}):
        runs = []
        for window, seed in itertools.product(
                [(3, 3, 3, 3), (4, 4, 4, 4), (5, 4, 3, 6)], [0, 1, 42]):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            runs.append(list(IDENTITY_CHECKS[name][0](SuiteConfig(
                suite="identities", window=window, seed=seed), rng)))
            assert rng.bit_generator.state == state
        assert all(r == runs[0] for r in runs)
        assert any(runs[0]) == flipped or name not in IMPULSE_CHECKS


def _joined(cases, gap):
    """``cases``, forms on one box, along the last axis ``gap`` sites apart."""
    pad = np.zeros(cases[0].data.shape[:-1] + (gap,), cases[0].data.dtype)
    data = np.concatenate([a for w in cases for a in (pad, w.data)][1:], -1)
    return _form(cases[0].degree, cases[0].origin, data)


def _placed(w, shift):
    """The nonzero coefficients of ``w``, ``shift`` sites on along the last
    axis."""
    return {(k[:3] + (k[3] + shift,), d): c for (k, d), c in w.items()}


@pytest.mark.parametrize("window", [(3, 3, 3, 3), (5, 4, 3, 6)])
@pytest.mark.parametrize("name", SIDE_BY_SIDE)
def test_a_joined_residual_is_the_case_residuals_side_by_side(monkeypatch,
                                                              window, name):
    # with wrong signs, the residual of a batch's cases joined at the check's
    # gap must be the cases' own residuals, each placed as its inputs are,
    # with no two on one coefficient; one site closer, in some batch of
    # Leibniz and of d o d and delta o delta it is not.  The values of the
    # other checks differ in blade where neighbours come one site closer (a
    # difference along the last axis adds e_3 on one side and removes it on
    # the other), so that there only the NaN test below sees them meet
    _flip_last_axis_routes(monkeypatch)
    side_by_side, nonzero, met = cli._side_by_side, [], []

    def compare(gap, residual, *inputs):
        width = inputs[0][0].data.shape[-1]
        alone = [residual(*case) for case in zip(*inputs)]

        def apart(gap):
            placed = [_placed(w, c * (width + gap))
                      for c, w in enumerate(alone)]
            merged = {k: c for p in placed for k, c in p.items()}
            joined = residual(*(_joined(w, gap) for w in inputs))
            return len(merged) == sum(map(len, placed)) \
                and _placed(joined, 0) == merged

        assert apart(gap)
        nonzero.append(any(not w.is_zero() for w in alone))
        met.append(gap > 0 and not apart(gap - 1))
        return side_by_side(gap, residual, *inputs)

    monkeypatch.setattr(cli, "_side_by_side", compare)
    cfg = SuiteConfig(suite="identities", window=window)
    list(IDENTITY_CHECKS[name][0](cfg, np.random.default_rng(0)))
    assert any(nonzero) and (any(met) or name not in (
        "eq2.15-leibniz", "sec2-nilpotency-d", "sec2-nilpotency-delta"))


def _nan(w):
    """``w`` with NaN on every site of each blade that holds a nonzero."""
    data = w.data.copy()
    data[(data != 0).any(axis=(1, 2, 3, 4))] = np.nan
    return _form(w.degree, w.origin, data)


def _nan_sites(w):
    """The sites along the last axis at which ``w`` holds a NaN."""
    sites = set()
    for p in forms._parts(w):
        nan = np.isnan(p.data).any(axis=(0, 1, 2, 3))
        sites |= set((p.origin[-1] + np.flatnonzero(nan)).tolist())
    return sites


@pytest.mark.parametrize("alone", [False, True], ids=["joined", "alone"])
@pytest.mark.parametrize("window", [(3, 3, 3, 3), (5, 4, 3, 6)])
@pytest.mark.parametrize("name", SIDE_BY_SIDE)
def test_a_nan_case_changes_only_its_own_gap(monkeypatch, window, name,
                                             alone):
    # the middle case of one batch, the second if there are two, is NaN on
    # its nonzero blades: only that batch's gap may change.  In every batch,
    # joined at the check's gap, each case's NaNs land where they land alone,
    # on no site a neighbour's reach; one site closer, in some batch of more
    # than one case they do, so that each gap is the least that keeps the
    # cases apart.  Leibniz's three cases make one batch when joined, so
    # only with its cases alone are there other batches to compare
    _flip_last_axis_routes(monkeypatch)
    _leibniz_alone(monkeypatch, alone)
    cfg = SuiteConfig(suite="identities", window=window)
    check = IDENTITY_CHECKS[name][0]
    clean = list(check(cfg, np.random.default_rng(0)))
    batch = min(1, len(clean) - 1)
    side_by_side, calls, met = cli._side_by_side, itertools.count(), []

    def poisoned(gap, residual, *inputs):
        cases, width = len(inputs[0]), inputs[0][0].data.shape[-1]

        def with_nan(c):
            return [[_nan(w) if i == c else w for i, w in enumerate(ws)]
                    for ws in inputs]

        def reached(c, apart):
            return _nan_sites(residual(*(_joined(ws, apart)
                                         for ws in with_nan(c))))

        # where each case's NaNs land alone, before it is placed
        alone = [_nan_sites(residual(*(ws[c] for ws in with_nan(c))))
                 for c in range(cases)]

        def crossed(apart):
            own = [{k + c * (width + apart) for k in alone[c]}
                   for c in range(cases)]
            for c in range(cases):
                sites = reached(c, apart)
                assert apart < gap or sites == own[c]
                yield any(not sites.isdisjoint(own[b])
                          for b in (c - 1, c + 1) if 0 <= b < cases)

        assert not any(crossed(gap))
        if gap and cases > 1:
            met.append(any(crossed(gap - 1)))
        if next(calls) == batch:
            assert all(alone)
            inputs = with_nan(cases // 2)
        return side_by_side(gap, residual, *inputs)

    monkeypatch.setattr(cli, "_side_by_side", poisoned)
    gaps = list(check(cfg, np.random.default_rng(0)))
    assert np.isnan(gaps[batch]) and not np.isnan(clean[batch])
    assert gaps[:batch] + gaps[batch + 1:] == clean[:batch] + clean[batch + 1:]
    assert any(clean) and (any(met) or not met)
