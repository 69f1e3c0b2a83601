"""Fuzz the two ways a plane wave comes in: ``dkjoyce run`` argv, driven
through ``main`` in-process, and ``PlaneWaveSpec.from_dict``.

Every argv must exit 0 or 1 with a report whose ``overall`` matches the
exit code and no warning, or exit 2 with one ``error:`` line; every spec
must give a spec or a ``ValueError``."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dkjoyce.cli import main
from dkjoyce.planewave import EvenAmplitudes, PlaneWaveSpec

AMPLITUDE_NAMES = [f"alpha{label}" for label in
                   ("0", "01", "02", "03", "12", "13", "23", "4")]


def _mostly(clean, dirty):
    """``clean`` about nine draws in ten, else ``dirty``: one bad field
    rejects a run, so most fields must be good for runs to happen (``one_of``
    would draw the two halves alike)."""
    return st.sampled_from([clean] * 9 + [dirty]).flatmap(lambda x: x)


#: windows of 3-5 per axis, and some of more than 32^4 sites
WINDOWS = _mostly(
    st.lists(st.integers(3, 5), min_size=4, max_size=4),
    st.sampled_from([[3, 100000, 100000, 100000], [33, 33, 33, 33],
                     [10 ** 6, 10 ** 6, 3, 3]]))

#: values at and past the float range, tiny ones, and small ones
EDGES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
         1e305, 5e307, 1.7e308]
SMALL = st.one_of(st.floats(-3, 3), st.integers(-3, 3))
NUMBERS = st.one_of(SMALL, st.sampled_from(EDGES),
                    st.floats(1e300, 1.7e308))
POSITIVE = st.floats(0.05, 3)


def _text(clean, n=1):
    """``n`` comma-separated numbers as argv text: from ``clean``, or any of
    ``NUMBERS``, or text that is no number."""
    dirty = st.one_of(NUMBERS.map(repr), st.sampled_from(["abc", "", "1,2"]))
    return st.lists(_mostly(clean.map(repr), dirty), min_size=n,
                    max_size=n).map(",".join)


#: amplitude file contents: objects of [re, im] pairs or numbers, other JSON
AMPLITUDE_JSON = st.one_of(
    st.dictionaries(st.sampled_from(AMPLITUDE_NAMES),
                    st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2,
                                                max_size=2)), max_size=3),
    st.sampled_from([None, [], 0, "alpha0", {"alphaX": 1}]))
AMPLITUDES = _mostly(
    st.one_of(st.none(), st.dictionaries(
        st.sampled_from(AMPLITUDE_NAMES),
        st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3)),
    AMPLITUDE_JSON)


@st.composite
def argvs(draw):
    # identities and all take 0.15 s a run, the wave suites a tenth of that
    argv = ["run", "--suite", draw(st.sampled_from(
        ["planewave"] * 3 + ["dispersion-scan"] * 3 + ["identities", "all"]))]
    argv.append("--window=" + ",".join(map(str, draw(WINDOWS))))
    momentum = draw(st.sampled_from([None, "--p", "--spatial"]))
    if momentum:
        n = 4 if momentum == "--p" else 3
        argv.append(f"{momentum}=" + draw(_text(SMALL, n)))
    argv += ["--branch", draw(st.sampled_from(["+", "-"]))]
    if draw(st.booleans()):
        argv.append("--mass=" + draw(_text(POSITIVE)))
    if draw(st.booleans()):
        argv.append("--tol=" + draw(_text(st.sampled_from([1e-10, 1e-6]))))
    argv.append("--grid=" + draw(st.integers(1, 3).flatmap(
        lambda n: _text(st.floats(-1, 1), n))))
    argv += draw(_mostly(st.sampled_from([[], ["--perturb"]]),
                         st.sampled_from([["--seed", "1.5"], ["--bogus", "1"],
                                          ["--seed", "x"], ["--seed", "-1"]])))
    return argv, draw(AMPLITUDES)


def _main(argv):
    """Exit code, stdout, stderr and the warnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--format", "json"])
    return code, out.getvalue(), err.getvalue(), [str(w.message)
                                                  for w in caught]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_gives_a_report_or_one_error_line(case):
    argv, amplitudes = case
    with tempfile.TemporaryDirectory() as tmp:
        if amplitudes is not None:
            path = os.path.join(tmp, "amp.json")
            with open(path, "w") as fh:
                json.dump(amplitudes, fh)
            argv = argv + ["--amplitudes", path]
        code, out, err, caught = _main(argv)
    event(f"exit {code}")
    assert caught == []
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert out == ""
    else:
        assert code in (0, 1) and err == ""
        assert json.loads(out)["overall"] == ("pass" if code == 0 else "fail")


SPECS = st.fixed_dictionaries({
    "m": _mostly(POSITIVE, st.one_of(NUMBERS, st.sampled_from([True, "1"]))),
    "p": st.one_of(
        _mostly(st.lists(SMALL, min_size=4, max_size=4),
                st.lists(NUMBERS, min_size=3, max_size=5)),
        st.fixed_dictionaries(
            {"spatial": _mostly(st.lists(SMALL, min_size=3, max_size=3),
                                st.lists(NUMBERS, min_size=2, max_size=4)),
             "branch": _mostly(st.sampled_from(["+", "-"]), st.just("x"))},
            optional={"mass": NUMBERS})),
    "window": _mostly(WINDOWS, st.sampled_from([[3, 3, 3], [3, 3, 3, 2.0],
                                                [3, 3, 3, True], "3333"])),
}, optional={"amplitudes": AMPLITUDES,
             "family": _mostly(st.sampled_from(["plus", "minus", "explicit"]),
                               st.just("x"))})


@settings(max_examples=300, deadline=None)
@given(SPECS)
def test_every_spec_gives_a_spec_or_a_value_error(data):
    try:
        spec = PlaneWaveSpec.from_dict(data)
    except ValueError as exc:
        assert str(exc).startswith("invalid plane-wave spec:")
        event("rejected")
        return
    event("accepted")
    assert isinstance(spec.amplitudes, EvenAmplitudes)
    assert len(spec.p) == 4 and all(map(math.isfinite, spec.p))
    assert math.prod(spec.window) <= 32 ** 4
