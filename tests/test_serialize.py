import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkjoyce import (
    InhomogeneousForm,
    SchemaError,
    Window,
    dump_form,
    form_to_records,
    load_form,
    records_to_form,
)
from dkjoyce.complex4 import ALL_BLADES
from dkjoyce.serialize import FIELDS, MAX_LOAD_SITES, records_to_discrete_form

from helpers import (
    rand_complex,
    random_inhomogeneous,
    records_to_form_rowwise,
    rng_for,
)


def test_round_trip_bit_exact(tmp_path):
    rng = rng_for(50)
    win = Window((3, 3, 3, 3))
    A = random_inhomogeneous(rng, win)
    # throw in non-integer float coefficients
    A = 0.1234567890123 * A + (1 / 3) * 1j * A
    path = tmp_path / "form.json"
    dump_form(A, str(path))
    B = load_form(str(path))
    for key, c in A.items():
        assert B.get(key) == complex(c)
    assert sum(1 for _ in B.items()) == sum(1 for _ in A.items())


def test_records_sorted():
    A = InhomogeneousForm.from_coeffs({
        ((2, 1, 1, 1), (0, 1)): 1,
        ((1, 1, 1, 1), (2,)): 2,
        ((1, 1, 1, 1), (0,)): 3,
        ((1, 1, 1, 2), ()): 4,
        ((1, 1, 1, 1), ()): 5,
    })
    recs = form_to_records(A)
    keys = [(r["degree"], r["k"], r["dirs"]) for r in recs]
    assert keys == sorted(keys)
    assert keys[0] == (0, [1, 1, 1, 1], [])
    assert keys[-1] == (2, [2, 1, 1, 1], [0, 1])


def test_schema_error_reports_index():
    recs = [
        {"degree": 0, "dirs": [], "k": [1, 1, 1, 1], "re": 1.0, "im": 0.0},
        {"degree": 2, "dirs": [1], "k": [1, 1, 1, 1], "re": 1.0, "im": 0.0},
    ]
    with pytest.raises(SchemaError, match="record 1"):
        records_to_form(recs)


@pytest.mark.parametrize("bad", [
    {"degree": 1, "dirs": [5], "k": [0, 0, 0, 0], "re": 0.0, "im": 0.0},
    {"degree": 1, "dirs": [1, 1], "k": [0, 0, 0, 0], "re": 0.0, "im": 0.0},
    {"degree": 2, "dirs": [2, 1], "k": [0, 0, 0, 0], "re": 0.0, "im": 0.0},
    {"degree": 0, "dirs": [], "k": [0, 0, 0], "re": 0.0, "im": 0.0},
    {"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": "x", "im": 0.0},
    {"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": 0.0},
    {"degree": 5, "dirs": [0, 1, 2, 3], "k": [0, 0, 0, 0],
     "re": 0.0, "im": 0.0},
    {"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": 0.0, "im": 0.0,
     "extra": 1},
])
def test_schema_validation(bad):
    with pytest.raises(SchemaError, match="record 0"):
        records_to_form([bad])


def test_duplicate_key_rejected():
    rec = {"degree": 0, "dirs": [], "k": [1, 1, 1, 1], "re": 1.0, "im": 0.0}
    with pytest.raises(SchemaError, match="duplicate"):
        records_to_form([rec, dict(rec)])


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_form(str(path))


def test_degree_homogeneous_parse():
    recs = [
        {"degree": 2, "dirs": [0, 1], "k": [1, 1, 1, 1], "re": 1.0, "im": 0.0},
    ]
    w = records_to_discrete_form(recs, 2)
    assert w.degree == 2
    with pytest.raises(SchemaError):
        records_to_discrete_form(recs, 1)


def test_golden_rest_frame_solution(tmp_path):
    # a serialized rest-frame family solution re-parses and still solves
    from dkjoyce import family_plus, joyce_residual
    win = Window((4, 4, 4, 4))
    F = family_plus((1, 2 - 1j, 0, 0.5), (-1.0, 0, 0, 0), 1.0, win)
    path = tmp_path / "golden.json"
    dump_form(F, str(path))
    G = load_form(str(path))
    assert joyce_residual(G, 1.0, win).interior_max == 0


def test_json_is_stable():
    rng = rng_for(51)
    A = InhomogeneousForm.from_coeffs({
        ((1, 1, 1, 1), (0,)): rand_complex(rng),
        ((1, 2, 1, 1), (3,)): rand_complex(rng),
    })
    assert json.dumps(form_to_records(A)) == json.dumps(form_to_records(A))


def _point(k):
    return {"degree": 0, "dirs": [], "k": k, "re": 1.0, "im": 0.0}


def test_far_apart_sites_rejected(tmp_path):
    # the box between these two sites would hold about 1e20 sites
    path = tmp_path / "far.json"
    path.write_text(json.dumps([_point([0, 0, 0, 0]),
                                _point([100000] * 4)]))
    with pytest.raises(SchemaError, match="box of"):
        load_form(str(path))


def test_largest_box_loads():
    n = round(MAX_LOAD_SITES ** 0.25)
    A = records_to_form([_point([1, 1, 1, 1]), _point([n, n, n, n])])
    assert A.get(((n, n, n, n), ())) == 1
    with pytest.raises(SchemaError, match="box of"):
        records_to_form([_point([1, 1, 1, 1]), _point([n, n, n, n + 1])])


@pytest.mark.parametrize("x", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
def test_site_outside_int64_rejected(tmp_path, x):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([_point([x, 0, 0, 0])]))
    with pytest.raises(SchemaError, match="64-bit"):
        load_form(str(path))


@pytest.mark.parametrize("text, field", [
    ('[{"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": NaN, "im": 0}]',
     "re"),
    ('[{"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": 1, '
     '"im": -Infinity}]', "im"),
    ('[{"degree": 0, "dirs": [], "k": [0, 0, 0, 0], "re": 1' + "0" * 400
     + ', "im": 0}]', "re"),
])
def test_nonfinite_values_rejected(tmp_path, text, field):
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    with pytest.raises(SchemaError,
                       match=f"record 0: {field} must be a finite number"):
        load_form(str(path))


@pytest.mark.parametrize("degree, dirs, match", [
    (True, [True], "degree must be"),
    (1, [True], "dirs must be"),
    (2, [False, 1], "dirs must be"),
])
def test_bool_degree_and_dirs_rejected(degree, dirs, match):
    rec = {"degree": degree, "dirs": dirs, "k": [0, 0, 0, 0], "re": 1.0,
           "im": 0.0}
    with pytest.raises(SchemaError, match=f"record 0: {match}"):
        records_to_form([rec])


# ---------------------------------------------------------------------------
# the column-wise loader against the row-by-row oracle

def _valid_record():
    return st.builds(
        lambda dirs, k, re, im: {"degree": len(dirs), "dirs": list(dirs),
                                 "k": k, "re": re, "im": im},
        st.sampled_from(ALL_BLADES),
        st.lists(st.integers(-2, 3), min_size=4, max_size=4),
        st.one_of(st.integers(-9, 9), st.floats(-1e3, 1e3),
                  st.integers(-2 ** 80, 2 ** 80)),
        st.one_of(st.just(0), st.floats(allow_nan=False,
                                        allow_infinity=False)))


def _key(rec):
    return tuple(rec["k"]), tuple(rec["dirs"])


# one field of one record replaced: wrong types, bools, non-finite or out
# of range values, unsorted dirs, far-apart sites
BAD_VALUES = {
    "degree": [True, 5, -1, 1.0, "1", None, 10 ** 30],
    "dirs": [[True], [4], [1, 0], [1, 1], [0.0], "01", [[0]], None],
    "k": [[0, 0, 0], [0, 0, 0, 1.5], [True, 0, 0, 0], [2 ** 63, 0, 0, 0],
          [0, -2 ** 63 - 1, 0, 0], [10 ** 5] * 4, [40, 0, 0, 0], (0, 0, 0, 0),
          None],
    # the largest int that rounds to a finite float, and the next one
    "re": [float("nan"), float("inf"), 10 ** 400, True, "1", None,
           2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970],
    "im": [float("-inf"), float("nan"), -10 ** 400, False, [1], 0],
}


# each mutation changes one field of one record, or the record itself
MUTATIONS = ([None, "duplicate"]
             + [("missing", f) for f in FIELDS]
             + [("extra", f) for f in ("extra", "Re")]
             + [(f, v) for f, vs in BAD_VALUES.items() for v in vs]
             + [("object", x) for x in ([], "record", 3, None)])


def _mutate(records, i, j, mutation):
    rec = records[i]
    if mutation == "duplicate":
        rec.update(degree=records[j]["degree"], dirs=list(records[j]["dirs"]),
                   k=list(records[j]["k"]))
    elif mutation[0] == "missing":
        del rec[mutation[1]]
    elif mutation[0] == "extra":
        rec[mutation[1]] = 1
    elif mutation[0] == "object":
        records[i] = mutation[1]
    else:
        rec[mutation[0]] = copy.deepcopy(mutation[1])


def _outcome(load, records):
    try:
        A = load(copy.deepcopy(records))
    except SchemaError as exc:
        return str(exc)
    return [(p.origin, p.data.dtype, p.data.shape, p.data.tobytes())
            for p in A.parts]


@pytest.mark.parametrize("mutation", MUTATIONS,
                         ids=lambda m: repr(m)[:24])
@settings(max_examples=20, deadline=None)
@given(records=st.lists(_valid_record(), max_size=8, unique_by=_key),
       data=st.data())
def test_column_loader_matches_rowwise_oracle(mutation, records, data):
    if mutation is not None and records:
        i, j = (data.draw(st.integers(0, len(records) - 1)) for _ in "ij")
        _mutate(records, i, j, mutation)
    assert _outcome(records_to_form, records) \
        == _outcome(records_to_form_rowwise, records)


@pytest.mark.parametrize("records", [
    [],
    "not a list",
    # a zero-valued record is checked and counts as a key, but sizes no box
    [_point([0, 0, 0, 0]), dict(_point([2 ** 63, 0, 0, 0]), re=0.0)],
    [_point([0, 0, 0, 0]), dict(_point([10 ** 5] * 4), re=0.0),
     dict(_point([10 ** 5] * 4), re=0.0)],
    [dict(_point([2 ** 70, 0, 0, 0]), re=0), dict(_point([1, 1, 1, 1]), re=0),
     dict(_point([2 ** 70, 0, 0, 0]), re=0)],
    # a duplicate before the first invalid record is reported first
    [_point([1, 1, 1, 1]), _point([1, 1, 1, 1]), dict(_point([0] * 4), re=1j)],
    [_point([1, 1, 1, 1]), dict(_point([0] * 4), re=1j), _point([1, 1, 1, 1])],
    [_point([0, 0, 0, 0]), _point([2 ** 63, 0, 0, 0])],
    [_point([1, 1, 1, 1]), {"degree": 1, "dirs": [0], "k": [1, 1, 1, 1],
                            "re": -0.0, "im": 2}],
])
def test_column_loader_edge_cases(records):
    assert _outcome(records_to_form, records) \
        == _outcome(records_to_form_rowwise, records)
