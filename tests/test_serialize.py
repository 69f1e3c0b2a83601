import json

import pytest

from dkjoyce import (
    InhomogeneousForm,
    SchemaError,
    Window,
    dump_form,
    form_to_records,
    load_form,
    records_to_form,
)
from dkjoyce.serialize import MAX_LOAD_SITES, records_to_discrete_form

from helpers import rand_complex, random_inhomogeneous, rng_for


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
