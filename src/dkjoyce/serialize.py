"""JSON serialization of discrete forms.

A form is stored as a list of coefficient records
``{"degree": r, "dirs": [...], "k": [...], "re": x, "im": y}``, one per
nonzero coefficient, sorted by (degree, k lexicographically, dirs
lexicographically): the order in which ``numpy.nonzero`` visits a form's
box array with the blade slot as the last axis.  Round trips are
bit-exact for ``complex`` coefficients: re/im pass through JSON floats
unchanged.

A loaded form is stored over the bounding box of its sites, so the records
of one degree may span at most ``MAX_LOAD_SITES`` sites (a 32^4 box); a
file that names two far-apart sites is rejected, not allocated.
"""

from __future__ import annotations

import json
import math
from typing import List

from .complex4 import AXES, GRADE_BLADES
from .forms import DiscreteForm, InhomogeneousForm, _entries, _form, _parts, \
    _rows, _scatter


MAX_LOAD_SITES = 32 ** 4


class SchemaError(ValueError):
    """A coefficient record fails validation; the message names the index."""


def form_to_records(w) -> List[dict]:
    """Sorted coefficient records of a discrete or inhomogeneous form."""
    records = []
    for part in _parts(w):
        sites, slots, values = _entries(part)
        z = values.astype(complex)
        blades = GRADE_BLADES[part.degree]
        records += [
            {"degree": part.degree, "dirs": list(blades[s]), "k": list(k),
             "re": re, "im": im}
            for k, s, re, im in zip(sites, slots, z.real.tolist(),
                                    z.imag.tolist())]
    return records


def _validate_record(rec, i: int):
    if not isinstance(rec, dict):
        raise SchemaError(f"record {i}: expected an object, got {type(rec).__name__}")
    for field in ("degree", "dirs", "k", "re", "im"):
        if field not in rec:
            raise SchemaError(f"record {i}: missing field {field!r}")
    unknown = set(rec) - {"degree", "dirs", "k", "re", "im"}
    if unknown:
        raise SchemaError(f"record {i}: unknown fields {sorted(unknown)}")
    degree, dirs, k = rec["degree"], rec["dirs"], rec["k"]
    if not isinstance(degree, int) or degree not in range(5):
        raise SchemaError(f"record {i}: degree must be an integer 0..4")
    if (not isinstance(dirs, list) or len(set(dirs)) != len(dirs)
            or any(not isinstance(mu, int) or mu not in AXES for mu in dirs)
            or sorted(dirs) != dirs):
        raise SchemaError(
            f"record {i}: dirs must be a sorted list of distinct axes 0..3"
        )
    if len(dirs) != degree:
        raise SchemaError(f"record {i}: len(dirs) != degree")
    if not isinstance(k, list) or len(k) != 4 \
            or any(not isinstance(x, int) or isinstance(x, bool) for x in k):
        raise SchemaError(f"record {i}: k must be a list of four integers")
    for field in ("re", "im"):
        v = rec[field]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"record {i}: {field} must be a number")


def records_to_form(records) -> InhomogeneousForm:
    """Rebuild an inhomogeneous form from coefficient records."""
    if not isinstance(records, list):
        raise SchemaError("top level: expected a list of records")
    coeffs: dict = {}
    for i, rec in enumerate(records):
        _validate_record(rec, i)
        key = (tuple(rec["k"]), tuple(rec["dirs"]))
        if key in coeffs:
            raise SchemaError(f"record {i}: duplicate key {key}")
        coeffs[key] = complex(rec["re"], rec["im"])
    parts = []
    for r, part in enumerate(_rows(coeffs)):
        axes = list(zip(*part))[1:5]  # columns k0..k3 of (slot, k, c)
        sites = math.prod(max(x) - min(x) + 1 for x in axes)
        if sites > MAX_LOAD_SITES:
            raise SchemaError(f"degree-{r} records span a box of {sites} "
                              f"sites, more than {MAX_LOAD_SITES}")
        try:
            parts.append(_form(r, *_scatter(r, part)))
        except ValueError as exc:  # a site outside the 64-bit range
            raise SchemaError(f"degree-{r} records: {exc}") from exc
    return InhomogeneousForm(parts)


def records_to_discrete_form(records, degree: int) -> DiscreteForm:
    """Rebuild a degree-homogeneous form; rejects mixed degrees."""
    A = records_to_form(records)
    for r in range(5):
        if r != degree and not A.part(r).is_zero():
            raise SchemaError(
                f"expected a degree-{degree} form, found degree-{r} records"
            )
    return A.part(degree)


def dump_form(w, path: str):
    with open(path, "w") as fh:
        json.dump(form_to_records(w), fh, indent=2)
        fh.write("\n")


def load_form(path: str) -> InhomogeneousForm:
    with open(path) as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return records_to_form(records)
