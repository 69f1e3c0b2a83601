"""JSON serialization of discrete forms.

A form is stored as a list of coefficient records
``{"degree": r, "dirs": [...], "k": [...], "re": x, "im": y}``, one per
nonzero coefficient, sorted by (degree, k lexicographically, dirs
lexicographically): the order in which ``numpy.nonzero`` visits a form's
box array with the blade slot as the last axis.  Round trips are bit-exact
for ``complex`` coefficients; a non-finite re or im is rejected.  Records
load column-wise: every check is a reduction over one field of all records.

A loaded form is stored over the bounding box of its sites, so the records
of one degree may span at most ``MAX_LOAD_SITES`` sites (a 32^4 box); a
file that names two far-apart sites is rejected, not allocated.
"""

from __future__ import annotations

import bisect
import json
from itertools import chain, repeat
from operator import eq, itemgetter, lt
from typing import List

import numpy as np

from .complex4 import BLADE_SLOT, GRADE_BLADES
from .forms import MAX_LOAD_SITES, DiscreteForm, InhomogeneousForm, _entries, \
    _form, _parts, _scatter, _typed

FIELDS = ("degree", "dirs", "k", "re", "im")
_FLOAT_END = 2 ** 1024 - 2 ** 970  # exactly the ints below it fit a float


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


def records_to_form(records) -> InhomogeneousForm:
    """Rebuild an inhomogeneous form from coefficient records; a failing
    check is bisected to the first record it rejects."""
    if not isinstance(records, list):
        raise SchemaError("top level: expected a list of records")
    n, error = len(records), None

    def check(ok, message):  # ok(m): the first m records pass
        nonlocal n, error
        if not ok(n):  # later checks see only the records before n
            n = bisect.bisect_left(range(n), True, key=lambda m: not ok(m + 1))
            error = f"record {n}: " + (
                message(records[n]) if callable(message) else message)

    check(lambda m: _typed(records[:m], dict),
          lambda r: f"expected an object, got {type(r).__name__}")
    check(lambda m: all(map(eq, repeat(set(FIELDS)), map(dict.keys, records[
        :m]))), lambda r: next((f"missing field {f!r}" for f in FIELDS if f
                                not in r), f"unknown fields "
                               f"{sorted(set(r) - set(FIELDS))}"))
    degree, dirs, k, re, im = (list(map(itemgetter(f), records[:n]))
                               for f in FIELDS)
    check(lambda m: _typed(degree[:m], int) and set(degree[:m]) <= {
        0, 1, 2, 3, 4}, "degree must be an integer 0..4")
    message = "dirs must be a sorted list of distinct axes 0..3"
    check(lambda m: _typed(dirs[:m], list)
          and _typed(chain.from_iterable(dirs[:m]), int), message)
    slot = np.array([*map(BLADE_SLOT.get, map(tuple, dirs[:n]), repeat(-1))])
    check(lambda m: (slot[:m] >= 0).all(), message)
    grade = np.fromiter(map(len, dirs[:n]), int)
    check(lambda m: (grade[:m] == degree[:m]).all(), "len(dirs) != degree")
    check(lambda m: _typed(k[:m], list) and set(map(len, k[:m])) <= {4}
          and _typed(chain.from_iterable(k[:m]), int),
          "k must be a list of four integers")
    for field, c in (("re", re), ("im", im)):
        check(lambda m: _typed(c[:m], int, float), f"{field} must be a number")
        check(lambda m: all(map(lt, map(abs, c[:m]), repeat(_FLOAT_END))),
              f"{field} must be a finite number")
    try:
        sites = np.array(k[:n], np.int64).reshape(n, 4)
    except OverflowError:  # loads if the records beyond 64 bits are zero
        sites = np.array(k[:n], object).reshape(n, 4)
    keys = (*sites.T, grade[:n], slot[:n])
    order = np.lexsort(keys)  # stable: equal keys stay in record order
    same = np.logical_and.reduce([c[order[1:]] == c[order[:-1]] for c in keys])
    check(lambda m: order[1:][same].min(initial=n) >= m,
          lambda r: f"duplicate key {(tuple(r['k']), tuple(r['dirs']))}")
    if error:
        raise SchemaError(error)
    z = np.array(re[:n], complex)
    z.imag = im[:n]
    parts = []
    for r in range(5):
        sel = np.flatnonzero((z != 0) & (grade[:n] == r))
        try:
            parts.append(_form(r, *_scatter(r, slot[sel], sites[sel], z[sel],
                                            "records")))
        except ValueError as exc:  # outside the 64-bit range or the bound
            raise SchemaError(str(exc)) from exc
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
