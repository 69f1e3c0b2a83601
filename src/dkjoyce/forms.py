"""Discrete forms as box arrays, and the calculus operators on the 4D lattice.

A degree-r form is an integer origin plus one array over the bounding box of
its support, shaped ``(C(4, r), n0, n1, n2, n3)``: slot s holds the blade
``GRADE_BLADES[r][s]``, index i the site ``origin + i``.  Storage is the whole
box of every blade, with no list of the nonzero ones, so two coefficients far
apart cost every site between them and an all-zero blade slice what a full one
does.  A form built from coefficients may span at most ``MAX_LOAD_SITES``; its
array is complex128 when every coefficient is a Python int, float or complex,
else object, so the exact GaussianRational runs the same code.

Every operator sums signed, shifted blade slices (:func:`_accumulate`) whose
signs come from the blade product table of :mod:`dkjoyce.complex4`: d is the
grade-raising part of sum_mu e_mu Delta+_mu, delta the grade-lowering part
of sum_mu e_mu Delta-_mu, a cup sign is the Clifford sign of two disjoint
blades, and the Hodge star sign follows from s cup *s = Q e.  A stencil of
differences copies a complex128 form once into a zero-padded hull and adds
whole flat blade rows, one shift being one offset (:func:`_stencil_form`).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from .complex4 import (_BLADE_TABLE, ALL_BLADES, AXES, BLADE_SLOT,
                       GRADE_BLADES, DirectionSet, MultiIndex, normalize_dirs)

Key = Tuple[MultiIndex, DirectionSet]

# coefficient types stored in a complex128 array; anything else is object
_NATIVE = (int, float, complex, np.number)
#: most sites the box of one degree may span when built from coefficients
MAX_LOAD_SITES = 32 ** 4


class NotAdmissible(ValueError):
    """A form carries support outside the window of an inner product."""


class DiscreteForm:
    """Degree-homogeneous cochain; immutable, zero outside its box ``data``.

    Coefficients given as Python int, float or complex are stored as
    complex128, so :meth:`get` and :meth:`items` return them as complex
    (3 comes back as (3+0j)); any other type comes back as given.
    """

    __slots__ = ("degree", "origin", "data")

    def __init__(self, degree: int, coeffs: Dict[Key, complex] | None = None):
        if degree not in range(5):
            raise ValueError(f"degree must be 0..4, got {degree}")
        self.degree = degree
        self.origin, self.data = _scatter(
            degree, *_rows(coeffs, degree)[degree])

    @classmethod
    def zero(cls, degree: int) -> "DiscreteForm":
        return cls(degree)

    @classmethod
    def basis(cls, k: MultiIndex, dirs, coeff=1) -> "DiscreteForm":
        d = normalize_dirs(dirs)
        return cls(len(d), {(tuple(k), d): coeff})

    def live(self) -> Iterator[Tuple[int, DirectionSet]]:
        """(slot, blade) of every slice; none for an empty box."""
        return enumerate(GRADE_BLADES[self.degree] if self.data.size else ())

    def get(self, key: Key, default=0):
        k, dirs = key
        if len(k) != 4:
            raise ValueError(f"site {k!r} does not have four components")
        i = (BLADE_SLOT.get(tuple(dirs), -1),
             *map(operator.sub, k, self.origin))
        c = self.data.item(i) if len(dirs) == self.degree and min(i) >= 0 \
            and all(map(operator.lt, i, self.data.shape)) else 0
        return c if c != 0 else default

    def items(self):
        """Every nonzero ``((k, dirs), c)``, sorted by (k, dirs)."""
        sites, slots, values = _entries(self)
        blades = GRADE_BLADES[self.degree]
        return zip(zip(sites, map(blades.__getitem__, slots)), values.tolist())

    def is_zero(self) -> bool:
        return not (self.data != 0).any()

    def max_norm(self) -> float:
        """Largest absolute coefficient, 0.0 if none; NaN if any is NaN."""
        return float(np.abs(self.data).max(initial=0.0))

    def __add__(self, other: "DiscreteForm") -> "DiscreteForm":
        return _sum(self, other, 1)

    def __sub__(self, other: "DiscreteForm") -> "DiscreteForm":
        return _sum(self, other, -1)

    def __rmul__(self, scalar) -> "DiscreteForm":
        if self.data.dtype == complex and not isinstance(scalar, _NATIVE) \
                and isinstance(scalar, numbers.Complex):  # such as a Fraction
            scalar = complex(scalar)  # so that the data stay native
        # scale the stored values only, not the zero padding (0 * inf is NaN,
        # exact zeros are slow), unless complex128 padding stays zero
        if isinstance(scalar, (float, complex)) and cmath.isfinite(scalar) \
                and self.data.dtype == complex:
            return _form(self.degree, self.origin, scalar * self.data)
        data = self.data.astype(np.result_type(self.data, np.asarray(scalar)))
        nz = data != 0
        data[nz] = scalar * data[nz]
        return _form(self.degree, self.origin, data)

    def __neg__(self) -> "DiscreteForm":
        return _form(self.degree, self.origin, -self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteForm) or self.degree != other.degree:
            return False
        # equal on the common box, and each holds nothing outside it
        box = _overlap(self, other)
        if box is None:
            return self.is_zero() and other.is_zero()
        return bool((box[1] == box[2]).all()) and all(
            np.count_nonzero(w.data) == np.count_nonzero(a)
            for w, a in ((self, box[1]), (other, box[2])))

    def __repr__(self):
        nnz = np.count_nonzero(self.data != 0)
        return f"DiscreteForm(degree={self.degree}, nnz={nnz})"


def _form(degree, origin, data) -> DiscreteForm:
    w = object.__new__(DiscreteForm)
    w.degree, w.origin, w.data = degree, origin, data
    return w


def _rows(coeffs, degree=None) -> list:
    """Per degree, the columns (slots, sites, values) of the nonzero values
    of ``{(k, dirs): c}``; given ``degree``, every key must be of it."""
    rows: list = [[] for _ in range(5)]
    for key, c in (coeffs or {}).items():
        try:  # a key that is no pair, or a site or blade no sequence
            k, dirs = key
            s = BLADE_SLOT.get(tuple(dirs)) if len(k) == 4 else None
        except (TypeError, ValueError):
            s = None
        if s is None or degree not in (None, len(dirs)):
            of = "" if degree is None else f" of degree {degree}"
            raise ValueError(f"key {key!r} is not a site and a blade{of}")
        if c != 0:
            rows[len(dirs)].append((s, k, c))
    if not _typed(itertools.chain.from_iterable(map(operator.itemgetter(0), (
            coeffs or {}))), int, np.integer):  # int64 would take 1.5 as 1
        raise ValueError("site components must be integers, not bools")
    return [tuple(zip(*r)) or ((), (), ()) for r in rows]


def _typed(col, *types) -> bool:
    """Whether every entry of ``col`` is an instance of ``types``, not bool."""
    seen = set(map(type, col))
    return bool not in seen and all(issubclass(t, types) for t in seen)


def _scatter(degree: int, slots, sites, values, of="sites"):
    """Origin and box array of ``values`` at ``slots`` and ``sites``.
    It rejects, naming the rows ``of``, a site outside the 64-bit range and,
    before allocating, a box of more than ``MAX_LOAD_SITES`` sites."""
    if not len(values):
        empty = np.zeros((len(GRADE_BLADES[degree]), 0, 0, 0, 0), complex)
        return (0,) * 4, empty
    try:
        sites = np.asarray(sites, np.int64)
    except OverflowError:
        raise ValueError(f"degree-{degree} {of}: a site index is outside "
                         "the 64-bit range") from None
    lo = sites.min(axis=0)
    shape = [int(h) - int(l) + 1 for l, h in zip(lo, sites.max(axis=0))]
    if (box := math.prod(shape)) > MAX_LOAD_SITES:
        raise ValueError(f"degree-{degree} {of} span a box of {box} sites, "
                         f"more than {MAX_LOAD_SITES}")
    native = all(issubclass(t, _NATIVE) for t in set(map(type, values)))
    data = np.zeros([len(GRADE_BLADES[degree])] + shape,
                    complex if native else object)
    data[(slots, *(sites - lo).T)] = values
    return tuple(lo.tolist()), data


_ZERO = [DiscreteForm(r) for r in range(5)]


def _sum(u: DiscreteForm, v: DiscreteForm, sign: int) -> DiscreteForm:
    """u + sign * v."""
    if u.degree != v.degree:
        raise ValueError("cannot add forms of different degree")
    if u.origin == v.origin and u.data.shape == v.data.shape \
            and u.data.dtype == v.data.dtype:
        return _form(u.degree, u.origin,
                     u.data + v.data if sign > 0 else u.data - v.data)
    return _accumulate(u.degree, [(blade, y, w.origin, w.data[s])
                                  for w, y in ((u, 1), (v, sign))
                                  for s, blade in w.live()])


def _entries(w: DiscreteForm):
    """Sites, slots and values of the nonzero coefficients, by (site, slot)."""
    a = w.data.transpose(1, 2, 3, 4, 0)
    nz = a != 0
    idx = np.nonzero(nz)
    sites = zip(*((i + o).tolist() for i, o in zip(idx, w.origin)))
    return sites, idx[4].tolist(), a[nz]


def _shifted(origin, dirs, step: int) -> MultiIndex:
    """``origin`` moved by ``step`` along every axis in ``dirs``."""
    return tuple(o + step if mu in dirs else o for mu, o in enumerate(origin))


def _accumulate(degree: int, pieces) -> DiscreteForm:
    """Sum of ``(blade, sign, origin, *factors)`` slices over their hull; a
    slice is the product of its factor arrays, formed only when added.  A
    hull past ``MAX_LOAD_SITES`` and the slices' own size is not allocated."""
    pieces = [p for p in pieces if p[3].size]
    if not pieces:
        return _ZERO[degree]
    # placements in Python ints, which cannot wrap at the 64-bit edge
    lo = tuple(map(min, zip(*(p[2] for p in pieces))))
    hi = tuple(map(max, zip(*(map(operator.add, p[2], p[3].shape)
                              for p in pieces))))
    shape = tuple(map(operator.sub, hi, lo))
    if (box := math.prod(shape)) > MAX_LOAD_SITES \
            and box > sum(p[3].size for p in pieces):
        raise ValueError(f"degree-{degree} sum spans a box of {box} sites, "
                         f"more than {MAX_LOAD_SITES}")
    dtype = object if any(a.dtype.hasobject for p in pieces for a in p[3:]) \
        else complex
    out = np.zeros((len(GRADE_BLADES[degree]),) + shape, dtype)
    slots = [BLADE_SLOT[p[0]] for p in pieces]
    l0, l1, l2, l3 = lo
    for (_, sign, (o0, o1, o2, o3), a, *more), s in zip(pieces, slots):
        a = functools.reduce(operator.mul, more, a) if more else a
        n0, n1, n2, n3 = a.shape
        o0, o1, o2, o3 = o0 - l0, o1 - l1, o2 - l2, o3 - l3
        view = out[s, o0:o0 + n0, o1:o1 + n1, o2:o2 + n2, o3:o3 + n3]
        if sign > 0:
            view += a
        else:
            view -= a
    return _form(degree, lo, out)


def _overlap(u: DiscreteForm, v: DiscreteForm, vo=None):
    """(origin, views of u and v) of their common box, v placed at ``vo``."""
    vo = v.origin if vo is None else vo
    un, vn = u.data.shape[1:], v.data.shape[1:]
    lo = tuple(map(max, u.origin, vo))
    hi = tuple(map(min, map(operator.add, u.origin, un),
                   map(operator.add, vo, vn)))
    if any(map(operator.le, hi, lo)):
        return None
    return (lo, *(w.data[(slice(None),) + tuple(map(slice, map(
        operator.sub, lo, o), map(operator.sub, hi, o)))]
        for w, o in ((u, u.origin), (v, vo))))


class InhomogeneousForm:
    """Graded collection of discrete forms, degrees 0..4."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        parts = tuple(_ZERO if parts is None else parts)
        if len(parts) != 5 or any(p.degree != r for r, p in enumerate(parts)):
            raise ValueError("need five parts of degrees 0..4 in order")
        self.parts = parts

    @classmethod
    def zero(cls) -> "InhomogeneousForm":
        return cls()

    @classmethod
    def from_form(cls, w: DiscreteForm) -> "InhomogeneousForm":
        parts = list(_ZERO)
        parts[w.degree] = w
        return cls(parts)

    @classmethod
    def from_coeffs(cls, coeffs: Dict[Key, complex]) -> "InhomogeneousForm":
        rows = _rows(coeffs)
        return cls([_form(r, *_scatter(r, *rows[r])) for r in range(5)])

    def part(self, r: int) -> DiscreteForm:
        return self.parts[r]

    def get(self, key: Key, default=0):
        return self.parts[len(key[1])].get(key, default)

    def items(self):
        return itertools.chain.from_iterable(p.items() for p in self.parts)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def max_norm(self) -> float:
        return float(np.max([p.max_norm() for p in self.parts]))

    def __add__(self, other: "InhomogeneousForm") -> "InhomogeneousForm":
        return InhomogeneousForm(map(operator.add, self.parts, other.parts))

    def __sub__(self, other: "InhomogeneousForm") -> "InhomogeneousForm":
        return InhomogeneousForm(map(operator.sub, self.parts, other.parts))

    def __rmul__(self, scalar) -> "InhomogeneousForm":
        return InhomogeneousForm([scalar * p for p in self.parts])

    def __neg__(self) -> "InhomogeneousForm":
        return InhomogeneousForm([-p for p in self.parts])

    def __eq__(self, other) -> bool:
        return isinstance(other, InhomogeneousForm) and self.parts == other.parts

    def __repr__(self):
        nnz = [int(np.count_nonzero(p.data != 0)) for p in self.parts]
        return f"InhomogeneousForm(nnz_by_degree={nnz})"


def _parts(w) -> tuple:
    """The homogeneous parts of a discrete or inhomogeneous form."""
    return w.parts if isinstance(w, InhomogeneousForm) else (w,)


def _nonzero_sites(w) -> np.ndarray:
    """The distinct sites, one sorted row each, at which some part of ``w``
    holds a nonzero coefficient."""
    return np.unique(np.concatenate([
        np.argwhere((p.data != 0).any(axis=0)) + p.origin
        for p in _parts(w)]), axis=0)


def _assemble(pieces) -> InhomogeneousForm:
    """:func:`_accumulate` for pieces of any grades."""
    grades: list = [[] for _ in range(5)]
    for p in pieces:
        grades[len(p[0])].append(p)
    return InhomogeneousForm([_accumulate(r, g) if g else _ZERO[r]
                              for r, g in enumerate(grades)])


@dataclass(frozen=True)
class Window:
    """Finite block of lattice cells, indices 1..n_mu per axis."""

    n: Tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.n) != 4 or not _typed(self.n, int) or min(self.n) < 1:
            raise ValueError(f"window needs four int extents >= 1: {self.n}")

    def sites(self) -> Iterator[MultiIndex]:
        return itertools.product(*(range(1, x + 1) for x in self.n))

    def admissible(self, w) -> bool:
        """Whether every nonzero coefficient of ``w`` lies in the window."""
        if all(1 <= o and o + s <= x + 1 for p in _parts(w)
               for o, s, x in zip(p.origin, p.data.shape[1:], self.n)):
            return True
        k = _nonzero_sites(w)
        return bool(((k >= 1) & (k <= self.n)).all())


# ---------------------------------------------------------------------------
# difference operators, coboundary and codifferential
#
# A stencil over routes ``dirs -> [(mu, sign, image blade)]`` adds
# ``sign * Delta_mu`` of each blade slice onto its image blade.  A plain
# difference keeps the blade; d and delta route by the products e_mu * dirs
# that raise or lower the grade.

def _routes(raising: bool) -> dict:
    """Per source blade, the (axis, sign, image blade) of e_mu times it,
    keeping the products that raise (or lower) the grade."""
    return {
        dirs: [(mu,) + _BLADE_TABLE[((mu,), dirs)]
               for mu in AXES if (mu in dirs) != raising]
        for dirs in ALL_BLADES
    }


_RAISE = _routes(raising=True)
_LOWER = _routes(raising=False)
# the plain difference along each axis
_ALONG = [{dirs: [(mu, 1, dirs)] for dirs in ALL_BLADES} for mu in AXES]


def _stencil_pieces(w: DiscreteForm, routes: dict, forward: bool) -> list:
    """The :func:`_accumulate` pieces of a stencil over ``w``: two slices per
    route of an object form, one hull-sized slice per image blade else."""
    if w.data.dtype != object:
        f = _stencil_form(w, routes, forward)
        return [] if f is None else [
            (blade, 1, f.origin, f.data[s]) for s, blade in f.live()]
    # forward: f(k + e_mu) - f(k) at k, so f(k) lands at k and k - e_mu;
    # backward: f(k) - f(k - e_mu) at k, so f(k) lands at k and k + e_mu
    step = -1 if forward else 1
    return [p for s, dirs in w.live() for mu, sign, nd in routes.get(dirs, ())
            for p in ((nd, sign * step, w.origin, w.data[s]),
                      (nd, -sign * step, _shifted(w.origin, (mu,), step),
                       w.data[s]))]


def _stencil_form(w: DiscreteForm, routes: dict, forward: bool):
    """The stencil over ``w``, whose routes share one image degree, as one
    form; None if no route leaves a blade of ``w``."""
    live = [(s, routes.get(dirs, ())) for s, dirs in w.live()]
    if not (images := {nd for _, rs in live for _, _, nd in rs}):
        return None
    degree = len(min(images))
    if w.data.dtype == object:
        return _accumulate(degree, _stencil_pieces(w, routes, forward))
    # w is copied once into the zero-padded hull of its shifts: a shift along
    # mu is an offset by mu's stride in each flat blade row, and what wraps
    # across a row boundary reads padding.  Routes add in the slices' order
    step, axes = -1 if forward else 1, {r[0] for _, rs in live for r in rs}
    shape = [n + (mu in axes) for mu, n in enumerate(w.data.shape[1:])]
    pad = np.zeros((len(live), *shape), complex)
    at = [int(forward and mu in axes) for mu in AXES]
    pad[(slice(None), *map(slice, at, map(operator.add, at, w.data.shape[
        1:])))] = w.data
    out = np.zeros((len(GRADE_BLADES[degree]), pad[0].size), complex)
    for (_, rs), a in zip(live, pad.reshape(len(live), -1)):
        for mu, sign, nd in rs:
            row, k = out[BLADE_SLOT[nd]], math.prod(shape[mu + 1:])
            near = (row[:-k], a[k:]) if forward else (row[k:], a[:-k])
            for view, b, x in ((row, a, sign * step), (*near, -sign * step)):
                (np.add if x > 0 else np.subtract)(view, b, out=view)
    return _form(degree, _shifted(w.origin, axes, min(step, 0)),
                 out.reshape(-1, *shape))


def _stencil(w, routes: dict, forward: bool, shift: int = 0):
    """The stencil of every part of ``w``; a discrete form maps to degree +
    ``shift``, clamped to 0..4 (where the image is zero)."""
    parts = list(_ZERO)
    for f in filter(None, (_stencil_form(p, routes, forward)
                           for p in _parts(w))):
        parts[f.degree] = f
    return InhomogeneousForm(parts) if isinstance(w, InhomogeneousForm) \
        else parts[min(max(w.degree + shift, 0), 4)]


def forward_diff(w: DiscreteForm, mu: int) -> DiscreteForm:
    """Forward difference on every coefficient function, zero extension."""
    return _stencil(w, _ALONG[mu], True)


def backward_diff(w: DiscreteForm, mu: int) -> DiscreteForm:
    """Backward difference on every coefficient function, zero extension."""
    return _stencil(w, _ALONG[mu], False)


def coboundary(w):
    """Discrete exterior differential, degree r -> r+1 (zero on 4-forms).

    Built from forward differences with alternating signs; dual to the
    chain boundary under the pairing.
    """
    return _stencil(w, _RAISE, True, 1)


def codifferential(w):
    """Formal adjoint of the coboundary, degree r -> r-1 (zero on 0-forms).

    Built from backward differences; independent of the overall metric sign.
    """
    return _stencil(w, _LOWER, False, -1)


# ---------------------------------------------------------------------------
# cup product

def cup(u, v):
    """Cup multiplication, the discrete analogue of the exterior product.

    Per axis, a left interval factor at position kappa matches a right point
    factor at kappa+1, a left point at kappa matches a right interval or
    point at kappa; any other per-axis combination kills the whole product.
    Overlapping direction sets give zero; disjoint ones carry the sign of
    their blade product (the Koszul sign of the crossing factors).  On
    inhomogeneous forms it is the sum over every pair of parts.
    """
    pieces = []
    # above degree 4 the direction sets overlap and the product vanishes
    for a, b in itertools.product(_parts(u), _parts(v)):
        deg = a.degree + b.degree
        for su, du in a.live() if deg <= 4 else ():
            # b is read at k + e_du: seen from k, its box starts e_du lower
            box = _overlap(a, b, _shifted(b.origin, du, -1))
            for sv, dv in b.live() if box else ():
                sign, nd = _BLADE_TABLE[(du, dv)]
                if len(nd) == deg:
                    pieces.append((nd, sign, box[0], box[1][su], box[2][sv]))
    if isinstance(u, DiscreteForm) and isinstance(v, DiscreteForm):
        return _accumulate(min(u.degree + v.degree, 4), pieces)
    return _assemble(pieces)


# ---------------------------------------------------------------------------
# Hodge star

def _complement(dirs: DirectionSet) -> DirectionSet:
    return tuple(mu for mu in AXES if mu not in dirs)


def _lorentz_sign(dirs: DirectionSet) -> int:
    return -1 if 0 in dirs else 1


# sign of *s: s cup *s = Q(s) e with the cup sign of s and its complement,
# so it is Q(s) times that blade product sign
STAR_SIGN = {
    s: _lorentz_sign(s) * _BLADE_TABLE[(s, _complement(s))][0]
    for s in ALL_BLADES
}


def hodge_star(w: DiscreteForm) -> DiscreteForm:
    """Discrete Hodge star, degree r -> 4-r, Lorentz signature.

    Defined on basis elements by ``s cup *s = Q(k0) e``; the image index
    carries a tau shift along the source direction set.
    """
    return _accumulate(4 - w.degree, [
        (_complement(d), STAR_SIGN[d], _shifted(w.origin, d, 1), w.data[s])
        for s, d in w.live()])


def hodge_star_inverse(w: DiscreteForm) -> DiscreteForm:
    """Row-by-row inverse of :func:`hodge_star` (undoes shift and sign)."""
    return _accumulate(4 - w.degree, [
        (sd, STAR_SIGN[sd], _shifted(w.origin, sd, -1), w.data[s])
        for s, sd in ((s, _complement(d)) for s, d in w.live())])


def star_d_star(w: DiscreteForm) -> DiscreteForm:
    """The composite star . coboundary . star (no inverse, no sign).

    Unlike the continuum, this is not the codifferential: its value at k is
    the codifferential's value at the index with all four components
    decremented.
    """
    return hodge_star(coboundary(hodge_star(w)))


# ---------------------------------------------------------------------------
# inner product and Laplacian

def inner_product(u: DiscreteForm, v: DiscreteForm, win: Window) -> complex:
    """Window inner product (u, v) over the finite cell block.

    Equal degrees reduce to signature-weighted sums of products with the
    conjugated second argument (sign -1 exactly on components whose
    direction set contains the time axis); different degrees give 0.
    """
    if not (win.admissible(u) and win.admissible(v)):
        raise NotAdmissible(
            "form has support outside the inner-product window")
    box = _overlap(u, v) if u.degree == v.degree else None
    return sum(_lorentz_sign(d) * (box[1][s] * box[2][s].conjugate()).sum()
               for s, d in enumerate(GRADE_BLADES[u.degree])) if box else 0


def laplacian(w):
    """Discrete Laplacian -(d delta + delta d), gradewise.

    On a 0-form (4-form) the half d delta (delta d) has no degree to land
    in and is dropped.
    """
    dd = coboundary(codifferential(w))
    sd = codifferential(coboundary(w))
    if isinstance(w, DiscreteForm) and w.degree in (0, 4):
        return -(sd if w.degree == 0 else dd)
    return -(dd + sd)
