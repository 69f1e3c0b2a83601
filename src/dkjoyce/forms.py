"""Sparse discrete forms and the calculus operators on the 4D lattice.

A degree-r form stores a finite map ``(k, dirs) -> coefficient`` with
``len(dirs) == r``; everything outside the stored support is zero.  The
operators (differences, coboundary, cup product, Hodge star, codifferential,
Laplacian) only combine coefficients with ring operations, so they work
unchanged over ``complex`` and over the exact
:class:`~dkjoyce.scalars.GaussianRational`.

Sign conventions are Lorentzian: the time axis is 0 and the metric is
diag(1, -1, -1, -1).  Every operator sign is an entry of the blade product
table of :mod:`dkjoyce.complex4`: d is the grade-raising part of
sum_mu e_mu Delta+_mu, delta the grade-lowering part of sum_mu e_mu Delta-_mu,
the cup sign of two disjoint blades is their Clifford product sign, and the
Hodge star sign follows from its defining relation s cup *s = Q e.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from .complex4 import (
    _BLADE_TABLE,
    ALL_BLADES,
    AXES,
    DirectionSet,
    MultiIndex,
    normalize_dirs,
    sigma_shift,
    tau_shift,
)

Key = Tuple[MultiIndex, DirectionSet]


class NotAdmissible(ValueError):
    """A form carries support outside the window of an inner product."""


class DiscreteForm:
    """Degree-homogeneous sparse cochain with complex coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Dict[Key, complex] | None = None):
        if degree not in range(5):
            raise ValueError(f"degree must be 0..4, got {degree}")
        self.degree = degree
        self.coeffs = {}
        for (k, dirs), c in (coeffs or {}).items():
            if len(dirs) != degree:
                raise ValueError(
                    f"key dirs {dirs!r} incompatible with degree {degree}"
                )
            if c != 0:
                self.coeffs[(tuple(k), tuple(dirs))] = c

    @classmethod
    def zero(cls, degree: int) -> "DiscreteForm":
        return cls(degree)

    @classmethod
    def basis(cls, k: MultiIndex, dirs, coeff=1) -> "DiscreteForm":
        d = normalize_dirs(dirs)
        return cls(len(d), {(tuple(k), d): coeff})

    def get(self, key: Key, default=0):
        return self.coeffs.get(key, default)

    def items(self):
        return self.coeffs.items()

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_norm(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __add__(self, other: "DiscreteForm") -> "DiscreteForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return DiscreteForm(self.degree, out)

    def __sub__(self, other: "DiscreteForm") -> "DiscreteForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "DiscreteForm":
        return DiscreteForm(
            self.degree, {key: scalar * c for key, c in self.coeffs.items()}
        )

    def __neg__(self) -> "DiscreteForm":
        return (-1) * self

    def conjugate(self) -> "DiscreteForm":
        return DiscreteForm(
            self.degree, {key: c.conjugate() for key, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"DiscreteForm(degree={self.degree}, nnz={len(self.coeffs)})"


class InhomogeneousForm:
    """Graded collection of discrete forms, degrees 0..4."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        if parts is None:
            parts = [DiscreteForm.zero(r) for r in range(5)]
        parts = tuple(parts)
        if len(parts) != 5 or any(p.degree != r for r, p in enumerate(parts)):
            raise ValueError("need five parts of degrees 0..4 in order")
        self.parts = parts

    @classmethod
    def zero(cls) -> "InhomogeneousForm":
        return cls()

    @classmethod
    def from_form(cls, w: DiscreteForm) -> "InhomogeneousForm":
        parts = [DiscreteForm.zero(r) for r in range(5)]
        parts[w.degree] = w
        return cls(parts)

    @classmethod
    def from_coeffs(cls, coeffs: Dict[Key, complex]) -> "InhomogeneousForm":
        split: list = [dict() for _ in range(5)]
        for (k, dirs), c in coeffs.items():
            split[len(dirs)][(tuple(k), tuple(dirs))] = c
        return cls([DiscreteForm(r, split[r]) for r in range(5)])

    def part(self, r: int) -> DiscreteForm:
        return self.parts[r]

    def get(self, key: Key, default=0):
        return self.parts[len(key[1])].get(key, default)

    def items(self):
        for p in self.parts:
            yield from p.items()

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def max_norm(self) -> float:
        return max(p.max_norm() for p in self.parts)

    def __add__(self, other: "InhomogeneousForm") -> "InhomogeneousForm":
        return InhomogeneousForm(
            [a + b for a, b in zip(self.parts, other.parts)]
        )

    def __sub__(self, other: "InhomogeneousForm") -> "InhomogeneousForm":
        return InhomogeneousForm(
            [a - b for a, b in zip(self.parts, other.parts)]
        )

    def __rmul__(self, scalar) -> "InhomogeneousForm":
        return InhomogeneousForm([scalar * p for p in self.parts])

    def __eq__(self, other) -> bool:
        return isinstance(other, InhomogeneousForm) and self.parts == other.parts

    def __repr__(self):
        nnz = [len(p.coeffs) for p in self.parts]
        return f"InhomogeneousForm(nnz_by_degree={nnz})"


@dataclass(frozen=True)
class Window:
    """Finite block of lattice cells, indices 1..n_mu per axis."""

    n: Tuple[int, int, int, int]

    def __post_init__(self):
        if any(not isinstance(x, int) or x < 1 for x in self.n):
            raise ValueError(f"window extents must be positive, got {self.n}")

    def sites(self) -> Iterator[MultiIndex]:
        return itertools.product(*(range(1, x + 1) for x in self.n))

    def contains(self, k: MultiIndex) -> bool:
        return all(1 <= k[mu] <= self.n[mu] for mu in AXES)

    def is_interior(self, k: MultiIndex) -> bool:
        return all(2 <= k[mu] <= self.n[mu] - 1 for mu in AXES)

    def admissible(self, w) -> bool:
        return all(self.contains(k) for (k, _dirs), _c in w.items())


# ---------------------------------------------------------------------------
# difference operators, coboundary and codifferential
#
# Each operator here is a stencil over routes ``dirs -> [(mu, sign, image
# blade)]``: every coefficient adds ``sign * Delta_mu`` of itself onto the
# image blade, with the forward or the backward difference.  A plain
# difference keeps the blade; d and delta take their routes from the blade
# products e_mu * dirs that raise or lower the grade.

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


def _stencil(w: DiscreteForm, routes: dict, forward: bool,
             degree: int) -> DiscreteForm:
    out: dict = {}
    for (k, dirs), c in w.items():
        for mu, sign, nd in routes[dirs]:
            s = c if sign > 0 else -c
            if forward:
                lo, hi = (sigma_shift(k, mu), nd), (k, nd)
            else:
                lo, hi = (k, nd), (tau_shift(k, mu), nd)
            out[lo] = out.get(lo, 0) + s
            out[hi] = out.get(hi, 0) - s
    return DiscreteForm(degree, out)


def forward_diff(w: DiscreteForm, mu: int) -> DiscreteForm:
    """Forward difference on every coefficient function, zero extension."""
    return _stencil(w, _ALONG[mu], True, w.degree)


def backward_diff(w: DiscreteForm, mu: int) -> DiscreteForm:
    """Backward difference on every coefficient function, zero extension."""
    return _stencil(w, _ALONG[mu], False, w.degree)


def _coboundary_form(w: DiscreteForm) -> DiscreteForm:
    if w.degree == 4:
        # top degree: no room to raise, the image is the zero form
        return DiscreteForm.zero(4)
    return _stencil(w, _RAISE, True, w.degree + 1)


def _codifferential_form(w: DiscreteForm) -> DiscreteForm:
    if w.degree == 0:
        return DiscreteForm.zero(0)
    return _stencil(w, _LOWER, False, w.degree - 1)


def coboundary(w):
    """Discrete exterior differential, degree r -> r+1 (zero on 4-forms).

    Built from forward differences with alternating signs; dual to the
    chain boundary under the pairing.
    """
    if isinstance(w, InhomogeneousForm):
        parts = [DiscreteForm.zero(0)] + [
            _coboundary_form(w.part(r)) for r in range(4)
        ]
        return InhomogeneousForm(parts)
    return _coboundary_form(w)


def codifferential(w):
    """Formal adjoint of the coboundary, degree r -> r-1 (zero on 0-forms).

    Built from backward differences; independent of the overall metric sign.
    """
    if isinstance(w, InhomogeneousForm):
        parts = [_codifferential_form(w.part(r)) for r in range(1, 5)] + [
            DiscreteForm.zero(4)
        ]
        return InhomogeneousForm(parts)
    return _codifferential_form(w)


# ---------------------------------------------------------------------------
# cup product

def cup(u: DiscreteForm, v: DiscreteForm) -> DiscreteForm:
    """Cup multiplication, the discrete analogue of the exterior product.

    Per axis, a left interval factor at position kappa matches a right point
    factor at kappa+1, a left point at kappa matches a right interval or
    point at kappa; any other per-axis combination kills the whole product.
    Overlapping direction sets give zero; disjoint ones carry the sign of
    their blade product (the Koszul sign of the crossing factors).
    """
    deg = u.degree + v.degree
    if deg > 4:
        # direction sets would have to overlap, so the product vanishes
        return DiscreteForm.zero(4)
    by_site: dict = {}
    for (l, dv), cv in v.items():
        by_site.setdefault(l, []).append((dv, cv))
    out: dict = {}
    for (k, du), cu in u.items():
        l = tuple(k[mu] + 1 if mu in du else k[mu] for mu in AXES)
        for dv, cv in by_site.get(l, ()):
            sign, nd = _BLADE_TABLE[(du, dv)]
            if len(nd) != deg:
                continue
            prod = cu * cv
            if sign < 0:
                prod = -prod
            out[(k, nd)] = out.get((k, nd), 0) + prod
    return DiscreteForm(deg, out)


# ---------------------------------------------------------------------------
# Hodge star

def _complement(dirs: DirectionSet) -> DirectionSet:
    return tuple(mu for mu in AXES if mu not in dirs)


def _lorentz_sign(dirs: DirectionSet) -> int:
    return -1 if 0 in dirs else 1


# sign of *s for each source direction set; the image direction set is the
# complement and the image index is shifted by tau along the source dirs.
# s cup *s = Q(s) e with the cup sign of s and its complement, so the star
# sign is Q(s) times that blade product sign.
STAR_SIGN = {
    s: _lorentz_sign(s) * _BLADE_TABLE[(s, _complement(s))][0]
    for s in ALL_BLADES
}


def hodge_star(w: DiscreteForm) -> DiscreteForm:
    """Discrete Hodge star, degree r -> 4-r, Lorentz signature.

    Defined on basis elements by ``s cup *s = Q(k0) e``; the image index
    carries a tau shift along the source direction set.
    """
    out: dict = {}
    for (k, dirs), c in w.items():
        kk = tuple(k[mu] + 1 if mu in dirs else k[mu] for mu in AXES)
        sc = c if STAR_SIGN[dirs] > 0 else -c
        key = (kk, _complement(dirs))
        out[key] = out.get(key, 0) + sc
    return DiscreteForm(4 - w.degree, out)


def hodge_star_inverse(w: DiscreteForm) -> DiscreteForm:
    """Row-by-row inverse of :func:`hodge_star` (undoes shift and sign)."""
    out: dict = {}
    for (k, dirs), c in w.items():
        sd = _complement(dirs)
        kk = tuple(k[mu] - 1 if mu in sd else k[mu] for mu in AXES)
        sc = c if STAR_SIGN[sd] > 0 else -c
        key = (kk, sd)
        out[key] = out.get(key, 0) + sc
    return DiscreteForm(4 - w.degree, out)


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
    for w in (u, v):
        if not win.admissible(w):
            raise NotAdmissible(
                "form has support outside the inner-product window"
            )
    if u.degree != v.degree:
        return 0
    total = 0
    for key, c in u.items():
        cv = v.get(key, None)
        if cv is None:
            continue
        term = c * cv.conjugate()
        total = total + (term if _lorentz_sign(key[1]) > 0 else -term)
    return total


def laplacian(w):
    """Discrete Laplacian -(d delta + delta d), gradewise."""
    dd = coboundary(codifferential(w))
    sd = codifferential(coboundary(w))
    return (-1) * (dd + sd)
