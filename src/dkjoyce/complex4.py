"""Combinatorial substrate of the 4D lattice complex.

Basis chains are tensor products of four 1D factors, each either a point
``x`` or an open interval ``e``.  A basis element is identified by a
multi-index ``k`` (four lattice coordinates, axis 0 being time) and a
direction set (the sorted tuple of axes carrying an interval factor); its
dimension is the size of the direction set.

Chains live downstairs, cochains (discrete forms, see :mod:`dkjoyce.forms`)
upstairs; the two are connected by a perfect pairing on basis elements.
Both are stored alike, as one box array per dimension.

Direction sets double as the basis blades of the spacetime Clifford algebra;
the blade product table :data:`_BLADE_TABLE` built here is the source of
every operator sign in :mod:`dkjoyce.forms` and :mod:`dkjoyce.clifford`.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Iterable, Tuple

AXES = (0, 1, 2, 3)

#: Lorentzian metric diag(1, -1, -1, -1); axis 0 is time
METRIC = {0: 1, 1: -1, 2: -1, 3: -1}

MultiIndex = Tuple[int, int, int, int]
DirectionSet = Tuple[int, ...]

#: the blades of each grade in lexicographic order; a blade's position in
#: its grade is its slot in a form's coefficient array
GRADE_BLADES = tuple(tuple(itertools.combinations(AXES, r)) for r in range(5))
ALL_BLADES = tuple(blade for grade in GRADE_BLADES for blade in grade)
BLADE_SLOT = {b: s for grade in GRADE_BLADES for s, b in enumerate(grade)}


def _blade_product(a: DirectionSet, b: DirectionSet) -> Tuple[int, DirectionSet]:
    """Multiply two blades: sorting the word a + b takes one transposition
    per inverted pair, then each index in both cancels against the metric."""
    word = a + b
    sign = (-1) ** sum(x > y for i, x in enumerate(word) for y in word[i + 1:])
    for mu in set(a) & set(b):
        sign *= METRIC[mu]
    return sign, tuple(sorted(set(a) ^ set(b)))


_BLADE_TABLE = {
    (a, b): _blade_product(a, b) for a in ALL_BLADES for b in ALL_BLADES
}


def blade_product(a: DirectionSet, b: DirectionSet) -> Tuple[int, DirectionSet]:
    """Signed product of two basis blades (direction sets)."""
    return _BLADE_TABLE[(a, b)]


def tau_all(k: MultiIndex) -> MultiIndex:
    """Increment every component of ``k``."""
    return tuple(x + 1 for x in k)


def normalize_dirs(dirs: Iterable[int]) -> DirectionSet:
    d = tuple(sorted(set(dirs)))
    if any(mu not in AXES for mu in d):
        raise ValueError(f"direction set {d!r} not a subset of axes 0..3")
    return d


# below the tables that forms imports; a chain keeps its coefficients in forms
from . import forms as _forms  # noqa: E402


class Chain:
    """A finitely supported linear combination of basis chains.

    Stored like a cochain, as the :class:`~dkjoyce.forms.InhomogeneousForm`
    ``form``: keys are four-integer sites and sorted blades, and building or
    adding far-apart chains hits ``MAX_LOAD_SITES`` (ValueError).
    ``terms`` is a read-only ``{(k, dirs): c}`` view of the nonzero values.
    """

    __slots__ = ("form",)

    def __init__(self, terms=None):
        self.form = _forms.InhomogeneousForm.from_coeffs(terms or {})

    @classmethod
    def basis(cls, k: MultiIndex, dirs: Iterable[int], coeff=1) -> "Chain":
        return cls({(tuple(k), normalize_dirs(dirs)): coeff})

    @classmethod
    def from_form(cls, w) -> "Chain":
        """The chain whose coefficients are the InhomogeneousForm ``w``."""
        a = object.__new__(cls)
        a.form = w
        return a

    @property
    def terms(self):
        return MappingProxyType(dict(self.form.items()))

    def __add__(self, other: "Chain") -> "Chain":
        return Chain.from_form(self.form + other.form)

    def __sub__(self, other: "Chain") -> "Chain":
        return Chain.from_form(self.form - other.form)

    def __rmul__(self, scalar) -> "Chain":
        return Chain.from_form(scalar * self.form)

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.form == other.form

    def __bool__(self) -> bool:
        return not self.form.is_zero()

    def __repr__(self):
        return f"Chain({dict(self.terms)!r})"


def boundary(a: Chain) -> Chain:
    """Boundary operator, extended over tensor factors with alternating signs.

    On a 1D factor: a point has zero boundary, an interval at position kappa
    bounds to (point at kappa+1) - (point at kappa).  Crossing an interval
    factor flips the sign, so the factor at axis mu contributes with sign
    (-1)**(number of interval factors on axes < mu).
    """
    pieces = []
    for p in a.form.parts:
        for s, dirs in p.live():
            for i, mu in enumerate(dirs):
                nd = dirs[:i] + dirs[i + 1:]
                up = _forms._shifted(p.origin, (mu,), 1)
                pieces += [(nd, (-1) ** i, up, p.data[s]),
                           (nd, -(-1) ** i, p.origin, p.data[s])]
    return Chain.from_form(_forms._assemble(pieces))


def pair(a: Chain, w) -> complex:
    """Chain-cochain pairing: bilinear extension of the Kronecker pairing.

    ``w`` may be a :class:`~dkjoyce.forms.DiscreteForm` or a
    :class:`~dkjoyce.forms.InhomogeneousForm`; basis elements pair to 1
    exactly when index and direction set agree (so mismatched degrees
    contribute nothing).  Each degree is one product-sum over the common box.
    """
    total = 0
    for v in _forms._parts(w):
        u = a.form.parts[v.degree]
        box = _forms._overlap(u, v)
        if box:
            total = total + (box[1] * box[2]).sum()
    return total
