"""Combinatorial substrate of the 4D lattice complex.

Basis chains are tensor products of four 1D factors, each either a point
``x`` or an open interval ``e``.  A basis element is identified by a
multi-index ``k`` (four lattice coordinates, axis 0 being time) and a
direction set (the sorted tuple of axes carrying an interval factor); its
dimension is the size of the direction set.

Chains live downstairs, cochains (discrete forms, see :mod:`dkjoyce.forms`)
upstairs; the two are connected by a perfect pairing on basis elements.

Direction sets double as the basis blades of the spacetime Clifford algebra.
The one blade product table :data:`_BLADE_TABLE` built here is the source
of every sign the operators use: the coboundary, codifferential, cup
product and Hodge star in :mod:`dkjoyce.forms` and the Clifford products in
:mod:`dkjoyce.clifford` all read it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Tuple

AXES = (0, 1, 2, 3)

#: Lorentzian metric diag(1, -1, -1, -1); axis 0 is time
METRIC = {0: 1, 1: -1, 2: -1, 3: -1}

MultiIndex = Tuple[int, int, int, int]
DirectionSet = Tuple[int, ...]

ALL_BLADES = tuple(
    blade
    for r in range(5)
    for blade in itertools.combinations(AXES, r)
)


def _blade_product(a: DirectionSet, b: DirectionSet) -> Tuple[int, DirectionSet]:
    """Multiply two blades: sort the concatenated index word counting
    transpositions, then cancel repeated indices against the metric."""
    word = list(a) + list(b)
    sign = 1
    # insertion sort; the swap count gives the reordering sign
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            sign *= METRIC[word[i]]
            i += 2
        else:
            out.append(word[i])
            i += 1
    return sign, tuple(out)


_BLADE_TABLE = {
    (a, b): _blade_product(a, b) for a in ALL_BLADES for b in ALL_BLADES
}


def blade_product(a: DirectionSet, b: DirectionSet) -> Tuple[int, DirectionSet]:
    """Signed product of two basis blades (direction sets)."""
    return _BLADE_TABLE[(a, b)]


def tau_shift(k: MultiIndex, mu: int) -> MultiIndex:
    """Increment component ``mu`` of ``k`` by one."""
    return k[:mu] + (k[mu] + 1,) + k[mu + 1:]


def sigma_shift(k: MultiIndex, mu: int) -> MultiIndex:
    """Decrement component ``mu`` of ``k`` by one (inverse of tau)."""
    return k[:mu] + (k[mu] - 1,) + k[mu + 1:]


def tau_all(k: MultiIndex) -> MultiIndex:
    """Increment every component of ``k``."""
    return tuple(x + 1 for x in k)


def normalize_dirs(dirs: Iterable[int]) -> DirectionSet:
    d = tuple(sorted(set(dirs)))
    if any(mu not in AXES for mu in d):
        raise ValueError(f"direction set {d!r} not a subset of axes 0..3")
    return d


class Chain:
    """A finitely supported linear combination of basis chains.

    Stored as ``terms[(k, dirs)] -> coefficient``; exact-zero coefficients
    are dropped on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c != 0}

    @classmethod
    def basis(cls, k: MultiIndex, dirs: Iterable[int], coeff=1) -> "Chain":
        return cls({(tuple(k), normalize_dirs(dirs)): coeff})

    def __add__(self, other: "Chain") -> "Chain":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Chain(out)

    def __sub__(self, other: "Chain") -> "Chain":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return Chain(out)

    def __rmul__(self, scalar) -> "Chain":
        return Chain({key: scalar * c for key, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        return f"Chain({self.terms!r})"


def boundary(a: Chain) -> Chain:
    """Boundary operator, extended over tensor factors with alternating signs.

    On a 1D factor: a point has zero boundary, an interval at position kappa
    bounds to (point at kappa+1) - (point at kappa).  Crossing an interval
    factor flips the sign, so the factor at axis mu contributes with sign
    (-1)**(number of interval factors on axes < mu).
    """
    out: dict = {}
    for (k, dirs), c in a.terms.items():
        for i, mu in enumerate(dirs):
            sign = -c if i % 2 else c
            nd = tuple(nu for nu in dirs if nu != mu)
            up = (tau_shift(k, mu), nd)
            dn = (k, nd)
            out[up] = out.get(up, 0) + sign
            out[dn] = out.get(dn, 0) - sign
    return Chain(out)


def pair(a: Chain, w) -> complex:
    """Chain-cochain pairing: bilinear extension of the Kronecker pairing.

    ``w`` may be a :class:`~dkjoyce.forms.DiscreteForm` or a
    :class:`~dkjoyce.forms.InhomogeneousForm`; basis elements pair to 1
    exactly when index and direction set agree (so mismatched degrees
    contribute nothing).
    """
    total = 0
    for key, c in a.terms.items():
        cw = w.get(key, None)
        if cw is not None:
            total = total + c * cw
    return total
