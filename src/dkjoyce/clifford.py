"""Clifford multiplication on discrete forms.

Each lattice site carries a copy of the spacetime algebra: direction sets
act as basis blades with e_mu e_nu + e_nu e_mu = 2 g_munu, g = diag(1,-1,-1,-1),
and ordered products concatenating into higher blades.  Basis elements at
distinct sites multiply to zero, so products are computed sitewise.

Unit forms (coefficient 1 on every site of a window) turn the blade algebra
into the algebra of inhomogeneous forms; :func:`blade_lmul` and
:func:`blade_rmul` apply an implicit unit blade on every site instead.  The
signs come from the one table in :mod:`dkjoyce.complex4`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from .complex4 import _BLADE_TABLE, normalize_dirs
from .complex4 import ALL_BLADES, blade_product  # noqa: F401  (re-exported)
from .forms import DiscreteForm, InhomogeneousForm, Window, _assemble, \
    _overlap, _parts


def clifford_basis_product(a_key, b_key) -> Optional[Tuple[int, tuple]]:
    """Product of two basis cochains ``(k, dirs)``.

    Returns ``(sign, (k, dirs))`` for same-site factors and ``None`` (zero)
    for factors at different sites.
    """
    (ka, da), (kb, db) = a_key, b_key
    if ka != kb:
        return None
    sign, blade = _BLADE_TABLE[(tuple(da), tuple(db))]
    return sign, (ka, blade)


def clifford_mul(
    A: InhomogeneousForm, B: InhomogeneousForm
) -> InhomogeneousForm:
    """Bilinear, sitewise extension of the basis blade product.

    Each blade slice of a part of A meets each of a part of B over the two
    parts' common box; parts whose boxes do not meet add nothing.
    """
    pieces = []
    for a, b in itertools.product(A.parts, B.parts):
        box = _overlap(a, b)
        if box:
            lo, av, bv = box
            for (sa, da), (sb, db) in itertools.product(a.live(), b.live()):
                sign, blade = _BLADE_TABLE[(da, db)]
                pieces.append((blade, sign, lo, av[sa], bv[sb]))
    return _assemble(pieces)


def _blade_pieces(A, blade, left: bool, scalar) -> list:
    """The :func:`_assemble` pieces of every stored blade slice of ``A``
    multiplied by ``blade`` on the left (or right) and by ``scalar``."""
    blade = normalize_dirs(blade)
    pieces = []
    for p in _parts(A):
        p = p if scalar == 1 else scalar * p
        for s, d in p.live():
            sign, nb = _BLADE_TABLE[(blade, d) if left else (d, blade)]
            pieces.append((nb, sign, p.origin, p.data[s]))
    return pieces


def blade_lmul(blade, A, scalar=1):
    """Left-multiply by the implicit unit form of ``blade`` (all sites)."""
    return _assemble(_blade_pieces(A, blade, True, scalar))


def blade_rmul(A, blade, scalar=1):
    """Right-multiply by the implicit unit form of ``blade`` (all sites)."""
    return _assemble(_blade_pieces(A, blade, False, scalar))


def unit_form(dirs, win: Window) -> InhomogeneousForm:
    """Unit form for a basis pattern: coefficient 1 on every window site."""
    d = normalize_dirs(dirs)
    return _assemble([(d, 1, (1, 1, 1, 1), np.ones(win.n, complex))])


def grade_project(A: InhomogeneousForm, r: int) -> DiscreteForm:
    """The degree-r part of an inhomogeneous form."""
    return A.part(r)
