"""Clifford multiplication on discrete forms.

Each lattice site carries a copy of the spacetime algebra: direction sets
act as basis blades with e_mu e_nu + e_nu e_mu = 2 g_munu, g = diag(1,-1,-1,-1),
and ordered products concatenating into higher blades.  Basis elements at
distinct sites multiply to zero, so products are computed sitewise.

Unit forms (coefficient 1 on every site of a window) turn the blade algebra
into the algebra of inhomogeneous forms used by the Dirac-Kahler and Joyce
operators; for operator pipelines the helpers :func:`blade_lmul` and
:func:`blade_rmul` apply an implicit infinite-support unit blade instead,
avoiding window truncation.

The blade products come from the one table in :mod:`dkjoyce.complex4`;
:data:`ALL_BLADES` and :func:`blade_product` are re-exported from there.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .complex4 import _BLADE_TABLE, ALL_BLADES, normalize_dirs
from .complex4 import blade_product  # noqa: F401  (re-exported)
from .forms import DiscreteForm, InhomogeneousForm, Window


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
    """Bilinear, sitewise extension of the basis blade product."""
    by_site: dict = {}
    for (k, db), cb in B.items():
        by_site.setdefault(k, []).append((db, cb))
    out: dict = {}
    for (k, da), ca in A.items():
        factors = by_site.get(k)
        if not factors:
            continue
        for db, cb in factors:
            sign, blade = _BLADE_TABLE[(da, db)]
            prod = ca * cb
            if sign < 0:
                prod = -prod
            key = (k, blade)
            out[key] = out.get(key, 0) + prod
    return InhomogeneousForm.from_coeffs(out)


def _blade_mul(A, row: dict, scalar) -> InhomogeneousForm:
    """Apply ``d -> row[d]`` (sign, image blade) to every stored coefficient."""
    out: dict = {}
    for (k, d), c in A.items():
        sign, nb = row[d]
        prod = scalar * c
        if sign < 0:
            prod = -prod
        key = (k, nb)
        out[key] = out.get(key, 0) + prod
    return InhomogeneousForm.from_coeffs(out)


def blade_lmul(blade, A, scalar=1):
    """Left-multiply by the implicit unit form of ``blade`` (all sites)."""
    blade = normalize_dirs(blade)
    return _blade_mul(A, {d: _BLADE_TABLE[(blade, d)] for d in ALL_BLADES},
                      scalar)


def blade_rmul(A, blade, scalar=1):
    """Right-multiply by the implicit unit form of ``blade`` (all sites)."""
    blade = normalize_dirs(blade)
    return _blade_mul(A, {d: _BLADE_TABLE[(d, blade)] for d in ALL_BLADES},
                      scalar)


def unit_form(dirs, win: Window) -> InhomogeneousForm:
    """Unit form for a basis pattern: coefficient 1 on every window site."""
    d = normalize_dirs(dirs)
    coeffs = {(k, d): 1 for k in win.sites()}
    return InhomogeneousForm.from_form(DiscreteForm(len(d), coeffs))


def grade_project(A: InhomogeneousForm, r: int) -> DiscreteForm:
    """The degree-r part of an inhomogeneous form."""
    return A.part(r)
