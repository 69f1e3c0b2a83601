"""Discrete Dirac-Kahler and Joyce equations as residual computations.

Two independent evaluation paths are kept deliberately:

* the operator route: :func:`decomposition`'s route tables of sum_mu e_mu
  Delta+-_mu, each residual one stencil of them and its sitewise mass
  table (coboundary + codifferential is the eq3.6 reference), and
* hard-coded per-site difference systems (16 equations for the full
  Dirac-Kahler equation, 8 for the Joyce equation on even forms),
  transcribed once and cross-validated against the operator in tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import List

import numpy as np

from .forms import InhomogeneousForm, Window, _parts, _routes, _stencil
from .clifford import _blade_term, blade_rmul


class NotEven(ValueError):
    """Odd-grade content where an even form is required."""


def check_mass(m: float) -> float:
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m}")
    return m


@dataclass
class ResidualReport:
    """Norms of a residual form, split by grade and by window position.

    Residual-zero guarantees only apply on interior sites (one-cell margin
    from every window face); fringe sites pick up truncation terms from the
    zero extension outside the window.  Each maximum is 0.0 over no
    coefficients and NaN if a coefficient it covers is NaN.
    """

    grade_max: List[float]
    interior_max: float
    fringe_max: float

    @classmethod
    def from_form(cls, R, win: Window) -> "ResidualReport":
        gmax = [0.0] * 5
        interior, fringe = [], []
        for part in _parts(R):
            a = np.abs(part.data).astype(float)
            gmax[part.degree] = float(a.max(initial=0.0))
            site = a.max(axis=0, initial=0.0)
            # interior sites 2 <= k_mu <= n_mu - 1, as box indices
            inner = tuple(slice(max(2 - o, 0), max(n - o, 0))
                          for o, n in zip(part.origin, win.n))
            interior.append(site[inner].max(initial=0.0))
            site[inner] = 0.0
            fringe.append(site.max(initial=0.0))
        return cls(gmax, float(np.max(interior, initial=0.0)),
                   float(np.max(fringe, initial=0.0)))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.grade_max)

    def to_dict(self) -> dict:
        return {
            "grade_norms": [
                {"degree": r, "max": self.grade_max[r]}
                for r in range(5)
            ],
            "interior_max": self.interior_max,
            "fringe_max": self.fringe_max,
        }


# ---------------------------------------------------------------------------
# operator pipeline

def _dirac_terms(O: InhomogeneousForm) -> tuple:
    """The :func:`_stencil` terms of (d + delta)O as the Clifford-difference
    sum: over every grade and axis mu, e_mu times the forward difference
    along mu, keeping the grade-raising products, and e_mu times the backward
    difference, keeping the grade-lowering ones, the routes read from the
    blade table when called."""
    return (O, _routes(True), -1), (O, _routes(False), 1)


def decomposition(O: InhomogeneousForm) -> InhomogeneousForm:
    """Clifford-difference expression for (d + delta), summed once; equals
    coboundary(O) + codifferential(O)."""
    return _stencil(*_dirac_terms(O))


def dirac_kahler_apply(O: InhomogeneousForm) -> InhomogeneousForm:
    """The first-order operator i(d + delta)."""
    return decomposition(1j * O)


def _require_even(O: InhomogeneousForm):
    """Raise :class:`NotEven` on the first odd blade holding a nonzero value
    (a NaN counts as nonzero)."""
    for part in O.parts[1::2]:
        for s, d in part.live():
            if (part.data[s] != 0).any():
                raise NotEven(f"odd blade {d!r} in an even form")


def joyce_apply_rhs(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Right-hand side of the Joyce equation: m * (Oev right-multiplied by e_0)."""
    check_mass(m)
    _require_even(Oev)
    return blade_rmul(Oev, (0,), m)


def dk_residual(O: InhomogeneousForm, m: float, win: Window) -> ResidualReport:
    """Residual of the Dirac-Kahler equation: i(d + delta)O - m O."""
    check_mass(m)
    return ResidualReport.from_form(_stencil(
        *_dirac_terms(1j * O), _blade_term(O, (), True, -m)), win)


def joyce_residual_form(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """The raw Joyce residual form i(d + delta)Oev - m Oev e_0 (linear in Oev)."""
    check_mass(m)
    _require_even(Oev)
    return _stencil(*_dirac_terms(1j * Oev), _blade_term(Oev, (0,), False, -m))


def joyce_residual(Oev: InhomogeneousForm, m: float,
                   win: Window) -> ResidualReport:
    """Residual of the Joyce equation: i(d + delta)Oev - m Oev e_0.

    Odd grades of the left side enter the residual; they must vanish for a
    solution.
    """
    return ResidualReport.from_form(joyce_residual_form(Oev, m), win)


# ---------------------------------------------------------------------------
# per-site difference systems (transcribed sign tables)

# Each row: target component -> [(sign, diff kind, axis, source component)];
# the equation reads i * sum(sign * Delta^kind_axis source) = m * <rhs>.
DK_SYSTEM = {
    (): [(+1, "-", 0, (0,)), (-1, "-", 1, (1,)),
         (-1, "-", 2, (2,)), (-1, "-", 3, (3,))],
    (0,): [(+1, "+", 0, ()), (+1, "-", 1, (0, 1)),
           (+1, "-", 2, (0, 2)), (+1, "-", 3, (0, 3))],
    (1,): [(+1, "+", 1, ()), (+1, "-", 0, (0, 1)),
           (+1, "-", 2, (1, 2)), (+1, "-", 3, (1, 3))],
    (2,): [(+1, "+", 2, ()), (+1, "-", 0, (0, 2)),
           (-1, "-", 1, (1, 2)), (+1, "-", 3, (2, 3))],
    (3,): [(+1, "+", 3, ()), (+1, "-", 0, (0, 3)),
           (-1, "-", 1, (1, 3)), (-1, "-", 2, (2, 3))],
    (0, 1): [(+1, "+", 0, (1,)), (-1, "+", 1, (0,)),
             (-1, "-", 2, (0, 1, 2)), (-1, "-", 3, (0, 1, 3))],
    (0, 2): [(+1, "+", 0, (2,)), (-1, "+", 2, (0,)),
             (+1, "-", 1, (0, 1, 2)), (-1, "-", 3, (0, 2, 3))],
    (0, 3): [(+1, "+", 0, (3,)), (-1, "+", 3, (0,)),
             (+1, "-", 1, (0, 1, 3)), (+1, "-", 2, (0, 2, 3))],
    (1, 2): [(+1, "+", 1, (2,)), (-1, "+", 2, (1,)),
             (+1, "-", 0, (0, 1, 2)), (-1, "-", 3, (1, 2, 3))],
    (1, 3): [(+1, "+", 1, (3,)), (-1, "+", 3, (1,)),
             (+1, "-", 0, (0, 1, 3)), (+1, "-", 2, (1, 2, 3))],
    (2, 3): [(+1, "+", 2, (3,)), (-1, "+", 3, (2,)),
             (+1, "-", 0, (0, 2, 3)), (-1, "-", 1, (1, 2, 3))],
    (0, 1, 2): [(+1, "+", 0, (1, 2)), (-1, "+", 1, (0, 2)),
                (+1, "+", 2, (0, 1)), (+1, "-", 3, (0, 1, 2, 3))],
    (0, 1, 3): [(+1, "+", 0, (1, 3)), (-1, "+", 1, (0, 3)),
                (+1, "+", 3, (0, 1)), (-1, "-", 2, (0, 1, 2, 3))],
    (0, 2, 3): [(+1, "+", 0, (2, 3)), (-1, "+", 2, (0, 3)),
                (+1, "+", 3, (0, 2)), (+1, "-", 1, (0, 1, 2, 3))],
    (1, 2, 3): [(+1, "+", 1, (2, 3)), (-1, "+", 2, (1, 3)),
                (+1, "+", 3, (1, 2)), (+1, "-", 0, (0, 1, 2, 3))],
    (0, 1, 2, 3): [(+1, "+", 0, (1, 2, 3)), (-1, "+", 1, (0, 2, 3)),
                   (+1, "+", 2, (0, 1, 3)), (-1, "+", 3, (0, 1, 2))],
}

# Joyce system: odd target components only; LHS rows coincide with the
# matching DK_SYSTEM rows, the RHS couples to (sign, even source component).
JOYCE_RHS = {
    (0,): (+1, ()),
    (1,): (-1, (0, 1)),
    (2,): (-1, (0, 2)),
    (3,): (-1, (0, 3)),
    (0, 1, 2): (+1, (1, 2)),
    (0, 1, 3): (+1, (1, 3)),
    (0, 2, 3): (+1, (2, 3)),
    (1, 2, 3): (-1, (0, 1, 2, 3)),
}
JOYCE_TARGETS = tuple(JOYCE_RHS)


def _table_terms(O: InhomogeneousForm, targets) -> list:
    """The :func:`_stencil` terms of sign * Delta^kind_mu (source component)
    over the ``DK_SYSTEM`` rows of ``targets``, per part of ``O`` and kind."""
    routes = {"+": defaultdict(list), "-": defaultdict(list)}
    for target in targets:
        for sign, kind, mu, src in DK_SYSTEM[target]:
            routes[kind][src].append((mu, sign, target))
    return [(w, routes[kind], -1 if kind == "+" else 1)
            for w in O.parts for kind in "+-"]


def dk_system_residual(O: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Residual of the 16 per-site difference equations (table path)."""
    check_mass(m)
    return _stencil(*_table_terms(1j * O, DK_SYSTEM),
                    _blade_term(O, (), True, -m))


def joyce_system_residual(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Residual of the 8 per-site difference equations (table path)."""
    check_mass(m)
    _require_even(Oev)
    return _stencil(*_table_terms(1j * Oev, JOYCE_TARGETS), (m * Oev, {
        src: [(None, -sign, target)]
        for target, (sign, src) in JOYCE_RHS.items()}, 0))
