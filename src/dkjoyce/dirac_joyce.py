"""Discrete Dirac-Kahler and Joyce equations as residual computations.

Two independent evaluation paths are kept deliberately:

* the operator pipeline i(d + delta) built from :mod:`dkjoyce.forms`, and
* hard-coded per-site difference systems (16 equations for the full
  Dirac-Kahler equation, 8 for the Joyce equation on even forms),
  transcribed once and cross-validated against the pipeline in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .complex4 import AXES, sigma_shift, tau_shift
from .forms import (
    DiscreteForm,
    InhomogeneousForm,
    Window,
    backward_diff,
    coboundary,
    codifferential,
    forward_diff,
)
from .clifford import blade_lmul, blade_rmul, grade_project
from .serialize import form_to_records


class NotEven(ValueError):
    """Odd-grade content where an even form is required."""


def check_mass(m: float) -> float:
    if not m > 0:
        raise ValueError(f"mass parameter must be positive, got {m}")
    return m


@dataclass
class ResidualReport:
    """Norms of a residual form, split by grade and by window position.

    Residual-zero guarantees only apply on interior sites (one-cell margin
    from every window face); fringe sites pick up truncation terms from the
    zero extension outside the window.  ``per_site`` holds the residual's
    coefficient records in the :func:`dkjoyce.serialize.form_to_records`
    schema.
    """

    grade_max: List[float]
    grade_l2: List[float]
    interior_max: float
    fringe_max: float
    per_site: Optional[list] = field(default=None)

    @classmethod
    def from_form(cls, R: InhomogeneousForm, win: Window,
                  per_site: bool = False) -> "ResidualReport":
        gmax = [0.0] * 5
        gl2 = [0.0] * 5
        interior = 0.0
        fringe = 0.0
        for (k, dirs), c in R.items():
            a = abs(c)
            r = len(dirs)
            gmax[r] = max(gmax[r], a)
            gl2[r] += a * a
            if win.is_interior(k):
                interior = max(interior, a)
            else:
                fringe = max(fringe, a)
        table = form_to_records(R) if per_site else None
        return cls([*gmax], [math.sqrt(x) for x in gl2], interior, fringe, table)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.grade_max)

    def to_dict(self) -> dict:
        out = {
            "grade_norms": [
                {"degree": r, "max": self.grade_max[r], "l2": self.grade_l2[r]}
                for r in range(5)
            ],
            "interior_max": self.interior_max,
            "fringe_max": self.fringe_max,
        }
        if self.per_site is not None:
            out["per_site"] = self.per_site
        return out


# ---------------------------------------------------------------------------
# operator pipeline

def dirac_kahler_apply(O: InhomogeneousForm) -> InhomogeneousForm:
    """The first-order operator i(d + delta)."""
    return 1j * (coboundary(O) + codifferential(O))


def decomposition(O: InhomogeneousForm) -> InhomogeneousForm:
    """Clifford-difference expression for (d + delta).

    Grade-projects sums of unit 1-forms times forward differences (raising)
    and backward differences (lowering), gradewise.  Contract: equals
    coboundary(O) + codifferential(O).
    """
    parts = [DiscreteForm.zero(r) for r in range(5)]
    for r in range(5):
        w = O.part(r)
        if w.is_zero():
            continue
        up = InhomogeneousForm.zero()
        down = InhomogeneousForm.zero()
        for mu in AXES:
            fwd = InhomogeneousForm.from_form(forward_diff(w, mu))
            up = up + blade_lmul((mu,), fwd)
            bwd = InhomogeneousForm.from_form(backward_diff(w, mu))
            down = down + blade_lmul((mu,), bwd)
        if r <= 3:
            parts[r + 1] = parts[r + 1] + grade_project(up, r + 1)
        if r >= 1:
            parts[r - 1] = parts[r - 1] + grade_project(down, r - 1)
    return InhomogeneousForm(parts)


def _require_even(O: InhomogeneousForm, tol: float = 1e-12):
    odd = max(O.part(1).max_norm(), O.part(3).max_norm())
    if odd > tol:
        raise NotEven(f"odd-grade max-norm {odd} exceeds tolerance {tol}")


def joyce_apply_rhs(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Right-hand side of the Joyce equation: m * (Oev right-multiplied by e_0)."""
    check_mass(m)
    _require_even(Oev)
    return blade_rmul(Oev, (0,), m)


def dk_residual(O: InhomogeneousForm, m: float, win: Window,
                per_site: bool = False) -> ResidualReport:
    """Residual of the Dirac-Kahler equation: i(d + delta)O - m O."""
    check_mass(m)
    R = dirac_kahler_apply(O) - m * O
    return ResidualReport.from_form(R, win, per_site=per_site)


def joyce_residual_form(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """The raw Joyce residual form i(d + delta)Oev - m Oev e_0 (linear in Oev)."""
    rhs = joyce_apply_rhs(Oev, m)
    return dirac_kahler_apply(Oev) - rhs


def joyce_residual(Oev: InhomogeneousForm, m: float, win: Window,
                   per_site: bool = False) -> ResidualReport:
    """Residual of the Joyce equation: i(d + delta)Oev - m Oev e_0.

    Odd grades of the left side enter the residual; they must vanish for a
    solution.
    """
    return ResidualReport.from_form(joyce_residual_form(Oev, m), win,
                                    per_site=per_site)


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
JOYCE_TARGETS = ((0,), (1,), (2,), (3,), (0, 1, 2), (0, 1, 3), (0, 2, 3),
                 (1, 2, 3))
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


def _push_diff(out: dict, target, sign: int, kind: str, mu: int, src_form,
               src):
    """Accumulate sign * Delta^kind_mu (source component) into out[target]."""
    for (k, d), c in src_form.items():
        if d != src:
            continue
        s = c if sign > 0 else -c
        if kind == "+":
            lo = (sigma_shift(k, mu), target)
            out[lo] = out.get(lo, 0) + s
            out[(k, target)] = out.get((k, target), 0) - s
        else:
            out[(k, target)] = out.get((k, target), 0) + s
            hi = (tau_shift(k, mu), target)
            out[hi] = out.get(hi, 0) - s


def dk_system_residual(O: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Residual of the 16 per-site difference equations (table path)."""
    check_mass(m)
    out: dict = {}
    for target, terms in DK_SYSTEM.items():
        for sign, kind, mu, src in terms:
            _push_diff(out, target, sign, kind, mu, O.part(len(src)), src)
    lhs = 1j * InhomogeneousForm.from_coeffs(out)
    return lhs - m * O


def joyce_system_residual(Oev: InhomogeneousForm, m: float) -> InhomogeneousForm:
    """Residual of the 8 per-site difference equations (table path)."""
    check_mass(m)
    _require_even(Oev)
    out: dict = {}
    rhs: dict = {}
    for target in JOYCE_TARGETS:
        for sign, kind, mu, src in DK_SYSTEM[target]:
            _push_diff(out, target, sign, kind, mu, Oev.part(len(src)), src)
        rsign, rsrc = JOYCE_RHS[target]
        for (k, _d), c in Oev.part(len(rsrc)).items():
            if _d != rsrc:
                continue
            s = c if rsign > 0 else -c
            key = (k, target)
            rhs[key] = rhs.get(key, 0) + s
    lhs = 1j * InhomogeneousForm.from_coeffs(out)
    return lhs - m * InhomogeneousForm.from_coeffs(rhs)
