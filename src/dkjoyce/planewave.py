"""Discrete plane waves and the solution families of the Joyce equation.

The eight scalar waves are products of per-axis factors (1+ip)^k or
(1-ip)^(-k); each is an exact eigenfunction of the forward difference on
its "plus" axes and of the backward difference on its "minus" axes.  The
even wave form combines them with constant amplitudes, one scalar wave per
even blade.

The amplitude-level system is evaluated with one correction to the printed
source: the alpha4 coefficient in the second equation carries +p3, as
re-derivation through the Clifford product shows (see
:func:`derive_amplitude_matrix`, which tests use as the authoritative
oracle for the transcribed system).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

from .complex4 import AXES, MultiIndex
from .forms import DiscreteForm, InhomogeneousForm, Window, backward_diff, \
    coboundary, codifferential, forward_diff
from .clifford import blade_lmul, blade_product
from .dirac_joyce import ResidualReport, check_mass

Momentum = Tuple[float, float, float, float]

WAVE_LABELS = ("0", "01", "02", "03", "12", "13", "23", "4")

#: blade attached to each wave label in the even wave form
LABEL_BLADES: Dict[str, Tuple[int, ...]] = {
    "0": (),
    "01": (0, 1), "02": (0, 2), "03": (0, 3),
    "12": (1, 2), "13": (1, 3), "23": (2, 3),
    "4": (0, 1, 2, 3),
}

#: axes carrying a (1-ip)^(-k) factor, per wave label: a wave's minus axes
#: are exactly the axes of its own blade
MINUS_AXES = LABEL_BLADES

DEGENERATE_TOL = 1e-9
DISPERSION_TOL = 1e-9


class DegenerateDenominator(ZeroDivisionError):
    """m -+ p0 too close to zero; the mirror family covers this branch."""


class DispersionViolated(ValueError):
    """Momentum does not satisfy the energy-momentum relation."""


@dataclass(frozen=True)
class EvenAmplitudes:
    """Constant amplitudes of the even wave form, one per even blade."""

    alpha0: complex = 0
    alpha01: complex = 0
    alpha02: complex = 0
    alpha03: complex = 0
    alpha12: complex = 0
    alpha13: complex = 0
    alpha23: complex = 0
    alpha4: complex = 0

    def as_vector(self) -> np.ndarray:
        return np.array(astuple(self), dtype=complex)

    @classmethod
    def from_vector(cls, v: Sequence[complex]) -> "EvenAmplitudes":
        return cls(*[complex(x) for x in v])

    @classmethod
    def from_json(cls, data) -> "EvenAmplitudes":
        """Parse a JSON object of amplitudes, e.g. ``{"alpha0": [1, 0]}``.

        Each value is a finite number or an ``[re, im]`` pair of finite
        numbers; absent names are zero and unknown names are rejected.
        """
        if not isinstance(data, dict):
            raise ValueError("amplitudes must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown amplitude keys {sorted(unknown)}")
        vals = {}
        for name, v in data.items():
            pair = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0)
            if not all(map(_finite_number, pair)):
                raise ValueError(
                    f"amplitude {name} must be a finite number or [re, im] pair"
                )
            vals[name] = complex(*pair)
        return cls(**vals)


def _finite_number(x) -> bool:
    """True for an int or float (not a bool) with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def solve_p0(spatial: Sequence[float], m: float, branch: str) -> float:
    """Energy component on the chosen branch of the dispersion relation."""
    check_mass(m)
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    p0 = math.sqrt(m * m + sum(x * x for x in spatial))
    return p0 if branch == "+" else -p0


def dispersion_gap(p: Momentum, m: float) -> float:
    """p0^2 - m^2 - p1^2 - p2^2 - p3^2; zero iff dispersion holds."""
    check_mass(m)
    return p[0] ** 2 - m * m - p[1] ** 2 - p[2] ** 2 - p[3] ** 2


def wave_component(label: str, k: MultiIndex, p: Momentum) -> complex:
    """Value of one scalar wave at a lattice point."""
    minus = MINUS_AXES[label]
    out = 1 + 0j
    for mu in AXES:
        if mu in minus:
            out *= (1 - 1j * p[mu]) ** (-k[mu])
        else:
            out *= (1 + 1j * p[mu]) ** (k[mu])
    return out


def psi_form(label: str, p: Momentum, win: Window) -> DiscreteForm:
    """The scalar wave as a 0-form on a window, with cached axis powers."""
    minus = MINUS_AXES[label]
    axis_pows = []
    for mu in AXES:
        base = (1 - 1j * p[mu]) ** -1 if mu in minus else (1 + 1j * p[mu])
        pows = [1 + 0j]
        for _ in range(win.n[mu]):
            pows.append(pows[-1] * base)
        axis_pows.append(pows)
    coeffs = {}
    for k in win.sites():
        val = (axis_pows[0][k[0]] * axis_pows[1][k[1]]
               * axis_pows[2][k[2]] * axis_pows[3][k[3]])
        coeffs[(k, ())] = val
    return DiscreteForm(0, coeffs)


def eigen_difference_check(label: str, p: Momentum, win: Window) -> float:
    """Max interior deviation of the difference-eigenvalue identities.

    Backward differences on the wave's minus axes and forward differences
    on the others must both act as multiplication by i p_mu.
    """
    psi = psi_form(label, p, win)
    minus = MINUS_AXES[label]
    worst = 0.0
    for mu in AXES:
        diff = backward_diff(psi, mu) if mu in minus else forward_diff(psi, mu)
        delta = diff - (1j * p[mu]) * psi
        worst = max(worst, ResidualReport.from_form(delta, win).interior_max)
    return worst


def build_phi(A: EvenAmplitudes, p: Momentum, win: Window) -> InhomogeneousForm:
    """Even wave form: each amplitude times its scalar wave on its blade."""
    coeffs: dict = {}
    vec = A.as_vector()
    for label, alpha in zip(WAVE_LABELS, vec):
        if alpha == 0:
            continue
        blade = LABEL_BLADES[label]
        for (k, _d), val in psi_form(label, p, win).items():
            key = (k, blade)
            coeffs[key] = coeffs.get(key, 0) + alpha * val
    return InhomogeneousForm.from_coeffs(coeffs)


def eigen_relation_residual(Phi: InhomogeneousForm, p: Momentum,
                            win: Window) -> float:
    """Interior max-norm of (d + delta)Phi - i (sum_mu p_mu e_mu) Phi."""
    lhs = coboundary(Phi) + codifferential(Phi)
    rhs = InhomogeneousForm.zero()
    for mu in AXES:
        if p[mu] != 0:
            rhs = rhs + blade_lmul((mu,), Phi, 1j * p[mu])
    return ResidualReport.from_form(lhs - rhs, win).interior_max


# ---------------------------------------------------------------------------
# amplitude-level algebraic system

#: amplitude order for matrix rows/columns
AMPLITUDE_ORDER = WAVE_LABELS

# transcribed rows of the eight amplitude equations; entries are
# (column label, coefficient builder).  Second row carries the corrected
# +p3 alpha4 term (the printed source has the opposite sign there).
_SYSTEM_ROWS = (
    (("0", "P+"), ("01", "p1"), ("02", "p2"), ("03", "p3")),
    (("12", "P+"), ("02", "-p1"), ("01", "p2"), ("4", "p3")),
    (("13", "P+"), ("03", "-p1"), ("4", "-p2"), ("01", "p3")),
    (("23", "P+"), ("4", "p1"), ("03", "-p2"), ("02", "p3")),
    (("01", "P-"), ("0", "p1"), ("12", "p2"), ("13", "p3")),
    (("02", "P-"), ("12", "-p1"), ("0", "p2"), ("23", "p3")),
    (("03", "P-"), ("13", "-p1"), ("23", "-p2"), ("0", "p3")),
    (("4", "P-"), ("23", "p1"), ("13", "-p2"), ("12", "p3")),
)

#: odd blade whose component equation each transcribed row restates
#: (row in the derived matrix equals minus the transcribed row)
SYSTEM_ROW_BLADES = ((0,), (0, 1, 2), (0, 1, 3), (0, 2, 3),
                     (1,), (2,), (3,), (1, 2, 3))


def _coef(token: str, p: Momentum, m: float) -> float:
    sign = -1.0 if token.startswith("-") else 1.0
    token = token.lstrip("-")
    if token == "P+":
        return sign * (p[0] + m)
    if token == "P-":
        return sign * (p[0] - m)
    return sign * p[int(token[1])]


def amplitude_matrix(p: Momentum, m: float) -> np.ndarray:
    """8x8 matrix of the amplitude system (transcribed, corrected)."""
    check_mass(m)
    col = {label: i for i, label in enumerate(AMPLITUDE_ORDER)}
    M = np.zeros((8, 8), dtype=complex)
    for r, row in enumerate(_SYSTEM_ROWS):
        for label, token in row:
            M[r, col[label]] += _coef(token, p, m)
    return M


def derive_amplitude_matrix(p: Momentum, m: float) -> np.ndarray:
    """Oracle: the same system re-derived through the Clifford product.

    Expands -(sum_mu p_mu e_mu) A - m A e_0 over the even blades at one
    site and reads off the odd-blade component rows, reordered and negated
    to line up with :func:`amplitude_matrix`.
    """
    check_mass(m)
    row_of = {blade: r for r, blade in enumerate(SYSTEM_ROW_BLADES)}
    M = np.zeros((8, 8), dtype=complex)
    for c, label in enumerate(AMPLITUDE_ORDER):
        blade = LABEL_BLADES[label]
        for mu in AXES:
            sign, nb = blade_product((mu,), blade)
            M[row_of[nb], c] += p[mu] * sign
        sign, nb = blade_product(blade, (0,))
        M[row_of[nb], c] += m * sign
    return M


def algebraic_system_residual(A: EvenAmplitudes, p: Momentum,
                              m: float) -> np.ndarray:
    """The eight amplitude-equation residuals (wave factors divided out;
    equivalently, the system evaluated at the origin where every wave is 1)."""
    return amplitude_matrix(p, m) @ A.as_vector()


# ---------------------------------------------------------------------------
# commutation split and constraint maps

_PLUS_BLADES = ((), (1, 2), (1, 3), (2, 3))
_MINUS_BLADES = ((0, 1), (0, 2), (0, 3), (0, 1, 2, 3))


def split_even(Phi: InhomogeneousForm):
    """Split an even form into the parts commuting / anticommuting with e_0."""
    plus: dict = {}
    minus: dict = {}
    for (k, d), c in Phi.items():
        if d in _PLUS_BLADES:
            plus[(k, d)] = c
        elif d in _MINUS_BLADES:
            minus[(k, d)] = c
        else:
            raise ValueError(f"odd blade {d!r} in an even form")
    return (InhomogeneousForm.from_coeffs(plus),
            InhomogeneousForm.from_coeffs(minus))


def _spatial_bivector_mul(Phi: InhomogeneousForm, p: Momentum,
                          denom: float) -> InhomogeneousForm:
    out = InhomogeneousForm.zero()
    for j in (1, 2, 3):
        if p[j] != 0:
            out = out + blade_lmul((0, j), Phi, p[j] / denom)
    return out


def constraint_minus_from_plus(PhiPlus: InhomogeneousForm, p: Momentum,
                               m: float) -> InhomogeneousForm:
    """Anticommuting part implied by the commuting part:
    (p1 e01 + p2 e02 + p3 e03) / (m - p0) applied on the left."""
    check_mass(m)
    if abs(m - p[0]) <= DEGENERATE_TOL:
        raise DegenerateDenominator(
            "m - p0 vanishes; use the mirror constraint from the minus part"
        )
    return _spatial_bivector_mul(PhiPlus, p, m - p[0])


def constraint_plus_from_minus(PhiMinus: InhomogeneousForm, p: Momentum,
                               m: float) -> InhomogeneousForm:
    """Commuting part implied by the anticommuting part:
    -(p1 e01 + p2 e02 + p3 e03) / (m + p0) applied on the left."""
    check_mass(m)
    if abs(m + p[0]) <= DEGENERATE_TOL:
        raise DegenerateDenominator(
            "m + p0 vanishes; use the mirror constraint from the plus part"
        )
    return _spatial_bivector_mul(PhiMinus, p, -(m + p[0]))


# ---------------------------------------------------------------------------
# solution families

def _check_family_pre(p: Momentum, m: float, denom: float,
                      check_dispersion: bool):
    check_mass(m)
    if abs(denom) <= DEGENERATE_TOL:
        raise DegenerateDenominator(
            "family denominator vanishes; the mirror family covers this branch"
        )
    if check_dispersion and abs(dispersion_gap(p, m)) > DISPERSION_TOL:
        raise DispersionViolated(
            f"dispersion gap {dispersion_gap(p, m):g} exceeds tolerance"
        )


def _build_family(coeffs, terms, p: Momentum, win: Window) -> InhomogeneousForm:
    out: dict = {}
    for c, (label, combo) in zip(coeffs, terms):
        if c == 0:
            continue
        psi = psi_form(label, p, win)
        for blade, coef in combo:
            if coef == 0:
                continue
            for (k, _d), val in psi.items():
                key = (k, blade)
                out[key] = out.get(key, 0) + c * coef * val
    return InhomogeneousForm.from_coeffs(out)


def _family_plus_terms(p: Momentum, m: float):
    # Third pattern: the printed source shows +p2 on the volume blade, but
    # its own expansion of the constraint map (and the Clifford reduction
    # e_02 e_13 = -e) gives -p2; only the corrected sign solves the
    # amplitude system.
    q = m - p[0]
    return (
        ("0", (((), q), ((0, 1), p[1]), ((0, 2), p[2]), ((0, 3), p[3]))),
        ("12", (((1, 2), q), ((0, 1), p[2]), ((0, 2), -p[1]),
                ((0, 1, 2, 3), p[3]))),
        ("13", (((1, 3), q), ((0, 1), p[3]), ((0, 3), -p[1]),
                ((0, 1, 2, 3), -p[2]))),
        ("23", (((2, 3), q), ((0, 2), p[3]), ((0, 3), -p[2]),
                ((0, 1, 2, 3), p[1]))),
    )


def _family_minus_terms(p: Momentum, m: float):
    q = m + p[0]
    return (
        ("01", (((0, 1), q), ((), -p[1]), ((1, 2), -p[2]), ((1, 3), -p[3]))),
        ("02", (((0, 2), q), ((), -p[2]), ((1, 2), p[1]), ((2, 3), -p[3]))),
        ("03", (((0, 3), q), ((), -p[3]), ((1, 3), p[1]), ((2, 3), p[2]))),
        ("4", (((0, 1, 2, 3), q), ((1, 2), -p[3]), ((1, 3), p[2]),
               ((2, 3), -p[1]))),
    )


def family_plus(a: Sequence[complex], p: Momentum, m: float, win: Window,
                check_dispersion: bool = True) -> InhomogeneousForm:
    """Four-parameter family built on the waves {psi0, psi12, psi13, psi23}.

    Coefficient a_L multiplies the one wave psi_L on every blade of its
    amplitude pattern, not only on psi_L's own blade.  The patterns solve
    the amplitude system, but on a blade that is not psi_L's own a difference
    runs against the wave's direction on some axis (backward on a plus axis,
    forward on a minus axis) and multiplies psi_L by i p/(1 +- i p) instead
    of i p.  So the form solves the discrete Joyce equation exactly iff
    p1 = p2 = p3 = 0; otherwise its interior residual is
    sum_L a_L psi_L(k) S_L with a constant symbol S_L per wave.  Example: at
    p = (p0, p1, 0, 0) on the dispersion relation, the e_0 component of the
    residual for a = (1, 0, 0, 0) is psi0(k) i p1^3 / (1 + i p1).
    """
    _check_family_pre(p, m, m - p[0], check_dispersion)
    return _build_family(a, _family_plus_terms(p, m), p, win)


def family_minus(b: Sequence[complex], p: Momentum, m: float, win: Window,
                 check_dispersion: bool = True) -> InhomogeneousForm:
    """Four-parameter family built on the waves {psi01, psi02, psi03, psi4}.

    Exact solution of the discrete Joyce equation iff p1 = p2 = p3 = 0;
    at nonzero spatial momentum the interior residual is the lattice term
    sum_L b_L psi_L(k) S_L described in :func:`family_plus`.
    """
    _check_family_pre(p, m, m + p[0], check_dispersion)
    return _build_family(b, _family_minus_terms(p, m), p, win)


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Everything needed to build a wave form: momentum (explicit or solved
    from a spatial part and branch), mass, amplitudes, window, and which
    construction to use ("plus"/"minus" family coefficients, or "explicit"
    blade amplitudes)."""

    p: Momentum
    m: float
    amplitudes: EvenAmplitudes
    window: Tuple[int, int, int, int]
    family: str = "explicit"

    @classmethod
    def from_dict(cls, data: dict) -> "PlaneWaveSpec":
        """Parse a spec.  ``p`` is four components, or ``{"spatial": [...],
        "branch": "+"|"-"}`` with p0 solved for the mass ``m``; an optional
        ``p["mass"]`` must equal ``m``."""
        try:
            m = float(data["m"])
            raw_p = data["p"]
            if isinstance(raw_p, dict):
                if "mass" in raw_p and float(raw_p["mass"]) != m:
                    raise ValueError(
                        f"p mass {raw_p['mass']!r} differs from m {m!r}"
                    )
                spatial = tuple(float(x) for x in raw_p["spatial"])
                p = (solve_p0(spatial, m, raw_p["branch"]),) + spatial
            else:
                p = tuple(float(x) for x in raw_p)
            if len(p) != 4:
                raise ValueError("p needs four components")
            if not all(map(math.isfinite, (m,) + p)):
                raise ValueError("m and p must be finite")
            amplitudes = EvenAmplitudes.from_json(data.get("amplitudes", {}))
            window = tuple(int(x) for x in data["window"])
            if len(window) != 4:
                raise ValueError("window needs four extents")
            family = data.get("family", "explicit")
            if family not in ("plus", "minus", "explicit"):
                raise ValueError(f"unknown family {family!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid plane-wave spec: {exc}") from exc
        return cls(p, m, amplitudes, window, family)

    def build(self) -> InhomogeneousForm:
        win = Window(self.window)
        if self.family == "explicit":
            return build_phi(self.amplitudes, self.p, win)
        a = self.amplitudes.as_vector()
        if self.family == "plus":
            # the four coefficients ride on the plus-family wave labels
            coeffs = (a[0], a[4], a[5], a[6])
            return family_plus(coeffs, self.p, self.m, win)
        coeffs = (a[1], a[2], a[3], a[7])
        return family_minus(coeffs, self.p, self.m, win)


def family_amplitude_matrix(which: str, p: Momentum, m: float) -> np.ndarray:
    """8x4 matrix taking family coefficients to blade amplitudes.

    Built from the amplitude patterns alone (the shared wave factor of each
    column divided out); used for rank and amplitude-equivalence checks.
    """
    terms = {"plus": _family_plus_terms, "minus": _family_minus_terms}[which](p, m)
    row = {LABEL_BLADES[lab]: i for i, lab in enumerate(AMPLITUDE_ORDER)}
    M = np.zeros((8, 4), dtype=complex)
    for j, (_label, combo) in enumerate(terms):
        for blade, coef in combo:
            M[row[blade], j] += coef
    return M
