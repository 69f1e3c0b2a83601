"""Discrete plane waves and the solution families of the Joyce equation.

The eight scalar waves are products of per-axis factors (1+ip)^k or
(1-ip)^(-k); each is an exact eigenfunction of the forward difference on
its "plus" axes and of the backward difference on its "minus" axes.  The
even wave form combines them with constant amplitudes, one scalar wave per
even blade.

Each four-parameter family is one sign s, +1 ("plus") or -1 ("minus"): its
waves sit on the even blades e_L with e_0 e_L = s e_L e_0, its denominator is
q = m - s p0, wave L's amplitude pattern is q e_L + s sum_j p_j e_0j e_L, and
its constraint map is left multiplication by s sum_j p_j e_0j / q.

The amplitude-level system is derived from the blade table and checked
against the Joyce operator itself.  The printed source carries one sign
error there (the alpha4 coefficient of its second equation must be +p3);
its transcription, with that correction, is kept in ``tests/helpers.py``
as an oracle that the derived system must equal exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from .complex4 import _BLADE_TABLE, AXES, GRADE_BLADES, MultiIndex
from .forms import MAX_LOAD_SITES, DiscreteForm, InhomogeneousForm, Window, \
    _ALONG, _accumulate, _assemble, _stencil
from .clifford import _blade_term, blade_product
from .dirac_joyce import ResidualReport, _dirac_terms, _require_even, \
    check_mass, joyce_residual_form

Momentum = Tuple[float, float, float, float]

WAVE_LABELS = ("0", "01", "02", "03", "12", "13", "23", "4")

#: blade attached to each wave label in the even wave form: the even blades
#: in grade order.  Its axes are the wave's minus axes, those carrying a
#: (1-ip)^(-k) factor
LABEL_BLADES = dict(zip(WAVE_LABELS, GRADE_BLADES[0] + GRADE_BLADES[2]
                        + GRADE_BLADES[4]))

DEGENERATE_TOL = 1e-9
DISPERSION_TOL = 1e-9
WAVE_ROOM = 64.0


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


def dispersion_scale(p: Momentum, m: float) -> float:
    """max(p0^2, m^2, 1): the gap is judged relative to its largest terms."""
    return max(p[0] ** 2, m * m, 1.0)


def largest_wave_modulus(p: Momentum, win: Window) -> float:
    """Largest scalar-wave modulus on ``win`` (inf if it overflows): as
    |1 +- i p| = sqrt(1 + p^2), psi_0's at the far corner."""
    try:
        return math.prod((1 + x * x) ** (n / 2) for x, n in zip(p, win.n))
    except OverflowError:
        return math.inf


def wave_component(label: str, k: MultiIndex, p: Momentum) -> complex:
    """Value of one scalar wave at a lattice point."""
    minus = LABEL_BLADES[label]
    out = 1 + 0j
    for mu in AXES:
        if mu in minus:
            out *= (1 - 1j * p[mu]) ** (-k[mu])
        else:
            out *= (1 + 1j * p[mu]) ** (k[mu])
    return out


def psi_form(label: str, p: Momentum, win: Window) -> DiscreteForm:
    """The scalar wave as a 0-form on a window: the outer product of the
    four axis power vectors."""
    minus = LABEL_BLADES[label]
    axis_pows = []
    for mu in AXES:
        base = (1 - 1j * p[mu]) ** -1 if mu in minus else (1 + 1j * p[mu])
        pows = [1 + 0j]
        for _ in range(win.n[mu]):
            pows.append(pows[-1] * base)
        axis_pows.append(np.array(pows[1:]))
    a0, a1, a2, a3 = axis_pows
    vals = (a0[:, None, None, None] * a1[None, :, None, None]
            * a2[None, None, :, None] * a3)
    return _accumulate(0, [((), 1, (1, 1, 1, 1), vals)])


def eigen_difference_check(label: str, p: Momentum, win: Window) -> float:
    """Max interior deviation of the difference-eigenvalue identities.

    Backward differences on the wave's minus axes and forward differences
    on the others must both act as multiplication by i p_mu.
    """
    psi = psi_form(label, p, win)
    minus = LABEL_BLADES[label]
    return float(np.max([ResidualReport.from_form(_stencil(
        (psi, _ALONG[mu], 1 if mu in minus else -1),
        _blade_term(psi, (), True, -1j * p[mu])), win).interior_max
        for mu in AXES]))


def build_phi(A: EvenAmplitudes, p: Momentum, win: Window) -> InhomogeneousForm:
    """Even wave form: each amplitude times its scalar wave on its blade."""
    return _assemble([
        (LABEL_BLADES[label], 1, (1, 1, 1, 1),
         alpha * psi_form(label, p, win).data[0])
        for label, alpha in zip(WAVE_LABELS, A.as_vector()) if alpha != 0])


def eigen_relation_residual(Phi: InhomogeneousForm, p: Momentum,
                            win: Window) -> float:
    """Interior max-norm of (d + delta)Phi - i (sum_mu p_mu e_mu) Phi."""
    return ResidualReport.from_form(_stencil(*_dirac_terms(Phi), *(
        _blade_term(Phi, (mu,), True, -1j * p[mu])
        for mu in AXES if p[mu] != 0)), win).interior_max


# ---------------------------------------------------------------------------
# amplitude-level algebraic system

#: odd blade whose component equation each row of the system reads
SYSTEM_ROW_BLADES = ((0,), (0, 1, 2), (0, 1, 3), (0, 2, 3),
                     (1,), (2,), (3,), (1, 2, 3))


def amplitude_matrix(p: Momentum, m: float) -> np.ndarray:
    """8x8 matrix of the amplitude system, derived through the blade table.

    Expands (sum_mu p_mu e_mu) A + m A e_0 over the even blades (columns in
    wave-label order) and reads off the odd-blade components, one row per
    blade of ``SYSTEM_ROW_BLADES``.
    """
    check_mass(m)
    row_of = {blade: r for r, blade in enumerate(SYSTEM_ROW_BLADES)}
    M = np.zeros((8, 8), dtype=complex)
    for c, label in enumerate(WAVE_LABELS):
        blade = LABEL_BLADES[label]
        for mu in AXES:
            sign, nb = blade_product((mu,), blade)
            M[row_of[nb], c] += p[mu] * sign
        sign, nb = blade_product(blade, (0,))
        M[row_of[nb], c] += m * sign
    return M


def derive_amplitude_matrix(p: Momentum, m: float) -> np.ndarray:
    """Oracle: the same system read off the Joyce operator.

    The eigen relation turns i(d + delta) into -(sum_mu p_mu e_mu), so
    column L is minus the Joyce residual of the one wave psi_L e_L at the
    centre of a 3^4 window, divided by psi_L there.
    """
    win, k = Window((3, 3, 3, 3)), (2, 2, 2, 2)
    M = np.zeros((8, 8), dtype=complex)
    for c, label in enumerate(WAVE_LABELS):
        Phi = build_phi(EvenAmplitudes(**{f"alpha{label}": 1}), p, win)
        R = joyce_residual_form(Phi, m)
        psi = Phi.get((k, LABEL_BLADES[label]))
        M[:, c] = [-R.get((k, blade)) / psi for blade in SYSTEM_ROW_BLADES]
    return M


def algebraic_system_residual(A: EvenAmplitudes, p: Momentum,
                              m: float) -> np.ndarray:
    """The eight amplitude-equation residuals (wave factors divided out;
    equivalently, the system evaluated at the origin where every wave is 1)."""
    return amplitude_matrix(p, m) @ A.as_vector()


# ---------------------------------------------------------------------------
# the two wave families, derived from the blade table: family s has the
# waves on the blades with e_0 e_L = s e_L e_0, q = m - s p0, the patterns
# q e_L + s sum_j p_j e_0j e_L, and the constraint map s sum_j p_j e_0j / q

#: the sign s of each family
FAMILY_SIGN = {"plus": 1, "minus": -1}

#: wave labels of each family, in amplitude order: e_0 e_L = s e_L e_0
FAMILY_LABELS = {
    which: tuple(label for label in WAVE_LABELS
                 if _BLADE_TABLE[((0,), LABEL_BLADES[label])][0]
                 == s * _BLADE_TABLE[(LABEL_BLADES[label], (0,))][0])
    for which, s in FAMILY_SIGN.items()}


def _denominator(which: str, p: Momentum, m: float) -> float:
    """The family's q = m - s p0, kept away from zero relative to m, |p0|."""
    check_mass(m)
    q = m - FAMILY_SIGN[which] * p[0]
    if abs(q) <= DEGENERATE_TOL * max(m, abs(p[0])):
        raise DegenerateDenominator(
            f"m - s p0 vanishes for the {which} family; use the mirror family")
    return q


def _family_terms(which: str, p: Momentum, m: float):
    """Yield each wave's label and amplitude pattern [(blade, coefficient)]."""
    s = FAMILY_SIGN[which]
    for label in FAMILY_LABELS[which]:
        combo = [(LABEL_BLADES[label], m - s * p[0])]
        for j in (1, 2, 3):
            sign, blade = _BLADE_TABLE[((0, j), LABEL_BLADES[label])]
            combo.append((blade, s * sign * p[j]))
        yield label, combo


def split_even(Phi: InhomogeneousForm):
    """Split an even form into the parts commuting / anticommuting with e_0."""
    _require_even(Phi)
    pieces = [(d, 1, part.origin, part.data[s])
              for part in Phi.parts[::2] for s, d in part.live()]
    halves = ({LABEL_BLADES[label] for label in labels}
              for labels in FAMILY_LABELS.values())
    return tuple(_assemble([x for x in pieces if x[0] in blades])
                 for blades in halves)


def _constraint(which: str, Phi: InhomogeneousForm, p: Momentum,
                m: float) -> InhomogeneousForm:
    q = _denominator(which, p, m)
    return _stencil(*(_blade_term(Phi, (0, j), True,
                                  FAMILY_SIGN[which] * p[j] / q)
                      for j in (1, 2, 3) if p[j] != 0))


def constraint_minus_from_plus(PhiPlus: InhomogeneousForm, p: Momentum,
                               m: float) -> InhomogeneousForm:
    """Anticommuting part implied by the commuting part:
    (p1 e01 + p2 e02 + p3 e03) / (m - p0) applied on the left."""
    return _constraint("plus", PhiPlus, p, m)


def constraint_plus_from_minus(PhiMinus: InhomogeneousForm, p: Momentum,
                               m: float) -> InhomogeneousForm:
    """Commuting part implied by the anticommuting part:
    -(p1 e01 + p2 e02 + p3 e03) / (m + p0) applied on the left."""
    return _constraint("minus", PhiMinus, p, m)


def _family(which: str, coeffs, p: Momentum, m: float, win: Window,
            check_dispersion: bool) -> InhomogeneousForm:
    """Coefficient c_L times the wave psi_L on each blade of its pattern."""
    _denominator(which, p, m)
    gap = dispersion_gap(p, m)
    if check_dispersion and abs(gap) / dispersion_scale(p, m) > DISPERSION_TOL:
        raise DispersionViolated(f"dispersion gap {gap:g} exceeds tolerance")
    pieces = []
    for c, (label, combo) in zip(coeffs, _family_terms(which, p, m)):
        if c == 0:
            continue
        psi = psi_form(label, p, win).data[0]
        pieces += [(blade, 1, (1, 1, 1, 1), c * coef * psi)
                   for blade, coef in combo if coef != 0]
    return _assemble(pieces)


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
    return _family("plus", a, p, m, win, check_dispersion)


def family_minus(b: Sequence[complex], p: Momentum, m: float, win: Window,
                 check_dispersion: bool = True) -> InhomogeneousForm:
    """Four-parameter family built on the waves {psi01, psi02, psi03, psi4}.

    Exact solution of the discrete Joyce equation iff p1 = p2 = p3 = 0;
    at nonzero spatial momentum the interior residual is the lattice term
    sum_L b_L psi_L(k) S_L described in :func:`family_plus`.
    """
    return _family("minus", b, p, m, win, check_dispersion)


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

    def __post_init__(self):
        """The one value check of a wave, however the spec is made: m > 0
        with m^2 a normal float (p0 is solved from it), p0..p3 finite, four
        int window extents over at most ``MAX_LOAD_SITES`` sites, a known
        family, and waves that fit: the largest wave modulus on the window
        times s^2, s = max(1, m, |p_mu|), times max(1, |alpha|) times
        ``WAVE_ROOM`` must be finite.  s^2 is room for the pattern
        coefficients (of size s) and the products the checks form,
        ``WAVE_ROOM`` for the sums and for the amplitudes the CLI draws when
        none are given (|alpha| < 13)."""
        p, m, window = self.p, self.m, self.window
        if len(p) != 4 or not all(map(_finite_number, (m,) + tuple(p))):
            raise ValueError(f"m and the four p0..p3 must be finite numbers, "
                             f"got m={m!r}, p={p!r}")
        check_mass(m)
        if m * m < sys.float_info.min:
            raise ValueError(f"mass {m!r} is too small: its square underflows")
        if (sites := math.prod(Window(window).n)) > MAX_LOAD_SITES:
            raise ValueError(f"window has {sites} sites > {MAX_LOAD_SITES}")
        try:
            alpha = max(1.0, *map(abs, astuple(self.amplitudes)))
        except OverflowError:
            alpha = math.inf
        s = max(1.0, m, *map(abs, p))
        if not math.isfinite(largest_wave_modulus(p, Window(window))
                             * s * s * alpha * WAVE_ROOM):
            raise ValueError(f"waves at p = {list(p)} with max(1, |alpha|) = "
                             f"{alpha:g} overflow the window {list(window)}")
        if self.family not in ("plus", "minus", "explicit"):
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "PlaneWaveSpec":
        """Parse a spec.  ``p`` is four components, or ``{"spatial": [...],
        "branch": "+"|"-"}`` with p0 solved for the mass ``m``; an optional
        ``p["mass"]`` must equal ``m``.  The constructor checks the values."""
        try:
            m, p = data["m"], data["p"]
            if isinstance(p, dict):
                mass = p.get("mass", m)
                if not _finite_number(mass) or mass != m:
                    raise ValueError(f"p mass {mass!r} is not m {m!r}")
                spatial = tuple(p["spatial"])
                p = (solve_p0(spatial, m, p["branch"]),) + spatial
            amplitudes = EvenAmplitudes.from_json(data.get("amplitudes", {}))
            return cls(tuple(p), m, amplitudes, tuple(data["window"]),
                       data.get("family", "explicit"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid plane-wave spec: {exc}") from exc

    def build(self) -> InhomogeneousForm:
        win = Window(self.window)
        if self.family == "explicit":
            return build_phi(self.amplitudes, self.p, win)
        # the four coefficients ride on the family's wave labels
        a = dict(zip(WAVE_LABELS, self.amplitudes.as_vector()))
        coeffs = [a[label] for label in FAMILY_LABELS[self.family]]
        build = family_plus if self.family == "plus" else family_minus
        return build(coeffs, self.p, self.m, win)
