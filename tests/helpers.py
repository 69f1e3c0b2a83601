"""Shared test helpers: seeded random forms over both scalar types, the
closed-form Joyce residual of the plane-wave families, the transcribed
amplitude system and family patterns, and the one-coefficient-at-a-time
oracles of the box paths: the row-by-row record loader, the dict chains and
the dict table systems, and the one-case-at-a-time loops of the identity
checks that run their cases in batches."""

import itertools
import math

import numpy as np

from dkjoyce import (
    ALL_BLADES,
    Chain,
    DiscreteForm,
    GaussianRational,
    InhomogeneousForm,
    Window,
    blade_product,
    boundary,
    clifford_mul,
    coboundary,
    codifferential,
    cup,
    decomposition,
    dirac_kahler_apply,
    dk_system_residual,
    forms,
    hodge_star,
    inner_product,
    joyce_residual_form,
    joyce_system_residual,
    pair,
    star_d_star,
    unit_form,
)
from dkjoyce import cli
from dkjoyce.cli import _random_forms
from dkjoyce.complex4 import AXES, tau_all
from dkjoyce.dirac_joyce import (DK_SYSTEM, JOYCE_RHS, JOYCE_TARGETS,
                                 _require_even, check_mass)
from dkjoyce.forms import _form, _rows, _scatter
from dkjoyce.planewave import (
    LABEL_BLADES,
    WAVE_LABELS,
    family_amplitude_matrix,
)
from dkjoyce.serialize import FIELDS, SchemaError

AXIS_SETS = {
    r: list(itertools.combinations(AXES, r)) for r in range(5)
}


def rand_complex(rng):
    return complex(rng.integers(-9, 10), rng.integers(-9, 10))


def rand_gaussian(rng):
    return GaussianRational(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))


def random_form(rng, degree, win: Window, scalar=rand_complex, density=1.0):
    coeffs = {}
    for k in win.sites():
        for dirs in AXIS_SETS[degree]:
            if density >= 1.0 or rng.random() < density:
                coeffs[(k, dirs)] = scalar(rng)
    return DiscreteForm(degree, coeffs)


def sparse_form(rng, degree, win: Window, nnz, scalar=rand_complex):
    sites = list(win.sites())
    coeffs = {}
    for _ in range(nnz):
        k = sites[rng.integers(len(sites))]
        dirs = AXIS_SETS[degree][rng.integers(len(AXIS_SETS[degree]))]
        coeffs[(k, dirs)] = scalar(rng)
    return DiscreteForm(degree, coeffs)


def random_inhomogeneous(rng, win: Window, scalar=rand_complex):
    return InhomogeneousForm(
        [random_form(rng, r, win, scalar) for r in range(5)]
    )


def random_even(rng, win: Window, scalar=rand_complex):
    parts = [DiscreteForm.zero(r) for r in range(5)]
    for r in (0, 2, 4):
        parts[r] = random_form(rng, r, win, scalar)
    return InhomogeneousForm(parts)


def margin_form(rng, degree, win: Window, scalar=rand_complex):
    """Random form supported with a one-cell margin inside the window."""
    coeffs = {}
    for k in itertools.product(*(range(2, n) for n in win.n)):
        for dirs in AXIS_SETS[degree]:
            coeffs[(k, dirs)] = scalar(rng)
    return DiscreteForm(degree, coeffs)


def rng_for(seed):
    return np.random.default_rng(seed)


def is_interior(win: Window, k) -> bool:
    """Whether site ``k`` keeps a one-cell margin from every face of
    ``win``: 2 <= k_mu <= n_mu - 1."""
    return all(2 <= k[mu] <= win.n[mu] - 1 for mu in AXES)


# the index shifts along one axis: tau one step up, sigma one step down

def tau_shift(k, mu):
    return k[:mu] + (k[mu] + 1,) + k[mu + 1:]


def sigma_shift(k, mu):
    return k[:mu] + (k[mu] - 1,) + k[mu + 1:]


# ---------------------------------------------------------------------------
# the amplitude system as transcribed from the source: the oracle of
# planewave.amplitude_matrix, which derives it from the blade table

# entries are (column label, coefficient builder), one row per equation.
# The second row carries the corrected +p3 alpha4 term: the printed source
# has the opposite sign there, and re-derivation through the Clifford
# product gives +p3.
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


def _coef(token, p, m):
    sign = -1.0 if token.startswith("-") else 1.0
    token = token.lstrip("-")
    if token == "P+":
        return sign * (p[0] + m)
    if token == "P-":
        return sign * (p[0] - m)
    return sign * p[int(token[1])]


def transcribed_amplitude_matrix(p, m):
    """8x8 matrix of the transcribed (corrected) system: rows in
    ``SYSTEM_ROW_BLADES`` order, columns in wave-label order."""
    check_mass(m)
    col = {label: i for i, label in enumerate(WAVE_LABELS)}
    M = np.zeros((8, 8), dtype=complex)
    for r, row in enumerate(_SYSTEM_ROWS):
        for label, token in row:
            M[r, col[label]] += _coef(token, p, m)
    return M


# ---------------------------------------------------------------------------
# closed-form Joyce residual of the wave families

#: wave label carried by each column of ``family_amplitude_matrix``
FAMILY_LABELS = {"plus": ("0", "12", "13", "23"),
                 "minus": ("01", "02", "03", "4")}


# The family amplitude patterns as transcribed from the source, one
# (label, ((blade, coefficient), ...)) per wave: the oracle of the patterns
# that planewave derives from the family sign and the blade table.

def family_plus_terms(p, m):
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


def family_minus_terms(p, m):
    q = m + p[0]
    return (
        ("01", (((0, 1), q), ((), -p[1]), ((1, 2), -p[2]), ((1, 3), -p[3]))),
        ("02", (((0, 2), q), ((), -p[2]), ((1, 2), p[1]), ((2, 3), -p[3]))),
        ("03", (((0, 3), q), ((), -p[3]), ((1, 3), p[1]), ((2, 3), p[2]))),
        ("4", (((0, 1, 2, 3), q), ((1, 2), -p[3]), ((1, 3), p[2]),
               ((2, 3), -p[1]))),
    )


def transcribed_family_matrix(which, p, m):
    """8x4 matrix of the transcribed patterns, rows in amplitude order."""
    terms = {"plus": family_plus_terms, "minus": family_minus_terms}[which]
    rows = ((), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2, 3))
    M = np.zeros((8, 4), dtype=complex)
    for j, (label, combo) in enumerate(terms(p, m)):
        assert label == FAMILY_LABELS[which][j]
        for blade, coef in combo:
            M[rows.index(blade), j] += coef
    return M


def axis_factors(label, p):
    """Per-axis (z, 1/z) of the wave psi_label(k) = prod_mu z_mu^k_mu.

    z = 1 + i p on the label's plus axes and (1 - i p)^-1 on its minus axes;
    the forward difference multiplies the wave by z - 1, the backward
    difference by 1 - 1/z.
    """
    out = []
    for mu in AXES:
        if mu in LABEL_BLADES[label]:
            out.append((1 / (1 - 1j * p[mu]), 1 - 1j * p[mu]))
        else:
            out.append((1 + 1j * p[mu], 1 / (1 + 1j * p[mu])))
    return out


def family_symbols(which, p, m):
    """Sitewise Joyce symbol S_L of each family column, as {blade: value}.

    Column L puts the one wave psi_L on each blade B of its pattern, so
    i(d + delta)Phi - m Phi e_0 of that column is psi_L(k) S_L at every
    interior site: d adds e_mu with the forward eigenvalue of axis mu, delta
    removes it with the backward one, and blade_product supplies the signs,
    as in ``amplitude_matrix``.  S_L vanishes when every eigenvalue
    met is i p_mu; on a blade that is not psi_L's own a difference against
    the wave's direction (backward on a plus axis, forward on a minus axis)
    gives i p/(1 +- i p) instead, so S_L is zero iff the spatial momentum is.
    """
    patterns = family_amplitude_matrix(which, p, m)
    blades = [LABEL_BLADES[label] for label in WAVE_LABELS]
    symbols = []
    for label, column in zip(FAMILY_LABELS[which], patterns.T):
        z = axis_factors(label, p)
        S = {}
        for blade, coef in zip(blades, column):
            for mu in AXES:
                sign, nb = blade_product((mu,), blade)
                eig = 1 - z[mu][1] if mu in blade else z[mu][0] - 1
                S[nb] = S.get(nb, 0) + 1j * eig * sign * coef
            sign, nb = blade_product(blade, (0,))
            S[nb] = S.get(nb, 0) - m * sign * coef
        symbols.append(S)
    return symbols


def family_residual_oracle(which, coeffs, p, m, win: Window):
    """Expected Joyce residual form of ``family_<which>(coeffs, p, m, win)``
    on the window's sites: sum_L coeffs_L psi_L(k) S_L.  Only its interior
    sites are meaningful; the fringe of the real residual also carries the
    truncation of the zero extension."""
    out = {}
    for c, label, S in zip(coeffs, FAMILY_LABELS[which],
                           family_symbols(which, p, m)):
        z = axis_factors(label, p)
        for k in win.sites():
            psi = c
            for mu in AXES:
                psi *= z[mu][0] ** k[mu]
            for blade, s in S.items():
                out[(k, blade)] = out.get((k, blade), 0) + psi * s
    return InhomogeneousForm.from_coeffs(out)


# ---------------------------------------------------------------------------
# row-by-row record loader: the oracle of serialize.records_to_form

def _validate_record(rec, i: int):
    if not isinstance(rec, dict):
        raise SchemaError(f"record {i}: expected an object, "
                          f"got {type(rec).__name__}")
    for field in FIELDS:
        if field not in rec:
            raise SchemaError(f"record {i}: missing field {field!r}")
    unknown = set(rec) - set(FIELDS)
    if unknown:
        raise SchemaError(f"record {i}: unknown fields {sorted(unknown)}")
    degree, dirs, k = rec["degree"], rec["dirs"], rec["k"]
    if not isinstance(degree, int) or isinstance(degree, bool) \
            or degree not in range(5):
        raise SchemaError(f"record {i}: degree must be an integer 0..4")
    if (not isinstance(dirs, list)
            or any(not isinstance(mu, int) or isinstance(mu, bool)
                   or mu not in AXES for mu in dirs)
            or len(set(dirs)) != len(dirs) or sorted(dirs) != dirs):
        raise SchemaError(
            f"record {i}: dirs must be a sorted list of distinct axes 0..3"
        )
    if len(dirs) != degree:
        raise SchemaError(f"record {i}: len(dirs) != degree")
    if not isinstance(k, list) or len(k) != 4 \
            or any(not isinstance(x, int) or isinstance(x, bool) for x in k):
        raise SchemaError(f"record {i}: k must be a list of four integers")
    for field in ("re", "im"):
        v = rec[field]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"record {i}: {field} must be a number")
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise SchemaError(f"record {i}: {field} must be a finite number")


def records_to_form_rowwise(records) -> InhomogeneousForm:
    """What ``records_to_form`` computes, one record at a time: validate
    each record, reject a repeated key, then build each degree's box."""
    if not isinstance(records, list):
        raise SchemaError("top level: expected a list of records")
    coeffs: dict = {}
    for i, rec in enumerate(records):
        _validate_record(rec, i)
        key = (tuple(rec["k"]), tuple(rec["dirs"]))
        if key in coeffs:
            raise SchemaError(f"record {i}: duplicate key {key}")
        coeffs[key] = complex(rec["re"], rec["im"])
    parts = []
    for r, (slots, sites, values) in enumerate(_rows(coeffs)):
        try:
            parts.append(_form(r, *_scatter(r, slots, sites, values,
                                            "records")))
        except ValueError as exc:  # outside the 64-bit range or the bound
            raise SchemaError(str(exc)) from exc
    return InhomogeneousForm(parts)


# ---------------------------------------------------------------------------
# coefficient-dict chains: the oracle of complex4.Chain, boundary and pair

class DictChain:
    """A chain stored as ``terms[(k, dirs)] -> coefficient``; exact-zero
    coefficients are dropped on construction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c != 0}


def dict_boundary(a: DictChain) -> DictChain:
    """The boundary, one coefficient at a time: the factor at axis mu
    contributes with sign (-1)**(its position in dirs)."""
    out: dict = {}
    for (k, dirs), c in a.terms.items():
        for i, mu in enumerate(dirs):
            sign = -c if i % 2 else c
            nd = tuple(nu for nu in dirs if nu != mu)
            up = (tau_shift(k, mu), nd)
            dn = (k, nd)
            out[up] = out.get(up, 0) + sign
            out[dn] = out.get(dn, 0) - sign
    return DictChain(out)


def dict_pair(a: DictChain, w):
    """The chain-cochain pairing, one coefficient at a time."""
    total = 0
    for key, c in a.terms.items():
        cw = w.get(key, None)
        if cw is not None:
            total = total + c * cw
    return total


# ---------------------------------------------------------------------------
# coefficient-dict table systems: the oracle of dirac_joyce's table path

def _reads(targets) -> dict:
    """Per source component, the (target, sign, kind, axis) of every term of
    ``targets`` that reads it, in table order."""
    reads: dict = {}
    for target in targets:
        for sign, kind, mu, src in DK_SYSTEM[target]:
            reads.setdefault(src, []).append((target, sign, kind, mu))
    return reads


def push_diffs_dict(O, targets) -> dict:
    """Per (k, target), the sum of sign * Delta^kind_mu (source component)
    over the DK_SYSTEM terms of ``targets``; each coefficient is walked
    once."""
    reads = _reads(targets)
    out: dict = {}
    for (k, d), c in O.items():
        for target, sign, kind, mu in reads.get(d, ()):
            s = c if sign > 0 else -c
            if kind == "+":
                lo = (sigma_shift(k, mu), target)
                out[lo] = out.get(lo, 0) + s
                out[(k, target)] = out.get((k, target), 0) - s
            else:
                out[(k, target)] = out.get((k, target), 0) + s
                hi = (tau_shift(k, mu), target)
                out[hi] = out.get(hi, 0) - s
    return out


def dk_system_residual_dict(O, m):
    """What ``dk_system_residual`` computes, through a coefficient dict."""
    check_mass(m)
    lhs = 1j * InhomogeneousForm.from_coeffs(push_diffs_dict(O, DK_SYSTEM))
    return lhs - m * O


def joyce_system_residual_dict(Oev, m):
    """What ``joyce_system_residual`` computes, through coefficient dicts."""
    check_mass(m)
    _require_even(Oev)
    rhs_reads = {src: (sign, target)
                 for target, (sign, src) in JOYCE_RHS.items()}
    rhs = {(k, rhs_reads[d][1]): c if rhs_reads[d][0] > 0 else -c
           for (k, d), c in Oev.items() if d in rhs_reads}
    lhs = 1j * InhomogeneousForm.from_coeffs(
        push_diffs_dict(Oev, JOYCE_TARGETS))
    return lhs - m * InhomogeneousForm.from_coeffs(rhs)


# ---------------------------------------------------------------------------
# the identity checks that run their cases in batches, one case at a time:
# per batch, the list of its cases' own gaps

def _per_impulse(residual, blades):
    """One batch: the gap of ``residual`` on the unit impulse on each blade
    of ``blades``, at the site (0, 0, 0, 0)."""
    return [residual(DiscreteForm.basis((0, 0, 0, 0), b)).max_norm()
            for b in blades]


def _per_lifted_impulse(residual, degrees=range(5)):
    """Per degree, a batch of impulses, each as an inhomogeneous form."""
    for degree in degrees:
        yield _per_impulse(
            lambda w: residual(InhomogeneousForm.from_form(w)),
            AXIS_SETS[degree])


def nilpotency_d_per_case(cfg, rng):
    for degree in range(4):
        yield _per_impulse(lambda w: coboundary(coboundary(w)),
                           AXIS_SETS[degree])


def nilpotency_delta_per_case(cfg, rng):
    for degree in range(1, 5):
        yield _per_impulse(lambda w: codifferential(codifferential(w)),
                           AXIS_SETS[degree])


def _batch_sizes(cases, win):
    """The check's batches of ``cases`` random cases on ``win``: one while
    they fit in the join budget, else one per case.  The budget is read at
    call time, so that a test can change it here and in the checks at
    once."""
    joined = cases * math.prod(win.n) <= cli.JOIN_SITES
    return (cases,) if joined else (1,) * cases


def pairing_duality_per_case(cfg, rng):
    # each case drawn alone, as five draws of one case each
    win = Window(cfg.window)
    for degree in range(1, 5):
        for size in _batch_sizes(5, win):
            batch = []
            for _ in range(size):
                c, w = _random_forms(rng, (degree, degree - 1), win)
                a = Chain.from_form(InhomogeneousForm.from_form(c))
                batch.append(abs(pair(boundary(a), w)
                                 - pair(a, coboundary(w))))
            yield batch


def adjointness_per_case(cfg, rng):
    outer = Window(cfg.window)
    inner = Window(tuple(x - 2 for x in cfg.window))
    for degree in range(4):
        for size in _batch_sizes(5, inner):
            batch = []
            for _ in range(size):
                u, v = _random_forms(rng, (degree, degree + 1), inner,
                                     (2, 2, 2, 2))
                lhs = inner_product(coboundary(u), v, outer)
                rhs = inner_product(u, codifferential(v), outer)
                batch.append(abs(lhs - rhs))
            yield batch


def leibniz_per_case(cfg, rng):
    # the graded rule on U and V drawn as the check draws them, summed by
    # degree from the 15 homogeneous (r, q) residuals of degree-r and
    # degree-q cups
    win = Window(cfg.window)
    for size in _batch_sizes(3, win):
        batch = []
        for _ in range(size):
            w = _random_forms(rng, (*range(5), *range(5)), win)
            u, v = w[:5], w[5:]
            parts = [DiscreteForm.zero(r) for r in range(5)]
            for r in range(5):
                for q in range(5 - r):
                    lhs = coboundary(cup(u[r], v[q]))
                    rhs = cup(coboundary(u[r]), v[q]) \
                        + (-1) ** r * cup(u[r], coboundary(v[q]))
                    parts[lhs.degree] += lhs - rhs
            batch.append(InhomogeneousForm(parts).max_norm())
        yield batch


# the inverse star is read from the module at call time, so that a test can
# swap it here and in the checks at once
def star_inverse_per_case(cfg, rng):
    for degree in range(5):
        yield _per_impulse(
            lambda w: forms.hodge_star_inverse(hodge_star(w)) - w,
            AXIS_SETS[degree])


def codifferential_star_per_case(cfg, rng):
    for degree in range(1, 5):
        yield _per_impulse(lambda w: codifferential(w) - (-1) ** degree
                           * forms.hodge_star_inverse(
                               coboundary(hodge_star(w))), AXIS_SETS[degree])


def star_d_star_shift_per_case(cfg, rng):
    def residual(w):
        want = codifferential(w)
        return star_d_star(w) - _form(want.degree, tau_all(want.origin),
                                      want.data)
    for degree in range(1, 5):
        yield _per_impulse(residual, AXIS_SETS[degree])


def clifford_unit_per_case(cfg, rng):
    x = unit_form((), Window((3, 3, 3, 3)))
    for left in (True, False):
        yield [(clifford_mul(*((x, A) if left else (A, x))) - A).max_norm()
               for A in (InhomogeneousForm.from_form(
                   DiscreteForm.basis((2, 2, 2, 2), b)) for b in ALL_BLADES)]


def decomposition_per_case(cfg, rng):
    return _per_lifted_impulse(lambda O: decomposition(O) - (
        coboundary(O) + codifferential(O)))


def dk_system_per_case(cfg, rng):
    return _per_lifted_impulse(lambda O: dk_system_residual(O, cfg.mass) - (
        dirac_kahler_apply(O) - cfg.mass * O))


def joyce_system_per_case(cfg, rng):
    return _per_lifted_impulse(lambda O: joyce_system_residual(O, cfg.mass)
                              - joyce_residual_form(O, cfg.mass), (0, 2, 4))


#: per check that runs its cases in batches, its one-case-at-a-time loop
PER_CASE_CHECKS = {
    "sec2-nilpotency-d": nilpotency_d_per_case,
    "sec2-nilpotency-delta": nilpotency_delta_per_case,
    "eq2.6-pairing-duality": pairing_duality_per_case,
    "eq2.15-leibniz": leibniz_per_case,
    "sec2-star-inverse": star_inverse_per_case,
    "eq2.26-codifferential-star": codifferential_star_per_case,
    "sec2-star-d-star-shift": star_d_star_shift_per_case,
    "eq2.25-adjointness": adjointness_per_case,
    "sec3-clifford-unit": clifford_unit_per_case,
    "eq3.6-decomposition": decomposition_per_case,
    "eq3.3-dk-system-consistency": dk_system_per_case,
    "eq3.9-joyce-system-consistency": joyce_system_per_case,
}
