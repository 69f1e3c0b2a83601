"""Command-line verification harness.

``dkjoyce run`` executes one of three suites and writes a report:

* ``identities`` — operator identities (nilpotency, duality, Leibniz, star
  algebra, codifferential consistency, Clifford relations, decomposition,
  component-system consistency) on unit impulses or seeded random forms;
* ``planewave`` — eigen relation, amplitude-system nullity, and family
  residuals for one momentum/mass configuration;
* ``dispersion-scan`` — a table of interior residuals over a spatial
  momentum grid, both energy branches;
* ``all`` — everything above.

Check names carry stable equation tags (e.g. ``eq2.25-adjointness``) so
failures map directly to the written identities.  Reports are deterministic
for a fixed seed: JSON output contains no timestamps or runtimes.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
configuration or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .complex4 import (AXES, GRADE_BLADES, METRIC, Chain, boundary, pair,
                       tau_all)
from .forms import (
    DiscreteForm,
    InhomogeneousForm,
    Window,
    _assemble,
    _form,
    _nonzero_sites,
    coboundary,
    codifferential,
    cup,
    hodge_star,
    hodge_star_inverse,
    inner_product,
    star_d_star,
)
from .clifford import ALL_BLADES, clifford_mul, unit_form
from .dirac_joyce import (
    decomposition,
    dirac_kahler_apply,
    dk_system_residual,
    joyce_residual,
    joyce_system_residual,
    joyce_residual_form,
)
from .planewave import (
    DegenerateDenominator,
    DispersionViolated,
    EvenAmplitudes,
    PlaneWaveSpec,
    amplitude_matrix,
    build_phi,
    derive_amplitude_matrix,
    dispersion_gap,
    dispersion_scale,
    eigen_relation_residual,
    family_minus,
    family_plus,
    solve_p0,
)
DEFAULT_TOL = 1e-10
SUITES = ("identities", "planewave", "dispersion-scan", "all")
#: most sites of three Leibniz cases side by side, above which one at a time
LEIBNIZ_SITES = 4096


class ConfigInvalid(ValueError):
    """Suite configuration violates a precondition."""


@dataclass
class SuiteConfig:
    """Validated run configuration for :func:`run_suite`."""

    suite: str
    window: Tuple[int, int, int, int] = (4, 4, 4, 4)
    seed: int = 0
    mass: float = 1.0
    p: Optional[Tuple[float, float, float, float]] = None
    spatial: Optional[Tuple[float, float, float]] = None
    branch: str = "+"
    amplitudes: Optional[EvenAmplitudes] = None
    tol: float = DEFAULT_TOL
    perturb: bool = False
    grid: Tuple[float, ...] = (0.0, 0.5)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigInvalid(f"unknown suite {self.suite!r}")
        self.window = tuple(self.window)
        if len(self.window) != 4 or not all(
                isinstance(x, int) and x >= 3 for x in self.window):
            raise ConfigInvalid(f"window extents must be four integers >= 3, "
                                f"got {self.window}")
        if type(self.seed) is not int or self.seed < 0:  # bool is no seed
            raise ConfigInvalid(f"seed must be an int >= 0, got {self.seed!r}")
        if not 0 < self.tol < math.inf:
            raise ConfigInvalid(f"tol must be finite and > 0, got {self.tol}")
        if not all(map(math.isfinite, self.grid)):
            raise ConfigInvalid(f"grid must be finite, got {self.grid}")
        if self.p is not None and self.spatial is not None:
            raise ConfigInvalid("give either --p or --spatial, not both")
        # a spec checks the suite's wave and the scan's largest, (g, g, g),
        # whose p0 is solved on --branch so that the branch is checked too
        g = float(max(map(abs, self.grid), default=0.0))
        try:
            PlaneWaveSpec(self.momentum(), self.mass,
                          self.amplitudes or EvenAmplitudes(), self.window)
            scan = (solve_p0((g, g, g), self.mass, self.branch), g, g, g)
            PlaneWaveSpec(scan, self.mass, EvenAmplitudes(), self.window)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc

    def momentum(self) -> Tuple[float, float, float, float]:
        if self.p is not None:
            return tuple(self.p)
        spatial = self.spatial if self.spatial is not None else (0.0, 0.0, 0.0)
        return (solve_p0(spatial, self.mass, self.branch),) + tuple(spatial)


# ---------------------------------------------------------------------------
# random inputs

def _random_forms(rng, degrees, win: Window, origin=(1, 1, 1, 1)) -> list:
    """One form per degree, with complex values of integer parts in -9..9 on
    the sites ``origin`` .. ``origin + win.n - 1``, all from one draw in the
    order of one scalar draw per part: form by form, site by site in
    ``Window.sites()`` order, blade by blade, real before imaginary."""
    n, blades = math.prod(win.n), [len(GRADE_BLADES[r]) for r in degrees]
    vals = rng.integers(-9, 10, size=(n * sum(blades), 2)).astype(float)
    chunks = np.split(vals.view(complex), np.cumsum(blades)[:-1] * n)
    # copied, so that each blade's slice of the data is contiguous
    return [_form(r, tuple(origin), np.moveaxis(
        a.reshape(tuple(win.n) + (b,)), -1, 0).copy())
        for r, b, a in zip(degrees, blades, chunks)]


def random_form(rng, degree: int, win: Window) -> DiscreteForm:
    return _random_forms(rng, [degree], win)[0]


def random_inhomogeneous(rng, win: Window) -> InhomogeneousForm:
    return InhomogeneousForm(_random_forms(rng, range(5), win))


def random_even(rng, win: Window) -> InhomogeneousForm:
    parts = [DiscreteForm.zero(r) for r in range(5)]
    parts[::2] = _random_forms(rng, (0, 2, 4), win)
    return InhomogeneousForm(parts)


# ---------------------------------------------------------------------------
# individual checks; each gives non-negative gaps for identity_check to
# reduce: norms, or an exact table check's failures

def _join(cases, gap: int) -> DiscreteForm:
    """``cases``, forms on one box, along the last axis ``gap`` sites apart."""
    w = cases[0]
    if len(cases) == 1:
        return w
    pad = np.zeros(w.data.shape[:-1] + (gap,), w.data.dtype)
    data = np.concatenate([a for c in cases for a in (pad, c.data)][1:], -1)
    return _form(w.degree, w.origin, data)


def _side_by_side(gap: int, residual, *inputs) -> float:
    """The largest |coefficient| of ``residual`` of ``inputs``, lists of one
    form per case joined ``gap`` sites apart; a gap of the residual's reach
    along the last axis, below plus above its inputs, keeps them apart."""
    return residual(*(_join(cases, gap) for cases in inputs)).max_norm()


def _impulses(r: int) -> list:
    """Per blade of degree r, the form that is 1 on it at (0, 0, 0, 0).
    The nine linear checks run on these: their operators are complex-linear
    (the one conjugate under src/ is inner_product's) and commute with
    lattice translations, so a residual that vanishes on the unit impulse on
    each blade vanishes on every finitely supported form, and one impulse
    per blade is a proof, the same at every window and seed."""
    eye = np.eye(len(GRADE_BLADES[r]), dtype=complex)
    return [_form(r, (0,) * 4, e.reshape(-1, 1, 1, 1, 1)) for e in eye]


def _impulse_gaps(gap: int, residual, degrees=range(5), lift=None) -> list:
    """Per degree, :func:`_side_by_side` of ``residual`` over the impulses
    on the blades of that degree, each passed through ``lift`` if given."""
    f = residual if lift is None else (lambda w: residual(lift(w)))
    return [_side_by_side(gap, f, _impulses(r)) for r in degrees]


def check_nilpotency_d(cfg, rng):
    return _impulse_gaps(1, lambda w: coboundary(coboundary(w)), range(4))


def check_nilpotency_delta(cfg, rng):
    return _impulse_gaps(
        1, lambda w: codifferential(codifferential(w)), range(1, 5))


def check_pairing_duality(cfg, rng):
    win = Window(cfg.window)
    for degree in range(1, 5):
        for _ in range(5):
            c, w = _random_forms(rng, (degree, degree - 1), win)
            a = Chain.from_form(InhomogeneousForm.from_form(c))
            yield abs(pair(boundary(a), w) - pair(a, coboundary(w)))


def check_leibniz(cfg, rng):
    # the graded rule d(U cup V) = dU cup V + U^ cup dV, U^ = sum (-1)^r u_r
    def residual(*parts):
        U, V = InhomogeneousForm(parts[:5]), InhomogeneousForm(parts[5:])
        hat = InhomogeneousForm([-u if u.degree % 2 else u for u in U.parts])
        return coboundary(cup(U, V)) - (
            cup(coboundary(U), V) + cup(hat, coboundary(V)))
    win = Window(cfg.window)
    for size in (3,) if 3 * math.prod(win.n) <= LEIBNIZ_SITES else (1, 1, 1):
        yield _side_by_side(1, residual, *zip(*(
            _random_forms(rng, (*range(5), *range(5)), win)
            for _ in range(size))))


def check_star_defining(cfg, rng):
    # basis-exhaustive: s cup *s must be the signature-weighted volume form;
    # a degree's blades two sites apart, one failure per failing site
    for r, blades in enumerate(GRADE_BLADES):
        s = _join(_impulses(r), 1)
        q = [-1 if 0 in b else 1 for b in blades]
        want = _form(4, s.origin, np.tensordot(q, s.data, 1)[None])
        yield len(_nonzero_sites(cup(s, hodge_star(s)) - want))


def check_star_double(cfg, rng):
    # ** = (-1)^(r+1) x (index shift tau on every axis)
    for r in range(5):
        s = _join(_impulses(r), 1)
        want = _form(r, tau_all(s.origin), (-1) ** (r + 1) * s.data)
        yield len(_nonzero_sites(hodge_star(hodge_star(s)) - want))


def check_star_inverse(cfg, rng):
    return _impulse_gaps(0, lambda w: hodge_star_inverse(hodge_star(w)) - w)


def check_adjointness(cfg, rng):
    # (d u, v) = (u, delta v) with a one-cell margin inside the window
    outer = Window(cfg.window)
    inner = Window(tuple(x - 2 for x in cfg.window))
    for degree in range(4):
        for _ in range(5):
            u, v = _random_forms(rng, (degree, degree + 1), inner,
                                 (2, 2, 2, 2))
            lhs = inner_product(coboundary(u), v, outer)
            rhs = inner_product(u, codifferential(v), outer)
            yield abs(lhs - rhs)


def check_codifferential_star_route(cfg, rng):
    return _impulse_gaps(1, lambda w: codifferential(w) - (-1) ** w.degree
                         * hodge_star_inverse(coboundary(hodge_star(w))),
                         range(1, 5))


def check_star_d_star_shift(cfg, rng):
    # star.d.star equals the codifferential read at the all-axes successor
    def residual(w):
        want = codifferential(w)
        return star_d_star(w) - _form(want.degree, tau_all(want.origin),
                                      want.data)
    return _impulse_gaps(1, residual, range(1, 5))


def check_clifford_anticommutators(cfg, rng):
    # site (1 + mu, 1 + nu, 1, 1) of a 4 x 4 box holds the anticommutator
    # e_mu e_nu + e_nu e_mu; yields the failing sites
    E = _assemble([((mu,), 1, (1 + mu, 1, 1, 1), np.ones((1, 4, 1, 1)))
                   for mu in AXES])
    F = _assemble([((nu,), 1, (1, 1 + nu, 1, 1), np.ones((4, 1, 1, 1)))
                   for nu in AXES])
    want = _assemble([((), METRIC[mu], (1 + mu, 1 + mu, 1, 1),
                       np.full((1,) * 4, 2.0)) for mu in AXES])
    yield len(_nonzero_sites(clifford_mul(E, F) + clifford_mul(F, E) - want))


def check_clifford_associativity(cfg, rng):
    # products are sitewise: site (1 + i, 1 + l) of a 16 x 16 box holds b_i
    # and the left blade a_l of ALL_BLADES, and C all 16 blades.  Yields per
    # a_l the nonzero coefficients of (AB)C - A(BC), its failing triples if
    # only signs are wrong; a wrong blade splits or cancels their coefficients
    A = _assemble([(a, 1, (1, 1 + l, 1, 1), np.ones((16, 1, 1, 1)))
                   for l, a in enumerate(ALL_BLADES)])
    B = _assemble([(b, 1, (1 + i, 1, 1, 1), np.ones((1, 16, 1, 1)))
                   for i, b in enumerate(ALL_BLADES)])
    C = _assemble([(c, 1, (1, 1, 1, 1), np.ones((16, 16, 1, 1)))
                   for c in ALL_BLADES])
    defect = clifford_mul(clifford_mul(A, B), C) - clifford_mul(
        A, clifford_mul(B, C))
    yield from np.bincount([k[1] - 1 for (k, _dirs), _c in defect.items()],
                           minlength=16).tolist()


def check_clifford_unit(cfg, rng):
    # products are sitewise: the impulses sit on distinct sites of the unit
    win = Window((3, 3, 3, 3))
    x, A = unit_form((), win), _assemble([
        (b, 1, k, np.ones((1,) * 4)) for b, k in zip(ALL_BLADES, win.sites())])
    yield (clifford_mul(x, A) - A).max_norm()
    yield (clifford_mul(A, x) - A).max_norm()


def check_decomposition(cfg, rng):
    return _impulse_gaps(2, lambda O: decomposition(O) - (
        coboundary(O) + codifferential(O)), lift=InhomogeneousForm.from_form)


def check_dk_system(cfg, rng):
    return _impulse_gaps(2, lambda O: dk_system_residual(O, cfg.mass) - (
        dirac_kahler_apply(O) - cfg.mass * O),
        lift=InhomogeneousForm.from_form)


def check_joyce_system(cfg, rng):
    # both sides are odd: the table covers the odd targets
    return _impulse_gaps(2, lambda O: joyce_system_residual(O, cfg.mass)
                         - joyce_residual_form(O, cfg.mass), (0, 2, 4),
                         InhomogeneousForm.from_form)


IDENTITY_CHECKS = {
    "sec2-nilpotency-d": (check_nilpotency_d, "residual"),
    "sec2-nilpotency-delta": (check_nilpotency_delta, "residual"),
    "eq2.6-pairing-duality": (check_pairing_duality, "residual"),
    "eq2.15-leibniz": (check_leibniz, "residual"),
    "eq2.16-star-defining": (check_star_defining, "exact"),
    "sec2-star-double": (check_star_double, "exact"),
    "sec2-star-inverse": (check_star_inverse, "residual"),
    "eq2.25-adjointness": (check_adjointness, "residual"),
    "eq2.26-codifferential-star": (check_codifferential_star_route, "residual"),
    "sec2-star-d-star-shift": (check_star_d_star_shift, "residual"),
    "eq3.5-clifford-anticommutators": (check_clifford_anticommutators, "exact"),
    "sec3-clifford-associativity": (check_clifford_associativity, "exact"),
    "sec3-clifford-unit": (check_clifford_unit, "residual"),
    "eq3.6-decomposition": (check_decomposition, "residual"),
    "eq3.3-dk-system-consistency": (check_dk_system, "residual"),
    "eq3.9-joyce-system-consistency": (check_joyce_system, "residual"),
}


def identity_check(name: str, cfg, rng) -> dict:
    """Run the identity check ``name`` and write its record: the largest gap
    (NaN if any is NaN) against ``cfg.tol``, or for an "exact" check the
    failures against 0.5."""
    check, kind = IDENTITY_CHECKS[name]
    gaps = list(check(cfg, rng))
    if kind == "exact":
        return _check_record(name, sum(gaps), 0.5)
    return _check_record(name, np.max(gaps, initial=0.0), cfg.tol)


# ---------------------------------------------------------------------------
# plane-wave checks

def _random_amplitudes(rng) -> EvenAmplitudes:
    return EvenAmplitudes(*[complex(*z) for z in
                            rng.integers(-9, 10, size=(8, 2)).tolist()])


def planewave_checks(cfg, rng) -> List[dict]:
    win = Window(cfg.window)
    p = cfg.momentum()
    m = cfg.mass
    A = cfg.amplitudes if cfg.amplitudes is not None else _random_amplitudes(rng)
    checks = []

    Phi = build_phi(A, p, win)
    value = eigen_relation_residual(Phi, p, win)
    scale = max(Phi.max_norm(), 1.0)
    checks.append(_check_record(
        "eq4.7-eigen-relation", value, cfg.tol * scale,
        detail=f"p={list(p)}"))

    gap = dispersion_gap(p, m)
    M = amplitude_matrix(p, m)
    sv = np.linalg.svd(M, compute_uv=False)
    nullity = int(np.sum(sv < 1e-8 * sv[0]))
    want = 4 if abs(gap) / dispersion_scale(p, m) <= cfg.tol else 0
    checks.append(_check_record(
        "eq4.17-amplitude-nullity", float(nullity), None,
        passed=(nullity == want),
        detail=f"gap={gap:.3g}, expected nullity {want}"))

    # the blade-table system against the one read off the Joyce operator
    oracle = derive_amplitude_matrix(p, m)
    checks.append(_check_record(
        "eq4.8-system-oracle", np.max(np.abs(M - oracle))
        / max(np.max(np.abs(oracle)), 1.0), cfg.tol))

    for name, builder, coeffs in (
        ("prop4.2-family-plus-residual", family_plus, (1, 1, 1, 1)),
        ("prop4.2-family-minus-residual", family_minus, (1, 1, 1, 1)),
    ):
        try:
            F = builder(coeffs, p, m, win)
        except DegenerateDenominator:
            checks.append(_check_record(
                name, 0.0, cfg.tol, passed=True,
                detail="skipped: DegenerateDenominator (mirror family covers "
                       "this branch)"))
            continue
        except DispersionViolated as exc:
            checks.append(_check_record(
                name, abs(gap), cfg.tol, passed=False,
                detail=f"DispersionViolated: {exc}"))
            continue
        rep = joyce_residual(F, m, win)
        fscale = max(F.max_norm(), 1.0)
        checks.append(_check_record(name, rep.interior_max, cfg.tol * fscale))
    return checks


# ---------------------------------------------------------------------------
# dispersion scan

def dispersion_scan(m: float, grid: Sequence[float],
                    window: Tuple[int, int, int, int],
                    perturb: bool = False) -> List[dict]:
    """Interior Joyce residuals of the wave families over a spatial grid.

    One row per (spatial momentum, branch).  The minus branch uses the plus
    family and the plus branch the minus family, so the family denominator
    never degenerates for m > 0; the energy detuned by ``perturb`` can meet
    that family's pole, m - s p0 = 0, and then takes the mirror family.  The
    families solve the discrete Joyce equation only at zero spatial
    momentum; on the other rows the residual is the closed-form lattice term
    described in :func:`dkjoyce.planewave.family_plus`, not zero.
    """
    win = Window(window)
    rows = []
    for spatial in itertools.product(grid, repeat=3):
        for branch, builder, mirror in (("+", family_minus, family_plus),
                                        ("-", family_plus, family_minus)):
            p0 = solve_p0(spatial, m, branch)
            p = (p0,) + tuple(spatial)
            F = builder((1, 1, 1, 1), p, m, win)
            res = joyce_residual(F, m, win).interior_max
            row = {
                "p1": spatial[0], "p2": spatial[1], "p3": spatial[2],
                "branch": branch, "p0": p0, "residual_interior_max": res,
            }
            if perturb:
                pp = (p0 + 0.1,) + tuple(spatial)
                try:
                    Fp = builder((1, 1, 1, 1), pp, m, win,
                                 check_dispersion=False)
                except DegenerateDenominator:
                    Fp = mirror((1, 1, 1, 1), pp, m, win,
                                check_dispersion=False)
                row["residual_perturbed"] = joyce_residual(
                    Fp, m, win).interior_max
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# suite driver and report assembly

def _check_record(name: str, value: float, threshold, passed=None,
                  detail=None) -> dict:
    if passed is None:
        passed = threshold is not None and value <= threshold
    rec = {
        "name": name,
        "status": "pass" if passed else "fail",
        "value": float(value),
        "threshold": None if threshold is None else float(threshold),
    }
    if detail:
        rec["detail"] = detail
    return rec


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the configured suite; returns the report dictionary."""
    checks: List[dict] = []
    rows = None
    # one generator per suite, so that "all" draws what each suite draws
    if cfg.suite in ("identities", "all"):
        rng = np.random.default_rng(cfg.seed)
        checks.extend(identity_check(name, cfg, rng)
                      for name in IDENTITY_CHECKS)
    if cfg.suite in ("planewave", "all"):
        checks.extend(planewave_checks(cfg, np.random.default_rng(cfg.seed)))
    if cfg.suite in ("dispersion-scan", "all"):
        rows = dispersion_scan(cfg.mass, cfg.grid, cfg.window,
                               perturb=cfg.perturb)
    checks.sort(key=lambda c: c["name"])
    report = {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "window": list(cfg.window),
        "mass": cfg.mass,
        "tolerance": cfg.tol,
        "checks": checks,
        "overall": "pass" if all(c["status"] == "pass" for c in checks)
        else "fail",
    }
    if rows is not None:
        report["scan"] = rows
    return report


SCAN_COLUMNS = ("p1", "p2", "p3", "branch", "p0", "residual_interior_max")


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if report.get("scan") is not None:
            cols = list(SCAN_COLUMNS)
            if report["scan"] and "residual_perturbed" in report["scan"][0]:
                cols.append("residual_perturbed")
            writer.writerow(cols)
            for row in report["scan"]:
                writer.writerow([row[c] for c in cols])
        if report["checks"]:
            writer.writerow(["name", "status", "value", "threshold"])
            for c in report["checks"]:
                writer.writerow(
                    [c["name"], c["status"], c["value"], c["threshold"]]
                )
        return buf.getvalue()
    if fmt == "text":
        lines = [
            f"suite: {report['suite']}  seed: {report['seed']}  "
            f"window: {report['window']}  mass: {report['mass']}  "
            f"tol: {report['tolerance']}"
        ]
        for c in report["checks"]:
            thr = "-" if c["threshold"] is None else f"{c['threshold']:.3g}"
            line = (f"[{c['status'].upper():4}] {c['name']:34} "
                    f"value={c['value']:.3e} threshold={thr}")
            if c.get("detail"):
                line += f"  ({c['detail']})"
            lines.append(line)
        for row in report.get("scan") or ():
            extras = ""
            if "residual_perturbed" in row:
                extras = f" perturbed={row['residual_perturbed']:.3e}"
            lines.append(
                f"scan p=({row['p1']},{row['p2']},{row['p3']}) "
                f"branch={row['branch']} p0={row['p0']:+.6f} "
                f"residual={row['residual_interior_max']:.3e}{extras}"
            )
        lines.append(f"overall: {report['overall']}")
        return "\n".join(lines) + "\n"
    raise ConfigInvalid(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as :class:`ConfigInvalid`."""

    def error(self, message):
        raise ConfigInvalid(message)


def _values(cast, n=None):
    """An argparse type: ``n`` comma-separated values read by ``cast``, or
    any number >= 1 of them when ``n`` is None."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if n is not None and len(parts) != n:
            raise argparse.ArgumentTypeError(
                f"needs {n} comma-separated values, got {text!r}")
        try:
            return tuple(map(cast, parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _amplitudes_file(path: str) -> EvenAmplitudes:
    with open(path) as fh:
        try:
            return EvenAmplitudes.from_json(json.load(fh))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dkjoyce",
        description="Verification harness for the discrete lattice calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the defaults of the options that set a SuiteConfig field are its own
    run = sub.add_parser("run", help="run a verification suite",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--suite", required=True, choices=SUITES)
    run.add_argument("--window", type=_values(int, 4),
                     help="window extents n0,n1,n2,n3 (each >= 3)")
    run.add_argument("--seed", type=int)
    run.add_argument("--p", type=_values(float, 4),
                     help="full momentum p0,p1,p2,p3")
    run.add_argument("--spatial", type=_values(float, 3),
                     help="spatial momentum p1,p2,p3 (p0 solved from --branch)")
    run.add_argument("--branch", choices=["+", "-"])
    run.add_argument("--mass", type=float)
    run.add_argument("--amplitudes", type=_amplitudes_file,
                     help="JSON file of even amplitudes (alpha0..alpha4)")
    run.add_argument("--tol", type=float, help="tolerance (default 1e-10)")
    run.add_argument("--grid", type=_values(float),
                     help="per-axis values of the dispersion-scan grid")
    run.add_argument("--perturb", action="store_true",
                     help="add a perturbed-energy residual column to the scan")
    run.add_argument("--format", dest="fmt", default="text",
                     choices=["json", "csv", "text"])
    run.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    return parser


def config_from_args(args) -> SuiteConfig:
    return SuiteConfig(**{f.name: getattr(args, f.name)
                          for f in fields(SuiteConfig) if f.name in args})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = run_suite(config_from_args(args))
        text = format_report(report, args.fmt)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigInvalid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
