"""Command-line verification harness.

``dkjoyce run`` executes one of three suites and writes a report:

* ``identities`` — operator identities (nilpotency, duality, Leibniz, star
  algebra, codifferential consistency, Clifford relations, decomposition,
  component-system consistency) on seeded random forms;
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
from dataclasses import dataclass
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
    amplitude_matrix,
    build_phi,
    derive_amplitude_matrix,
    dispersion_gap,
    eigen_relation_residual,
    family_minus,
    family_plus,
    solve_p0,
)
DEFAULT_TOL = 1e-10
SUITES = ("identities", "planewave", "dispersion-scan", "all")


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
        if len(self.window) != 4 or any(
            not isinstance(x, int) or x < 3 for x in self.window
        ):
            raise ConfigInvalid(
                f"window extents must be four integers >= 3, got {self.window}"
            )
        if not self.tol > 0:
            raise ConfigInvalid(f"tolerance must be positive, got {self.tol}")
        if not self.mass > 0:
            raise ConfigInvalid(f"mass must be positive, got {self.mass}")
        for name in ("tol", "mass", "p", "spatial", "grid"):
            value = getattr(self, name)
            values = (value,) if isinstance(value, (int, float)) else value
            if not all(map(math.isfinite, values or ())):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
            # squares enter the dispersion relation
            if name != "tol" and not all(
                    math.isfinite(x * x) for x in values or ()):
                raise ConfigInvalid(
                    f"{name} is too large to square, got {value}")
        if self.p is not None and self.spatial is not None:
            raise ConfigInvalid("give either --p or --spatial, not both")
        if self.branch not in ("+", "-"):
            raise ConfigInvalid(f"branch must be '+' or '-', got {self.branch!r}")
        g = max(map(abs, self.grid), default=0.0)
        for p0 in (self.momentum()[0], solve_p0((g, g, g), self.mass, "+")):
            if not math.isfinite(p0 * p0):
                raise ConfigInvalid(f"energy p0 = {p0} is too large to square")

    def momentum(self) -> Tuple[float, float, float, float]:
        if self.p is not None:
            return tuple(self.p)
        spatial = self.spatial if self.spatial is not None else (0.0, 0.0, 0.0)
        return (solve_p0(spatial, self.mass, self.branch),) + tuple(spatial)


# ---------------------------------------------------------------------------
# random inputs

def _random_boxes(rng, groups, win: Window, origin=(1, 1, 1, 1)) -> list:
    """One form per group of blades, with complex values of integer parts
    in -9..9 on the sites ``origin`` .. ``origin + win.n - 1``, all from one
    draw in the order of one scalar draw per part: group by group, site by
    site in ``Window.sites()`` order, blade by blade, real before imaginary."""
    size = sum(map(len, groups)) * math.prod(win.n)
    vals = rng.integers(-9, 10, size=(size, 2)).astype(float).view(complex)
    forms = []
    for blades in groups:
        a, vals = np.split(vals, [len(blades) * math.prod(win.n)])
        a = a.reshape(tuple(win.n) + (len(blades),))
        forms.append(_assemble([(b, 1, origin, a[..., i])
                                for i, b in enumerate(blades)]))
    return forms


def _random_forms(rng, degrees, win: Window, origin=(1, 1, 1, 1)) -> list:
    """:func:`_random_boxes` with the blades of one degree per form."""
    return [A.part(r) for r, A in zip(degrees, _random_boxes(
        rng, [GRADE_BLADES[r] for r in degrees], win, origin))]


def random_form(rng, degree: int, win: Window) -> DiscreteForm:
    return _random_forms(rng, [degree], win)[0]


def random_inhomogeneous(rng, win: Window) -> InhomogeneousForm:
    return InhomogeneousForm(_random_forms(rng, range(5), win))


def random_even(rng, win: Window) -> InhomogeneousForm:
    parts = [DiscreteForm.zero(r) for r in range(5)]
    parts[::2] = _random_forms(rng, (0, 2, 4), win)
    return InhomogeneousForm(parts)


# ---------------------------------------------------------------------------
# individual checks; each yields one non-negative gap per case for
# identity_check to reduce: a norm, or an exact table check's failures

def check_nilpotency_d(cfg, rng):
    win = Window(cfg.window)
    for degree in range(4):
        for w in _random_forms(rng, [degree] * 5, win):
            yield coboundary(coboundary(w)).max_norm()


def check_nilpotency_delta(cfg, rng):
    win = Window(cfg.window)
    for degree in range(1, 5):
        for w in _random_forms(rng, [degree] * 5, win):
            yield codifferential(codifferential(w)).max_norm()


def check_pairing_duality(cfg, rng):
    win = Window(cfg.window)
    for degree in range(1, 5):
        for _ in range(5):
            c, w = _random_forms(rng, (degree, degree - 1), win)
            a = Chain.from_form(InhomogeneousForm.from_form(c))
            yield abs(pair(boundary(a), w) - pair(a, coboundary(w)))


def check_leibniz(cfg, rng):
    win = Window(cfg.window)
    for r in range(5):
        for q in range(5 - r):
            for _ in range(3):
                u, v = _random_forms(rng, (r, q), win)
                lhs = coboundary(cup(u, v))
                rhs = cup(coboundary(u), v) \
                    + (-1) ** r * cup(u, coboundary(v))
                yield (lhs - rhs).max_norm()


def check_star_defining(cfg, rng):
    # basis-exhaustive: s cup *s must be the signature-weighted volume form
    k = (2, 2, 2, 2)
    for blade in ALL_BLADES:
        s = DiscreteForm.basis(k, blade)
        prod = cup(s, hodge_star(s))
        want = -1 if 0 in blade else 1
        yield dict(prod.items()) != {(k, (0, 1, 2, 3)): want}


def check_star_double(cfg, rng):
    # ** = (-1)^(r+1) x (index shift tau on every axis)
    k = (2, 3, 4, 5)
    for blade in ALL_BLADES:
        s = DiscreteForm.basis(k, blade)
        got = hodge_star(hodge_star(s))
        r = len(blade)
        want = DiscreteForm.basis(tuple(x + 1 for x in k), blade,
                                  (-1) ** (r + 1))
        yield got != want


def check_star_inverse(cfg, rng):
    win = Window(cfg.window)
    for degree in range(5):
        w = random_form(rng, degree, win)
        yield (hodge_star_inverse(hodge_star(w)) - w).max_norm()


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
    win = Window(cfg.window)
    for degree in range(1, 5):
        w = random_form(rng, degree, win)
        via_star = ((-1) ** degree * 1) * hodge_star_inverse(
            coboundary(hodge_star(w))
        )
        yield (codifferential(w) - via_star).max_norm()


def check_star_d_star_shift(cfg, rng):
    # star.d.star equals the codifferential read at the all-axes successor
    win = Window(cfg.window)
    for degree in range(1, 5):
        w = random_form(rng, degree, win)
        got = star_d_star(w)
        want = codifferential(w)
        shifted = _form(degree - 1, tau_all(want.origin), want.data,
                        want.slots)
        yield (got - shifted).max_norm()


def check_clifford_anticommutators(cfg, rng):
    win = Window((3, 3, 3, 3))
    x = unit_form((), win)
    for mu in AXES:
        for nu in AXES:
            e_mu = unit_form((mu,), win)
            e_nu = unit_form((nu,), win)
            lhs = clifford_mul(e_mu, e_nu) + clifford_mul(e_nu, e_mu)
            g = 2 * METRIC[mu] if mu == nu else 0
            yield lhs != g * x


def check_clifford_associativity(cfg, rng):
    # products are sitewise: per left blade a, site (1 + i, 1 + j) of a
    # 16 x 16 box holds the triple (a, ALL_BLADES[i], ALL_BLADES[j])
    B = _assemble([(b, 1, (1 + i, 1, 1, 1), np.ones((1, 16, 1, 1)))
                   for i, b in enumerate(ALL_BLADES)])
    C = _assemble([(c, 1, (1, 1 + j, 1, 1), np.ones((16, 1, 1, 1)))
                   for j, c in enumerate(ALL_BLADES)])
    BC = clifford_mul(B, C)
    for a in ALL_BLADES:
        A = unit_form(a, Window((16, 16, 1, 1)))
        diff = clifford_mul(clifford_mul(A, B), C) - clifford_mul(A, BC)
        sites = np.concatenate([np.argwhere((p.data != 0).any(axis=0))
                                + p.origin for p in diff.parts])
        yield len(np.unique(sites, axis=0))


def check_clifford_unit(cfg, rng):
    win = Window((3, 3, 3, 3))
    x = unit_form((), win)
    A, = _random_boxes(rng, [ALL_BLADES], win)
    yield (clifford_mul(x, A) - A).max_norm()
    yield (clifford_mul(A, x) - A).max_norm()


def check_decomposition(cfg, rng):
    win = Window(cfg.window)
    for _ in range(5):
        O = random_inhomogeneous(rng, win)
        want = coboundary(O) + codifferential(O)
        yield (decomposition(O) - want).max_norm()


def check_dk_system(cfg, rng):
    win = Window(cfg.window)
    for _ in range(3):
        O = random_inhomogeneous(rng, win)
        table = dk_system_residual(O, cfg.mass)
        pipeline = dirac_kahler_apply(O) - cfg.mass * O
        yield (table - pipeline).max_norm()


def check_joyce_system(cfg, rng):
    win = Window(cfg.window)
    for _ in range(3):
        O = random_even(rng, win)
        table = joyce_system_residual(O, cfg.mass)
        pipeline = joyce_residual_form(O, cfg.mass)
        # the table covers the odd targets; compare those grades
        for r in (1, 3):
            yield (table.part(r) - pipeline.part(r)).max_norm()


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
    against ``cfg.tol``, or for an "exact" check the failures against 0.5."""
    check, kind = IDENTITY_CHECKS[name]
    if kind == "exact":
        return _check_record(name, sum(check(cfg, rng)), 0.5)
    return _check_record(name, max(check(cfg, rng), default=0.0), cfg.tol)


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
    nullity = int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))
    want = 4 if abs(gap) <= cfg.tol else 0
    checks.append(_check_record(
        "eq4.17-amplitude-nullity", float(nullity), None,
        passed=(nullity == want),
        detail=f"gap={gap:.3g}, expected nullity {want}"))

    oracle = derive_amplitude_matrix(p, m)
    checks.append(_check_record(
        "eq4.8-system-oracle", float(np.max(np.abs(M - oracle))), cfg.tol))

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
    never degenerates for m > 0.  The families solve the discrete Joyce
    equation only at zero spatial momentum; on the other rows the residual
    is the closed-form lattice term described in
    :func:`dkjoyce.planewave.family_plus`, not zero.
    """
    win = Window(window)
    rows = []
    for spatial in itertools.product(grid, repeat=3):
        for branch in ("+", "-"):
            p0 = solve_p0(spatial, m, branch)
            p = (p0,) + tuple(spatial)
            builder = family_minus if branch == "+" else family_plus
            F = builder((1, 1, 1, 1), p, m, win)
            res = joyce_residual(F, m, win).interior_max
            row = {
                "p1": spatial[0], "p2": spatial[1], "p3": spatial[2],
                "branch": branch, "p0": p0, "residual_interior_max": res,
            }
            if perturb:
                pp = (p0 + 0.1,) + tuple(spatial)
                Fp = builder((1, 1, 1, 1), pp, m, win,
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
    rng = np.random.default_rng(cfg.seed)
    checks: List[dict] = []
    rows = None
    if cfg.suite in ("identities", "all"):
        checks.extend(identity_check(name, cfg, rng)
                      for name in IDENTITY_CHECKS)
    if cfg.suite in ("planewave", "all"):
        checks.extend(planewave_checks(cfg, rng))
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

def _parse_tuple(text: str, n: Optional[int], cast, what: str):
    """Comma-separated values; exactly ``n`` of them, or any number >= 1
    when ``n`` is None."""
    parts = text.split(",")
    if n is not None and len(parts) != n:
        raise ConfigInvalid(f"{what} needs {n} comma-separated values")
    try:
        return tuple(cast(x) for x in parts)
    except ValueError as exc:
        raise ConfigInvalid(f"invalid {what}: {exc}") from exc


def _load_amplitudes(path: str) -> EvenAmplitudes:
    with open(path) as fh:
        try:
            return EvenAmplitudes.from_json(json.load(fh))
        except ValueError as exc:
            raise ConfigInvalid(f"amplitudes file: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkjoyce",
        description="Verification harness for the discrete lattice calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", required=True, choices=SUITES)
    run.add_argument("--window", default="4,4,4,4",
                     help="window extents n0,n1,n2,n3 (each >= 3)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--p", default=None,
                     help="full momentum p0,p1,p2,p3")
    run.add_argument("--spatial", default=None,
                     help="spatial momentum p1,p2,p3 (p0 solved from --branch)")
    run.add_argument("--branch", default="+", choices=["+", "-"])
    run.add_argument("--mass", type=float, default=1.0)
    run.add_argument("--amplitudes", default=None,
                     help="JSON file of even amplitudes (alpha0..alpha4)")
    run.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="tolerance (default 1e-10)")
    run.add_argument("--grid", default="0,0.5",
                     help="per-axis values of the dispersion-scan grid")
    run.add_argument("--perturb", action="store_true",
                     help="add a perturbed-energy residual column to the scan")
    run.add_argument("--format", dest="fmt", default="text",
                     choices=["json", "csv", "text"])
    run.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    return parser


def config_from_args(args) -> SuiteConfig:
    window = _parse_tuple(args.window, 4, int, "--window")
    p = None if args.p is None else _parse_tuple(args.p, 4, float, "--p")
    spatial = None if args.spatial is None else _parse_tuple(
        args.spatial, 3, float, "--spatial"
    )
    grid = _parse_tuple(args.grid, None, float, "--grid")
    amplitudes = None
    if args.amplitudes is not None:
        amplitudes = _load_amplitudes(args.amplitudes)
    return SuiteConfig(
        suite=args.suite, window=window, seed=args.seed, mass=args.mass,
        p=p, spatial=spatial, branch=args.branch, amplitudes=amplitudes,
        tol=args.tol, perturb=args.perturb, grid=grid,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run_suite(cfg)
        text = format_report(report, args.fmt)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
