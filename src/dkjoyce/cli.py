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
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .complex4 import AXES, METRIC, Chain, boundary, pair, tau_all
from .forms import (
    DiscreteForm,
    InhomogeneousForm,
    Window,
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
        if self.p is not None and self.spatial is not None:
            raise ConfigInvalid("give either --p or --spatial, not both")
        if self.branch not in ("+", "-"):
            raise ConfigInvalid(f"branch must be '+' or '-', got {self.branch!r}")

    def momentum(self) -> Tuple[float, float, float, float]:
        if self.p is not None:
            return tuple(self.p)
        spatial = self.spatial if self.spatial is not None else (0.0, 0.0, 0.0)
        return (solve_p0(spatial, self.mass, self.branch),) + tuple(spatial)


# ---------------------------------------------------------------------------
# random inputs

def _rand_complex(rng) -> complex:
    return complex(rng.integers(-9, 10), rng.integers(-9, 10))


def random_form(rng, degree: int, win: Window) -> DiscreteForm:
    coeffs = {}
    for k in win.sites():
        for dirs in itertools.combinations(AXES, degree):
            coeffs[(k, dirs)] = _rand_complex(rng)
    return DiscreteForm(degree, coeffs)


def random_inhomogeneous(rng, win: Window) -> InhomogeneousForm:
    return InhomogeneousForm([random_form(rng, r, win) for r in range(5)])


def random_even(rng, win: Window) -> InhomogeneousForm:
    parts = [DiscreteForm.zero(r) for r in range(5)]
    for r in (0, 2, 4):
        parts[r] = random_form(rng, r, win)
    return InhomogeneousForm(parts)


# ---------------------------------------------------------------------------
# individual checks; each returns (value, threshold, detail)

def _max_le(value: float, threshold: float):
    return float(value), float(threshold), None


def check_nilpotency_d(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(4):
        for _ in range(5):
            w = random_form(rng, degree, win)
            worst = max(worst, coboundary(coboundary(w)).max_norm())
    return _max_le(worst, cfg.tol)


def check_nilpotency_delta(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(1, 5):
        for _ in range(5):
            w = random_form(rng, degree, win)
            worst = max(worst, codifferential(codifferential(w)).max_norm())
    return _max_le(worst, cfg.tol)


def check_pairing_duality(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(1, 5):
        for _ in range(5):
            a = Chain({
                (k, dirs): _rand_complex(rng)
                for k in win.sites()
                for dirs in itertools.combinations(AXES, degree)
            })
            w = random_form(rng, degree - 1, win)
            worst = max(worst, abs(pair(boundary(a), w) - pair(a, coboundary(w))))
    return _max_le(worst, cfg.tol)


def check_leibniz(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for r in range(5):
        for q in range(5 - r):
            for _ in range(3):
                u = random_form(rng, r, win)
                v = random_form(rng, q, win)
                lhs = coboundary(cup(u, v))
                rhs = cup(coboundary(u), v) \
                    + (-1) ** r * cup(u, coboundary(v))
                worst = max(worst, (lhs - rhs).max_norm())
    return _max_le(worst, cfg.tol)


def check_star_defining(cfg, rng):
    # basis-exhaustive: s cup *s must be the signature-weighted volume form
    k = (2, 2, 2, 2)
    failures = 0
    for blade in ALL_BLADES:
        s = DiscreteForm.basis(k, blade)
        prod = cup(s, hodge_star(s))
        want = -1 if 0 in blade else 1
        if dict(prod.items()) != {(k, (0, 1, 2, 3)): want}:
            failures += 1
    return _max_le(failures, 0.5)


def check_star_double(cfg, rng):
    # ** = (-1)^(r+1) x (index shift tau on every axis)
    k = (2, 3, 4, 5)
    failures = 0
    for blade in ALL_BLADES:
        s = DiscreteForm.basis(k, blade)
        got = hodge_star(hodge_star(s))
        r = len(blade)
        want = DiscreteForm.basis(tuple(x + 1 for x in k), blade,
                                  (-1) ** (r + 1))
        if got != want:
            failures += 1
    return _max_le(failures, 0.5)


def check_star_inverse(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(5):
        w = random_form(rng, degree, win)
        worst = max(worst, (hodge_star_inverse(hodge_star(w)) - w).max_norm())
    return _max_le(worst, cfg.tol)


def check_adjointness(cfg, rng):
    # (d u, v) = (u, delta v) with a one-cell margin inside the window
    outer = Window(cfg.window)
    inner_n = tuple(x - 1 for x in cfg.window)
    worst = 0.0
    for degree in range(4):
        for _ in range(5):
            u = DiscreteForm(degree, {
                (k, dirs): _rand_complex(rng)
                for k in itertools.product(*(range(2, x + 1) for x in inner_n))
                for dirs in itertools.combinations(AXES, degree)
            })
            v = DiscreteForm(degree + 1, {
                (k, dirs): _rand_complex(rng)
                for k in itertools.product(*(range(2, x + 1) for x in inner_n))
                for dirs in itertools.combinations(AXES, degree + 1)
            })
            lhs = inner_product(coboundary(u), v, outer)
            rhs = inner_product(u, codifferential(v), outer)
            worst = max(worst, abs(lhs - rhs))
    return _max_le(worst, cfg.tol)


def check_codifferential_star_route(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(1, 5):
        w = random_form(rng, degree, win)
        via_star = ((-1) ** degree * 1) * hodge_star_inverse(
            coboundary(hodge_star(w))
        )
        worst = max(worst, (codifferential(w) - via_star).max_norm())
    return _max_le(worst, cfg.tol)


def check_star_d_star_shift(cfg, rng):
    # star.d.star equals the codifferential read at the all-axes successor
    win = Window(cfg.window)
    worst = 0.0
    for degree in range(1, 5):
        w = random_form(rng, degree, win)
        got = star_d_star(w)
        want = codifferential(w)
        shifted = DiscreteForm(
            degree - 1,
            {(tau_all(k), d): c for (k, d), c in want.items()},
        )
        worst = max(worst, (got - shifted).max_norm())
    return _max_le(worst, cfg.tol)


def check_clifford_anticommutators(cfg, rng):
    win = Window((3, 3, 3, 3))
    x = unit_form((), win)
    failures = 0
    for mu in AXES:
        for nu in AXES:
            e_mu = unit_form((mu,), win)
            e_nu = unit_form((nu,), win)
            lhs = clifford_mul(e_mu, e_nu) + clifford_mul(e_nu, e_mu)
            g = 2 * METRIC[mu] if mu == nu else 0
            if lhs != g * x:
                failures += 1
    return _max_le(failures, 0.5)


def check_clifford_associativity(cfg, rng):
    k = (1, 1, 1, 1)
    failures = 0
    forms = {
        b: InhomogeneousForm.from_form(DiscreteForm.basis(k, b))
        for b in ALL_BLADES
    }
    for a in ALL_BLADES:
        for b in ALL_BLADES:
            ab = clifford_mul(forms[a], forms[b])
            for c in ALL_BLADES:
                lhs = clifford_mul(ab, forms[c])
                rhs = clifford_mul(forms[a], clifford_mul(forms[b], forms[c]))
                if lhs != rhs:
                    failures += 1
    return _max_le(failures, 0.5)


def check_clifford_unit(cfg, rng):
    win = Window((3, 3, 3, 3))
    x = unit_form((), win)
    A = InhomogeneousForm.from_coeffs({
        (k, b): _rand_complex(rng) for k in win.sites() for b in ALL_BLADES
    })
    worst = max((clifford_mul(x, A) - A).max_norm(),
                (clifford_mul(A, x) - A).max_norm())
    return _max_le(worst, cfg.tol)


def check_decomposition(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for _ in range(5):
        O = random_inhomogeneous(rng, win)
        want = coboundary(O) + codifferential(O)
        worst = max(worst, (decomposition(O) - want).max_norm())
    return _max_le(worst, cfg.tol)


def check_dk_system(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for _ in range(3):
        O = random_inhomogeneous(rng, win)
        table = dk_system_residual(O, cfg.mass)
        pipeline = dirac_kahler_apply(O) - cfg.mass * O
        worst = max(worst, (table - pipeline).max_norm())
    return _max_le(worst, cfg.tol)


def check_joyce_system(cfg, rng):
    win = Window(cfg.window)
    worst = 0.0
    for _ in range(3):
        O = random_even(rng, win)
        table = joyce_system_residual(O, cfg.mass)
        pipeline = joyce_residual_form(O, cfg.mass)
        # the table covers the odd targets; compare those grades
        for r in (1, 3):
            worst = max(worst, (table.part(r) - pipeline.part(r)).max_norm())
    return _max_le(worst, cfg.tol)


IDENTITY_CHECKS = {
    "sec2-nilpotency-d": check_nilpotency_d,
    "sec2-nilpotency-delta": check_nilpotency_delta,
    "eq2.6-pairing-duality": check_pairing_duality,
    "eq2.15-leibniz": check_leibniz,
    "eq2.16-star-defining": check_star_defining,
    "sec2-star-double": check_star_double,
    "sec2-star-inverse": check_star_inverse,
    "eq2.25-adjointness": check_adjointness,
    "eq2.26-codifferential-star": check_codifferential_star_route,
    "sec2-star-d-star-shift": check_star_d_star_shift,
    "eq3.5-clifford-anticommutators": check_clifford_anticommutators,
    "sec3-clifford-associativity": check_clifford_associativity,
    "sec3-clifford-unit": check_clifford_unit,
    "eq3.6-decomposition": check_decomposition,
    "eq3.3-dk-system-consistency": check_dk_system,
    "eq3.9-joyce-system-consistency": check_joyce_system,
}


# ---------------------------------------------------------------------------
# plane-wave checks

def _random_amplitudes(rng) -> EvenAmplitudes:
    return EvenAmplitudes(*[_rand_complex(rng) for _ in range(8)])


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
        for name, fn in IDENTITY_CHECKS.items():
            value, threshold, detail = fn(cfg, rng)
            checks.append(_check_record(name, value, threshold, detail=detail))
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
    run.add_argument("--tol", type=float, default=None,
                     help="tolerance (default 1e-10; env DKJOYCE_TOL)")
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
    if args.tol is not None:
        tol = args.tol
    else:
        env = os.environ.get("DKJOYCE_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                raise ConfigInvalid(f"DKJOYCE_TOL is not a number: {env!r}")
        else:
            tol = DEFAULT_TOL
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
        tol=tol, perturb=args.perturb, grid=grid,
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
