"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints ``ACCEPTANCE nn (...): PASS|FAIL`` and asserts.  Criteria
are checked at their stated tolerances; failures carry the measured values.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import dkjoyce
from dkjoyce import (
    ALL_BLADES,
    Chain,
    DiscreteForm,
    InhomogeneousForm,
    Window,
    amplitude_matrix,
    boundary,
    build_phi,
    clifford_mul,
    coboundary,
    codifferential,
    constraint_minus_from_plus,
    constraint_plus_from_minus,
    cup,
    decomposition,
    dirac_kahler_apply,
    dispersion_gap,
    dk_system_residual,
    eigen_relation_residual,
    family_minus,
    family_plus,
    hodge_star,
    hodge_star_inverse,
    inner_product,
    joyce_residual,
    joyce_residual_form,
    joyce_system_residual,
    pair,
    psi_form,
    solve_p0,
    split_even,
    star_d_star,
    unit_form,
    EvenAmplitudes,
    ResidualReport,
    derive_amplitude_matrix,
)
from dkjoyce.complex4 import AXES, tau_all
from dkjoyce.planewave import family_amplitude_matrix

from helpers import (
    family_residual_oracle,
    margin_form,
    rand_complex,
    rand_gaussian,
    random_even,
    random_form,
    random_inhomogeneous,
    rng_for,
    sparse_form,
)

ALL_DIRS = [d for r in range(5) for d in itertools.combinations(AXES, r)]


def report(n, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n:02d} ({desc}): {status}")
    assert not failures, failures[:5]


def test_criterion_01_nilpotency():
    failures = []
    rng = rng_for(101)
    win = Window((5, 5, 5, 5))
    for degree in range(4):
        for _ in range(200):
            w = sparse_form(rng, degree, win, nnz=40)
            worst = coboundary(coboundary(w)).max_norm()
            if worst >= 1e-12:
                failures.append(("dd", degree, worst))
    for degree in range(1, 5):
        for _ in range(200):
            w = sparse_form(rng, degree, win, nnz=40)
            worst = codifferential(codifferential(w)).max_norm()
            if worst >= 1e-12:
                failures.append(("deltadelta", degree, worst))
    # exact-scalar spot checks
    for degree in range(4):
        w = random_form(rng, degree, Window((3, 3, 3, 3)),
                        scalar=rand_gaussian)
        if not coboundary(coboundary(w)).is_zero():
            failures.append(("dd-exact", degree))
    for degree in range(1, 5):
        w = random_form(rng, degree, Window((3, 3, 3, 3)),
                        scalar=rand_gaussian)
        if not codifferential(codifferential(w)).is_zero():
            failures.append(("deltadelta-exact", degree))
    report(1, "nilpotency of d and delta", failures)


def test_criterion_02_duality_adjointness():
    failures = []
    rng = rng_for(102)
    win = Window((4, 4, 4, 4))
    # chain-cochain duality, exact scalars
    for degree in range(4):
        for _ in range(10):
            a = Chain({
                (k, dirs): rand_gaussian(rng)
                for k in win.sites()
                for dirs in itertools.combinations(AXES, degree + 1)
            })
            w = random_form(rng, degree, win, scalar=rand_gaussian)
            if pair(boundary(a), w) != pair(a, coboundary(w)):
                failures.append(("duality", degree))
    # window adjointness, all degree pairs, one-cell margin
    outer = Window((5, 5, 5, 5))
    for degree in range(4):
        u = margin_form(rng, degree, outer)
        v = margin_form(rng, degree + 1, outer)
        gap = abs(inner_product(coboundary(u), v, outer)
                  - inner_product(u, codifferential(v), outer))
        if gap >= 1e-12:
            failures.append(("adjointness", degree, gap))
        ug = margin_form(rng, degree, outer, scalar=rand_gaussian)
        vg = margin_form(rng, degree + 1, outer, scalar=rand_gaussian)
        if inner_product(coboundary(ug), vg, outer) != \
                inner_product(ug, codifferential(vg), outer):
            failures.append(("adjointness-exact", degree))
    report(2, "pairing duality and window adjointness", failures)


def test_criterion_03_leibniz():
    failures = []
    rng = rng_for(103)
    win = Window((3, 3, 3, 3))
    for r in range(5):
        for q in range(5 - r):
            for _ in range(100):
                u = sparse_form(rng, r, win, nnz=8, scalar=rand_gaussian)
                v = sparse_form(rng, q, win, nnz=8, scalar=rand_gaussian)
                lhs = coboundary(cup(u, v))
                rhs = cup(coboundary(u), v) \
                    + (-1) ** r * cup(u, coboundary(v))
                if lhs != rhs:
                    failures.append((r, q))
    report(3, "Leibniz rule for the cup product", failures)


def test_criterion_04_star_algebra():
    failures = []
    k = (2, 3, 4, 5)
    for dirs in ALL_DIRS:
        s = DiscreteForm.basis(k, dirs)
        # defining relation: s cup *s = signature * volume at s's site
        prod = cup(s, hodge_star(s))
        want = -1 if 0 in dirs else 1
        if dict(prod.items()) != {(k, (0, 1, 2, 3)): want}:
            failures.append(("defining", dirs))
        # double star
        r = len(dirs)
        if hodge_star(hodge_star(s)) != \
                DiscreteForm.basis(tau_all(k), dirs, (-1) ** (r + 1)):
            failures.append(("double", dirs))
        # inverse both ways
        if hodge_star_inverse(hodge_star(s)) != s:
            failures.append(("inv-left", dirs))
        if hodge_star(hodge_star_inverse(s)) != s:
            failures.append(("inv-right", dirs))
    report(4, "Hodge star table, double star, inverse", failures)


def test_criterion_05_codifferential_consistency():
    failures = []
    rng = rng_for(105)
    win = Window((3, 3, 3, 3))
    for degree in range(1, 5):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        via = (-1) ** degree * hodge_star_inverse(
            coboundary(hodge_star(w)))
        if codifferential(w) != via:
            failures.append(("star-route", degree))
        got = star_d_star(w)
        want = codifferential(w)
        shifted = DiscreteForm(
            degree - 1, {(tau_all(k), d): c for (k, d), c in want.items()}
        )
        if got != shifted:
            failures.append(("shift", degree))
    report(5, "codifferential vs star route and shift remark", failures)


def test_criterion_06_clifford_relations():
    failures = []
    win = Window((3, 3, 3, 3))
    metric = {0: 1, 1: -1, 2: -1, 3: -1}
    x = unit_form((), win)
    for mu in AXES:
        for nu in AXES:
            lhs = clifford_mul(unit_form((mu,), win), unit_form((nu,), win)) \
                + clifford_mul(unit_form((nu,), win), unit_form((mu,), win))
            g = 2 * metric[mu] if mu == nu else 0
            if lhs != g * x:
                failures.append(("anticommutator", mu, nu))
    k = (1, 1, 1, 1)
    forms = {
        b: InhomogeneousForm.from_form(DiscreteForm.basis(k, b))
        for b in ALL_BLADES
    }
    for a, b, c in itertools.product(ALL_BLADES, repeat=3):
        lhs = clifford_mul(clifford_mul(forms[a], forms[b]), forms[c])
        rhs = clifford_mul(forms[a], clifford_mul(forms[b], forms[c]))
        if lhs != rhs:
            failures.append(("assoc", a, b, c))
    rng = rng_for(106)
    A = InhomogeneousForm.from_coeffs({
        (kk, bb): rand_complex(rng)
        for kk in win.sites() for bb in ALL_BLADES
    })
    if clifford_mul(x, A) != A or clifford_mul(A, x) != A:
        failures.append(("unit",))
    report(6, "Clifford anticommutators, associativity, unit", failures)


def test_criterion_07_decomposition():
    failures = []
    rng = rng_for(107)
    win = Window((4, 4, 4, 4))
    for i in range(100):
        parts = [sparse_form(rng, r, win, nnz=10, scalar=rand_gaussian)
                 for r in range(5)]
        O = InhomogeneousForm(parts)
        if decomposition(O) != coboundary(O) + codifferential(O):
            failures.append(i)
    report(7, "Clifford-difference decomposition", failures)


def test_criterion_08_component_systems():
    failures = []
    rng = rng_for(108)
    win = Window((4, 4, 4, 4))
    m = 1.0
    for i in range(5):
        O = random_inhomogeneous(rng, win)
        gap = (dk_system_residual(O, m)
               - (dirac_kahler_apply(O) - m * O)).max_norm()
        if gap >= 1e-12:
            failures.append(("dk", i, gap))
        E = random_even(rng, win)
        table = joyce_system_residual(E, m)
        pipeline = joyce_residual_form(E, m)
        for r in (1, 3):
            gap = (table.part(r) - pipeline.part(r)).max_norm()
            if gap >= 1e-12:
                failures.append(("joyce", i, r, gap))
    report(8, "per-site component systems vs operator pipeline", failures)


def test_criterion_09_eigen_relation():
    failures = []
    rng = rng_for(109)
    win = Window((8, 8, 8, 8))
    for i in range(50):
        A = EvenAmplitudes(*[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for _ in range(8)])
        p = tuple(rng.uniform(-2, 2, 4))
        phi = build_phi(A, p, win)
        res = eigen_relation_residual(phi, p, win)
        if res >= 1e-10 * max(phi.max_norm(), 1.0):
            failures.append((i, p, res))
    report(9, "plane-wave eigen relation", failures)


def test_criterion_10_families():
    # The families solve the Joyce equation exactly only at rest.  At nonzero
    # spatial momentum each column leaves psi_L(k) S_L at every interior site
    # (helpers.family_symbols), so the residual is checked against that
    # closed form; at rest S_L is exactly zero and the check is against zero.
    failures = []
    win = Window((6, 6, 6, 6))
    m = 1.0
    momenta = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.5, 0.5)]
    for spatial in momenta:
        for branch in ("+", "-"):
            p = (solve_p0(spatial, m, branch),) + spatial
            for name, builder, denom in (
                ("plus", family_plus, m - p[0]),
                ("minus", family_minus, m + p[0]),
            ):
                if abs(denom) <= 1e-9:
                    continue
                # the oracle reads the family patterns, so pin them first
                null = np.max(np.abs(derive_amplitude_matrix(p, m)
                                     @ family_amplitude_matrix(name, p, m)))
                if null >= 1e-10:
                    failures.append((name, "nullspace", p, null))
                F = builder((1, 1, 1, 1), p, m, win)
                expected = family_residual_oracle(name, (1, 1, 1, 1), p, m,
                                                  win)
                if any(spatial):
                    res = ResidualReport.from_form(
                        joyce_residual_form(F, m) - expected, win
                    ).interior_max
                else:
                    if not expected.is_zero():
                        failures.append((name, "oracle-at-rest", p))
                    res = joyce_residual(F, m, win).interior_max
                if res >= 1e-10:
                    failures.append((name, p, res))
                # perturbed energy must break the solution
                pp = (p[0] + 0.1,) + spatial
                Fp = builder((1, 1, 1, 1), pp, m, win,
                             check_dispersion=False)
                resp = joyce_residual(Fp, m, win).interior_max
                if resp < 1e-2 * Fp.max_norm():
                    failures.append((name, "perturb", p, resp))
            # amplitude matrix nullity 4 iff dispersion holds
            sv = np.linalg.svd(amplitude_matrix(p, m), compute_uv=False)
            if int(np.sum(sv < 1e-8 * max(sv[0], 1.0))) != 4:
                failures.append(("nullity-on", p))
            po = (p[0] + 0.3,) + spatial
            sv = np.linalg.svd(amplitude_matrix(po, m), compute_uv=False)
            if int(np.sum(sv < 1e-8 * max(sv[0], 1.0))) != 0:
                failures.append(("nullity-off", po))
    report(10, "family solutions and nullity", failures)


def test_criterion_11_constraint_maps():
    failures = []
    rng = rng_for(111)
    m = 1.0
    win = Window((4, 4, 4, 4))
    for spatial in ((0.5, 0.25, -0.75), (1.0, 1.0, 1.0)):
        for branch in ("+", "-"):
            p = (solve_p0(spatial, m, branch),) + spatial
            coeffs = {}
            for k in win.sites():
                for d in ((), (1, 2), (1, 3), (2, 3)):
                    coeffs[(k, d)] = rand_complex(rng)
            plus = InhomogeneousForm.from_coeffs(coeffs)
            minus = constraint_minus_from_plus(plus, p, m)
            back = constraint_plus_from_minus(minus, p, m)
            if (back - plus).max_norm() >= 1e-10:
                failures.append(("round-trip", p))
            forth = constraint_minus_from_plus(
                constraint_plus_from_minus(minus, p, m), p, m)
            if (forth - minus).max_norm() >= 1e-10:
                failures.append(("round-trip-mirror", p))
            # family split parts satisfy the constraint
            for which, builder in (("plus", family_plus),
                                   ("minus", family_minus)):
                denom = m - p[0] if which == "plus" else m + p[0]
                if abs(denom) <= 1e-9:
                    continue
                F = builder((1, 1j, -2, 0.5), p, m, win)
                fp, fm = split_even(F)
                gap = (constraint_minus_from_plus(fp, p, m) - fm).max_norm()
                if gap >= 1e-10:
                    failures.append(("family-constraint", which, p, gap))
            # minus family matched by plus family via a solved 4x4 map
            FP = family_amplitude_matrix("plus", p, m)
            FM = family_amplitude_matrix("minus", p, m)
            C, _res, rank, _sv = np.linalg.lstsq(FP, FM, rcond=None)
            if rank != 4 or np.max(np.abs(FP @ C - FM)) >= 1e-10:
                failures.append(("equivalence", p))
    report(11, "constraint-map round trips and family equivalence", failures)


def test_criterion_12_cli(tmp_path):
    failures = []
    start = time.monotonic()
    # the child imports the package the tests import, installed or not
    src = os.path.dirname(os.path.dirname(dkjoyce.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def cli(*args, out):
        """Run ``dkjoyce.cli run``; the JSON report if it exits 0, else None."""
        proc = subprocess.run(
            [sys.executable, "-m", "dkjoyce.cli", "run", *args,
             "--format", "json", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            failures.append(("exit", args[1], proc.returncode,
                             proc.stderr[-200:]))
            return None
        return out.read_bytes()

    outs = [cli("--suite", "identities", "--window", "4,4,4,4",
                "--seed", "42", out=tmp_path / name)
            for name in ("a.json", "b.json")]
    if outs[0] != outs[1]:
        failures.append(("determinism",))
    scan = cli("--suite", "dispersion-scan", "--mass", "1", "--grid", "0,0.5",
               out=tmp_path / "scan.json")
    rows = [] if scan is None else json.loads(scan)["scan"]
    if len(rows) != 16:
        failures.append(("rows", len(rows)))
    # each row's residual is the closed form of criterion 10 for the family
    # the scan uses on that branch, at the default 4^4 window; zero at rest
    scan_win = Window((4, 4, 4, 4))
    for row in rows:
        spatial = (row["p1"], row["p2"], row["p3"])
        want = 0.0
        if any(spatial):
            which = "minus" if row["branch"] == "+" else "plus"
            expected = family_residual_oracle(
                which, (1, 1, 1, 1), (row["p0"],) + spatial, 1.0, scan_win)
            want = ResidualReport.from_form(expected, scan_win).interior_max
        if abs(row["residual_interior_max"] - want) >= 1e-10:
            failures.append(
                ("scan-residual", spatial, row["branch"],
                 row["residual_interior_max"], want)
            )
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(12, "CLI determinism and dispersion scan", failures)
