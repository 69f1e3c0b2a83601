"""The benchmark's three workloads.

Each workload turns a benchmark seed into a few *cases* (the inputs handed
to dkjoyce).  A *pass* over a case is a fixed list of named *steps*, each a
call sequence through the public API that is timed on its own.  What the
steps return is reduced to a list of operation outputs, which are compared
with the reference recorded in ``perfbench/reference``.

Inputs come from a fixed pool of recorded cases, so that every seed has a
reference: a seed picks ``CASES_PER_RUN`` of the development cases, and the
hold-out seed picks cases that no other seed reaches.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import dkjoyce as dk
from dkjoyce import DiscreteForm, GaussianRational, InhomogeneousForm, Window
from dkjoyce import cli

DEV_CASES = tuple(range(16))
HOLDOUT_CASES = (16, 17, 18)
HOLDOUT_SEED = 9973
CASES_PER_RUN = 3

REL_TOL = 1e-8
ABS_TOL = 1e-9

AMPLITUDE_NAMES = ("alpha0", "alpha01", "alpha02", "alpha03",
                   "alpha12", "alpha13", "alpha23", "alpha4")


def case_ids(seed: int) -> list:
    """Case numbers a benchmark seed runs, in pass order."""
    if seed == HOLDOUT_SEED:
        return list(HOLDOUT_CASES)
    return random.Random(seed).sample(DEV_CASES, CASES_PER_RUN)


def _run_cli(argv, out_path):
    return cli.main(list(argv) + ["--format", "json", "--out", out_path])


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# identities: the call-heavy small-form path

class Identities:
    """``dkjoyce run --suite identities`` at window 4^4, one CLI seed per case."""

    name = "identities"

    def make_case(self, case_id: int) -> dict:
        return {"id": case_id, "argv": [
            "run", "--suite", "identities", "--window", "4,4,4,4",
            "--seed", str(case_id)]}

    def steps(self, case, workdir):
        out = os.path.join(workdir, "identities.json")
        return [("cli identities", functools.partial(_run_cli, case["argv"], out))]

    def outputs(self, case, results, workdir):
        report = _read_report(os.path.join(workdir, "identities.json"))
        return [{"op": "cli identities", "exit": results[0], "report": report}]


# ---------------------------------------------------------------------------
# waves: the plane-wave pipeline on large windows

class Waves:
    """Dispersion scan at 6^4, plane-wave suite at 8^4 on both energy
    branches, and serialize round trips of two 8^4 wave forms."""

    name = "waves"

    def make_case(self, case_id: int) -> dict:
        rng = random.Random(f"waves:{case_id}")
        m = rng.choice((0.5, 1.0, 1.5))
        g = rng.choice((0.25, 0.5, 0.75))
        spatial = [rng.choice((-1, 1)) * rng.randint(5, 95) / 100
                   for _ in range(3)]
        spatial_arg = ",".join(repr(x) for x in spatial)
        cli_runs = [("scan", [
            "run", "--suite", "dispersion-scan", "--perturb",
            "--window", "6,6,6,6", "--grid", repr(g), "--mass", repr(m)])]
        for branch in ("+", "-"):
            cli_runs.append((f"planewave {branch}", [
                "run", "--suite", "planewave", "--window", "8,8,8,8",
                f"--spatial={spatial_arg}", "--branch", branch,
                "--mass", repr(m), "--seed", str(case_id)]))
        amps = {n: [rng.randint(-9, 9), rng.randint(-9, 9)]
                for n in AMPLITUDE_NAMES}
        # the minus family needs m + p0 != 0, so it rides the + branch
        specs = [{"m": m, "p": {"spatial": spatial, "mass": m, "branch": br},
                  "amplitudes": amps, "window": [8, 8, 8, 8], "family": fam}
                 for fam, br in (("explicit", "-"), ("minus", "+"))]
        return {"id": case_id, "cli": cli_runs, "specs": specs}

    def steps(self, case, workdir):
        steps = [(f"cli {label}", functools.partial(
                     _run_cli, argv, os.path.join(workdir, f"waves{i}.json")))
                 for i, (label, argv) in enumerate(case["cli"])]
        steps += [(f"serialize {spec['family']}",
                   functools.partial(self._round_trip, spec))
                  for spec in case["specs"]]
        return steps

    @staticmethod
    def _round_trip(spec):
        form = dk.PlaneWaveSpec.from_dict(spec).build()
        text = json.dumps(dk.form_to_records(form))
        return form, dk.records_to_form(json.loads(text)), text

    def outputs(self, case, results, workdir):
        codes, trips = results[:len(case["cli"])], results[len(case["cli"]):]
        ops = []
        for i, ((label, _argv), code) in enumerate(zip(case["cli"], codes)):
            report = _read_report(os.path.join(workdir, f"waves{i}.json"))
            rows = report.pop("scan", None) or []
            ops.append({"op": f"cli {label}", "exit": code, "report": report})
            ops.extend({"op": f"scan row {j}", "row": row}
                       for j, row in enumerate(rows))
        for spec, (form, back, text) in zip(case["specs"], trips):
            records = json.loads(text)
            keys = hashlib.sha256(json.dumps(
                [(r["degree"], r["k"], r["dirs"]) for r in records]
            ).encode()).hexdigest()
            ops.append({
                "op": f"serialize {spec['family']}",
                "roundtrip_equal": back == form,
                "records": len(records),
                "keys_sha256": keys,
                "sum_re": math.fsum(r["re"] for r in records),
                "sum_im": math.fsum(r["im"] for r in records),
                "sum_abs": math.fsum(math.hypot(r["re"], r["im"])
                                     for r in records),
            })
        return ops


# ---------------------------------------------------------------------------
# exact: the operator layers over GaussianRational

def _rand_exact(rng) -> GaussianRational:
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _exact_form(rng, degree: int, win: Window) -> DiscreteForm:
    return DiscreteForm(degree, {
        (k, dirs): _rand_exact(rng)
        for k in win.sites() for dirs in dk.ALL_BLADES if len(dirs) == degree
    })


class Exact:
    """Identities checked with exact ``==``/``is_zero()`` on 3^4 forms."""

    name = "exact"
    MASS = Fraction(3, 2)

    def make_case(self, case_id: int) -> dict:
        rng = random.Random(f"exact:{case_id}")
        win = Window((3, 3, 3, 3))
        u = [_exact_form(rng, r, win) for r in range(5)]
        v = [_exact_form(rng, r, win) for r in range(5)]
        even = [u[r] if r % 2 == 0 else DiscreteForm.zero(r) for r in range(5)]
        return {"id": case_id, "u": u, "v": v, "O": InhomogeneousForm(u),
                "P": InhomogeneousForm(v), "Oev": InhomogeneousForm(even)}

    def steps(self, case, workdir):
        u, v, O, P, Oev, m = (case["u"], case["v"], case["O"], case["P"],
                              case["Oev"], self.MASS)

        def nilpotency():
            ops = []
            for r in range(4):
                dw = dk.coboundary(u[r])
                ops.append((f"d.d degree {r}", dk.coboundary(dw).is_zero(), dw))
            for r in range(1, 5):
                sw = dk.codifferential(u[r])
                ops.append((f"delta.delta degree {r}",
                            dk.codifferential(sw).is_zero(), sw))
            return ops

        def leibniz():
            ops = []
            for r in range(5):
                for q in range(5 - r):
                    lhs = dk.coboundary(dk.cup(u[r], v[q]))
                    rhs = dk.cup(dk.coboundary(u[r]), v[q]) \
                        + (-1) ** r * dk.cup(u[r], dk.coboundary(v[q]))
                    ops.append((f"leibniz {r},{q}", lhs == rhs, lhs))
            return ops

        def star():
            ops = []
            for r in range(5):
                s = dk.hodge_star(u[r])
                ops.append((f"star inverse degree {r}",
                            dk.hodge_star_inverse(s) == u[r], s))
            return ops

        def decomposition():
            dec = dk.decomposition(O)
            return [("decomposition",
                     dec == dk.coboundary(O) + dk.codifferential(O), dec)]

        def systems():
            dk_table = dk.dk_system_residual(O, m)
            joyce_table = dk.joyce_system_residual(Oev, m)
            pipeline = dk.joyce_residual_form(Oev, m)
            return [("dk system", dk_table == dk.dirac_kahler_apply(O) - m * O,
                     dk_table),
                    ("joyce system", all(joyce_table.part(r) == pipeline.part(r)
                                         for r in (1, 3)), joyce_table)]

        def clifford():
            ab = dk.clifford_mul(O, P)
            left = dk.clifford_mul(ab, Oev)
            return [("clifford associativity",
                     left == dk.clifford_mul(O, dk.clifford_mul(P, Oev)), ab)]

        return [(fn.__name__, fn) for fn in (
            nilpotency, leibniz, star, decomposition, systems, clifford)]

    def outputs(self, case, results, workdir):
        return [{"op": name, "holds": bool(holds),
                 "exact_scalars": all(isinstance(c, GaussianRational)
                                      for _key, c in form.items()),
                 "sha256": exact_digest(form)}
                for ops in results for name, holds, form in ops]


def exact_digest(form) -> str:
    """Digest of the nonzero coefficients of an exact form, in key order."""
    rows = []
    for (k, dirs), c in form.items():
        if c == 0:
            continue
        if not isinstance(c, GaussianRational):
            c = GaussianRational(complex(c).real, complex(c).imag)
        rows.append((tuple(map(int, k)), tuple(map(int, dirs)),
                     c.re.numerator, c.re.denominator,
                     c.im.numerator, c.im.denominator))
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Identities(), Waves(), Exact())}


# ---------------------------------------------------------------------------
# comparison with the reference

def matches(ref, got, atol: float = ABS_TOL) -> bool:
    """Whether ``got`` agrees with ``ref`` on every field ``ref`` has.

    Floats agree to a relative tolerance, since a rewrite may reorder sums;
    inside a check record a value under the check's threshold is rounding
    noise, so the threshold widens the absolute tolerance.  Everything else
    (exit codes, statuses, counts, digests, flags) must be equal.  Fields
    that only ``got`` has are ignored.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return False
        threshold = ref.get("threshold")
        if isinstance(threshold, float):
            atol = max(atol, threshold)
        return all(k in got and matches(v, got[k], atol)
                   for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(matches(a, b, atol) for a, b in zip(ref, got)))
    if isinstance(ref, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=atol)
    return type(ref) is type(got) and ref == got
