"""Print the per-operator layer table: ns per stored input coefficient.

    python3 tools/layer_table.py

Run from the root of a source checkout; dkjoyce is imported from ``src/``.
Each operator runs on seeded random forms (integer-valued complex
coefficients on every blade and site of an n^4 window at origin (1,1,1,1),
drawn by ``dkjoyce.cli``'s seeded generators) at n = 4, 8 and 12, and its
time is the best of 20 calls (5 at 12^4) divided by the number of stored
(nonzero) coefficients of its form arguments.  ``psi_form`` and
``build_phi`` take no form, so they are divided by the coefficients of the
form they return.  Each operator and window is timed in a fresh process,
one at a time: in one process the allocator state left by the operators
timed before moved unchanged code by up to 60 % at 12^4.  The script has
no options; its output is a Markdown table.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import dkjoyce as dk  # noqa: E402
from dkjoyce.cli import random_even, random_form, \
    random_inhomogeneous  # noqa: E402

SEED = 16
WINDOWS = ((4, 20), (8, 20), (12, 5))  # (extent, repeats)
MASS = 1.5
MOMENTUM = (0.3, 0.5, -0.25, 0.2)
AMPLITUDES = dk.EvenAmplitudes(*(complex(i + 1, -i) for i in range(8)))


def operators(n: int) -> list:
    """(name, call, forms it counts) for every operator on an n^4 window."""
    rng = np.random.default_rng(SEED)
    win = dk.Window((n,) * 4)
    w1, w2 = random_form(rng, 1, win), random_form(rng, 2, win)
    O, P = random_inhomogeneous(rng, win), random_inhomogeneous(rng, win)
    Oev = random_even(rng, win)
    p, m = MOMENTUM, MASS
    return [
        ("forward_diff (grade 2)", lambda: dk.forward_diff(w2, 1), [w2]),
        ("backward_diff (grade 2)", lambda: dk.backward_diff(w2, 1), [w2]),
        ("coboundary", lambda: dk.coboundary(O), [O]),
        ("codifferential", lambda: dk.codifferential(O), [O]),
        ("hodge_star (grade 2)", lambda: dk.hodge_star(w2), [w2]),
        ("cup (grade 1, grade 2)", lambda: dk.cup(w1, w2), [w1, w2]),
        ("clifford_mul", lambda: dk.clifford_mul(O, P), [O, P]),
        ("blade_lmul (e01, scalar)", lambda: dk.blade_lmul((0, 1), O, 0.5),
         [O]),
        ("blade_rmul (e0, scalar)", lambda: dk.blade_rmul(O, (0,), m), [O]),
        ("decomposition", lambda: dk.decomposition(O), [O]),
        ("dirac_kahler_apply", lambda: dk.dirac_kahler_apply(O), [O]),
        ("dk_residual", lambda: dk.dk_residual(O, m, win), [O]),
        ("joyce_residual_form (even)", lambda: dk.joyce_residual_form(Oev, m),
         [Oev]),
        ("dk_system_residual", lambda: dk.dk_system_residual(O, m), [O]),
        ("joyce_system_residual (even)",
         lambda: dk.joyce_system_residual(Oev, m), [Oev]),
        ("eigen_relation_residual (even)",
         lambda: dk.eigen_relation_residual(Oev, p, win), [Oev]),
        ("psi_form", lambda: dk.psi_form("01", p, win), None),
        ("build_phi", lambda: dk.build_phi(AMPLITUDES, p, win), None),
    ]


def stored(form) -> int:
    """Nonzero coefficients of a discrete or inhomogeneous form."""
    parts = getattr(form, "parts", (form,))
    return sum(int(np.count_nonzero(w.data)) for w in parts)


def ns_per_coeff(n: int, index: int, repeats: int) -> float:
    """Best time of operator ``index`` on an n^4 window over ``repeats``
    calls, per stored coefficient."""
    _name, call, forms = operators(n)[index]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    coeffs = sum(map(stored, forms)) if forms is not None else stored(out)
    return best * 1e9 / coeffs


def main() -> int:
    names = [name for name, _call, _forms in operators(1)]
    with multiprocessing.get_context("spawn").Pool(
            1, maxtasksperchild=1) as pool:
        columns = [dict(zip(names, pool.starmap(
            ns_per_coeff, [(n, i, repeats) for i in range(len(names))],
            chunksize=1))) for n, repeats in WINDOWS]
    print(f"ns per stored input coefficient, best of "
          f"{'/'.join(str(r) for _n, r in WINDOWS)} (seed {SEED}; Python "
          f"{platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs)\n")
    print("| operator | " + " | ".join(f"{n}⁴" for n, _r in WINDOWS) + " |")
    print("|---|" + "---:|" * len(WINDOWS))
    for name in names:
        print(f"| `{name}` | "
              + " | ".join(f"{c[name]:.1f}" for c in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
