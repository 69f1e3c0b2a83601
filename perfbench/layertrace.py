"""Outside-in tracing of dkjoyce's layers.

Every function listed in ``SPANS`` is replaced, for the duration of a traced
pass, by a wrapper that records a span (name, parent span, start, end) and
counts the stored coefficients the call works on.  The wrapper is bound in
every ``dkjoyce`` module namespace that holds the original object, so calls
from inside the package are caught too; methods are wrapped on their class.
A listed name that cannot be found or rebound stops the run with
:class:`TraceError`, so a refactor cannot make a layer silently read zero.

Self time is a span's duration minus the time its child spans' wrappers
took; inclusive time leaves out only the tracer's own work (coefficient
counting, bookkeeping) below the span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

from dkjoyce import Chain, DiscreteForm, InhomogeneousForm

# layer -> [(public name, what to count)]; "in" counts the stored
# coefficients of the form arguments, "out" those of the returned form.
SPANS = {
    "complex4": [("boundary", "in"), ("pair", "in")],
    "forms": [
        ("forward_diff", "in"), ("backward_diff", "in"),
        ("coboundary", "in"), ("codifferential", "in"), ("cup", "in"),
        ("hodge_star", "in"), ("hodge_star_inverse", "in"),
        ("star_d_star", "in"), ("inner_product", "in"), ("laplacian", "in"),
        ("DiscreteForm.__add__", "in"), ("DiscreteForm.__sub__", "in"),
        ("DiscreteForm.__rmul__", "in"), ("DiscreteForm.__neg__", "in"),
        ("DiscreteForm.max_norm", "in"),
        ("InhomogeneousForm.__add__", "in"), ("InhomogeneousForm.__sub__", "in"),
        ("InhomogeneousForm.__rmul__", "in"),
        ("InhomogeneousForm.max_norm", "in"),
        ("InhomogeneousForm.from_coeffs", "out"),
    ],
    "clifford": [
        ("clifford_mul", "in"), ("blade_lmul", "in"), ("blade_rmul", "in"),
        ("blade_product", "in"), ("clifford_basis_product", "in"),
        ("grade_project", "in"), ("unit_form", "out"),
    ],
    "dirac_joyce": [
        ("decomposition", "in"), ("dirac_kahler_apply", "in"),
        ("dk_residual", "in"), ("dk_system_residual", "in"),
        ("joyce_apply_rhs", "in"), ("joyce_residual", "in"),
        ("joyce_residual_form", "in"), ("joyce_system_residual", "in"),
        ("ResidualReport.from_form", "in"),
    ],
    "planewave": [
        ("psi_form", "out"), ("build_phi", "out"), ("family_plus", "out"),
        ("family_minus", "out"), ("eigen_relation_residual", "in"),
        ("eigen_difference_check", "in"), ("split_even", "in"),
        ("constraint_minus_from_plus", "in"),
        ("constraint_plus_from_minus", "in"), ("amplitude_matrix", "in"),
        ("derive_amplitude_matrix", "in"),
        ("algebraic_system_residual", "in"), ("solve_p0", "in"),
        ("dispersion_gap", "in"), ("wave_component", "in"),
        ("PlaneWaveSpec.from_dict", "in"), ("PlaneWaveSpec.build", "out"),
    ],
    "serialize": [
        ("form_to_records", "in"), ("records_to_form", "records"),
        ("records_to_discrete_form", "records"), ("dump_form", "in"),
        ("load_form", "in"),
    ],
    "cli": [
        ("main", "in"), ("run_suite", "in"), ("config_from_args", "in"),
        ("build_parser", "in"), ("format_report", "in"),
        ("random_form", "out"), ("random_inhomogeneous", "out"),
        ("random_even", "out"), ("planewave_checks", "in"),
        ("dispersion_scan", "in"),
    ],
}

# per-operator metrics: metric prefix -> span names whose times and
# coefficients it sums
OPERATORS = {
    "forms.coboundary": ("forms.coboundary",),
    "forms.codifferential": ("forms.codifferential",),
    "forms.cup": ("forms.cup",),
    "forms.hodge_star": ("forms.hodge_star", "forms.hodge_star_inverse"),
    "forms.diff": ("forms.forward_diff", "forms.backward_diff"),
    "clifford.clifford_mul": ("clifford.clifford_mul",),
    "clifford.blade_mul": ("clifford.blade_lmul", "clifford.blade_rmul"),
    "dirac_joyce.decomposition": ("dirac_joyce.decomposition",),
    "dirac_joyce.system": ("dirac_joyce.dk_system_residual",
                           "dirac_joyce.joyce_system_residual"),
    "dirac_joyce.report": ("dirac_joyce.ResidualReport.from_form",),
    "planewave.psi_form": ("planewave.psi_form",),
    "planewave.build": ("planewave.build_phi", "planewave.family_plus",
                        "planewave.family_minus"),
    "serialize.dump": ("serialize.form_to_records",),
    "serialize.load": ("serialize.records_to_form",),
}

ARITH = tuple(f"forms.{name}" for name, _count in SPANS["forms"]
              if "." in name)


class TraceError(RuntimeError):
    """A listed function is missing, or tracing changed what a pass does."""


def _size(x) -> int:
    """Stored coefficients of a form or chain, counted through its public API."""
    if isinstance(x, (DiscreteForm, InhomogeneousForm)):
        return sum(1 for _ in x.items())
    if isinstance(x, Chain):
        return len(x.terms)
    return 0


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self):
        self._bindings = []
        self.reset()

    def reset(self):
        self.spans = []
        # name -> [calls, coeffs, self seconds, inclusive seconds]
        self.stats = {}
        # per open span: [child wrapper seconds, tracer seconds below]
        self._stack = [[0.0, 0.0]]
        self._ids = [-1]

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = perf_counter()
            coeffs = 0
            if count == "in":
                coeffs = sum(map(_size, args)) + sum(map(_size, kwargs.values()))
            elif count == "records":
                coeffs = len(args[0])
            stack, ids = self._stack, self._ids
            frame = [0.0, 0.0]
            sid = len(self.spans)
            self.spans.append(None)
            parent = ids[-1]
            stack.append(frame)
            ids.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                ids.pop()
                self.spans[sid] = (name, parent, t0, t1)
                if count == "out":
                    coeffs = _size(result)
                stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += coeffs
                stat[2] += (t1 - t0) - frame[0]
                stat[3] += (t1 - t0) - frame[1]
                w1 = perf_counter()
                up = stack[-1]
                up[0] += w1 - w0
                up[1] += frame[1] + (w1 - w0) - (t1 - t0)

        return traced

    def install(self):
        """Bind a wrapper for every listed function; raise if one is missing."""
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "dkjoyce" or n.startswith("dkjoyce.")]
        for layer, entries in SPANS.items():
            module = importlib.import_module(f"dkjoyce.{layer}")
            for qualname, count in entries:
                name = f"{layer}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                if owner is None:
                    raise TraceError(f"traced class of {name} not found")
                raw = (vars(owner).get(attr) if owner_name
                       else getattr(module, attr, None))
                if raw is None:
                    raise TraceError(f"traced function {name} not found")
                if isinstance(raw, classmethod):
                    self._bind(owner, attr, raw,
                               classmethod(self._wrap(name, raw.__func__, count)))
                    continue
                if not callable(raw):
                    raise TraceError(f"traced name {name} is not callable")
                wrapper = self._wrap(name, raw, count)
                if owner_name:
                    self._bind(owner, attr, raw, wrapper)
                    continue
                for mod in packages:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._bind(mod, key, raw, wrapper)
                if getattr(module, attr) is not wrapper:
                    raise TraceError(f"traced function {name} was not rebound")

    def _bind(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._bindings.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def layer_metrics(stats_runs: list, overhead_s: float) -> dict:
    """Per-layer metrics from the stats of one or more traced passes of the
    same case: counts from the first, times averaged over all of them."""
    counts = stats_runs[0]
    n = len(stats_runs)

    def total(names, field):
        if field < 2:
            return sum(counts.get(nm, (0, 0, 0, 0))[field] for nm in names)
        return sum(s.get(nm, (0, 0, 0.0, 0.0))[field]
                   for s in stats_runs for nm in names) / n

    out = {}
    for layer, entries in SPANS.items():
        names = [f"{layer}.{q}" for q, _count in entries]
        out[f"{layer}.calls"] = (total(names, 0), "count")
        out[f"{layer}.self_s"] = (total(names, 2), "s")
        out[f"{layer}.coeffs"] = (total(names, 1), "count")
    for prefix, names in OPERATORS.items():
        coeffs = total(names, 1)
        ns = total(names, 3) * 1e9 / coeffs if coeffs else 0.0
        out[f"{prefix}.ns_per_coeff"] = (ns, "ns/coeff")
    out["forms.arith.self_s"] = (total(ARITH, 2), "s")
    out["clifford.clifford_mul.calls"] = (total(("clifford.clifford_mul",), 0),
                                          "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
