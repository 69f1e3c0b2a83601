"""Discrete exterior/Clifford calculus on the 4D integer lattice.

Discrete forms stored as box arrays, with coboundary, codifferential, cup
product, Lorentz-signature Hodge star and Clifford multiplication; the discrete
Dirac-Kahler and Joyce equations as residual computations; discrete
plane-wave solution families; and a verification CLI (``dkjoyce run``).
"""

from .scalars import GaussianRational, I
from .complex4 import AXES, Chain, boundary, pair
from .forms import (
    DiscreteForm,
    InhomogeneousForm,
    NotAdmissible,
    Window,
    backward_diff,
    coboundary,
    codifferential,
    cup,
    forward_diff,
    hodge_star,
    hodge_star_inverse,
    inner_product,
    laplacian,
    star_d_star,
)
from .clifford import (
    ALL_BLADES,
    blade_lmul,
    blade_product,
    blade_rmul,
    clifford_basis_product,
    clifford_mul,
    grade_project,
    unit_form,
)
from .dirac_joyce import (
    NotEven,
    ResidualReport,
    decomposition,
    dirac_kahler_apply,
    dk_residual,
    dk_system_residual,
    joyce_apply_rhs,
    joyce_residual,
    joyce_residual_form,
    joyce_system_residual,
)
from .planewave import (
    DegenerateDenominator,
    DispersionViolated,
    EvenAmplitudes,
    PlaneWaveSpec,
    algebraic_system_residual,
    amplitude_matrix,
    build_phi,
    constraint_minus_from_plus,
    constraint_plus_from_minus,
    derive_amplitude_matrix,
    dispersion_gap,
    eigen_difference_check,
    eigen_relation_residual,
    family_minus,
    family_plus,
    psi_form,
    solve_p0,
    split_even,
    wave_component,
)
from .serialize import (
    SchemaError,
    dump_form,
    form_to_records,
    load_form,
    records_to_form,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "I",
    "AXES", "Chain", "boundary", "pair",
    "DiscreteForm", "InhomogeneousForm", "NotAdmissible", "Window",
    "backward_diff", "coboundary", "codifferential", "cup", "forward_diff",
    "hodge_star", "hodge_star_inverse", "inner_product", "laplacian",
    "star_d_star",
    "ALL_BLADES", "blade_lmul", "blade_product", "blade_rmul",
    "clifford_basis_product", "clifford_mul", "grade_project", "unit_form",
    "NotEven", "ResidualReport", "decomposition", "dirac_kahler_apply",
    "dk_residual", "dk_system_residual", "joyce_apply_rhs", "joyce_residual",
    "joyce_residual_form", "joyce_system_residual",
    "DegenerateDenominator", "DispersionViolated", "EvenAmplitudes",
    "PlaneWaveSpec",
    "algebraic_system_residual", "amplitude_matrix", "build_phi",
    "constraint_minus_from_plus", "constraint_plus_from_minus",
    "derive_amplitude_matrix", "dispersion_gap", "eigen_difference_check",
    "eigen_relation_residual", "family_minus", "family_plus", "psi_form",
    "solve_p0", "split_even", "wave_component",
    "SchemaError", "dump_form", "form_to_records", "load_form",
    "records_to_form",
]
