import math
from fractions import Fraction

import numpy as np
import pytest

from dkjoyce import (
    DiscreteForm,
    InhomogeneousForm,
    NotEven,
    ResidualReport,
    Window,
    coboundary,
    codifferential,
    decomposition,
    dirac_kahler_apply,
    dk_residual,
    dk_system_residual,
    family_minus,
    joyce_apply_rhs,
    joyce_residual,
    joyce_residual_form,
    joyce_system_residual,
)

from helpers import (
    rand_gaussian,
    random_even,
    random_form,
    random_inhomogeneous,
    rng_for,
)


def test_dirac_kahler_zero():
    assert dirac_kahler_apply(InhomogeneousForm.zero()).is_zero()


def test_decomposition_equals_pipeline_exact():
    rng = rng_for(30)
    win = Window((3, 3, 3, 3))
    for _ in range(5):
        O = random_inhomogeneous(rng, win, scalar=rand_gaussian)
        assert decomposition(O) == coboundary(O) + codifferential(O)


def test_decomposition_pure_grades():
    rng = rng_for(31)
    win = Window((3, 3, 3, 3))
    w0 = InhomogeneousForm.from_form(
        random_form(rng, 0, win, scalar=rand_gaussian))
    assert decomposition(w0) == coboundary(w0)
    w4 = InhomogeneousForm.from_form(
        random_form(rng, 4, win, scalar=rand_gaussian))
    assert decomposition(w4) == codifferential(w4)
    w2 = InhomogeneousForm.from_form(
        random_form(rng, 2, win, scalar=rand_gaussian))
    dec = decomposition(w2)
    assert dec.part(3) == coboundary(w2).part(3)
    assert dec.part(1) == codifferential(w2).part(1)


def test_mass_validation():
    O = InhomogeneousForm.zero()
    with pytest.raises(ValueError):
        dk_residual(O, 0.0, Window((3, 3, 3, 3)))
    with pytest.raises(ValueError):
        joyce_residual(O, -1.0, Window((3, 3, 3, 3)))
    # an infinite mass would scale the zero padding into NaN
    with pytest.raises(ValueError, match="must be positive"):
        dk_residual(O, math.inf, Window((3, 3, 3, 3)))
    with pytest.raises(ValueError, match="must be positive"):
        joyce_residual(O, math.inf, Window((3, 3, 3, 3)))
    with pytest.raises(ValueError, match="must be positive"):
        joyce_apply_rhs(O, math.inf)


def test_not_even():
    O = InhomogeneousForm.from_form(DiscreteForm.basis((1, 1, 1, 1), (1,)))
    with pytest.raises(NotEven):
        joyce_apply_rhs(O, 1.0)
    with pytest.raises(NotEven):
        joyce_residual(O, 1.0, Window((3, 3, 3, 3)))


@pytest.mark.parametrize("value", [1e-13, math.nan])
def test_not_even_is_any_nonzero_odd_value(value):
    # no cut-off: a tiny or NaN odd coefficient makes the form odd
    O = InhomogeneousForm.from_form(
        DiscreteForm.basis((1, 1, 1, 1), (1,), value))
    with pytest.raises(NotEven, match=r"odd blade \(1,\)"):
        joyce_apply_rhs(O, 1.0)
    with pytest.raises(NotEven):
        joyce_residual(O, 1.0, Window((3, 3, 3, 3)))


def test_joyce_rhs_examples():
    win = Window((2, 2, 2, 2))
    m = 2.0
    x = InhomogeneousForm.from_coeffs({(k, ()): 1 for k in win.sites()})
    rhs = joyce_apply_rhs(x, m)
    assert dict(rhs.items()) == {(k, (0,)): m for k in win.sites()}
    # e01 * e0 = -e1
    e01 = InhomogeneousForm.from_coeffs({(k, (0, 1)): 1 for k in win.sites()})
    rhs = joyce_apply_rhs(e01, m)
    assert dict(rhs.items()) == {(k, (1,)): -m for k in win.sites()}


def test_dk_system_matches_pipeline():
    rng = rng_for(32)
    win = Window((4, 4, 4, 4))
    m = 1.0
    for _ in range(3):
        O = random_inhomogeneous(rng, win)
        table = dk_system_residual(O, m)
        pipeline = dirac_kahler_apply(O) - m * O
        assert (table - pipeline).max_norm() < 1e-12


def test_joyce_system_matches_pipeline():
    rng = rng_for(33)
    win = Window((4, 4, 4, 4))
    m = 1.0
    for _ in range(3):
        O = random_even(rng, win)
        table = joyce_system_residual(O, m)
        pipeline = joyce_residual_form(O, m)
        for r in (1, 3):
            assert (table.part(r) - pipeline.part(r)).max_norm() < 1e-12


def test_joyce_residual_linear():
    rng = rng_for(34)
    win = Window((3, 3, 3, 3))
    m = 1.5
    A = random_even(rng, win)
    B = random_even(rng, win)
    a, b = 2 - 1j, 3j
    lhs = joyce_residual_form(a * A + b * B, m)
    rhs = a * joyce_residual_form(A, m) + b * joyce_residual_form(B, m)
    assert (lhs - rhs).max_norm() < 1e-12


def test_dk_residual_regression():
    # frozen interior norm for a dispersion-valid wave form: the first-order
    # equation with scalar mass term is NOT solved by the wave families
    p = (math.sqrt(1.75), 0.5, 0.5, 0.5)
    win = Window((5, 5, 5, 5))
    F = family_minus((1, 1, 1, 1), p, 1.0, win)
    rep = dk_residual(F, 1.0, win)
    assert rep.interior_max == pytest.approx(1.757739181167822, abs=1e-9)
    assert not rep.is_zero()


def test_residual_report_shape():
    win = Window((3, 3, 3, 3))
    O = InhomogeneousForm.from_form(
        DiscreteForm.basis((2, 2, 2, 2), (0, 1), 1.0))
    rep = joyce_residual(O, 1.0, win)
    d = rep.to_dict()
    assert len(d["grade_norms"]) == 5
    assert {"interior_max", "fringe_max"} <= set(d)
    zero = joyce_residual(InhomogeneousForm.zero(), 1.0, win)
    assert zero.is_zero()


def test_residual_report_propagates_nan():
    win = Window((4, 4, 4, 4))
    R = InhomogeneousForm.from_coeffs({((2, 2, 2, 2), (0, 1)): math.nan,
                                       ((1, 1, 1, 1), (0, 1)): 1.0,
                                       ((1, 1, 1, 1), ()): 2.0})
    rep = ResidualReport.from_form(R, win)
    assert math.isnan(rep.interior_max) and math.isnan(rep.grade_max[2])
    assert rep.fringe_max == 2.0 and rep.grade_max[0] == 2.0
    assert not rep.is_zero()


def test_a_fraction_mass_keeps_complex_forms_native():
    # a Fraction times complex128 data is the complex it converts to, not an
    # object array of Python complex
    rng = rng_for(17)
    win = Window((3, 4, 3, 3))
    O, Oev = random_inhomogeneous(rng, win), random_even(rng, win)
    for got, want in ((Fraction(3, 2) * O, 1.5 * O),
                      (joyce_apply_rhs(Oev, Fraction(3, 2)),
                       joyce_apply_rhs(Oev, 1.5))):
        for p, q in zip(got.parts, want.parts):
            assert p.data.dtype == np.complex128
            assert (p.data == q.data).all() and p.origin == q.origin
    assert dk_residual(O, Fraction(3, 2), win) == dk_residual(O, 1.5, win)
