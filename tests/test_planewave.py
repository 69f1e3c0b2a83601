import math

import numpy as np
import pytest

from dkjoyce import (
    DegenerateDenominator,
    DispersionViolated,
    EvenAmplitudes,
    InhomogeneousForm,
    NotEven,
    PlaneWaveSpec,
    Window,
    algebraic_system_residual,
    amplitude_matrix,
    blade_lmul,
    build_phi,
    clifford_mul,
    constraint_minus_from_plus,
    constraint_plus_from_minus,
    derive_amplitude_matrix,
    dispersion_gap,
    eigen_difference_check,
    eigen_relation_residual,
    family_minus,
    family_plus,
    joyce_residual,
    joyce_residual_form,
    psi_form,
    solve_p0,
    split_even,
    unit_form,
    wave_component,
)
from dkjoyce.planewave import (FAMILY_LABELS, LABEL_BLADES, WAVE_LABELS,
                               family_amplitude_matrix, largest_wave_modulus)

import helpers
from helpers import family_symbols, rand_complex, rng_for

M = 1.0


def boosted(spatial, branch, m=M):
    return (solve_p0(spatial, m, branch),) + tuple(spatial)


def test_wave_component_values():
    assert wave_component("0", (0, 0, 0, 0), (0.7, -2, 3, 0.1)) == 1
    assert wave_component("0", (1, 0, 0, 0), (1, 0, 0, 0)) == 1 + 1j
    assert wave_component("4", (1, 0, 0, 0), (1, 0, 0, 0)) == \
        pytest.approx((1 + 1j) / 2)


def test_eigen_difference_identities():
    win = Window((5, 5, 5, 5))
    p = (0.3, -0.7, 0.2, 1.1)
    for label in WAVE_LABELS:
        assert eigen_difference_check(label, p, win) < 1e-12, label


def test_build_phi_shapes():
    win = Window((3, 3, 3, 3))
    p = (0.5, 0.1, -0.2, 0.3)
    phi = build_phi(EvenAmplitudes(alpha0=1), p, win)
    assert phi.part(2).is_zero() and phi.part(4).is_zero()
    assert dict(phi.part(0).items()) == dict(psi_form("0", p, win).items())
    assert build_phi(EvenAmplitudes(), p, win).is_zero()
    full = build_phi(EvenAmplitudes(1, 1, 1, 1, 1, 1, 1, 1), p, win)
    assert full.part(1).is_zero() and full.part(3).is_zero()


def test_eigen_relation_residual_generic():
    rng = rng_for(40)
    win = Window((6, 6, 6, 6))
    A = EvenAmplitudes(*[rand_complex(rng) for _ in range(8)])
    p = (0.7, -0.2, 0.4, 0.1)
    phi = build_phi(A, p, win)
    assert eigen_relation_residual(phi, p, win) < 1e-10
    assert eigen_relation_residual(InhomogeneousForm.zero(), p, win) == 0


def test_dispersion_gap_values():
    assert dispersion_gap((M, 0, 0, 0), M) == 0
    assert dispersion_gap((2, 1, 1, 1), 1.0) == 0
    assert dispersion_gap((1, 1, 0, 0), 1.0) == -1


@pytest.mark.parametrize("p", [(1.0, 0.5, 0.0, 0.0), (-2.0, 0.3, -1.5, 4.0)])
def test_largest_wave_modulus_is_the_largest_psi(p):
    win = Window((3, 4, 3, 5))
    got = max(np.abs(psi_form(label, p, win).data).max()
              for label in WAVE_LABELS)
    assert largest_wave_modulus(p, win) == pytest.approx(got, rel=1e-12)
    assert largest_wave_modulus((1e60, 1e60, 0, 0), win) == math.inf


def test_solve_p0():
    assert solve_p0((0, 0, 0), 1.0, "+") == 1.0
    assert solve_p0((0, 0, 0), 1.0, "-") == -1.0
    assert solve_p0((1, 1, 1), 1.0, "+") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        solve_p0((0, 0, 0), 1.0, "x")


def test_amplitude_system_examples():
    res = algebraic_system_residual(
        EvenAmplitudes(alpha0=1), (M, 0, 0, 0), M)
    assert res[0] == pytest.approx(2 * M)
    assert np.max(np.abs(
        algebraic_system_residual(EvenAmplitudes(), (M, 0, 0, 0), M))) == 0


def test_transcribed_system_matches_derivation_oracle():
    # the blade-table system equals the transcribed one exactly, and the one
    # read off the Joyce operator to rounding
    rng = rng_for(41)
    for _ in range(10):
        p = tuple(rng.uniform(-2, 2, 4))
        M8 = amplitude_matrix(p, 1.0)
        want = helpers.transcribed_amplitude_matrix(p, 1.0)
        assert np.array_equal(M8, want), p
        oracle = derive_amplitude_matrix(p, 1.0)
        assert np.max(np.abs(M8 - oracle)) < 1e-14, p


def nullity(p, m):
    sv = np.linalg.svd(amplitude_matrix(p, m), compute_uv=False)
    return int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))


def test_nullity_iff_dispersion():
    for spatial in ((0, 0, 0), (0.5, 0, 0), (0.5, 0.5, 0.5), (1, 1, 1)):
        for branch in ("+", "-"):
            p = boosted(spatial, branch)
            assert nullity(p, M) == 4, p
            assert nullity((p[0] + 0.3,) + p[1:], M) == 0, p


def test_family_amplitudes_solve_system():
    # both family patterns lie in the amplitude-system nullspace on both
    # branches whenever the dispersion relation holds
    for spatial in ((0.5, 0.5, 0.5), (1, 0, 0.25)):
        for branch in ("+", "-"):
            p = boosted(spatial, branch)
            M8 = amplitude_matrix(p, M)
            for which in ("plus", "minus"):
                F = family_amplitude_matrix(which, p, M)
                assert np.max(np.abs(M8 @ F)) < 1e-12, (which, p)
                assert np.linalg.matrix_rank(F, tol=1e-8) == 4


def test_family_equivalence_amplitude_map():
    # each minus-family pattern is a combination of the plus-family patterns
    p = boosted((0.5, 0.5, 0.5), "+")
    FP = family_amplitude_matrix("plus", p, M)
    FM = family_amplitude_matrix("minus", p, M)
    C, _res, rank, _sv = np.linalg.lstsq(FP, FM, rcond=None)
    assert rank == 4
    assert np.max(np.abs(FP @ C - FM)) < 1e-10


def test_split_even():
    win = Window((3, 3, 3, 3))
    rng = rng_for(42)
    coeffs = {}
    for k in win.sites():
        for d in ((), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (0, 1, 2, 3)):
            coeffs[(k, d)] = rand_complex(rng)
    phi = InhomogeneousForm.from_coeffs(coeffs)
    plus, minus = split_even(phi)
    assert plus + minus == phi
    e0 = unit_form((0,), win)
    assert (clifford_mul(e0, plus) - clifford_mul(plus, e0)).is_zero()
    assert (clifford_mul(e0, minus) + clifford_mul(minus, e0)).is_zero()


def test_split_even_halves_are_the_family_blades():
    assert FAMILY_LABELS == helpers.FAMILY_LABELS
    win = Window((2, 2, 2, 2))
    phi = build_phi(EvenAmplitudes(*range(1, 9)), (0.3, 0.5, -0.2, 0.7), win)
    for half, which in zip(split_even(phi), ("plus", "minus")):
        blades = {d for part in half.parts for s, d in part.live()
                  if (part.data[s] != 0).any()}
        assert blades == {LABEL_BLADES[label]
                          for label in FAMILY_LABELS[which]}


@pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
def test_derived_patterns_equal_the_transcribed_ones(m):
    spatials = [(0, 0, 0), (0.5, 0, 0), (0, -0.25, 0.75), (1, -2, 0.3)]
    for spatial in spatials:
        for branch in ("+", "-"):
            p = boosted(spatial, branch, m)
            for q in (p, (p[0] + 0.3,) + p[1:]):  # on and off shell
                for which in ("plus", "minus"):
                    want = helpers.transcribed_family_matrix(which, q, m)
                    got = family_amplitude_matrix(which, q, m)
                    assert np.array_equal(got, want), (which, q, m)


def test_split_even_rejects_odd():
    phi = InhomogeneousForm.from_coeffs({((1, 1, 1, 1), (1,)): 1})
    with pytest.raises(ValueError):
        split_even(phi)


@pytest.mark.parametrize("value", [1e-13, math.nan])
def test_split_even_rejects_any_nonzero_odd_value(value):
    phi = InhomogeneousForm.from_coeffs({((1, 1, 1, 1), ()): 1,
                                         ((1, 1, 1, 1), (0, 1, 2)): value})
    with pytest.raises(NotEven, match=r"odd blade \(0, 1, 2\)"):
        split_even(phi)
    assert issubclass(NotEven, ValueError)


def test_constraint_rest_frame_numerator_vanishes():
    win = Window((3, 3, 3, 3))
    plus = InhomogeneousForm.from_coeffs(
        {(k, ()): 1 for k in win.sites()})
    out = constraint_minus_from_plus(plus, (-M, 0, 0, 0), M)
    assert out.is_zero()


def test_constraint_round_trips():
    rng = rng_for(43)
    win = Window((3, 3, 3, 3))
    p = boosted((0.5, 0.25, -0.75), "+")
    coeffs = {}
    for k in win.sites():
        for d in ((), (1, 2), (1, 3), (2, 3)):
            coeffs[(k, d)] = rand_complex(rng)
    plus = InhomogeneousForm.from_coeffs(coeffs)
    minus = constraint_minus_from_plus(plus, p, M)
    # image has the anticommuting blade pattern
    assert split_even(minus)[0].is_zero()
    back = constraint_plus_from_minus(minus, p, M)
    assert (back - plus).max_norm() < 1e-12
    forth = constraint_minus_from_plus(
        constraint_plus_from_minus(minus, p, M), p, M)
    assert (forth - minus).max_norm() < 1e-12


def test_constraint_degenerate_denominators():
    phi = InhomogeneousForm.from_coeffs({((1, 1, 1, 1), ()): 1})
    with pytest.raises(DegenerateDenominator):
        constraint_minus_from_plus(phi, (M, 0, 0, 0), M)
    with pytest.raises(DegenerateDenominator):
        constraint_plus_from_minus(phi, (-M, 0, 0, 0), M)
    # just above the threshold is accepted
    constraint_minus_from_plus(phi, (M - 1e-6, 0, 0, 0), M)


def test_family_rest_frame_exact():
    win = Window((5, 5, 5, 5))
    F = family_plus((1, 2, 3, 4), (-M, 0, 0, 0), M, win)
    assert joyce_residual(F, M, win).interior_max == 0
    G = family_minus((1, 2, 3, 4), (M, 0, 0, 0), M, win)
    assert joyce_residual(G, M, win).interior_max == 0


def test_family_boosted_residual_hand_value():
    # psi0 column of the plus family at p = (p0, p1, 0, 0): on blade (0,)
    # d(q psi0) and delta(p1 psi0 e01) give i(i p0 q + p1 b) with backward
    # eigenvalue b = i p1/(1 + i p1), and -m q psi0 e0 adds -m q; with
    # q = m - p0 and p0^2 = m^2 + p1^2 the sum is i p1^3/(1 + i p1).
    win = Window((5, 5, 5, 5))
    for p1 in (0.5, 0.25, -1.0):
        want = 1j * p1 ** 3 / (1 + 1j * p1)
        for branch in ("+", "-"):
            p = boosted((p1, 0, 0), branch)
            R = joyce_residual_form(family_plus((1, 0, 0, 0), p, M, win), M)
            for k in win.sites():
                if helpers.is_interior(win, k):
                    got = R.get((k, (0,))) / wave_component("0", k, p)
                    assert abs(got - want) < 1e-12, (p, k, got)
            assert abs(family_symbols("plus", p, M)[0][(0,)] - want) < 1e-12


def test_family_symbols_vanish_at_rest():
    for m in (1.0, 0.5, 2.0):
        for branch in ("+", "-"):
            p = boosted((0, 0, 0), branch, m)
            for which in ("plus", "minus"):
                for S in family_symbols(which, p, m):
                    assert all(v == 0 for v in S.values()), (which, p, S)


def test_family_rest_frame_patterns():
    win = Window((3, 3, 3, 3))
    F = family_plus((1, 0, 0, 0), (-M, 0, 0, 0), M, win)
    # 2m psi0 x
    for (k, d), c in F.items():
        assert d == ()
        assert c == pytest.approx(2 * M * wave_component("0", k, (-M, 0, 0, 0)))
    G = family_minus((0, 0, 0, 1), (M, 0, 0, 0), M, win)
    for (k, d), c in G.items():
        assert d == (0, 1, 2, 3)
        assert c == pytest.approx(2 * M * wave_component("4", k, (M, 0, 0, 0)))


def test_family_errors():
    win = Window((3, 3, 3, 3))
    with pytest.raises(DegenerateDenominator):
        family_plus((1, 0, 0, 0), (M, 0, 0, 0), M, win)
    with pytest.raises(DegenerateDenominator):
        family_minus((1, 0, 0, 0), (-M, 0, 0, 0), M, win)
    with pytest.raises(DispersionViolated):
        family_plus((1, 0, 0, 0), (0.5, 1, 0, 0), M, win)
    assert family_plus((0, 0, 0, 0), (-M, 0, 0, 0), M, win).is_zero()


def test_family_satisfies_constraint_map():
    # the split parts of a family solution are linked by the constraint map
    p = boosted((0.5, 0.25, 0.5), "-")
    win = Window((3, 3, 3, 3))
    F = family_plus((1, 1j, 2, -1), p, M, win)
    plus, minus = split_even(F)
    want = constraint_minus_from_plus(plus, p, M)
    assert (want - minus).max_norm() < 1e-12


def test_perturbed_energy_breaks_solution():
    win = Window((5, 5, 5, 5))
    p = (-M + 0.1, 0, 0, 0)
    F = family_plus((1, 0, 0, 0), p, M, win, check_dispersion=False)
    res = joyce_residual(F, M, win).interior_max
    assert res >= 1e-2 * F.max_norm()


def test_completed_plus_part_solves_at_rest():
    # a 0-form Phi+ on the psi0 wave, completed via the constraint map,
    # solves the even-form equation at the rest frame
    win = Window((5, 5, 5, 5))
    p = (-M, 0, 0, 0)
    plus = InhomogeneousForm.from_form(psi_form("0", p, win))
    minus = constraint_minus_from_plus(plus, p, M)
    phi = plus + minus
    assert joyce_residual(phi, M, win).interior_max < 1e-12


def test_plane_wave_spec_round_trip():
    spec = PlaneWaveSpec.from_dict({
        "m": 1,
        "p": {"spatial": [0, 0, 0], "mass": 1, "branch": "+"},
        "amplitudes": {"alpha01": [1, 0], "alpha4": [2, -1]},
        "window": [4, 4, 4, 4],
        "family": "minus",
    })
    assert spec.p == (1.0, 0.0, 0.0, 0.0)
    F = spec.build()
    assert joyce_residual(F, 1.0, Window((4, 4, 4, 4))).interior_max == 0

    explicit = PlaneWaveSpec.from_dict({
        "m": 1, "p": [0.5, 0.1, 0.2, 0.3],
        "amplitudes": {"alpha0": [1, 1]},
        "window": [3, 3, 3, 3],
    })
    phi = explicit.build()
    assert not phi.part(0).is_zero()


def test_plane_wave_spec_invalid():
    with pytest.raises(ValueError):
        PlaneWaveSpec.from_dict({"m": 1, "p": [1, 0, 0], "window": [3] * 4})
    with pytest.raises(ValueError):
        PlaneWaveSpec.from_dict({"m": 1, "p": [1, 0, 0, 0],
                                 "window": [3] * 4, "family": "other"})


@pytest.mark.parametrize("change", [
    {"window": [3.9, 3, 3, 3]},
    {"window": [3, 3, 3, True]},
    {"window": "3333"},
    {"m": True},
    {"m": "1"},
    {"m": -1},
    {"m": math.inf},
    {"p": [0.5, 0.1, False, 0.3]},
    {"p": [0.5, 0.1, math.nan, 0.3]},
    {"p": [0.5, "0.1", 0.2, 0.3]},
    {"m": -1, "p": {"spatial": [0, 0, 0], "branch": "+"}},
    {"p": {"spatial": [0, True, 0], "branch": "+"}},
    {"p": {"spatial": [1e200, 0, 0], "branch": "+"}},
    {"p": {"spatial": [1e60, 0, 0], "branch": "+"}, "window": [8, 8, 8, 8]},
    {"p": {"spatial": [0, 0, 0], "mass": True, "branch": "+"}},
    {"p": {"spatial": [0, 0, 0], "mass": math.nan, "branch": "+"}},
    {"amplitudes": {"alpha12": [1e308, 0]}},
    {"window": [3, 100000, 100000, 100000]},
], ids=str)
def test_plane_wave_spec_rejects_what_it_would_truncate(change):
    good = {"m": 1, "p": [0.5, 0.1, 0.2, 0.3], "window": [3, 3, 3, 3]}
    PlaneWaveSpec.from_dict(good)
    with pytest.raises(ValueError, match="invalid plane-wave spec"):
        PlaneWaveSpec.from_dict({**good, **change})


@pytest.mark.parametrize("change", [
    {"m": -1.0}, {"p": (math.nan, 0, 0, 0)}, {"p": (1, 0, 0)},
    {"window": (3, 3, 3, 3.0)}, {"window": (3, 3, 3, 0)},
    {"window": (3, 3, 3, 40000)},
    {"p": (1e60, 0, 0, 0), "window": (8, 8, 8, 8)},
    {"amplitudes": EvenAmplitudes(alpha0=1e307 * (1 + 1j))},
    {"family": "other"},
], ids=["m", "p-nan", "p-three", "window-float", "window-zero",
        "window-sites", "wave-size", "amplitude-size", "family"])
def test_plane_wave_spec_checks_itself_however_made(change):
    good = dict(p=(1, 0, 0, 0), m=1.0, amplitudes=EvenAmplitudes(),
                window=(3, 3, 3, 3))
    PlaneWaveSpec(**good)
    with pytest.raises(ValueError):
        PlaneWaveSpec(**{**good, **change})


def test_plane_wave_spec_mass_single_sourced():
    base = {"m": 1, "window": [3, 3, 3, 3]}
    spec = PlaneWaveSpec.from_dict(
        {**base, "p": {"spatial": [0.5, 0, 0], "branch": "+"}})
    assert spec.p == (math.sqrt(1.25), 0.5, 0.0, 0.0)
    agreeing = PlaneWaveSpec.from_dict(
        {**base, "p": {"spatial": [0.5, 0, 0], "mass": 1, "branch": "+"}})
    assert agreeing.p == spec.p
    with pytest.raises(ValueError, match="mass"):
        PlaneWaveSpec.from_dict(
            {**base, "p": {"spatial": [0, 0, 0], "mass": 5, "branch": "+"}})


def test_plane_wave_spec_rejects_unknown_amplitude_key():
    with pytest.raises(ValueError, match="alphaX"):
        PlaneWaveSpec.from_dict({"m": 1, "p": [1, 0, 0, 0],
                                 "window": [3] * 4,
                                 "amplitudes": {"alphaX": [1, 0]}})


def test_amplitude_parser_shapes():
    got = EvenAmplitudes.from_json({"alpha0": 2, "alpha12": [0, -1.5]})
    assert got == EvenAmplitudes(alpha0=2, alpha12=-1.5j)
    assert EvenAmplitudes.from_json({}) == EvenAmplitudes()
    for bad in ([1, 0], {"alpha0": [1, 2, 3]}, {"alpha0": "1"},
                {"alpha0": True}, {"alpha0": float("nan")},
                {"alpha4": [1, float("inf")]}, {"alpha01": 10 ** 400}):
        with pytest.raises(ValueError):
            EvenAmplitudes.from_json(bad)
