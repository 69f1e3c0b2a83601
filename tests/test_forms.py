import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkjoyce import (
    Chain,
    DiscreteForm,
    GaussianRational,
    InhomogeneousForm,
    NotAdmissible,
    ResidualReport,
    Window,
    backward_diff,
    blade_lmul,
    boundary,
    coboundary,
    codifferential,
    clifford_mul,
    constraint_minus_from_plus,
    constraint_plus_from_minus,
    cup,
    decomposition,
    dirac_kahler_apply,
    dk_system_residual,
    eigen_relation_residual,
    form_to_records,
    forward_diff,
    hodge_star,
    hodge_star_inverse,
    inner_product,
    joyce_apply_rhs,
    joyce_residual_form,
    joyce_system_residual,
    laplacian,
    pair,
    records_to_form,
    star_d_star,
)
from dkjoyce import complex4, forms
from dkjoyce.complex4 import AXES, tau_all
from dkjoyce.dirac_joyce import DK_SYSTEM
from dkjoyce.forms import MAX_LOAD_SITES, STAR_SIGN, _form
from dkjoyce.planewave import FAMILY_SIGN

from helpers import (
    AXIS_SETS,
    DictChain,
    dict_boundary,
    dict_pair,
    dk_system_residual_dict,
    is_interior,
    joyce_system_residual_dict,
    margin_form,
    rand_gaussian,
    random_form,
    random_inhomogeneous,
    rng_for,
    sigma_shift,
    tau_shift,
)

ALL_DIRS = [d for r in range(5) for d in itertools.combinations(AXES, r)]


# ---------------------------------------------------------------------------
# differences

def test_forward_diff_constant():
    win = Window((3, 3, 3, 3))
    w = DiscreteForm(0, {(k, ()): 5 for k in win.sites()})
    out = forward_diff(w, 2)
    for (k, _d), c in out.items():
        assert not is_interior(win, k)
        assert c in (5, -5)


def test_forward_diff_delta():
    k = (2, 2, 2, 2)
    out = forward_diff(DiscreteForm.basis(k, ()), 1)
    assert dict(out.items()) == {(k, ()): -1, (sigma_shift(k, 1), ()): 1}


def test_backward_diff_delta():
    k = (2, 2, 2, 2)
    out = backward_diff(DiscreteForm.basis(k, ()), 3)
    assert dict(out.items()) == {(k, ()): 1, (tau_shift(k, 3), ()): -1}


def test_backward_equals_shifted_forward():
    # the coefficient function of the backward difference at tau_mu k equals
    # the forward difference at k
    rng = rng_for(2)
    win = Window((4, 4, 4, 4))
    w = random_form(rng, 2, win)
    for mu in AXES:
        fwd = forward_diff(w, mu)
        bwd = backward_diff(w, mu)
        for (k, d), c in fwd.items():
            assert bwd.get((tau_shift(k, mu), d)) == c


# ---------------------------------------------------------------------------
# coboundary

def test_coboundary_delta_0form():
    k = (3, 3, 3, 3)
    out = coboundary(DiscreteForm.basis(k, ()))
    want = {}
    for mu in AXES:
        want[(sigma_shift(k, mu), (mu,))] = 1
        want[(k, (mu,))] = -1
    assert dict(out.items()) == want


def test_coboundary_top_degree_zero():
    w = DiscreteForm.basis((1, 1, 1, 1), (0, 1, 2, 3), 3 + 1j)
    assert coboundary(w).is_zero()


def test_coboundary_squared_zero():
    rng = rng_for(3)
    win = Window((4, 4, 4, 4))
    for degree in range(4):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        assert coboundary(coboundary(w)).is_zero()


def test_codifferential_squared_zero():
    rng = rng_for(4)
    win = Window((4, 4, 4, 4))
    for degree in range(1, 5):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        assert codifferential(codifferential(w)).is_zero()


# ---------------------------------------------------------------------------
# cup product

def test_cup_point_interval():
    k = (2, 2, 2, 2)
    x = DiscreteForm.basis(k, ())
    e1 = DiscreteForm.basis(k, (1,))
    assert cup(x, e1) == e1
    assert cup(e1, e1).is_zero()


def test_cup_interval_point_shift():
    # a left interval on axis 1 pairs with the right factor at index + 1
    k = (2, 2, 2, 2)
    e1 = DiscreteForm.basis(k, (1,))
    assert cup(e1, DiscreteForm.basis(tau_shift(k, 1), ())) == e1
    assert cup(e1, DiscreteForm.basis(k, ())).is_zero()


def test_leibniz_exact():
    rng = rng_for(6)
    win = Window((3, 3, 3, 3))
    for r in range(3):
        for q in range(3 - r):
            u = random_form(rng, r, win, scalar=rand_gaussian)
            v = random_form(rng, q, win, scalar=rand_gaussian)
            lhs = coboundary(cup(u, v))
            rhs = cup(coboundary(u), v) + (-1) ** r * cup(u, coboundary(v))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Hodge star

def test_star_basis_examples():
    k = (2, 3, 4, 5)
    assert hodge_star(DiscreteForm.basis(k, ())) == \
        DiscreteForm.basis(k, (0, 1, 2, 3))
    # the one positive 1-form row
    assert hodge_star(DiscreteForm.basis(k, (2,))) == \
        DiscreteForm.basis(tau_shift(k, 2), (0, 1, 3))
    assert hodge_star(DiscreteForm.basis(k, (0, 1, 2, 3))) == \
        DiscreteForm.basis(tau_all(k), (), -1)


def test_star_defining_relation_exhaustive():
    # s cup *s equals the signature factor times the volume form at s's site
    k = (2, 2, 2, 2)
    for dirs in ALL_DIRS:
        s = DiscreteForm.basis(k, dirs)
        prod = cup(s, hodge_star(s))
        want = -1 if 0 in dirs else 1
        assert dict(prod.items()) == {(k, (0, 1, 2, 3)): want}, dirs


def test_star_double_exhaustive():
    k = (1, 2, 3, 4)
    for dirs in ALL_DIRS:
        r = len(dirs)
        got = hodge_star(hodge_star(DiscreteForm.basis(k, dirs)))
        assert got == DiscreteForm.basis(tau_all(k), dirs, (-1) ** (r + 1))


def test_star_inverse_both_ways():
    rng = rng_for(7)
    win = Window((3, 3, 3, 3))
    for degree in range(5):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        assert hodge_star_inverse(hodge_star(w)) == w
        assert hodge_star(hodge_star_inverse(w)) == w


def test_star_inverse_volume_row():
    # inverts *e^k = -x^{tau k}
    k = (2, 2, 2, 2)
    got = hodge_star_inverse(DiscreteForm.basis(tau_all(k), ()))
    assert got == DiscreteForm.basis(k, (0, 1, 2, 3), -1)


def test_star_sign_table_degree_counts():
    # one sign per direction set, all +-1
    assert set(STAR_SIGN) == set(ALL_DIRS)
    assert set(STAR_SIGN.values()) <= {1, -1}


# ---------------------------------------------------------------------------
# inner product

def test_inner_product_0forms():
    win = Window((3, 3, 3, 3))
    k = (2, 2, 2, 2)
    u = DiscreteForm.basis(k, (), 2 + 1j)
    v = DiscreteForm.basis(k, (), 3 - 1j)
    assert inner_product(u, v, win) == (2 + 1j) * (3 + 1j)


def test_inner_product_signature():
    win = Window((3, 3, 3, 3))
    k = (2, 2, 2, 2)
    for dirs in ALL_DIRS:
        w = DiscreteForm.basis(k, dirs)
        want = -1 if 0 in dirs else 1
        assert inner_product(w, w, win) == want, dirs


def test_inner_product_mixed_degree_zero():
    win = Window((3, 3, 3, 3))
    u = DiscreteForm.basis((1, 1, 1, 1), ())
    v = DiscreteForm.basis((1, 1, 1, 1), (1,))
    assert inner_product(u, v, win) == 0


def test_inner_product_not_admissible():
    win = Window((3, 3, 3, 3))
    w = DiscreteForm.basis((4, 1, 1, 1), ())
    with pytest.raises(NotAdmissible):
        inner_product(w, w, win)


def _past_edge(value, mu=2):
    """A 2-form on a box one site past the last site of a (3, 4, 3, 2)
    window along ``mu``, holding ``value`` on every blade there."""
    shape = [6, 3, 4, 3, 2]
    shape[1 + mu] += 1
    data = np.ones(shape, complex)
    data[(slice(None),) * (1 + mu) + (-1,)] = value
    return _form(2, (1, 1, 1, 1), data)


@pytest.mark.parametrize("build, inside", [
    (lambda: _form(1, (1, 1, 1, 1), np.ones((4, 3, 4, 3, 2), complex)), True),
    (lambda: _past_edge(0), True),
    (lambda: _past_edge(1), False),
    (lambda: _past_edge(np.nan), False),
    (lambda: _form(0, (0, 2, 2, 2), np.zeros((1, 1, 1, 1, 1), complex)), True),
    (lambda: DiscreteForm.zero(3), True),
    (lambda: InhomogeneousForm.zero(), True),
    (lambda: InhomogeneousForm([_form(0, (1, 1, 1, 1), np.ones(
        (1, 3, 4, 3, 2), complex))] + [DiscreteForm.zero(r) for r in (1, 2)]
        + [DiscreteForm.basis((1, 1, 1, 3), (0, 1, 2)),
           DiscreteForm.zero(4)]), False),
], ids=["fills", "zeros-past", "one-past", "nan-past", "zeros-before",
        "empty", "empty-parts", "one-part-past"])
def test_admissible_agrees_with_the_site_scan(monkeypatch, build, inside):
    # the boxes decide at once where they lie in the window; else the sites
    # of the nonzero coefficients do, a NaN among them
    win, w = Window((3, 4, 3, 2)), build()
    scan = all(all(1 <= x <= n for x, n in zip(k, win.n))
               for (k, _dirs), _c in w.items())
    assert win.admissible(w) == scan == inside
    boxed = all(min(p.origin) >= 1 and all(
        o + s - 1 <= n for o, s, n in zip(p.origin, p.data.shape[1:], win.n))
        for p in forms._parts(w))
    if boxed:  # then no coefficient is read
        monkeypatch.setattr(forms, "_nonzero_sites", None)
        assert win.admissible(w)


@pytest.mark.parametrize("n", [(3, 3, 3), (3,) * 5, (True, 3, 3, 3),
                               (0, 3, 3, 3)], ids=str)
def test_window_takes_four_int_extents_of_at_least_one(n):
    # a window of three extents would fail later, as an IndexError
    with pytest.raises(ValueError, match="four int extents"):
        Window(n)


def test_adjointness_exact():
    # (d u, v) = (u, delta v) with a one-cell margin, exact scalars
    rng = rng_for(8)
    win = Window((4, 4, 4, 4))
    for degree in range(4):
        u = margin_form(rng, degree, win, scalar=rand_gaussian)
        v = margin_form(rng, degree + 1, win, scalar=rand_gaussian)
        assert inner_product(coboundary(u), v, win) == \
            inner_product(u, codifferential(v), win)


# ---------------------------------------------------------------------------
# codifferential and star route

def test_codifferential_0form_zero():
    w = DiscreteForm.basis((1, 1, 1, 1), (), 2j)
    assert codifferential(w).is_zero()


def test_codifferential_delta_1form():
    # time component: positive metric, leading position
    k = (2, 2, 2, 2)
    out = codifferential(DiscreteForm.basis(k, (0,)))
    assert dict(out.items()) == {(k, ()): 1, (tau_shift(k, 0), ()): -1}
    # spatial component picks up the metric sign
    out = codifferential(DiscreteForm.basis(k, (1,)))
    assert dict(out.items()) == {(k, ()): -1, (tau_shift(k, 1), ()): 1}


def test_codifferential_equals_star_route():
    # explicit formulas against (-1)^r *^-1 d * for input degree r
    rng = rng_for(9)
    win = Window((3, 3, 3, 3))
    for degree in range(1, 5):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        via = (-1) ** degree * hodge_star_inverse(coboundary(hodge_star(w)))
        assert codifferential(w) == via


def test_star_d_star_shift():
    # star.d.star sampled at k equals the codifferential sampled at sigma k
    rng = rng_for(10)
    win = Window((3, 3, 3, 3))
    for degree in range(1, 5):
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        got = star_d_star(w)
        want = codifferential(w)
        shifted = DiscreteForm(
            degree - 1, {(tau_all(k), d): c for (k, d), c in want.items()}
        )
        assert got == shifted


def test_star_d_star_zero():
    assert star_d_star(DiscreteForm.zero(2)).is_zero()


# ---------------------------------------------------------------------------
# Laplacian

def test_laplacian_zero():
    assert laplacian(InhomogeneousForm.zero()).is_zero()


def test_laplacian_equals_squared_first_order():
    rng = rng_for(12)
    win = Window((3, 3, 3, 3))
    O = random_inhomogeneous(rng, win, scalar=rand_gaussian)

    def dirac(a):
        return coboundary(a) + codifferential(a)

    assert laplacian(O) == (-1) * dirac(dirac(O))


def test_laplacian_drops_the_half_without_a_degree():
    # d delta has nowhere to land on a 0-form, delta d on a 4-form
    w0 = DiscreteForm.basis((1, 1, 1, 1), (), 2 - 1j)
    assert laplacian(w0) == (-1) * codifferential(coboundary(w0))
    w4 = DiscreteForm.basis((1, 1, 1, 1), (0, 1, 2, 3), 3)
    assert laplacian(w4) == (-1) * coboundary(codifferential(w4))
    assert (laplacian(w0).degree, laplacian(w4).degree) == (0, 4)


def test_native_coefficients_come_back_complex():
    # int and float coefficients are stored as complex128, other types as given
    k = (1, 1, 1, 1)
    for c in (3, 0.5, 2 - 1j):
        got = DiscreteForm.basis(k, (0,), c).get((k, (0,)))
        assert type(got) is complex and got == c
    w = DiscreteForm(1, {(k, (0,)): 3, ((1, 2, 1, 1), (1,)): 0.5})
    assert [type(c) for _, c in w.items()] == [complex, complex]
    q = GaussianRational(Fraction(1, 3), 1)
    assert DiscreteForm.basis(k, (0,), q).get((k, (0,))) is q


@pytest.mark.parametrize("x", [2 ** 63, -2 ** 63 - 1])
def test_site_outside_int64_is_a_value_error(x):
    with pytest.raises(ValueError, match="64-bit"):
        DiscreteForm(0, {((x, 0, 0, 0), ()): 1})
    with pytest.raises(ValueError, match="64-bit"):
        InhomogeneousForm.from_coeffs({((0, x, 0, 0), (1,)): 1})


def test_sums_at_the_int64_edge_do_not_wrap():
    # placements are Python ints: a form at the largest int64 origin
    # reaches past it, as at the origin, and a sum spanning the whole int64
    # range hits the box bound
    data = np.arange(1, 65).reshape(4, 2, 2, 2, 2).astype(complex)
    edge, base = (_form(1, o, data)
                  for o in ((2 ** 63 - 1, 0, 0, 0), (0, 0, 0, 0)))
    for got, want in ((codifferential(edge), codifferential(base)),
                      (edge + edge, base + base)):
        assert got.origin == (2 ** 63 - 1, 0, 0, 0) and want.origin == (0,) * 4
        assert got.data.shape == want.data.shape
        assert (got.data == want.data).all()
    assert codifferential(edge).data.shape == (1, 3, 3, 3, 3)
    low = _form(1, (-2 ** 63, 0, 0, 0), data)
    with pytest.raises(ValueError, match=f"more than {MAX_LOAD_SITES}"):
        edge + low


def test_far_apart_sites_hit_the_box_bound():
    # the box of one degree spans every site between two coefficients
    edge = {((0, 0, 0, 0), ()): 1, ((31, 31, 31, 31), ()): 2}
    assert DiscreteForm(0, edge).data.shape == (1, 32, 32, 32, 32)
    far = {((0, 0, 0, 0), (1,)): 1, ((32, 31, 31, 31), (1,)): 2}
    for build in (lambda: DiscreteForm(1, far),
                  lambda: InhomogeneousForm.from_coeffs(far),
                  lambda: Chain(far)):
        with pytest.raises(ValueError, match=f"more than {MAX_LOAD_SITES}"):
            build()


def test_far_apart_sums_hit_the_box_bound(monkeypatch):
    # two one-site chains 10^4 apart: their sum's box would hold 10^16 sites;
    # == compares on the common box, so it allocates none
    a, b = Chain.basis((0, 0, 0, 0), ()), Chain.basis((10 ** 4,) * 4, ())
    for combine in (operator.add, operator.sub):
        with pytest.raises(ValueError, match=f"more than {MAX_LOAD_SITES}"):
            combine(a, b)
    assert (a == b) is False
    # a hull past the bound is allocated when its slices fill as much
    monkeypatch.setattr(forms, "MAX_LOAD_SITES", 16)
    w = DiscreteForm(0, {(k, ()): 1 for k in itertools.product((0, 1),
                                                                repeat=4)})
    assert coboundary(w).data.shape == (4, 3, 3, 3, 3)
    with pytest.raises(ValueError, match="more than 16"):
        w + DiscreteForm.basis((2, 2, 2, 2), ())


@pytest.mark.filterwarnings("error")
def test_eq_holds_on_infinite_values():
    # inf - inf is nan, so == may not go through the difference
    w = DiscreteForm.basis((1, 1, 1, 1), (0,), complex("inf"))
    assert w == w and w != DiscreteForm.basis((1, 1, 1, 1), (0,), 1)


@pytest.mark.filterwarnings("error")
def test_negation_flips_every_sign_and_nothing_else():
    # -w negates the stored array: an infinite part stays infinite and the
    # other part keeps its value, zeros and NaNs flip sign as well, and no
    # product with -1 warns; exact coefficients stay exact
    values = [complex("inf"), complex(0, -np.inf), complex(np.nan, 2), 3j]
    w = DiscreteForm(1, {((1, 1, 1, i), (2,)): c
                         for i, c in enumerate(values)})
    for got in (-w, (-InhomogeneousForm.from_form(w)).part(1)):
        assert got.origin == w.origin
        flipped = got.data.view(np.uint64) ^ w.data.view(np.uint64)
        assert (flipped == 1 << 63).all()
    q = GaussianRational(Fraction(1, 3), -2)
    got = (-DiscreteForm.basis((0, 0, 0, 0), (1, 3), q)).get(((0, 0, 0, 0),
                                                               (1, 3)))
    assert isinstance(got, GaussianRational) and got == -q


@pytest.mark.parametrize("first, second", [(1.0, np.nan), (np.nan, 1.0)])
def test_max_norm_propagates_nan(first, second):
    # a NaN grade after a finite one, and the other way round
    O = InhomogeneousForm.from_coeffs({((1, 1, 1, 1), ()): first,
                                       ((1, 1, 1, 1), (0, 1)): second})
    assert np.isnan(O.max_norm())
    w = DiscreteForm(0, {((1, 1, 1, 1), ()): first, ((2, 1, 1, 1), ()): second})
    assert np.isnan(w.max_norm())
    assert InhomogeneousForm.zero().max_norm() == 0.0


@pytest.mark.parametrize("x", [1.5, True, 1.0])
def test_site_components_must_be_integers(x):
    # a non-integer component would be truncated into another key's site
    with pytest.raises(ValueError, match="must be integers"):
        DiscreteForm(0, {((x, 0, 0, 0), ()): 1, ((1, 0, 0, 0), ()): 2})
    with pytest.raises(ValueError, match="must be integers"):
        InhomogeneousForm.from_coeffs({((0, 0, 0, x), (2,)): 0})


def test_numpy_integer_site_components():
    k = (np.int64(2), np.uint8(1), np.int32(-3), 0)
    w = DiscreteForm(1, {(k, (3,)): 4})
    assert w.origin == (2, 1, -3, 0) and w.get(((2, 1, -3, 0), (3,))) == 4


@pytest.mark.parametrize("site", [(1, 1, 1, 1, 5), (1, 1, 1)])
def test_get_needs_four_components(site):
    w = DiscreteForm.basis((1, 1, 1, 1), (0,), 2)
    with pytest.raises(ValueError, match="four components"):
        w.get((site, (0,)))
    with pytest.raises(ValueError, match="four components"):
        InhomogeneousForm.from_form(w).get((site, (0,)))


# ---------------------------------------------------------------------------
# properties of the box representation on random sparse supports

MASS = {True: Fraction(3, 2), False: 1.5}
# dyadic, so 1j * p_mu is exact as a complex too
MOMENTUM = {True: (Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4), 2),
            False: (0.25, 0.5, -0.25, 2.0)}


def _scalars(exact):
    if exact:
        q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
        return st.builds(GaussianRational, q, q)
    return st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def _forms(draw, degree, exact):
    """A sparse form near the origin, with negative indices, and now and
    then one site far out along one axis (the box then spans the gap)."""
    keys = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * 4),
                                   st.sampled_from(AXIS_SETS[degree])),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        (k, dirs), mu = keys[-1], draw(st.sampled_from(AXES))
        far = k[mu] + draw(st.sampled_from((-20, 20)))
        keys[-1] = (k[:mu] + (far,) + k[mu + 1:], dirs)
    return DiscreteForm(degree, {key: draw(_scalars(exact)) for key in keys})


def _push_routes(kind):
    """The routes of ``_push_diffs`` over every DK_SYSTEM row, of ``kind``."""
    routes = {}
    for target, terms in DK_SYSTEM.items():
        for sign, k, mu, src in terms:
            if k == kind:
                routes.setdefault(src, []).append((mu, sign, target))
    return routes


#: every route table a stencil runs on
ROUTE_TABLES = {
    "raise": forms._RAISE, "lower": forms._LOWER,
    **{f"along {mu}": forms._ALONG[mu] for mu in AXES},
    "chain boundary": complex4._BOUNDARY,
    "push +": _push_routes("+"), "push -": _push_routes("-"),
}
SPECIAL = [complex("nan"), complex("inf"), complex(0, -np.inf),
           complex(np.inf, np.nan), complex(-np.inf, 1)]


@st.composite
def _stencil_sources(draw):
    """A complex form: sparse, empty or on one site, its box now and then
    filled, its values scaled to magnitudes 1e-8..1e8 so that the order of
    a sum shows in its rounding, and now and then an entry of its box (zero
    or not) NaN or infinite."""
    degree = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["sparse", "empty", "one site"]))
    if kind == "empty":
        w = DiscreteForm.zero(degree)
    elif kind == "one site":
        w = DiscreteForm.basis(draw(st.tuples(*[st.integers(-40, 40)] * 4)),
                               draw(st.sampled_from(AXIS_SETS[degree])),
                               draw(_scalars(False)) or 1)
    else:
        w = draw(_forms(degree, exact=False))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    data = w.data + draw(st.booleans()) * rng.uniform(-1, 1, w.data.shape)
    data *= 10.0 ** rng.integers(-8, 9, w.data.shape)
    for i in draw(st.lists(st.integers(0, data.size - 1), max_size=3)) \
            if data.size else ():
        data.reshape(-1)[i] = draw(st.sampled_from(SPECIAL))
    return _form(degree, w.origin, data)


@settings(max_examples=200, deadline=None)
@given(_stencil_sources(), st.sampled_from(sorted(ROUTE_TABLES)),
       st.booleans())
def test_stencil_kernel_equals_the_per_slice_path(w, table, forward):
    # the flat kernel against the per-slice path on the same values as
    # Python complex objects: the same origin and box, and bit for bit the
    # same coefficients, NaN where the other has NaN
    routes = ROUTE_TABLES[table]
    with np.errstate(invalid="ignore"):  # inf - inf
        got = forms._stencil_form(w, routes, forward)
        want = forms._stencil_form(_form(w.degree, w.origin, w.data.astype(
            object)), routes, forward)
    if want is None:
        assert got is None
        return
    assert (got.degree, got.origin, got.data.shape) \
        == (want.degree, want.origin, want.data.shape)
    assert got.data.dtype == complex and want.data.dtype == object
    a, b = got.data.view(float), want.data.astype(complex).view(float)
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert (a.view(np.uint64)[~nan] == b.view(np.uint64)[~nan]).all()


@st.composite
def _form_cases(draw):
    exact = draw(st.booleans())
    return draw(_forms(draw(st.integers(0, 4)), exact)), exact


@st.composite
def _inhomogeneous_cases(draw):
    exact = draw(st.booleans())
    return InhomogeneousForm([draw(_forms(r, exact)) for r in range(5)]), exact


def _check_outputs(exact, *forms):
    """No stored zero is ever yielded; exact inputs give exact outputs."""
    for w in forms:
        for _key, c in w.items():
            assert c != 0
            assert isinstance(c, GaussianRational) or not exact


PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(_form_cases())
def test_box_forms_nilpotency_and_star_inverse(case):
    w, exact = case
    dw, sw, star = coboundary(w), codifferential(w), hodge_star(w)
    assert coboundary(dw).is_zero()
    assert codifferential(sw).is_zero()
    assert hodge_star_inverse(star) == w
    _check_outputs(exact, w, dw, sw, star, hodge_star_inverse(w))


@PROPERTY
@given(_inhomogeneous_cases())
def test_box_forms_decomposition_and_system(case):
    O, exact = case
    dec = decomposition(O)
    assert dec == coboundary(O) + codifferential(O)
    table = dk_system_residual(O, MASS[exact])
    pipeline = dirac_kahler_apply(O) - MASS[exact] * O
    if exact:
        assert table == pipeline
    else:
        scale = max(pipeline.max_norm(), 1.0)
        assert (table - pipeline).max_norm() <= 1e-10 * scale
    _check_outputs(exact, dec, table, pipeline, clifford_mul(O, O))
    # each fused operator equals the composition of its public parts
    m, p = MASS[exact], MOMENTUM[exact]
    Oev = InhomogeneousForm([w if w.degree % 2 == 0 else DiscreteForm.zero(
        w.degree) for w in O.parts])
    composed = dirac_kahler_apply(Oev) - joyce_apply_rhs(Oev, m)
    fused = joyce_residual_form(Oev, m)
    _agree(exact, fused, composed)
    joyce = joyce_system_residual(Oev, m)
    for r in (1, 3):
        _agree(exact, joyce.part(r), composed.part(r))
    for which, constraint in (("plus", constraint_minus_from_plus),
                              ("minus", constraint_plus_from_minus)):
        s, q = FAMILY_SIGN[which], m - FAMILY_SIGN[which] * p[0]
        maps = [blade_lmul((0, j), O, s * p[j] / q) for j in (1, 2, 3)]
        got = constraint(O, p, m)
        _agree(exact, got, maps[0] + maps[1] + maps[2])
        _check_outputs(exact, got)
    eigen = coboundary(O) + codifferential(O) - sum(
        (blade_lmul((mu,), O, 1j * p[mu]) for mu in AXES),
        InhomogeneousForm.zero())
    win = Window((5, 5, 5, 5))
    got, want = (eigen_relation_residual(O, p, win),
                 ResidualReport.from_form(eigen, win).interior_max)
    assert got == want if exact else abs(got - want) <= 1e-12 * want
    _check_outputs(exact, composed, fused, joyce, eigen)


def _agree(exact, got, want):
    """``got == want`` exactly, or for floats to 1e-12 relative."""
    if exact:
        assert got == want
    else:
        assert (got - want).max_norm() <= 1e-12 * want.max_norm()


@PROPERTY
@given(_inhomogeneous_cases())
def test_box_forms_records_round_trip(case):
    O, exact = case
    if not exact:
        assert records_to_form(form_to_records(O)) == O


@PROPERTY
@given(_forms(2, exact=True), st.sampled_from(ALL_DIRS))
def test_box_forms_promote_complex_to_exact(w, blade):
    # a complex basis form times an exact form gives exact coefficients
    k = next((key[0] for key, _c in w.items()), w.origin)
    for coeff in (1, 2.5 - 1j):
        b = DiscreteForm.basis(k, blade, coeff)
        _check_outputs(True, cup(b, w), cup(w, b), clifford_mul(
            InhomogeneousForm.from_form(b), InhomogeneousForm.from_form(w)))


@pytest.mark.parametrize("exact", [False, True])
@PROPERTY
@given(data=st.data())
def test_cup_of_inhomogeneous_forms_sums_the_pairs_of_parts(exact, data):
    U, V = (InhomogeneousForm([data.draw(_forms(r, exact)) for r in range(5)])
            for _ in range(2))
    want = [DiscreteForm.zero(r) for r in range(5)]
    for u, v in itertools.product(U.parts, V.parts):
        w = cup(u, v)
        if u.degree + v.degree > 4:
            assert w.is_zero()  # so such a pair must add nothing
        else:
            want[w.degree] += w
    got = cup(U, V)
    assert isinstance(got, InhomogeneousForm)
    assert got == InhomogeneousForm(want)
    # a homogeneous factor acts as the inhomogeneous form of that one part
    u, v = U.part(1), V.part(2)
    for left, right in ((u, V), (U, v)):
        assert cup(left, right) == cup(*(
            w if isinstance(w, InhomogeneousForm)
            else InhomogeneousForm.from_form(w) for w in (left, right)))
    _check_outputs(exact, got)


def _retyped(w):
    """``w`` with complex values made GaussianRational, and the reverse."""
    return DiscreteForm(w.degree, {
        key: complex(c) if isinstance(c, GaussianRational)
        else GaussianRational(c.real, c.imag) for key, c in w.items()})


@pytest.mark.parametrize("pair_up", [
    lambda u, far: (u, _retyped(u)),
    lambda u, far: (u, _retyped(u) + far - far),  # zeros around u's box
    lambda u, far: (u, _retyped(u) + far),
    lambda u, far: (u, far),
    lambda u, far: (0 * u, 0 * far),  # zero forms, boxes often apart
], ids=["same-box", "nested", "one-more-term", "other-box", "zeros"])
@PROPERTY
@given(st.data())
def test_eq_agrees_with_the_difference(pair_up, data):
    # == compares on the common box; it must say what u - v says
    degree = data.draw(st.integers(0, 4))
    u = data.draw(_forms(degree, data.draw(st.booleans())))
    far = DiscreteForm.basis(data.draw(st.tuples(*[st.integers(-5, 5)] * 4)),
                             data.draw(st.sampled_from(AXIS_SETS[degree])),
                             data.draw(_scalars(data.draw(st.booleans()))))
    u, v = pair_up(u, far)
    assert (u == v) == (v == u) == (u - v).is_zero()


@PROPERTY
@given(_inhomogeneous_cases(), _inhomogeneous_cases())
def test_box_chains_and_table_systems_match_dict_oracles(case, other):
    (O, exact), (W, _) = case, other
    coeffs = dict(O.items())
    a, oracle = Chain(coeffs), DictChain(coeffs)
    assert a.terms == oracle.terms
    assert boundary(a).terms == dict_boundary(oracle).terms
    assert not boundary(boundary(a))
    for w in (W, W.part(1), coboundary(W)):
        assert pair(a, w) == dict_pair(oracle, w)
        assert pair(boundary(a), w) == dict_pair(dict_boundary(oracle), w)
    m = MASS[exact]
    table = dk_system_residual(O, m)
    assert table == dk_system_residual_dict(O, m)
    Oev = InhomogeneousForm([p if p.degree % 2 == 0 else DiscreteForm.zero(
        p.degree) for p in O.parts])
    joyce = joyce_system_residual(Oev, m)
    assert joyce == joyce_system_residual_dict(Oev, m)
    _check_outputs(exact, table, joyce, boundary(a).form)
