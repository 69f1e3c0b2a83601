import itertools

import pytest

from dkjoyce import Chain, DiscreteForm, Window, boundary, coboundary, pair
from dkjoyce.complex4 import AXES, tau_all

from helpers import rand_gaussian, random_form, rng_for, tau_shift


def test_shifts():
    assert tau_all((0, 0, 0, 0)) == (1, 1, 1, 1)


def test_boundary_of_interval():
    # a single interval factor on axis 1: two point chains with signs
    a = Chain.basis((4, 7, 0, 2), (1,))
    assert boundary(a) == Chain({
        ((4, 8, 0, 2), ()): 1,
        ((4, 7, 0, 2), ()): -1,
    })


@pytest.mark.parametrize("key", [((1, 1, 1), (0,)), ((1, 1, 1, 1), (1, 0)),
                                 ((1, 1, 1, 1), (0, 0)), ((1, 1, 1, 1.5), ()),
                                 (5, ()), ((1, 1, 1, 1), 3)])
def test_chain_keys_are_sites_and_blades(key):
    with pytest.raises(ValueError):
        Chain({key: 1})
    with pytest.raises(ValueError):
        DiscreteForm(0, {key: 1})


def test_chain_terms_are_a_read_only_view():
    a = Chain({((0, -3, 0, 2), (1,)): 2, ((0, 0, 0, 0), (1,)): 0})
    assert a.terms == {((0, -3, 0, 2), (1,)): 2}
    with pytest.raises(TypeError):
        a.terms[((0, 0, 0, 0), ())] = 1


def test_boundary_squared_zero_exhaustive():
    win = Window((3, 3, 3, 3))
    for degree in range(1, 5):
        for dirs in itertools.combinations(AXES, degree):
            for k in win.sites():
                assert not boundary(boundary(Chain.basis(k, dirs)))


def test_boundary_squared_zero_random():
    rng = rng_for(11)
    win = Window((3, 3, 3, 3))
    terms = {}
    for k in win.sites():
        for dirs in itertools.combinations(AXES, 2):
            terms[(k, dirs)] = rand_gaussian(rng)
    assert not boundary(boundary(Chain(terms)))


def test_pairing_basis():
    k = (1, 2, 3, 4)
    assert pair(Chain.basis(k, ()), DiscreteForm.basis(k, ())) == 1
    assert pair(Chain.basis(k, (0, 1, 2, 3)), DiscreteForm.basis(k, ())) == 0
    assert pair(Chain.basis(k, (1,)), DiscreteForm.basis(k, (2,))) == 0
    assert pair(Chain.basis(k, (1,)),
                DiscreteForm.basis(tau_shift(k, 1), (1,))) == 0


def test_pairing_duality_exact():
    # <boundary a, w> = <a, coboundary w>, exact over Gaussian rationals
    rng = rng_for(5)
    win = Window((3, 3, 3, 3))
    for degree in range(4):
        a = Chain({
            (k, dirs): rand_gaussian(rng)
            for k in win.sites()
            for dirs in itertools.combinations(AXES, degree + 1)
        })
        w = random_form(rng, degree, win, scalar=rand_gaussian)
        assert pair(boundary(a), w) == pair(a, coboundary(w))
