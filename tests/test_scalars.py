import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkjoyce import GaussianRational, I
from helpers import exact_pair, pair_hash, pair_op


def test_arithmetic_exact():
    a = GaussianRational(Fraction(1, 3), Fraction(2, 7))
    b = GaussianRational(Fraction(-2, 5), 1)
    assert a + b == GaussianRational(Fraction(-1, 15), Fraction(9, 7))
    assert a - b == GaussianRational(Fraction(11, 15), Fraction(-5, 7))
    prod = a * b
    assert prod == GaussianRational(
        Fraction(1, 3) * Fraction(-2, 5) - Fraction(2, 7),
        Fraction(1, 3) + Fraction(2, 7) * Fraction(-2, 5),
    )
    assert (a / b) * b == a


def test_mixed_operands():
    a = GaussianRational(2, -3)
    assert 1 + a == GaussianRational(3, -3)
    assert 2 * a == GaussianRational(4, -6)
    assert a * I == GaussianRational(3, 2)
    # complex scalars convert exactly (floats are dyadic rationals)
    assert 1j * a == GaussianRational(3, 2)
    assert 0.5 * a == GaussianRational(1, Fraction(-3, 2))


def test_conjugate_abs_complex():
    a = GaussianRational(3, 4)
    assert a.conjugate() == GaussianRational(3, -4)
    assert abs(a) == 5.0
    assert complex(a) == 3 + 4j


def test_zero_and_equality():
    assert not GaussianRational(0, 0)
    assert GaussianRational(1, 0) == 1
    assert GaussianRational(0, 1) == I
    assert GaussianRational(1, 1) != 1


# ---------------------------------------------------------------------------
# GaussianRational against the (Fraction, Fraction) pair oracle

RATIONALS = st.fractions(max_denominator=10**12)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# every operand type, drawn with its oracle pair
OPERANDS = st.one_of(
    st.one_of(st.integers(), st.booleans(), RATIONALS, FLOATS,
              st.complex_numbers(allow_nan=False, allow_infinity=False))
    .map(lambda x: (x, exact_pair(x))),
    st.tuples(RATIONALS, RATIONALS)
    .map(lambda p: (GaussianRational(*p), p)))
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _complex_or_error(fn):
    try:
        return fn()
    except OverflowError:
        return OverflowError


def assert_is(z, p):
    """``z`` is the canonical GaussianRational of the oracle pair ``p``."""
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == p
    assert all(type(v) is int for v in (z._a, z._b, z._d))
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert repr(z) == repr(GaussianRational(*p))
    assert bool(z) == (p != (0, 0))
    assert _complex_or_error(lambda: complex(z)) == _complex_or_error(
        lambda: complex(float(p[0]), float(p[1])))
    assert hash(z) == pair_hash(p)
    if not p[1]:
        assert hash(z) == hash(p[0])


@settings(max_examples=300, deadline=None)
@given(st.tuples(RATIONALS, RATIONALS), OPERANDS)
def test_matches_the_fraction_pair_oracle(pair, operand):
    g = GaussianRational(*pair)
    x, xp = operand
    assert_is(g, pair)
    assert_is(-g, (-pair[0], -pair[1]))
    assert_is(g.conjugate(), (pair[0], -pair[1]))
    for op in BINARY:
        # a plain number divided by a GaussianRational is unsupported
        sides = [(g, x, pair, xp)]
        if op is not operator.truediv or isinstance(x, GaussianRational):
            sides.append((x, g, xp, pair))
        for left, right, lp, rp in sides:
            try:
                want = pair_op(op, lp, rp)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError,
                                   match="GaussianRational division by zero"):
                    op(left, right)
            else:
                assert_is(op(left, right), want)
    assert (g == x) is (x == g) is (pair == xp)
    assert (g != x) is (pair != xp)
    if pair == xp:
        assert hash(g) == hash(x)


@pytest.mark.parametrize("seed", range(4))
def test_a_long_chain_keeps_the_oracle_denominator(seed):
    """64 products, each followed by a sum or difference with a number over
    the product's denominator (the sums' shared-denominator path): the
    denominator stays the least one, so a dropped reduction fails here."""
    rng = random.Random(seed)
    z, p = GaussianRational(1), (Fraction(1), Fraction(0))
    for step in range(64):
        mp = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        z, p = z * GaussianRational(*mp), pair_op(operator.mul, p, mp)
        d = math.lcm(p[0].denominator, p[1].denominator)
        sp = (Fraction(rng.randint(-d, d), d), Fraction(rng.randint(-d, d), d))
        op = (operator.add, operator.sub)[step % 2]
        z, p = op(z, GaussianRational(*sp)), pair_op(op, p, sp)
        assert z._d == math.lcm(p[0].denominator, p[1].denominator)
        assert_is(z, p)


def test_arithmetic_builds_no_fraction(monkeypatch):
    g = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    operands = [g, GaussianRational(), 0, 2, True, Fraction(5, 6), 0.375,
                -1.5 + 0.25j]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = [-g, g.conjugate(), bool(g)]
    for x in operands:
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            results += [op(g, x), op(x, g)]
        if x:
            results.append(g / x)
    monkeypatch.undo()
    assert made == []


def test_hash_agrees_with_equal_numbers():
    assert GaussianRational(1) in {1}
    assert GaussianRational(Fraction(1, 2), Fraction(-3, 4)) in {0.5 - 0.75j}
    assert {GaussianRational(Fraction(1, 3)): "x"}[Fraction(1, 3)] == "x"
    # the combined hash is -1 here, which complex too reports as -2
    assert hash(GaussianRational(-1000004, 1)) == hash(-1000004 + 1j) == -2


def test_division_by_zero_names_the_scalar():
    for zero in (0, 0.0, 0j, Fraction(0), GaussianRational()):
        with pytest.raises(ZeroDivisionError,
                           match="GaussianRational division by zero"):
            GaussianRational(1) / zero
