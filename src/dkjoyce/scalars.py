"""Exact Gaussian-rational scalars.

The float API of the library works with ``complex`` coefficients; the exact
identity checks run the same operators, which use only +, -, * and so are
generic over both, on :class:`GaussianRational`.  It holds (a + b*i)/d as
three Python ints in canonical form, d > 0, gcd(a, b, d) == 1 and zero
(0, 0, 1), so each operation is integer arithmetic and one gcd.  It hashes
by ``complex``'s rule, hence like an equal int, ``Fraction``, float or complex.
"""

import sys
from fractions import Fraction
from math import gcd


def _make(a, b, d):
    """The canonical (a + b*i)/d; d > 0."""
    g = gcd(a, b, d)
    z = _new(GaussianRational)
    z._a, z._b, z._d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return z


def _coerce(x):
    if isinstance(x, (int, Fraction)):
        n, d = x.as_integer_ratio()
        return _make(n, 0, d) if n else _ZERO
    if isinstance(x, (float, complex)):
        return GaussianRational(complex(x).real, complex(x).imag)
    return None


def _sum(x, y, s):
    """x + s*y, s = 1 or -1; zero operands are common (zero-padded boxes)."""
    if not (y._a or y._b):
        return x
    if not (x._a or x._b):
        return y if s == 1 else -y
    if x._d == y._d:
        return _make(x._a + s * y._a, x._b + s * y._b, x._d)
    return _make(x._a * y._d + s * y._a * x._d,
                 x._b * y._d + s * y._b * x._d, x._d * y._d)


class GaussianRational:
    """A complex number a + b*i with rational a, b, under exact arithmetic.

    An int, ``Fraction``, float or complex operand converts exactly (floats
    are dyadic rationals), which keeps expressions like ``1j * w`` exact.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if not isinstance(re, (int, float, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, float, Fraction)):
            im = Fraction(im)
        (ra, rd), (ia, id_) = re.as_integer_ratio(), im.as_integer_ratio()
        return _make(ra * id_, ia * rd, rd * id_)

    re = property(lambda self: Fraction(self._a, self._d), doc="real part")
    im = property(lambda self: Fraction(self._b, self._d), doc="imag part")

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        return NotImplemented if o is None else _sum(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        return NotImplemented if o is None else _sum(self, o, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _sum(o, self, -1)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        if not (a or b) or not (c or e):
            return _ZERO
        return _make(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        if not (c or e):
            raise ZeroDivisionError("GaussianRational division by zero")
        return _make((a * c + b * e) * o._d, (b * c - a * e) * o._d,
                     self._d * (c * c + e * e))

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        # int true division is correctly rounded, as Fraction.__float__ is
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        return NotImplemented if o is None else (
            self._a == o._a and self._b == o._b and self._d == o._d)

    def __hash__(self):
        # complex's rule: wrapped to a signed word; hash() maps -1 to -2
        w = 1 << sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % w
        return h - w if 2 * h >= w else h

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_ZERO = GaussianRational()
I = GaussianRational(0, 1)  #: exact imaginary unit
