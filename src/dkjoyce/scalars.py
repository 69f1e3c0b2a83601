"""Exact Gaussian-rational scalars.

The float API of the library works with ordinary ``complex`` coefficients.
For zero-tolerance identity checks the test suite runs the same operators
over :class:`GaussianRational`, a complex number with ``Fraction`` real and
imaginary parts.  All operators touch coefficients only through ring
operations (+, -, *), so they are generic over the two scalar types.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    # floats convert exactly (every float is a dyadic rational)
    return x if isinstance(x, Fraction) else Fraction(x)


class GaussianRational:
    """A complex number a + b*i with rational a, b, under exact arithmetic.

    Mixed arithmetic with ``int``, ``Fraction`` and ``complex`` is supported;
    a ``complex`` operand is converted exactly via ``Fraction(float)``, which
    keeps expressions like ``1j * w`` exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0) if x else _ZERO
        if isinstance(x, (float, complex)):
            return cls(_frac(complex(x).real), _frac(complex(x).imag))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o or not self:
            # zero operands are common: form boxes are zero-padded
            return o if o else self
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            return self
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self:
            return o
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return _ZERO
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_ZERO = GaussianRational()

#: exact imaginary unit
I = GaussianRational(0, 1)
