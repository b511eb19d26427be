"""Coefficient domains for the multiplication engine and the linear algebra.

Every element type supports +, -, *, /, unary -, ==, hash and is falsy
exactly when zero, so engine code is agnostic to the domain:

* :class:`SymbolicDomain` -- exact elements of the field Q(s)
  (:class:`~btkit.scalars.Scalar`), the default; computations here hold for
  generic u.
* :class:`RationalDomain` -- sqrt(u) specialized to a rational number,
  elements are ``Fraction``.
* :class:`PrimeDomain` -- the rational specialization pushed into GF(p),
  elements are :class:`IntMod`; used for bulk eliminations where exact
  rational growth is prohibitive.  Agreement across two (point, prime)
  choices is reported as genericity evidence, never as proof.

The one echelon, :class:`btkit.linalg.Echelon`, takes the domain's zero, so
the linear algebra above the engine never asks which domain it runs in.
"""

from fractions import Fraction

from . import scalars
from .scalars import Scalar


class PointError(ValueError):
    """A specialization point at which a domain cannot be built."""


class SymbolicDomain:
    zero = scalars.ZERO
    one = scalars.ONE
    u = scalars.U
    sqrt_u = scalars.SQRT_U
    u_minus_1 = scalars.U_MINUS_1

    @staticmethod
    def of_int(k):
        return Scalar.from_int(k)

    def __repr__(self):
        return "SymbolicDomain()"


class RationalDomain:
    """sqrt(u) |-> a fixed rational; coefficients become Fractions."""

    def __init__(self, s):
        self.s = Fraction(s)
        if self.s == 0:
            raise PointError("s = 0 is a pole of the engine constants")
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.u = self.s * self.s
        self.sqrt_u = self.s
        self.u_minus_1 = self.u - 1
        if self.u == -1:
            raise PointError("1 + u must not vanish")

    @staticmethod
    def of_int(k):
        return Fraction(k)

    def __repr__(self):
        return "RationalDomain(s=%s)" % self.s


class IntMod:
    """An element of GF(p) with field operator overloads."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return IntMod(self.v + other.v, self.p)

    def __sub__(self, other):
        return IntMod(self.v - other.v, self.p)

    def __mul__(self, other):
        return IntMod(self.v * other.v, self.p)

    def __neg__(self):
        return IntMod(-self.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return IntMod(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, IntMod) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "IntMod(%d, %d)" % (self.v, self.p)


# the two primes of the specializations at n >= 4, the k-th point paired
# with the k-th prime; IntMod arithmetic is exact at any p, and the golden
# reports pin the values at these
PRIMES = (9999991, 9999973)


class PrimeDomain:
    """sqrt(u) |-> rational point embedded into GF(p)."""

    def __init__(self, s, p=PRIMES[0]):
        self.point = Fraction(s)
        self.p = p
        num = self.point.numerator % p
        den = self.point.denominator % p
        if den == 0 or num == 0:
            raise PointError("point %s degenerates mod %d" % (self.point, p))
        self.s = num * pow(den, p - 2, p) % p
        self.zero = IntMod(0, p)
        self.one = IntMod(1, p)
        self.sqrt_u = IntMod(self.s, p)
        self.u = self.sqrt_u * self.sqrt_u
        self.u_minus_1 = self.u - self.one
        if not (self.u + self.one):
            raise PointError("1 + u vanishes mod %d at %s" % (p, self.point))

    def of_int(self, k):
        return IntMod(k, self.p)

    def __repr__(self):
        return "PrimeDomain(s=%s, p=%d)" % (self.point, self.p)


SYMBOLIC = SymbolicDomain()
