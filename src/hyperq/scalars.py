"""Scalar regimes: exact rationals, correctly rounded big floats, and second-order jets.

Three kinds of values flow through every evaluator in this package:

* exact rationals -- ``Rational``, a ``fractions.Fraction`` (below);
* ``HighPrecision`` -- a binary float with an explicit working precision,
  every operation rounded to nearest at that precision;
* ``Jet2`` -- a triple (f, f', f'') propagated by the Leibniz and quotient
  rules, over either of the other two regimes.

Mixing regimes is a checked error (``RegimeMismatchError``), never a silent
coercion, with two exceptions:

* plain Python ints are exact in every regime and may appear as either
  operand anywhere;
* a plain value of a jet's own base regime (a ``Fraction`` beside a jet over
  ``Fraction``, a ``HighPrecision`` beside a jet over ``HighPrecision``) is a
  constant jet (c, 0, 0), and the products with its zero derivatives are
  never computed.

Every other mix, such as a jet over ``Fraction`` with a ``HighPrecision``,
raises.  The hand-off of a jet beside a ``HighPrecision`` goes through
Python's reflected operators: ``HighPrecision._check`` returns
``NotImplemented`` for a jet operand, which the forward operators return, so
``h + j`` runs ``Jet2.__radd__``; a comparison or a reflected
``HighPrecision`` operator given a jet raises instead.

The exact regime computes on ``Rational``, a ``Fraction`` whose + - * / and
integer ** run ``fractions``' own algorithms (Henrici's cross gcds for * and /,
Knuth's for + and -; TAOCP vol. 2, 4.5.1) without its operator dispatch, on
ints and ``Rational`` values first, then on other ``Fraction`` values.  Each
result is the canonical ``Fraction`` result, as a ``Rational``; ``str``, ``==``
and ``hash`` are ``Fraction``'s.  Any other operand gets ``NotImplemented``: a
``HighPrecision`` or a jet decides as beside a ``Fraction``, a float raises.

The exact jet is a ``RationalJet``: the ``Jet2`` over ``Fraction`` that
``jet_lift`` builds for rational input, and that its own arithmetic returns.
It keeps three integer numerators over one positive denominator,
(n0, n1, n2)/den, in canonical form: gcd(n0, n1, n2, den) = 1.  Each
operation computes the integer numerators of its result over a common
denominator and divides out their one ``math.gcd``, where three
``Fraction`` components would normalise every product and sum on its own
(the fraction-free form of Taylor-mode propagation); an integer power takes
a second gcd, which keeps its intermediates at the size of its value.  Its components read
as ``Fraction`` values, and it compares and hashes equal to the ``Jet2``
with the same components.  Its operands are ints, ``Fraction`` values and
other rational jets; a ``Jet2`` built with ``Fraction`` components stays
constructible as a reference of the same values (the tests compare against
it), but is not an operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import libmp

_RND = "n"  # round to nearest everywhere


class RegimeMismatchError(TypeError):
    """Raised when values from different numeric regimes are combined."""


class Rational(Fraction):
    """The exact rational of the engine (see the module docstring)."""

    __slots__ = ()

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __pow__(a, n):
        if not isinstance(n, int):
            return NotImplemented
        if n >= 0:
            return _rational(a._numerator ** n, a._denominator ** n)
        return _product(1, 1, a._denominator ** -n, a._numerator ** -n)  # 1/a^-n


_new = object.__new__
_set_numerator = Fraction._numerator.__set__  # the two slots Fraction declares
_set_denominator = Fraction._denominator.__set__


def _rational(n: int, d: int) -> Rational:
    """The ``Rational`` n/d, already in lowest terms with d > 0."""
    r = _new(Rational)
    _set_numerator(r, n)
    _set_denominator(r, d)
    return r


def _operators(kernel):
    """The forward and reflected operators of ``kernel(na, da, nb, db)``."""
    def forward(a, b):
        t = type(b)
        if t is Rational:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        if isinstance(b, (int, Fraction)):
            return kernel(a._numerator, a._denominator, b.numerator, b.denominator)
        return NotImplemented

    def reflected(a, b):  # b is never a Rational: a Rational b takes its forward operator
        if type(b) is int:
            return kernel(b, 1, a._numerator, a._denominator)
        if isinstance(b, (int, Fraction)):
            return kernel(b.numerator, b.denominator, a._numerator, a._denominator)
        return NotImplemented

    return forward, reflected


def _sum(na, da, nb, db):
    """na/da + nb/db by Knuth's gcds: g of the denominators, then of g and the numerator."""
    g = math.gcd(da, db)
    if g == 1:
        return _rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    return _rational(t // g2, s * (db // g2)) if g2 != 1 else _rational(t, s * db)


def _product(na, da, nb, db):
    """(na/da) * (nb/db) by Henrici's cross gcds, for db of either sign; db = 0
    is a division by zero."""
    if not db:
        raise ZeroDivisionError("division by zero")
    g1 = math.gcd(na, db)
    if g1 > 1:
        na, db = na // g1, db // g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb, da = nb // g2, da // g2
    n, d = na * nb, da * db
    return _rational(-n, -d) if d < 0 else _rational(n, d)


Rational.__add__, Rational.__radd__ = _operators(_sum)
Rational.__sub__, Rational.__rsub__ = _operators(lambda na, da, nb, db: _sum(na, da, -nb, db))
Rational.__mul__, Rational.__rmul__ = _operators(_product)
Rational.__truediv__, Rational.__rtruediv__ = _operators(
    lambda na, da, nb, db: _product(na, da, db, nb))


class HighPrecision:
    """Arbitrary-precision binary float with a fixed working precision.

    Wraps a raw mpmath significand/exponent tuple; every arithmetic
    operation rounds to nearest at ``prec`` bits.  Values are immutable and
    all operations are pure functions of their operands, so instances are
    safe to share between threads.
    """

    __slots__ = ("raw", "prec")

    def __init__(self, raw: tuple, prec: int):
        if prec < 8:
            raise ValueError("working precision must be at least 8 bits")
        self.raw = raw
        self.prec = prec

    # -- construction -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int) -> "HighPrecision":
        return cls(libmp.from_int(n, prec, _RND), prec)

    @classmethod
    def from_fraction(cls, x: Union[Fraction, int], prec: int) -> "HighPrecision":
        return cls.from_quotient(x.numerator, x.denominator, prec)

    @classmethod
    def from_quotient(cls, n: int, d: int, prec: int) -> "HighPrecision":
        """n/d for ints n and d != 0, correctly rounded to nearest at prec bits.

        Ziv's strategy (ACM TOMS 17, 1991) on truncated operands: an operand
        longer than w = prec + 64 bits keeps its top w bits, a = |n| >> s and
        b = |d| >> t, and q = floor(a 2^k/b) has w or w + 1 bits.  Then Y =
        |n/d| 2^(t-s+k) lies in (q - 4, q + 5): when t > 0, Y > q b/(b + 1) and
        b >= 2^(w-1) > q/4; when s > 0, Y < (a + 1) 2^k/b < q + 1 + 2^(w+1)/a
        and a >= 2^(w-1).  Rounding q to prec bits drops its low r >= 64 bits
        f, so the nearest tie is |f - 2^(r-1)| from q and every other rounding
        boundary at least 2^62 away.  When |f - 2^(r-1)| >= 5, Y rounds as q
        does, to q's rounding times 2^(s-t-k); else n/d is divided exactly.
        """
        w = prec + 64
        s, t = max(abs(n).bit_length() - w, 0), max(abs(d).bit_length() - w, 0)
        if n and (s or t):
            a, b = abs(n) >> s, abs(d) >> t
            k = w + b.bit_length() - a.bit_length()
            q = (a << k) // b
            r = q.bit_length() - prec
            if abs((q & (1 << r) - 1) - (1 << r - 1)) >= 5:
                q = -q if (n < 0) != (d < 0) else q
                return cls(libmp.from_man_exp(q, s - t - k, prec, _RND), prec)
        return cls(libmp.from_rational(n, d, prec, _RND), prec)

    # -- helpers -----------------------------------------------------------

    def _check(self, other):
        # the raw value of other, or NotImplemented for a jet (off the HighPrecision path)
        if isinstance(other, HighPrecision):
            if other.prec != self.prec:
                raise RegimeMismatchError(
                    f"working precisions differ: {self.prec} vs {other.prec}"
                )
            return other.raw
        if isinstance(other, int):
            return libmp.from_int(other, self.prec, _RND)
        if isinstance(other, Jet2):
            return NotImplemented
        raise RegimeMismatchError(
            f"cannot combine HighPrecision with {type(other).__name__}"
        )

    def _operand(self, other):  # _check for the comparisons and reflected operators
        raw = self._check(other)
        if raw is NotImplemented:
            raise RegimeMismatchError("a HighPrecision compares with or takes no Jet2")
        return raw

    def is_zero(self) -> bool:
        return self.raw == libmp.fzero

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        raw = self._check(other)
        if raw is NotImplemented:
            return raw
        return HighPrecision(libmp.mpf_add(self.raw, raw, self.prec, _RND), self.prec)

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._check(other)
        if raw is NotImplemented:
            return raw
        return HighPrecision(libmp.mpf_sub(self.raw, raw, self.prec, _RND), self.prec)

    def __rsub__(self, other):
        return HighPrecision(libmp.mpf_sub(self._operand(other), self.raw, self.prec, _RND), self.prec)

    def __mul__(self, other):
        raw = self._check(other)
        if raw is NotImplemented:
            return raw
        return HighPrecision(libmp.mpf_mul(self.raw, raw, self.prec, _RND), self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._check(other)
        if raw is NotImplemented:
            return raw
        if raw == libmp.fzero:
            raise ZeroDivisionError("division by zero in HighPrecision regime")
        return HighPrecision(libmp.mpf_div(self.raw, raw, self.prec, _RND), self.prec)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division by zero in HighPrecision regime")
        return HighPrecision(libmp.mpf_div(self._operand(other), self.raw, self.prec, _RND), self.prec)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RegimeMismatchError("HighPrecision exponents must be integers")
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("zero to a negative power")
        return HighPrecision(libmp.mpf_pow_int(self.raw, n, self.prec, _RND), self.prec)

    def __neg__(self):
        return HighPrecision(libmp.mpf_neg(self.raw, self.prec, _RND), self.prec)

    def __abs__(self):
        return HighPrecision(libmp.mpf_abs(self.raw, self.prec, _RND), self.prec)

    # -- comparison ----------------------------------------------------------

    def _cmp(self, other) -> int:
        return libmp.mpf_cmp(self.raw, self._operand(other))

    def __eq__(self, other):
        if isinstance(other, HighPrecision) or isinstance(other, int):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.raw, self.prec))

    def power_beyond(self, e: int, bits: int) -> bool:
        """Whether |self^e| lies outside [2^-bits, 2^bits], i.e. |e log2|self|| > bits.

        Decided from the binary exponent alone unless the power is near a
        limit; there log|self| is taken to 53 bits, which libmp computes
        accurately near 1 too, and a power of two stays exact.
        """
        _, man, exp, bc = self.raw
        top = exp + bc  # 2^(top-1) <= |self| < 2^top
        if not man or abs(e) * max(abs(top), abs(top - 1)) <= bits:
            return False
        if man == 1:
            return abs(e * exp) > bits
        log = libmp.mpf_log(libmp.mpf_abs(self.raw), 53, _RND)
        return libmp.mpf_cmp(libmp.mpf_abs(libmp.mpf_mul(log, libmp.from_int(e))),
                             libmp.mpf_mul(libmp.mpf_ln2(53, _RND), libmp.from_int(bits))) > 0

    # -- conversion ----------------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Exact value as a rational (every finite binary float is dyadic)."""
        sign, man, exp, _ = self.raw
        if man == 0 and exp != 0:
            raise ValueError("non-finite HighPrecision value")
        n = -man if sign else man
        if exp >= 0:
            return Fraction(n * (1 << exp))
        return Fraction(n, 1 << -exp)

    def round_to(self, prec: int) -> "HighPrecision":
        """Re-round to a (usually smaller) working precision."""
        return HighPrecision(libmp.mpf_pos(self.raw, prec, _RND), prec)

    def to_decimal(self, dps: int) -> str:
        return libmp.to_str(self.raw, dps)

    def __repr__(self):
        return f"HighPrecision({libmp.to_str(self.raw, max(self.prec // 4, 6))}, prec={self.prec})"


@dataclass(frozen=True)
class Jet2:
    """Value together with raw first and second derivatives (f, f', f'').

    The second component is f'' itself, not the Taylor coefficient f''/2,
    so applying a derivative operator twice to an identity corresponds to
    comparing the ``d2`` components directly.  Arithmetic follows

        d(ab)  = a db + b da
        d2(ab) = a d2b + 2 da db + d2a b

    and the quotient rules induced by them; with Fraction components these
    hold exactly.
    """

    value: Union[Fraction, HighPrecision]
    d1: Union[Fraction, HighPrecision]
    d2: Union[Fraction, HighPrecision]

    def _plain(self, other):
        """``other`` as a constant of this jet's base regime (see the module docstring)."""
        base = HighPrecision if isinstance(self.value, HighPrecision) else Fraction
        if isinstance(other, (int, base)):
            return other
        raise RegimeMismatchError(
            f"cannot combine Jet2 over {type(self.value).__name__} with {type(other).__name__}")

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.value + self._plain(other), self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)
        return Jet2(self.value - self._plain(other), self.d1, self.d2)

    def __rsub__(self, other):
        return Jet2(self._plain(other) - self.value, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + 2 * (self.d1 * other.d1) + self.d2 * other.value,
            )
        c = self._plain(other)
        return Jet2(self.value * c, self.d1 * c, self.d2 * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            c = self._plain(other)
            return Jet2(self.value / c, self.d1 / c, self.d2 / c)
        if _is_zero(other.value):
            raise ZeroDivisionError("jet division by a jet with zero value component")
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2 * (q1 * other.d1) - q * other.d2) / other.value
        return Jet2(q, q1, q2)

    def __rtruediv__(self, other):
        q = self._plain(other) / self.value
        q1 = -(q * self.d1) / self.value
        q2 = (-(2 * (q1 * self.d1)) - q * self.d2) / self.value
        return Jet2(q, q1, q2)

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RegimeMismatchError("jet exponents must be integers")
        if n < 0:
            return (1 / self) ** (-n)
        if n == 0:
            return self * 0 + 1
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


class RationalJet(Jet2):
    """The exact jet: (n0, n1, n2)/den in canonical form, held as the tuple ``ints``.

    Constructed from rational components like a ``Jet2``; every operation
    returns a new canonical jet (see the module docstring).
    """

    __slots__ = ("ints",)

    def __init__(self, value, d1, d2):
        parts = [Fraction(value), Fraction(d1), Fraction(d2)]
        den = math.lcm(*(c.denominator for c in parts))  # canonical: no prime divides all four
        _set_ints(self, tuple(c.numerator * (den // c.denominator) for c in parts) + (den,))

    value = property(lambda self: Fraction(self.ints[0], self.ints[3]))
    d1 = property(lambda self: Fraction(self.ints[1], self.ints[3]))
    d2 = property(lambda self: Fraction(self.ints[2], self.ints[3]))

    def __eq__(self, other):
        if type(other) is RationalJet:
            return self.ints == other.ints
        if isinstance(other, Jet2):
            return (self.value, self.d1, self.d2) == (other.value, other.d1, other.d2)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.d1, self.d2))

    def __add__(self, other):
        a0, a1, a2, a = self.ints
        if type(other) is RationalJet:
            b0, b1, b2, b = other.ints
            if a == b:
                return _jet(a0 + b0, a1 + b1, a2 + b2, a)
            return _jet(a0 * b + b0 * a, a1 * b + b1 * a, a2 * b + b2 * a, a * b)
        p, q = _ratio(other)
        if q == 1:  # adding a multiple of den keeps the gcd
            return _canonical((a0 + p * a, a1, a2, a))
        return _jet(a0 * q + p * a, a1 * q, a2 * q, a * q)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a0, a1, a2, a = self.ints
        if type(other) is RationalJet:
            b0, b1, b2, b = other.ints
            return _jet(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + 2 * a1 * b1 + a2 * b0, a * b)
        p, q = _ratio(other)
        return _jet(a0 * p, a1 * p, a2 * p, a * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a0, a1, a2, a = self.ints
        if type(other) is not RationalJet:
            p, q = _ratio(other)
            if p == 0:
                raise ZeroDivisionError("jet division by zero")
            return _jet(a0 * q, a1 * q, a2 * q, a * p)
        b0, b1, b2, b = other.ints
        if b0 == 0:
            raise ZeroDivisionError("jet division by a jet with zero value component")
        # (a0, a1, a2)/(b0, b1, b2) over b0^3, by the quotient rules; times b/a
        return _jet(b * a0 * b0 * b0, b * (a1 * b0 - a0 * b1) * b0,
                    b * (a2 * b0 * b0 - 2 * a1 * b0 * b1 - a0 * b0 * b2 + 2 * a0 * b1 * b1),
                    a * b0 * b0 * b0)

    def __rtruediv__(self, other):
        a0, a1, a2, a = self.ints
        p, q = _ratio(other)
        if a0 == 0:
            raise ZeroDivisionError("jet division by a jet with zero value component")
        p *= a
        return _jet(p * a0 * a0, -p * a0 * a1, p * (2 * a1 * a1 - a0 * a2), q * a0 * a0 * a0)

    def __neg__(self):
        a0, a1, a2, a = self.ints
        return _canonical((-a0, -a1, -a2, a))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RegimeMismatchError("jet exponents must be integers")
        if n < 0:
            return (1 / self) ** -n
        if n < 2:
            return self if n else _ONE
        # (f^n)' = n f^(n-1) f' and (f^n)'' = n f^(n-1) f'' + n(n-1) f^(n-2) f'^2.
        # With f = v/w in lowest terms and den = w*g, they lie over w^n g^2: a
        # second gcd, as den^n can be far larger than the result (f = 1, den = 2)
        a0, a1, a2, a = self.ints
        g = math.gcd(a0, a)
        v, w = a0 // g, a // g
        t = v ** (n - 2)
        u = t * v
        return _jet(u * v * g * g, n * u * a1 * g, n * (u * a2 * g + (n - 1) * t * a1 * a1),
                    w ** n * g * g)


_set_ints = RationalJet.ints.__set__


def _canonical(ints: tuple) -> RationalJet:
    """The jet of ``ints``, already in canonical form."""
    j = _new(RationalJet)
    _set_ints(j, ints)
    return j


def _jet(n0: int, n1: int, n2: int, den: int) -> RationalJet:
    """The canonical jet (n0, n1, n2)/den, den != 0: one gcd."""
    if den < 0:
        n0, n1, n2, den = -n0, -n1, -n2, -den
    g = math.gcd(n0, n1, n2, den)
    if g != 1:
        n0, n1, n2, den = n0 // g, n1 // g, n2 // g, den // g
    return _canonical((n0, n1, n2, den))


def _ratio(c):
    """The exact constant ``c`` as (numerator, denominator); other values are another regime."""
    if type(c) is Rational:
        return c._numerator, c._denominator
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise RegimeMismatchError(f"cannot combine a rational jet with {type(c).__name__}")


_ONE = _canonical((1, 0, 0, 1))

Scalar = Union[Fraction, HighPrecision, Jet2]


def _is_zero(x) -> bool:
    if isinstance(x, HighPrecision):
        return x.is_zero()
    return x == 0


def int_pow(x: Scalar, n: int) -> Scalar:
    """x**n for integer n (negative allowed when x is invertible; an int x stays exact)."""
    return (_rational(x, 1) if n < 0 and isinstance(x, int) else x) ** n


def jet_lift(x: Union[Fraction, HighPrecision, int], active: bool = True) -> Jet2:
    """Seed a jet at the point x: (x, 1, 0) when active, (x, 0, 0) otherwise;
    a ``RationalJet`` for a rational x."""
    if isinstance(x, (int, Fraction)):
        p, q = _ratio(x)
        return _canonical((p, q if active else 0, 0, q))
    if not isinstance(x, HighPrecision):
        raise RegimeMismatchError("jets lift rationals or HighPrecision values")
    return Jet2(x, HighPrecision.from_int(int(active), x.prec), HighPrecision.from_int(0, x.prec))


def agree_to(a: HighPrecision, b: HighPrecision, t: int) -> bool:
    """True iff |a - b| <= 2^(-t) * max(1, |a|), compared exactly."""
    if a.prec != b.prec:
        raise RegimeMismatchError("agree_to requires matching working precisions")
    fa, fb = a.to_fraction(), b.to_fraction()
    scale = max(Fraction(1), abs(fa))
    return abs(fa - fb) * (1 << t) <= scale
