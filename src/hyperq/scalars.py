"""Scalar regimes: exact rationals, correctly rounded big floats, and second-order jets.

Three kinds of values flow through every evaluator in this package:

* exact rationals -- stdlib ``fractions.Fraction``;
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
raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import libmp

_RND = "n"  # round to nearest everywhere


class RegimeMismatchError(TypeError):
    """Raised when values from different numeric regimes are combined."""


class _JetOperand(RegimeMismatchError):
    """A ``Jet2`` met a ``HighPrecision`` operator, which defers to the jet."""


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
        x = Fraction(x)
        return cls(libmp.from_rational(x.numerator, x.denominator, prec, _RND), prec)

    # -- helpers -----------------------------------------------------------

    def _check(self, other):
        if isinstance(other, HighPrecision):
            if other.prec != self.prec:
                raise RegimeMismatchError(
                    f"working precisions differ: {self.prec} vs {other.prec}"
                )
            return other.raw
        if isinstance(other, int):
            return libmp.from_int(other, self.prec, _RND)
        if isinstance(other, Jet2):
            raise _JetOperand("HighPrecision operators leave jets to Jet2")
        raise RegimeMismatchError(
            f"cannot combine HighPrecision with {type(other).__name__}"
        )

    def is_zero(self) -> bool:
        return self.raw == libmp.fzero

    # -- arithmetic ---------------------------------------------------------

    # The forward operators return NotImplemented for a jet operand, so that
    # Python hands ``h + j`` to ``Jet2.__radd__``; the test sits in _check's
    # fallback branch, off the HighPrecision-with-HighPrecision path.

    def __add__(self, other):
        try:
            raw = self._check(other)
        except _JetOperand:
            return NotImplemented
        return HighPrecision(libmp.mpf_add(self.raw, raw, self.prec, _RND), self.prec)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            raw = self._check(other)
        except _JetOperand:
            return NotImplemented
        return HighPrecision(libmp.mpf_sub(self.raw, raw, self.prec, _RND), self.prec)

    def __rsub__(self, other):
        return HighPrecision(libmp.mpf_sub(self._check(other), self.raw, self.prec, _RND), self.prec)

    def __mul__(self, other):
        try:
            raw = self._check(other)
        except _JetOperand:
            return NotImplemented
        return HighPrecision(libmp.mpf_mul(self.raw, raw, self.prec, _RND), self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            raw = self._check(other)
        except _JetOperand:
            return NotImplemented
        if raw == libmp.fzero:
            raise ZeroDivisionError("division by zero in HighPrecision regime")
        return HighPrecision(libmp.mpf_div(self.raw, raw, self.prec, _RND), self.prec)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division by zero in HighPrecision regime")
        return HighPrecision(libmp.mpf_div(self._check(other), self.raw, self.prec, _RND), self.prec)

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
        return libmp.mpf_cmp(self.raw, self._check(other))

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

    def scaled_le(self, m: int, other: "HighPrecision", n: int) -> bool:
        """Whether m*self <= n*other, compared exactly."""
        return libmp.mpf_cmp(libmp.mpf_mul(self.raw, libmp.from_int(m)),
                             libmp.mpf_mul(other.raw, libmp.from_int(n))) <= 0

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
        if isinstance(other, (int, type(self.value))):
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
            return scalar_one(self)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


Scalar = Union[Fraction, HighPrecision, Jet2]


def _is_zero(x) -> bool:
    if isinstance(x, HighPrecision):
        return x.is_zero()
    return x == 0


def _zero_like(x):
    if isinstance(x, HighPrecision):
        return HighPrecision.from_int(0, x.prec)
    return Fraction(0)


def _one_like(x):
    if isinstance(x, HighPrecision):
        return HighPrecision.from_int(1, x.prec)
    return Fraction(1)


def scalar_zero(x: Scalar):
    """Additive identity in the regime of ``x``."""
    if isinstance(x, Jet2):
        z = _zero_like(x.value)
        return Jet2(z, z, z)
    return _zero_like(x)


def scalar_one(x: Scalar):
    """Multiplicative identity in the regime of ``x``."""
    if isinstance(x, Jet2):
        z = _zero_like(x.value)
        return Jet2(_one_like(x.value), z, z)
    return _one_like(x)


def int_pow(x: Scalar, n: int) -> Scalar:
    """x**n for integer n (negative allowed when x is invertible)."""
    if isinstance(x, (HighPrecision, Jet2)):
        return x ** n
    if n < 0:
        if x == 0:
            raise ZeroDivisionError("zero to a negative power")
        return Fraction(1) / (x ** (-n))
    return x ** n


def jet_lift(x: Union[Fraction, HighPrecision, int], active: bool = True) -> Jet2:
    """Seed a jet at the point x: (x, 1, 0) when active, (x, 0, 0) otherwise."""
    if isinstance(x, int):
        x = Fraction(x)
    if not isinstance(x, (Fraction, HighPrecision)):
        raise RegimeMismatchError("jets lift rationals or HighPrecision values")
    one = _one_like(x)
    zero = _zero_like(x)
    return Jet2(x, one if active else zero, zero)


def to_precision(x: Union[Fraction, int], p: int) -> HighPrecision:
    """Nearest p-bit binary float to the rational x (relative error <= 2^(1-p))."""
    return HighPrecision.from_fraction(x, p)


def agree_to(a: HighPrecision, b: HighPrecision, t: int) -> bool:
    """True iff |a - b| <= 2^(-t) * max(1, |a|), compared exactly."""
    if a.prec != b.prec:
        raise RegimeMismatchError("agree_to requires matching working precisions")
    fa, fb = a.to_fraction(), b.to_fraction()
    scale = max(Fraction(1), abs(fa))
    return abs(fa - fb) * (1 << t) <= scale
