"""The q-analogues and constants that the series engine evaluates whole:
q-integers, the q-sum term, infinite q-products and q-sums, pi, square
roots and the algebraic sin/cos values on closed-form sides.

The running atoms (Pochhammer and q-Pochhammer symbols, factorials,
harmonic numbers, finite q-sums) have one definition each, as recurrences of
the term programs in :mod:`hyperq.series`; the finite q-sum and
:func:`q_sum_infinite` share :func:`q_sum_term`.  Everything here is generic
over the scalar regimes of :mod:`hyperq.scalars` where its domain allows:
exact rationals, correctly rounded ``HighPrecision`` floats, and jets.

Gamma ratios never appear: every ratio of Gamma values used by closed forms
is expressed as a ratio of shifted factorials, which is exactly rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import libmp

from .scalars import (
    HighPrecision,
    Jet2,
    Scalar,
    agree_to,
    int_pow,
    scalar_one,
    scalar_zero,
)


class DomainError(ValueError):
    """An argument outside the domain on which a function is available."""


class NonConvergentBaseError(DomainError):
    """Raised when an infinite q-product or q-sum is requested at |q^s| >= 1."""


# ---------------------------------------------------------------------------
# q-atoms
# ---------------------------------------------------------------------------


def q_pochhammer_infinite(x, qs):
    """(x; Q)_infinity for Q = ``qs``, in two phases, with a proven tail.

    ``qs`` is the base itself (q^s for a step s), requires 0 < Q < 1 and sets
    the precision ``prec`` of the result.  ``x`` and ``qs`` may be
    ``HighPrecision`` or jets over it; every test reads the value components,
    and jet components follow the same steps.

    1. Explicit factors (1 - x Q^j), one by one, while |x Q^j| > (1-Q)/2.
       Their number depends on x and Q, not on the precision.
    2. Euler's series (Gasper-Rahman (1.3.16)) for the rest, (y; Q)_infinity
       with y = x Q^m:  sum_n u_n,  u_0 = 1,  u_(n+1) = -u_n y Q^n/(1-Q^(n+1)).
       As |y| <= (1-Q)/2, every |u_(n+1)/u_n| <= Q^n/2, so the terms after
       u_N sum to at most |u_N| Q^N.  Summation stops once that drops below
       2^(-prec-8), after about sqrt(2 prec/log2(1/Q)) terms.  The series
       value lies in [1/2, e^(1/2)] and the |u_n| sum to at most e^(1/2), so
       cancellation costs under 2 bits and the dropped tail is a relative
       error below 2^(-prec-7).
    """
    qs_val = _value(qs)
    if not isinstance(qs_val, HighPrecision):
        raise TypeError("infinite q-products are evaluated in the HighPrecision regime")
    prec = qs_val.prec
    if not (0 < qs_val and qs_val < 1):
        raise NonConvergentBaseError("infinite q-product requires 0 < q^s < 1")
    gap = 1 - qs_val
    product, y = 1, x
    while 2 * abs(_value(y)) > gap:
        product = (1 - y) * product
        y = y * qs
    threshold = HighPrecision.from_fraction(Fraction(1, 2 ** (prec + 8)), prec)
    # w = u_n Q^n is both the tail bound after u_n and the next step's numerator
    total = w = power = 1
    while abs(_value(w)) >= threshold:
        power = power * qs
        u = w * y / (power - 1)
        total = total + u
        w = u * power
    return product * total


def _value(v):
    """The value component of a jet, or the value itself."""
    return v.value if isinstance(v, Jet2) else v


class QIntegers:
    """[m] = 1 + q + ... + q^(m-1) for nondecreasing m, by a running sum.

    Holds (m, [m], q^m) and advances by ``total + p`` and ``p * q`` in the
    order a fresh sum takes them, so every value is bit-identical to a sum
    from 0 in every regime; a smaller m restarts from 0.
    """

    def __init__(self, q: Scalar):
        self.q = q
        self.m = 0
        self.total = scalar_zero(q)
        self.power = scalar_one(q)

    def __call__(self, m: int) -> Scalar:
        if m < 0:
            raise ValueError("q-integer index must be nonnegative")
        if m < self.m:
            self.__init__(self.q)
        while self.m < m:
            self.total = self.total + self.power
            self.power = self.power * self.q
            self.m += 1
        return self.total


def q_integer(m: int, q: Scalar) -> Scalar:
    """[m] = 1 + q + ... + q^(m-1).

    The package itself runs :class:`QIntegers`; this wrapper stays because the
    benchmark's per-layer tracer (``bench/layers.py``) hooks it by name.
    """
    return QIntegers(q)(m)


def q_sum_term(order: int, stride: int, shift: int, sign: int, q, q_ints: QIntegers, i: int,
               errors=(ValueError, ZeroDivisionError)):
    """The i-th summand sign^(i-1) q^idx / [idx]^order of a q-sum, idx = stride*i + shift,
    together with q^idx.

    ``q_ints`` is the sum's running :class:`QIntegers` over ``q``; ``errors``
    are the classes raised for an index below 1 and for a zero [idx].  Both
    the finite ``qsum`` atom and :func:`q_sum_infinite` take their terms here.
    """
    idx = stride * i + shift
    if idx < 1:
        raise errors[0](f"nonpositive q-sum index {idx} at i={i}")
    den = int_pow(q_ints(idx), order)
    qpow = int_pow(q, idx)
    try:
        term = qpow / den
    except ZeroDivisionError:  # every regime's division raises it for a zero [idx]
        raise errors[1](f"zero q-integer [{idx}] in a q-sum denominator") from None
    return (-term if sign == -1 and (i - 1) % 2 == 1 else term), qpow


def q_sum_infinite(order: int, stride: int, shift: int, sign: int, q) -> "HighPrecision":
    """The infinite q-sum constant sum_{i>=1} sign^(i-1) q^(stride*i+shift)/[...]^order.

    Terms are dominated by q^(stride*i+shift) since [m] >= 1 for 0 < q < 1,
    so summation stops once the geometric tail bound q^idx/(1-q^stride)
    drops below 2^(-prec-8).
    """
    if not isinstance(q, HighPrecision):
        raise TypeError("infinite q-sums are evaluated in the HighPrecision regime")
    if not (0 < q and q < 1):
        raise NonConvergentBaseError("infinite q-sum requires 0 < q < 1")
    prec = q.prec
    threshold = HighPrecision.from_fraction(Fraction(1, 2 ** (prec + 8)), prec)
    ratio_gap = 1 - int_pow(q, stride)
    q_ints = QIntegers(q)
    total = scalar_zero(q)
    i = 1
    while True:
        term, qpow = q_sum_term(order, stride, shift, sign, q, q_ints, i)
        total = total + term
        if qpow / ratio_gap < threshold:
            return total
        i += 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _arctan_recip(m: int, prec: int) -> HighPrecision:
    """arctan(1/m) = sum_j (-1)^j / ((2j+1) m^(2j+1)) in N = wp + g bit fixed point.

    p_j = floor(2^N / m^(2j+1)) exactly (nested floors compose), so each term
    is off by less than 2^-N, as is the alternating tail dropped once p_j = 0.
    At most N/2 + 1 terms and 2^g > N + 4 keep the sum within 2^-wp of arctan(1/m).
    """
    wp = prec + 16
    n = wp + wp.bit_length() + 4
    p = (1 << n) // m
    m2 = m * m
    total = 0
    j = 0
    while p:
        t = p // (2 * j + 1)
        total += -t if j % 2 else t
        p //= m2
        j += 1
    return HighPrecision(libmp.from_man_exp(total, -n, wp, "n"), wp)


def pi_machin_classic(prec: int) -> HighPrecision:
    """pi = 16 arctan(1/5) - 4 arctan(1/239)  (Machin, 1706)."""
    wp = prec + 16
    return (16 * _arctan_recip(5, wp) - 4 * _arctan_recip(239, wp)).round_to(prec)


def pi_machin_euler(prec: int) -> HighPrecision:
    """pi = 4 arctan(1/2) + 4 arctan(1/3)  (Euler's two-term relation)."""
    wp = prec + 16
    return (4 * _arctan_recip(2, wp) + 4 * _arctan_recip(3, wp)).round_to(prec)


def pi_constant(prec: int) -> HighPrecision:
    """pi, cross-checked between the two arctangent formulas.

    Both formulas are evaluated with guard bits and must agree to prec+8
    bits before the value is accepted; neither depends on any series in the
    identity corpus, so downstream verifications are not circular.
    """
    wp = prec + 40
    a = pi_machin_classic(wp)
    b = pi_machin_euler(wp)
    if not agree_to(a, b, prec + 8):
        raise ArithmeticError("pi cross-check failed: arctangent formulas disagree")
    return a.round_to(prec)


def sqrt_constant(m: int, prec: int) -> HighPrecision:
    """sqrt(m) for a small positive integer m, by Newton iteration."""
    if m < 0:
        raise ValueError("sqrt argument must be nonnegative")
    if m == 0:
        return HighPrecision.from_int(0, prec)
    wp = prec + 16
    y = HighPrecision.from_fraction(Fraction(math.sqrt(m)), wp)
    mm = HighPrecision.from_int(m, wp)
    half = HighPrecision.from_fraction(Fraction(1, 2), wp)
    # each step doubles the number of correct bits; start from ~50
    steps = max(1, math.ceil(math.log2(wp / 45)) + 1)
    for _ in range(steps):
        y = (y + mm / y) * half
    return y.round_to(prec)


# sin(pi x) and cos(pi x) at the rational points with algebraic closed forms,
# stored as (radicand m, rational coefficient): value = coeff * sqrt(m).
_SINPI_TABLE = {
    Fraction(1, 6): (1, Fraction(1, 2)),
    Fraction(1, 4): (2, Fraction(1, 2)),
    Fraction(1, 3): (3, Fraction(1, 2)),
    Fraction(1, 2): (1, Fraction(1)),
    Fraction(2, 3): (3, Fraction(1, 2)),
}
_COSPI_TABLE = {
    Fraction(1, 6): (3, Fraction(1, 2)),
    Fraction(1, 4): (2, Fraction(1, 2)),
    Fraction(1, 3): (1, Fraction(1, 2)),
    Fraction(1, 2): (1, Fraction(0)),
    Fraction(2, 3): (1, Fraction(-1, 2)),
}


def _algebraic(table, name, x: Fraction, prec: int) -> HighPrecision:
    try:
        m, coeff = table[Fraction(x)]
    except KeyError:
        allowed = ", ".join(str(k) for k in sorted(table))
        raise DomainError(f"{name} is only available at x in {{{allowed}}}, got {x}")
    if m == 1:
        return HighPrecision.from_fraction(coeff, prec)
    wp = prec + 8
    return (sqrt_constant(m, wp) * HighPrecision.from_fraction(coeff, wp)).round_to(prec)


def sinpi_constant(x: Fraction, prec: int) -> HighPrecision:
    """sin(pi x) at the supported rational points (closed algebraic forms only)."""
    return _algebraic(_SINPI_TABLE, "sinpi", x, prec)


def cospi_constant(x: Fraction, prec: int) -> HighPrecision:
    """cos(pi x) at the supported rational points."""
    return _algebraic(_COSPI_TABLE, "cospi", x, prec)
