"""Atomic special functions: shifted factorials, harmonic numbers, q-analogues,
and the constants appearing on closed-form sides.

Everything here is generic over the scalar regimes of :mod:`hyperq.scalars`:
pass a Fraction and get exact rationals, pass a ``HighPrecision`` and get
correctly rounded floats, pass a ``Jet2`` and derivatives propagate.  In
particular, lifting the argument of :func:`pochhammer` to a jet realizes the
derivative relation  D_x (x)_n = (x)_n H_n(x-1),  and similarly for
:func:`q_pochhammer`; that is how the operator-method checks downstream work.

Gamma ratios never appear: every ratio of Gamma values used by closed forms
is expressed as a ratio of shifted factorials, which is exactly rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from mpmath import libmp

from .scalars import (
    HighPrecision,
    Jet2,
    Scalar,
    agree_to,
    int_pow,
    is_scalar_zero,
    scalar_one,
    scalar_zero,
    to_precision,
)


class DomainError(ValueError):
    """An argument outside the domain on which a function is available."""


class NonConvergentBaseError(DomainError):
    """Raised when an infinite q-product or q-sum is requested at |q^s| >= 1."""


@dataclass(frozen=True)
class QBase:
    """A q-base together with the step s; the base actually used is q**s."""

    q: Scalar
    step: int = 1

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("q-base step must be a positive integer")

    def power(self) -> Scalar:
        return int_pow(self.q, self.step)


# ---------------------------------------------------------------------------
# classical atoms
# ---------------------------------------------------------------------------


def pochhammer(x: Scalar, n: int) -> Scalar:
    """Shifted factorial (x)_n = x (x+1) ... (x+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    result = scalar_one(x)
    for i in range(n):
        result = result * (x + i)
    return result


def harmonic(order: int, n: int, offset: Scalar = Fraction(0)) -> Scalar:
    """Generalized harmonic number H_n^(order)(offset) = sum_{k=1..n} (offset+k)^(-order).

    Raises ZeroDivisionError when some offset+k vanishes (a pole).
    """
    if order < 1:
        raise ValueError("harmonic order must be a positive integer")
    total = scalar_zero(offset if not isinstance(offset, int) else Fraction(offset))
    for k in range(1, n + 1):
        term = offset + k
        if is_scalar_zero(term):
            raise ZeroDivisionError(f"harmonic number pole at offset + {k} = 0")
        total = total + 1 / int_pow(term, order)
    return total


def double_factorial_odd(k: int) -> int:
    """(2k+1)!! = 1 * 3 * ... * (2k+1), equal to (2k+1)!/(2^k k!)."""
    if k < 0:
        raise ValueError("double factorial index must be nonnegative")
    result = 1
    for i in range(3, 2 * k + 2, 2):
        result *= i
    return result


# ---------------------------------------------------------------------------
# q-atoms
# ---------------------------------------------------------------------------


def q_pochhammer(x: Scalar, base: QBase, n: int) -> Scalar:
    """q-shifted factorial (x; q^s)_n = prod_{i=0}^{n-1} (1 - x (q^s)^i)."""
    if n < 0:
        raise ValueError("q-pochhammer order must be nonnegative")
    qs = base.power()
    result = scalar_one(qs)
    p = scalar_one(qs)
    for _ in range(n):
        result = result * (1 - x * p)
        p = p * qs
    return result


def q_pochhammer_infinite(x, base: QBase, prec: Optional[int] = None):
    """(x; q^s)_infinity, truncated once the remaining factors are below 2^(-prec-8).

    Requires 0 < q^s < 1.  ``x`` may be ``HighPrecision`` or a jet over it;
    the truncation rule uses the value component.
    """
    qs = base.power()
    qs_val = qs.value if isinstance(qs, Jet2) else qs
    if not isinstance(qs_val, HighPrecision):
        raise TypeError("infinite q-products are evaluated in the HighPrecision regime")
    if prec is None:
        prec = qs_val.prec
    if not (0 < qs_val and qs_val < 1):
        raise NonConvergentBaseError("infinite q-product requires 0 < q^s < 1")
    x_val = x.value if isinstance(x, Jet2) else x
    if isinstance(x_val, int):
        x_val = HighPrecision.from_int(x_val, qs_val.prec)
    threshold = HighPrecision.from_fraction(Fraction(1, 2 ** (prec + 8)), qs_val.prec)
    result = scalar_one(x if not isinstance(x, int) else qs)
    p = scalar_one(qs)
    p_val = scalar_one(qs_val)
    mag = abs(x_val)
    while mag * p_val > threshold:
        result = result * (1 - x * p)
        p = p * qs
        p_val = p_val * qs_val
    return result


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
    """[m] = 1 + q + ... + q^(m-1)."""
    return QIntegers(q)(m)


def q_partial_sum(order: int, stride: int, shift: int, sign: int, m: int, q: Scalar) -> Scalar:
    """sum_{i=1}^{m} sign^(i-1) q^(stride*i+shift) / [stride*i+shift]^order.

    Every index stride*i+shift must be >= 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    q_ints = QIntegers(q)
    total = scalar_zero(q)
    for i in range(1, m + 1):
        idx = stride * i + shift
        if idx < 1:
            raise ValueError(f"nonpositive q-sum index {idx} at i={i}")
        term = int_pow(q, idx) / int_pow(q_ints(idx), order)
        if sign == -1 and (i - 1) % 2 == 1:
            term = -term
        total = total + term
    return total


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
        idx = stride * i + shift
        if idx < 1:
            raise ValueError(f"nonpositive q-sum index {idx} at i={i}")
        qpow = int_pow(q, idx)
        term = qpow / int_pow(q_ints(idx), order)
        if sign == -1 and (i - 1) % 2 == 1:
            term = -term
        total = total + term
        if qpow / ratio_gap < threshold:
            return total
        i += 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTag:
    """Names one supported constant.

    kind is one of ``pi``, ``sqrt`` (arg: small integer m), ``zeta2``, or
    ``q-sum`` (args: order, stride, shift, sign; the base comes from the
    evaluation environment).
    """

    kind: str
    args: tuple = ()


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


def zeta2_constant(prec: int) -> HighPrecision:
    """zeta(2) by the central-binomial series 3 sum_{k>=1} 1/(k^2 binom(2k,k)).

    The direct series sum 1/j^2 has a non-geometric tail that the series
    engine rejects by design; this classical equivalent has term ratio -> 1/4
    and is independent of pi, so comparing it against pi^2/6 is a genuine
    check of Euler's formula.
    """
    wp = prec + 16
    threshold = HighPrecision.from_fraction(Fraction(1, 2 ** (wp - 2)), wp)
    # term_k = 3/2 * k! / ((k+1) (3/2)_k 4^k), starting at k = 0
    term = HighPrecision.from_fraction(Fraction(3, 2), wp)
    total = HighPrecision.from_int(0, wp)
    k = 0
    while True:
        total = total + term
        if term < threshold:
            return total.round_to(prec)
        # ratio t_{k+1}/t_k = (k+1)^2 / ((k+2)(2k+3) * 2)
        term = term * (k + 1) ** 2 / ((k + 2) * (2 * k + 3) * 2)
        k += 1


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
        return to_precision(coeff, prec)
    wp = prec + 8
    return (sqrt_constant(m, wp) * to_precision(coeff, wp)).round_to(prec)


def sinpi_constant(x: Fraction, prec: int) -> HighPrecision:
    """sin(pi x) at the supported rational points (closed algebraic forms only)."""
    return _algebraic(_SINPI_TABLE, "sinpi", x, prec)


def cospi_constant(x: Fraction, prec: int) -> HighPrecision:
    """cos(pi x) at the supported rational points."""
    return _algebraic(_COSPI_TABLE, "cospi", x, prec)


def constant(tag: ConstantTag, prec: int, q: Optional[HighPrecision] = None) -> HighPrecision:
    """Evaluate a tagged constant to prec working bits (correct to prec-8)."""
    if tag.kind == "pi":
        return pi_constant(prec)
    if tag.kind == "sqrt":
        return sqrt_constant(tag.args[0], prec)
    if tag.kind == "zeta2":
        return zeta2_constant(prec)
    if tag.kind == "q-sum":
        if q is None:
            raise ValueError("q-sum constants need a bound q")
        order, stride, shift, sign = tag.args
        return q_sum_infinite(order, stride, shift, sign, q)
    raise ValueError(f"unknown constant tag {tag.kind!r}")
