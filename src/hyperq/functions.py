"""The q-analogues and constants that the series engine evaluates whole:
infinite q-products and q-sums, pi, square roots and the algebraic sin/cos
values on closed-form sides.

The running atoms (Pochhammer and q-Pochhammer symbols, factorials,
q-integers, harmonic numbers, finite q-sums) have one definition each, as
recurrences of the term programs in :mod:`hyperq.series`.  Everything here is
generic over the scalar regimes of :mod:`hyperq.scalars` where its domain
allows: exact rationals, correctly rounded ``HighPrecision`` floats, and jets;
the infinite q-sum is a ``HighPrecision`` kernel on libmp values.

Gamma ratios never appear: every ratio of Gamma values used by closed forms
is expressed as a ratio of shifted factorials, which is exactly rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import libmp

from .scalars import (
    _RND,
    HighPrecision,
    Jet2,
    Scalar,
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
    # w = u_n Q^n is both the tail bound after u_n and the next step's numerator
    total = w = power = 1
    while True:
        power = power * qs
        u = w * y / (power - 1)
        total = total + u
        w = u * power
        _, man, exp, bc = _value(w).raw
        if not man or exp + bc <= -prec - 8:  # |w| < 2^(-prec-8)
            return product * total


def _value(v):
    """The value component of a jet, or the value itself."""
    return v.value if isinstance(v, Jet2) else v


def q_integer(m: int, q: Scalar) -> Scalar:
    """[m] = 1 + q + ... + q^(m-1), by the recurrence of the ``qint`` atom, in
    the context of q's regime: exact, or float at the precision of q's value.

    The package runs the atom itself; this wrapper stays because the
    benchmark's per-layer tracer (``bench/layers.py``) hooks it by name.
    """
    from . import series  # series imports this module

    if m < 0:
        raise ValueError("q-integer index must be nonnegative")
    prec = getattr(_value(q), "prec", None)
    ctx = series.FloatContext(prec) if prec else series.RationalContext()
    return series._advance({}, 0, (q,), m, ctx, series._qint_start, series._qint_step)[0]


def q_sum_infinite(order: int, stride: int, shift: int, sign: int, q) -> "HighPrecision":
    """V = sum_{i>=1} s^(i-1) q^n_i/[n_i]^l, n_i = c*i + d >= 1, for order l,
    stride c, shift d and sign s, rounded once to q.prec.

    With x_i = q^n_i, V is the Lambert series (1-q)^l sum_i s^(i-1)
    x_i/(1-x_i)^l.  Expanding x/(1-x)^l = sum_{m>=1} C(m+l-2, l-1) x^m and
    summing the terms i > I by m, each a geometric series in i (Knopp on
    Lambert series; Dirichlet's hyperbola method), gives with y = x_(I+1),
    p = q^c and z_m = (1-q)^l C(m+l-2, l-1) y^m

        V = sum_{i<=I} s^(i-1) (1-q)^l x_i/(1-x_i)^l + s^I sum_{m>=1} z_m/(1 - s p^m),

    as the double series converges absolutely.  I is the first i with
    x_(i+1) < 2^-e, e >= 2 and i e >= w, e read off the binary exponent of
    the computed x_(i+1): I ~ sqrt(w/(c log2(1/q))), and about as many m
    follow, so the sum takes O(sqrt(prec)) divisions.  The bounds below hold
    for any I; it sets only the cost.

    Truncation.  |1 - s p^m| >= kappa, with kappa = 1 - p for s = +1 and 1
    for s = -1.  As y < 1/4 and z_(m+1)/z_m = y(m+l-1)/m falls with m, past
    any M >= l-2 every ratio is below 1/2 and the terms after M sum to at
    most 2 z_(M+1)/kappa.  Summation stops at the first such M whose computed
    z_(M+1) is below 2^(-prec-12-b), 2^b > 1/kappa: the dropped tail is
    below 2^(-prec-10).

    Rounding.  Every operation rounds to nearest at w = prec + g bits (unit
    u = 2^-w) and the terms are added exactly, so only their relative errors
    count, in units u to first order.  A power of n factors q errs by at most
    n - 1 (mpf_pow_int truncates at more bits and rounds once).  As
    1 - q^n >= n q^(n-1) (1-q), (n-1) q^n/(1 -/+ q^n) <= sigma = q/(1-q), so
    forming 1 - x_i or 1 - s p^m adds at most sigma + 1.  A direct term
    t_i <= x_i errs by at most n_i + l sigma + 4l - 1, where sum_i n_i x_i <=
    sigma(sigma+1) and sum_i x_i <= sigma; a tail term by at most
    m n + sigma + 2l + 2, n = n_(I+1), where sum_m z_m <= 1 and
    n sum_m m z_m = n y (1+(l-1)y)/((1-y) [n]^l) <= l sigma.  With
    S = 1/(1-q) >= sigma, 1/kappa, the total is at most 2(l+1) S(S+3) u,
    below 2^(-prec-11) for g = 12 + bitlen((l+1) K(K+3)), K = ceil(S).  A
    term takes k < 3(w+l)(wK+1) roundings, so k u < 2^-9 and the second-order
    terms fit the margin: the error before the final rounding is below
    2^(-prec-8).
    """
    if not isinstance(q, HighPrecision):
        raise TypeError("infinite q-sums are evaluated in the HighPrecision regime")
    if not (0 < q and q < 1):
        raise NonConvergentBaseError("infinite q-sum requires 0 < q < 1")
    prec = q.prec
    a, b = q.to_fraction().as_integer_ratio()
    k = -(-b // (b - a))  # K = ceil(1/(1-q))
    wp = prec + 12 + ((order + 1) * k * (k + 3)).bit_length()
    add, neg = libmp.mpf_add, libmp.mpf_neg  # without a precision, mpf_add is exact

    def mul(u, v):
        return libmp.mpf_mul(u, v, wp, _RND)

    def power(u, n):
        return libmp.mpf_pow_int(u, n, wp, _RND)

    def one_minus(u):
        return libmp.mpf_sub(libmp.fone, u, wp, _RND)

    def over(u, v, n):  # u/(1-v)^n
        return libmp.mpf_div(u, power(one_minus(v), n), wp, _RND)

    scale, p = power(one_minus(q.raw), order), power(q.raw, stride)  # (1-q)^l, q^c
    x = power(q.raw, stride + shift)
    direct, i = libmp.fzero, 1
    while True:
        t = over(mul(x, scale), x, order)
        direct = add(direct, neg(t) if sign == -1 and i % 2 == 0 else t)
        x = mul(x, p)
        e = -(x[2] + x[3])  # x < 2^-e
        if e >= 2 and i * e >= wp:
            break
        i += 1
    limit = -prec - 12 - (k if sign == 1 else 1).bit_length()
    tail, pm, binom, m = libmp.fzero, p, 1, 1
    z = gy = mul(scale, x)
    while True:
        tail = add(tail, over(z, pm if sign == 1 else neg(pm), 1))
        binom = binom * (m + order - 1) // m
        m += 1
        gy, pm = mul(gy, x), mul(pm, p)
        z = mul(gy, libmp.from_int(binom))
        if m + 1 >= order and z[2] + z[3] <= limit:
            break
    total = add(direct, neg(tail) if sign == -1 and i % 2 else tail)
    return HighPrecision(libmp.mpf_pos(total, prec, _RND), prec)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _pi_terms(prec: int) -> int:
    """The first term count of ``pi_constant``: the terms fall by about 2^47 each."""
    return (prec + 64) // 47 + 2


def _pi_split(a: int, b: int):
    """(P, Q, T) for the terms a <= k < b of Chudnovsky's series: P and Q the
    products of p(k) = (6k-5)(2k-1)(6k-1) and q(k) = k^3 C, C = 640320^3/24
    (both 1 at k = 0), and T/Q = sum_k (-1)^k (13591409 + 545140134 k)
    P(a, k+1)/Q(a, k+1).  Halves join as T = T_1 Q_2 + P_1 T_2."""
    if b - a == 1:
        p = q = 1
        if a:
            p, q = (6 * a - 5) * (2 * a - 1) * (6 * a - 1), a ** 3 * (640320 ** 3 // 24)
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _pi_split(a, m)
    p2, q2, t2 = _pi_split(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def pi_constant(prec: int) -> HighPrecision:
    """pi, correctly rounded to nearest at prec bits, from Chudnovsky's series
    (Chudnovsky-Chudnovsky 1988)

        426880 sqrt(10005)/pi = S = sum_k t_k,
        t_k = (-1)^k (6k)! (13591409 + 545140134 k)/((3k)! k!^3 640320^(3k)).

    Binary splitting (Haible-Papanikolaou, ANTS-III 1998) sums J terms
    exactly, S_J = T/Q, and t_J = -/+ e/(Q q(J)) with e = P p(J) (13591409 +
    545140134 J).  The terms alternate and each |t_(k+1)/t_k| is below
    2^-45 (5 (13591409 + 545140134)/(13591409 C) at k = 0, under 144/C
    after), so S lies within |t_J| of S_J.  With w = 47 J and s =
    isqrt(10005 4^w), s <= sqrt(10005) 2^w < s + 1.  So, in integers,

        426880 s Q q(J)/((T q(J) + e) 2^w) <= pi < 426880 (s+1) Q q(J)/((T q(J) - e) 2^w).

    Each end is rounded by ``from_quotient``.  Rounding to nearest is
    monotone, so when the ends round alike, that float is pi correctly
    rounded.  The bracket is about 2^(-prec-57) wide relative to pi, so they
    differ only when it straddles a rounding boundary; then J and w double
    (Ziv, ACM TOMS 17, 1991).
    """
    j = _pi_terms(prec)
    while True:
        w, (p, q, t) = 47 * j, _pi_split(0, j)
        _, qj, tj = _pi_split(j, j + 1)
        s = math.isqrt(10005 << 2 * w)
        n, d, e = 426880 * q * qj, t * qj, p * abs(tj)
        low = HighPrecision.from_quotient(n * s, (d + e) << w, prec)
        high = HighPrecision.from_quotient(n * (s + 1), (d - e) << w, prec)
        if low.raw == high.raw:
            return low
        j *= 2


def sqrt_constant(m: int, prec: int) -> HighPrecision:
    """sqrt(m) for an integer m >= 0, correctly rounded to prec bits.

    With w = prec + 2, s = isqrt(m*4^w) is the floor of sqrt(m)*2^w.  For m
    >= 1, s >= 2^w has at least prec + 3 bits, so the prec-bit rounding
    boundaries near s are integers, none strictly between s and s + 1: the
    value, s or inside (s, s + 1), rounds as (2s + [s^2 != m*4^w])*2^(-w-1).
    """
    if m < 0:
        raise ValueError("sqrt argument must be nonnegative")
    w = prec + 2
    s = math.isqrt(m << 2 * w)
    return HighPrecision(libmp.from_man_exp(2 * s + (s * s != m << 2 * w), -w - 1, prec, _RND),
                         prec)


# sin(pi x) and cos(pi x) at the rational points with algebraic closed forms: a
# Fraction is the value, an int m is sqrt(m)/2, the rounded sqrt(m) halved exactly.
_SINPI_TABLE = {
    Fraction(1, 6): Fraction(1, 2),
    Fraction(1, 4): 2,
    Fraction(1, 3): 3,
    Fraction(1, 2): Fraction(1),
    Fraction(2, 3): 3,
}
_COSPI_TABLE = {
    Fraction(1, 6): 3,
    Fraction(1, 4): 2,
    Fraction(1, 3): Fraction(1, 2),
    Fraction(1, 2): Fraction(0),
    Fraction(2, 3): Fraction(-1, 2),
}


def _algebraic(table, name, x: Fraction, prec: int) -> HighPrecision:
    try:
        v = table[Fraction(x)]
    except KeyError:
        allowed = ", ".join(str(k) for k in sorted(table))
        raise DomainError(f"{name} is only available at x in {{{allowed}}}, got {x}")
    if isinstance(v, Fraction):
        return HighPrecision.from_fraction(v, prec)
    return HighPrecision(libmp.mpf_shift(sqrt_constant(v, prec).raw, -1), prec)


def sinpi_constant(x: Fraction, prec: int) -> HighPrecision:
    """sin(pi x) at the supported rational points (closed algebraic forms only)."""
    return _algebraic(_SINPI_TABLE, "sinpi", x, prec)


def cospi_constant(x: Fraction, prec: int) -> HighPrecision:
    """cos(pi x) at the supported rational points."""
    return _algebraic(_COSPI_TABLE, "cospi", x, prec)
