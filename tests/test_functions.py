"""Atoms and their algebraic laws, evaluated through the series engine.

Every atom is written as DSL text and run by the term programs of
:mod:`hyperq.series`, the code that verification runs.  Where a law needs an
independent value it comes from a short naive loop kept in this file, or in
conftest.py where other test files share it.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import libmp

from conftest import EULER, MACHIN, arctan_pi, arctan_recip_bracket
from hyperq import dsl, functions
from hyperq.dsl import ParseError, parse_closed_form
from hyperq.functions import (
    NonConvergentBaseError,
    cospi_constant,
    pi_constant,
    q_integer,
    q_pochhammer_infinite,
    q_sum_infinite,
    sinpi_constant,
    sqrt_constant,
)
from hyperq.scalars import (
    HighPrecision,
    Jet2,
    agree_to,
    int_pow,
    jet_lift,
)
from hyperq.series import (
    EvalError,
    FloatContext,
    PoleInTermError,
    RationalContext,
    evaluate_expr,
)

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)
qs = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
    lambda v: v not in (0, 1, -1))


def ev(text, ctx=None, **env):
    """The closed-form DSL ``text`` evaluated by the engine under ``env``."""
    return evaluate_expr(parse_closed_form(text).expr, env, ctx or RationalContext())


def ev_jet(text, active, **env):
    """``text`` as a jet over the rationals in the parameter ``active``."""
    env[active] = jet_lift(env[active])
    v = ev(text, RationalContext(), **env)
    return v if isinstance(v, Jet2) else Jet2(v, F(0), F(0))  # a value free of it


class TestPochhammer:
    def test_half_cubed(self):
        assert ev("poch(x,n)", x=F(1, 2), n=3) == F(15, 8)

    def test_empty_product(self):
        assert ev("poch(x,0)", x=F(17, 5)) == 1

    def test_jet_matches_harmonic_relation_at_one(self):
        j = ev_jet("poch(x,2)", "x", x=F(1))
        assert (j.value, j.d1, j.d2) == (F(2), F(3), F(2))
        assert j.d1 == ev("poch(1,2)*harmx(1,2,0)")

    @given(x=small_rationals, m=st.integers(0, 20), n=st.integers(0, 20))
    def test_concatenation(self, x, m, n):
        assert ev("poch(x,m+n)", x=x, m=m, n=n) == ev("poch(x,m)*poch(x+m,n)", x=x, m=m, n=n)

    @given(x=small_rationals, n=st.integers(0, 12))
    def test_jet_derivative_relation(self, x, n):
        """D_x (x)_n = (x)_n H_n(x-1) wherever no factor vanishes."""
        assume(all(x + i != 0 for i in range(n)))
        j = ev_jet("poch(x,n)", "x", x=x, n=n)
        assert j.d1 == ev("poch(x,n)*harmx(1,n,x-1)", x=x, n=n)


class TestHarmonic:
    def test_classical(self):
        assert ev("harmx(1,4,0)") == ev("harm(1,4)") == F(25, 12)

    def test_empty(self):
        assert ev("harmx(2,0,x)", x=F(22, 7)) == 0

    def test_offset(self):
        assert ev("harmx(1,2,1/2)") == F(16, 15)

    def test_pole(self):
        with pytest.raises(PoleInTermError):
            ev("harmx(1,3,-2)")

    @given(x=small_rationals, n=st.integers(1, 20), order=st.integers(1, 3))
    def test_recurrence(self, x, n, order):
        assume(all(x + i != 0 for i in range(1, n + 1)))
        assert ev(f"harmx({order},n,x)", x=x, n=n) == \
            ev(f"harmx({order},n-1,x) + 1/(x+n)^{order}", x=x, n=n)


class TestDoubleFactorialOdd:
    @pytest.mark.parametrize("k,value", [(0, 1), (1, 3), (2, 15), (3, 105)])
    def test_values(self, k, value):
        assert ev("dfactodd(k)", k=k) == value

    @given(k=st.integers(0, 40))
    def test_factorial_quotient_form(self, k):
        assert ev("dfactodd(k)", k=k) == math.factorial(2 * k + 1) // (2 ** k * math.factorial(k))


class TestQPochhammer:
    def test_value_at_half(self):
        assert ev("qpoch(q,1,3)", q=F(1, 2)) == F(21, 64)

    def test_empty(self):
        assert ev("qpoch(7,1,0)", q=F(1, 3)) == 1

    def test_jet_derivative_at_half(self):
        # d/dx (1-x)(1-xq) = -(1-xq) - q(1-x) = -1 at x = q = 1/2
        assert ev_jet("qpoch(x,1,2)", "x", x=F(1, 2), q=F(1, 2)).d1 == F(-1)

    @given(x=small_rationals, q=qs, m=st.integers(0, 10), n=st.integers(0, 10))
    def test_concatenation(self, x, q, m, n):
        env = {"x": x, "q": q, "m": m, "n": n}
        assert ev("qpoch(x,1,m+n)", **env) == ev("qpoch(x,1,m)*qpoch(x*q^m,1,n)", **env)

    @given(x=small_rationals, q=qs, n=st.integers(0, 10))
    def test_jet_derivative_relation(self, x, q, n):
        """D_x (x;q)_n = -(x;q)_n sum q^(i-1)/(1 - x q^(i-1))."""
        assume(all(1 - x * q ** i != 0 for i in range(n)))
        j = ev_jet("qpoch(x,1,n)", "x", x=x, q=q, n=n)
        weight = sum((q ** (i - 1)) / (1 - x * q ** (i - 1)) for i in range(1, n + 1))
        assert j.d1 == -ev("qpoch(x,1,n)", x=x, q=q, n=n) * weight


unit_qs = st.fractions(min_value=0, max_value=F(9, 10), max_denominator=100).filter(
    lambda v: v > 0)
wide_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def _fixed(v: F, w: int) -> int:
    """v * 2^w, an integer for the dyadic values the engine's floats hold."""
    scaled = v * (1 << w)
    assert scaled.denominator == 1
    return scaled.numerator


def _qpoch_reference(x: F, q: F, prec: int):
    """(x; q)_N and the scale prod_(j<N) (1 + |x q^j|), at dyadic x and 0 < q <= 9/10.

    N makes the dropped factors provably tiny: 2|x| q^N/(1-q) < 2^(-prec-20)
    bounds their deviation from 1, so (x; q)_infinity is within scale *
    2^(-prec-20) of (x; q)_N.  An exact ``Fraction`` product of N factors
    grows to about N^2/2 * log2(denominator of q) bits (90 million at q = 9/10
    and 1100 bits), so the factors, each exact, are applied in w = prec+64
    bit fixed point: a floor costs under one unit, and x q^j carries at most
    1/(1-q) <= 10 of them, so the reference is within 11 N * scale units of
    2^-w, which is below scale * 2^(-prec-40).
    """
    n = max(1, math.ceil((prec + 21 + math.log2(2 * max(abs(x), 1) / (1 - q))) / -math.log2(q)))
    w = prec + 64
    one, qf = 1 << w, _fixed(q, w)
    p, y, log_scale = one, _fixed(x, w), 0.0
    for _ in range(n):
        p = p * (one - y) >> w
        log_scale += math.log1p(abs(y) / one)
        y = y * qf >> w
    return F(p, one), F(math.exp(log_scale)), n


def _bits(x, q, prec):
    """x and q as the engine's floats at prec bits, and their exact values."""
    xs, qs_ = HighPrecision.from_fraction(x, prec), HighPrecision.from_fraction(q, prec)
    return xs, qs_, xs.to_fraction(), qs_.to_fraction()


class TestQPochhammerInfinite:
    """(x; q)_infinity against independent values: an exact product, the
    exact jet of a finite one, and Euler's pentagonal theorem."""

    @given(x=wide_rationals, q=unit_qs, prec=st.sampled_from([64, 200, 1100]))
    def test_against_the_exact_product(self, x, q, prec):
        xs, qs_, xb, qb = _bits(x, q, prec)
        reference, scale, _ = _qpoch_reference(xb, qb, prec)
        value = q_pochhammer_infinite(xs, qs_).to_fraction()
        assert abs(value - reference) <= scale / 2 ** (prec - 12)

    @pytest.mark.parametrize("x, q, s, prec", [
        (F(1, 4), F(1, 2), 1, 64),
        (F(-3, 2), F(3, 4), 1, 64),
        (F(5, 2), F(1, 2), 2, 200),
        (F(1, 3), F(1, 2), 1, 64),
        (F(7), F(5, 8), 1, 64),
    ])
    def test_jet_against_the_exact_jet(self, x, q, s, prec):
        xs, qs_, xb, qb = _bits(x, q, prec)
        base = qs_ ** s
        assert base.to_fraction() == qb ** s  # so the two sides share the base
        _, scale, n = _qpoch_reference(xb, qb ** s, prec)
        exact = ev_jet(f"qpoch(x,{s},n)", "x", x=xb, q=qb, n=n)
        jet = q_pochhammer_infinite(jet_lift(xs), base)
        # the k-th derivative of a product of N factors is at most k! scale/(1-q^s)^k
        for k, (got, want) in enumerate(zip((jet.value, jet.d1, jet.d2),
                                            (exact.value, exact.d1, exact.d2))):
            bound = 2 * scale / (1 - qb ** s) ** k / 2 ** (prec - 12)
            assert abs(got.to_fraction() - want) <= bound

    @pytest.mark.parametrize("q, prec", [
        (F(1, 2), 64), (F(7, 10), 213), (F(9, 10), 400), (F(99, 100), 1100)])
    def test_pentagonal_theorem(self, q, prec):
        """(q; q)_infinity = sum over all integers k of (-1)^k q^(k(3k-1)/2).

        The sum is taken in w = prec+320 bit fixed point: a value near
        2^-232 at q = 99/100 cancels from terms near 1.  The product agrees
        to prec-16 bits: its explicit factors 1 - q^j each lose up to
        log2(1/(1-q)) bits to the rounding of q^j."""
        _, qs_, _, qb = _bits(q, q, prec)
        w = prec + 320
        one, qf = 1 << w, _fixed(qb, w)
        total, power, m, k = one, one, 0, 1
        while power:
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):  # the k-th and (-k)-th
                while m < e:
                    power = power * qf >> w
                    m += 1
                total += -power if k % 2 else power
            k += 1
        reference = F(total, one)
        value = q_pochhammer_infinite(qs_, qs_).to_fraction()
        assert abs(value - reference) <= reference / 2 ** (prec - 16)

    def test_exact_zero_factor(self):
        # (4; 1/2) has the factor 1 - 4/2^2
        q = HighPrecision.from_fraction(F(1, 2), 64)
        assert q_pochhammer_infinite(HighPrecision.from_fraction(F(4), 64), q).is_zero()
        assert q_pochhammer_infinite(4, q).is_zero()

    @given(x=st.one_of(wide_rationals, st.fractions(-1, 1, max_denominator=64)),
           q=unit_qs, prec=st.sampled_from([64, 200]), near=st.booleans())
    def test_split(self, x, q, prec, near):
        """(x; q) = (1-x)(xq; q), here also with x near (1-q)/2, where the
        explicit factors give way to the series."""
        if near:
            x = (1 - q) / 2 * (1 + x / 64)
        xs, qs_, xb, qb = _bits(x, q, prec)
        _, scale, _ = _qpoch_reference(xb, qb, prec)
        whole = q_pochhammer_infinite(xs, qs_).to_fraction()
        split = ((1 - xs) * q_pochhammer_infinite(xs * qs_, qs_)).to_fraction()
        assert abs(whole - split) <= scale / 2 ** (prec - 13)

    @pytest.mark.parametrize("x", [F(3, 8), F(3), F(-5, 2), F(1, 8)])
    def test_phase_split(self, x):
        """The explicit factors run exactly while 2|x Q^j| > 1-Q: the tail
        proof needs |y| <= (1-Q)/2 for the series' y = x Q^m."""
        operands = []

        class Recording(HighPrecision):
            # Python tries a subclass's reflected operator first, so this sees
            # every product with Q: phase 1's y*Q, then from 1*Q on phase 2's
            def __rmul__(self, other):
                operands.append(other)
                return HighPrecision.__mul__(self, other)

        q = F(1, 2)
        q_pochhammer_infinite(HighPrecision.from_fraction(x, 64), Recording(HighPrecision.from_fraction(q, 64).raw, 64))
        m = next(i for i, v in enumerate(operands) if isinstance(v, int))
        assert [y.to_fraction() for y in operands[:m]] == [x * q ** j for j in range(m)]
        assert 2 * abs(x * q ** m) <= 1 - q
        assert m == 0 or 1 - q < 2 * abs(x * q ** (m - 1))

    def test_zero_argument(self):
        q = HighPrecision.from_fraction(F(1, 2), 80)
        assert q_pochhammer_infinite(HighPrecision.from_fraction(F(0), 80), q).to_fraction() == 1

    def test_euler_product_at_half(self):
        # 40-digit reference value, cross-checked at two precisions
        prec = 140
        q = HighPrecision.from_fraction(F(1, 2), prec)
        v = q_pochhammer_infinite(q, q)
        assert v.to_decimal(13).startswith("0.288788095086")
        q_hi = HighPrecision.from_fraction(F(1, 2), prec + 32)
        hi = q_pochhammer_infinite(q_hi, q_hi)
        assert agree_to(v, hi.round_to(prec), prec - 8)

    def test_base_squared_equals_direct(self):
        # the engine's step 2 at q = 1/2 against step 1 at q = 1/4
        ctx = FloatContext(120)
        via_step = ev("qpochinf(q^2,2)", ctx, q=F(1, 2))
        direct = ev("qpochinf(q,1)", ctx, q=F(1, 4))
        assert agree_to(via_step, direct, 120 - 8)

    def test_divergent_base_rejected(self):
        q = HighPrecision.from_fraction(F(3, 2), 64)
        with pytest.raises(NonConvergentBaseError):
            q_pochhammer_infinite(q, q)
        with pytest.raises(NonConvergentBaseError):
            ev("qpochinf(1/2,2)", FloatContext(64), q=F(-3, 2))


class TestQInteger:
    def test_unit(self):
        assert q_integer(1, F(22, 7)) == 1

    def test_at_half(self):
        assert q_integer(4, F(1, 2)) == F(15, 8)

    def test_at_one(self):
        assert q_integer(3, F(1)) == 3

    @given(q=qs, m=st.integers(0, 12), n=st.integers(0, 12))
    def test_addition_rule(self, q, m, n):
        env = {"q": q, "m": m, "n": n}
        assert ev("qint(m+n)", **env) == ev("qint(m) + q^m*qint(n)", **env)
        assert ev("qint(m)", **env) == q_integer(m, q)


def zeta2(prec):
    """zeta(2) = 3 sum_{k>=1} 1/(k^2 binom(2k,k)), summed exactly until a term
    drops below 2^-prec.  Each term is under a quarter of the one before, so
    the tail is under a third of the last term.  The direct series sum 1/k^2
    has a tail the engine rejects as non-geometric; this one is independent
    of pi, so comparing it with pi^2/6 is a genuine check of Euler's formula.
    """
    total, k = F(0), 1
    while True:
        term = F(3, k * k * math.comb(2 * k, k))
        total += term
        if term < F(1, 2 ** prec):
            return total
        k += 1


def fresh_q_integer(m, q):
    """Reference [m]: the direct loop 1 + q + ... + q^(m-1), started from zero."""
    total, p = q * 0, q ** 0
    for _ in range(m):
        total = total + p
        p = p * q
    return total


def running(text, ctx, q):
    """``text`` as a function of m evaluated on one cache, whose key "index"
    names m the summation index: the atoms resume their states as in a sum."""
    expr, cache = parse_closed_form(text).expr, {"index": "m"}
    return lambda m: evaluate_expr(expr, {"q": q, "m": m}, ctx, cache)


def fresh_q_sums(order, stride, shift, sign, q, count):
    """Reference values of qsum(order, stride, shift, sign, m) for m = 0..count,
    each q-integer summed afresh and each summand added in the atom's order."""
    total = q * 0
    yield total
    for i in range(1, count + 1):
        idx = stride * i + shift
        t = int_pow(q, idx) / int_pow(fresh_q_integer(idx, q), order)
        total = total + (-t if sign == -1 and i % 2 == 0 else t)
        yield total


class TestRunningQIntegers:
    """The q-integer state of the ``qint`` and ``qsum`` atoms, and ``q_integer``."""

    QS = (F(1, 2), F(7, 10), F(99, 100))
    CHECKED = list(range(0, 500, 7)) + [500]

    @pytest.mark.parametrize("prec", [64, 3400])
    @pytest.mark.parametrize("q", QS)
    def test_bit_identical_to_fresh_sum(self, q, prec):
        hq = HighPrecision.from_fraction(q, prec)
        qint = running("qint(m)", FloatContext(prec), q)
        for m in range(501):
            got = qint(m)
            if m in self.CHECKED:
                want = fresh_q_integer(m, hq)
                assert (got.raw, got.prec) == (want.raw, want.prec), m
                assert q_integer(m, hq).raw == want.raw, m
        # a q-sum's q-integers advance by its stride, from its own state
        qsum = running("qsum(2,3,-1,-,m)", FloatContext(prec), q)
        for m, want in enumerate(fresh_q_sums(2, 3, -1, -1, hq, 100)):
            got = qsum(m)
            assert (got.raw, got.prec) == (want.raw, want.prec), m

    @pytest.mark.parametrize("q", QS)
    def test_exact_for_fractions(self, q):
        qint = running("qint(m)", RationalContext(), q)
        for m in self.CHECKED:
            assert qint(m) == q_integer(m, q) == (1 - q ** m) / (1 - q)
        qsum = running("qsum(1,2,0,+,m)", RationalContext(), q)
        for m, want in enumerate(fresh_q_sums(1, 2, 0, 1, q, 40)):
            assert qsum(m) == want

    def test_smaller_index_restarts(self):
        hq = HighPrecision.from_fraction(F(7, 10), 64)
        qint = running("qint(m)", FloatContext(64), F(7, 10))
        qint(40)
        assert qint(9).raw == fresh_q_integer(9, hq).raw
        assert qint(9).raw == fresh_q_integer(9, hq).raw  # same index: no step
        qsum = running("qsum(2,2,-1,+,m)", FloatContext(64), F(7, 10))
        wants = list(fresh_q_sums(2, 2, -1, 1, hq, 40))
        qsum(40)
        assert qsum(9).raw == wants[9].raw
        assert qsum(12).raw == wants[12].raw

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1, F(1, 2))
        with pytest.raises(EvalError):
            ev("qint(m)", q=F(1, 2), m=-1)
        with pytest.raises(EvalError):
            ev("qsum(2,1,0,+,m)", q=F(1, 2), m=-1)


class TestQPartialSum:
    """The finite ``qsum`` atom."""

    def test_empty(self):
        assert ev("qsum(2,1,0,+,0)", q=F(1, 2)) == 0

    def test_two_terms(self):
        assert ev("qsum(2,1,0,+,2)", q=F(1, 2)) == F(11, 18)

    def test_shifted(self):
        assert ev("qsum(2,2,-1,+,1)", q=F(1, 2)) == F(1, 2)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ParseError):
            parse_closed_form("qsum(2,1,-1,+,2)")
        # a tree built around the parser meets the same rule at evaluation
        node = dsl.QSum(2, 1, -1, 1, dsl.Num(2))
        with pytest.raises(EvalError):
            evaluate_expr(node, {"q": F(1, 2)}, RationalContext())

    @given(q=st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
           m=st.integers(0, 15))
    def test_monotone_in_length_for_positive_sign(self, q, m):
        assert ev("qsum(2,2,0,+,m+1)", q=q, m=m) > ev("qsum(2,2,0,+,m)", q=q, m=m)


class TestConstants:
    def test_pi_40_digits(self):
        v = pi_constant(160)
        assert v.to_decimal(41).startswith("3.141592653589793238462643383279502884197")

    # 16610 and 66439 bits: 5000 and 20000 digits, where the split runs deepest
    @pytest.mark.parametrize("prec", list(range(8, 600, 7)) + [3372, 16610, 16672, 66439])
    def test_pi_matches_mpmath(self, prec):
        assert pi_constant(prec).raw == libmp.mpf_pi(prec, "n")

    @given(data=st.data())
    def test_pi_is_mpmaths_correctly_rounded_pi(self, pytestconfig, data):
        # precisions up to 2*10^4 bits, or 10^5 under --hypothesis-profile=deep
        deep = pytestconfig.getoption("hypothesis_profile") == "deep"
        prec = data.draw(st.integers(8, 10 ** 5 if deep else 2 * 10 ** 4))
        assert pi_constant(prec).raw == libmp.mpf_pi(prec, "n")

    @pytest.mark.parametrize("prec", [60, 3372, 16610])
    def test_pi_doubles_the_terms_until_the_bracket_rounds(self, monkeypatch, prec):
        # one term brackets pi to about 2^-45, so at these precisions the first
        # tries cannot round; the series bits w are read off isqrt's argument
        widths, real_isqrt = [], math.isqrt

        def isqrt(n):
            widths.append((n.bit_length() - 14) // 2)  # n = 10005 4^w
            return real_isqrt(n)

        monkeypatch.setattr(functions, "_pi_terms", lambda prec: 1)
        monkeypatch.setattr(functions.math, "isqrt", isqrt)
        got = pi_constant(prec)
        assert widths == [47 * 2 ** i for i in range(len(widths))]
        assert widths[-2] < prec <= widths[-1]
        assert got.raw == libmp.mpf_pi(prec, "n")

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 239])
    @pytest.mark.parametrize("digits", [30, 300, 1000, 5000])
    def test_arctan_recip_error_bound(self, m, digits):
        # the tests' own arctangent, which the pi cross-checks below rest on:
        # its bracket holds mpmath's arctan(1/m) and is at most 2(J + 1) wide
        bits = math.ceil(digits * math.log2(10)) + 64
        lo, hi = arctan_recip_bracket(m, bits)
        ref = libmp.mpf_atan(libmp.from_rational(1, m, bits + 128, "n"), bits + 64, "n")
        scaled = HighPrecision(ref, bits + 64).to_fraction() * 2 ** bits
        assert lo <= scaled <= hi
        assert hi - lo <= 2 * (bits // (2 * math.log2(m)) + 2)

    def test_pi_formulas_cross_check(self):
        # Machin's and Euler's formulas, summed in this file's fixed point, round
        # to pi_constant's value: a second formula besides Chudnovsky's, which
        # mpmath's pi uses as well
        for prec in (128, 3372, 16610):
            expected = pi_constant(prec).raw
            assert arctan_pi(MACHIN, prec) == expected
            assert arctan_pi(EULER, prec) == expected

    def test_sqrt3_30_digits(self):
        v = sqrt_constant(3, 120)
        assert v.to_decimal(30).startswith("1.7320508075688772935274463415")
        sq = (v * v).to_fraction()
        assert abs(sq - 3) < F(1, 2 ** 100)

    @given(m=st.integers(0, 10 ** 6), prec=st.integers(8, 3000))
    def test_sqrt_is_correctly_rounded(self, m, prec):
        # |man*2^exp - sqrt(m)| <= 2^(exp-1) for the prec-bit mantissa man,
        # squared and scaled to integers: (2man-1)^2 <= m*4^(1-exp) <= (2man+1)^2
        sign, man, exp, bc = sqrt_constant(m, prec).raw
        assert sign == 0 and bc <= prec
        if m == 0:
            assert man == 0
            return
        man, exp = man << prec - bc, exp - (prec - bc)
        lo, hi = (2 * man - 1) ** 2, (2 * man + 1) ** 2
        scaled = m << max(2 - 2 * exp, 0)
        assert lo << max(2 * exp - 2, 0) <= scaled <= hi << max(2 * exp - 2, 0)

    def test_sqrt_matches_mpmath(self):
        for prec in (53, 200, 3400, 16640):
            for m in (2, 3, 5, 10 ** 6 + 3, 4 ** 40 * 3):
                assert sqrt_constant(m, prec).raw == libmp.mpf_sqrt(libmp.from_int(m), prec, "n")

    def test_zeta2_equals_pi_squared_over_six(self):
        prec = 160
        pi2 = pi_constant(prec + 32)
        target = (pi2 * pi2 / 6).round_to(prec)
        assert abs(zeta2(prec) - target.to_fraction()) <= F(1, 2 ** (prec - 10))

    def test_qsum_constant_value(self):
        q = HighPrecision.from_fraction(F(1, 2), 80)
        v = q_sum_infinite(2, 2, 0, 1, q)
        assert abs(v.to_fraction() - F(13423, 100000)) < F(1, 10 ** 5)

    @given(a=st.integers(1, 12), order=st.integers(1, 2), stride=st.integers(1, 3),
           shift=st.integers(-2, 2), sign=st.sampled_from((1, -1)), prec=st.integers(16, 96))
    def test_qsum_within_stated_tail_of_naive_sum(self, a, order, stride, shift, sign, prec):
        """q_sum_infinite agrees with a naive partial sum up to its stated tail bound.

        q = a/16 is exact in binary, so besides the dropped tail (below
        2^(-prec-8) by the stopping rule; doubled for the rounded comparison)
        only roundings separate the two, with u = 2^-prec: q^idx within 2u,
        the running [idx] within 2 idx u, its power and the quotient within
        (2 order idx + 4) u of each term t, and each of the n additions
        within u sum|t|.  The allowance is twice that first-order sum.  The
        naive sum takes exact terms q^idx (1-q)^order / (1-q^idx)^order,
        rounded to 2^-(prec+32), until its own tail is below 2^-(prec+32).
        """
        assume(stride + shift >= 1)
        q = F(a, 16)
        value = q_sum_infinite(order, stride, shift, sign, HighPrecision.from_fraction(q, prec)).to_fraction()
        scale = 2 ** (prec + 32)
        naive, first_order, magnitude, n = 0, F(0), F(0), 0
        while True:
            n += 1
            idx = stride * n + shift
            t = q ** idx * ((1 - q) / (1 - q ** idx)) ** order
            naive += round(t * scale) * (sign if n % 2 == 0 else 1)
            first_order += (2 * order * idx + 4) * t
            magnitude += t
            if q ** idx / (1 - q ** stride) * scale < 1:
                break
        allowance = F(1, 2 ** (prec + 7)) + 2 * (first_order + n * magnitude) / 2 ** prec \
            + F(n + 1, scale)
        assert abs(value - F(naive, scale)) <= allowance

    def test_sinpi_cospi_table(self):
        prec = 120
        cases = {
            F(1, 6): (F(1, 2), None),
            F(1, 2): (F(1), F(0)),
        }
        assert sinpi_constant(F(1, 6), prec).to_fraction() == F(1, 2)
        assert cospi_constant(F(1, 2), prec).to_fraction() == 0
        s = sinpi_constant(F(1, 3), prec)
        assert agree_to(s, (sqrt_constant(3, prec) / 2), prec - 8)
        c = cospi_constant(F(2, 3), prec)
        assert c.to_fraction() == F(-1, 2)

    # sin(pi x) and cos(pi x) at each supported x: a rational value, or m for sqrt(m)/2
    SINPI = {F(1, 6): F(1, 2), F(1, 4): 2, F(1, 3): 3, F(1, 2): F(1), F(2, 3): 3}
    COSPI = {F(1, 6): 3, F(1, 4): 2, F(1, 3): F(1, 2), F(1, 2): F(0), F(2, 3): F(-1, 2)}

    @given(p=st.integers(8, 4000))
    def test_sinpi_cospi_are_correctly_rounded(self, p):
        # sqrt(m)/2 is mpmath's correctly rounded sqrt(m), halved exactly
        for table, constant in ((self.SINPI, sinpi_constant), (self.COSPI, cospi_constant)):
            for x, v in table.items():
                want = (libmp.from_rational(v.numerator, v.denominator, p, "n")
                        if isinstance(v, F) else
                        libmp.mpf_shift(libmp.mpf_sqrt(libmp.from_int(v), p, "n"), -1))
                assert constant(x, p).raw == want

    def test_sinpi_outside_table_rejected(self):
        with pytest.raises(ValueError):
            sinpi_constant(F(1, 5), 80)

    def test_constant_dispatch(self):
        # the engine reaches every constant through its context, at its precision
        ctx = FloatContext(80)
        assert ev("pi", ctx).to_decimal(10).startswith("3.14159265")
        assert ev("sqrt(2)", ctx).to_decimal(10).startswith("1.41421356")
        assert ctx.pi().raw == pi_constant(80).raw
        q = HighPrecision.from_fraction(F(1, 2), 80)
        via_ctx = ev("qsuminf(2,2,0,+)", ctx, q=F(1, 2))
        assert (via_ctx.raw, via_ctx.prec) == (q_sum_infinite(2, 2, 0, 1, q).raw, 80)


def _qsum_enclosure(order, stride, shift, sign, q: F, prec):
    """(lo, hi) enclosing sum_{i>=1} sign^(i-1) q^n/[n]^order, n = stride*i + shift.

    Exact integer arithmetic at scale 2^e, e = prec + 64, for a dyadic q with
    at most e fraction bits: floor and ceiling of every x_i = q^n enclose it,
    and each term (1-q)^order x/(1-x)^order, increasing in x, is enclosed by
    its values at those two ends.  Past term N the terms sum to at most
    x_(N+1)/(1-q^stride); summation stops once that is below 2^(-prec-20),
    and the enclosure is widened by it.
    """
    e = prec + 64
    one, big = 1 << e, _fixed(q, e)

    def power(n):  # floor and ceiling of q^n 2^e
        v = big ** n
        return v >> e * (n - 1), -(-v >> e * (n - 1))

    (p_lo, p_hi), (x_lo, x_hi) = power(stride), power(stride + shift)
    scale = (one - big) ** order
    lo = hi = 0
    i = 0
    while True:
        i += 1
        t_lo = scale * x_lo // (one - x_lo) ** order
        t_hi = -(-scale * x_hi // (one - x_hi) ** order)
        if sign == -1 and i % 2 == 0:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
        x_lo, x_hi = x_lo * p_lo >> e, -(-x_hi * p_hi >> e)
        if x_hi << prec + 20 <= one - p_hi:
            tail = -(-x_hi * one // (one - p_hi))
            return F(lo - tail, one), F(hi + tail, one)


def _assert_qsum_within_bound(order, stride, shift, sign, q: F, prec):
    """q_sum_infinite lies within its docstring's bound of the enclosure: below
    2^(-prec-8) before the final rounding, plus half a unit of that rounding."""
    q = HighPrecision.from_fraction(q, prec)
    value = q_sum_infinite(order, stride, shift, sign, q)
    lo, hi = _qsum_enclosure(order, stride, shift, sign, q.to_fraction(), prec)
    _, _, exp, bc = value.raw  # value < 2^(exp+bc), so half its ulp is 2^(exp+bc-prec-1)
    allowance = F(1, 2 ** (prec + 8)) + F(2) ** (exp + bc - prec - 1)
    assert lo - allowance <= value.to_fraction() <= hi + allowance
    return value


class TestQSumSplit:
    """The hyperbola split of q_sum_infinite against an exact enclosure of its sum."""

    @given(order=st.integers(1, 3), stride=st.integers(1, 3), shift=st.integers(-2, 2),
           sign=st.sampled_from((1, -1)), q=st.sampled_from((F(1, 2), F(1, 3), F(7, 10), F(99, 100))),
           data=st.data())
    def test_within_stated_bound(self, order, stride, shift, sign, q, data):
        assume(stride + shift >= 1)
        # 99/100 needs thousands of enclosure steps per precision bit, so it runs small
        prec = data.draw(st.integers(8, 24 if q == F(99, 100) else 200), label="prec")
        _assert_qsum_within_bound(order, stride, shift, sign, q, prec)

    def test_smallest_first_index(self):
        # stride 2, shift -1: the first index is 1
        for q in (F(1, 2), F(7, 10)):
            for prec in (8, 53, 300):
                _assert_qsum_within_bound(2, 2, -1, 1, q, prec)
                _assert_qsum_within_bound(1, 2, -1, -1, q, prec)

    def test_least_precision(self):
        for q in (F(1, 2), F(1, 3), F(7, 10), F(99, 100)):
            value = _assert_qsum_within_bound(3, 1, 0, -1, q, 8)
            assert value.prec == 8

    def test_q_near_one(self):
        # at q = 99/100 the direct part is longest: x_(I+1) < 1/4 takes I >= 137
        for order, sign in ((1, 1), (2, -1), (3, 1)):
            _assert_qsum_within_bound(order, 1, 0, sign, F(99, 100), 80)

    def test_tiny_sum_keeps_its_leading_digits(self):
        # sum_{n>=1001} 2^-n/[n] = sum 2^(-n-1)/(1-2^-n) = 2^-1001 (1 + e), 0 < e < 2^-999;
        # summing by i stopped after its first term, half the sum, as the tail was below 2^-72
        value = q_sum_infinite(1, 1, 1000, 1, HighPrecision.from_fraction(F(1, 2), 64))
        assert abs(value.to_fraction() * 2 ** 1001 - 1) < F(1, 2 ** 60)

    def test_constant_jet_q(self):
        q = HighPrecision.from_fraction(F(7, 10), 120)
        via_ctx = FloatContext(120).qsuminf(2, 2, 0, 1, jet_lift(q, active=False))
        assert (via_ctx.raw, via_ctx.prec) == (q_sum_infinite(2, 2, 0, 1, q).raw, 120)

    def test_non_high_precision_q_is_a_type_error(self):
        for q in (F(1, 2), 0, jet_lift(HighPrecision.from_fraction(F(1, 2), 64), active=False)):
            with pytest.raises(TypeError):
                q_sum_infinite(2, 1, 0, 1, q)

    def test_q_outside_unit_interval_does_not_converge(self):
        for q in (F(0), F(1), F(-1, 2), F(3, 2)):
            with pytest.raises(NonConvergentBaseError):
                q_sum_infinite(2, 1, 0, 1, HighPrecision.from_fraction(q, 64))


class TestJetVersusFiniteDifferences:
    """First derivatives from jets match central differences at 64 digits."""

    PREC = 240  # about 72 digits of working precision
    H = F(1, 10 ** 10)

    def _compare(self, text, x, **env):
        """The exact jet derivative of ``text`` in x against a central difference
        of its HighPrecision values."""
        ctx = FloatContext(self.PREC)
        lo = ev(text, ctx, x=HighPrecision.from_fraction(x - self.H, self.PREC), **env)
        hi = ev(text, ctx, x=HighPrecision.from_fraction(x + self.H, self.PREC), **env)
        fd = (hi - lo) / HighPrecision.from_fraction(2 * self.H, self.PREC)
        d1 = HighPrecision.from_fraction(ev_jet(text, "x", x=x, **env).d1, self.PREC)
        scale = max(F(1), abs(d1.to_fraction()))
        assert abs((d1 - fd).to_fraction()) <= scale * F(1, 10 ** 6)

    @given(x=st.fractions(min_value=F(1, 5), max_value=4, max_denominator=7),
           n=st.integers(1, 8))
    def test_pochhammer(self, x, n):
        self._compare("poch(x,n)", x, n=n)

    @given(x=st.fractions(min_value=F(1, 5), max_value=3, max_denominator=7),
           n=st.integers(1, 6))
    def test_q_pochhammer(self, x, n):
        qv = F(1, 3)
        assume(all(1 - x * qv ** i != 0 for i in range(n)))
        self._compare("qpoch(x,1,n)", x, q=qv, n=n)

    @given(x=st.fractions(min_value=F(1, 5), max_value=3, max_denominator=7),
           n=st.integers(1, 8))
    def test_harmonic(self, x, n):
        self._compare("harmx(1,n,x)", x, n=n)
