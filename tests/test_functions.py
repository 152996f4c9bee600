"""Special-function atoms and their algebraic laws."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import libmp

from hyperq.functions import (
    ConstantTag,
    NonConvergentBaseError,
    QBase,
    QIntegers,
    constant,
    cospi_constant,
    double_factorial_odd,
    harmonic,
    pi_constant,
    pi_machin_classic,
    pi_machin_euler,
    pochhammer,
    q_integer,
    q_partial_sum,
    q_pochhammer,
    q_pochhammer_infinite,
    q_sum_infinite,
    sinpi_constant,
    sqrt_constant,
    zeta2_constant,
)
from hyperq.scalars import agree_to, jet_lift, scalar_one, scalar_zero, to_precision

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)
qs = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
    lambda v: v not in (0, 1, -1))


class TestPochhammer:
    def test_half_cubed(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_empty_product(self):
        assert pochhammer(F(17, 5), 0) == 1

    def test_jet_matches_harmonic_relation_at_one(self):
        j = pochhammer(jet_lift(F(1)), 2)
        assert (j.value, j.d1, j.d2) == (F(2), F(3), F(2))
        assert j.d1 == pochhammer(F(1), 2) * harmonic(1, 2, F(0))

    @given(x=small_rationals, m=st.integers(0, 20), n=st.integers(0, 20))
    def test_concatenation(self, x, m, n):
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)

    @given(x=small_rationals, n=st.integers(0, 12))
    def test_jet_derivative_relation(self, x, n):
        """D_x (x)_n = (x)_n H_n(x-1) wherever no factor vanishes."""
        assume(all(x + i != 0 for i in range(n)))
        j = pochhammer(jet_lift(x), n)
        assert j.d1 == pochhammer(x, n) * harmonic(1, n, x - 1)


class TestHarmonic:
    def test_classical(self):
        assert harmonic(1, 4, F(0)) == F(25, 12)

    def test_empty(self):
        assert harmonic(2, 0, F(22, 7)) == 0

    def test_offset(self):
        assert harmonic(1, 2, F(1, 2)) == F(16, 15)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            harmonic(1, 3, F(-2))

    @given(x=small_rationals, n=st.integers(1, 20), order=st.integers(1, 3))
    def test_recurrence(self, x, n, order):
        assume(all(x + i != 0 for i in range(1, n + 1)))
        assert harmonic(order, n, x) == harmonic(order, n - 1, x) + 1 / (x + n) ** order


class TestDoubleFactorialOdd:
    @pytest.mark.parametrize("k,value", [(0, 1), (1, 3), (2, 15), (3, 105)])
    def test_values(self, k, value):
        assert double_factorial_odd(k) == value

    @given(k=st.integers(0, 40))
    def test_factorial_quotient_form(self, k):
        fact = 1
        for i in range(1, 2 * k + 2):
            fact *= i
        kfact = 1
        for i in range(1, k + 1):
            kfact *= i
        assert double_factorial_odd(k) == fact // (2 ** k * kfact)


class TestQPochhammer:
    def test_value_at_half(self):
        q = F(1, 2)
        assert q_pochhammer(q, QBase(q), 3) == F(21, 64)

    def test_empty(self):
        assert q_pochhammer(F(7), QBase(F(1, 3)), 0) == 1

    def test_jet_derivative_at_half(self):
        q = jet_lift(F(1, 2), active=False)
        j = q_pochhammer(jet_lift(F(1, 2)), QBase(q), 2)
        assert j.d1 == F(-1)

    @given(x=small_rationals, q=qs, m=st.integers(0, 10), n=st.integers(0, 10))
    def test_concatenation(self, x, q, m, n):
        lhs = q_pochhammer(x, QBase(q), m + n)
        rhs = q_pochhammer(x, QBase(q), m) * q_pochhammer(x * q ** m, QBase(q), n)
        assert lhs == rhs

    @given(x=small_rationals, q=qs, n=st.integers(0, 10))
    def test_jet_derivative_relation(self, x, q, n):
        """D_x (x;q)_n = -(x;q)_n sum q^(i-1)/(1 - x q^(i-1))."""
        assume(all(1 - x * q ** i != 0 for i in range(n)))
        j = q_pochhammer(jet_lift(x), QBase(jet_lift(q, active=False)), n)
        weight = sum((q ** (i - 1)) / (1 - x * q ** (i - 1)) for i in range(1, n + 1))
        assert j.d1 == -q_pochhammer(x, QBase(q), n) * weight


class TestQPochhammerInfinite:
    def test_zero_argument(self):
        q = to_precision(F(1, 2), 80)
        assert q_pochhammer_infinite(to_precision(F(0), 80), QBase(q)).to_fraction() == 1

    def test_euler_product_at_half(self):
        # 40-digit reference value, cross-checked at two precisions
        prec = 140
        q = to_precision(F(1, 2), prec)
        v = q_pochhammer_infinite(q, QBase(q))
        assert v.to_decimal(13).startswith("0.288788095086")
        hi = q_pochhammer_infinite(to_precision(F(1, 2), prec + 32), QBase(to_precision(F(1, 2), prec + 32)))
        assert agree_to(v, hi.round_to(prec), prec - 8)

    def test_base_squared_equals_direct(self):
        prec = 120
        q = to_precision(F(1, 2), prec)
        via_step = q_pochhammer_infinite(q * q, QBase(q, 2))
        direct_base = to_precision(F(1, 4), prec)
        direct = q_pochhammer_infinite(direct_base, QBase(direct_base, 1))
        assert agree_to(via_step, direct, prec - 8)

    def test_divergent_base_rejected(self):
        q = to_precision(F(3, 2), 64)
        with pytest.raises(NonConvergentBaseError):
            q_pochhammer_infinite(q, QBase(q))


class TestQInteger:
    def test_unit(self):
        assert q_integer(1, F(22, 7)) == 1

    def test_at_half(self):
        assert q_integer(4, F(1, 2)) == F(15, 8)

    def test_at_one(self):
        assert q_integer(3, F(1)) == 3

    @given(q=qs, m=st.integers(0, 12), n=st.integers(0, 12))
    def test_addition_rule(self, q, m, n):
        assert q_integer(m + n, q) == q_integer(m, q) + q ** m * q_integer(n, q)


def fresh_q_integer(m, q):
    """Reference [m]: the direct loop 1 + q + ... + q^(m-1), started from zero."""
    total, p = scalar_zero(q), scalar_one(q)
    for _ in range(m):
        total = total + p
        p = p * q
    return total


class TestRunningQIntegers:
    QS = (F(1, 2), F(7, 10), F(99, 100))
    CHECKED = list(range(0, 500, 7)) + [500]

    @pytest.mark.parametrize("prec", [64, 3400])
    @pytest.mark.parametrize("q", QS)
    def test_bit_identical_to_fresh_sum(self, q, prec):
        hq = to_precision(q, prec)
        q_ints = QIntegers(hq)
        for m in range(501):
            got = q_ints(m)
            if m in self.CHECKED:
                want = fresh_q_integer(m, hq)
                assert (got.raw, got.prec) == (want.raw, want.prec), m
                assert q_integer(m, hq).raw == want.raw, m

    @pytest.mark.parametrize("q", QS)
    def test_exact_for_fractions(self, q):
        q_ints = QIntegers(q)
        for m in self.CHECKED:
            assert q_ints(m) == (1 - q ** m) / (1 - q)

    def test_smaller_index_restarts(self):
        hq = to_precision(F(7, 10), 64)
        q_ints = QIntegers(hq)
        q_ints(40)
        assert q_ints(9).raw == fresh_q_integer(9, hq).raw
        assert q_ints(9).raw == fresh_q_integer(9, hq).raw  # same index: no step

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            QIntegers(F(1, 2))(-1)


class TestQPartialSum:
    def test_empty(self):
        assert q_partial_sum(2, 1, 0, 1, 0, F(1, 2)) == 0

    def test_two_terms(self):
        assert q_partial_sum(2, 1, 0, 1, 2, F(1, 2)) == F(11, 18)

    def test_shifted(self):
        assert q_partial_sum(2, 2, -1, 1, 1, F(1, 2)) == F(1, 2)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            q_partial_sum(2, 1, -1, 1, 2, F(1, 2))

    @given(q=st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
           m=st.integers(0, 15))
    def test_monotone_in_length_for_positive_sign(self, q, m):
        a = q_partial_sum(2, 2, 0, 1, m, q)
        b = q_partial_sum(2, 2, 0, 1, m + 1, q)
        assert b > a


class TestConstants:
    def test_pi_40_digits(self):
        v = pi_constant(160)
        assert v.to_decimal(41).startswith("3.141592653589793238462643383279502884197")

    @pytest.mark.parametrize("prec", list(range(8, 600, 7)) + [3372, 16672])
    def test_pi_matches_mpmath(self, prec):
        # mpmath's pi is Chudnovsky-based, independent of both arctangent formulas
        assert pi_constant(prec).raw == libmp.mpf_pi(prec, "n")

    def test_pi_formulas_cross_check(self):
        prec = 128
        a = pi_machin_classic(prec)
        b = pi_machin_euler(prec)
        assert agree_to(a, b, 100)

    def test_sqrt3_30_digits(self):
        v = sqrt_constant(3, 120)
        assert v.to_decimal(30).startswith("1.7320508075688772935274463415")
        sq = (v * v).to_fraction()
        assert abs(sq - 3) < F(1, 2 ** 100)

    def test_zeta2_equals_pi_squared_over_six(self):
        prec = 160
        z = zeta2_constant(prec)
        pi2 = pi_constant(prec + 32)
        target = (pi2 * pi2 / 6).round_to(prec)
        assert agree_to(z, target, prec - 10)

    def test_qsum_constant_value(self):
        q = to_precision(F(1, 2), 80)
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
        value = q_sum_infinite(order, stride, shift, sign, to_precision(q, prec)).to_fraction()
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

    def test_sinpi_outside_table_rejected(self):
        with pytest.raises(ValueError):
            sinpi_constant(F(1, 5), 80)

    def test_constant_dispatch(self):
        assert constant(ConstantTag("pi"), 80).to_decimal(10).startswith("3.14159265")
        assert constant(ConstantTag("sqrt", (2,)), 80).to_decimal(10).startswith("1.41421356")
        q = to_precision(F(1, 2), 80)
        tagged = constant(ConstantTag("q-sum", (2, 2, 0, 1)), 80, q=q)
        assert agree_to(tagged, q_sum_infinite(2, 2, 0, 1, q), 70)


class TestJetVersusFiniteDifferences:
    """First derivatives from jets match central differences at 64 digits."""

    PREC = 240  # about 72 digits of working precision
    H = F(1, 10 ** 10)

    def _compare(self, f_exact_jet_d1, f_hp, x):
        lo = f_hp(to_precision(x - self.H, self.PREC))
        hi = f_hp(to_precision(x + self.H, self.PREC))
        fd = (hi - lo) / to_precision(2 * self.H, self.PREC)
        d1 = to_precision(f_exact_jet_d1(x), self.PREC)
        scale = max(F(1), abs(d1.to_fraction()))
        assert abs((d1 - fd).to_fraction()) <= scale * F(1, 10 ** 6)

    @given(x=st.fractions(min_value=F(1, 5), max_value=4, max_denominator=7),
           n=st.integers(1, 8))
    def test_pochhammer(self, x, n):
        self._compare(lambda v: pochhammer(jet_lift(v), n).d1,
                      lambda v: pochhammer(v, n), x)

    @given(x=st.fractions(min_value=F(1, 5), max_value=3, max_denominator=7),
           n=st.integers(1, 6))
    def test_q_pochhammer(self, x, n):
        qv = F(1, 3)
        assume(all(1 - x * qv ** i != 0 for i in range(n)))
        hq = to_precision(qv, self.PREC)
        self._compare(lambda v: q_pochhammer(jet_lift(v), QBase(jet_lift(qv, active=False)), n).d1,
                      lambda v: q_pochhammer(v, QBase(hq), n), x)

    @given(x=st.fractions(min_value=F(1, 5), max_value=3, max_denominator=7),
           n=st.integers(1, 8))
    def test_harmonic(self, x, n):
        self._compare(lambda v: harmonic(1, n, jet_lift(v)).d1,
                      lambda v: harmonic(1, n, v), x)
