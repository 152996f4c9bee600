"""Scalar regimes: exact rationals, working-precision floats, second-order jets."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperq.scalars import (
    HighPrecision,
    Jet2,
    RegimeMismatchError,
    agree_to,
    int_pow,
    jet_lift,
    scalar_one,
    scalar_zero,
    to_precision,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


class TestCombine:
    """The arithmetic operators: the one way values of a regime combine."""

    def test_add_exact(self):
        j = Jet2(F(1, 3), F(1), F(0)) + Jet2(F(1, 6), F(2), F(5))
        assert j == Jet2(F(1, 2), F(3), F(5))

    def test_jet_product_rule(self):
        # f(x) = x^2 + x at x = 1: value 2, f' = 3, f'' = 2; square it
        j = Jet2(F(2), F(3), F(2))
        assert j * j == Jet2(F(4), F(12), F(26))

    def test_jet_self_division_is_one(self):
        j = Jet2(F(2), F(3), F(2))
        assert j / j == Jet2(F(1), F(0), F(0))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)
        with pytest.raises(ZeroDivisionError):
            to_precision(F(1), 64) / 0
        with pytest.raises(ZeroDivisionError):
            Jet2(F(1), F(0), F(0)) / Jet2(F(0), F(1), F(0))

    def test_regime_mismatch_is_checked(self):
        h = to_precision(F(1, 2), 64)
        with pytest.raises(RegimeMismatchError):
            F(1, 2) + h
        with pytest.raises(RegimeMismatchError):
            Jet2(F(1), F(0), F(0)) * h
        with pytest.raises(RegimeMismatchError):
            h + to_precision(F(1, 2), 128)
        # a plain value of the jet's own base regime is a constant jet
        assert Jet2(F(1), F(2), F(0)) * F(1, 2) == Jet2(F(1, 2), F(1), F(0))

    def test_int_pow_negative(self):
        assert int_pow(F(2, 3), -2) == F(9, 4)

    def test_int_is_universal_second_operand(self):
        h = to_precision(F(3, 4), 64)
        assert h * 4 == 3
        assert (Jet2(F(1), F(1), F(0)) + 2).value == F(3)


class TestJetLift:
    def test_active(self):
        assert jet_lift(F(3, 2)) == Jet2(F(3, 2), F(1), F(0))

    def test_constant(self):
        assert jet_lift(5, active=False) == Jet2(F(5), F(0), F(0))

    def test_lift_then_square(self):
        x = jet_lift(F(1, 2))
        assert x * x == Jet2(F(1, 4), F(1), F(2))


class TestToPrecision:
    def test_dyadic_is_exact(self):
        assert to_precision(F(1, 2), 53).to_fraction() == F(1, 2)

    def test_nearest_8_bit_to_third(self):
        # brute-force oracle: all 8-bit-significand dyadics in [1/4, 1/2)
        candidates = [F(m, 512) for m in range(128, 256)]
        nearest = min(candidates, key=lambda c: abs(c - F(1, 3)))
        assert nearest == F(171, 512)
        assert to_precision(F(1, 3), 8).to_fraction() == nearest

    def test_zero(self):
        for p in (8, 53, 200):
            assert to_precision(F(0), p).to_fraction() == 0

    @given(x=rationals, p=st.integers(min_value=8, max_value=200))
    def test_relative_error_bound(self, x, p):
        approx = to_precision(x, p).to_fraction()
        if x == 0:
            assert approx == 0
        else:
            assert abs(approx - x) <= abs(x) * F(1, 2 ** (p - 1))


class TestAgreeTo:
    def test_reflexive(self):
        x = to_precision(F(7, 3), 64)
        assert agree_to(x, x, 60)

    def test_gap_detected(self):
        one = to_precision(F(1), 64)
        off = to_precision(1 + F(1, 2 ** 10), 64)
        assert not agree_to(one, off, 20)
        assert agree_to(one, off, 9)

    def test_requires_matching_precision(self):
        with pytest.raises(RegimeMismatchError):
            agree_to(to_precision(F(1), 64), to_precision(F(1), 96), 10)


class TestFieldLaws:
    @given(a=rationals, b=rationals, c=rationals)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=rationals, b=rationals, c=rationals)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=small_rationals.filter(lambda v: v != 0), n=st.integers(-6, 6))
    def test_int_pow_matches_repeated_product(self, a, n):
        expect = F(1)
        for _ in range(abs(n)):
            expect *= a
        if n < 0:
            expect = 1 / expect
        assert int_pow(a, n) == expect


def _symbolic_reciprocal_d1(x):
    return -1 / x ** 2


class TestJetCalculus:
    """d1 of each primitive equals its symbolic derivative, exactly."""

    @given(x=small_rationals.filter(lambda v: v != 0))
    def test_reciprocal(self, x):
        j = 1 / jet_lift(x)
        assert j.d1 == _symbolic_reciprocal_d1(x)
        assert j.d2 == 2 / x ** 3

    @given(x=small_rationals, n=st.integers(0, 8))
    def test_integer_power(self, x, n):
        j = int_pow(jet_lift(x), n)
        assert j.value == x ** n
        assert j.d1 == (n * x ** (n - 1) if n > 0 else 0)

    @given(x=small_rationals, shifts=st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    def test_product_of_linear_factors(self, x, shifts):
        product = F(1)
        for s in shifts:
            product *= x + s
        j = jet_lift(x)
        result = scalar_one(j)
        for s in shifts:
            result = result * (j + s)
        assert result.value == product
        # logarithmic-derivative form of the symbolic derivative
        derivative = sum(
            _drop_one(shifts, i, x) for i in range(len(shifts)))
        assert result.d1 == derivative


def _drop_one(shifts, i, x):
    p = F(1)
    for jdx, s in enumerate(shifts):
        if jdx != i:
            p *= x + s
    return p


class TestHighPrecisionArithmetic:
    @given(a=rationals, b=rationals, p=st.integers(min_value=24, max_value=120))
    def test_addition_correctly_rounded(self, a, b, p):
        hp = to_precision(a, p) if a.denominator & (a.denominator - 1) == 0 else None
        # exact dyadic inputs: sum rounds to nearest representable
        x = to_precision(a, 300)
        y = to_precision(b, 300)
        exact = x.to_fraction() + y.to_fraction()
        s = (x + y).to_fraction()
        if exact != 0:
            assert abs(s - exact) <= abs(exact) * F(1, 2 ** 299)

    def test_repr_and_decimal(self):
        x = to_precision(F(1, 4), 64)
        assert "0.25" in x.to_decimal(5)


def _regime_values(prec):
    """Strategy for plain values of one base regime: Fraction (prec None) or HighPrecision."""
    if prec is None:
        return rationals
    return rationals.map(lambda v: to_precision(v, prec))


def _bits(x):
    """Exact identity of a scalar: the raw tuple of a HighPrecision, else the value."""
    return (x.raw, x.prec) if isinstance(x, HighPrecision) else x


def _jet_bits(j):
    return tuple(_bits(c) for c in (j.value, j.d1, j.d2))


def _is_zero(x):
    """Whether every component of the scalar ``x`` is zero."""
    parts = (x.value, x.d1, x.d2) if isinstance(x, Jet2) else (x,)
    return all(p.is_zero() if isinstance(p, HighPrecision) else p == 0 for p in parts)


def _constant_jet(c, like):
    """c as the dense constant jet (c, 0, 0) in the regime of the jet ``like``."""
    z = scalar_zero(like.value)
    if isinstance(c, int):
        c = z + c
    return Jet2(c, z, z)


OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class TestMixedOperands:
    """A plain operand of the jet's base regime acts exactly as Jet2(c, 0, 0)."""

    @pytest.mark.parametrize("prec", [None, 64, 3400])
    @given(data=st.data())
    def test_plain_equals_constant_jet(self, prec, data):
        values = _regime_values(prec)
        j = Jet2(data.draw(values), data.draw(values), data.draw(values))
        c = data.draw(st.one_of(values, st.integers(-50, 50)))
        dense = _constant_jet(c, j)
        for op, fn in OPS.items():
            if op != "/" or not _is_zero(dense):
                assert _jet_bits(fn(j, c)) == _jet_bits(fn(j, dense)), op
            if op != "/" or not _is_zero(j.value):
                assert _jet_bits(fn(c, j)) == _jet_bits(fn(dense, j)), op

    @pytest.mark.parametrize("prec", [None, 64, 3400])
    def test_division_by_plain_zero(self, prec):
        j = jet_lift(F(3, 7) if prec is None else to_precision(F(3, 7), prec))
        for zero in (0, scalar_zero(j.value)):
            with pytest.raises(ZeroDivisionError):
                j / zero
        with pytest.raises(ZeroDivisionError):
            1 / jet_lift(scalar_zero(j.value))

    @pytest.mark.parametrize("prec", [64, 3400])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_other_regimes_are_rejected(self, prec, op):
        fn = OPS[op]
        h = to_precision(F(1, 3), prec)
        exact_jet = jet_lift(F(2, 5))
        float_jet = jet_lift(to_precision(F(2, 5), prec))
        other_prec = to_precision(F(1, 3), prec + 32)
        for jet, plain in ((exact_jet, h), (float_jet, F(1, 3)), (float_jet, other_prec)):
            with pytest.raises(RegimeMismatchError):
                fn(jet, plain)
            with pytest.raises(RegimeMismatchError):
                fn(plain, jet)
