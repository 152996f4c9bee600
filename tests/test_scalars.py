"""Scalar regimes: exact rationals, working-precision floats, second-order jets."""

import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import libmp

from hyperq.scalars import (
    HighPrecision,
    Jet2,
    Rational,
    RationalJet,
    RegimeMismatchError,
    agree_to,
    int_pow,
    jet_lift,
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
            HighPrecision.from_fraction(F(1), 64) / 0
        with pytest.raises(ZeroDivisionError):
            Jet2(F(1), F(0), F(0)) / Jet2(F(0), F(1), F(0))

    def test_regime_mismatch_is_checked(self):
        h = HighPrecision.from_fraction(F(1, 2), 64)
        with pytest.raises(RegimeMismatchError):
            F(1, 2) + h
        with pytest.raises(RegimeMismatchError):
            Jet2(F(1), F(0), F(0)) * h
        with pytest.raises(RegimeMismatchError):
            h + HighPrecision.from_fraction(F(1, 2), 128)
        # a plain value of the jet's own base regime is a constant jet
        assert Jet2(F(1), F(2), F(0)) * F(1, 2) == Jet2(F(1, 2), F(1), F(0))

    def test_int_pow_negative(self):
        assert int_pow(F(2, 3), -2) == F(9, 4)

    def test_int_is_universal_second_operand(self):
        h = HighPrecision.from_fraction(F(3, 4), 64)
        assert h * 4 == 3
        assert (Jet2(F(1), F(1), F(0)) + 2).value == F(3)


class TestJetLift:
    def test_active(self):
        assert jet_lift(F(3, 2)) == Jet2(F(3, 2), F(1), F(0))

    def test_rational_input_makes_rational_jets(self):
        x = jet_lift(F(3, 2))
        assert type(x) is RationalJet and x.ints == (3, 2, 0, 2)
        assert type(x ** 0) is RationalJet and x ** 0 == Jet2(F(1), F(0), F(0))
        assert type(x * 0) is RationalJet and x * 0 == Jet2(F(0), F(0), F(0))
        assert type(jet_lift(HighPrecision.from_fraction(F(3, 2), 64))) is Jet2

    def test_constant(self):
        assert jet_lift(5, active=False) == Jet2(F(5), F(0), F(0))

    def test_lift_then_square(self):
        x = jet_lift(F(1, 2))
        assert x * x == Jet2(F(1, 4), F(1), F(2))


class TestToPrecision:
    def test_dyadic_is_exact(self):
        assert HighPrecision.from_fraction(F(1, 2), 53).to_fraction() == F(1, 2)

    def test_nearest_8_bit_to_third(self):
        # brute-force oracle: all 8-bit-significand dyadics in [1/4, 1/2)
        candidates = [F(m, 512) for m in range(128, 256)]
        nearest = min(candidates, key=lambda c: abs(c - F(1, 3)))
        assert nearest == F(171, 512)
        assert HighPrecision.from_fraction(F(1, 3), 8).to_fraction() == nearest

    def test_zero(self):
        for p in (8, 53, 200):
            assert HighPrecision.from_fraction(F(0), p).to_fraction() == 0

    @given(x=rationals, p=st.integers(min_value=8, max_value=200))
    def test_relative_error_bound(self, x, p):
        approx = HighPrecision.from_fraction(x, p).to_fraction()
        if x == 0:
            assert approx == 0
        else:
            assert abs(approx - x) <= abs(x) * F(1, 2 ** (p - 1))


# signed ints of up to 320, 4800 and 10^5 bits: shorter and longer than p + 64
_signed_ints = st.tuples(
    st.one_of(st.binary(max_size=40), st.binary(min_size=40, max_size=600),
              st.binary(min_size=600, max_size=12500)),
    st.booleans()).map(lambda t: (-1) ** t[1] * int.from_bytes(t[0], "big"))


class TestFromQuotient:
    @given(n=_signed_ints, d=_signed_ints.filter(bool), p=st.integers(8, 4000))
    def test_is_the_exact_rounding(self, n, d, p):
        # operands shorter and longer than p + 64 bits, and quotients of any size
        assert HighPrecision.from_quotient(n, d, p).raw == libmp.from_rational(n, d, p, "n")

    def test_a_tie_is_divided_exactly(self, monkeypatch):
        # 1 + 2^-p and 1 + 3*2^-p lie halfway between p-bit floats; over a common
        # factor of about 10^5 bits the truncated bracket holds the tie, so only the
        # exact division can round it to even
        p, common = 200, 3 ** 63093
        exact, lengths = libmp.from_rational, []

        def spy(n, d, *args):
            lengths.append(max(abs(n), abs(d)).bit_length())
            return exact(n, d, *args)

        monkeypatch.setattr(libmp, "from_rational", spy)
        n, d = (2 ** p + 1) * common, common << p
        cases = [(n, 1), (n + 2 * common, 1 + F(1, 2 ** (p - 2))), (-n, -1),
                 (n + 1, 1 + F(1, 2 ** (p - 1))), (n - 1, 1)]  # just above and below a tie
        for n, want in cases:
            lengths.clear()
            assert HighPrecision.from_quotient(n, d, p).to_fraction() == want
            assert lengths[-1] > 10 ** 5  # the fallback divided the whole operands

    @staticmethod
    def _divisions(monkeypatch):
        """The operand pairs that ``libmp.from_rational`` receives from now on."""
        exact, calls = libmp.from_rational, []

        def spy(n, d, *args):
            calls.append((n, d))
            return exact(n, d, *args)

        monkeypatch.setattr(libmp, "from_rational", spy)
        return calls

    def test_a_quotient_within_the_slack_is_divided_exactly(self, monkeypatch):
        # n/d is 1 + 2^-p + c 2^-(p+63) for c near -1 and 1 (not a tie: d = 3^400
        # is odd); the truncated quotient lands within 5 units of the tie pattern,
        # so the whole operands are divided.  Past the slack (c = 3), they are not
        p, d = 200, 3 ** 400
        calls = self._divisions(monkeypatch)
        for c, want in [(-1, 1), (1, 1 + F(1, 2 ** (p - 1))), (3, None)]:
            n = (((2 ** p + 1) << 63) + c) * d >> (p + 63)
            calls.clear()
            got = HighPrecision.from_quotient(n, d, p)
            assert calls == ([(n, d)] if want else [])
            assert got.raw == libmp.from_rational(n, d, p, "n")
            if want:
                assert got.to_fraction() == want

    def test_the_slack_is_needed(self, monkeypatch):
        # d = b 2^t + 2^t - 1 truncates to b, just above 2^(w-1), and n of w bits
        # stays whole, so n/d 2^(t+w) lies almost 4 below the truncated quotient
        # q.  With q's low 65 bits 3 above the tie pattern 2^64, the tie lies
        # between them and q alone rounds up wrongly; a slack of 3 would fail
        p, t = 200, 50
        w = p + 64
        b = (1 << (w - 1)) + 3 ** 102
        d = (b << t) | ((1 << t) - 1)
        q = ((1 << 2 * w) - 1) // b
        q -= (q - (1 << 64) - 3) % (1 << 65)
        n = -(-(q * b) >> w)  # the least n whose truncated quotient is q
        assert (n << w) // b == q and n.bit_length() == w
        calls = self._divisions(monkeypatch)
        got = HighPrecision.from_quotient(n, d, p).raw
        assert calls == [(n, d)]
        assert got == libmp.from_rational(n, d, p, "n") != libmp.from_man_exp(q, -t - w, p, "n")

    def test_long_operands_are_divided_whole_or_not_at_all(self, monkeypatch):
        # from_rational runs on the whole operands (both short, or the fallback);
        # the truncated ones go through one integer division
        calls, rng = self._divisions(monkeypatch), random.Random(27)
        for _ in range(300):
            p = rng.randint(8, 3000)
            n, d = (rng.getrandbits(rng.randint(1, p + 200)) or 1 for _ in "nd")
            calls.clear()
            HighPrecision.from_quotient(n, d, p)
            assert calls in ([], [(n, d)])
            assert calls or max(n, d).bit_length() > p + 64


class TestAgreeTo:
    def test_reflexive(self):
        x = HighPrecision.from_fraction(F(7, 3), 64)
        assert agree_to(x, x, 60)

    def test_gap_detected(self):
        one = HighPrecision.from_fraction(F(1), 64)
        off = HighPrecision.from_fraction(1 + F(1, 2 ** 10), 64)
        assert not agree_to(one, off, 20)
        assert agree_to(one, off, 9)

    def test_requires_matching_precision(self):
        with pytest.raises(RegimeMismatchError):
            agree_to(HighPrecision.from_fraction(F(1), 64), HighPrecision.from_fraction(F(1), 96), 10)


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
        result = j ** 0
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
        hp = HighPrecision.from_fraction(a, p) if a.denominator & (a.denominator - 1) == 0 else None
        # exact dyadic inputs: sum rounds to nearest representable
        x = HighPrecision.from_fraction(a, 300)
        y = HighPrecision.from_fraction(b, 300)
        exact = x.to_fraction() + y.to_fraction()
        s = (x + y).to_fraction()
        if exact != 0:
            assert abs(s - exact) <= abs(exact) * F(1, 2 ** 299)

    def test_repr_and_decimal(self):
        x = HighPrecision.from_fraction(F(1, 4), 64)
        assert "0.25" in x.to_decimal(5)


def _regime_values(prec):
    """Strategy for plain values of one base regime: Fraction (prec None) or HighPrecision."""
    if prec is None:
        return rationals
    return rationals.map(lambda v: HighPrecision.from_fraction(v, prec))


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
    if isinstance(like, RationalJet):
        return jet_lift(c, active=False)
    z = like.value * 0
    if isinstance(c, int):
        c = z + c
    return Jet2(c, z, z)


OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _lifted_jet(value, d1, d2):
    """The jet (value, d1, d2) built from ``jet_lift``: value + d1*e + (d2/2)*e^2
    with e the active jet at 0, exactly (a RationalJet for rational components)."""
    e = jet_lift(value * 0)
    return value + d1 * e + d2 / 2 * (e * e)


class TestMixedOperands:
    """A plain operand of the jet's base regime acts exactly as the constant jet (c, 0, 0)."""

    @pytest.mark.parametrize("prec", [None, 64, 3400])
    @given(data=st.data())
    def test_plain_equals_constant_jet(self, prec, data):
        self._check(prec, Jet2, data)

    @pytest.mark.parametrize("prec", [None, 64, 3400])
    @given(data=st.data())
    def test_plain_equals_constant_lifted_jet(self, prec, data):
        self._check(prec, _lifted_jet, data)

    @staticmethod
    def _check(prec, build, data):
        values = _regime_values(prec)
        j = build(data.draw(values), data.draw(values), data.draw(values))
        assert isinstance(j, RationalJet) == (build is _lifted_jet and prec is None)
        c = data.draw(st.one_of(values, st.integers(-50, 50)))
        dense = _constant_jet(c, j)
        for op, fn in OPS.items():
            if op != "/" or not _is_zero(dense):
                assert _jet_bits(fn(j, c)) == _jet_bits(fn(j, dense)), op
            if op != "/" or not _is_zero(j.value):
                assert _jet_bits(fn(c, j)) == _jet_bits(fn(dense, j)), op

    @pytest.mark.parametrize("prec", [None, 64, 3400])
    def test_division_by_plain_zero(self, prec):
        j = jet_lift(F(3, 7) if prec is None else HighPrecision.from_fraction(F(3, 7), prec))
        for zero in (0, j.value * 0):
            with pytest.raises(ZeroDivisionError):
                j / zero
        with pytest.raises(ZeroDivisionError):
            1 / jet_lift(j.value * 0)

    @pytest.mark.parametrize("prec", [64, 3400])
    def test_high_precision_hands_jets_to_jet2(self, prec):
        # a forward operator defers to the jet's reflected one; a comparison or
        # a reflected HighPrecision operator has nothing to defer to, and raises
        h = HighPrecision.from_fraction(F(1, 3), prec)
        jet = jet_lift(HighPrecision.from_fraction(F(2, 5), prec))
        assert h + jet == jet + h and h * jet == jet * h
        assert (h - jet).value == h - jet.value and (h / jet).value == h / jet.value
        for fn in (operator.lt, operator.le, operator.gt, operator.ge,
                   HighPrecision.__rsub__, HighPrecision.__rtruediv__):
            with pytest.raises(RegimeMismatchError):
                fn(h, jet)
        assert h != jet

    @pytest.mark.parametrize("prec", [64, 3400])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_other_regimes_are_rejected(self, prec, op):
        fn = OPS[op]
        h = HighPrecision.from_fraction(F(1, 3), prec)
        exact_jet = jet_lift(F(2, 5))
        float_jet = jet_lift(HighPrecision.from_fraction(F(2, 5), prec))
        other_prec = HighPrecision.from_fraction(F(1, 3), prec + 32)
        reference = Jet2(F(2, 5), F(1), F(0))  # a reference of the exact jet, not its operand
        for jet, plain in ((exact_jet, h), (exact_jet, float_jet), (exact_jet, reference),
                           (float_jet, F(1, 3)), (float_jet, other_prec)):
            with pytest.raises(RegimeMismatchError):
                fn(jet, plain)
            with pytest.raises(RegimeMismatchError):
                fn(plain, jet)


def _is_canonical(r) -> bool:
    n0, n1, n2, den = r.ints
    return type(r) is RationalJet and den > 0 and math.gcd(n0, n1, n2, den) == 1


def _assert_matches(got, want):
    """``got()``, a RationalJet, has exactly the components of the reference
    ``want()`` in canonical form, or both raise ZeroDivisionError."""
    try:
        expected = want()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
        return
    result = got()
    assert _is_canonical(result), result.ints
    assert (result.value, result.d1, result.d2) == (expected.value, expected.d1, expected.d2)
    assert result == expected and expected == result and hash(result) == hash(expected)


class TestRationalJet:
    """The exact jet against the Jet2 with Fraction components: every operation
    gives exactly the reference's components, in canonical form."""

    @given(data=st.data())
    def test_matches_the_fraction_reference(self, data):
        parts = [data.draw(rationals) for _ in range(3)]
        jet, ref = RationalJet(*parts), Jet2(*parts)
        assert _is_canonical(jet) and jet == ref
        kind = data.draw(st.sampled_from(["int", "Fraction", "RationalJet"]))
        if kind == "RationalJet":
            other_parts = [data.draw(small_rationals) for _ in range(3)]
            other, other_ref = RationalJet(*other_parts), Jet2(*other_parts)
        else:
            other = other_ref = data.draw(st.integers(-50, 50) if kind == "int" else rationals)
        for fn in OPS.values():
            _assert_matches(lambda: fn(jet, other), lambda: fn(ref, other_ref))
            _assert_matches(lambda: fn(other, jet), lambda: fn(other_ref, ref))
        _assert_matches(lambda: -jet, lambda: -ref)
        n = data.draw(st.integers(-4, 6))
        _assert_matches(lambda: jet ** n, lambda: ref ** n)
        _assert_matches(lambda: int_pow(jet, n), lambda: int_pow(ref, n))

    def test_power_of_a_value_in_lowest_terms(self):
        # (1, 1/2, 0) is (2, 1, 0)/2: the power must not build 2^n
        jet = RationalJet(1, F(1, 2), 0)
        n = 2 ** 30
        _assert_matches(lambda: jet ** n, lambda: Jet2(F(1), F(1, 2), F(0)) ** n)
        _assert_matches(lambda: jet ** -n, lambda: Jet2(F(1), F(1, 2), F(0)) ** -n)

    def test_construction_is_canonical(self):
        assert RationalJet(F(1, 2), F(1, 3), 0).ints == (3, 2, 0, 6)
        assert RationalJet(F(-4, 6), 2, F(2, 3)).ints == (-2, 6, 2, 3)
        assert RationalJet(0, 0, 0).ints == (0, 0, 0, 1)

    def test_division_by_a_zero_value(self):
        zero_value = RationalJet(0, F(1, 2), 5)  # nonzero derivatives
        for numerator in (RationalJet(1, 2, 3), F(1, 3), 2, 0):
            with pytest.raises(ZeroDivisionError):
                numerator / zero_value
        with pytest.raises(ZeroDivisionError):
            zero_value ** -1
        for zero in (0, F(0)):
            with pytest.raises(ZeroDivisionError):
                RationalJet(1, 2, 3) / zero


# numerators and denominators of a few bits to past 2^200, zero and negatives included
wide_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-2 ** 260, 2 ** 260), st.integers(1, 2 ** 230)),
)
EXACT_KINDS = {"int": lambda v: v.numerator, "Fraction": F, "Rational": Rational}


def _outcome(fn):
    """``fn()``, or the class of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 -- the class is the outcome compared
        return type(exc)


class TestRational:
    """``Rational`` computes exactly what ``Fraction`` computes, as a canonical ``Rational``."""

    @staticmethod
    def _assert_matches(got, want):
        expected = _outcome(want)
        result = _outcome(got)
        if expected is ZeroDivisionError:
            assert result is ZeroDivisionError
            return
        assert type(result) is Rational, result
        assert result.denominator > 0 and math.gcd(result.numerator, result.denominator) == 1
        assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)
        assert result == expected and str(result) == str(expected) and hash(result) == hash(expected)

    @given(a=wide_rationals, b=wide_rationals, kind=st.sampled_from(sorted(EXACT_KINDS)),
           n=st.integers(-6, 6))
    def test_equals_fraction(self, a, b, kind, n):
        x, other = Rational(a), EXACT_KINDS[kind](b)
        reference = other if kind == "int" else F(b)
        for fn in OPS.values():
            self._assert_matches(lambda: fn(x, other), lambda: fn(a, reference))
            self._assert_matches(lambda: fn(other, x), lambda: fn(reference, a))
        self._assert_matches(lambda: -x, lambda: -a)
        self._assert_matches(lambda: x ** n, lambda: a ** n)
        self._assert_matches(lambda: int_pow(x, n), lambda: a ** n)
        if n < 0:  # a nonnegative power of an int stays an int
            self._assert_matches(lambda: int_pow(b.numerator, n), lambda: F(b.numerator) ** n)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_zero_divisors_raise(self, n):
        for zero in (0, F(0), Rational(0)):
            for fn in (lambda: Rational(3, 7) / zero, lambda: zero ** n, lambda: int_pow(zero, n)):
                with pytest.raises(ZeroDivisionError):
                    fn()
        with pytest.raises(ZeroDivisionError):
            1 / Rational(0)

    @pytest.mark.parametrize("op", sorted(OPS) + ["**"])
    def test_other_regimes_decide_as_beside_a_fraction(self, op):
        fn = OPS.get(op, lambda a, b: a ** b)
        h = HighPrecision.from_fraction(F(1, 3), 64)
        for other in (h, jet_lift(h), jet_lift(F(2, 5)), Jet2(F(2, 5), F(1), F(0))):
            for args in ((Rational(3, 7), other), (other, Rational(3, 7))):
                reference = [F(3, 7) if type(v) is Rational else v for v in args]
                got, want = _outcome(lambda: fn(*args)), _outcome(lambda: fn(*reference))
                if isinstance(want, type):  # the class of what a Fraction raises
                    assert got is want, (op, args)
                else:
                    assert type(got) is type(want) and got == want, (op, args)
