"""Series engine: term evaluation, exact and tail-bounded summation, and
(basic) hypergeometric series written in the DSL, against naive loops."""

import math
import operator
import time
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperq import dsl, series
from hyperq.corpus import get_identity
from hyperq.functions import pi_constant
from hyperq.scalars import HighPrecision, Jet2, Rational, RationalJet, agree_to, jet_lift
from hyperq.series import (
    MAX_EXACT_BITS,
    MAX_FLOAT_BITS,
    EvalError,
    FloatContext,
    NonGeometricTailError,
    PoleInTermError,
    RationalContext,
    UnboundParameterError,
    evaluate_closed,
    evaluate_expr,
    sum_infinite,
    sum_terminating,
)

R1_TEXT = "sum k=0..inf : (6*k+1)*poch(1/2,k)^3/(fact(k)^3*4^k)"
W1_TEXT = "sum k=0..inf : fact(k)/dfactodd(k)"


class TestEvaluateTerm:
    def test_ramanujan_k0(self):
        spec = dsl.parse_series_spec(R1_TEXT)
        assert evaluate_expr(spec.term, {spec.index: 0}, RationalContext()) == 1

    def test_ramanujan_k1(self):
        spec = dsl.parse_series_spec(R1_TEXT)
        assert evaluate_expr(spec.term, {spec.index: 1}, RationalContext()) == F(7, 32)

    def test_double_factorial_k2(self):
        spec = dsl.parse_series_spec(W1_TEXT)
        assert evaluate_expr(spec.term, {spec.index: 2}, RationalContext()) == F(2, 15)

    def test_unbound_parameter(self):
        spec = dsl.parse_series_spec("sum k=0..inf : poch(a,k)")
        with pytest.raises(UnboundParameterError):
            evaluate_expr(spec.term, {spec.index: 1}, RationalContext())

    @pytest.mark.parametrize("text", ["qint(3)", "qpoch(1/2,2,3)", "qpochinf(1/2,1)",
                                      "qsum(1,1,0,+,3)", "qsuminf(2,1,0,-)"])
    def test_unbound_q(self, text):
        # q is an ordinary parameter, which the q-atoms read
        with pytest.raises(UnboundParameterError, match="parameter 'q' is not bound"):
            evaluate_closed(dsl.parse_closed_form(text), {}, 64)

    def test_pole_in_term(self):
        spec = dsl.parse_series_spec("sum k=0..n : 1/(k-2)")
        with pytest.raises(PoleInTermError):
            evaluate_expr(spec.term, {"n": 4, spec.index: 2}, RationalContext())


class TestExactPowerGuard:
    """An exact power of more than MAX_EXACT_BITS bits is refused before it is
    built, and a float regime raises an int power past it at working precision
    up to a magnitude of 2^MAX_FLOAT_BITS; each case sits just over a limit."""

    @pytest.mark.parametrize("text, refused_in_floats", [
        (f"2^{MAX_EXACT_BITS + 1}", False),
        (f"3^{math.floor(MAX_EXACT_BITS / math.log2(3)) + 1}", False),
        ("2^2^2^2^2^2", True),
        (f"2^(-{MAX_EXACT_BITS + 1})", False),
        (f"(1/2)^{MAX_EXACT_BITS + 1}", False),
    ])
    def test_over_the_limit(self, text, refused_in_floats):
        cf = dsl.parse_closed_form(text)
        with pytest.raises(EvalError, match="exact power"):
            evaluate_closed(cf, {})
        # a float regime raises the power at working precision instead, up to
        # a magnitude of 2^MAX_FLOAT_BITS
        if refused_in_floats:
            with pytest.raises(EvalError, match="float power"):
                evaluate_closed(cf, {}, 64)
        else:
            assert not evaluate_closed(cf, {}, 64).is_zero()

    def test_float_limit(self):
        value = evaluate_closed(dsl.parse_closed_form(f"2^{MAX_FLOAT_BITS}"), {}, 64)
        assert value.raw == (0, 1, MAX_FLOAT_BITS, 1)
        for text in (f"2^{MAX_FLOAT_BITS + 1}", f"2^(-{MAX_FLOAT_BITS + 1})"):
            with pytest.raises(EvalError, match="float power"):
                evaluate_closed(dsl.parse_closed_form(text), {}, 64)

    @pytest.mark.parametrize("text", [
        "(1/2)^2^2^2^2^2",
        f"(1/2)^{MAX_FLOAT_BITS + 1}",
        f"(3/2)^{math.floor(MAX_FLOAT_BITS / math.log2(3 / 2)) + 1}",
        f"(1+2^(-40))^(2^{24 + 40})",  # log2 of the base is 1.44*2^-40
    ])
    def test_float_base_limit(self, text, monkeypatch):
        # a float base is refused before the power is raised, so no huge
        # value reaches the exact conversion of the validation either
        exact_pow = series.int_pow

        def exact_only(base, e):
            assert not (isinstance(base, HighPrecision) and abs(e) > 2 ** 20), \
                "the huge float power was raised"
            return exact_pow(base, e)
        monkeypatch.setattr(series, "int_pow", exact_only)
        with pytest.raises(EvalError, match="float power"):
            evaluate_closed(dsl.parse_closed_form(text), {}, 64)

    def test_float_base_at_the_limit(self):
        value = evaluate_closed(dsl.parse_closed_form(f"(1/2)^{MAX_FLOAT_BITS}"), {}, 64)
        assert value.raw == (0, 1, -MAX_FLOAT_BITS, 1)
        value = evaluate_closed(dsl.parse_closed_form(f"(1+2^(-40))^(2^{23 + 40})"), {}, 64)
        assert value.raw[2] + value.raw[3] == math.floor(2 ** 23 / math.log(2)) + 1

    def test_float_regime_lifts_a_huge_power(self):
        # the exact numerator would have 2,000,001 bits; each term is rounded
        spec = dsl.parse_series_spec("sum k=0..inf : 2^2000000/3^(1261860+k)")
        value, _, _ = sum_infinite(spec, {}, 64)
        two, three = HighPrecision.from_int(2, 128), HighPrecision.from_int(3, 128)
        expected = two ** 2000000 / three ** 1261860 * 3 / 2  # the sum of 3^-k is 3/2
        assert agree_to(value, expected.round_to(64), 56)  # a value near 0.87

    def test_exact_position_keeps_the_limit(self):
        # an exponent is an exact position in every regime
        cf = dsl.parse_closed_form(f"2^(2^{MAX_EXACT_BITS + 1})")
        with pytest.raises(EvalError, match="exact power"):
            evaluate_closed(cf, {}, 64)

    def test_at_the_limit(self):
        assert evaluate_closed(dsl.parse_closed_form(f"2^{MAX_EXACT_BITS}"), {}) == \
            1 << MAX_EXACT_BITS

    def test_index_expression(self):
        spec = dsl.parse_series_spec(f"sum k=0..2^{MAX_EXACT_BITS + 1} : k")
        with pytest.raises(EvalError, match="exact power"):
            sum_terminating(spec, {})

    def test_float_regime_lifts_an_indexed_power(self):
        # a float regime raises c^k at working precision, so no exact size applies
        spec = dsl.parse_series_spec("sum k=0..n : 2^(k*k)")
        value = sum_terminating(spec, {"n": 1100}, FloatContext(64))
        assert value.raw == (0, 1, 1100 ** 2, 1)  # 2^(1100^2), the others rounded away
        with pytest.raises(EvalError, match="exact power"):
            sum_terminating(spec, {"n": 1100})


class TestRunningProductGuard:
    """In the exact regime, plain and as a rational jet, a running product is
    refused at the step where a numerator or denominator of its state passes
    MAX_EXACT_BITS bits.  The bases below are under the power limit, so the
    product crosses it at its second step; no integer much beyond 2^20 bits
    is built."""

    OVER, UNDER = MAX_EXACT_BITS // 2 + 8, MAX_EXACT_BITS // 2 - 16

    @staticmethod
    def _evaluate(text, jet, **env):
        """``text`` with ``a`` bound to 1: exactly, or as the rational jet of a at 1."""
        a = jet_lift(1) if jet else F(1)
        return evaluate_expr(dsl.parse_closed_form(text).expr, {**env, "a": a}, RationalContext())

    @pytest.mark.parametrize("jet", [False, True])
    @pytest.mark.parametrize("atom", ["poch(a*2^{e},2)", "qpoch(a*2^{e},1,2)"])
    def test_second_step_crosses_the_limit(self, atom, jet):
        with pytest.raises(EvalError, match="running product"):
            self._evaluate(atom.format(e=self.OVER), jet, q=F(1, 2))
        value = self._evaluate(atom.format(e=self.UNDER), jet, q=F(1, 2))
        x = 1 << self.UNDER
        expected = x * (x + 1) if atom.startswith("poch") else (1 - x) * (1 - F(x, 2))
        assert isinstance(value, RationalJet) == jet
        assert (value.value if jet else value) == expected

    @pytest.mark.parametrize("jet", [False, True])
    def test_lowered_limit(self, jet, monkeypatch):
        # the factors of fact and dfactodd are small, so the limit is lowered
        # rather than a product of a million bits built; their running
        # products are plain in the jet regime too
        monkeypatch.setattr(series, "MAX_EXACT_BITS", 64)
        assert math.factorial(20).bit_length() <= 64 < math.factorial(21).bit_length()
        assert self._evaluate("fact(20)", jet) == math.factorial(20)
        odd = math.prod(range(1, 34, 2))  # dfactodd(16)
        assert odd.bit_length() <= 64 < (odd * 35).bit_length()
        assert self._evaluate("dfactodd(16)", jet) == odd
        for text in ("fact(21)", "dfactodd(17)", "poch(a,21)"):
            with pytest.raises(EvalError, match="running product"):
                self._evaluate(text, jet)
        # a q-product's sizes grow with the square of its count: its
        # denominator is about 3^n 2^(5n(n-1)) at q = 2^-10
        q = F(1, 2 ** 10)
        assert self._evaluate("qpoch(a/3,1,3)", jet, q=q) != 0
        with pytest.raises(EvalError, match="running product"):
            self._evaluate("qpoch(a/3,1,4)", jet, q=q)

    @pytest.mark.parametrize("jet", [False, True])
    def test_factorial_refused_from_its_count(self, jet, monkeypatch):
        # (n/e)^n <= n! passes the limit first at n = 71423, n! itself at
        # 71422; (2n/e)^n < (2n+1)!! at 67241, (2n+1)!! itself at 67240.  So
        # no product that fits is refused, and one past is refused unbuilt
        for text in ("fact(80000)", "dfactodd(80000)"):
            with pytest.raises(EvalError, match="running product"):
                self._evaluate(text, jet)
        targets = []
        monkeypatch.setattr(series, "_advance", lambda *args: targets.append(args[3]) or 1)
        for text in ("fact(71423)", "dfactodd(67241)"):
            with pytest.raises(EvalError, match="running product"):
                self._evaluate(text, jet)
        assert targets == []
        self._evaluate("fact(71422)", jet)
        self._evaluate("dfactodd(67240)", jet)
        evaluate_expr(dsl.parse_closed_form("fact(80000)").expr, {}, FloatContext(64))
        assert targets == [71422, 67240, 80000]  # the float regime has no such limit

    @pytest.mark.parametrize("jet", [False, True])
    def test_poch_refused_from_its_count(self, jet, monkeypatch):
        # (1/3)_n passes the limit at n = 65006, and its bound at 65007: a count
        # past them is refused before a step is taken (this took 14.8 s)
        start = time.perf_counter()
        with pytest.raises(EvalError, match="running product"):
            self._evaluate("poch(a/3,100000)", jet)
        assert time.perf_counter() - start < 0.5
        if not jet:  # a product through zero stays exactly zero at any count
            assert self._evaluate("poch(a-4,100000)", jet) == 0
        # under a lowered limit, (1/81)_n = prod(1 + 81i)/81^n, in lowest terms,
        # passes 2^12 bits at n = 312, and the bound 81^m (m/e)^m, m = n - 1,
        # on its numerator does too: the largest count admitted is built exactly
        monkeypatch.setattr(series, "MAX_EXACT_BITS", 1 << 12)
        assert series._poch_least(311, F(1, 81)) <= 1 << 12 < series._poch_least(312, F(1, 81))
        assert series._poch_free(F(1, 81)) < 311
        with pytest.raises(EvalError, match="running product"):
            self._evaluate("poch(a/81,312)", jet)
        if not jet:
            expected = F(math.prod(1 + 81 * i for i in range(311)), 81 ** 311)
            assert self._evaluate("poch(a/81,311)", jet) == expected

    def test_jet_poch_through_zero_refused_from_its_count(self):
        # at a = 1, (a-4)_n vanishes, but its derivative -3! (n-4)! does not:
        # the count alone shows that it passes the limit
        start = time.perf_counter()
        with pytest.raises(EvalError, match="running product"):
            self._evaluate("poch(a-4,100000)", True)
        assert time.perf_counter() - start < 1
        constant = {"a": jet_lift(1, active=False)}
        zero = evaluate_expr(dsl.parse_closed_form("poch(a-4,100000)").expr, constant,
                             RationalContext())
        assert (zero.value, zero.d1, zero.d2) == (0, 0, 0)
        value = self._evaluate("poch(a-4,40)", True)
        reference = reduce(operator.mul, [Jet2(F(i - 3), F(1), F(0)) for i in range(40)])
        assert (value.value, value.d1, value.d2) == (reference.value, reference.d1, reference.d2)

    @pytest.mark.parametrize("ctx", [RationalContext(), FloatContext(64), FloatContext(3400)])
    def test_poch_stops_at_its_zero_factor(self, ctx):
        # (-m)_n takes the factor 0 at count m + 1, and a plain product stays 0
        # past it: no later step is taken (poch(-3,100000) took 0.31 s in 99,996
        # steps through zeros; 10^7 of them would take half a minute)
        poch = dsl.parse_closed_form("poch(x,n)").expr
        for m, n, expected in [(3, 3, -6), (3, 4, 0), (3, 5, 0), (0, 0, 1), (0, 1, 0),
                               (3, 10 ** 7, 0), (0, 10 ** 7, 0)]:
            start = time.perf_counter()
            value = evaluate_expr(poch, {"x": F(-m), "n": n}, ctx)
            assert time.perf_counter() - start < 0.5
            assert value == expected, (m, n)
        # an integer beyond every count is not built out to test it
        huge = HighPrecision((1, 1, 1 << 40, 1), 64)  # -2^(2^40)
        assert series._poch_count(huge, 10 ** 7) == 10 ** 7
        # a running state past the zero factor resumes from it and restarts below it
        cache = {"index": "n"}
        for n, expected in [(5, 0), (10 ** 7, 0), (2, 6), (6, 0)]:
            assert evaluate_expr(poch, {"x": F(-3), "n": n}, ctx, cache) == expected

    @pytest.mark.parametrize("u", [0, -3, -10])
    def test_jet_poch_bound_through_zero(self, u):
        # the bound is below the bits of every exact product it is asked about
        for d1, d2 in [(1, 0), (F(1, 7), 0), (F(22, 3), 5), (0, F(1, 9)), (0, 3)]:
            x, product = RationalJet(u, d1, d2), RationalJet(1, 0, 0)
            for n in range(1, 400):
                product = product * (x + (n - 1))
                assert series._poch_least(n, x) <= series._exact_bits(product)

    def test_float_regime_has_no_such_limit(self):
        value = evaluate_closed(dsl.parse_closed_form(f"poch(2^{self.OVER},2)"), {}, 64)
        assert value.raw[2] + value.raw[3] == 2 * self.OVER + 1


class TestSumTerminating:
    def test_constant_series(self):
        spec = dsl.parse_series_spec("sum k=0..n : 1")
        assert sum_terminating(spec, {"n": 5}) == 6

    def test_empty_when_upper_negative(self):
        spec = dsl.parse_series_spec("sum k=0..m-1 : 1")
        assert sum_terminating(spec, {"m": 0}) == 0

    def test_explicit_bound_override(self):
        spec = dsl.parse_series_spec(W1_TEXT)
        assert sum_terminating(replace(spec, upper=dsl.Num(2)), {}) == F(22, 15)

    def test_gosper_lhs_single_term(self):
        rec = get_identity("GOS")
        value = sum_terminating(rec.lhs, {"a": F(5), "b": F(2), "c": F(3), "n": 0})
        assert value == 1

    def test_gosper_rhs_value(self):
        rec = get_identity("GOS")
        value = evaluate_closed(rec.rhs, {"a": F(5), "b": F(2), "c": F(3), "n": 1})
        assert value == F(11, 6)

    def test_q_base_case_both_sides(self):
        rec = get_identity("QB-SP0")
        env = {"q": F(1, 2), "n": 1}
        assert sum_terminating(rec.lhs, env) == evaluate_closed(rec.rhs, env)

    def test_forward_equals_backward(self):
        rec = get_identity("GOS")
        env = {"a": F(5, 2), "b": F(1, 3), "c": F(3), "n": 6}
        forward = sum_terminating(rec.lhs, env)
        backward = sum(
            (evaluate_expr(rec.lhs.term, {**env, rec.lhs.index: k}, RationalContext())
             for k in range(6, -1, -1)), F(0))
        assert forward == backward

    @given(n=st.integers(0, 12), c=st.fractions(min_value=-5, max_value=5, max_denominator=5))
    def test_order_independence_property(self, n, c):
        spec = dsl.parse_series_spec("sum k=0..n : (k+x)^2")
        env = {"n": n, "x": c}
        forward = sum_terminating(spec, env)
        backward = sum((evaluate_expr(spec.term, {**env, spec.index: k}, RationalContext())
                        for k in range(n, -1, -1)), F(0))
        assert forward == backward


class TestSumInfinite:
    def test_geometric_control(self):
        spec = dsl.parse_series_spec("sum k=0..inf : (1/2)^k")
        prec = 120
        value, tail, terms = sum_infinite(spec, {}, prec)
        assert abs(value.to_fraction() - 2) < F(1, 2 ** (prec + 4))
        assert tail.bound.to_fraction() < F(1, 2 ** (prec + 4))
        assert 0 < tail.ratio.to_fraction() < 1

    def test_half_pi_to_40_digits(self):
        spec = dsl.parse_series_spec(W1_TEXT)
        prec = math.ceil(50 * math.log2(10)) + 32
        value, _, _ = sum_infinite(spec, {}, prec)
        target = pi_constant(prec) / 2
        assert abs(value.to_fraction() - target.to_fraction()) < F(1, 10 ** 40)

    def test_partial_sums_monotone(self):
        # all summands positive: partial sums increase toward 4/pi
        spec = dsl.parse_series_spec(R1_TEXT)
        prec = 400  # high enough that no 60-term prefix rounds to a fixed point
        ctx = FloatContext(prec)
        cache = {}
        partial = HighPrecision.from_fraction(F(0), prec)
        previous = partial
        for k in range(60):
            partial = partial + evaluate_expr(spec.term, {spec.index: k}, ctx, cache)
            assert partial > previous
            previous = partial
        target = 4 / pi_constant(prec)
        assert partial < target

    def test_non_geometric_rejected(self):
        spec = dsl.parse_series_spec("sum k=0..inf : 1/(k+1)^2")
        with pytest.raises(NonGeometricTailError):
            sum_infinite(spec, {}, 80, terms_budget=5000)

    def test_divergent_rejected(self):
        spec = dsl.parse_series_spec("sum k=0..inf : 2^k")
        with pytest.raises(NonGeometricTailError):
            sum_infinite(spec, {}, 64, terms_budget=2000)

    def test_active_q_in_an_infinite_q_sum_is_refused(self):
        # an EvalError (exit 3), not the TypeError of q_sum_infinite given a jet
        spec = dsl.parse_series_spec("sum k=0..inf : q^k*qsuminf(2,2,0,+)")
        with pytest.raises(EvalError, match="active q"):
            sum_infinite(spec, {"q": jet_lift(F(1, 2))}, 64)
        with pytest.raises(EvalError, match="active q"):
            evaluate_closed(dsl.parse_closed_form("qsuminf(2,2,0,+)"), {"q": jet_lift(F(1, 2))}, 64)

    def test_zero_tail_detected(self):
        # x = q^-2 zeroes the factor 1 - x q^2, so every term with k >= 3 vanishes
        spec = dsl.parse_series_spec("sum k=0..inf : qpoch(x,1,k)*q^k")
        value, tail, terms = sum_infinite(spec, {"q": F(1, 2), "x": F(4)}, 80)
        expect = F(1) + (1 - 4) * F(1, 2) + (1 - 4) * (1 - 2) * F(1, 4)
        assert value.to_fraction() == expect
        assert tail.bound.to_fraction() == 0

    @given(num=st.integers(1, 62), den=st.just(64),
           scale=st.integers(1, 9))
    def test_tail_soundness_geometric(self, num, den, scale):
        # compare unrounded guard-precision runs so output rounding (one ulp
        # at the requested precision, larger than the bound itself) cannot
        # mask the comparison
        from hyperq.series import _sum_infinite_once
        spec = dsl.parse_series_spec("sum k=0..inf : s*r^k")
        env = {"r": F(num, den), "s": F(scale)}
        prec = 64
        value1, tail1, terms1 = _sum_infinite_once(spec, env, prec, prec + 64, 10 ** 6)
        # the same additions in the same order, twice as many terms
        value2 = sum_terminating(replace(spec, upper=dsl.Num(2 * terms1 - 1)), env,
                                 FloatContext(prec + 64))
        assert abs(value2.to_fraction() - value1.to_fraction()) < tail1.bound.to_fraction()

    @pytest.mark.parametrize("rid", ["W1", "R1", "T3a"])
    def test_tail_soundness_corpus(self, rid):
        from hyperq.series import _sum_infinite_once
        rec = get_identity(rid)
        env = {"q": F(1, 2)} if rid == "T3a" else {}
        prec = 100
        value1, tail1, terms1 = _sum_infinite_once(rec.lhs, env, prec, prec + 64, 10 ** 6)
        value2 = sum_terminating(replace(rec.lhs, upper=dsl.Num(2 * terms1 - 1)), env,
                                 FloatContext(prec + 64))
        assert abs(value2.to_fraction() - value1.to_fraction()) <= tail1.bound.to_fraction()


class TestIncrementalWeights:
    def test_matches_fresh_recomputation(self):
        rec = get_identity("T4")
        truncated = replace(rec.lhs, upper=dsl.Num(50))
        env = {"q": F(1, 2)}
        incremental = sum_terminating(truncated, env)
        scratch = F(0)
        for k in range(51):
            scratch += evaluate_expr(truncated.term, {**env, truncated.index: k},
                                     RationalContext(), None)
        assert incremental == scratch

    def test_weighted_bracket_matches(self):
        rec = get_identity("QFF")
        env = {"q": F(2, 3), "n": 9}
        shared = sum_terminating(rec.lhs, env)
        fresh = sum((evaluate_expr(rec.lhs.term, {**env, rec.lhs.index: k}, RationalContext())
                     for k in range(10)), F(0))
        assert shared == fresh


class TestRunningStartValues:
    """A running atom starts from its context's plain 1 or 0, also beside a jet."""

    @pytest.mark.parametrize("ctx,kind", [(RationalContext(), Rational),
                                          (FloatContext(64), HighPrecision)])
    def test_count_zero_is_the_plain_value_of_the_regime(self, ctx, kind):
        # the empty product and sum are not computed from the active parameter
        expr = dsl.parse_closed_form("poch(x,0)*harmx(1,0,x) + poch(x,0)").expr
        value = evaluate_expr(expr, {"x": jet_lift(F(1, 3))}, ctx)
        assert type(value) is kind and value == 1

    def test_float_jet_through_a_running_sum(self):
        # term 0 is harmx(1,0,x) = 0, a plain float; the later terms are jets
        spec = dsl.parse_series_spec("sum k=0..inf : harmx(1,k,x)/2^k")
        got, _, _ = sum_infinite(spec, {"x": jet_lift(F(1, 3))}, 200)
        for component, text in ((got.d1, "-harmx(2,k,x)/2^k"), (got.d2, "2*harmx(3,k,x)/2^k")):
            derivative = dsl.parse_series_spec(f"sum k=0..inf : {text}")
            assert series._analysed(derivative, {"x": F(1, 3)}) is not None  # the split path
            want, _, _ = sum_infinite(derivative, {"x": F(1, 3)}, 200)
            assert abs(component.to_fraction() - want.to_fraction()) <= F(1, 2 ** 190)


class TestTrueZeroTails:
    """QCD and SB end on the 64-zero-run rule of the stopping index where
    ``verify all --seed 0`` draws x = q (SB) or a = q (QCD): the factor
    qpoch(q/x,1,k) or qpoch(q/a,1,k) is then (1;q)_k, zero for every k >= 1,
    so the zero tail the rule claims is true.  Deleting the rule must first
    prove these q-product zeros."""

    @pytest.mark.parametrize("q", [F(1, 2), F(7, 10)])
    def test_sb_at_x_equal_to_q(self, q):
        value, tail, terms = sum_infinite(get_identity("SB").lhs, {"q": q, "x": q}, 140)
        assert (value.to_fraction(), tail.bound.to_fraction(), terms) == (0, 0, 64)

    def test_qcd_at_a_equal_to_q(self):
        rec = get_identity("QCD")
        env = {"q": F(1, 2), "a": F(1, 2), "b": F(1, 3), "c": F(1, 16)}
        value, tail, terms = sum_infinite(rec.lhs, env, 140)
        assert (value.to_fraction(), tail.bound.to_fraction(), terms) == (F(1365, 2048), 0, 65)
        assert evaluate_closed(rec.rhs, env, 140).to_fraction() == F(1365, 2048)  # 0.66650390625


class TestPrecisionStability:
    """Re-running a pipeline with 32 guard bits agrees to p-8 bits."""

    @given(p=st.integers(64, 200))
    def test_infinite_sum(self, p):
        spec = dsl.parse_series_spec(W1_TEXT)
        lo, _, _ = sum_infinite(spec, {}, p)
        hi, _, _ = sum_infinite(spec, {}, p + 32)
        assert agree_to(lo, hi.round_to(p), p - 8)

    @given(p=st.integers(64, 160))
    def test_closed_form(self, p):
        cf = dsl.parse_closed_form("qpochinf(q,1)^2/(sqrt(3)*pi)")
        lo = evaluate_closed(cf, {"q": F(1, 3)}, p)
        hi = evaluate_closed(cf, {"q": F(1, 3)}, p + 32)
        assert agree_to(lo, hi.round_to(p), p - 8)


def poch(x, n):
    """Naive rising factorial x (x+1) ... (x+n-1)."""
    return math.prod((x + i for i in range(n)), start=F(1))


def qpoch(x, q, n):
    """Naive q-shifted factorial (1-x)(1-xq) ... (1-xq^(n-1))."""
    return math.prod((1 - x * q ** i for i in range(n)), start=F(1))


def hyper_prefix(upper, lower, z, n):
    """Naive rFs partial sum over k = 0..n."""
    return sum((math.prod((poch(a, k) for a in upper), start=F(1)) * z ** k
                / (math.prod((poch(b, k) for b in lower), start=F(1)) * math.factorial(k))
                for k in range(n + 1)), F(0))


def basic_prefix(upper, lower, q, z, n):
    """Naive r-phi-s partial sum over k = 0..n for r = s + 1."""
    return sum((math.prod((qpoch(a, q, k) for a in upper), start=F(1)) * z ** k
                / math.prod((qpoch(b, q, k) for b in lower + [q]), start=F(1))
                for k in range(n + 1)), F(0))


def hyper_text(r, s, upper="n"):
    """rFs over k = 0..upper with parameters a0.., b0.. and argument z."""
    num = "*".join([f"poch(a{i},k)" for i in range(r)] + ["z^k"])
    den = "*".join([f"poch(b{i},k)" for i in range(s)] + ["fact(k)"])
    return f"sum k=0..{upper} : {num}/({den})"


def basic_text(r, upper="n"):
    """r-phi-(r-1) over k = 0..upper with parameters a0.., b0.., base q, argument z."""
    num = "*".join([f"qpoch(a{i},1,k)" for i in range(r)] + ["z^k"])
    den = "*".join([f"qpoch(b{i},1,k)" for i in range(r - 1)] + ["qpoch(q,1,k)"])
    return f"sum k=0..{upper} : {num}/({den})"


def bind(upper, lower, **rest):
    env = {f"a{i}": v for i, v in enumerate(upper)}
    env.update({f"b{i}": v for i, v in enumerate(lower)})
    env.update(rest)
    return env


class TestHypergeometricEval:
    def test_2f1_two_term(self):
        b, c, z = F(3, 2), F(5, 3), F(2, 7)
        spec = dsl.parse_series_spec(hyper_text(2, 1))
        assert sum_terminating(spec, bind([F(-1), b], [c], z=z, n=1)) == 1 - b * z / c

    def test_dougall_5f4_exact(self):
        a, b, c, n = F(3), F(1, 2), F(1, 2), 2
        upper = [a, 1 + a / 2, b, c, F(-n)]
        lower = [a / 2, 1 + a - b, 1 + a - c, 1 + a + n]
        lhs = sum_terminating(dsl.parse_series_spec(hyper_text(5, 4)), bind(upper, lower, z=1, n=n))
        rhs = (poch(1 + a, n) * poch(1 + a - b - c, n)
               / (poch(1 + a - b, n) * poch(1 + a - c, n)))
        assert lhs == rhs

    def test_0f0_is_exp(self):
        value, _, _ = sum_infinite(dsl.parse_series_spec(hyper_text(0, 0, "inf")), {"z": 1}, 120)
        # independent oracle: partial factorial series summed exactly
        e = F(0)
        term = F(1)
        for k in range(1, 60):
            e += term
            term /= k
        assert abs(value.to_fraction() - e) < F(1, 10 ** 30)

    def test_exact_mode_requires_terminating_parameter(self):
        # exact summation needs a finite upper bound ...
        spec = dsl.parse_series_spec(hyper_text(1, 1, "inf"))
        with pytest.raises(EvalError):
            sum_terminating(spec, bind([F(1, 2)], [F(3, 2)], z=F(1, 4)))
        # ... and poch(-n,k) makes every term past k = n vanish
        longer = dsl.parse_series_spec(hyper_text(2, 1, "n+3"))
        env = bind([F(-2), F(2, 3)], [F(5, 2)], z=F(3, 7), n=2)
        assert sum_terminating(longer, env) == hyper_prefix([F(-2), F(2, 3)], [F(5, 2)], F(3, 7), 2)

    def test_definition_consistency_exact(self):
        spec = dsl.parse_series_spec(
            "sum k=0..n : poch(a,k)*poch(b,k)/(poch(c,k)*fact(k))*z^k")
        env = {"a": F(-4), "b": F(2, 3), "c": F(5, 2), "z": F(3, 7), "n": 4}
        direct = sum_terminating(spec, env)
        assert direct == hyper_prefix([F(-4), F(2, 3)], [F(5, 2)], F(3, 7), 4)

    def test_definition_consistency_numeric(self):
        p = 100
        spec = dsl.parse_series_spec(
            "sum k=0..inf : poch(a,k)*poch(b,k)/(poch(c,k)*fact(k))*z^k")
        env = {"a": F(1, 3), "b": F(1, 5), "c": F(7, 4), "z": F(1, 2)}
        direct, _, _ = sum_infinite(spec, env, p)
        # every term ratio is below 1/2, so the terms past k = 160 sum to < 2^-160
        naive = hyper_prefix([F(1, 3), F(1, 5)], [F(7, 4)], F(1, 2), 160)
        assert abs(direct.to_fraction() - naive) <= F(1, 2 ** (p - 8))


class TestBasicHypergeometricEval:
    def test_q_gauss_numeric(self):
        prec = 140
        q = F(1, 2)
        a, b, c = q, q, q ** 3
        spec = dsl.parse_series_spec(basic_text(2, "inf"))
        lhs, _, _ = sum_infinite(spec, bind([a, b], [c], q=q, z=c / (a * b)), prec)
        cf = dsl.parse_closed_form(
            "qpochinf(c/a,1)*qpochinf(c/b,1)/(qpochinf(c,1)*qpochinf(c/(a*b),1))")
        rhs = evaluate_closed(cf, {"q": q, "a": a, "b": b, "c": c}, prec)
        assert agree_to(lhs, rhs, 100)

    def test_q_dougall_exact(self):
        q, n = F(1, 2), 2
        a, b, c = q ** 2, q, q
        root = q  # a = root^2 keeps every parameter rational
        upper = [a, q * root, -q * root, b, c, q ** -n]
        lower = [root, -root, a * q / b, a * q / c, a * q ** (n + 1)]
        z = a * q ** (n + 1) / (b * c)
        lhs = sum_terminating(dsl.parse_series_spec(basic_text(6)), bind(upper, lower, q=q, z=z, n=n))
        rhs = (qpoch(a * q, q, n) * qpoch(a * q / (b * c), q, n)
               / (qpoch(a * q / b, q, n) * qpoch(a * q / c, q, n)))
        assert lhs == rhs

    def test_unit_upper_parameter_truncates(self):
        spec = dsl.parse_series_spec(basic_text(2, "inf"))
        value, _, _ = sum_infinite(spec, bind([F(1), F(1, 2)], [F(1, 3)], q=F(1, 2), z=F(1, 5)), 80)
        assert value.to_fraction() == 1

    def test_definition_consistency(self):
        q = F(1, 2)
        spec = dsl.parse_series_spec(
            "sum k=0..n : qpoch(a,1,k)*qpoch(b,1,k)/(qpoch(q,1,k)*qpoch(c,1,k))*z^k")
        env = {"q": q, "a": q ** -3, "b": F(3), "c": F(5, 7), "z": F(2, 3), "n": 3}
        direct = sum_terminating(spec, env)
        assert direct == basic_prefix([q ** -3, F(3)], [F(5, 7)], q, F(2, 3), 3)
