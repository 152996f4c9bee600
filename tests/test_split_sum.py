"""Binary-split summation of the non-q infinite sums, against the compiled
term program as the oracle: the same terms, the same tail start, the same
value to prec-8 bits; plus the term analysis and its exactness laws."""

import math
import time
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hyperq import dsl, series
from hyperq.corpus import list_identities
from hyperq.scalars import agree_to, jet_lift
from hyperq.series import (
    GUARD_BITS,
    NonGeometricTailError,
    PoleInTermError,
    RationalContext,
    _analysed,
    _peval,
    _split_sum,
    _sum_infinite_once,
    _validated,
    evaluate_expr,
    sum_infinite,
    sum_terminating,
)
from hyperq.verify import VerifyOptions, _enumerated_combos

SPLIT_RECORDS = ["R1", "R2", "R3", "W1", "G1", "EU", "SA", "SA-UNC", "S1", "S1R", "S2",
                 "S2R", "H1", "T1", "T2", "CC", "DD", "SAD"]
DEEP_RECORDS = ["R1", "H1", "T2", "SAD", "SA-UNC"]
RECORDS = {rec.id: rec for rec in list_identities(include_variants=True)}


def _combos(rid):
    return [dict(combo) for combo in _enumerated_combos(RECORDS[rid], VerifyOptions())]


def _compiled(spec, bindings, prec):
    """The compiled path: the term program run twice and validated."""
    low, _, _ = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS, 10 ** 6)
    high, tail, terms = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS + 32, 10 ** 6)
    return _validated(low, high, prec, "double evaluation"), tail, terms


def _cases():
    for rid in SPLIT_RECORDS:
        for digits in (30, 300) + ((1000,) if rid in DEEP_RECORDS else ()):
            yield rid, digits


class TestAgainstCompiledPath:
    @pytest.mark.parametrize("rid,digits", list(_cases()))
    def test_same_terms_tail_and_value(self, rid, digits):
        prec = VerifyOptions(digits=digits).work_prec
        for bindings in _combos(rid):
            split = _split_sum(RECORDS[rid].lhs, bindings, prec, 10 ** 6)
            assert split is not None, f"{rid} left the split path"
            value, tail, terms = split
            oracle, oracle_tail, oracle_terms = _compiled(RECORDS[rid].lhs, bindings, prec)
            assert terms == oracle_terms
            assert tail.start_index == oracle_tail.start_index
            assert agree_to(value, oracle, prec - 8)

    def test_every_q_and_jet_record_is_left_to_the_compiled_path(self):
        seen = 0
        for rec in RECORDS.values():
            is_q = "q" in dsl.parameters_of(rec.lhs)
            if not is_q and rec.kind != "jet-derived":
                continue
            bindings = {name: F(1, 3) for name in dsl.parameters_of(rec.lhs) | {"n"}}
            bindings["n"] = 3
            if rec.kind == "jet-derived":
                bindings[rec.active] = jet_lift(F(1, 3))
            assert _analysed(rec.lhs, bindings) is None, rec.id
            seen += 1
        assert seen >= 19

    def test_a_jet_the_term_never_reads_keeps_the_split_path(self, monkeypatch):
        # R1's lhs never mentions x: binding x to a jet changes neither path nor bits
        spec, prec = RECORDS["R1"].lhs, VerifyOptions().work_prec
        plain, tail, terms = sum_infinite(spec, {}, prec)

        def compiled(*args):
            raise AssertionError("the compiled path ran")

        monkeypatch.setattr(series, "_sum_infinite_once", compiled)
        value, jet_tail, jet_terms = sum_infinite(spec, {"x": jet_lift(F(1, 3))}, prec)
        assert (value.raw, jet_tail.bound.raw, jet_terms) == (plain.raw, tail.bound.raw, terms)


class TestRejectedFromTheRatio:
    def test_divergent_ratio_limit_above_one(self):
        spec = dsl.parse_series_spec("sum k=0..inf : poch(1,k)*2^k/poch(1000,k)")
        with pytest.raises(NonGeometricTailError, match="tends to 2"):
            sum_infinite(spec, {}, 100)

    def test_ratio_degree_above_one(self):
        spec = dsl.parse_series_spec("sum k=0..inf : fact(k)/3^k")
        with pytest.raises(NonGeometricTailError, match="without bound"):
            sum_infinite(spec, {}, 100)

    def test_limit_one_rejected_at_once(self):
        spec = dsl.parse_series_spec("sum k=0..inf : 1/(k+1)^2")
        start = time.perf_counter()
        with pytest.raises(NonGeometricTailError, match="tends to 1"):
            sum_infinite(spec, {}, VerifyOptions().work_prec)
        assert time.perf_counter() - start < 0.1

    def test_alternating_limit_one_rejected(self):
        spec = dsl.parse_series_spec("sum k=0..inf : (-1)^k/(k+1)")
        with pytest.raises(NonGeometricTailError, match="tends to -1"):
            sum_infinite(spec, {}, 100)


class TestAnalysis:
    @pytest.mark.parametrize("text", [
        "sum k=0..inf : q^k*qpoch(x,1,k)",            # a q-atom
        "sum k=0..inf : harm(1,k)^2/2^k",             # a product of two weights
        "sum k=0..inf : 1/(harm(1,k+1)*2^k)",         # a weight in a denominator
        "sum k=0..inf : poch(-3,k)/fact(k)",          # a root of P at k = 3
        "sum k=0..inf : 1/(poch(-2,k)*3^k)",          # a root of Q: a pole at k = 3
        "sum k=0..inf : 1/2^k + 1/3^k",               # two hypergeometric parts
        "sum k=0..inf : 1/2^k + poch(-2,k)/(poch(-2,k)*2^k)",  # 0/0 at k = 3 on the right
        "sum k=0..inf : pi/2^k",                      # a constant that is not rational
        "sum k=0..inf : poch(1/2,k)/(x*fact(k)*2^k)", # a pole in an index-free part
        "sum k=0..inf : poch(1/2,k*k)/fact(k)",       # a count not linear in k
        "sum k=0..inf : harmx(1,k,-5/2)/2^k",         # a weight's parts of both signs
    ])
    def test_outside_the_form(self, text):
        assert _analysed(dsl.parse_series_spec(text), {"x": F(0), "q": F(1, 2)}) is None

    def test_pole_in_a_rational_factor_is_the_compiled_paths(self):
        spec = dsl.parse_series_spec("sum k=0..inf : 1/((k-40)*2^k)")
        assert _analysed(spec, {}) is not None
        assert _split_sum(spec, {}, 100, 10 ** 6) is None
        with pytest.raises(PoleInTermError):
            sum_infinite(spec, {}, 100)

    @pytest.mark.parametrize("digits", [30, 300])
    def test_weight_of_tiny_increments_stays_split(self, digits):
        # increments 1/(10^30 + i)^3, about 2^-299: a fixed-point scale blind
        # to their size would drop the weight, and the term with it
        spec = dsl.parse_series_spec("sum k=0..inf : 10^90*harmx(3,k,10^30)/2^k")
        prec = VerifyOptions(digits=digits).work_prec
        value, tail, terms = _split_sum(spec, {}, prec, 10 ** 6)
        oracle, oracle_tail, oracle_terms = _compiled(spec, {}, prec)
        assert (terms, tail.start_index) == (oracle_terms, oracle_tail.start_index)
        assert terms > prec
        assert agree_to(value, oracle, prec - 8)

    def test_vanishing_first_term_stays_split(self):
        spec = RECORDS["H1"].lhs  # harm(2,0) = 0
        assert evaluate_expr(spec.term, {"k": 0}, RationalContext()) == 0
        assert _split_sum(spec, {}, 200, 10 ** 6) is not None


# ------------------------------------------------------------------- laws

RATIONALS = st.builds(F, st.integers(1, 7), st.integers(1, 4))
# a poch argument may be negative, but not an integer <= 0: no factor vanishes
POCH_ARGS = st.one_of(RATIONALS, st.builds(F, st.integers(-7, -1), st.integers(2, 4)).filter(
    lambda r: r.denominator > 1))
COUNTS = st.tuples(st.integers(1, 3), st.integers(0, 2))  # s*k + t


def _count(count):
    s, t = count
    return f"{s}*k+{t}"


HYPER_FACTORS = st.one_of(
    st.builds(lambda a, c: f"poch({a},{_count(c)})", POCH_ARGS, COUNTS),
    st.builds(lambda c: f"fact({_count(c)})", COUNTS),
    st.builds(lambda c: f"dfactodd({_count(c)})", COUNTS),
    st.builds(lambda r, c: f"({r})^({_count(c)})", RATIONALS, COUNTS),
)
WEIGHTS = st.one_of(
    st.builds(lambda l, c: f"harm({l},{_count(c)})", st.integers(1, 2), COUNTS),
    st.builds(lambda l, c, x: f"harmx({l},{_count(c)},{x})", st.integers(1, 2), COUNTS,
              RATIONALS),
)


@st.composite
def hypergeometric(draw):
    """A product of hypergeometric factors, each in the numerator or the
    denominator, with an optional leading minus."""
    factors = draw(st.lists(st.tuples(HYPER_FACTORS, st.booleans()), min_size=1, max_size=3))
    num = "*".join([f for f, up in factors if up] or ["1"])
    den = "*".join([f for f, up in factors if not up] or ["1"])
    return f"{draw(st.sampled_from(['', '-']))}({num})/({den})"


@st.composite
def terms(draw):
    """A hypergeometric part times linear factors times an optional weighted bracket."""
    term = draw(hypergeometric())
    for u, v, up in draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 5),
                                            st.booleans()), max_size=2)):
        term += f"{'*' if up else '/'}({u}*k+{v})"
    weight = draw(st.none() | WEIGHTS)
    if weight is not None:
        term += f"*({draw(RATIONALS)} + {weight}/({draw(st.integers(1, 3))}*k+1))"
    return f"sum k=0..inf : {term}"


class TestExactnessLaws:
    @given(text=hypergeometric())
    def test_ratio_is_the_term_ratio(self, text):
        spec = dsl.parse_series_spec(f"sum k=0..inf : {text}")
        analysed = _analysed(spec, {})
        assert analysed is not None
        ctx = RationalContext()
        values = [evaluate_expr(spec.term, {"k": k}, ctx) for k in range(7)]
        for k in range(6):
            assert F(_peval(analysed.P, k), _peval(analysed.Q, k)) == F(values[k + 1]) / values[k]

    @given(text=terms(), n=st.integers(0, 12))
    def test_split_partial_sum_is_exact(self, text, n):
        spec = dsl.parse_series_spec(text)
        analysed = _analysed(spec, {})
        assert analysed is not None
        total, last, den = analysed.partial_sum(n)
        assert F(total, den) == sum_terminating(replace(spec, upper=dsl.Num(n)), {})
        assert F(last, den) == evaluate_expr(spec.term, {"k": n}, RationalContext())



OFFSETS = st.one_of(RATIONALS, st.integers(0, 30).map(lambda j: f"10^{j}"))
LAW_WEIGHTS = st.one_of(
    st.builds(lambda l, c: f"harm({l},{_count(c)})", st.integers(1, 3), COUNTS),
    st.builds(lambda l, c, x: f"harmx({l},{_count(c)},{x})", st.integers(1, 3), COUNTS, OFFSETS),
)
LAW_BUDGET = 3000


@st.composite
def weighted_terms(draw):
    """A hypergeometric part times an optional weight, alone or beside a rational."""
    term = draw(hypergeometric())
    weight = draw(st.none() | LAW_WEIGHTS)
    if weight is not None:
        term += draw(st.sampled_from([f"*{weight}", f"*({draw(RATIONALS)} + {weight}/(k+1))"]))
    return f"sum k=0..inf : {term}"


class TestSplitWalkLaw:
    @given(text=weighted_terms(), digits=st.sampled_from([30, 300]))
    def test_split_stops_where_the_compiled_path_stops(self, text, digits):
        spec = dsl.parse_series_spec(text)
        prec = VerifyOptions(digits=digits).work_prec
        once = (spec, {}, prec, prec + GUARD_BITS + 32, LAW_BUDGET)
        try:
            split = _split_sum(spec, {}, prec, LAW_BUDGET)
        except NonGeometricTailError as exc:
            assume("term ratio" not in str(exc))  # a ratio limit the compiled path may not see
            with pytest.raises(NonGeometricTailError):
                _sum_infinite_once(*once)
            return
        if split is not None:
            _, tail, terms = _sum_infinite_once(*once)
            assert (split[2], split[1].start_index) == (terms, tail.start_index)


def _harm(order, k):
    return sum((F(1, j ** order) for j in range(1, k + 1)), F(0))


def _ln2(prec):
    with mpmath.workprec(prec):
        man, exp = mpmath.log(2).man_exp
    return F(man) * F(2) ** exp


class TestRefusedToTheCompiledPath:
    """A term the split path analyses or walks into and then leaves to the
    compiled path, which sums it within its tail bound and 2^-prec of the
    exact value: the closed form where there is one, else the exact sum of
    the terms it used."""

    PREC = 140

    @pytest.mark.parametrize("text, exact, term", [
        ("(k-40)/2^k", F(-78), None),                      # a zero term past the warm-up
        ("(harm(1,k)-1)/2^k", 2 * _ln2(300) - 2, None),    # cancellation within 2^-32
        ("(k-k)/2^k", F(0), None),                         # the zero term
        ("harm(1,k)*harm(2,k)/4^k", None,                  # a product of two weights
         lambda k: _harm(1, k) * _harm(2, k) / 4 ** k),
        ("1/fact(17*k)", None, lambda k: F(1, math.factorial(17 * k))),  # a count slope over 16
        ("0^k", F(1), None),                               # a zero base
    ])
    def test_split_refuses_and_the_compiled_path_sums(self, text, exact, term):
        spec = dsl.parse_series_spec(f"sum k=0..inf : {text}")
        assert _split_sum(spec, {}, self.PREC, 10 ** 6) is None
        value, tail, terms = sum_infinite(spec, {}, self.PREC)
        if exact is None:
            exact = sum((term(k) for k in range(terms)), F(0))
        # 2^-290 covers the error of the 300-bit ln 2
        slack = tail.bound.to_fraction() + F(1, 2 ** self.PREC) + F(1, 2 ** 290)
        assert abs(value.to_fraction() - exact) <= slack
