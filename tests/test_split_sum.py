"""Binary-split summation of the non-q infinite sums, against the compiled
term program as the oracle: the same terms, the same tail start, the same
value to prec-8 bits; plus the term analysis and its exactness laws."""

import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hyperq import dsl
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
    low, _, _ = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS, None, 10 ** 6)
    high, tail, terms = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS + 32, None,
                                           10 ** 6)
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
COUNTS = st.tuples(st.integers(1, 2), st.integers(0, 2))  # s*k + t


def _count(count):
    s, t = count
    return f"{s}*k+{t}"


HYPER_FACTORS = st.one_of(
    st.builds(lambda a, c: f"poch({a},{_count(c)})", RATIONALS, COUNTS),
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
    """A product of hypergeometric factors, each in the numerator or the denominator."""
    factors = draw(st.lists(st.tuples(HYPER_FACTORS, st.booleans()), min_size=1, max_size=3))
    num = "*".join([f for f, up in factors if up] or ["1"])
    den = "*".join([f for f, up in factors if not up] or ["1"])
    return f"({num})/({den})"


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
        once = (spec, {}, prec, prec + GUARD_BITS + 32, None, LAW_BUDGET)
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
