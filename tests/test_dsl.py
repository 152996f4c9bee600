"""Parser, renderer, and grammar robustness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperq import dsl
from hyperq.corpus import list_identities
from hyperq.dsl import (
    Add,
    ClosedForm,
    Div,
    Harm,
    Mul,
    Neg,
    Num,
    Param,
    ParseError,
    Poch,
    Pow,
    QPoch,
    QSum,
    SeriesSpec,
    SourceText,
    Sub,
    parse_closed_form,
    parse_series_spec,
    parse_side,
    render,
)


class TestParsing:
    def test_ramanujan_series(self):
        spec = parse_series_spec(
            "sum k=0..inf : (6*k+1) * poch(1/2,k)^3 / (fact(k)^3 * 4^k)")
        assert isinstance(spec, SeriesSpec)
        assert spec.index == "k"
        assert spec.upper is None
        assert not spec.terminating

    def test_constant_term_series(self):
        spec = parse_series_spec("sum k=0..n : 1")
        assert spec.terminating
        assert spec.term == Num(1)
        assert spec.upper == Param("n")

    def test_q_series_with_triangular_exponent(self):
        spec = parse_series_spec(
            "sum k=0..inf : qpoch(q,1,k)/qpoch(q^3,2,k) * q^(k*(k+1)/2)")
        assert spec.upper is None
        assert isinstance(spec.term, Mul)

    def test_closed_form(self):
        cf = parse_closed_form("4/pi")
        assert isinstance(cf, ClosedForm)
        assert isinstance(cf.expr, Div)

    def test_unit_closed_form(self):
        assert parse_closed_form("1").expr == Num(1)

    def test_parse_side_dispatch(self):
        assert isinstance(parse_side("sum k=0..n : 1"), SeriesSpec)
        assert isinstance(parse_side("pi/2"), ClosedForm)

    def test_power_binds_primary(self):
        # fact(k)^3*4^k is (fact(k)^3)*(4^k), not fact(k)^(3*4^k)
        spec = parse_series_spec("sum k=0..n : fact(k)^3*4^k")
        assert isinstance(spec.term, Mul)
        assert isinstance(spec.term.left, Pow)
        assert isinstance(spec.term.right, Pow)

    def test_signed_shift_in_qsum(self):
        cf = parse_closed_form("qsum(2,2,-1,+,k+1)")
        assert cf.expr == QSum(2, 2, -1, 1, Add(Param("k"), Num(1)))

    def test_comments_and_whitespace(self):
        a = parse_series_spec("sum k=0..n : 1 + k  # trailing comment")
        b = parse_series_spec("sum  k = 0 .. n :\n 1+k")
        assert a == b


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_series_spec("sum k=0..n : poch(1/2,")
        assert err.value.line == 1
        assert err.value.column == 23

    def test_unknown_atom(self):
        with pytest.raises(ParseError) as err:
            parse_closed_form("gamma(3)")
        assert "known atom" in str(err.value)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_closed_form("poch(1/2)")
        with pytest.raises(ParseError):
            parse_closed_form("harm(2)")

    def test_nonzero_lower_bound_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_series_spec("sum k=1..n : 1")
        assert "lower bound 0" in str(err.value)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_closed_form("1 + 2 )")

    def test_origin_in_message(self):
        with pytest.raises(ParseError) as err:
            parse_closed_form(SourceText("1 +", origin="corpus.txt", line_offset=41))
        assert "corpus.txt:42" in str(err.value)

    def test_keyword_index_rejected(self):
        with pytest.raises(ParseError):
            parse_series_spec("sum inf=0..n : 1")

    @pytest.mark.parametrize("text,column,expected", [
        ("harm(0,k)", 6, "an order >= 1"),
        ("harmx(0,k,1/2)", 7, "an order >= 1"),
        ("qsum(0,1,0,+,k)", 6, "an order >= 1"),
        ("qsuminf(0,1,0,+)", 9, "an order >= 1"),
        ("qsuminf(1,0,1,+)", 11, "a stride >= 1"),
        ("qsum(2,1,-1,+,k)", 10, "a shift >= 0"),
        ("qsuminf(1,1,-5,+)", 13, "a shift >= 0"),
        ("qsuminf(2,3,-3,-)", 13, "a shift >= -2"),
        ("qpoch(a,0,k)", 9, "a step >= 1"),
        ("qpochinf(q,0)", 12, "a step >= 1"),
    ])
    def test_atom_indices_checked(self, text, column, expected):
        with pytest.raises(ParseError) as err:
            parse_closed_form(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.expected == expected

    def test_smallest_valid_atom_indices(self):
        assert parse_closed_form("qsum(1,0,1,+,k)").expr == QSum(1, 0, 1, 1, Param("k"))
        assert parse_closed_form("qsuminf(1,3,-2,-)").expr == dsl.QSumInf(1, 3, -2, -1)
        assert parse_closed_form("harm(1,k)").expr == Harm(1, Param("k"))


class TestRoundTrip:
    @pytest.mark.parametrize("rec", list_identities(), ids=lambda r: r.id)
    def test_corpus_round_trips(self, rec):
        for side in (rec.lhs, rec.rhs):
            text = render(side)
            again = parse_side(text)
            assert again == side
            assert render(again) == text

    def test_canonical_whitespace(self):
        assert render(parse_series_spec("sum k=0..n :   1")) == "sum k=0..n : 1"

    def test_fixed_point_examples(self):
        for text in (
            "sum k=0..inf : (6*k+1)*poch(1/2,k)^3/(fact(k)^3*4^k)",
            "qsum(2,2,-1,+,k+1) - qsum(2,1,0,-,k)",
            "qpochinf(q^2,2)^2/(qpochinf(q,2)*qpochinf(q^3,2))",
        ):
            node = parse_side(text)
            assert parse_side(render(node)) == node


def _exprs():
    atoms = st.one_of(
        st.integers(min_value=0, max_value=30).map(Num),
        st.sampled_from(list("abcnqx")).map(Param),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(*t)),
            children.map(Neg),
            st.tuples(children, st.integers(0, 5).map(Num)).map(lambda t: Pow(*t)),
            st.tuples(children, children).map(lambda t: Poch(*t)),
            st.tuples(children, st.integers(1, 4), children).map(lambda t: QPoch(*t)),
            st.tuples(st.integers(1, 3), children).map(lambda t: Harm(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=20)


class TestRendererProperty:
    @given(expr=_exprs())
    def test_random_ast_round_trips(self, expr):
        text = render(expr)
        assert parse_side(text) == ClosedForm(expr)

    @given(expr=_exprs())
    def test_parse_is_deterministic(self, expr):
        text = render(expr)
        assert parse_side(text) == parse_side(text)


def _token_texts(text):
    toks = dsl._tokenize(SourceText(text))
    return [t.text for t in toks if t.kind != "EOF"]


class TestDeletionRobustness:
    """Deleting any single token never reproduces the original parse.

    Most deletions break the grammar with an error at or after the deletion
    point; the rest (e.g. dropping a unary minus) change the parse tree.
    """

    @pytest.mark.parametrize("rec", list_identities()[::6], ids=lambda r: r.id)
    def test_lhs_deletions(self, rec):
        original = rec.lhs
        text = render(original)
        tokens = _token_texts(text)
        for i in range(len(tokens)):
            mutated_tokens = tokens[:i] + tokens[i + 1:]
            mutated = " ".join(mutated_tokens)
            deletion_point = len(" ".join(tokens[:i]))
            try:
                result = parse_side(mutated)
            except ParseError as err:
                offset = err.column - 1
                assert offset >= deletion_point
            else:
                assert result != original
