"""Sparse jets against a dense-jet oracle.

Production jet evaluation keeps every constant a plain value of the base
regime; only the active parameter and what is computed from it are jets.
``DenseJetContext`` lifts every constant to the jet (c, 0, 0) instead, so each
constant goes through the full jet product and quotient rules.  Both must
give the same (value, d1, d2) on both sides of the derivative records:
exactly over the rationals, and bit for bit at the returned precision over
HighPrecision.
"""

from fractions import Fraction as F

import pytest

from hyperq import dsl, series, verify
from hyperq.corpus import get_identity
from hyperq.scalars import HighPrecision, Jet2, Rational, jet_lift
from hyperq.series import (
    EvalError,
    FloatContext,
    PoleInTermError,
    RationalContext,
    evaluate_closed,
    evaluate_expr,
    sum_infinite,
    sum_terminating,
)
from hyperq.verify import VerifyOptions, record_rng


class DenseJetContext:
    """A base context whose every constant becomes a constant jet (c, 0, 0)."""

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):  # ``exact``, ``prec`` and the rest are the base's
        return getattr(self.base, name)

    def _const(self, v):
        return jet_lift(v, active=False)

    def lift(self, v):  # a jet binding is the active parameter: no constant
        if isinstance(v, Jet2):
            return self.base.lift(v)
        return self._const(self.base.lift(v)) if isinstance(v, (int, F)) else v

    def pi(self):
        return self._const(self.base.pi())

    def sqrt(self, m):
        return self._const(self.base.sqrt(m))

    def sinpi(self, x):
        return self._const(self.base.sinpi(x))

    def cospi(self, x):
        return self._const(self.base.cospi(x))

    def qsuminf(self, order, stride, shift, sign, q):
        return self._const(self.base.qsuminf(order, stride, shift, sign, q))


# (record, active parameter, substitutions evaluated after the lift)
EXACT_CASES = [
    ("GOS-D1", "b", {}),
    ("GOS-D2", "b", {}),
    ("OMEGA-D", "x", {}),
    ("QB-D2", "b", {}),
    ("UV-D", "x", {}),
    ("GOS", "b", {"c": "2-b"}),
]
SEEDS = (0, 3, 8)
SAMPLES = 3


def _components(v):
    return tuple(F(c) for c in verify._jet_components(v, 2))


def _exact_sides(rec, env, ctx):  # every case's rhs is a closed form
    return sum_terminating(rec.lhs, env, ctx), evaluate_expr(rec.rhs.expr, env, ctx)


def _exact_samples(rec, active, subs, seed):
    """Admissible jet environments drawn from the record's domains."""
    rng = record_rng(seed, rec.id, salt="dense-oracle")
    options = VerifyOptions(seed=seed, max_n=6)
    sparse = RationalContext()
    found = []
    while len(found) < SAMPLES:
        env = {}
        for p in rec.params:
            if p.name not in subs:
                env[p.name] = verify._draw(p.domain, rng, options, env)
        env[active] = jet_lift(F(env[active]))
        try:
            for name, text in subs.items():
                env[name] = evaluate_expr(dsl.parse_closed_form(text).expr, env, sparse)
            found.append((env, _exact_sides(rec, env, sparse)))
        except (PoleInTermError, ZeroDivisionError):
            continue
    return found


class TestExactOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rid,active,subs", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_sides_match_dense_jets(self, rid, active, subs, seed):
        rec = get_identity(rid)
        dense = DenseJetContext(RationalContext())
        for env, (lhs, rhs) in _exact_samples(rec, active, subs, seed):
            dense_lhs, dense_rhs = _exact_sides(rec, env, dense)
            assert _components(lhs) == _components(dense_lhs)
            assert _components(rhs) == _components(dense_rhs)
            assert _components(lhs) == _components(rhs)

    def test_constants_stay_plain(self):
        ctx = RationalContext()
        assert ctx.lift(F(1, 3)) == F(1, 3)
        assert type(ctx.lift(2)) is Rational
        env = {"x": jet_lift(F(1, 2)), "q": F(1, 3)}
        spec = dsl.parse_series_spec("sum k=0..3 : q^(k^2)*poch(1/2,k)*qpoch(x,1,k)")
        term = dsl.parse_closed_form("q^5*poch(1/2,3)").expr
        assert type(evaluate_expr(term, env, ctx)) is Rational
        assert isinstance(sum_terminating(spec, env, ctx), Jet2)

    def test_active_q_sum_still_refused(self):
        ctx = FloatContext(80)
        with pytest.raises(EvalError):
            ctx.qsuminf(2, 1, 0, 1, jet_lift(HighPrecision.from_fraction(F(1, 2), 80)))


def _raw(v):
    return tuple((c.raw, c.prec) for c in verify._jet_components(v, 2))


class TestNumericOracle:
    """SBD, the numeric jet record, at 30 digits: bit-identical both ways.

    Constant powers such as q^(3k^2) are one ``HighPrecision.__pow__`` on the
    sparse path and a chain of rounded jet squarings on the dense one, so
    working-precision values may differ in their last bits for a q that is
    not dyadic; the returned values, rounded to the requested precision,
    must not.  Every point of x's domain (rat01) is checked.
    """

    @pytest.mark.parametrize("q", [F(1, 2), F(7, 10)])
    def test_sbd_bits(self, q, monkeypatch):
        rec = get_identity("SBD")
        prec = VerifyOptions(digits=30).work_prec
        for x in sorted({F(n, d) for d in range(2, 8) for n in range(1, d)}):
            bindings = {"q": q, "x": jet_lift(x)}
            lhs, _, _ = sum_infinite(rec.lhs, bindings, prec)
            rhs = evaluate_closed(rec.rhs, bindings, prec)
            with monkeypatch.context() as m:
                m.setattr(series, "FloatContext", lambda prec: DenseJetContext(FloatContext(prec)))
                dense_lhs, _, _ = sum_infinite(rec.lhs, bindings, prec)
                dense_rhs = evaluate_closed(rec.rhs, bindings, prec)
            assert _raw(lhs) == _raw(dense_lhs)
            assert _raw(rhs) == _raw(dense_rhs)
