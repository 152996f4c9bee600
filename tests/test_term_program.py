"""Compiled term programs against a tree-walking reference evaluator.

``_walk`` below walks the AST on every term: one ``isinstance`` dispatch
per node per term, every index-free subtree evaluated again at each index,
atom states keyed by (node id, argument).  It is the reference the
compiled programs must reproduce: exactly over the rationals and rational
jets, bit for bit over HighPrecision and its jets, and with the same
exception classes.  Like the programs, it takes a negative count of any
atom for an ``EvalError``.  The float-regime rules of ``_walk``'s docstring
are the specification of the programs' HighPrecision bits; a separate law,
``test_float_prefix_sums_match_the_exact_sum``, checks the values they give
against exact sums without the walker.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperq import dsl, series, verify
from hyperq.corpus import list_identities
from hyperq.scalars import HighPrecision, Jet2, int_pow, jet_lift
from hyperq.series import (
    MAX_EXACT_BITS,
    MAX_FLOAT_BITS,
    EvalError,
    FloatContext,
    PoleInTermError,
    RationalContext,
    UnboundParameterError,
    evaluate_expr,
    sum_terminating,
    upper_bound,
)
from hyperq.verify import VerifyOptions, record_rng

# ------------------------------------------------------------ the reference


def _walk_exact(node, env):
    if isinstance(node, dsl.Num):
        return F(node.value)
    if isinstance(node, dsl.Param):
        try:
            v = env[node.name]
        except KeyError:
            raise UnboundParameterError(f"parameter {node.name!r} is not bound")
        if isinstance(v, (int, F)):
            return F(v)
        raise EvalError(f"parameter {node.name!r} must be exact here, got {type(v).__name__}")
    if isinstance(node, dsl.Neg):
        return -_walk_exact(node.operand, env)
    if isinstance(node, dsl.BinOp) and node.op == "+":
        return _walk_exact(node.left, env) + _walk_exact(node.right, env)
    if isinstance(node, dsl.BinOp) and node.op == "-":
        return _walk_exact(node.left, env) - _walk_exact(node.right, env)
    if isinstance(node, dsl.BinOp) and node.op == "*":
        return _walk_exact(node.left, env) * _walk_exact(node.right, env)
    if isinstance(node, dsl.BinOp) and node.op == "/":
        d = _walk_exact(node.right, env)
        if d == 0:
            raise PoleInTermError("zero denominator in index expression")
        return _walk_exact(node.left, env) / d
    if isinstance(node, dsl.Pow):
        e = _walk_int(node.exponent, env)
        base = _walk_exact(node.base, env)
        if e < 0 and base == 0:
            raise PoleInTermError("zero base with negative exponent")
        return base ** e
    raise EvalError(f"{type(node).__name__} is not valid in an integer position")


def _walk_int(node, env):
    v = _walk_exact(node, env)
    if v.denominator != 1:
        raise EvalError(f"expected an integer value, got {v}")
    return int(v)


def _walk_count(node, env):
    n = _walk_int(node.count, env)
    if n < 0:
        raise EvalError(f"negative count {n}")
    return n


def _ambient_q(env, ctx):
    try:
        q = env["q"]
    except KeyError:
        raise UnboundParameterError("q-atoms need the parameter 'q' bound")
    return ctx.lift(q)


def _incremental(cache, key, target, start_state, extend):
    state = cache.get(key)
    if state is None or state[0] > target:
        state = (0, start_state)
    count, payload = state
    while count < target:
        count += 1
        payload = extend(payload, count)
    cache[key] = (count, payload)
    return payload


def _q_integer(ctx, cache, key, q, m):
    """[m] from the running ([i], q^i) -> ([i] + q^i, q^i * q), the order of a fresh sum."""
    return _incremental(cache, key, m, (ctx.lift(0), ctx.lift(1)),
                        lambda st, i: (st[0] + st[1], st[1] * q))[0]


def _mentions(node, index):
    """Whether ``node`` mentions the summation ``index`` (None: any parameter);
    a q-atom mentions q."""
    if isinstance(node, dsl.Param):
        return index in (None, node.name)
    return (isinstance(node, dsl.Q_ATOMS) and index in (None, "q")) or any(
        _mentions(child, index) for _, child in dsl.children(node))


def _too_large(base, e, limit):
    """Whether base^e is exact and of more than ``limit`` bits."""
    value = base.value if isinstance(base, Jet2) else base
    if isinstance(value, (int, F)):
        size = max(abs(F(value).numerator), F(value).denominator)
        return size > 1 and abs(e) > limit / math.log2(size)
    return False


def _float_too_large(base, e, limit):
    """Whether the float power base^e passes 2^``limit`` in magnitude."""
    value = base.value if isinstance(base, Jet2) else base
    if not isinstance(value, HighPrecision) or value.is_zero():
        return False
    with mpmath.workprec(64):
        return abs(e * mpmath.log(abs(mpmath.mpf(value.raw)), 2)) > limit


def _bits(v):
    """Bits of the largest numerator or denominator of the exact ``v``, a
    jet's over the common denominator of its components."""
    parts = [F(c) for c in ((v.value, v.d1, v.d2) if isinstance(v, Jet2) else (v,))]
    den = math.lcm(*(c.denominator for c in parts))
    return max(den, *(abs(c.numerator) * (den // c.denominator) for c in parts)).bit_length()


def _check_pole(den):
    """A zero denominator (a jet's: a zero value component) is a pole."""
    if (den.value if isinstance(den, Jet2) else den) == 0:
        raise PoleInTermError("zero denominator factor")


def _bounded(ctx, extend):
    """``extend`` of a running product, refusing an exact state past ``MAX_EXACT_BITS`` bits."""
    def step(state, i):
        state = extend(state, i)
        parts = state if isinstance(state, tuple) else (state,)
        if ctx.exact and any(_bits(v) > MAX_EXACT_BITS for v in parts):
            raise EvalError("an exact running product too large")
        return state
    return step


def _walk(node, env, ctx, cache):
    """The value of ``node``; ``cache["index"]`` names the summation index.

    In a float regime (``ctx.exact`` false):

    1. ``fact`` and ``dfactodd`` start from ``ctx.lift(1)`` and multiply by
       their integer factor; an integer base whose exponent mentions the
       index is lifted before it is raised; ``harm(l,k)`` is
       ``harmx(l,k,0)``: it adds 1/(0+i)^l, with i^l and the quotient each
       rounded.
    2. An integer base whose exact power would exceed ``MAX_EXACT_BITS``
       bits is lifted before it is raised.  A float power, of a lifted or a
       float base, that would pass 2^``MAX_FLOAT_BITS`` in magnitude is
       refused.

    In every regime the other running states start from ``ctx.lift(1)``
    or ``ctx.lift(0)``, a plain value even beside a jet, and
    ``qpoch`` keeps (p, x*q^(s*j)) and steps to (p*(1-x*q^(s*j)),
    x*q^(s*j)*q^s); the exact regime runs the plain recurrences of the
    other atoms, and refuses an exact power of more than ``MAX_EXACT_BITS``
    bits and a running ``poch``, ``qpoch``, ``fact`` or ``dfactodd`` state
    with a numerator or denominator of more than ``MAX_EXACT_BITS`` bits (a
    jet's: over the common denominator of its components).
    """
    if isinstance(node, dsl.Num):
        return node.value
    if isinstance(node, dsl.Param):
        try:
            v = env[node.name]
        except KeyError:
            raise UnboundParameterError(f"parameter {node.name!r} is not bound")
        return ctx.lift(v) if isinstance(v, F) else v
    if isinstance(node, dsl.BinOp) and node.op == "+":
        return _walk(node.left, env, ctx, cache) + _walk(node.right, env, ctx, cache)
    if isinstance(node, dsl.BinOp) and node.op == "-":
        return _walk(node.left, env, ctx, cache) - _walk(node.right, env, ctx, cache)
    if isinstance(node, dsl.BinOp) and node.op == "*":
        return _walk(node.left, env, ctx, cache) * _walk(node.right, env, ctx, cache)
    if isinstance(node, dsl.BinOp) and node.op == "/":
        num = _walk(node.left, env, ctx, cache)
        den = _walk(node.right, env, ctx, cache)
        _check_pole(ctx.lift(den))
        return ctx.lift(num) / ctx.lift(den)
    if isinstance(node, dsl.Neg):
        return -_walk(node.operand, env, ctx, cache)
    if isinstance(node, dsl.Pow):
        e = _walk_int(node.exponent, env)
        base = _walk(node.base, env, ctx, cache)
        if isinstance(base, int) and not ctx.exact and (e < 0 or _mentions(
                node.exponent, cache.get("index")) or _too_large(base, e, MAX_EXACT_BITS)):
            base = ctx.lift(base)
        if _float_too_large(base, e, MAX_FLOAT_BITS):
            raise EvalError("a float power too large")
        if _too_large(base, e, MAX_EXACT_BITS):
            raise EvalError("an exact power too large")
        try:
            return int_pow(base, e)
        except ZeroDivisionError:
            raise PoleInTermError("zero base with negative exponent")
    if isinstance(node, dsl.Poch):
        x = ctx.lift(_walk(node.x, env, ctx, cache))
        n = _walk_count(node, env)
        return _incremental(cache, (id(node), x), n, ctx.lift(1),
                            _bounded(ctx, lambda p, i: p * (x + (i - 1))))
    if isinstance(node, dsl.QPoch):
        x = ctx.lift(_walk(node.x, env, ctx, cache))
        q = _ambient_q(env, ctx)
        qs = int_pow(q, node.step)
        n = _walk_count(node, env)
        return _incremental(cache, (id(node), x, q), n, (ctx.lift(1), x),
                            _bounded(ctx, lambda st, i: (st[0] * (1 - st[1]), st[1] * qs)))[0]
    if isinstance(node, dsl.Fact):
        n = _walk_count(node, env)
        return _incremental(cache, (id(node),), n, 1 if ctx.exact else ctx.lift(1),
                            _bounded(ctx, lambda p, i: p * i))
    if isinstance(node, dsl.DFactOdd):
        n = _walk_count(node, env)
        return _incremental(cache, (id(node),), n, 1 if ctx.exact else ctx.lift(1),
                            _bounded(ctx, lambda p, i: p * (2 * i + 1)))
    if isinstance(node, dsl.QPochInf):
        x = ctx.lift(_walk(node.x, env, ctx, cache))
        q = _ambient_q(env, ctx)
        return ctx.qpochinf(x, int_pow(q, node.step))
    if isinstance(node, dsl.QInt):
        q = _ambient_q(env, ctx)
        return _q_integer(ctx, cache, (id(node), q), q, _walk_count(node, env))
    if isinstance(node, (dsl.Harm, dsl.HarmX)):
        offset = ctx.lift(_walk(getattr(node, "offset", dsl.Num(0)), env, ctx, cache))
        n = _walk_count(node, env)

        def extend(s, i):
            d = int_pow(offset + i, node.order)
            _check_pole(d)
            return s + 1 / d

        return _incremental(cache, (id(node), offset), n, ctx.lift(0), extend)
    if isinstance(node, dsl.QSum):
        q = _ambient_q(env, ctx)
        m = _walk_count(node, env)

        def extend(s, i):
            idx = node.stride * i + node.shift
            if idx < 1:
                raise EvalError(f"nonpositive q-sum index {idx}")
            den = int_pow(_q_integer(ctx, cache, (id(node), q, "qint"), q, idx), node.order)
            _check_pole(den)
            t = int_pow(q, idx) / den
            if node.sign == -1 and (i - 1) % 2 == 1:
                t = -t
            return s + t

        return _incremental(cache, (id(node), q), m, ctx.lift(0), extend)
    if isinstance(node, dsl.QSumInf):
        q = _ambient_q(env, ctx)
        return ctx.qsuminf(node.order, node.stride, node.shift, node.sign, q)
    if isinstance(node, dsl.PiConst):
        return ctx.pi()
    if isinstance(node, dsl.Sqrt):
        return ctx.sqrt(node.radicand)
    if isinstance(node, dsl.SinPi):
        return ctx.sinpi(_walk_exact(node.arg, env))
    if isinstance(node, dsl.CosPi):
        return ctx.cospi(_walk_exact(node.arg, env))
    raise EvalError(f"cannot evaluate node {type(node).__name__}")


def _walk_sum(spec, bindings, ctx):
    """The summation loop of ``sum_terminating`` over the reference walker."""
    upper = _walk_int(spec.upper, bindings)
    env = dict(bindings)
    cache = {"index": spec.index}
    total = None
    for k in range(upper + 1):
        env[spec.index] = k
        t = _walk(spec.term, env, ctx, cache)
        total = t if total is None else total + t
    return ctx.lift(0) if total is None else total


# ---------------------------------------------------------------- comparing

_RAISED = (ArithmeticError, ValueError, TypeError)


def _outcome(fn):
    """The value of ``fn()``, or the class of the exception it raised."""
    try:
        return fn()
    except _RAISED as exc:
        return type(exc)


def _same(a, b) -> bool:
    """Equal values of the same type, bit for bit for HighPrecision."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Jet2):
        return all(_same(x, y) for x, y in ((a.value, b.value), (a.d1, b.d1), (a.d2, b.d2)))
    if isinstance(a, HighPrecision):
        return a.raw == b.raw and a.prec == b.prec
    return a == b


def _assert_same(a, b):
    assert _same(a, b), (a, b)


# ------------------------------------------------------- corpus, both sides

PREFIX = 10  # terms summed from each infinite series
SEEDS = (0, 3)
SAMPLES = 2


def _environments(rec, seed):
    """Bindings drawn from the record's domains (enumerated ones: first value)."""
    rng = record_rng(seed, rec.id, salt="program-oracle")
    options = VerifyOptions(seed=seed, max_n=6)
    for _ in range(SAMPLES):
        env = dict(verify._enumerated_combos(rec, options)[0])
        for p in verify._sampled_params(rec):
            env[p.name] = verify._draw(p.domain, rng, options, env)
        yield env


def _regimes(rec, env, first: bool):
    """(context, bindings) pairs: the record's own regime, plus its jets;
    3400 bits for the first sample only."""
    if rec.lhs.terminating:
        yield RationalContext(), env
        if rec.active:
            yield RationalContext(), {**env, rec.active: jet_lift(F(env[rec.active]))}
        return
    for prec in (64, 3400) if first else (64,):
        yield FloatContext(prec), env
        if rec.active:
            point = HighPrecision.from_fraction(F(env[rec.active]), prec)
            yield FloatContext(prec), {**env, rec.active: jet_lift(point)}


def _fresh(ctx):
    """A new context of the regime of ``ctx``."""
    return FloatContext(ctx.prec) if isinstance(ctx, FloatContext) else RationalContext()


def _side(side, env, ctx, program: bool):
    """One side of a record: a closed form, a terminating sum, or the first
    PREFIX terms of an infinite one."""
    if isinstance(side, dsl.ClosedForm):
        if program:
            return _outcome(lambda: evaluate_expr(side.expr, env, ctx))
        return _outcome(lambda: _walk(side.expr, env, ctx, {}))
    if not side.terminating:
        side = replace(side, upper=dsl.Num(PREFIX))
    if program:
        return _outcome(lambda: sum_terminating(side, env, ctx))
    return _outcome(lambda: _walk_sum(side, env, ctx))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rec", list_identities(), ids=lambda r: r.id)
def test_corpus_sides_match_the_walker(rec, seed):
    for i, env in enumerate(_environments(rec, seed)):
        for ctx, bound in _regimes(rec, env, first=i == 0):
            for side in (rec.lhs, rec.rhs):
                _assert_same(_side(side, bound, ctx, program=True),
                             _side(side, bound, _fresh(ctx), program=False))


# --------------------------------------------------- random term trees law

K = dsl.Param("k")
A = dsl.Param("a")

# the counts in k stay >= 0 (a negative count compares only the exception
# class); ``a`` and k/2 still reach the negative and non-integer count errors
COUNTS = st.sampled_from([
    K, dsl.Num(0), dsl.Num(2), dsl.BinOp("+", K, dsl.Num(1)), dsl.BinOp("+", K, dsl.Num(2)),
    dsl.BinOp("*", dsl.Num(2), K), dsl.Param("n"), dsl.BinOp("/", K, dsl.Num(2)), A,
])
EXPONENTS = st.sampled_from([
    dsl.Num(0), dsl.Num(2), K, dsl.Neg(dsl.Num(1)), dsl.BinOp("-", K, dsl.Num(2)),
])
LEAVES = st.one_of(
    st.sampled_from([dsl.Num(1), dsl.Num(3), A, K, dsl.Neg(A),
                     dsl.BinOp("/", dsl.Num(1), dsl.Num(2)), dsl.Param("q")]),
    st.builds(dsl.Fact, COUNTS),
    st.builds(dsl.Harm, st.integers(1, 2), COUNTS),
    st.builds(dsl.QSum, st.integers(1, 2), st.integers(1, 2), st.integers(0, 1),
              st.sampled_from([1, -1]), COUNTS),
)


def _extend(children):
    return st.one_of(
        st.builds(partial(dsl.BinOp, "+"), children, children),
        st.builds(partial(dsl.BinOp, "-"), children, children),
        st.builds(partial(dsl.BinOp, "*"), children, children),
        st.builds(partial(dsl.BinOp, "/"), children, children),
        st.builds(dsl.Neg, children),
        st.builds(dsl.Pow, children, EXPONENTS),
        st.builds(dsl.Poch, children, COUNTS),
        st.builds(dsl.QPoch, children, st.integers(1, 2), COUNTS),
        st.builds(dsl.HarmX, st.integers(1, 2), COUNTS, children),
    )


TERMS = st.recursive(LEAVES, _extend, max_leaves=8)
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# the rational-jet draw weights the leaf ``a`` up: with TERMS, about one tree
# in thirteen computes with a jet; with these, about one in three
JET_TERMS = st.recursive(st.one_of(st.just(A), LEAVES), _extend, max_leaves=8)


@given(data=st.data(), a=FRACTIONS, q=st.sampled_from([F(1, 2), F(2, 3), F(-1, 3)]),
       n=st.integers(0, 4), regime=st.sampled_from([None, 64, "jet"]))
def test_random_terms_match_the_walker(data, a, q, n, regime):
    """Exact (None), at 64 bits, and over rational jets in ``a``."""
    term = data.draw(JET_TERMS if regime == "jet" else TERMS)
    spec = dsl.SeriesSpec("k", dsl.Param("n"), term)
    env = {"a": a, "q": q, "n": n}
    if regime == "jet":
        ctx, env["a"] = RationalContext(), jet_lift(a)
    else:
        ctx = RationalContext() if regime is None else FloatContext(regime)
    program = _outcome(lambda: sum_terminating(spec, env, ctx))
    _assert_same(program, _outcome(lambda: _walk_sum(spec, env, _fresh(ctx))))


# ------------------------------------------------ float sums against exact

def _literal(x):
    """The DSL node of the rational ``x``."""
    node = dsl.Num(abs(x.numerator))
    if x.denominator != 1:
        node = dsl.BinOp("/", node, dsl.Num(x.denominator))
    return dsl.Neg(node) if x < 0 else node


SPAN = st.sampled_from([K, dsl.BinOp("+", K, dsl.Num(1)), dsl.BinOp("*", dsl.Num(2), K)])
ORDERS = st.integers(1, 2)
# |x| <= 1/2 keeps each factor 1 - x*q^j of a q-Pochhammer away from 0, and an
# offset above -1 keeps every summand of harmx positive: both keep the float
# values within a small relative error of the exact ones
PRODUCTS = st.one_of(
    st.builds(dsl.Poch, st.fractions(-3, 3, max_denominator=6).map(_literal), SPAN),
    st.builds(dsl.QPoch, st.fractions(F(-1, 2), F(1, 2), max_denominator=6).map(_literal),
              st.integers(1, 2), SPAN),
    st.builds(dsl.Fact, SPAN),
    st.builds(dsl.DFactOdd, SPAN),
    st.builds(dsl.Pow, st.sampled_from([2, 3, 9, F(1, 3), F(-2, 3)]).map(lambda c: _literal(F(c))),
              st.just(K)),
)
FACTORS = st.one_of(
    PRODUCTS,
    st.builds(dsl.Pow, PRODUCTS, st.integers(2, 4).map(dsl.Num)),
)
WEIGHTS = st.one_of(
    st.builds(dsl.Harm, ORDERS, SPAN),
    st.builds(dsl.HarmX, ORDERS, SPAN,
              st.fractions(F(-5, 6), 3, max_denominator=6).map(_literal)),
)


def _product(nodes):
    node = nodes[0]
    for other in nodes[1:]:
        node = dsl.BinOp("*", node, other)
    return node


def _quotient(numerator, denominator):
    term = _product(numerator)
    return dsl.BinOp("/", term, _product(denominator)) if denominator else term


def _exact_terms(term, env, n):
    return _outcome(lambda: [evaluate_expr(term, {**env, "k": k}, RationalContext(),
                                           {"index": "k"}) for k in range(n + 1)])


@given(numerator=st.lists(st.one_of(FACTORS, WEIGHTS), min_size=1, max_size=3),
       denominator=st.lists(FACTORS, max_size=2),
       q=st.sampled_from([F(1, 2), F(2, 3), F(-1, 3)]), n=st.integers(0, 12))
def test_float_prefix_sums_match_the_exact_sum(numerator, denominator, q, n):
    term = _quotient(numerator, denominator)
    spec = dsl.SeriesSpec("k", dsl.Param("n"), term)
    env = {"q": q, "n": n}
    exact_terms = _exact_terms(term, env, n)
    for prec in (64, 3400):
        value = _outcome(lambda: sum_terminating(spec, env, FloatContext(prec)))
        if isinstance(exact_terms, type):  # a pole: the float sum meets it too
            assert value is exact_terms
            continue
        error = abs(value.to_fraction() - sum(exact_terms))
        assert error <= F(2) ** (8 - prec) * sum(map(abs, exact_terms)) * (n + 2)


def test_factorial_regime():
    # a float regime keeps the running factorial at working precision, the
    # exact regime as an exact int
    node, env = dsl.Fact(K), {"k": 2000}
    value = evaluate_expr(node, env, FloatContext(128), {"index": "k"})
    assert isinstance(value, HighPrecision) and value.prec == 128
    exact = evaluate_expr(node, env, RationalContext(), {"index": "k"})
    assert type(exact) is int and exact == math.factorial(2000)
    assert abs(value.to_fraction() / exact - 1) <= F(2000, 2 ** 128)


def test_harm_past_the_working_precision():
    # at 8 bits i^3 is rounded from i = 7 on, and 1/i^3 a second time
    spec = dsl.parse_series_spec("sum k=0..n : harm(3,7*k)")
    env, ctx = {"n": 20}, FloatContext(8)
    _assert_same(sum_terminating(spec, env, ctx), _walk_sum(spec, env, _fresh(ctx)))


# ------------------------------------------------------------ regressions


def test_empty_sum_evaluates_nothing():
    # the index-free sinpi(a) has no rational value; an empty sum never asks
    spec = dsl.parse_series_spec("sum k=0..n-1 : sinpi(a)*poch(a,k)")
    assert sum_terminating(spec, {"n": 0, "a": F(1, 2)}) == 0
    with pytest.raises(EvalError):
        sum_terminating(spec, {"n": 1, "a": F(1, 2)})


def test_exceptions_arise_in_term_order():
    # the pole at k = 0 comes before the index-free part is first evaluated
    spec = dsl.parse_series_spec("sum k=0..n : 1/k*sinpi(a)")
    with pytest.raises(PoleInTermError):
        sum_terminating(spec, {"n": 3, "a": F(1, 2)})


class CountingContext(FloatContext):
    def __init__(self, prec):
        super().__init__(prec)
        self.products = 0

    def qpochinf(self, x, base):
        self.products += 1
        return super().qpochinf(x, base)


def test_index_free_parts_are_evaluated_once_per_sum():
    spec = dsl.parse_series_spec("sum k=0..n : qpochinf(a,1)*k^2")
    ctx = CountingContext(80)
    value = sum_terminating(spec, {"n": 5, "a": F(1, 3), "q": F(1, 2)}, ctx)
    assert ctx.products == 1
    _assert_same(value, _walk_sum(spec, {"n": 5, "a": F(1, 3), "q": F(1, 2)}, FloatContext(80)))


def test_each_node_is_compiled_once(monkeypatch):
    compiled = []
    original = series._Compiler.__init__

    def counting(self, index):
        compiled.append(index)
        original(self, index)

    monkeypatch.setattr(series._Compiler, "__init__", counting)
    spec = dsl.parse_series_spec("sum k=0..n : poch(a,k)/fact(k)")
    for n in range(4):
        sum_terminating(spec, {"n": n, "a": F(1, 2)})
    assert sorted(compiled, key=str) == [None, "k"]  # the upper bound, the term


def test_transient_nodes_keep_their_index_dependence():
    # the compiler builds transient nodes (q^s for a q-product, harm's 0
    # offset) that die at once, and a later node can take a dead one's
    # address: a memo by address that did not keep its nodes once read a
    # dead node's answer for a later one, so q^2 was hoisted out of a sum over q
    compiler = series._Compiler("q")
    for _ in range(100):
        assert not compiler.depends(dsl.Num(0))
        assert compiler.depends(dsl.Pow(dsl.Param("q"), dsl.Num(2)))


def test_upper_bound():
    spec = dsl.parse_series_spec("sum k=0..(n-1)/2 : k")
    assert upper_bound(spec, {"n": 7}) == 3
    with pytest.raises(EvalError):
        upper_bound(spec, {"n": 4})
    with pytest.raises(UnboundParameterError):
        upper_bound(spec, {})


def test_derive_check_parses_each_string_binding_once(monkeypatch):
    parses = []
    original = dsl.parse_closed_form

    def counting(text):
        parses.append(text)
        return original(text)

    monkeypatch.setattr(dsl, "parse_closed_form", counting)
    report = verify.operator_derive_check("GOS", "b", 2, bindings={"c": "2-b"},
                                          options=VerifyOptions(samples=20))
    assert report.verdict == "pass"
    assert parses == ["2-b"]


def test_parameter_names_never_meet_the_generated_names():
    # a program's source names its arguments, temporaries and constants, but
    # never a parameter: each is read from env under a closure variable's name
    spec = dsl.parse_series_spec(
        "sum k=0..n : env*ctx/cache + t0^2 - c0*k + Fraction + poch(env,k)")
    env = {"env": F(1, 3), "ctx": F(1, 2), "cache": F(1, 2), "t0": F(1, 3), "c0": 1,
           "Fraction": F(1, 5), "n": 3}
    assert sum_terminating(spec, env) == F(-82, 135) == _walk_sum(spec, env, RationalContext())
    _assert_same(sum_terminating(spec, env, FloatContext(64)),
                 _walk_sum(spec, env, FloatContext(64)))
    spec = dsl.parse_series_spec("sum k=0..n : _MISSING*isinstance/program + k + int")
    env = {"_MISSING": F(2, 3), "isinstance": F(3), "program": F(-5), "int": F(1, 7), "n": 2}
    assert sum_terminating(spec, env) == _walk_sum(spec, env, RationalContext())


def test_an_exact_quotient_takes_its_denominator_first():
    # the count x/(k-k) meets its zero denominator before it reads the unbound x
    spec = dsl.parse_series_spec("sum k=0..n : fact(x/(k-k))")
    with pytest.raises(PoleInTermError):
        sum_terminating(spec, {"n": 2})
    with pytest.raises(PoleInTermError):
        _walk_sum(spec, {"n": 2}, RationalContext())


def _height(node) -> int:
    return 1 + max((_height(child) for _, child in dsl.children(node)), default=0)


def _nodes(node):
    yield node
    for _, child in dsl.children(node):
        yield from _nodes(child)


def _third(n):
    return dsl.BinOp("/", dsl.Num(n), dsl.Num(3))


# each level wraps the term below it once: beside an atom, as an atom's
# argument, or under a sign or a power; the float levels need a float regime
_EXACT_LEVELS = [
    lambda t: dsl.BinOp("+", t, dsl.Poch(_third(1), K)),
    lambda t: dsl.BinOp("*", t, dsl.QPoch(_third(1), 2, K)),
    lambda t: dsl.BinOp("-", t, dsl.Fact(K)),
    lambda t: dsl.BinOp("/", t, dsl.DFactOdd(K)),
    lambda t: dsl.BinOp("+", t, dsl.QInt(dsl.BinOp("+", K, dsl.Num(1)))),
    lambda t: dsl.BinOp("-", t, dsl.Harm(2, K)),
    lambda t: dsl.BinOp("+", t, dsl.QSum(1, 1, 0, -1, K)),
    lambda t: dsl.Neg(t),
    lambda t: dsl.HarmX(1, K, dsl.BinOp("+", t, dsl.Num(2))),
    lambda t: dsl.Poch(t, dsl.Num(1)),
    lambda t: dsl.Pow(t, dsl.Num(1)),
    lambda t: dsl.BinOp("+", t, dsl.Sqrt(4)),
    lambda t: dsl.BinOp("*", t, A),
    lambda t: dsl.QPoch(t, 1, dsl.Num(1)),
]
_FLOAT_LEVELS = [
    lambda t: dsl.BinOp("*", t, dsl.QPochInf(_third(1), 1)),
    lambda t: dsl.BinOp("+", t, dsl.QSumInf(1, 1, 0, 1)),
    lambda t: dsl.BinOp("-", t, dsl.PiConst()),
    lambda t: dsl.BinOp("*", t, dsl.Sqrt(2)),
    lambda t: dsl.BinOp("+", t, dsl.SinPi(dsl.BinOp("/", dsl.Num(1), dsl.Num(6)))),
    lambda t: dsl.BinOp("+", t, dsl.CosPi(_third(1))),
    lambda t: dsl.BinOp("/", t, dsl.BinOp("+", dsl.Num(2), dsl.QInt(K))),
]


def _deep(levels, height=60):
    term = A
    for i in itertools.count():
        if _height(term) == height:
            return dsl.SeriesSpec("k", dsl.Param("n"), term)
        term = levels[i % len(levels)](term)


DEEP = _deep(_EXACT_LEVELS + _FLOAT_LEVELS)
DEEP_EXACT = _deep(_EXACT_LEVELS)


def _outcome_text(fn):
    """The value of ``fn()``, or the class and message of the exception it raised."""
    try:
        return fn()
    except _RAISED as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("regime", ["exact", "float", "rational-jet", "float-jet"])
@pytest.mark.parametrize("spec", [DEEP, DEEP_EXACT], ids=["every-atom", "exact-atoms"])
def test_a_deep_term_matches_the_walker(spec, regime):
    assert _height(spec.term) == 60
    if spec is DEEP:
        assert set(dsl.ATOMS) <= {type(node) for node in _nodes(spec.term)}
    env = {"a": F(2, 7), "q": F(1, 3), "n": 3}
    if regime in ("exact", "rational-jet"):
        ctx = RationalContext()
        if regime == "rational-jet":
            env["a"] = jet_lift(env["a"])
    else:
        ctx = FloatContext(64)
        if regime == "float-jet":
            env["a"] = jet_lift(HighPrecision.from_fraction(env["a"], 64))
    program = _outcome_text(lambda: sum_terminating(spec, env, ctx))
    walker = _outcome_text(lambda: _walk_sum(spec, env, _fresh(ctx)))
    if spec is DEEP and ctx.exact:  # the first float-only atom in term order
        assert program == walker == (EvalError, "infinite q-products require a numeric context")
    else:
        _assert_same(program, walker)
