"""Series evaluation: exact terminating sums and tail-bounded infinite sums.

Terminating sums are evaluated in the exact rational (or rational-jet)
regime; infinite sums run in the HighPrecision regime under an empirical
geometric ratio test:

* after a warm-up of 32 terms, a sliding window of 16 consecutive term
  ratios must all stay below 63/64;
* once the window passes, the tail beyond term K is bounded by
  |t_K| * rho / (1 - rho) with rho = 63/64, the admission cap itself, and
  summation stops when that bound drops below 2^(-prec-4);
* every infinite sum is evaluated twice, at prec and prec+32 bits, and the
  two runs must agree to prec-8 bits before the value is accepted.

Every expression is compiled once, on its first evaluation, into a term
program with one step per node (``_Compiler``).  A summation evaluates the
parts of its term that do not mention the index once, and the product and
sum atoms advance running states between consecutive terms, so harmonic-
weighted double series cost O(1) extra work per term rather than O(k).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Dict, Optional, Tuple

from . import dsl
from .functions import (
    QIntegers,
    cospi_constant,
    pi_constant,
    q_pochhammer_infinite,
    q_sum_infinite,
    q_sum_term,
    sinpi_constant,
    sqrt_constant,
)
from .scalars import (
    HighPrecision,
    Jet2,
    Scalar,
    _is_zero,
    agree_to,
    int_pow,
    jet_lift,
    scalar_one,
    scalar_zero,
)

WARMUP_TERMS = 32
WINDOW_TERMS = 16
RATIO_CAP = Fraction(63, 64)
DEFAULT_TERMS_BUDGET = 10 ** 6
GUARD_BITS = 16


class EvalError(ValueError):
    """A structurally valid expression that cannot be evaluated as requested."""


class UnboundParameterError(EvalError):
    """An identifier in the expression has no binding."""


class PoleInTermError(ArithmeticError):
    """A denominator factor evaluated to zero at some index."""


class NonGeometricTailError(ArithmeticError):
    """The sliding-window ratio test never admitted a geometric tail bound."""


class PrecisionLossError(ArithmeticError):
    """The double-evaluation policy detected disagreement between precisions."""


@dataclass(frozen=True)
class TailBound:
    """Bound |t_K| * ratio/(1-ratio) on the discarded tail, starting at K."""

    start_index: int
    ratio: HighPrecision
    bound: HighPrecision


# ------------------------------------------------------------------- contexts


class RationalContext:
    """Exact evaluation over Fractions; transcendental constants are errors."""

    exact = True
    prec: Optional[int] = None

    def lift(self, v):
        if isinstance(v, int):
            return Fraction(v)
        return v

    def from_fraction(self, x: Fraction):
        return x

    def pi(self):
        raise EvalError("pi has no exact rational value; use a numeric context")

    def sqrt(self, m: int):
        s = math.isqrt(m)
        if s * s == m:
            return Fraction(s)
        raise EvalError(f"sqrt({m}) is irrational; use a numeric context")

    def sinpi(self, x: Fraction):
        raise EvalError("sinpi requires a numeric context")

    cospi = sinpi

    def qsuminf(self, order, stride, shift, sign, q):
        raise EvalError("infinite q-sums require a numeric context")

    def qpochinf(self, x, qs):
        raise EvalError("infinite q-products require a numeric context")


class FloatContext:
    """Correctly rounded evaluation at a fixed working precision."""

    exact = False

    def __init__(self, prec: int):
        self.prec = prec
        self._cache: Dict[tuple, HighPrecision] = {}

    def lift(self, v):
        if isinstance(v, int):
            return HighPrecision.from_int(v, self.prec)
        return v

    def from_fraction(self, x: Fraction):
        return HighPrecision.from_fraction(x, self.prec)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def pi(self):
        return self._cached(("pi",), lambda: pi_constant(self.prec))

    def sqrt(self, m: int):
        return self._cached(("sqrt", m), lambda: sqrt_constant(m, self.prec))

    def sinpi(self, x: Fraction):
        return self._cached(("sinpi", x), lambda: sinpi_constant(x, self.prec))

    def cospi(self, x: Fraction):
        return self._cached(("cospi", x), lambda: cospi_constant(x, self.prec))

    def qsuminf(self, order, stride, shift, sign, q):
        return self._cached(("qsuminf", order, stride, shift, sign, q),
                            lambda: q_sum_infinite(order, stride, shift, sign, q))

    def qpochinf(self, x, qs):
        return q_pochhammer_infinite(x, qs, self.prec)


class JetContext:
    """Jet evaluation over a rational or float base context.

    Derivatives flow only from the active parameter: the caller binds it to
    a ``Jet2``, and only values computed from it become jets.  Constants
    (literals, bound rationals, powers of q, pi, square roots, infinite
    q-sums) stay plain values of the base regime, which ``Jet2`` arithmetic
    takes as constant jets without computing their zero derivatives.  So
    every method is the base context's own, except that an infinite q-sum
    refuses a q that carries derivatives.
    """

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):
        # reached only for names this class lacks; keeping the base's bound
        # method on the instance spares later lookups this slow path
        value = getattr(self.base, name)
        setattr(self, name, value)
        return value

    def qsuminf(self, order, stride, shift, sign, q):
        if isinstance(q, Jet2):
            if not (_is_zero(q.d1) and _is_zero(q.d2)):
                raise EvalError("infinite q-sums do not support an active q")
            q = q.value
        return self.base.qsuminf(order, stride, shift, sign, q)


def _value_of(x):
    return x.value if isinstance(x, Jet2) else x


def _div_check(denom):
    if _is_zero(_value_of(denom)):
        raise PoleInTermError("zero denominator factor")


# -------------------------------------------------------------- term programs

_INDEX = "index"  # the cache key naming a summation's index; slots are ints
_BINARY = {dsl.Add: operator.add, dsl.Sub: operator.sub, dsl.Mul: operator.mul}


@dataclass(frozen=True)
class _AmbientQ:
    """The parameter ``q`` as the q-atoms read it: required, and lifted."""


_Q = _AmbientQ()
_Q_NODES = (_AmbientQ, dsl.QPoch, dsl.QPochInf, dsl.QInt, dsl.QSum, dsl.QSumInf)


def evaluate_expr(node, env, ctx, cache: Optional[dict] = None) -> Scalar:
    """Evaluate an expression AST in the regime of ``ctx``.

    ``env`` maps parameter names to exact values (int/Fraction) or to
    pre-lifted in-regime values such as an active jet.  ``cache`` belongs to
    one summation under one set of bindings; pass the same dict for every
    term of it.  It holds the atoms' running states and the values of the
    parts free of the summation index, which the summers name under the key
    ``"index"`` (without it, any parameter may change between terms).
    """
    cache = {} if cache is None else cache
    index = cache.get(_INDEX)
    programs = node.__dict__.setdefault("_programs", {})  # the AST is immutable
    if index not in programs:
        programs[index] = _Compiler(index).operand(node, True)
    return programs[index](env, ctx, cache)


def upper_bound(spec: dsl.SeriesSpec, bindings: dict) -> int:
    """The last index of the terminating series ``spec`` under ``bindings``."""
    attrs = spec.upper.__dict__  # compiled once per node, as term programs are
    if "_bound" not in attrs:
        attrs["_bound"] = _Compiler(None).operand(spec.upper, exact="int")
    return attrs["_bound"](bindings, None, None)


class _Compiler:
    """Compiles an expression into a term program for one summation index.

    A program is a step ``(env, ctx, cache) -> value`` calling the steps of
    its subtrees, so node types are dispatched once, here.  Each maximal
    subtree free of the index (``None``: of every parameter) is evaluated on
    first use and kept in an integer cache slot: once per summation, lazily
    (an empty sum evaluates nothing; exceptions arise in term order).
    """

    def __init__(self, index: Optional[str]):
        self.index, self.slots = index, itertools.count()
        self.deps, self.operands = {}, {}  # by id(node); by (node, hoist, lift, exact) or literal

    def depends(self, node) -> bool:
        """Whether ``node`` mentions the index, q counting for the q-atoms."""
        if isinstance(node, dsl.Param):
            return self.index in (None, node.name)
        if id(node) not in self.deps:
            children = [getattr(node, f.name) for f in dataclasses.fields(node)]
            self.deps[id(node)] = any([self.depends(c) for c in children if not isinstance(
                c, (int, str))]) or isinstance(node, _Q_NODES) and self.index in (None, "q")
        return self.deps[id(node)]

    def operand(self, node, hoist=False, lift=False, exact=False):
        """Step for an operand: ``exact`` in an index expression ("int": an
        integer one), ``lift`` for an atom's argument, hoisted if index-free
        (but not a literal) under a ``hoist`` parent.  Equal operands compute
        equal values, so they share one step, slots included."""
        key = (node, hoist, lift, exact)
        if key not in self.operands:
            step = self.scalar(node, exact)
            if exact == "int" and not isinstance(node, dsl.Num):
                step = partial(_integer, step)
            if lift:
                step = lambda env, ctx, cache, f=step: ctx.lift(f(env, ctx, cache))  # noqa: E731
            if hoist and not self.depends(node) and (lift or not isinstance(node, dsl.Num)):
                step = partial(_once, step, next(self.slots))
            self.operands[key] = step
        return self.operands[key]

    def scalar(self, node, exact=False):
        """Step computing ``node`` in the regime of the context or, ``exact``
        (counts, exponents, sinpi/cospi arguments), as an int or a Fraction."""
        kind = type(node)
        if kind is dsl.Num:  # one step per literal in the program
            return self.operands.setdefault(node, lambda env, ctx, cache, v=node.value: v)
        if kind is dsl.Param:
            return partial(_param, node.name, exact)
        if kind is _AmbientQ:
            return _ambient_q
        sub = partial(self.operand, exact=True) if exact else partial(
            self.operand, hoist=self.depends(node))
        integer = partial(self.operand, exact="int")
        if kind in _BINARY:
            return (lambda env, ctx, cache, op=_BINARY[kind], a=sub(node.left), b=sub(node.right):
                    op(a(env, ctx, cache), b(env, ctx, cache)))
        if kind is dsl.Neg:
            return lambda env, ctx, cache, a=sub(node.operand): -a(env, ctx, cache)
        if kind is dsl.Div:
            return partial(_divide, exact, sub(node.left), sub(node.right))
        if kind is dsl.Pow:
            return partial(_power, exact, integer(node.exponent), sub(node.base))
        if exact:
            return partial(_raise, f"{kind.__name__} is not valid in an integer position")
        if kind is dsl.QPochInf:
            x, qs = sub(node.x, lift=True), sub(dsl.Pow(_Q, dsl.Num(node.step)))
            return lambda env, ctx, cache: ctx.qpochinf(x(env, ctx, cache), qs(env, ctx, cache))
        if kind is dsl.QSumInf:
            return lambda env, ctx, cache, q=sub(_Q): ctx.qsuminf(
                node.order, node.stride, node.shift, node.sign, q(env, ctx, cache))
        if kind is dsl.PiConst:
            return lambda env, ctx, cache: ctx.pi()
        if kind is dsl.Sqrt:
            return lambda env, ctx, cache: ctx.sqrt(node.radicand)
        if kind is dsl.SinPi or kind is dsl.CosPi:
            method, x = ("sinpi" if kind is dsl.SinPi else "cospi"), sub(node.arg, exact=True)
            return lambda env, ctx, cache: getattr(ctx, method)(Fraction(x(env, ctx, cache)))
        # atoms with a running state: arguments first, then the count
        if kind is dsl.Poch:
            recurrence, args = _poch, [sub(node.x, lift=True)]
        elif kind is dsl.QPoch:
            qs = dsl.Pow(_Q, dsl.Num(node.step))
            recurrence, args = _qpoch, [sub(node.x, lift=True), sub(qs)]
        elif kind is dsl.Fact:
            recurrence, args = partial(_factorial, 0), []
        elif kind is dsl.DFactOdd:
            recurrence, args = partial(_factorial, 1), []
        elif kind is dsl.QInt:
            recurrence, args = _qint, [sub(_Q)]
        elif kind is dsl.Harm:
            recurrence, args = partial(_harm, node.order), []
        elif kind is dsl.HarmX:
            recurrence, args = partial(_harmx, node.order), [sub(node.offset, lift=True)]
        elif kind is dsl.QSum:
            recurrence, args = partial(_qsum, node), [sub(_Q)]
        else:
            return partial(_raise, f"cannot evaluate node {kind.__name__}")
        # the atom's DSL name is its lowercased node type
        return partial(_atom, kind.__name__.lower(), recurrence, args, integer(node.count),
                       next(self.slots))


def _param(name, exact, env, ctx, cache):
    try:
        v = env[name]
    except KeyError:
        raise UnboundParameterError(f"parameter {name!r} is not bound")
    if exact and not isinstance(v, (int, Fraction)):
        raise EvalError(f"parameter {name!r} must be exact here, got {type(v).__name__}")
    return ctx.from_fraction(v) if isinstance(v, Fraction) and not exact else v


def _ambient_q(env, ctx, cache):
    try:
        q = env["q"]
    except KeyError:
        raise UnboundParameterError("q-atoms need the parameter 'q' bound")
    return ctx.from_fraction(q) if isinstance(q, Fraction) else ctx.lift(q)


def _once(step, slot, env, ctx, cache):
    if slot not in cache:
        cache[slot] = step(env, ctx, cache)
    return cache[slot]


def _raise(message, *_):
    raise EvalError(message)


def _divide(exact, num, den, env, ctx, cache):
    if exact:  # index expressions take the denominator first
        d = den(env, ctx, cache)
        if d == 0:
            raise PoleInTermError("zero denominator in index expression")
        return Fraction(num(env, ctx, cache)) / d
    n = num(env, ctx, cache)
    d = ctx.lift(den(env, ctx, cache))
    _div_check(d)
    return ctx.lift(n) / d


def _power(exact, exponent, base, env, ctx, cache):
    e = exponent(env, ctx, cache)
    b = base(env, ctx, cache)
    if exact or isinstance(b, int):
        if e >= 0:
            return b ** e
        b = Fraction(b) if exact else ctx.lift(b)
    try:
        return int_pow(b, e)
    except ZeroDivisionError:
        raise PoleInTermError("zero base with negative exponent")


def _integer(exact, env, ctx, cache):
    v = exact(env, ctx, cache)
    if isinstance(v, int) or v.denominator == 1:
        return int(v)
    raise EvalError(f"expected an integer value, got {v}")


def _atom(name, recurrence, args, count, slot, env, ctx, cache):
    values = [a(env, ctx, cache) for a in args]
    n = count(env, ctx, cache)
    if n < 0:
        raise EvalError(f"{name} of a negative count {n}")
    return recurrence(ctx, cache, slot, *values, n)


def _advance(cache, slot, key: tuple, target: int, start, extend):
    """The payload at count ``target``: ``start()`` at 0, ``extend(payload, i)``
    from i-1 to i.  The state in the slot resumes while ``key`` (the atom's
    arguments) is unchanged, which hoisted arguments show by identity."""
    state = cache.get(slot)
    if state is None or state[1] > target or state[0] != key:
        count, payload = 0, start()
    else:
        _, count, payload = state
    while count < target:
        count += 1
        payload = extend(payload, count)
    cache[slot] = (key, count, payload)
    return payload


# the running atoms: (ctx, cache, slot, *arguments, count) -> value

def _poch(ctx, cache, slot, x, n):
    return _advance(cache, slot, (x,), n, lambda: scalar_one(x), lambda p, i: p * (x + (i - 1)))


def _qpoch(ctx, cache, slot, x, qs, n):
    return _advance(cache, slot, (x, qs), n, lambda: (scalar_one(qs), scalar_one(qs)),
                    lambda st, i: (st[0] * (1 - x * st[1]), st[1] * qs))[0]


def _factorial(odd, ctx, cache, slot, n):
    return _advance(cache, slot, (), n, lambda: 1, lambda p, i: p * (2 * i + 1 if odd else i))


def _qint(ctx, cache, slot, q, n):
    if slot not in cache or cache[slot].q != q:
        cache[slot] = QIntegers(q)
    return cache[slot](n)


def _harm(order, ctx, cache, slot, n):
    exact = _advance(cache, slot, (), n, Fraction, lambda s, i: s + Fraction(1, i ** order))
    return ctx.from_fraction(exact)


def _harmx(order, ctx, cache, slot, offset, n):
    def extend(s, i):
        d = int_pow(offset + i, order)
        _div_check(d)
        return s + 1 / d

    return _advance(cache, slot, (offset,), n, lambda: scalar_zero(offset), extend)


def _qsum(atom, ctx, cache, slot, q, m):
    def extend(state, i):
        s, q_ints = state
        t, _ = q_sum_term(atom.order, atom.stride, atom.shift, atom.sign, q, q_ints, i,
                          errors=(EvalError, PoleInTermError))
        return s + t, q_ints

    return _advance(cache, slot, (q,), m, lambda: (scalar_zero(q), QIntegers(q)), extend)[0]


# ------------------------------------------------------------------- summers


def sum_terminating(spec: dsl.SeriesSpec, bindings: dict, ctx=None,
                    n: Optional[int] = None) -> Scalar:
    """Exact sum over 0..upper (empty when the upper bound is negative).

    ``n`` overrides the spec's upper bound, which also permits taking a
    finite prefix of an infinite spec.
    """
    if n is None and not spec.terminating:
        raise EvalError("sum_terminating requires a finite upper bound")
    ctx = ctx or RationalContext()
    upper = n if n is not None else upper_bound(spec, bindings)
    env = dict(bindings)
    cache = {_INDEX: spec.index}
    total = None
    for k in range(0, upper + 1):
        env[spec.index] = k
        t = evaluate_expr(spec.term, env, ctx, cache)
        total = t if total is None else total + t
    if total is None:
        total = ctx.lift(0)
    return total


def _norm(t, prec: int) -> HighPrecision:
    """Magnitude used for ratio tests: max |component| for jets."""
    if isinstance(t, Jet2):
        parts = [_norm(t.value, prec), _norm(t.d1, prec), _norm(t.d2, prec)]
        m = parts[0]
        for p in parts[1:]:
            if p > m:
                m = p
        return m
    if isinstance(t, int):
        t = HighPrecision.from_int(t, prec)
    return abs(t)


def _sum_infinite_once(spec, bindings, prec, work_prec, active, terms_budget, min_terms):
    ctx = FloatContext(work_prec)
    env = dict(bindings)
    if active is not None:
        point = env[active]
        if not isinstance(point, (int, Fraction)):
            raise EvalError("active parameter must be bound to an exact point")
        env[active] = jet_lift(HighPrecision.from_fraction(Fraction(point), work_prec))
        ctx = JetContext(ctx)
    threshold = HighPrecision.from_fraction(Fraction(1, 2 ** (prec + 4)), work_prec)
    cap = HighPrecision.from_fraction(RATIO_CAP, work_prec)
    cache = {_INDEX: spec.index}
    capped_run = 0  # consecutive trailing term ratios at or below the cap
    total = None
    last_mag = None
    zero_run = 0
    k = 0
    while k <= terms_budget:
        env[spec.index] = k
        t = evaluate_expr(spec.term, env, ctx, cache)
        total = t if total is None else total + t
        mag = _norm(t, work_prec)
        if last_mag is not None:
            capped = not last_mag.is_zero() and mag / last_mag <= cap
            capped_run = capped_run + 1 if capped else 0
        last_mag = mag
        if mag.is_zero():
            zero_run += 1
            if zero_run >= 4 * WINDOW_TERMS and k >= WARMUP_TERMS:
                # a vanished factor persists for all larger k: the tail is zero
                zero = HighPrecision.from_int(0, work_prec)
                return total, TailBound(k, zero, zero), k + 1
        else:
            zero_run = 0
            if k >= WARMUP_TERMS and capped_run >= WINDOW_TERMS and k + 1 >= min_terms:
                # bound the tail with the admission cap itself: observed
                # window maxima undercover series whose ratios still climb
                # toward their limit; the cap is an empirical rule too, false
                # for a series whose ratios pass 1 only after the window
                bound = mag * cap / (1 - cap)
                if bound < threshold:
                    return total, TailBound(k, cap, bound), k + 1
        k += 1
    raise NonGeometricTailError(
        f"no geometric tail bound within {terms_budget} terms "
        f"(window of {WINDOW_TERMS} ratios <= {RATIO_CAP} after {WARMUP_TERMS} warm-up terms)")


def _round_result(v, prec):
    if isinstance(v, Jet2):
        return Jet2(v.value.round_to(prec), v.d1.round_to(prec), v.d2.round_to(prec))
    return v.round_to(prec)


def _agreement(low, high, prec) -> bool:
    if isinstance(low, Jet2):
        return all(_agreement(a, b, prec)
                   for a, b in ((low.value, high.value), (low.d1, high.d1), (low.d2, high.d2)))
    return agree_to(low, high.round_to(low.prec), prec - 8)


def sum_infinite(spec: dsl.SeriesSpec, bindings: dict, prec: int, *,
                 active: Optional[str] = None,
                 terms_budget: int = DEFAULT_TERMS_BUDGET,
                 min_terms: int = 0) -> Tuple[Scalar, TailBound, int]:
    """Sum an infinite series to ``prec`` bits with a validated tail bound.

    Returns ``(value, tail_bound, terms_used)``.  The series is evaluated at
    ``prec`` and again at ``prec+32`` bits; the runs must agree to prec-8
    bits (PrecisionLossError otherwise), and the returned value is the
    higher-precision run rounded to ``prec`` bits.  When ``active`` names a
    binding, that parameter is lifted to a jet and the sum is carried out in
    the jet-over-HighPrecision regime.
    """
    if spec.terminating:
        raise EvalError("sum_infinite requires an infinite upper bound")
    # both runs carry GUARD_BITS so that summands with cancellation-amplified
    # roundoff still validate; the runs keep their 32-bit separation
    low, _, _ = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS,
                                   active, terms_budget, min_terms)
    high, tail, terms = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS + 32,
                                           active, terms_budget, min_terms)
    if not _agreement(low, high, prec):
        raise PrecisionLossError(
            f"double evaluation at {prec} and {prec + 32} bits disagrees beyond 2^-{prec - 8}")
    value = _round_result(high, prec)
    bound = TailBound(tail.start_index, tail.ratio.round_to(prec), tail.bound.round_to(prec))
    return value, bound, terms


def evaluate_closed(cf: dsl.ClosedForm, bindings: dict, prec: Optional[int] = None, *,
                    active: Optional[str] = None) -> Scalar:
    """Evaluate a closed form exactly (prec None) or at prec bits, validated."""
    if prec is None:
        return evaluate_expr(cf.expr, bindings, RationalContext())

    def run(p):
        ctx = FloatContext(p)
        env = dict(bindings)
        if active is not None:
            env[active] = jet_lift(HighPrecision.from_fraction(Fraction(env[active]), p))
            return evaluate_expr(cf.expr, env, JetContext(ctx))
        return evaluate_expr(cf.expr, env, ctx)

    low = run(prec + GUARD_BITS)
    high = run(prec + GUARD_BITS + 32)
    low = low if not isinstance(low, int) else HighPrecision.from_int(low, prec + GUARD_BITS)
    high = high if not isinstance(high, int) else HighPrecision.from_int(high, prec + GUARD_BITS + 32)
    if not _agreement(low, high, prec):
        raise PrecisionLossError(
            f"closed-form evaluation at {prec} and {prec + 32} bits disagrees")
    return _round_result(high, prec)
