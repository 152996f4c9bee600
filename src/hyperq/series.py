"""Series evaluation: exact terminating sums, tail-bounded infinite sums, and
the canonical (basic) hypergeometric builders.

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

Harmonic and q-harmonic weight atoms keep running partial sums between
consecutive terms, so weighted double series cost O(1) extra work per term
rather than O(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import dsl
from .functions import (
    QBase,
    QIntegers,
    cospi_constant,
    pi_constant,
    q_pochhammer_infinite,
    q_sum_infinite,
    sinpi_constant,
    sqrt_constant,
)
from .scalars import (
    HighPrecision,
    Jet2,
    Scalar,
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

    def qpochinf(self, x, base):
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

    def qpochinf(self, x, base: QBase):
        return q_pochhammer_infinite(x, base, self.prec)


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
            if not (_plain_zero(q.d1) and _plain_zero(q.d2)):
                raise EvalError("infinite q-sums do not support an active q")
            q = q.value
        return self.base.qsuminf(order, stride, shift, sign, q)


def _plain_zero(x) -> bool:
    if isinstance(x, HighPrecision):
        return x.is_zero()
    return x == 0


def _value_of(x):
    return x.value if isinstance(x, Jet2) else x


def _div_check(denom):
    if _plain_zero(_value_of(denom)):
        raise PoleInTermError("zero denominator factor")


# ------------------------------------------------------------------ evaluator


def _eval_exact(node, env) -> Fraction:
    """Evaluate an index/exponent subexpression in pure rational arithmetic."""
    if isinstance(node, dsl.Num):
        return Fraction(node.value)
    if isinstance(node, dsl.Param):
        try:
            v = env[node.name]
        except KeyError:
            raise UnboundParameterError(f"parameter {node.name!r} is not bound")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise EvalError(f"parameter {node.name!r} must be exact here, got {type(v).__name__}")
    if isinstance(node, dsl.Neg):
        return -_eval_exact(node.operand, env)
    if isinstance(node, dsl.Add):
        return _eval_exact(node.left, env) + _eval_exact(node.right, env)
    if isinstance(node, dsl.Sub):
        return _eval_exact(node.left, env) - _eval_exact(node.right, env)
    if isinstance(node, dsl.Mul):
        return _eval_exact(node.left, env) * _eval_exact(node.right, env)
    if isinstance(node, dsl.Div):
        d = _eval_exact(node.right, env)
        if d == 0:
            raise PoleInTermError("zero denominator in index expression")
        return _eval_exact(node.left, env) / d
    if isinstance(node, dsl.Pow):
        e = _eval_int(node.exponent, env)
        base = _eval_exact(node.base, env)
        if e < 0 and base == 0:
            raise PoleInTermError("zero base with negative exponent")
        return base ** e
    raise EvalError(f"{type(node).__name__} is not valid in an integer position")


def _eval_int(node, env) -> int:
    v = _eval_exact(node, env)
    if v.denominator != 1:
        raise EvalError(f"expected an integer value, got {v}")
    return int(v)


def evaluate_expr(node, env, ctx, cache: Optional[dict] = None) -> Scalar:
    """Evaluate an expression AST in the regime of ``ctx``.

    ``env`` maps parameter names to exact values (int/Fraction) or to
    pre-lifted in-regime values such as an active jet.  ``cache`` carries
    the incremental state of harmonic/Pochhammer atoms across consecutive
    index values; pass the same dict for every term of one summation.
    """
    if cache is None:
        cache = {}
    return _eval(node, env, ctx, cache)


def _scalar_arg(node, env, ctx, cache):
    return ctx.lift(_eval(node, env, ctx, cache))


def _ambient_q(env, ctx):
    try:
        q = env["q"]
    except KeyError:
        raise UnboundParameterError("q-atoms need the parameter 'q' bound")
    if isinstance(q, Fraction):
        return ctx.from_fraction(q)
    return ctx.lift(q)


def _incremental(cache, key, target: int, start_state, extend):
    """Shared incremental-update helper for product/sum atoms.

    ``start_state`` is the state at count 0; ``extend(state, i)`` moves the
    state from count i-1 to count i.  States are (count, payload) tuples.
    """
    state = cache.get(key)
    if state is None or state[0] > target:
        state = (0, start_state)
    count, payload = state
    while count < target:
        count += 1
        payload = extend(payload, count)
    cache[key] = (count, payload)
    return payload


def _q_integers(cache, key, q) -> QIntegers:
    """The running q-integers kept in ``cache`` under ``key``."""
    q_ints = cache.get(key)
    if q_ints is None:
        q_ints = cache[key] = QIntegers(q)
    return q_ints


def _eval(node, env, ctx, cache) -> Scalar:
    if isinstance(node, dsl.Num):
        return node.value
    if isinstance(node, dsl.Param):
        try:
            v = env[node.name]
        except KeyError:
            raise UnboundParameterError(f"parameter {node.name!r} is not bound")
        if isinstance(v, Fraction):
            return ctx.from_fraction(v)
        return v
    if isinstance(node, dsl.Add):
        return _eval(node.left, env, ctx, cache) + _eval(node.right, env, ctx, cache)
    if isinstance(node, dsl.Sub):
        return _eval(node.left, env, ctx, cache) - _eval(node.right, env, ctx, cache)
    if isinstance(node, dsl.Mul):
        return _eval(node.left, env, ctx, cache) * _eval(node.right, env, ctx, cache)
    if isinstance(node, dsl.Div):
        num = _eval(node.left, env, ctx, cache)
        den = _eval(node.right, env, ctx, cache)
        _div_check(ctx.lift(den))
        return ctx.lift(num) / ctx.lift(den)
    if isinstance(node, dsl.Neg):
        return -_eval(node.operand, env, ctx, cache)
    if isinstance(node, dsl.Pow):
        e = _eval_int(node.exponent, env)
        base = _eval(node.base, env, ctx, cache)
        if isinstance(base, int):
            if e >= 0:
                return base ** e
            base = ctx.lift(base)
        try:
            return int_pow(base, e)
        except ZeroDivisionError:
            raise PoleInTermError("zero base with negative exponent")
    if isinstance(node, dsl.Poch):
        x = _scalar_arg(node.x, env, ctx, cache)
        n = _eval_int(node.count, env)
        return _incremental(cache, (id(node), x), n, scalar_one(x),
                            lambda p, i: p * (x + (i - 1)))
    if isinstance(node, dsl.QPoch):
        x = _scalar_arg(node.x, env, ctx, cache)
        q = _ambient_q(env, ctx)
        qs = int_pow(q, node.step)
        n = _eval_int(node.count, env)
        payload = _incremental(
            cache, (id(node), x, q), n,
            (scalar_one(qs), scalar_one(qs)),
            lambda st, i: (st[0] * (1 - x * st[1]), st[1] * qs))
        return payload[0]
    if isinstance(node, dsl.QPochInf):
        x = _scalar_arg(node.x, env, ctx, cache)
        q = _ambient_q(env, ctx)
        return ctx.qpochinf(x, QBase(q, node.step))
    if isinstance(node, dsl.Fact):
        n = _eval_int(node.count, env)
        if n < 0:
            raise EvalError("factorial of a negative integer")
        return _incremental(cache, (id(node),), n, 1, lambda p, i: p * i)
    if isinstance(node, dsl.DFactOdd):
        n = _eval_int(node.count, env)
        if n < 0:
            raise EvalError("double factorial of a negative index")
        return _incremental(cache, (id(node),), n, 1, lambda p, i: p * (2 * i + 1))
    if isinstance(node, dsl.QInt):
        q = _ambient_q(env, ctx)
        return _q_integers(cache, (id(node), q), q)(_eval_int(node.count, env))
    if isinstance(node, dsl.Harm):
        n = _eval_int(node.count, env)
        exact = _incremental(cache, (id(node),), n, Fraction(0),
                             lambda s, i: s + Fraction(1, i ** node.order))
        return ctx.from_fraction(exact)
    if isinstance(node, dsl.HarmX):
        offset = _scalar_arg(node.offset, env, ctx, cache)
        n = _eval_int(node.count, env)

        def extend(s, i):
            d = int_pow(offset + i, node.order)
            _div_check(d)
            return s + 1 / d

        return _incremental(cache, (id(node), offset), n, scalar_zero(offset), extend)
    if isinstance(node, dsl.QSum):
        q = _ambient_q(env, ctx)
        m = _eval_int(node.count, env)
        q_ints = _q_integers(cache, (id(node), q, "qint"), q)

        def extend(s, i):
            idx = node.stride * i + node.shift
            if idx < 1:
                raise EvalError(f"nonpositive q-sum index {idx}")
            den = int_pow(q_ints(idx), node.order)
            _div_check(den)
            t = int_pow(q, idx) / den
            if node.sign == -1 and (i - 1) % 2 == 1:
                t = -t
            return s + t

        return _incremental(cache, (id(node), q), m, scalar_zero(q), extend)
    if isinstance(node, dsl.QSumInf):
        q = _ambient_q(env, ctx)
        return ctx.qsuminf(node.order, node.stride, node.shift, node.sign, q)
    if isinstance(node, dsl.PiConst):
        return ctx.pi()
    if isinstance(node, dsl.Sqrt):
        return ctx.sqrt(node.radicand)
    if isinstance(node, dsl.SinPi):
        return ctx.sinpi(_eval_exact(node.arg, env))
    if isinstance(node, dsl.CosPi):
        return ctx.cospi(_eval_exact(node.arg, env))
    raise EvalError(f"cannot evaluate node {type(node).__name__}")


# ------------------------------------------------------------------- summers


def evaluate_term(spec: dsl.SeriesSpec, k: int, bindings: dict, ctx=None,
                  cache: Optional[dict] = None) -> Scalar:
    """Value of the k-th summand of ``spec`` under ``bindings``."""
    if k < 0:
        raise ValueError("term index must be nonnegative")
    ctx = ctx or RationalContext()
    env = dict(bindings)
    env[spec.index] = k
    return evaluate_expr(spec.term, env, ctx, cache)


def sum_terminating(spec: dsl.SeriesSpec, bindings: dict, ctx=None,
                    n: Optional[int] = None) -> Scalar:
    """Exact sum over 0..upper (empty when the upper bound is negative).

    ``n`` overrides the spec's upper bound, which also permits taking a
    finite prefix of an infinite spec.
    """
    if n is None and not spec.terminating:
        raise EvalError("sum_terminating requires a finite upper bound")
    ctx = ctx or RationalContext()
    upper = n if n is not None else _eval_int(spec.upper, bindings)
    env = dict(bindings)
    cache: dict = {}
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
    cache: dict = {}
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
                # toward their limit, while every admitted series keeps all
                # ratios below the cap
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


# ------------------------------------------------- canonical hypergeometrics


def _index_param() -> dsl.Param:
    return dsl.Param("k")


def _build_product(factors) -> dsl.Expr:
    node = factors[0]
    for f in factors[1:]:
        node = dsl.Mul(node, f)
    return node


def hypergeometric_spec(r: int, s: int) -> Tuple[dsl.SeriesSpec, Sequence[str], Sequence[str]]:
    """The canonical SeriesSpec for rFs with parameter placeholders.

    Returns (spec, upper_names, lower_names); bind each name plus ``z``.
    """
    k = _index_param()
    uppers = [f"_a{i}" for i in range(r)]
    lowers = [f"_b{i}" for i in range(s)]
    num = [dsl.Poch(dsl.Param(u), k) for u in uppers] or [dsl.Num(1)]
    den = [dsl.Poch(dsl.Param(b), k) for b in lowers] + [dsl.Fact(k)]
    term = dsl.Mul(dsl.Div(_build_product(num), _build_product(den)),
                   dsl.Pow(dsl.Param("z"), k))
    return dsl.SeriesSpec("k", 0, None, term), uppers, lowers


def hypergeometric_eval(upper: Sequence, lower: Sequence, z, *,
                        n: Optional[int] = None, prec: Optional[int] = None):
    """Evaluate rFs(upper; lower; z) exactly (terminating) or numerically.

    Exact mode (``n`` given) requires -n among the upper parameters and sums
    k = 0..n over rationals.  Numeric mode (``prec`` given) delegates to
    :func:`sum_infinite` and returns just the value.
    """
    spec, unames, lnames = hypergeometric_spec(len(upper), len(lower))
    bindings = {name: Fraction(v) if isinstance(v, int) else v
                for name, v in zip(unames, upper)}
    bindings.update({name: Fraction(v) if isinstance(v, int) else v
                     for name, v in zip(lnames, lower)})
    bindings["z"] = Fraction(z) if isinstance(z, int) else z
    if (n is None) == (prec is None):
        raise ValueError("pass exactly one of n (exact) or prec (numeric)")
    if n is not None:
        if all(Fraction(u) != -n for u in upper):
            raise EvalError(f"exact mode needs {-n} among the upper parameters")
        finite = dsl.SeriesSpec(spec.index, 0, dsl.Num(n), spec.term)
        return sum_terminating(finite, bindings)
    value, _, _ = sum_infinite(spec, bindings, prec)
    return value


def basic_hypergeometric_spec(r: int, s: int, step: int):
    """Canonical SeriesSpec for r-phi-s over the base q**step."""
    k = _index_param()
    uppers = [f"_a{i}" for i in range(r)]
    lowers = [f"_b{i}" for i in range(s)]
    qs_expr = dsl.Pow(dsl.Param("q"), dsl.Num(step)) if step != 1 else dsl.Param("q")
    num = [dsl.QPoch(dsl.Param(u), step, k) for u in uppers] or [dsl.Num(1)]
    den = [dsl.QPoch(dsl.Param(b), step, k) for b in lowers] + [dsl.QPoch(qs_expr, step, k)]
    factors = [dsl.Div(_build_product(num), _build_product(den))]
    extra = 1 + s - r
    if extra != 0:
        # [(-1)^k q^(binom(k,2))]^(1+s-r) over the working base
        minus = dsl.Pow(dsl.Neg(dsl.Num(1)), k)
        tri = dsl.Div(dsl.Mul(dsl.Num(step), dsl.Mul(k, dsl.Sub(k, dsl.Num(1)))), dsl.Num(2))
        factors.append(dsl.Pow(dsl.Mul(minus, dsl.Pow(dsl.Param("q"), tri)), dsl.Num(extra)))
    factors.append(dsl.Pow(dsl.Param("z"), k))
    return dsl.SeriesSpec("k", 0, None, _build_product(factors)), uppers, lowers


def basic_hypergeometric_eval(upper: Sequence, lower: Sequence, base: QBase, z, *,
                              n: Optional[int] = None, prec: Optional[int] = None):
    """Evaluate r-phi-s(upper; lower; q^step, z), exactly or numerically.

    Exact mode requires (q^step)^(-n) among the upper parameters.
    """
    spec, unames, lnames = basic_hypergeometric_spec(len(upper), len(lower), base.step)
    bindings = {name: Fraction(v) if isinstance(v, int) else v
                for name, v in zip(unames, upper)}
    bindings.update({name: Fraction(v) if isinstance(v, int) else v
                     for name, v in zip(lnames, lower)})
    bindings["z"] = Fraction(z) if isinstance(z, int) else z
    bindings["q"] = Fraction(base.q) if isinstance(base.q, int) else base.q
    if (n is None) == (prec is None):
        raise ValueError("pass exactly one of n (exact) or prec (numeric)")
    if n is not None:
        qs = int_pow(Fraction(bindings["q"]), base.step)
        target = int_pow(qs, -n)
        if all(Fraction(u) != target for u in upper):
            raise EvalError("exact mode needs q^(-n) among the upper parameters")
        finite = dsl.SeriesSpec(spec.index, 0, dsl.Num(n), spec.term)
        return sum_terminating(finite, bindings)
    value, _, _ = sum_infinite(spec, bindings, prec)
    return value
