"""Series evaluation: exact terminating sums and tail-bounded infinite sums.

Terminating sums are evaluated in the exact regime, on ``Rational`` values
(or ``RationalJet``s).  An infinite sum stops at the K of an empirical
geometric ratio test:

* after a warm-up of 32 terms, a sliding window of 16 consecutive term
  ratios must all stay below 63/64, each tested exactly as 64*|t_k| <= 63*|t_(k-1)|;
* once the window passes, the tail beyond term K is bounded by
  |t_K| * rho / (1 - rho) = 63*|t_K| with rho = 63/64, the admission cap
  itself, and summation stops when that bound drops below 2^(-prec-4).

A term of the split form (hypergeometric, times rational functions and
harmonic weights, at rational bindings, without q or a jet binding; see the
binary-split section) is summed over 0..K exactly and rounded once, and its
term ratio must tend to a limit of modulus below 1; its K comes from an
integer walk with a stated error bound.  Every other infinite sum, and every
closed form at a working precision, is evaluated twice in the HighPrecision
regime, 32 bits apart, and ``_validated`` -- the one place of this
double-evaluation policy -- accepts the value only when the two runs agree
to prec-8 bits, then rounds the higher run to prec bits.

Every expression is compiled once, on its first evaluation, into a term
program (``_Compiler``): one generated Python function per node and
summation index, one statement per node, in evaluation order.  A summation
evaluates the parts of its term that do not mention the index once, into
cache slots that the function fills on first use, and the product and sum
atoms advance running states between consecutive terms, so harmonic-weighted
double series cost O(1) extra work per term rather than O(k).  Every running
atom runs in ``_advance``, with its start and step (module functions that
read the atom's arguments and fixed parameters from its state's key) and,
for a product, its size bounds.  The step of ``poch``, ``fact``,
``dfactodd``, ``harm`` and ``harmx`` is stated once, in ``_STEP``, which the
term programs run and the split analysis reads; ``fact`` and ``dfactodd`` run
``poch``'s step at x = 0.  The q-atoms read ``q`` as an ordinary parameter,
lifted like atom arguments.  A zero divisor is its regime's
``ZeroDivisionError``, which ``evaluate_expr`` reports as ``PoleInTermError``.

Values enter their regime through the context's ``lift``: bound ints,
rationals and rational jets, atom arguments, the start values of the running
atoms, and each term or closed-form value a float summer receives.
Derivatives flow only from the active parameter: in every regime and every
summer the caller binds it to an exact jet (``jet_lift`` of a rational), which
a float regime lifts component by component at its own working precision.
Only values computed from it become jets.  Constants (literals, bound
rationals, pi, infinite q-sums, a running atom at count 0, ...) stay plain
values of the regime, which ``Jet2`` arithmetic takes as constant jets, so jets
need no context of their own.  An infinite q-sum refuses a q that carries
derivatives.

Programs are shared by every regime; a step that differs by regime
branches on ``ctx.exact`` when it runs.  A float regime (``FloatContext``,
with or without jets) keeps every running state at working precision, so a
term costs O(p) per small-integer factor plus a few p-bit products, whatever
its index:

1. ``fact`` and ``dfactodd`` start from a float 1; an int base under an
   index-dependent exponent (``4^k``) is lifted before it is raised;
   ``harm(l,m)`` runs as ``harmx(l,m,0)``.
2. An int power too large to build exactly (more than ``MAX_EXACT_BITS``
   bits) is raised at working precision instead.  Every float power, of a
   lifted int or a float base, is refused past a binary exponent of
   ``MAX_FLOAT_BITS``.

In every regime ``qpoch`` keeps x*q^(s*i) as its running power, one product
per step fewer than multiplying x by a running q^(s*i).

An exact power whose result would exceed ``MAX_EXACT_BITS`` bits is an
``EvalError`` before it is computed, in the exact regime and in the exact
positions (counts, exponents, bounds) of every regime.  In the exact regime,
so is a running ``poch``, ``qpoch``, ``fact`` or ``dfactodd`` product, plain
or a rational jet, at the step where a numerator or denominator of its state
passes that size; ``poch``, ``fact`` and ``dfactodd`` past their free counts
at once, when the count alone shows it would (for a rational jet through
zero, from the derivative that does not vanish).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple, Optional, Tuple

from . import dsl
from .functions import (
    _value,
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
    Rational,
    RationalJet,
    Scalar,
    _is_zero,
    _rational,
    agree_to,
    int_pow,
)

WARMUP_TERMS = 32
WINDOW_TERMS = 16
RATIO_CAP = Fraction(63, 64)
TAIL_FACTOR = int(RATIO_CAP / (1 - RATIO_CAP))  # rho/(1-rho), an integer for rho = 63/64
DEFAULT_TERMS_BUDGET = 10 ** 6
GUARD_BITS = 16
MAX_EXACT_BITS = 1 << 20  # an exact power or running product beyond this is an input that runs away
MAX_FLOAT_BITS = 1 << 24  # binary exponent of a float power: its exact value stays small


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
    """Exact evaluation over ``Rational`` values, made by ``lift``; transcendental
    constants are errors."""

    exact = True

    def lift(self, v):
        """An int or a plain ``Fraction`` as a ``Rational``; other values unchanged."""
        if isinstance(v, int):
            return _rational(v, 1)
        if type(v) is Fraction:
            return _rational(v.numerator, v.denominator)
        return v

    def pi(self):
        raise EvalError("pi has no exact rational value; use a numeric context")

    def sqrt(self, m: int):
        s = math.isqrt(m)
        if s * s == m:
            return _rational(s, 1)
        raise EvalError(f"sqrt({m}) is irrational; use a numeric context")

    def sinpi(self, x: Fraction):
        raise EvalError("sinpi requires a numeric context")

    cospi = sinpi

    def qsuminf(self, order, stride, shift, sign, q):
        raise EvalError("infinite q-sums require a numeric context")

    def qpochinf(self, x, qs):
        raise EvalError("infinite q-products require a numeric context")


class FloatContext:
    """Correctly rounded evaluation at a fixed working precision, of values made by ``lift``."""

    exact = False

    def __init__(self, prec: int):
        self.prec = prec

    def lift(self, v):
        """An int, a rational or each component of a ``RationalJet`` at the
        working precision; other values unchanged."""
        if isinstance(v, int):
            return HighPrecision.from_int(v, self.prec)
        if type(v) is HighPrecision or type(v) is Jet2:  # most calls: no Fraction ABC test
            return v
        if isinstance(v, RationalJet):
            return Jet2(*map(self.lift, (v.value, v.d1, v.d2)))
        return HighPrecision.from_fraction(v, self.prec) if isinstance(v, Fraction) else v

    def pi(self):
        return pi_constant(self.prec)

    def sqrt(self, m: int):
        return sqrt_constant(m, self.prec)

    def sinpi(self, x: Fraction):
        return sinpi_constant(x, self.prec)

    def cospi(self, x: Fraction):
        return cospi_constant(x, self.prec)

    def qsuminf(self, order, stride, shift, sign, q):
        if isinstance(q, Jet2):
            if not (_is_zero(q.d1) and _is_zero(q.d2)):
                raise EvalError("infinite q-sums do not support an active q")
            q = q.value
        return q_sum_infinite(order, stride, shift, sign, q)

    def qpochinf(self, x, qs):
        return q_pochhammer_infinite(x, qs)


# -------------------------------------------------------------- term programs

_INDEX = "index"  # the cache key naming a summation's index; slots are ints
_Q = dsl.Param("q")  # the parameter the q-atoms read
_MISSING = object()  # the value of an empty cache slot

# The step of each running atom with a linear one, the one definition that the
# term programs run and the split analysis reads: step i multiplies by x + a*i + b
# (poch; fact and dfactodd at x = 0), or adds 1/(x + a*i + b)^order (harm, harmx).
_STEP = {dsl.Poch: (1, -1), dsl.Fact: (1, 0), dsl.DFactOdd: (2, 1),
         dsl.Harm: (1, 0), dsl.HarmX: (1, 0)}


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
        programs[index] = _Compiler(index).program(node)
    try:
        return programs[index](env, ctx, cache)
    except ZeroDivisionError:  # a zero divisor, in any regime
        raise PoleInTermError("zero denominator factor") from None


def upper_bound(spec: dsl.SeriesSpec, bindings: dict) -> int:
    """The last index of the terminating series ``spec`` under ``bindings``;
    the bound is compiled for an integer position once, as term programs are."""
    attrs = spec.upper.__dict__
    if "_bound" not in attrs:
        attrs["_bound"] = _Compiler(None).program(spec.upper, exact="int")
    return attrs["_bound"](bindings, None, None)


class _Compiler:
    """Compiles an expression into a term program for one summation index.

    A program is one generated Python function ``(env, ctx, cache) -> value``,
    so node types are dispatched once, here.  Its source is in statement
    form, one temporary per node, in evaluation order: an operator's left
    operand first, a power's exponent before its base, an exact quotient's
    denominator before its numerator, and an atom's arguments before its
    count.  Each maximal subtree free of the index (``None``: of every
    parameter) sits in an ``if`` block over its integer cache slot, entered on
    first use: once per summation, lazily (an empty sum evaluates nothing;
    exceptions arise in term order).  A value in scope is not computed again,
    so the index is read once per term.  Literals, parameter names and
    messages are never source text: the function reads each from a variable
    of the closure it is made in, and the helpers it calls from this module.
    """

    def __init__(self, index: Optional[str]):
        self.index = index
        self.deps, self.slot_of = {}, {}  # by id(node); by hoisted operand or running atom
        self.names, self.lines, self.depth = {}, [], 2  # names of constants by (type, value)
        self.values = {}  # operand key, parameter name or tested count -> its name, in scope

    def depends(self, node) -> bool:
        """Whether ``node`` mentions the index, q counting for the q-atoms."""
        if isinstance(node, dsl.Param):
            return self.index in (None, node.name)
        if id(node) not in self.deps:  # the memo keeps the node, so no other takes its id
            self.deps[id(node)] = node, any([self.depends(c) for _, c in dsl.children(node)]) or (
                isinstance(node, dsl.Q_ATOMS) and self.index in (None, "q"))
        return self.deps[id(node)][1]

    def program(self, node, exact=False):
        """The function computing ``node``: a term (hoisting its index-free
        parts) or, ``exact``, an index expression."""
        value = self.operand(node, hoist=not exact, exact=exact)
        constants = {name: c for (_, c), name in self.names.items()}
        source = "\n".join([f"def bind({', '.join(constants)}):",
                            "    def program(env, ctx, cache):", *self.lines,
                            f"        return {value}", "    return program"])
        made = {}  # bind, which closes the program over the constants
        exec(compile(source, "<term program>", "exec"), globals(), made)
        return made["bind"](**constants)

    def emit(self, line: str):
        self.lines.append("    " * self.depth + line)

    def temp(self, expr: str) -> str:
        """A new temporary assigned ``expr``."""
        name = f"t{len(self.lines)}"  # unique: one line at most assigns a new one
        self.emit(f"{name} = {expr}")
        return name

    def constant(self, value) -> str:
        """The name of the closure variable holding ``value``."""
        return self.names.setdefault((type(value), value), f"c{len(self.names)}")

    def slot(self, key) -> int:
        return self.slot_of.setdefault(key, len(self.slot_of))

    def operand(self, node, hoist=False, lift=False, exact=False) -> str:
        """The name of an operand's value: ``exact`` in an index expression
        ("int": an integer one), ``lift`` for an atom's argument, hoisted if
        index-free (but not a literal) under a ``hoist`` parent.  Equal
        operands compute equal values, so they share one slot, and one in
        scope is not computed again."""
        hoist = hoist and not self.depends(node) and (lift or not isinstance(node, dsl.Num))
        key = (node, hoist, lift, exact)
        if key in self.values:
            return self.values[key]
        if hoist:
            slot = self.slot(key)
            name = self.temp(f"cache.get({slot}, _MISSING)")
            self.emit(f"if {name} is _MISSING:")
            outer, self.values, self.depth = self.values, dict(self.values), self.depth + 1
            self.emit(f"{name} = cache[{slot}] = {self.computed(node, lift, exact)}")
            self.values, self.depth = outer, self.depth - 1
        else:
            name = self.computed(node, lift, exact)
        self.values[key] = name
        return name

    def computed(self, node, lift, exact) -> str:
        value = self.scalar(node, exact)
        if exact == "int" and not isinstance(node, dsl.Num):
            value = self.temp(f"{value} if isinstance({value}, int) else _integer({value})")
        return self.temp(f"ctx.lift({value})") if lift else value

    def scalar(self, node, exact=False) -> str:
        """The name of ``node``'s value in the regime of the context or,
        ``exact`` (counts, exponents, sinpi/cospi arguments), as an int or a
        Fraction."""
        kind = type(node)
        if kind is dsl.Num:
            return self.constant(node.value)
        if kind is dsl.Param:
            return self.param(node.name, exact)
        sub = partial(self.operand, exact=True) if exact else partial(
            self.operand, hoist=self.depends(node))
        if kind is dsl.BinOp and node.op != "/":
            left = sub(node.left)
            return self.temp(f"{left} {node.op} {sub(node.right)}")
        if kind is dsl.BinOp and exact:  # index expressions take the denominator first
            den = sub(node.right)
            message = self.constant("zero denominator in index expression")
            self.emit(f"if {den} == 0: raise PoleInTermError({message})")
            return self.temp(f"Fraction({sub(node.left)}) / {den}")
        if kind is dsl.BinOp:  # a lifted numerator takes any denominator
            num = sub(node.left)
            return self.temp(f"ctx.lift({num}) / {sub(node.right)}")
        if kind is dsl.Neg:
            return self.temp(f"-{sub(node.operand)}")
        if kind is dsl.Pow:
            e = self.operand(node.exponent, exact="int")
            indexed = self.depends(node.exponent)
            return self.temp(f"_power({sub(node.base)}, {e}, ctx, {bool(exact)}, {indexed})")
        if exact:  # raised when reached; the value is never read
            message = self.constant(f"{kind.__name__} is not valid in an integer position")
            self.emit(f"raise EvalError({message})")
            return "None"
        if kind is dsl.QPochInf:
            x, qs = sub(node.x, lift=True), sub(dsl.Pow(_Q, dsl.Num(node.step)), lift=True)
            return self.temp(f"ctx.qpochinf({x}, {qs})")
        if kind is dsl.QSumInf:
            fixed = map(self.constant, (node.order, node.stride, node.shift, node.sign))
            return self.temp(f"ctx.qsuminf({', '.join(fixed)}, {sub(_Q, lift=True)})")
        if kind is dsl.PiConst:
            return self.temp("ctx.pi()")
        if kind is dsl.Sqrt:
            return self.temp(f"ctx.sqrt({self.constant(node.radicand)})")
        if kind is dsl.SinPi or kind is dsl.CosPi:
            method = "sinpi" if kind is dsl.SinPi else "cospi"
            return self.temp(f"ctx.{method}(Fraction({sub(node.arg, exact=True)}))")
        return self.atom(node)

    def param(self, name, exact) -> str:
        """The name of a parameter's value, read from ``env`` once in scope."""
        if name not in self.values:
            self.values[name] = raw = f"t{len(self.lines)}"
            self.emit(f"try: {raw} = env[{self.constant(name)}]")
            message = self.constant(f"parameter {name!r} is not bound")
            self.emit(f"except KeyError: raise UnboundParameterError({message})")
        raw = self.values[name]
        if exact:
            message = self.constant(f"parameter {name!r} must be exact here, got ")
            self.emit(f"if not isinstance({raw}, (int, Fraction)): "
                      f"raise EvalError({message} + type({raw}).__name__)")
            return raw
        return self.temp(f"{raw} if isinstance({raw}, int) else ctx.lift({raw})")

    def atom(self, node) -> str:
        """An atom with a running state, stepped by ``_advance``: arguments
        first, then the count; the q-atoms' states are tuples led by the value."""
        kind, value = type(node), ""
        if kind is dsl.Poch:
            args, fixed, run = [node.x], _STEP[kind], "_one, _poch_step, _poch_free, _poch_least"
        elif kind is dsl.QPoch:
            args, fixed, value = [node.x, dsl.Pow(_Q, dsl.Num(node.step))], (), "[0]"
            run = "_qpoch_start, _qpoch_step, _qpoch_free"
        elif kind is dsl.Fact or kind is dsl.DFactOdd:  # poch's step at x = 0
            args, fixed = [], (0, *_STEP[kind])
            run = "_factorial_start, _poch_step, _factorial_free, _factorial_least"
        elif kind is dsl.QInt:
            args, fixed, run, value = [_Q], (), "_qint_start, _qint_step", "[0]"
        elif kind is dsl.Harm or kind is dsl.HarmX:  # harm(l,m) is harmx(l,m,0)
            args, fixed = [getattr(node, "offset", dsl.Num(0))], (node.order, *_STEP[kind])
            run = "_zero, _harmx_step"
        else:  # QSum
            args, fixed = [_Q], (node.order, node.stride, node.shift, node.sign)
            run, value = "_qsum_start, _qsum_step", "[0]"
        key = [self.operand(a, hoist=self.depends(node), lift=True) for a in args]
        n = self.operand(node.count, exact="int")
        if ("count", n) not in self.values:  # one test per count in scope
            message = self.constant(f"{dsl.ATOMS[kind]} of a negative count ")
            self.emit(f"if {n} < 0: raise EvalError({message} + str({n}))")
            self.values["count", n] = n
        key += map(self.constant, fixed)
        return self.temp(f"_advance(cache, {self.slot(node)}, ({', '.join(key)},), {n}, ctx, "
                         f"{run}){value}")


def _power(b, e, ctx, exact, indexed):
    # a float regime raises 1/c^k, c^k and a c^e too large to build exactly at
    # working precision; the exact regime and exact positions keep ints exact
    if isinstance(b, int) and not (exact or ctx.exact) and (
            e < 0 or indexed or _too_large(b, e, MAX_EXACT_BITS)):
        b = ctx.lift(b)
    value = b.value if isinstance(b, Jet2) else b
    if isinstance(value, HighPrecision):
        if value.power_beyond(e, MAX_FLOAT_BITS):
            raise EvalError(f"a float power beyond 2^{MAX_FLOAT_BITS} in magnitude")
    elif _too_large(value, e, MAX_EXACT_BITS):
        raise EvalError(f"an exact power of more than {MAX_EXACT_BITS} bits")
    try:
        return int_pow(b, e)
    except ZeroDivisionError:
        raise PoleInTermError("zero base with negative exponent")


def _too_large(b, e, limit) -> bool:
    """Whether |e| * log2 max(|numerator|, denominator) of the exact b exceeds ``limit``."""
    if -1 <= e <= 1:  # no larger than b itself
        return False
    magnitude = abs(b) if isinstance(b, int) else max(abs(b.numerator), b.denominator)
    return magnitude > 1 and abs(e) > limit / math.log2(magnitude)


def _integer(v):
    if isinstance(v, int) or v.denominator == 1:
        return int(v)
    raise EvalError(f"expected an integer value, got {v}")


def _advance(cache, slot, key: tuple, target: int, ctx, start, extend, free=None, least=None):
    """The state of any running atom at count ``target``: ``start(ctx, key)``
    at 0, ``extend(state, i, key)`` from i-1 to i, ``key`` the atom's
    arguments, then its fixed parameters.  The state in the slot resumes
    while the key is unchanged, which hoisted arguments show by identity.

    ``free(*key)``, given for a running product, is in the exact regime a
    count up to which no state can have a numerator or denominator of more
    than ``MAX_EXACT_BITS`` bits, bounded from the sizes of the arguments.
    Each later state is measured, and one past the limit is an ``EvalError``;
    so is a ``target`` past the free count whose ``least(target, *key)``, a
    lower bound on log2 of the state's largest part, passes the limit, before
    any step.  Passing ``free`` also turns on the zero stop: a product's state
    is tested at every 64th step, and one that is exactly zero (a jet or a
    tuple never is) ends the run, as all later states are zero.
    """
    state = cache.get(slot)
    if state is None or state[1] > target or state[0] != key:
        unmeasured = free(*key) if free and ctx.exact else math.inf
        count, payload = 0, start(ctx, key)
    else:
        _, count, payload, unmeasured = state
    if target > unmeasured and least and least(target, *key) > MAX_EXACT_BITS:
        raise EvalError(f"an exact running product of more than {MAX_EXACT_BITS} bits")
    while count < target:
        count += 1
        payload = extend(payload, count, key)
        if count > unmeasured and _exact_bits(payload) > MAX_EXACT_BITS:
            raise EvalError(f"an exact running product of more than {MAX_EXACT_BITS} bits")
        if count % 64 == 0 and free and _is_zero(payload):
            break
    cache[slot] = (key, count, payload, unmeasured)
    return payload


def _exact_bits(v) -> int:
    """Bit length of the largest numerator or denominator in the exact ``v``
    (a jet's: over the common denominator of its components; a tuple's: of
    its parts)."""
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, tuple):
        return max(map(_exact_bits, v))
    if isinstance(v, RationalJet):
        return max(map(int.bit_length, v.ints))
    return v.bit_length()  # an int


# Counts up to which a running product of the exact regime stays within
# MAX_EXACT_BITS.  They rest on these sizes, in bits of the largest numerator
# or denominator: a product of jets has at most 2 more than its factors
# together (of plain values, none more), a sum or a difference 1 more than its
# larger term, and the start 1.  B is the bit length of MAX_EXACT_BITS; no
# count up to a free one has more bits.

def _poch_free(x, *step) -> int:
    # step i multiplies by x+i-1, of at most bits(x) + B + 1 bits
    return MAX_EXACT_BITS // (_exact_bits(x) + MAX_EXACT_BITS.bit_length() + 4)


def _qpoch_free(x, qs) -> int:
    # after F steps the power x*q^(s*F) has at most bits(x) + F*(bits(q^s) + 2)
    # bits, and the product F*(bits(x) + 4) + F^2*(bits(q^s) + 2)/2: each at most
    # MAX_EXACT_BITS when both terms are at most half of it
    sx, sq = _exact_bits(x), _exact_bits(qs) + 2
    return min(MAX_EXACT_BITS // (2 * (sx + 4)), math.isqrt(MAX_EXACT_BITS // (2 * sq)))


def _factorial_free(x, a, b) -> int:
    # step i multiplies by at most 2i+1, of at most B + 1 bits
    return MAX_EXACT_BITS // (MAX_EXACT_BITS.bit_length() + 2)


def _poch_least(n, x, *step) -> float:
    # x = u/v (a jet's value) not an integer <= 0: (x)_n = prod (u + i*v)/v^n
    # in lowest terms, and past its first factor >= 1, at i0, the other m =
    # n - i0 - 1 are at least v, 2v, ..., m*v; v^m m! >= v^m (m/e)^m.  At an
    # integer u <= 0 a jet's first nonzero derivative d (of d1, d2) becomes d
    # times the other factors: a component of modulus >= |d| m!, over a den >= 1
    u, v = _value(x).numerator, _value(x).denominator
    m = n - max(0, (v - u) // v) - 1
    d = 1 if u > 0 or v > 1 else (x.d1 or x.d2) if isinstance(x, Jet2) else 0
    return m * (math.log2(v) + math.log2(m / math.e)) + math.log2(abs(d.numerator)) - \
        math.log2(d.denominator) if m > 0 and d else 0


def _factorial_least(n, x, a, b) -> float:
    # prod (a*i + b) >= (a*n/e)^n, as n! >= (n/e)^n and (2n+1)!! > 2^n n!
    return n * math.log2(a * n / math.e) if n > 2 else 0


# The starts and steps of the running atoms, for ``_advance``, each defined once.

def _one(ctx, key):
    return ctx.lift(1)


def _zero(ctx, key):
    return ctx.lift(0)


def _poch_step(p, i, key):
    x, a, b = key
    return p * (x + (a * i + b))


def _qpoch_start(ctx, key):
    return ctx.lift(1), key[0]


def _qpoch_step(st, i, key):
    return st[0] * (1 - st[1]), st[1] * key[1]


def _factorial_start(ctx, key):
    return 1 if ctx.exact else ctx.lift(1)


def _qint_start(ctx, key):
    return ctx.lift(0), ctx.lift(1)


def _qint_step(st, i, key):
    # the state ([i], q^i): [i+1] = [i] + q^i, then q^(i+1) = q^i * q
    return st[0] + st[1], st[1] * key[0]


def _harmx_step(s, i, key):
    offset, order, a, b = key
    return s + 1 / int_pow(offset + (a * i + b), order)


def _qsum_start(ctx, key):
    return ctx.lift(0), 0, _qint_start(ctx, key)


def _qsum_step(st, i, key):
    # the i-th summand sign^(i-1) q^idx/[idx]^order, idx = stride*i + shift,
    # with [idx] from the q-integer state (j, ([j], q^j)) it carries
    s, j, qint = st
    q, order, stride, shift, sign = key
    idx = stride * i + shift
    if idx < 1:
        raise EvalError(f"nonpositive q-sum index {idx} at i={i}")
    while j < idx:
        j += 1
        qint = _qint_step(qint, j, key)
    den = int_pow(qint[0], order)
    try:
        t = int_pow(q, idx) / den
    except ZeroDivisionError:  # every regime's division raises it for a zero [idx]
        raise PoleInTermError(f"zero q-integer [{idx}] in a q-sum denominator") from None
    return s + (-t if sign == -1 and i % 2 == 0 else t), j, qint


# ------------------------------------------------------------------- summers


def sum_terminating(spec: dsl.SeriesSpec, bindings: dict, ctx=None) -> Scalar:
    """Sum over 0..upper in the regime of ``ctx``, exact by default (empty when
    the upper bound is negative).  A finite prefix of an infinite spec is the
    sum of ``dataclasses.replace(spec, upper=dsl.Num(n))``.
    """
    if not spec.terminating:
        raise EvalError("sum_terminating requires a finite upper bound")
    ctx = ctx or RationalContext()
    env = dict(bindings)
    cache = {_INDEX: spec.index}
    total = None
    for k in range(0, upper_bound(spec, bindings) + 1):
        env[spec.index] = k
        t = evaluate_expr(spec.term, env, ctx, cache)
        total = t if total is None else total + t
    if total is None:
        total = ctx.lift(0)
    return total


def _norm(t) -> HighPrecision:
    """Magnitude used for ratio tests: max |component| for jets."""
    if isinstance(t, Jet2):
        return max(map(_norm, (t.value, t.d1, t.d2)))
    return abs(t)


def _validated(low, high, prec, what):
    """The double-evaluation policy, for sums and closed forms alike.

    ``low`` and ``high`` are one value computed at prec+GUARD_BITS and at
    prec+GUARD_BITS+32 bits: the guard bits let summands with cancellation-
    amplified roundoff validate, and the runs keep their 32-bit separation.
    Every component must agree to prec-8 bits (PrecisionLossError
    otherwise); the result is the higher run rounded to ``prec`` bits.
    """
    if isinstance(high, Jet2):
        return Jet2(*(_validated(lo, hi, prec, what) for lo, hi in
                      zip((low.value, low.d1, low.d2), (high.value, high.d1, high.d2))))
    if not agree_to(low, high.round_to(low.prec), prec - 8):
        raise PrecisionLossError(
            f"{what} at {prec} and {prec + 32} bits disagrees beyond 2^-{prec - 8}")
    return high.round_to(prec)


def _cmp(x, y) -> int:
    """The sign of x - y for pairs (man, exp) = man*2^exp, man > 0: by binade, else by value."""
    (m, e), (n, f) = x, y
    top = m.bit_length() + e - n.bit_length() - f or (m << max(e - f, 0)) - (n << max(f - e, 0))
    return (top > 0) - (top < 0)


def _stopping_index(magnitudes, threshold, terms_budget, check=None):
    """The stopping rule, on the stream ``magnitudes`` of |t_0|, |t_1|, ...
    as pairs (man, exp) = man*2^exp, compared exactly with ``threshold`` =
    2^(-prec-4) as (1, -prec-4) and with each other.

    Returns the first K >= WARMUP_TERMS that ends a run of WINDOW_TERMS
    ratios with 64*|t_k| <= 63*|t_(k-1)| and has 63*|t_K| below the
    threshold, or that ends 4*WINDOW_TERMS zero terms past the warm-up.
    ``check(x, y)`` sees both sides of each comparison of nonzero values first.
    """
    capped_run = zero_run = last = last_exp = 0  # capped_run: trailing ratios within the cap
    for k, (man, exp) in zip(range(terms_budget + 1), magnitudes):
        x, y = (man * RATIO_CAP.denominator, exp), (last * RATIO_CAP.numerator, last_exp)
        if check and man and last:
            check(x, y)
        capped_run = capped_run + 1 if last and (not man or _cmp(x, y) <= 0) else 0
        last, last_exp = man, exp
        if not man:
            zero_run += 1
            if zero_run >= 4 * WINDOW_TERMS and k >= WARMUP_TERMS:
                # a vanished factor persists for all larger k: the tail is zero
                return k
        else:
            zero_run = 0
            if k >= WARMUP_TERMS and capped_run >= WINDOW_TERMS:
                # bound the tail with the admission cap itself: observed
                # window maxima undercover series whose ratios still climb
                # toward their limit; the cap is an empirical rule too, false
                # for a series whose ratios pass 1 only after the window
                bound = (man * TAIL_FACTOR, exp)
                if check:
                    check(bound, threshold)
                if _cmp(bound, threshold) < 0:
                    return k
    raise NonGeometricTailError(
        f"no geometric tail bound within {terms_budget} terms "
        f"(window of {WINDOW_TERMS} ratios <= {RATIO_CAP} after {WARMUP_TERMS} warm-up terms)")


def _sum_infinite_once(spec, bindings, prec, work_prec, terms_budget):
    env, ctx = dict(bindings), FloatContext(work_prec)
    cache = {_INDEX: spec.index}
    total = mag = None

    def magnitudes():
        nonlocal total, mag
        for k in itertools.count():
            env[spec.index] = k
            t = ctx.lift(evaluate_expr(spec.term, env, ctx, cache))
            total = t if total is None else total + t
            mag = _norm(t)
            yield mag.raw[1:3]  # (man, exp) of the rounded |t_k|

    k = _stopping_index(magnitudes(), (1, -prec - 4), terms_budget)
    bound = mag * TAIL_FACTOR
    ratio = bound if bound.is_zero() else HighPrecision.from_fraction(RATIO_CAP, work_prec)
    return total, TailBound(k, ratio, bound), k + 1


# ----------------------------------------------------- binary-split summation
#
# At rational bindings a term is analysed, from its AST, as
#     t_k = c_k * (A_0(k) + sum_i A_i(k) * V_i(k)),  c_0 = 1,  c_(k+1) = c_k * P(k)/Q(k):
# c_k from integer powers of poch, fact, dfactodd and c^(s*k+t), so P and Q
# are products of linear factors; A_i rational functions; V_i = W_i - W_i(0)
# for harm and harmx atoms W_i of count s*k+t.  Terms lo..hi-1 map (c, c*V_i,
# S), S the sum of the terms before, to (R*c, R*(c*V_i + D_i*c), S + Y*c +
# sum_i Z_i*c*V_i), R the product of their ratios, D_i the increment of V_i.
# ``_join`` composes two ranges, for binary splitting (Haible and
# Papanikolaou, ANTS-III 1998) in integers (p, q, f, e, y, z_i, d_i): R = p/q,
# D_i = d_i/e, Z_i = z_i/(q*f), Y = y/(q*f*e), f and e the products of the
# denominators of the A_i and of the D_i.  K comes from a walk over the leaves.

_SPLIT_POWER = 16  # the largest count slope and |exponent| analysed


class _NotSplit(Exception):
    """The term is not of the analysed form at these bindings."""


# polynomials in k: tuples of coefficients, lowest degree first, no trailing zero

def _padd(f, g) -> tuple:
    out = list(itertools.starmap(operator.add, itertools.zip_longest(f, g, fillvalue=0)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pmul(f, g) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _peval(f, k):
    v = 0
    for c in reversed(f):
        v = v * k + c
    return v


def _expand(factors) -> tuple:  # the product of linear factors (alpha, beta): alpha*k + beta
    return reduce(lambda f, ab: _pmul(f, ab[::-1] if ab[0] else ab[1:]), factors, (1,))


def _integral(*polys) -> list:  # the polys times a common multiple of their denominators
    scale = math.lcm(*(Fraction(c).denominator for f in polys for c in f))
    return [tuple(int(c * scale) for c in f) for f in polys]


# a subterm (c_k/c_0) * (sum of nums[key](k) * V_key(k)) / den(k): c_k advances by
# the linear factors ``up`` over ``down``; key None stands for V = 1, the others
# for weights (order, s, t, offset)
_Part = NamedTuple("_Part", [("up", tuple), ("down", tuple), ("den", tuple), ("nums", dict)])


def _constant(v) -> _Part:
    return _Part((), (), (1,), {None: (v,) if v else ()})


def _exact(node, env):
    try:
        return evaluate_expr(node, env, RationalContext())
    except (EvalError, ArithmeticError):  # a pole, an unbound name, pi, ...
        raise _NotSplit()


def _part(node, compiler: _Compiler, env) -> _Part:
    """The subterm ``node``; ``compiler.depends`` tells which nodes mention the index."""
    if not compiler.depends(node):
        return _constant(_exact(node, env))
    kind = type(node)
    if kind is dsl.Param:  # the index
        return _Part((), (), (1,), {None: (0, 1)})
    if kind is dsl.Neg:
        return _times(_constant(-1), _part(node.operand, compiler, env))
    if kind is dsl.Pow and compiler.depends(node.exponent):  # c^(s*k + t)
        c, (s, _) = Fraction(_exact(node.base, env)), _linear(node.exponent, compiler, env)
        if c == 0 or _too_large(c, s, MAX_EXACT_BITS):
            raise _NotSplit()
        factor = ((0, c ** abs(s)),)
        start = _constant(_exact(node, {**env, compiler.index: 0}))
        return start._replace(up=factor) if s >= 0 else start._replace(down=factor)
    if kind is dsl.Pow:
        e, base = Fraction(_exact(node.exponent, env)), _part(node.base, compiler, env)
        if e.denominator != 1 or not 0 < abs(e) <= _SPLIT_POWER or (e != 1 and len(base.nums) > 1):
            raise _NotSplit()
        return reduce(_times, [base if e > 0 else _inverse(base)] * abs(int(e)))
    if kind in _STEP:
        arg = getattr(node, "x", getattr(node, "offset", None))
        x = Fraction(0 if arg is None else _exact(arg, env))
        s, t = _linear(node.count, compiler, env)
        if not 0 <= s <= _SPLIT_POWER or t < 0:
            raise _NotSplit()
        factors, weight = _steps(kind, s, t, x), kind is dsl.Harm or kind is dsl.HarmX
        if weight and s and factors[0][1] <= 0:
            raise _NotSplit()  # a weight's parts must share a sign, for the walk's bound
        start = _constant(_exact(node, {**env, compiler.index: 0}))
        if weight:
            return start._replace(nums={**start.nums, (node.order, s, t, x): (1,)})
        return start._replace(up=factors)
    if kind is not dsl.BinOp:
        raise _NotSplit()
    left, right = _part(node.left, compiler, env), _part(node.right, compiler, env)
    if node.op in "*/":
        return _times(left, right if node.op == "*" else _inverse(right))
    if _pmul(_expand(left.up), _expand(right.down)) != _pmul(_expand(right.up), _expand(left.down)):
        raise _NotSplit()  # a sum of two hypergeometric parts
    _no_roots(right.up + right.down)  # the sum keeps only the left operand's factors
    nums = {key: _padd(_pmul(left.nums.get(key, ()), right.den), _pmul(
                _pmul(right.nums.get(key, ()), left.den), (1,) if node.op == "+" else (-1,)))
            for key in left.nums.keys() | right.nums.keys()}
    return left._replace(den=_pmul(left.den, right.den), nums=nums)


def _no_roots(factors):
    """Refuse linear factors (alpha, beta) with a root at an integer k >= 0:
    from there on c_k vanishes or has a pole."""
    roots = (-Fraction(beta) / alpha for alpha, beta in factors if alpha)
    if any(root >= 0 and root.denominator == 1 for root in roots):
        raise _NotSplit()


def _times(left, right) -> _Part:
    if len(left.nums) > 1:
        left, right = right, left
    if len(left.nums) > 1:
        raise _NotSplit()  # a product of two weights
    return _Part(left.up + right.up, left.down + right.down, _pmul(left.den, right.den),
                 {key: _pmul(left.nums[None], v) for key, v in right.nums.items()})


def _inverse(part) -> _Part:
    if len(part.nums) > 1 or not part.nums[None]:
        raise _NotSplit()  # a weight, or zero, in a denominator
    return _Part(part.down, part.up, part.nums[None], {None: part.den})


def _linear(node, compiler, env):
    """The integers (s, t) of a count or exponent s*k + t."""
    part = _part(node, compiler, env)
    (t, s, *rest), den = part.nums[None] + (0, 0), part.den
    if len(part.nums) > 1 or part.up or part.down or len(den) != 1 or any(rest) or (
            t % den[0] or s % den[0]):
        raise _NotSplit()
    return int(s // den[0]), int(t // den[0])


def _steps(kind, s, t, x) -> tuple:
    # the linear factors x + a*(s*k + t + j) + b, j = 1..s, of the steps of an
    # atom of _STEP from count s*k + t to s*k + t + s
    a, b = _STEP[kind]
    return tuple((a * s, a * (t + j) + b + x) for j in range(1, s + 1))


def _increment(order, s, t, x):
    """(n, e): the increment sum_{j=1..s} 1/(x + a*(s*k + t + j) + b)^order
    of a weight, as n(k)/e(k) in integer polynomials."""
    v = x.denominator
    n, e = (), (1,)
    for alpha, beta in _steps(dsl.HarmX, s, t, x):
        power = reduce(_pmul, [(int(beta * v), alpha * v)] * order)
        n, e = _padd(_pmul(n, power), _pmul(e, (v ** order,))), _pmul(e, power)
    return n, e


def _join(left, right):
    """The range ``left`` followed by ``right``, and what the terms of
    ``right`` add to its y."""
    p1, q1, f1, e1, y1, z1, d1 = left
    p2, q2, f2, e2, y2, z2, d2 = right
    ahead = p1 * f1 * (y2 * e1 + e2 * sum(map(operator.mul, z2, d1)))
    qf2, pf1 = q2 * f2, p1 * f1
    return (p1 * p2, q1 * q2, f1 * f2, e1 * e2, y1 * qf2 * e2 + ahead,
            [a * qf2 + pf1 * b for a, b in zip(z1, z2)],
            [a * e2 + b * e1 for a, b in zip(d1, d2)]), ahead


class _SplitTerm:
    """A term of the analysed form: the integer polynomials ``P`` and ``Q``,
    ``a`` = (a_0, ..., a_m) over ``b`` (A_i = a_i/b), and ``d`` = (d_1, ...,
    d_m) over ``e`` (the increments D_i = d_i/e)."""

    def __init__(self, spec, bindings):
        # the index unbound, so an argument or a base that mentions it is not exact
        part = _part(spec.term, _Compiler(spec.index),
                     {n: v for n, v in bindings.items() if n != spec.index})
        _no_roots(part.up + part.down)
        self.P, self.Q = _integral(_expand(part.up), _expand(part.down))
        self.weights = [key for key in part.nums if key is not None]
        self.b, *self.a = _integral(part.den, *(part.nums[key] for key in [None] + self.weights))
        if not any(self.a):
            raise _NotSplit()  # the zero term: its tail is the compiled path's
        self.e, self.d = (1,), []
        for n, e in (_increment(*key) for key in self.weights):
            self.d = [_pmul(d, e) for d in self.d] + [_pmul(n, self.e)]
            self.e = _pmul(self.e, e)

    def magnitudes(self, terms_budget):
        """|t_0|, |t_1|, ... as pairs (man, exp), in w = 96 + 2L bit fixed
        point, L the bit length of the budget B.  c_k = c*2^c_exp, 2^(w-1) <=
        c < 2^(w+1), loses under 2^(2-w) a step, B*2^(2-w) < 2^(-94-L) in all.
        V_i(k) = v_i*2^-f loses under 2^-f a step, at most 2^-w of every part
        1/(x + s*j + t + r)^order >= M^-order, M = ceil|x| + s*(B+1) + t, as
        f >= w + order*bitlen(M); the parts are positive (``_part`` sees to it),
        so v_i is within 2^-w of V_i, num within 2^-w of the sum of its
        |parts|, so 2^(33-w) of itself past the 2^-32 cancellation test, and
        |t_k|, after one more floor, within 2^-64 (w >= 98).  ``_decidable``
        refuses decisions within 2^-32: each one taken is the exact one.

        Raises _NotSplit where the compiled path must decide: at a pole (it
        raises PoleInTermError there), at a term that cancels to 2^-32 of its
        parts, and at a zero term past the warm-up."""
        w = 96 + 2 * terms_budget.bit_length()
        f = w + max((order * (math.ceil(abs(x)) + s * (terms_budget + 1) + t).bit_length()
                     for order, s, t, x in self.weights), default=0)
        c, c_exp, v = 1 << w, -w, [0] * len(self.d)  # c_k = c*2^c_exp, V_i(k) = v_i*2^-f
        for k in itertools.count():
            e, b = _peval(self.e, k - 1) if k else 1, _peval(self.b, k)
            if e == 0 or b == 0:
                raise _NotSplit()  # a pole
            if k:
                c, q = c * abs(_peval(self.P, k - 1)), abs(_peval(self.Q, k - 1))
                shift = w + q.bit_length() - c.bit_length()  # c/q in [2^(w-1), 2^(w+1))
                c, c_exp = (c << shift if shift >= 0 else c >> -shift) // q, c_exp - shift
                v = [x + (_peval(d, k - 1) << f) // e for x, d in zip(v, self.d)]
            a0, *a = (_peval(p, k) for p in self.a)
            if a0 or k and any(a):  # else t_k = 0, as V_i(0) = 0
                parts = [a0 << f] + [ai * x for ai, x in zip(a, v)]
                num = abs(sum(parts))
                if num << 32 <= sum(map(abs, parts)):
                    raise _NotSplit()
                shift = b.bit_length()
                yield (c * num << shift) // abs(b), c_exp - f - shift
            elif k >= WARMUP_TERMS:
                raise _NotSplit()  # zero tails, too, are the compiled path's
            else:
                yield 0, 0

    def _leaf(self, k):
        q, e = _peval(self.Q, k), _peval(self.e, k)
        a0, *a = (_peval(f, k) for f in self.a)
        return (_peval(self.P, k), q, _peval(self.b, k), e, a0 * q * e,
                [ai * q for ai in a], [_peval(d, k) for d in self.d])

    def _range(self, lo, hi):
        if hi - lo <= 1:  # one term, or none
            return self._leaf(lo) if hi > lo else (1, 1, 1, 1, 0, *[[0] * len(self.d)] * 2)
        return _join(self._range(lo, (lo + hi) // 2), self._range((lo + hi) // 2, hi))[0]

    def partial_sum(self, n):
        """(s, t, den): t_0 + ... + t_n = s/den and t_n = t/den, exactly."""
        (_, q, f, e, y, _, _), last = _join(self._range(0, n), self._leaf(n))
        return y, last, q * f * e


def _analysed(spec, bindings) -> Optional[_SplitTerm]:
    """The analysed term of ``spec`` at ``bindings``, or None."""
    names = dsl.parameters_of(spec)
    if "q" in names or any(type(bindings.get(name)) not in (int, Fraction, Rational)
                           for name in names):
        return None  # q-series, jets and other values that are not rational
    try:
        return _SplitTerm(spec, bindings)
    except _NotSplit:
        return None


def _decidable(x, y):
    """Refuse pairs x within 2^-32*y of y: too close to call from approximate magnitudes."""
    x = (x[0] << 32, x[1])  # 2^32*x against (2^32 - 1)*y and (2^32 + 1)*y
    if _cmp(x, (y[0] * (2 ** 32 - 1), y[1])) >= 0 >= _cmp(x, (y[0] * (2 ** 32 + 1), y[1])):
        raise _NotSplit()


def _split_sum(spec, bindings, prec, terms_budget):
    """The sum over the compiled path's terms 0..K, exact and rounded once,
    with its tail bound from the exact t_K; None to leave it to that path."""
    term = _analysed(spec, bindings)
    if term is None:
        return None
    P, Q = term.P, term.Q
    if len(P) > len(Q) or len(P) == len(Q) and abs(P[-1]) >= abs(Q[-1]):
        limit = f"tends to {Fraction(P[-1], Q[-1])}" if len(P) == len(Q) else "grows without bound"
        raise NonGeometricTailError(f"the term ratio {limit}: no geometric tail bound")
    try:
        k = _stopping_index(term.magnitudes(terms_budget), (1, -prec - 4), terms_budget,
                            _decidable)
    except _NotSplit:
        return None
    total, last, den = term.partial_sum(k)
    bound = HighPrecision.from_quotient(TAIL_FACTOR * abs(last), abs(den), prec)
    return (HighPrecision.from_quotient(total, den, prec),
            TailBound(k, HighPrecision.from_fraction(RATIO_CAP, prec), bound), k + 1)


def sum_infinite(spec: dsl.SeriesSpec, bindings: dict, prec: int, *,
                 terms_budget: int = DEFAULT_TERMS_BUDGET) -> Tuple[Scalar, TailBound, int]:
    """Sum an infinite series to ``prec`` bits with a tail bound.

    Returns ``(value, tail_bound, terms_used)``.  A term of the split form
    is summed by ``_split_sum``.  Any other is summed twice by its term
    program, ``_validated`` checks the two runs and rounds the value, and the
    tail bound is the higher run's.  A parameter bound to a ``RationalJet``
    is lifted at each run's precision, so the sum is carried out in the
    jet-over-HighPrecision regime.
    """
    if spec.terminating:
        raise EvalError("sum_infinite requires an infinite upper bound")
    split = _split_sum(spec, bindings, prec, terms_budget)
    if split is not None:
        return split
    low, _, _ = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS, terms_budget)
    high, tail, terms = _sum_infinite_once(spec, bindings, prec, prec + GUARD_BITS + 32,
                                           terms_budget)
    value = _validated(low, high, prec, "double evaluation")
    bound = TailBound(tail.start_index, tail.ratio.round_to(prec), tail.bound.round_to(prec))
    return value, bound, terms


def evaluate_closed(cf: dsl.ClosedForm, bindings: dict, prec: Optional[int] = None) -> Scalar:
    """Evaluate a closed form exactly (prec None) or at prec bits, validated."""
    if prec is None:
        return evaluate_expr(cf.expr, bindings, RationalContext())
    low, high = (ctx.lift(evaluate_expr(cf.expr, bindings, ctx))
                 for ctx in (FloatContext(prec + GUARD_BITS), FloatContext(prec + GUARD_BITS + 32)))
    return _validated(low, high, prec, "closed-form evaluation")
