"""Per-layer tracing for the hyperq benchmark, kept outside the package.

A ``Tracer`` wraps hyperq's public functions at every name they are bound
under (a function imported into three modules is wrapped three times, each
wrapper knowing which module's callers use it) and records spans in memory:
calls, inclusive time of the outermost call of a name, and self time, which
is a span's duration minus the time covered by its child spans.  While the
tracer is active it also counts every ``HighPrecision`` and ``Jet2``
operator call; that adds a Python call to each of millions of operator
calls, which is why only the traced run pays it.

Nothing here edits the package: entering the tracer swaps attributes,
leaving it puts the originals back.
"""

from __future__ import annotations

import random
import statistics
import sys
import timeit
from fractions import Fraction
from time import perf_counter_ns

# (home module, function name, span name).  The ``cli`` module is a thin
# argparse shell and is deliberately not timed.
HOOKS = (
    ("hyperq.corpus", "parse_corpus", "corpus.parse"),
    ("hyperq.dsl", "parse_side", "dsl.parse"),
    ("hyperq.dsl", "parse_series_spec", "dsl.parse"),
    ("hyperq.dsl", "parse_closed_form", "dsl.parse"),
    ("hyperq.verify", "verify_identity", "verify"),
    ("hyperq.verify", "operator_derive_check", "verify"),
    ("hyperq.series", "sum_terminating", "series.sum_terminating"),
    ("hyperq.series", "sum_infinite", "series.sum_infinite"),
    ("hyperq.series", "evaluate_closed", "series.evaluate_closed"),
    ("hyperq.series", "evaluate_expr", "series.evaluate_expr"),
    ("hyperq.functions", "pi_constant", "functions.pi_constant"),
    ("hyperq.functions", "sqrt_constant", "functions.sqrt_constant"),
    ("hyperq.functions", "q_sum_infinite", "functions.q_sum_infinite"),
    ("hyperq.functions", "q_integer", "functions.q_integer"),
    ("hyperq.functions", "q_pochhammer_infinite", "functions.q_pochhammer_infinite"),
)

SUMMERS = ("series.sum_terminating", "series.sum_infinite")

HP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
          "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__", "__neg__")
UNARY = ("__neg__", "__abs__")


class SpanStats:
    """Aggregate of one span name: outermost calls, inclusive and self time."""

    __slots__ = ("calls", "incl_ns", "self_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Installs the hooks on ``with`` and removes them on exit.

    Statistics accumulate over every ``with`` block of one tracer.
    """

    def __init__(self, hq):
        self.hq = hq
        self.spans = {name: SpanStats() for _, _, name in HOOKS}
        self.spans["series.term"] = SpanStats()
        self.stack = []  # open spans: [name, start_ns, child_ns]
        self.rejected = 0
        self.rejected_ns = 0
        self.samples = 0
        self.terms = 0
        self.pi_precs = set()
        self.ops = {"hp": [0], "jet2": [0]}
        self._saved = []
        self._reject = (hq.PoleInTermError, ZeroDivisionError)

    # -- installation -------------------------------------------------------

    def _bindings(self, fn):
        """Every (module, name) in the package bound to ``fn``."""
        for modname, module in list(sys.modules.items()):
            if modname != "hyperq" and not modname.startswith("hyperq."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    yield module, attr

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        originals = [(getattr(sys.modules[home], fname), span) for home, fname, span in HOOKS]
        for fn, span in originals:
            for module, attr in list(self._bindings(fn)):
                self._swap(module, attr, self._wrap(fn, span, module.__name__))
        for cls, names, counter in ((self.hq.HighPrecision, HP_OPS, self.ops["hp"]),
                                    (self.hq.Jet2, JET_OPS, self.ops["jet2"])):
            for name in names:
                fn = cls.__dict__[name]
                self._swap(cls, name, _counted(fn, counter, name in UNARY))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, span, caller):
        stack = self.stack
        spans = self.spans
        from_verify = caller == "hyperq.verify"
        term_site = span == "series.evaluate_expr" and caller == "hyperq.series"

        def wrapper(*args, **kwargs):
            name = span
            if term_site:
                # series calls evaluate_expr once per summand from its summers;
                # other series callers (closed forms) keep the time as their own
                if not stack or stack[-1][0] not in SUMMERS:
                    return fn(*args, **kwargs)
                name = "series.term"
            stats = spans[name]
            frame = [name, perf_counter_ns(), 0]
            stack.append(frame)
            stats.depth += 1
            rejected = False
            try:
                result = fn(*args, **kwargs)
            except self._reject:
                rejected = from_verify
                raise
            finally:
                dur = perf_counter_ns() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                stats.depth -= 1
                stats.self_ns += dur - frame[2]
                if stats.depth == 0:
                    stats.calls += 1
                    stats.incl_ns += dur
                if rejected:
                    self.rejected += 1
                    self.rejected_ns += dur
            self._note(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note(self, name, args, kwargs, result):
        if name == "verify":
            self.samples += result.samples
        elif name == "series.sum_infinite":
            self.terms += result[2]
        elif name == "functions.pi_constant":
            self.pi_precs.add(args[0] if args else kwargs["prec"])

    def inclusive_ns(self, name):
        return self.spans[name].incl_ns

    # -- metrics --------------------------------------------------------------

    def metrics(self):
        """Per-layer values from the spans and counters (no kernel timings)."""
        s = self.spans
        attempts = self.samples + self.rejected
        out = {
            "corpus.parse_s": s["corpus.parse"].incl_ns / 1e9,
            "dsl.parse.calls": s["dsl.parse"].calls,
            "dsl.parse_s": s["dsl.parse"].incl_ns / 1e9,
            "verify.attempts": attempts,
            "verify.rejected": self.rejected,
            "verify.admit_ratio": self.samples / attempts if attempts else 0.0,
            "verify.rejected_s": self.rejected_ns / 1e9,
            "verify.self_s": s["verify"].self_ns / 1e9,
            "series.sum_terminating.calls": s["series.sum_terminating"].calls,
            "series.sum_terminating.self_s": s["series.sum_terminating"].self_ns / 1e9,
            "series.sum_infinite.calls": s["series.sum_infinite"].calls,
            "series.sum_infinite.self_s": s["series.sum_infinite"].self_ns / 1e9,
            "series.sum_infinite.terms": self.terms,
            "series.evaluate_closed.self_s": s["series.evaluate_closed"].self_ns / 1e9,
            "series.term.calls": s["series.term"].calls,
            "series.term_ns": s["series.term"].incl_ns / s["series.term"].calls
            if s["series.term"].calls else 0.0,
            "functions.pi_constant.distinct_prec": len(self.pi_precs),
            "scalars.hp.ops": self.ops["hp"][0],
            "scalars.jet2.ops": self.ops["jet2"][0],
        }
        for fname in ("pi_constant", "q_sum_infinite", "q_integer",
                      "q_pochhammer_infinite", "sqrt_constant"):
            st = s[f"functions.{fname}"]
            out[f"functions.{fname}.calls"] = st.calls
            out[f"functions.{fname}.s"] = st.incl_ns / 1e9
        return out


def _counted(fn, counter, unary):
    if unary:
        def op(self):
            counter[0] += 1
            return fn(self)
    else:
        def op(self, other):
            counter[0] += 1
            return fn(self, other)
    return op


# ---------------------------------------------------------------- kernels


def _ns_per_op(stmt, env, reps=5, target_ns=20_000_000):
    """Median ns per evaluation of ``stmt`` over ``reps`` timed batches."""
    timer = timeit.Timer(stmt, globals=env)
    number = 1
    while True:
        t = timer.timeit(number) * 1e9
        if t >= target_ns / 4:
            break
        number *= 4
    number = max(1, int(number * target_ns / t))
    return statistics.median(timer.repeat(reps, number)) * 1e9 / number


def _hp(hq, rng, bits):
    """A random value in [1, 2) with ``bits`` significant bits."""
    man = rng.getrandbits(bits) | (1 << (bits - 1))
    return hq.HighPrecision.from_fraction(Fraction(man, 1 << (bits - 1)), bits)


def kernel_metrics(hq, seed):
    """Scalar kernel timings on operands drawn from ``seed``; untraced."""
    rng = random.Random(f"kernels:{seed}")
    out = {}
    for bits in (200, 3400, 11000):
        a, b = _hp(hq, rng, bits), _hp(hq, rng, bits)
        out[f"scalars.hp_mul_ns.b{bits}"] = _ns_per_op("a * b", {"a": a, "b": b})
    a, b = _hp(hq, rng, 3400), _hp(hq, rng, 3400)
    out["scalars.hp_add_ns.b3400"] = _ns_per_op("a + b", {"a": a, "b": b})
    out["scalars.hp_div_ns.b3400"] = _ns_per_op("a / b", {"a": a, "b": b})

    def frac():
        return Fraction(rng.randint(1, 1 << 20), rng.randint(1, 1 << 20))

    ja = hq.Jet2(frac(), frac(), frac())
    jb = hq.Jet2(frac(), frac(), frac())
    out["scalars.jet2_mul_ns.frac"] = _ns_per_op("a * b", {"a": ja, "b": jb})
    ja = hq.Jet2(*(_hp(hq, rng, 3400) for _ in range(3)))
    jb = hq.Jet2(*(_hp(hq, rng, 3400) for _ in range(3)))
    out["scalars.jet2_mul_ns.b3400"] = _ns_per_op("a * b", {"a": ja, "b": jb})
    fa = Fraction(rng.getrandbits(64) | 1, rng.getrandbits(64) | 1)
    fb = Fraction(rng.getrandbits(64) | 1, rng.getrandbits(64) | 1)
    out["scalars.fraction_add_ns"] = _ns_per_op("a + b", {"a": fa, "b": fb})
    return out
