"""Verification procedures over the identity corpus, plus the report model.

Three verification modes, one per record kind:

* ``terminating-exact`` -- sample random admissible rational bindings and
  require exact equality of both sides as rationals;
* ``infinite-numeric`` -- sum the left side with a validated tail bound,
  evaluate the right side, and require the absolute residual to stay below
  10^(-digits);
* ``jet-derived`` -- lift the record's active parameter to a second-order
  jet and require equality of the jet components on both sides: exact when
  the base identity terminates, within tolerance otherwise.  This is the
  machine form of differentiating an identity with respect to a parameter.

Samplers draw from each record's declared domains with rejection of
bindings that hit a pole anywhere in range (budget 1000 per sample); each
record uses an independent deterministic stream derived from (seed, id).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import dsl
from .corpus import Domain, IdentityRecord, get_identity, list_identities
from .scalars import HighPrecision, Jet2, jet_lift, scalar_zero
from .series import (
    EvalError,
    JetContext,
    PoleInTermError,
    RationalContext,
    evaluate_closed,
    evaluate_expr,
    sum_infinite,
    sum_terminating,
    upper_bound,
)

REJECTION_BUDGET = 1000


class SampleExhaustedError(RuntimeError):
    """The sampler could not find an admissible binding within its budget."""


class UnknownParameterError(KeyError):
    """The requested derivative parameter is not bound anywhere."""


@dataclass
class VerifyOptions:
    """Knobs shared by all verification entry points.

    ``digits`` sets the residual tolerance 10^(-digits) for numeric checks;
    ``work_digits`` (default digits+10) sets the working precision.
    """

    digits: int = 30
    samples: int = 20
    seed: int = 0
    q_values: Tuple[Fraction, ...] = (Fraction(1, 2),)
    max_n: int = 8
    terms_budget: int = 10 ** 6
    work_digits: Optional[int] = None

    @property
    def tolerance(self) -> Fraction:
        return Fraction(1, 10 ** self.digits)

    @property
    def work_prec(self) -> int:
        wd = self.work_digits if self.work_digits is not None else self.digits + 10
        return math.ceil(wd * math.log2(10)) + 32

    @property
    def numeric_draws(self) -> int:
        return max(1, min(3, self.samples // 10))


@dataclass
class VerificationReport:
    """Outcome of verifying one identity."""

    id: str
    mode: str
    verdict: str  # pass | fail | error
    residual: Optional[Fraction] = None
    tolerance: Optional[Fraction] = None
    terms: int = 0
    samples: int = 0
    elapsed_ms: float = 0.0
    notes: str = ""
    error: str = ""

    def machine_dict(self) -> dict:
        """Machine-readable form; timing is zeroed so runs are byte-identical."""
        return {
            "id": self.id,
            "mode": self.mode,
            "verdict": self.verdict,
            "residual": format_magnitude(self.residual),
            "tolerance": format_magnitude(self.tolerance),
            "terms": self.terms,
            "samples": self.samples,
            "elapsed-ms": 0,
        }

    def machine_line(self) -> str:
        return json.dumps(self.machine_dict())

    def text_line(self) -> str:
        parts = [f"{self.verdict.upper():5s} {self.id:10s} mode={self.mode}"]
        if self.residual is not None:
            parts.append(f"residual={format_magnitude(self.residual)}")
        if self.tolerance is not None:
            parts.append(f"tol={format_magnitude(self.tolerance)}")
        parts.append(f"terms={self.terms}")
        parts.append(f"samples={self.samples}")
        parts.append(f"({self.elapsed_ms:.0f} ms)")
        if self.notes:
            parts.append(f"[{self.notes}]")
        if self.error:
            parts.append(f"error: {self.error}")
        return "  ".join(parts)


def format_magnitude(value: Optional[Fraction]) -> Optional[str]:
    """Deterministic 3-significant-digit scientific notation for a rational."""
    if value is None:
        return None
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    mag = abs(value)
    e = 0
    while mag >= 10:
        mag /= 10
        e += 1
    while mag < 1:
        mag *= 10
        e -= 1
    scaled = int(mag * 100 + Fraction(1, 2))
    if scaled >= 1000:
        scaled //= 10
        e += 1
    s = str(scaled)
    return f"{sign}{s[0]}.{s[1:]}e{e:+03d}"


# ------------------------------------------------------------------ sampling


def record_rng(seed: int, rid: str, salt: str = "") -> random.Random:
    return random.Random(f"{seed}:{rid}:{salt}")


def _draw(domain: Domain, rng: random.Random, options: VerifyOptions, env: dict) -> Union[int, Fraction]:
    if domain.kind == "rat7":
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(1, 7))
    if domain.kind == "qrat":
        while True:
            v = Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(1, 7))
            if abs(v) != 1:
                return v
    if domain.kind == "rat01":
        den = rng.randint(2, 7)
        return Fraction(rng.randint(1, den - 1), den)
    if domain.kind == "int":
        return rng.randint(domain.lo, domain.hi)
    if domain.kind == "nmax":
        return rng.randint(0, options.max_n)
    if domain.kind == "qpow":
        if "q" not in env:
            raise EvalError("qpow domains need q bound before them")
        return Fraction(env["q"]) ** rng.randint(domain.lo, domain.hi)
    raise EvalError(f"domain {domain.kind!r} cannot be sampled")


def _enumerated_combos(rec: IdentityRecord, options: VerifyOptions) -> List[List[Tuple[str, Fraction]]]:
    """Cartesian product over the record's enumerated (qvals/set) domains."""
    axes = []
    for p in rec.params:
        if p.domain.kind == "qvals":
            axes.append([(p.name, Fraction(q)) for q in options.q_values])
        elif p.domain.kind == "set":
            axes.append([(p.name, v) for v in p.domain.values])
    if not axes:
        return [[]]
    return [list(combo) for combo in itertools.product(*axes)]


def _sampled_params(rec: IdentityRecord) -> List:
    return [p for p in rec.params if not p.domain.enumerated]


def _admissible(rec: IdentityRecord, options: VerifyOptions, rng: random.Random,
                fixed: Sequence[Tuple[str, Fraction]], evaluate):
    """Draw sampled params with rejection until ``evaluate`` avoids all poles.

    ``evaluate(bindings)`` must raise PoleInTermError or ZeroDivisionError on
    an inadmissible binding.  Returns (bindings, result).
    """
    sampled = _sampled_params(rec)
    for _ in range(REJECTION_BUDGET):
        bindings = dict(fixed)
        for p in sampled:
            bindings[p.name] = _draw(p.domain, rng, options, bindings)
        try:
            return bindings, evaluate(bindings)
        except (PoleInTermError, ZeroDivisionError):
            if not sampled:
                raise
            continue
    raise SampleExhaustedError(
        f"{rec.id}: no admissible binding within {REJECTION_BUDGET} attempts")


# ------------------------------------------------------------- verification


def _jet_components(v, order: int):
    """(f, f', f'') up to ``order``; a plain value is constant, its derivatives zero."""
    if isinstance(v, Jet2):
        return (v.value, v.d1, v.d2)[: order + 1]
    return (v,) + (scalar_zero(v),) * order


def _residual_fraction(lhs, rhs) -> Fraction:
    def frac(x):
        if isinstance(x, HighPrecision):
            return x.to_fraction()
        return Fraction(x)

    return abs(frac(lhs) - frac(rhs))


def _eval_rhs_exact(rec: IdentityRecord, bindings: dict, ctx) -> object:
    if isinstance(rec.rhs, dsl.SeriesSpec):
        return sum_terminating(rec.rhs, bindings, ctx)
    return evaluate_expr(rec.rhs.expr, bindings, ctx)


def _verify_jet(rec: IdentityRecord, options: VerifyOptions) -> VerificationReport:
    """Compare both sides as jets in the active parameter: exactly when the
    left side terminates, within tolerance otherwise.

    A ``terminating-exact`` record is the order-0 case: no lift, and only
    the values are compared.
    """
    rng = record_rng(options.seed, rec.id)
    worst = Fraction(0)
    terms = 0
    taken = 0
    if rec.lhs.terminating:
        active = rec.active if rec.kind == "jet-derived" else None
        ctx = RationalContext() if active is None else JetContext(RationalContext())
        order = 0 if active is None else 2
        for _ in range(options.samples):
            def evaluate(bindings):
                env = dict(bindings)
                if active is not None:
                    env[active] = jet_lift(Fraction(env[active]))
                return (sum_terminating(rec.lhs, env, ctx),
                        _eval_rhs_exact(rec, env, ctx))

            bindings, (lv, rv) = _admissible(rec, options, rng, [], evaluate)
            taken += 1
            terms = max(terms, upper_bound(rec.lhs, bindings) + 1)
            for lc, rc in zip(_jet_components(lv, order), _jet_components(rv, order)):
                worst = max(worst, abs(Fraction(lc) - Fraction(rc)))
        verdict = "pass" if worst == 0 else "fail"
        return VerificationReport(rec.id, rec.kind, verdict, residual=worst,
                                  tolerance=Fraction(0), terms=terms, samples=taken)

    # numeric jets over an infinite base identity
    prec = options.work_prec
    tol = options.tolerance
    for combo in _enumerated_combos(rec, options):
        for _ in range(options.numeric_draws):
            def evaluate(bindings):
                lv, tail, used = sum_infinite(rec.lhs, bindings, prec, active=rec.active,
                                              terms_budget=options.terms_budget)
                rv = _eval_rhs_numeric(rec, bindings, prec, options, active=rec.active)
                return lv, rv, used

            bindings, (lv, rv, used) = _admissible(rec, options, rng, combo, evaluate)
            taken += 1
            terms = max(terms, used)
            for lc, rc in zip(_jet_components(lv, rec.order), _jet_components(rv, rec.order)):
                scale = max(Fraction(1), abs(lc.to_fraction()))
                worst = max(worst, _residual_fraction(lc, rc) / scale)
    verdict = "pass" if worst <= tol else "fail"
    return VerificationReport(rec.id, rec.kind, verdict, residual=worst,
                              tolerance=tol, terms=terms, samples=taken)


def _eval_rhs_numeric(rec: IdentityRecord, bindings: dict, prec: int,
                      options: VerifyOptions, active: Optional[str] = None):
    if isinstance(rec.rhs, dsl.SeriesSpec):
        value, _, _ = sum_infinite(rec.rhs, bindings, prec, active=active,
                                   terms_budget=options.terms_budget)
        return value
    return evaluate_closed(rec.rhs, bindings, prec, active=active)


def _verify_infinite(rec: IdentityRecord, options: VerifyOptions) -> VerificationReport:
    rng = record_rng(options.seed, rec.id)
    prec = options.work_prec
    tol = options.tolerance
    worst = Fraction(0)
    terms = 0
    taken = 0
    draws = options.numeric_draws if _sampled_params(rec) else 1
    for combo in _enumerated_combos(rec, options):
        for _ in range(draws):
            def evaluate(bindings):
                lv, tail, used = sum_infinite(rec.lhs, bindings, prec,
                                              terms_budget=options.terms_budget)
                rv = _eval_rhs_numeric(rec, bindings, prec, options)
                return lv, rv, used

            bindings, (lv, rv, used) = _admissible(rec, options, rng, combo, evaluate)
            taken += 1
            terms = max(terms, used)
            worst = max(worst, _residual_fraction(lv, rv))
    verdict = "pass" if worst <= tol else "fail"
    return VerificationReport(rec.id, rec.kind, verdict, residual=worst,
                              tolerance=tol, terms=terms, samples=taken)


_CAUGHT = (ArithmeticError, EvalError, SampleExhaustedError)


def verify_identity(rec_or_id: Union[str, IdentityRecord],
                    options: Optional[VerifyOptions] = None, *,
                    path: Optional[str] = None,
                    follow_fallback: bool = True) -> VerificationReport:
    """Verify one identity and return its report.

    On failure of a record that names a ``fallback`` variant, the variant is
    verified too and its verdict is noted in the report, so a discrepancy in
    the stated form is localized rather than silently reported.
    """
    options = options or VerifyOptions()
    rec = get_identity(rec_or_id, path) if isinstance(rec_or_id, str) else rec_or_id
    start = time.perf_counter()
    try:
        if rec.kind == "infinite-numeric":
            report = _verify_infinite(rec, options)
        else:
            report = _verify_jet(rec, options)
    except _CAUGHT as exc:
        report = VerificationReport(rec.id, rec.kind, "error",
                                    error=f"{type(exc).__name__}: {exc}")
    report.elapsed_ms = (time.perf_counter() - start) * 1000
    if report.verdict == "fail" and rec.fallback and follow_fallback:
        fb = verify_identity(rec.fallback, options, path=path, follow_fallback=False)
        report.notes = (report.notes + "; " if report.notes else "") + \
            f"stated form fails; variant {rec.fallback} verdict: {fb.verdict}"
    return report


def verify_all(options: Optional[VerifyOptions] = None, *,
               path: Optional[str] = None,
               include_variants: bool = False) -> Tuple[List[VerificationReport], Dict[str, int]]:
    """Verify the whole corpus in order; returns (reports, summary counts).

    Deliberately-wrong variant records (``expect = fail``) are skipped unless
    ``include_variants`` is set; per-record errors are aggregated, never
    raised.
    """
    options = options or VerifyOptions()
    reports = []
    for rec in list_identities(path, include_variants=include_variants):
        if rec.expect_fail and not include_variants:
            continue
        reports.append(verify_identity(rec, options, path=path))
    summary = {"pass": 0, "fail": 0, "error": 0}
    for rep in reports:
        summary[rep.verdict] += 1
    return reports, summary


# ------------------------------------------------- operator-method checking


def operator_derive_check(rec_or_id: Union[str, IdentityRecord], parameter: str,
                          order: int, point: Optional[Fraction] = None,
                          bindings: Optional[dict] = None,
                          options: Optional[VerifyOptions] = None, *,
                          samples: Optional[int] = None,
                          path: Optional[str] = None) -> VerificationReport:
    """Differentiate a terminating identity with respect to ``parameter``.

    The parameter is lifted to a jet at a rational point, substitution
    bindings (values or DSL expressions such as ``c = 2-b``, evaluated after
    the lift so they may depend on the active parameter) are applied, both
    sides are evaluated exactly, and the jet components up to ``order`` must
    agree.  This reproduces applying a derivative operator once or twice to
    the identity.
    """
    options = options or VerifyOptions()
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    rec = get_identity(rec_or_id, path) if isinstance(rec_or_id, str) else rec_or_id
    if not rec.lhs.terminating:
        raise EvalError(f"{rec.id}: operator checks need a terminating identity")
    bindings = dict(bindings or {})
    declared = {p.name for p in rec.params}
    if parameter not in declared and parameter not in bindings and point is None:
        raise UnknownParameterError(
            f"{rec.id} has no parameter {parameter!r} and no point was given")
    bindings.pop(parameter, None)

    ctx = JetContext(RationalContext())
    rng = record_rng(options.seed, rec.id, salt=f"derive:{parameter}:{order}")
    count = samples if samples is not None else (1 if point is not None else options.samples)
    point_domain = rec.domain_of(parameter) if parameter in declared else Domain("rat7")

    start = time.perf_counter()
    worst = Fraction(0)
    terms = 0
    taken = 0
    free = [p for p in rec.params if p.name != parameter and p.name not in bindings]
    # parsed (and so compiled) once, not once per attempt
    subs = {name: dsl.parse_closed_form(v).expr if isinstance(v, str) else Fraction(v)
            for name, v in bindings.items()}
    for _ in range(count):
        for _ in range(REJECTION_BUDGET):
            env: dict = {}
            try:
                for p in free:
                    env[p.name] = _draw(p.domain, rng, options, env)
                pt = point if point is not None else _draw(point_domain, rng, options, env)
                env[parameter] = jet_lift(Fraction(pt))
                for name, value in subs.items():
                    env[name] = value if isinstance(value, Fraction) else evaluate_expr(
                        value, env, ctx)
                lv = sum_terminating(rec.lhs, env, ctx)
                rv = _eval_rhs_exact(rec, env, ctx)
            except (PoleInTermError, ZeroDivisionError):
                if point is not None and not free:
                    raise
                continue
            break
        else:
            raise SampleExhaustedError(f"{rec.id}: no admissible derivative sample")
        taken += 1
        terms = max(terms, upper_bound(rec.lhs, env) + 1)
        for lc, rc in zip(_jet_components(lv, order), _jet_components(rv, order)):
            worst = max(worst, abs(Fraction(lc) - Fraction(rc)))
    verdict = "pass" if worst == 0 else "fail"
    report = VerificationReport(rec.id, f"derive-{parameter}-d{order}", verdict,
                                residual=worst, terms=terms, samples=taken)
    report.elapsed_ms = (time.perf_counter() - start) * 1000
    return report


_HARMONIC = dsl.HarmX(1, dsl.Param("m"), dsl.Param("x"))  # harmx(1,m,x): H_m(x)


def divided_difference_check(m: int, u: Fraction, v: Fraction, x: Fraction) -> bool:
    """Exact check of the divided-difference relation

        (H_m(x+u) - H_m(v-x)) / (v - u - 2x) = sum_{i=1}^m 1/((x+u+i)(v-x+i)).
    """
    u, v, x = Fraction(u), Fraction(v), Fraction(x)
    if v - u - 2 * x == 0:
        raise ZeroDivisionError("divided difference undefined at v - u - 2x = 0")
    lhs = Fraction(0)
    for i in range(1, m + 1):
        a = x + u + i
        b = v - x + i
        if a == 0 or b == 0:
            raise ZeroDivisionError(f"pole in divided-difference product at i={i}")
        lhs += Fraction(1) / (a * b)
    h_plus, h_minus = (evaluate_expr(_HARMONIC, {"m": m, "x": offset}, RationalContext())
                       for offset in (x + u, v - x))
    return lhs == (h_plus - h_minus) / (v - u - 2 * x)


# --------------------------------------------------------- mutation testing


_EXPR_FIELDS = ("left", "right", "operand", "base", "exponent", "x", "count",
                "offset", "arg", "term", "upper", "expr")


def _count_literals(node) -> int:
    if isinstance(node, dsl.Num):
        return 1
    total = 0
    for name in _EXPR_FIELDS:
        child = getattr(node, name, None)
        if child is not None and not isinstance(child, (int, str)):
            total += _count_literals(child)
    return total


def _bump_literal(node, target: int, counter: list):
    """Rebuild the AST with the target-th integer literal incremented by 1."""
    if isinstance(node, dsl.Num):
        counter[0] += 1
        if counter[0] - 1 == target:
            return dsl.Num(node.value + 1)
        return node
    changes = {}
    for name in _EXPR_FIELDS:
        child = getattr(node, name, None)
        if child is not None and not isinstance(child, (int, str)):
            new = _bump_literal(child, target, counter)
            if new is not child:
                changes[name] = new
    if changes:
        return replace(node, **changes)
    return node


def mutation_candidates(path: Optional[str] = None) -> List[IdentityRecord]:
    """Corpus records whose right-hand side has an integer literal to perturb."""
    return [rec for rec in list_identities(path, include_variants=False)
            if _count_literals(rec.rhs) > 0]


def perturb_rhs(rec: IdentityRecord, rng: random.Random) -> IdentityRecord:
    """A copy of the record with one right-hand-side integer literal bumped by 1.

    Used to demonstrate the harness's discriminating power: the perturbed
    record must verify as ``fail``.
    """
    total = _count_literals(rec.rhs)
    if total == 0:
        raise ValueError(f"{rec.id}: right-hand side has no integer literal to perturb")
    target = rng.randrange(total)
    mutated = _bump_literal(rec.rhs, target, [0])
    return replace(rec, id=f"{rec.id}+1", rhs=mutated, fallback=None)
