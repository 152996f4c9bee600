"""Verification procedures over the identity corpus, plus the report model.

One check serves the three record kinds and the operator method, and writes
every report.  It binds the active parameter, if any, to an exact
second-order jet at its sampled point, evaluates both sides in the record's
regime and compares them:

* a terminating identity is summed over the rationals and must hold exactly.
  A ``terminating-exact`` record compares values; a terminating
  ``jet-derived`` record compares all three jet components, the machine form
  of differentiating the identity with respect to a parameter.
* an infinite identity is summed with a validated tail bound, each summer
  lifting the jet at its working precision, and the residual must stay below
  10^(-digits): absolute for an ``infinite-numeric`` record, and per jet
  component up to the record's order, relative to max(1, |left component|),
  for an infinite ``jet-derived`` record.

``operator_derive_check`` runs the same check on the record it derives from
one of either kind for a chosen parameter, order and substitution bindings,
comparing components up to that order.

One sampler draws from each record's declared domains, rejecting bindings
that hit a pole anywhere in range (budget 1000 per sample); each record
uses an independent deterministic stream derived from (seed, id).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import dsl
from .corpus import Domain, IdentityRecord, ParamSpec, get_identity, list_identities
from .scalars import Jet2, jet_lift
from .series import (
    DEFAULT_TERMS_BUDGET,
    EvalError,
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
    """The derivative parameter is neither declared nor given a point, or is a count."""


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
    terms_budget: int = DEFAULT_TERMS_BUDGET
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


def _floor_log10(x: Fraction) -> int:
    """floor(log10(x)) of a positive rational, exactly."""
    j = len(str(Decimal(x.numerator))) - len(str(Decimal(x.denominator)))  # floor is j or j-1
    return j if x >= Fraction(10) ** j else j - 1


def format_magnitude(value: Optional[Fraction]) -> Optional[str]:
    """Deterministic 3-significant-digit scientific notation for a rational."""
    if value is None:
        return None
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    mag = abs(Fraction(value))
    e = _floor_log10(mag)
    scaled = int(mag * Fraction(10) ** (2 - e) + Fraction(1, 2))
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


def _enumerated_combos(rec: IdentityRecord,
                       options: VerifyOptions) -> List[List[Tuple[str, Fraction]]]:
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


def _admissible(rid: str, params: Sequence[ParamSpec], options: VerifyOptions,
                rng: random.Random, fixed: Sequence[Tuple[str, Fraction]], evaluate):
    """Draw ``params`` in order, after the ``fixed`` bindings, until
    ``evaluate(bindings)`` avoids every pole; return its result.

    ``evaluate`` must raise PoleInTermError or ZeroDivisionError on an
    inadmissible binding.  With nothing to draw, that pole propagates.
    """
    for _ in range(REJECTION_BUDGET):
        bindings = dict(fixed)
        for p in params:
            bindings[p.name] = _draw(p.domain, rng, options, bindings)
        try:
            return evaluate(bindings)
        except (PoleInTermError, ZeroDivisionError):
            if not params:
                raise
    raise SampleExhaustedError(f"{rid}: no admissible binding within {REJECTION_BUDGET} attempts")


# ------------------------------------------------------------- verification


def _jet_components(v, order: int):
    """(f, f', f'') up to ``order``; a plain value is constant, its derivatives zero."""
    if isinstance(v, Jet2):
        return (v.value, v.d1, v.d2)[: order + 1]
    return (v,) + (v * 0,) * order


def _side(side, env: dict, prec: Optional[int], terms_budget: int):
    """(value, terms) of one side: exact at prec None (a sum must terminate),
    else at ``prec`` bits (a sum must be infinite, and is tail-bounded)."""
    if isinstance(side, dsl.ClosedForm):
        return evaluate_closed(side, env, prec), 0
    if prec is None:
        return sum_terminating(side, env), upper_bound(side, env) + 1
    value, _, terms = sum_infinite(side, env, prec, terms_budget=terms_budget)
    return value, terms


def _check(rec: IdentityRecord, mode: str, options: VerifyOptions, rng: random.Random,
           order: int, subs: Optional[dict] = None) -> VerificationReport:
    """The report on ``rec``: both sides at admissible draws after each combo
    of its enumerated parameters, jet components compared up to ``order``.

    A terminating record draws ``options.samples`` per combo and must hold
    exactly; an infinite one draws ``options.numeric_draws``, is summed at the
    working precision with a tail bound and must hold to 10^(-digits).  With
    nothing to draw, each combo is evaluated once.

    With ``order`` > 0, ``rec.active`` is bound to an exact jet at its sampled
    point, then each ``subs`` binding -- a Fraction, or an expression that may
    use it -- is evaluated.  A residual is absolute, except a numeric jet
    component's, which is divided by max(1, |left component|).  An
    arithmetic, evaluation or sampling error is the verdict ``error``.
    """
    start = time.perf_counter()
    exact = rec.lhs.terminating
    prec = None if exact else options.work_prec
    relative = order and not exact
    tol = Fraction(0) if exact else options.tolerance
    params = _sampled_params(rec)
    active = rec.active if order else None
    draws = (options.samples if exact else options.numeric_draws) if params else 1

    def evaluate(bindings):
        env = dict(bindings)
        if active is not None:
            env[active] = jet_lift(Fraction(env[active]))
        for name, value in (subs or {}).items():
            env[name] = value if isinstance(value, Fraction) else evaluate_expr(
                value, env, RationalContext())
        return (_side(rec.lhs, env, prec, options.terms_budget),
                _side(rec.rhs, env, prec, options.terms_budget)[0])

    worst, terms, taken = Fraction(0), 0, 0
    try:
        for fixed in _enumerated_combos(rec, options):
            for _ in range(draws):
                (lv, used), rv = _admissible(rec.id, params, options, rng, fixed, evaluate)
                taken += 1
                terms = max(terms, used)
                for lc, rc in zip(_jet_components(lv, order), _jet_components(rv, order)):
                    left = Fraction(lc) if exact else lc.to_fraction()
                    residual = abs(left - (Fraction(rc) if exact else rc.to_fraction()))
                    worst = max(worst, residual / max(1, abs(left)) if relative else residual)
    except (ArithmeticError, EvalError, SampleExhaustedError) as exc:
        report = VerificationReport(rec.id, mode, "error", error=f"{type(exc).__name__}: {exc}")
    else:
        report = VerificationReport(rec.id, mode, "pass" if worst <= tol else "fail",
                                    residual=worst, tolerance=tol, terms=terms, samples=taken)
    report.elapsed_ms = (time.perf_counter() - start) * 1000
    return report


def verify_identity(rec_or_id: Union[str, IdentityRecord],
                    options: Optional[VerifyOptions] = None, *,
                    follow_fallback: bool = True) -> VerificationReport:
    """Verify one identity and return its report.

    On failure of a record that names a ``fallback`` variant, the variant is
    verified too and its verdict is noted in the report, so a discrepancy in
    the stated form is localized rather than silently reported.
    """
    options = options or VerifyOptions()
    rec = get_identity(rec_or_id) if isinstance(rec_or_id, str) else rec_or_id
    # a record that is not jet-derived is the order-0 case: no lift, values
    # only; an exact jet compares all three components
    order = 0 if rec.kind != "jet-derived" else 2 if rec.lhs.terminating else rec.order
    report = _check(rec, rec.kind, options, record_rng(options.seed, rec.id), order)
    if report.verdict == "fail" and rec.fallback and follow_fallback:
        fb = verify_identity(rec.fallback, options, follow_fallback=False)
        report.notes = f"stated form fails; variant {rec.fallback} verdict: {fb.verdict}"
    return report


def verify_all(options: Optional[VerifyOptions] = None, *,
               include_variants: bool = False) -> Tuple[List[VerificationReport], Dict[str, int]]:
    """Verify the whole corpus in order; returns (reports, summary counts).

    Deliberately-wrong variant records (``expect = fail``) are skipped unless
    ``include_variants`` is set; per-record errors are aggregated, never
    raised.
    """
    options = options or VerifyOptions()
    reports = [verify_identity(rec, options)
               for rec in list_identities(include_variants=include_variants)]
    summary = {"pass": 0, "fail": 0, "error": 0}
    for rep in reports:
        summary[rep.verdict] += 1
    return reports, summary


# ------------------------------------------------- operator-method checking


def operator_derive_check(rec_or_id: Union[str, IdentityRecord], parameter: str,
                          order: int, point: Optional[Fraction] = None,
                          bindings: Optional[dict] = None,
                          options: Optional[VerifyOptions] = None) -> VerificationReport:
    """Differentiate an identity of any kind with respect to ``parameter``.

    The parameter is lifted to a jet at a rational point, substitution
    bindings (values or DSL expressions such as ``c = 2-b``, evaluated after
    the lift so they may depend on the active parameter) are applied, and the
    jet components up to ``order`` are compared by the one check, on the
    record this call derives.  This reproduces applying a derivative operator
    once or twice to the identity.  ``verify_identity`` compares all three
    components of a terminating jet-derived record, whatever its ``order``.
    A bound derived parameter, an undeclared one without a point, or a count
    (``nmax``, ``int``) raises UnknownParameterError.
    """
    options = options or VerifyOptions()
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    rec = get_identity(rec_or_id) if isinstance(rec_or_id, str) else rec_or_id
    bindings = bindings or {}
    declared = {p.name: p.domain for p in rec.params}
    if parameter in bindings:
        raise UnknownParameterError(
            f"{rec.id}: parameter {parameter!r} is the one derived; give its point with --point")
    if parameter not in declared and point is None:
        raise UnknownParameterError(
            f"{rec.id} has no parameter {parameter!r} and no point was given")
    domain = declared.get(parameter, Domain("rat7"))
    if domain.kind in ("nmax", "int"):
        raise UnknownParameterError(
            f"{rec.id}: parameter {parameter!r} is a count and has no derivative")
    # the record checked: bound names out, the derived parameter last (a point: one value)
    derived = ParamSpec(parameter, domain if point is None else Domain("set", values=(point,)))
    params = tuple(p for p in rec.params if p.name != parameter and p.name not in bindings)
    rec = replace(rec, params=params + (derived,), active=parameter)
    # parsed (and so compiled) once, not once per attempt
    subs = {name: dsl.parse_closed_form(v).expr if isinstance(v, str) else Fraction(v)
            for name, v in bindings.items()}
    rng = record_rng(options.seed, rec.id, salt=f"derive:{parameter}:{order}")
    return _check(rec, f"derive-{parameter}-d{order}", options, rng, order, subs)


# --------------------------------------------------------- mutation testing


def _count_literals(node) -> int:
    if isinstance(node, dsl.Num):
        return 1
    return sum(_count_literals(child) for _, child in dsl.children(node))


def _bump_literal(node, target: int, counter: list):
    """Rebuild the AST with the target-th integer literal incremented by 1."""
    if isinstance(node, dsl.Num):
        counter[0] += 1
        if counter[0] - 1 == target:
            return dsl.Num(node.value + 1)
        return node
    changes = {}
    for name, child in dsl.children(node):
        new = _bump_literal(child, target, counter)
        if new is not child:
            changes[name] = new
    if changes:
        return replace(node, **changes)
    return node


def mutation_candidates() -> List[IdentityRecord]:
    """Corpus records whose right-hand side has an integer literal to perturb."""
    return [rec for rec in list_identities(include_variants=False)
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
