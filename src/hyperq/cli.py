"""Command-line front end.

Commands:

    hyperq list                      show the corpus
    hyperq verify <id>|all [...]     verify one identity or the whole corpus
    hyperq eval "<dsl>" [...]        evaluate an ad-hoc series or closed form
    hyperq derive --id I --param P   operator-method derivative check
    hyperq pi --digits D             print digits of pi

Exit codes: 0 success, 1 verification failure, 2 usage, parse or domain error,
3 convergence or internal error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import corpus, dsl, series, verify
from .functions import DomainError, pi_constant

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
_OPTION = re.compile(r"--[A-Za-z][A-Za-z0-9_-]*(=|\Z)")  # --name or --name=value
_DEFAULTS = verify.VerifyOptions()  # the one definition of the defaults the options share


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _q_list(text: str):
    return tuple(_fraction(part) for part in text.split(","))


def _add_verify_flags(p: argparse.ArgumentParser):
    p.add_argument("--digits", type=int, help="residual tolerance 10^-digits")
    p.add_argument("--work-digits", type=int,
                   help="working precision in digits (default digits+10)")
    p.add_argument("--samples", type=int, help="exact samples per identity")
    p.add_argument("--seed", type=int, help="sampler seed")
    p.add_argument("--q", dest="q_values", metavar="Q", type=_q_list,
                   help="comma-separated q values, e.g. 1/3,1/2,7/10")
    p.add_argument("--max-n", type=int, help="largest terminating order sampled")
    p.add_argument("--terms-budget", type=int,
                   help="term budget before a series is declared non-geometric")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(**vars(_DEFAULTS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="verify hypergeometric and q-series identities, exactly or to n digits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the identity corpus")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="verify one identity or 'all'")
    p_verify.add_argument("target", help="identity id, or 'all'")
    p_verify.add_argument("--include-variants", action="store_true",
                          help="also run deliberately wrong variant records")
    _add_verify_flags(p_verify)

    p_eval = sub.add_parser("eval", help="evaluate a DSL series or closed form")
    p_eval.add_argument("text", help="DSL text, e.g. 'sum k=0..n : 1'")
    p_eval.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="bind a parameter to a rational (repeatable)")
    p_eval.add_argument("--digits", type=int, default=_DEFAULTS.digits)
    p_eval.add_argument("--terms-budget", type=int, default=_DEFAULTS.terms_budget)

    p_derive = sub.add_parser("derive", help="operator-method derivative check")
    p_derive.add_argument("--id", required=True, help="identity id")
    p_derive.add_argument("--param", required=True, help="parameter to differentiate")
    p_derive.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_derive.add_argument("--point", type=_fraction, default=None,
                          help="rational point for the lift (sampled when omitted)")
    p_derive.add_argument("--bind", action="append", default=[], metavar="NAME=EXPR",
                          help="substitution binding, e.g. c=2-b (repeatable)")
    p_derive.add_argument("--samples", type=int, default=10,
                          help="draws for a terminating identity")
    p_derive.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p_derive.add_argument("--q", dest="q_values", metavar="Q", type=_q_list,
                          default=_DEFAULTS.q_values,
                          help="comma-separated q values for a 'q in qvals' record")
    p_derive.add_argument("--max-n", type=int, default=_DEFAULTS.max_n)

    p_pi = sub.add_parser("pi", help="print digits of pi")
    p_pi.add_argument("--digits", type=int, default=_DEFAULTS.digits)

    return parser


_LEAST = {"digits": 4, "samples": 1, "max_n": 0, "terms_budget": 1}  # least value of each option


def _check_common(args):
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise argparse.ArgumentTypeError(
                f"--{name.replace('_', '-')} must be at least {least}")
    work_digits = getattr(args, "work_digits", None)
    if work_digits is not None and work_digits < args.digits:
        # fewer working digits than the tolerance asks for can print a false PASS
        raise argparse.ArgumentTypeError("--work-digits must be at least --digits")


def _options_from(args) -> verify.VerifyOptions:
    return verify.VerifyOptions(**{name: getattr(args, name) for name in vars(_DEFAULTS)})


def _cmd_list(args) -> int:
    records = corpus.list_identities()
    for rec in records:
        if args.format == "json":
            import json
            print(json.dumps({"id": rec.id, "kind": rec.kind, "anchor": rec.anchor,
                              "variant": rec.expect_fail}))
        else:
            mark = "  [expected-fail variant]" if rec.expect_fail else ""
            print(f"{rec.id:10s} {rec.kind:18s} {rec.anchor}{mark}")
    return EXIT_OK


def _print_report(report, fmt: str):
    print(report.machine_line() if fmt == "json" else report.text_line())


# the exit code of each verdict; a run of several exits with the largest
_VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "error": EXIT_INTERNAL}


def _cmd_verify(args) -> int:
    options = _options_from(args)
    if args.target == "all":
        reports, summary = verify.verify_all(options, include_variants=args.include_variants)
        for rep in reports:
            _print_report(rep, args.format)
        if args.format == "text":
            print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
                  f"{summary['error']} error")
        return max((_VERDICT_EXIT[rep.verdict] for rep in reports), default=EXIT_OK)
    report = verify.verify_identity(args.target, options)
    _print_report(report, args.format)
    return _VERDICT_EXIT[report.verdict]


def _parse_bindings(pairs, allow_expr: bool):
    bindings = {}
    for item in pairs:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        value = value.strip()
        try:
            bindings[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            if not allow_expr:
                raise argparse.ArgumentTypeError(f"not a rational number: {value!r}")
            bindings[name] = value
    return bindings


def _exact_text(value) -> str:
    """``str`` of an exact value of any size: ``Decimal`` prints integers past
    the interpreter's limit on converting an int to a decimal string."""
    value = Fraction(value)
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _tail_bounded_text(value, bound, digits: int) -> str:
    """``value`` to at most ``digits`` significant digits, none in a place
    below its absolute error: ``bound`` plus the rounding of ``value``."""
    v = abs(value.to_fraction())
    err = bound.to_fraction() + v / 2 ** value.prec
    shown = v and verify._floor_log10(v) + verify._floor_log10(1 / err) + 1
    return value.to_decimal(min(digits, shown)) if shown > 0 else "0.0"


def _shield_minus(argv):
    """``argv`` with the DSL text of ``eval`` kept positional when it starts with a minus.

    argparse takes "-10^5000/3" and "--0" for unknown options.  Each ``eval`` token
    that starts with a dash, other than ``-h`` and an ``_OPTION``, gets a leading
    space, which argparse leaves positional and ``_cmd_eval`` strips; ``--bogus``,
    text such as ``--a`` and everything after ``--`` are untouched.
    """
    if argv[:1] != ["eval"]:
        return argv
    shielded = argv[:1]
    for i, token in enumerate(argv[1:], 1):
        if token == "--":
            return shielded + argv[i:]
        dashed = token.startswith("-") and token != "-h" and not _OPTION.match(token)
        shielded.append(" " + token if dashed and len(token) > 1 else token)
    return shielded


def _cmd_eval(args) -> int:
    bindings = _parse_bindings(args.param, allow_expr=False)
    side = dsl.parse_side(args.text[1:] if args.text.startswith(" -") else args.text)
    prec = verify.VerifyOptions(digits=args.digits).work_prec
    if isinstance(side, dsl.SeriesSpec):
        if side.terminating:
            print(_exact_text(series.sum_terminating(side, bindings)))
        else:
            value, tail, terms = series.sum_infinite(side, bindings, prec,
                                                     terms_budget=args.terms_budget)
            print(_tail_bounded_text(value, tail.bound, args.digits))
            print(f"tail bound <= {tail.bound.to_decimal(3)} after {terms} terms "
                  f"(ratio {tail.ratio.to_decimal(3)} at k={tail.start_index})")
    else:
        try:
            value = series.evaluate_closed(side, bindings)
        except series.EvalError:  # no exact value (pi, an irrational sqrt, ...)
            print(series.evaluate_closed(side, bindings, prec).to_decimal(args.digits))
        else:
            print(_exact_text(value))
    return EXIT_OK


def _cmd_derive(args) -> int:
    options = verify.VerifyOptions(seed=args.seed, samples=args.samples, max_n=args.max_n,
                                   q_values=args.q_values)
    bindings = _parse_bindings(args.bind, allow_expr=True)
    report = verify.operator_derive_check(args.id, args.param, args.order,
                                          point=args.point, bindings=bindings,
                                          options=options)
    print(report.text_line())
    return _VERDICT_EXIT[report.verdict]


def _cmd_pi(args) -> int:
    prec = math.ceil(args.digits * math.log2(10)) + 32
    print(pi_constant(prec).to_decimal(args.digits))
    return EXIT_OK


_DISPATCH = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "pi": _cmd_pi,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_shield_minus(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_common(args)
        return _DISPATCH[args.command](args)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:  # its str() is the repr of the message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (corpus.CorpusError, argparse.ArgumentTypeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, series.EvalError, verify.SampleExhaustedError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
