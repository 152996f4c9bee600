"""CLI contract: commands, flags, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp

from hyperq import dsl, series
from hyperq.cli import main
from hyperq.scalars import HighPrecision

CLI = [sys.executable, "-m", "hyperq"]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=full_env, timeout=600)


class TestExitCodes:
    def test_verify_pass_is_zero(self):
        out = run_cli("verify", "R1", "--digits", "40")
        assert out.returncode == 0
        assert "PASS" in out.stdout

    def test_verify_fail_is_one(self):
        out = run_cli("verify", "SA-UNC", "--digits", "20")
        assert out.returncode == 1
        assert "FAIL" in out.stdout

    def test_parse_error_is_two_with_position(self):
        out = run_cli("eval", "sum k=0..n : poch(1/2,")
        assert out.returncode == 2
        assert "1:23" in out.stderr

    def test_unknown_id_is_two(self):
        out = run_cli("verify", "NOPE")
        assert out.returncode == 2

    def test_usage_error_is_two(self):
        out = run_cli("verify")
        assert out.returncode == 2

    def test_convergence_error_is_three(self):
        out = run_cli("eval", "sum k=0..inf : 1/(k+1)^2", "--terms-budget", "2000")
        assert out.returncode == 3

    def test_divergent_series_is_three(self):
        # the term ratio 2(k+1)/(k+1000) passes 1 only at k = 999
        out = run_cli("eval", "sum k=0..inf : poch(1,k)*2^k/poch(1000,k)")
        assert out.returncode == 3
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert "NonGeometricTailError" in out.stderr

    def test_cancelling_series_keeps_its_digits(self):
        out = run_cli("eval", "sum k=0..inf : (-100)^k/fact(k)", "--digits", "30")
        assert out.returncode == 0
        exp = HighPrecision(libmp.mpf_exp(libmp.from_int(-100), 400, "n"), 400)
        value = Fraction(out.stdout.splitlines()[0])
        assert abs(value - exp.to_fraction()) < Fraction(1, 10 ** 30)

    def _assert_domain_error(self, out):
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr

    def test_divergent_q_in_verify_is_two(self):
        self._assert_domain_error(run_cli("verify", "T3a", "--q", "2"))

    def test_divergent_q_in_eval_is_two(self):
        self._assert_domain_error(run_cli("eval", "qpochinf(1/2,1)", "--param", "q=2"))

    def test_sinpi_outside_table_is_two(self):
        self._assert_domain_error(run_cli("eval", "sinpi(1/5)"))

    def _assert_parse_error(self, out, position):
        assert out.returncode == 2
        assert position in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr

    def test_q_sum_before_first_index_is_two(self):
        self._assert_parse_error(run_cli("eval", "qsuminf(1,1,-5,+)", "--param", "q=1/2"), "1:13")

    def test_constant_infinite_q_sum_is_two(self):
        self._assert_parse_error(run_cli("eval", "qsuminf(1,0,1,+)", "--param", "q=1/2"), "1:11")

    def test_harmonic_order_zero_is_two(self):
        self._assert_parse_error(run_cli("eval", "sum k=0..inf : harm(0,k)/2^k"), "1:21")

    def test_q_product_step_zero_is_two(self):
        self._assert_parse_error(run_cli("eval", "qpochinf(q,0)", "--param", "q=1/2"), "1:12")

    def test_non_ascii_digit_is_two(self):
        # '²' passes str.isdigit() but not int(): this was a ValueError traceback
        self._assert_parse_error(run_cli("eval", "2²"), "1:2")

    def test_overlong_integer_literal_is_two(self):
        # beyond the interpreter's limit on integer strings
        self._assert_parse_error(run_cli("eval", "1" * 5000), "1:1")

    def test_deep_parentheses_are_two(self):
        # 3000 levels overflowed the parser's recursion
        self._assert_parse_error(run_cli("eval", "(" * 3000 + "1" + ")" * 3000), "1:65")

    def test_long_sum_chain_is_two(self):
        # a 3000-term chain parsed, then overflowed the compiler's recursion
        self._assert_parse_error(run_cli("eval", "+".join(["1"] * 3000)), "1:128")

    def _assert_eval_error(self, out):
        assert out.returncode == 3
        assert out.stderr.startswith("error: EvalError: ")
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr

    def test_unbound_q_is_three(self):
        out = run_cli("eval", "qint(3)")
        assert out.returncode == 3
        assert out.stderr == "error: UnboundParameterError: parameter 'q' is not bound\n"

    def test_negative_pochhammer_count_is_three(self):
        self._assert_eval_error(run_cli("eval", "poch(1,-1)"))

    def test_negative_q_integer_is_three(self):
        self._assert_eval_error(run_cli("eval", "qint(-1)", "--param", "q=1/2"))

    def test_power_tower_is_three(self):
        # 2^(2^65536) ran until killed, its memory growing
        self._assert_eval_error(run_cli("eval", "2^2^2^2^2^2"))
        self._assert_eval_error(run_cli("eval", "sum k=0..n : 3^(n*n)", "--param", "n=1000"))
        # a float base: this ended in "error: OverflowError: too many digits in integer"
        self._assert_eval_error(run_cli("eval", "(1/2)^2^2^2^2^2"))

    def test_nested_running_products_stop_early(self):
        # 63 nested poch: the value at k = 2 squares at each level; this ran
        # until a 10 s timeout killed it
        term = "k"
        for _ in range(63):
            term = f"poch({term},k)"
        start = time.perf_counter()
        out = run_cli("eval", f"sum k=0..n : {term}", "--param", "n=3")
        assert time.perf_counter() - start < 2
        self._assert_eval_error(out)

    def test_negative_max_n_in_verify_is_two(self):
        self._assert_domain_error(run_cli("verify", "GOS", "--max-n", "-1"))

    def test_negative_max_n_in_derive_is_two(self):
        self._assert_domain_error(run_cli("derive", "--id", "GOS", "--param", "b",
                                          "--max-n", "-1"))

    def test_work_digits_below_digits_is_two(self):
        # at 0 working digits this deliberately wrong variant printed PASS
        self._assert_domain_error(run_cli("verify", "QBB-VAR", "--work-digits", "0"))
        out = run_cli("verify", "QBB-VAR", "--work-digits", "30", "--digits", "30")
        assert out.returncode == 1
        assert "FAIL" in out.stdout

    @pytest.mark.parametrize("args", [["verify", "R1", "--terms-budget", "-1"],
                                      ["eval", "sum k=0..inf : 2^(-k)", "--terms-budget", "0"]])
    def test_terms_budget_below_one_is_two(self, args):
        # these exited 3: "no geometric tail bound within -1 terms"
        out = run_cli(*args)
        self._assert_domain_error(out)
        assert out.stderr == "error: --terms-budget must be at least 1\n"


class TestEval:
    def test_exact_terminating(self):
        out = run_cli("eval", "sum k=0..n : 1", "--param", "n=5")
        assert out.returncode == 0
        assert out.stdout.strip() == "6"

    def test_numeric_with_tail_bound(self):
        out = run_cli("eval", "sum k=0..inf : fact(k)/dfactodd(k)", "--digits", "25")
        assert out.returncode == 0
        assert out.stdout.startswith("1.570796326794896619231322")  # correctly rounded at 25 digits
        assert "tail bound" in out.stdout

    def test_tail_bounded_digits_are_correct(self):
        # the tail bound, about 7e-52, is absolute and the value is near
        # 3.7e-44: only the digits above the bound are printed, all e^-100's
        out = run_cli("eval", "sum k=0..inf : (-100)^k/fact(k)", "--digits", "30")
        assert out.returncode == 0
        printed = out.stdout.splitlines()[0]
        mantissa = printed.split("e")[0].replace(".", "")
        assert 6 <= len(mantissa) < 30
        exp = libmp.mpf_exp(libmp.from_int(-100), 400, "n")
        assert printed == libmp.to_str(exp, len(mantissa))

    def test_integer_valued_infinite_sum(self):
        # every term is a Python int, so neither run of the double evaluation
        # holds a float until the policy converts it (this used to raise
        # AttributeError with a traceback)
        out = run_cli("eval", "sum k=0..inf : 0^k")
        assert out.returncode == 0
        assert out.stdout.startswith("1.0\n")

    @pytest.mark.parametrize("args, expected", [
        (["10^5000"], "1" + "0" * 5000),
        (["sum k=0..n : 10^k", "--param", "n=5000"], "1" * 5001),
        (["(0-10)^4301/3"], "-1" + "0" * 4301 + "/3"),
        (["1/10^4400"], "1/1" + "0" * 4400),
    ])
    def test_exact_values_past_the_string_limit(self, args, expected):
        # these printed a ValueError traceback with exit 1: str(int) refuses
        # more than 4300 digits
        out = run_cli("eval", *args)
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected + "\n"

    def test_leading_minus(self):
        # argparse took this for an option: a usage error, exit 2
        out = run_cli("eval", "-10^5000/3")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "-1" + "0" * 5000 + "/3\n"

    @pytest.mark.parametrize("args, expected", [
        (["--", "-1/3"], "-1/3"),
        (["-q^2", "--param", "q=1/3"], "-1/9"),
        (["--param", "q=1/3", "-q^2"], "-1/9"),
        (["--0"], "0"),  # argparse alone takes these for unknown options
        (["--sqrt(4)"], "2"),
        (["---a^1", "--param", "a=2"], "-2"),
        (["--param", "a=2", "--", "--a"], "2"),  # text that reads as an option
    ])
    def test_leading_minus_beside_other_arguments(self, args, expected):
        out = run_cli("eval", *args)
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected + "\n"

    def test_leading_minus_keeps_error_positions(self):
        for args in (["-1+"], ["--", "-1+"]):
            out = run_cli("eval", *args)
            assert out.returncode == 2
            assert ":1:4:" in out.stderr

    @pytest.mark.parametrize("args", [["--bogus", "1"], ["-1/3", "--bogus"]])
    def test_unknown_option_is_two(self, args):
        out = run_cli("eval", *args)
        assert out.returncode == 2
        assert "--bogus" in out.stderr or "usage" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("text, expected", [
        ("fact(80000)", "3.09772225166224928639821327991e+357506"),
        ("dfactodd(80000)", "2.48140516838373274700007650761e+381591"),
        ("poch(1/3,100000)", "4.89331761376982757623294667627e+456569"),
    ])
    def test_factorial_past_the_exact_limit_prints_floats(self, text, expected):
        # refused exactly from its count, then printed as a float (mpmath's value)
        out = run_cli("eval", text)
        assert out.returncode == 0
        assert out.stdout.strip() == expected
        assert out.stderr == ""

    def test_closed_form(self):
        out = run_cli("eval", "4/pi", "--digits", "20")
        assert out.returncode == 0
        assert out.stdout.startswith("1.2732395447351626862")  # correctly rounded at 20 digits


class TestEvalInProcess:
    """``eval`` run through ``main`` in this process: stdout, stderr, exit code."""

    @staticmethod
    def _run(capsys, *args):
        status = main(["eval", *args])
        out = capsys.readouterr()
        return status, out.out, out.err

    @pytest.mark.parametrize("text,expected", [("sum\tk=0..3 : k", "6"),
                                               ("sum\nk=0..2 : k", "3"),
                                               ("# note\nsum k=0..2 : k", "3")])
    def test_series_after_any_whitespace_or_comment(self, capsys, text, expected):
        assert self._run(capsys, text) == (0, expected + "\n", "")

    def test_keyword_parameter_is_two(self, capsys):
        status, out, err = self._run(capsys, "inf*2", "--param", "inf=3")
        assert (status, out) == (2, "")
        assert "expected a parameter name, found 'inf'" in err

    def test_disagreeing_double_evaluation_is_three(self, capsys):
        # 2^200 leaves pi few bits at either run's precision, and the runs round it apart
        assert self._run(capsys, "(2^200 + pi) - 2^200", "--digits", "30") == (
            3, "", "error: PrecisionLossError: closed-form evaluation at 165 and 197 bits "
                   "disagrees beyond 2^-157\n")

    def test_zero_q_integer_in_a_q_sum_is_three(self, capsys):
        assert self._run(capsys, "qsum(1,1,0,+,3)", "--param", "q=-1") == (
            3, "", "error: PoleInTermError: zero q-integer [2] in a q-sum denominator\n")

    @pytest.mark.parametrize("text,message", [
        # the count k-1 is tested once, by the first atom that computes it
        ("sum k=0..3 : poch(2,k-1)*fact(k-1)", "EvalError: poch of a negative count -1"),
        ("sum k=0..3 : fact(k-1)*poch(2,k-1)", "EvalError: fact of a negative count -1"),
        ("fact(pi)", "EvalError: PiConst is not valid in an integer position"),
    ])
    def test_refused_count_is_three(self, capsys, text, message):
        assert self._run(capsys, text) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("args,expected", [
        (["poch(1/2,3)"], "15/8"),                   # an exact closed form
        (["--param", "a=2", "--", "--a"], "2"),      # text after -- is never an option
    ])
    def test_exact_value(self, capsys, args, expected):
        assert self._run(capsys, *args) == (0, expected + "\n", "")

    def test_negated_term_takes_the_split_path(self, capsys):
        text = "sum k=0..inf : -(1/2)^k"
        assert series._analysed(dsl.parse_series_spec(text), {}) is not None
        assert self._run(capsys, text) == (
            0, "-2.0\ntail bound <= 1.32e-51 after 176 terms (ratio 0.984 at k=175)\n", "")

    # False values with exit 0 (ROADMAP items 1 and 6): every term or operand is
    # rounded, so pi's contribution cancels to 0 at both runs' precisions, and
    # for the sum the zero-run shortcut then claims a zero tail.  The correct
    # outcome is exit 3, or a value within 10^-29 of pi (2*pi for the sum).
    @pytest.mark.xfail(strict=True, reason="cancellation of a rounded constant passes as 0.0")
    @pytest.mark.parametrize("text,multiple", [("pi + 2^300 - 2^300", 1),
                                               ("sum k=0..inf : (2^300 + pi/2^k) - 2^300", 2)])
    def test_cancelled_constant_is_refused_or_kept(self, capsys, text, multiple):
        status, out, err = self._run(capsys, text, "--digits", "30")
        if status != 3:
            assert status == 0
            with mpmath.workdps(50):
                error = abs(mpmath.mpf(out.splitlines()[0]) - multiple * mpmath.pi)
                assert error <= mpmath.mpf(10) ** -29

    # More false values with exit 0 (ROADMAP item 14).  poch(k-100,90) is 0 for
    # k = 11..100 and poch(k-200,150) for k = 51..200; after the run of zeros the
    # terms return, but the summation stops inside it with "tail bound <= 0.0".
    # The correct outcome is exit 3, or a nonzero bound that holds against the
    # exact partial sum to k = 1000.
    @pytest.mark.xfail(strict=True, reason="a run of zero terms is taken for a zero tail")
    @pytest.mark.parametrize("term", ["poch(k-100,90)*100^k/fact(k)",
                                      "poch(k-200,150)/fact(k)"])
    def test_zero_run_is_refused_or_bounded(self, capsys, term):
        status, out, err = self._run(capsys, f"sum k=0..inf : {term}")
        if status != 3:
            assert status == 0
            value, bound = out.splitlines()
            bound = Fraction(bound.split()[3])
            assert bound > 0
            expr, ctx = dsl.parse_closed_form(term).expr, series.RationalContext()
            exact = sum(series.evaluate_expr(expr, {"k": Fraction(k)}, ctx) for k in range(1001))
            with mpmath.workdps(60):
                error = abs(mpmath.mpf(value) - mpmath.mpf(exact.numerator) / exact.denominator)
                assert error <= bound + abs(mpmath.mpf(value)) * mpmath.mpf(10) ** -28

    @pytest.mark.xfail(strict=True, reason="a diverging q-series is summed to a value")
    def test_divergent_q_series_is_three(self, capsys):
        # qpoch(-2^60,1,k) tends to a constant, so the terms grow like (3/2)^k
        status, out, err = self._run(capsys, "sum k=0..inf : (3/2)^k/qpoch(-2^60,1,k)",
                                     "--param", "q=1/2")
        assert status == 3

    # the runs that tests/golden/eval.txt pins: closed forms with repeated
    # constants, exact and infinite sums on both summation paths, two refusals
    GOLDEN_RUNS = [
        ["pi*pi", "--digits", "50"],
        ["sqrt(2)*sqrt(2)"],
        ["qsuminf(2,2,0,+)*qsuminf(2,2,0,+)", "--param", "q=1/2"],
        ["sum k=0..n : poch(-n,k)*poch(b,k)/(poch(c,k)*fact(k))",
         "--param", "n=6", "--param", "b=1/3", "--param", "c=5/2"],
        ["sum k=0..inf : (6*k+1)*poch(1/2,k)^3/(fact(k)^3*4^k)", "--digits", "100"],
        ["sum k=0..inf : q^(k*(k+1)/2)*qpoch(q,1,k)/qpoch(q^3,2,k)", "--param", "q=1/2"],
        ["sum k=0..inf : poch(1,k)*2^k/poch(1000,k)"],
        ["sum k=0..inf : 1/((k-40)*2^k)"],
    ]

    def test_golden_replay(self, capsys):
        lines = []
        for args in self.GOLDEN_RUNS:
            status, out, err = self._run(capsys, *args)
            lines.append("$ hyperq eval " + " ".join(args))
            lines += out.splitlines() + ["stderr: " + line for line in err.splitlines()]
            lines.append(f"exit {status}")
        assert "\n".join(lines) + "\n" == (GOLDEN / "eval.txt").read_text()


class TestVerifyAllGolden:
    """``verify all --format json`` through ``main`` in this process, against
    the committed 30-digit goldens (the 300-digit and deep ones run in CI)."""

    RUNS = [
        ("verify-all-seed0.json", ["--seed", "0"], 0),
        ("verify-all-seed7.json", ["--seed", "7"], 0),
        # the q half of the corpus where the q-products take the most factors
        ("verify-all-seed0-q7-10.json", ["--seed", "0", "--q", "7/10"], 0),
        # verdict, terms and samples of the exact and jet records at 200 samples
        ("verify-all-seed0-s200.json", ["--seed", "0", "--samples", "200"], 0),
        # the deliberately wrong variants fail, so exit status 1 is the expected one
        ("verify-all-variants-seed0.json", ["--include-variants", "--seed", "0"], 1),
    ]

    @pytest.mark.parametrize("golden,args,status", RUNS, ids=[run[0] for run in RUNS])
    def test_golden_replay(self, capsys, golden, args, status):
        assert main(["verify", "all", "--format", "json", *args]) == status
        out = capsys.readouterr()
        assert (out.out, out.err) == ((GOLDEN / golden).read_text(), "")


class TestJetRecordResiduals:
    """Jet-derived records through ``verify``: an exact one compares f, f' and
    f'' whatever its order; a numeric one divides each component's residual
    by max(1, |left component|)."""

    @staticmethod
    def _verify(tmp_path, monkeypatch, capsys, lhs, rhs):
        alt = tmp_path / "jet.txt"
        alt.write_text("[identity]\nid = J\nkind = jet-derived\n"
                       f"lhs = {lhs}\nrhs = {rhs}\n"
                       "params = x in {1}\nactive = x\norder = 1\nanchor = test corpus\n")
        monkeypatch.setenv("HYPERQ_CORPUS", str(alt))
        status = main(["verify", "J", "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        return status, record["verdict"], record["residual"], record["samples"]

    @pytest.mark.parametrize("rhs,expected", [("x^2", (0, "pass", "0", 1)),
                                              # agrees with x^2 in f and f' at x = 1
                                              ("2*x - 1", (1, "fail", "2.00e+00", 1))])
    def test_exact_compares_the_second_derivative(self, tmp_path, monkeypatch, capsys,
                                                  rhs, expected):
        assert self._verify(tmp_path, monkeypatch, capsys, "sum k=0..0 : x^2", rhs) == expected

    @pytest.mark.parametrize("gap,expected", [(10, (0, "pass", "5.00e-31", 1)),
                                              (11, (1, "fail", "5.00e-30", 1))])
    def test_numeric_residual_is_relative(self, tmp_path, monkeypatch, capsys, gap, expected):
        # an absolute gap of 10^gap beside a value of 2*10^40, at 30 digits
        assert self._verify(tmp_path, monkeypatch, capsys, "sum k=0..inf : x*10^40/2^k",
                            f"2*10^40*x + 10^{gap}") == expected


class TestPi:
    def test_digits(self):
        out = run_cli("pi", "--digits", "40")
        assert out.returncode == 0
        assert out.stdout.strip() == "3.141592653589793238462643383279502884197"

    def test_minimum_digits_enforced(self):
        out = run_cli("pi", "--digits", "2")
        assert out.returncode == 2

    @pytest.mark.parametrize("digits", [4, 40, 5000])
    def test_digits_in_process(self, capsys, digits):
        status = main(["pi", "--digits", str(digits)])
        out = capsys.readouterr()
        prec = math.ceil(digits * math.log2(10)) + 32
        assert (status, out.out, out.err) == (
            0, libmp.to_str(libmp.mpf_pi(prec, "n"), digits) + "\n", "")

    def test_too_few_digits_in_process(self, capsys):
        status = main(["pi", "--digits", "3"])
        out = capsys.readouterr()
        assert (status, out.out) == (2, "")
        assert out.err == "error: --digits must be at least 4\n"


class TestList:
    def test_contains_corpus(self):
        out = run_cli("list")
        assert out.returncode == 0
        assert "R1" in out.stdout and "T6" in out.stdout
        assert "expected-fail variant" in out.stdout

    def test_alternate_corpus_via_env(self, tmp_path):
        alt = tmp_path / "mini.txt"
        alt.write_text(
            "[identity]\n"
            "id = MINI\n"
            "kind = infinite-numeric\n"
            "lhs = sum k=0..inf : (6*k+1)*poch(1/2,k)^3/(fact(k)^3*4^k)\n"
            "rhs = 4/pi\n"
            "params =\n"
            "anchor = test corpus\n")
        out = run_cli("list", env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == 0
        assert "MINI" in out.stdout
        assert "R1" not in out.stdout
        out = run_cli("verify", "MINI", "--digits", "20", env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == 0


class TestMalformedCorpus:
    """A malformed corpus field is a CorpusError naming its file and line."""

    @pytest.mark.parametrize("params,extra,error", [
        ("n in int(0..x), a in rat7", "", ":6: BAD: params: malformed"),
        ("n in qpow(0..x), a in rat7", "", ":6: BAD: params: malformed"),
        # passed parsing, then failed in random.randint at sampling time
        ("n in int(5..1), a in rat7", "", ":6: BAD: params: empty"),
        # ended in ZeroDivisionError with exit 3
        ("n in nmax, a in {1/0}", "", ":6: BAD: params: malformed"),
        ("n in nmax, a in rat7", "order = two\n", ":8: BAD: order: "),
    ])
    def test_field_error_is_two(self, tmp_path, params, extra, error):
        alt = tmp_path / "bad.txt"
        alt.write_text(
            "[identity]\n"
            "id = BAD\n"
            "kind = terminating-exact\n"
            "lhs = sum k=0..n : poch(a,k)\n"
            "rhs = 1\n"
            f"params = {params}\n"
            "anchor = test corpus\n" + extra)
        out = run_cli("list", env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == 2
        assert out.stderr.startswith(f"error: {alt}{error}")
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr


class TestReproducibility:
    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_value_does_not_depend_on_the_hash_seed(self, seed):
        # a memo keyed by object address once answered for a freed transient
        # node's successor at the same address, so under some hash seeds q^2
        # was taken as free of the index q and computed once per sum (the
        # value is checked against a plain Fraction loop).  Whether an address
        # is reused depends on memory layout as well as on the hash seed, so
        # this catches that aliasing only by chance; the reliable guard is
        # tests/test_term_program.py::test_transient_nodes_keep_their_index_dependence
        text = "sum q=0..4 : qpoch(x,2,3)*qpoch(x,2,4)*qpoch(y,2,5)*qpoch(x+y,2,2)"
        out = run_cli("eval", text, "--param", "x=1/3", "--param", "y=2/7",
                      env={"PYTHONHASHSEED": seed})
        assert (out.returncode, out.stdout) == (0, "5980652194031272548183912160/5403265623\n")

    def test_seeded_json_output_is_byte_identical(self):
        args = ("verify", "QB", "--format", "json", "--seed", "7",
                "--samples", "5", "--digits", "20")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        record = json.loads(first.stdout)
        assert list(record.keys()) == ["id", "mode", "verdict", "residual",
                                       "tolerance", "terms", "samples", "elapsed-ms"]
        assert record["elapsed-ms"] == 0


class TestDerive:
    def test_gosper_derivative(self):
        out = run_cli("derive", "--id", "GOS", "--param", "b", "--order", "2",
                      "--bind", "c=2-b", "--samples", "4")
        assert out.returncode == 0
        assert "PASS" in out.stdout

    @pytest.mark.parametrize("rhs,code", [("x^2*(1-q^(n+1))/(1-q)", 0),
                                          ("x^2*(1-q^(n+2))/(1-q)", 1)])
    def test_qvals_parameter_is_bound_per_q(self, tmp_path, rhs, code):
        # q in qvals cannot be drawn: derive binds it to each q value, as verify does
        alt = tmp_path / "qx.txt"
        alt.write_text(
            "[identity]\n"
            "id = QX\n"
            "kind = terminating-exact\n"
            "lhs = sum k=0..n : x^2*q^k\n"
            f"rhs = {rhs}\n"
            "params = q in qvals, x in rat7, n in nmax\n"
            "anchor = finite geometric sum\n")
        out = run_cli("derive", "--id", "QX", "--param", "x", "--order", "2",
                      "--samples", "3", env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == code, out.stderr
        assert ("PASS" if code == 0 else "FAIL") in out.stdout
        assert "samples=3" in out.stdout  # at the default q = 1/2
        out = run_cli("derive", "--id", "QX", "--param", "x", "--order", "2", "--q", "1/3,1/2",
                      "--samples", "3", env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == code, out.stderr
        assert "samples=6" in out.stdout  # three draws at each q

    def test_infinite_record_is_compared_to_its_tolerance(self):
        # SBD's lhs is an infinite q-series; derive refused it with exit 3
        out = run_cli("derive", "--id", "SBD", "--param", "x")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("PASS  SBD")
        assert "tol=1.00e-30" in out.stdout

    @pytest.mark.parametrize("rid,parameter", [("GOS", "n"), ("R1", "x")])
    def test_count_or_undeclared_parameter_is_two(self, rid, parameter):
        # each exited 3: n, a count, was lifted to a jet; R1 has no x
        out = run_cli("derive", "--id", rid, "--param", parameter)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1

    def test_unknown_id_reads_as_in_verify(self):
        # derive printed the KeyError's repr, quotes and all
        for args in (["verify", "NOPE"], ["derive", "--id", "NOPE", "--param", "b"]):
            out = run_cli(*args)
            assert (out.returncode, out.stderr) == (2, "error: unknown identity id 'NOPE'\n")


class TestDeriveInProcess:
    """``derive`` and ``verify`` through ``main`` on an alternate corpus: an
    infinite record is compared up to the order, and an evaluation error is
    a report line on stdout."""

    CORPUS = ("[identity]\nid = SQ\nkind = infinite-numeric\n"
              "lhs = sum k=0..inf : x^2/2^(k+1)\nrhs = 2*x - 1\n"
              "params = x in rat7\nanchor = test corpus\n\n"
              "[identity]\nid = POLE\nkind = terminating-exact\n"
              "lhs = sum k=0..2 : 1/(x-1)\nrhs = 0\n"
              "params = x in {1}\nanchor = test corpus\n")

    @pytest.mark.parametrize("args,status,parts", [
        # x^2 and 2x - 1 agree in value and slope at x = 1, not in curvature
        (["derive", "--id", "SQ", "--param", "x", "--point", "1"], 0,
         ["PASS  SQ", "residual=0", "tol=1.00e-30", "samples=1"]),
        (["derive", "--id", "SQ", "--param", "x", "--point", "1", "--order", "2"], 1,
         ["FAIL  SQ", "residual=1.00e+00"]),
        # with nothing to draw, the pole is the verdict
        (["derive", "--id", "POLE", "--param", "x", "--point", "1"], 3,
         ["ERROR POLE", "PoleInTermError"]),
        (["verify", "POLE"], 3, ["ERROR POLE", "PoleInTermError"]),
    ])
    def test_report_line(self, tmp_path, monkeypatch, capsys, args, status, parts):
        alt = tmp_path / "derive.txt"
        alt.write_text(self.CORPUS)
        monkeypatch.setenv("HYPERQ_CORPUS", str(alt))
        assert main(args) == status
        out = capsys.readouterr()
        assert out.err == "" and len(out.out.splitlines()) == 1
        assert all(part in out.out for part in parts), out.out


class TestVerifyAllSubset:
    def test_json_lines_and_summary(self, tmp_path):
        alt = tmp_path / "two.txt"
        alt.write_text(
            "[identity]\n"
            "id = A\n"
            "kind = infinite-numeric\n"
            "lhs = sum k=0..inf : fact(k)/dfactodd(k)\n"
            "rhs = pi/2\n"
            "params =\n"
            "anchor = half pi\n"
            "\n"
            "[identity]\n"
            "id = B\n"
            "kind = infinite-numeric\n"
            "lhs = sum k=0..inf : fact(k)/dfactodd(k)\n"
            "rhs = pi/3\n"
            "params =\n"
            "anchor = wrong on purpose\n")
        out = run_cli("verify", "all", "--format", "json", "--digits", "20",
                      env={"HYPERQ_CORPUS": str(alt)})
        assert out.returncode == 1
        lines = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
        assert [l["id"] for l in lines] == ["A", "B"]
        assert [l["verdict"] for l in lines] == ["pass", "fail"]


class TestMainInProcess:
    """``list``, ``verify``, ``derive`` and usage errors through ``main`` in this
    process: stdout, stderr and exit code.  Each error that ``main`` reports is
    one stderr line; argparse's own errors put its usage block before theirs."""

    CORPUS = ("[identity]\nid = A\nkind = infinite-numeric\n"
              "lhs = sum k=0..inf : fact(k)/dfactodd(k)\nrhs = pi/2\nparams =\nanchor = half pi\n"
              "\n[identity]\nid = B\nkind = infinite-numeric\n"
              "lhs = sum k=0..inf : fact(k)/dfactodd(k)\nrhs = pi/3\nparams =\n"
              "anchor = wrong on purpose\nexpect = fail\n")

    @staticmethod
    def _run(capsys, *args):
        status = main(list(args))
        out = capsys.readouterr()
        return status, out.out, out.err

    @pytest.fixture
    def two_records(self, tmp_path, monkeypatch):
        path = tmp_path / "two.txt"
        path.write_text(self.CORPUS)
        monkeypatch.setenv("HYPERQ_CORPUS", str(path))

    def test_list_as_text(self, capsys, two_records):
        assert self._run(capsys, "list") == (0, (
            "A          infinite-numeric   half pi\n"
            "B          infinite-numeric   wrong on purpose  [expected-fail variant]\n"), "")

    def test_list_as_json(self, capsys, two_records):
        status, out, err = self._run(capsys, "list", "--format", "json")
        assert (status, err) == (0, "")
        assert [json.loads(line) for line in out.splitlines()] == [
            {"id": "A", "kind": "infinite-numeric", "anchor": "half pi", "variant": False},
            {"id": "B", "kind": "infinite-numeric", "anchor": "wrong on purpose",
             "variant": True}]

    def test_verify_all_summary(self, capsys, two_records):
        status, out, err = self._run(capsys, "verify", "all", "--digits", "20")
        assert (status, err) == (0, "")
        assert out.splitlines()[-1] == "summary: 1 pass, 0 fail, 0 error"
        status, out, err = self._run(capsys, "verify", "all", "--digits", "20",
                                     "--include-variants")
        assert (status, err) == (1, "")
        assert [line.split()[:2] for line in out.splitlines()[:-1]] == [
            ["PASS", "A"], ["FAIL", "B"]]
        assert out.splitlines()[-1] == "summary: 1 pass, 1 fail, 0 error"

    @pytest.mark.parametrize("args,message", [
        (["eval", "a", "--param", "a"], "error: expected NAME=VALUE, got 'a'"),
        (["eval", "a", "--param", "a=x"], "error: not a rational number: 'x'"),
        (["eval", "a", "--param", "a=1/0"], "error: not a rational number: '1/0'"),
        (["verify", "R1", "--digits", "40", "--work-digits", "39"],
         "error: --work-digits must be at least --digits"),
    ])
    def test_usage_error_is_one_line(self, capsys, args, message):
        assert self._run(capsys, *args) == (2, "", message + "\n")

    @pytest.mark.parametrize("args,message", [
        (["derive", "--id", "GOS", "--param", "b", "--point", "x"],
         "hyperq derive: error: argument --point: not a rational number: 'x'"),
        (["verify", "R1", "--q", "1/2,1/0"],
         "hyperq verify: error: argument --q: not a rational number: '1/0'"),
    ])
    def test_bad_rational_option_is_argparses_usage_error(self, capsys, args, message):
        # argparse prints the subcommand's usage block, then its one error line
        status, out, err = self._run(capsys, *args)
        assert (status, out) == (2, "")
        usage, error = err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith(f"usage: hyperq {args[0]} [-h]")
        assert error == message

    def test_derive_binds_an_expression(self, capsys):
        # c = 2 - b is evaluated after b is lifted, so it carries b's derivatives
        status, out, err = self._run(capsys, "derive", "--id", "GOS", "--param", "b",
                                     "--order", "2", "--bind", "c=2-b", "--samples", "2")
        assert (status, err) == (0, "")
        assert out.startswith("PASS  GOS        mode=derive-b-d2  residual=0  tol=0  ")
        assert "  samples=2  " in out

    def test_help(self, capsys):
        status, out, err = self._run(capsys, "--help")
        assert (status, err) == (0, "")
        assert out.startswith("usage: hyperq [-h] {list,verify,eval,derive,pi} ...\n")
        assert "operator-method derivative check" in out
