"""CLI contract: commands, flags, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from mpmath import libmp

from hyperq.scalars import HighPrecision

CLI = [sys.executable, "-m", "hyperq"]


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


class TestPi:
    def test_digits(self):
        out = run_cli("pi", "--digits", "40")
        assert out.returncode == 0
        assert out.stdout.strip() == "3.141592653589793238462643383279502884197"

    def test_minimum_digits_enforced(self):
        out = run_cli("pi", "--digits", "2")
        assert out.returncode == 2


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
