"""CLI contract: commands, flags, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

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

    def _assert_eval_error(self, out):
        assert out.returncode == 3
        assert out.stderr.startswith("error: EvalError: ")
        assert len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr

    def test_negative_pochhammer_count_is_three(self):
        self._assert_eval_error(run_cli("eval", "poch(1,-1)"))

    def test_negative_q_integer_is_three(self):
        self._assert_eval_error(run_cli("eval", "qint(-1)", "--param", "q=1/2"))


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
