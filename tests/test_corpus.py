"""Registry invariants and the verification procedures over the corpus."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from hyperq import dsl
from hyperq.corpus import CorpusError, get_identity, list_identities, parse_corpus
from hyperq.dsl import parse_side, render
from hyperq.series import RationalContext, sum_terminating
from hyperq.verify import (
    SampleExhaustedError,
    UnknownParameterError,
    VerifyOptions,
    divided_difference_check,
    format_magnitude,
    mutation_candidates,
    operator_derive_check,
    perturb_rhs,
    verify_all,
    verify_identity,
)

EXACT_SUITE = [
    "GOS", "GOS-D1", "GOS-D2", "GOS-SP", "GOS-SPC", "GOS-LC", "DOU", "OMEGA",
    "OMEGA-D", "REL", "QB", "QB-SP0", "QB-SP3", "QB-D2", "QFF", "QGG", "QDOU",
    "UV", "UV-D",
]

FAST_OPTS = VerifyOptions(digits=25, samples=8, max_n=6, q_values=(F(1, 2),))


class TestRegistry:
    def test_at_least_38_records(self):
        assert len(list_identities(include_variants=False)) >= 38

    def test_ids_unique_and_order_stable(self):
        ids = [r.id for r in list_identities()]
        assert len(ids) == len(set(ids))
        assert ids == [r.id for r in list_identities()]

    def test_r1_present_with_anchor(self):
        rec = get_identity("R1")
        assert "Ramanujan" in rec.anchor
        assert rec.kind == "infinite-numeric"

    def test_every_side_round_trips(self):
        for rec in list_identities():
            assert parse_side(render(rec.lhs)) == rec.lhs
            assert parse_side(render(rec.rhs)) == rec.rhs

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_identity("NOPE")

    def test_malformed_corpus_rejected(self):
        with pytest.raises(CorpusError):
            parse_corpus("[identity]\nid = X\nkind = terminating-exact\n")
        with pytest.raises(CorpusError):
            parse_corpus(
                "[identity]\nid = X\nkind = infinite-numeric\n"
                "lhs = sum k=0..n : 1\nrhs = 1\nparams = n in nmax\nanchor = t\n")

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(CorpusError):
            parse_corpus(
                "[identity]\nid = X\nkind = terminating-exact\n"
                "lhs = sum k=0..n : poch(a,k)\nrhs = 1\nparams = n in nmax\nanchor = t\n")

    def test_parse_error_carries_file_position(self):
        bad = ("[identity]\nid = X\nkind = terminating-exact\n"
               "lhs = sum k=0..n : poch(1/2,\nrhs = 1\nparams = n in nmax\nanchor = t\n")
        with pytest.raises(dsl.ParseError) as err:
            parse_corpus(bad, origin="bad.txt")
        assert err.value.line == 4


class TestExactSuite:
    @pytest.mark.parametrize("rid", EXACT_SUITE)
    def test_twenty_exact_samples(self, rid):
        options = VerifyOptions(samples=20, max_n=8, seed=3)
        report = verify_identity(rid, options)
        assert report.verdict == "pass", report.text_line()
        assert report.samples == 20
        assert report.residual == 0


NUMERIC_IDS = [r.id for r in list_identities(include_variants=False)
               if r.kind in ("infinite-numeric", "jet-derived") and not r.lhs.terminating]


class TestNumericSuite:
    @pytest.mark.parametrize("rid", NUMERIC_IDS)
    def test_residual_below_tolerance(self, rid):
        report = verify_identity(rid, FAST_OPTS)
        assert report.verdict == "pass", report.text_line()
        assert report.residual <= FAST_OPTS.tolerance

    @pytest.mark.parametrize("rid", ["T3a", "QA1", "T6"])
    def test_q_consistency_sample(self, rid):
        for q in (F(1, 3), F(1, 2), F(7, 10)):
            options = VerifyOptions(digits=20, q_values=(q,))
            report = verify_identity(rid, options)
            assert report.verdict == "pass", (q, report.text_line())


class TestLinearCombinationConsistency:
    """The specialized derivative plus four times its companion equals the
    cancelled-bracket identity, term by term and in total, exactly."""

    @pytest.mark.parametrize("n", range(0, 9))
    def test_bracket_cancellation(self, n):
        sp = get_identity("GOS-SP")
        spc = get_identity("GOS-SPC")
        lc = get_identity("GOS-LC")
        env = {"n": n}
        ctx = RationalContext()
        from hyperq.series import evaluate_closed
        lhs = sum_terminating(sp.lhs, env, ctx) + 4 * sum_terminating(spc.lhs, env, ctx)
        rhs = evaluate_closed(sp.rhs, env) + 4 * evaluate_closed(spc.rhs, env)
        assert lhs == sum_terminating(lc.lhs, env, ctx)
        assert rhs == evaluate_closed(lc.rhs, env)
        assert lhs == rhs


class TestVariantsAndFallback:
    def test_uncorrected_sine_series_fails(self):
        report = verify_identity("SA-UNC", FAST_OPTS)
        assert report.verdict == "fail"
        assert report.residual > F(1, 1000)

    def test_variants_excluded_from_full_run(self):
        ids = [r.id for r in list_identities(include_variants=False)]
        assert "SA-UNC" not in ids and "T6-VAR" not in ids

    def test_open_question_variants_refuted(self):
        for rid in ("QBB-VAR", "T6-VAR"):
            report = verify_identity(rid, FAST_OPTS)
            assert report.verdict == "fail", report.text_line()

    def test_fallback_reported_on_failure(self):
        # break T6's right side; the harness must then run the named variant
        # and report its verdict rather than failing silently
        rng = random.Random(0)
        broken = replace(perturb_rhs(get_identity("T6"), rng), fallback="QBB")
        report = verify_identity(broken, FAST_OPTS)
        assert report.verdict == "fail"
        assert "variant QBB verdict: pass" in report.notes


class TestVerifyAll:
    def test_all_pass_and_deterministic(self):
        options = VerifyOptions(digits=20, samples=5, max_n=5, seed=7)
        reports1, summary1 = verify_all(options)
        reports2, summary2 = verify_all(options)
        assert summary1 == {"pass": len(reports1), "fail": 0, "error": 0}
        assert [r.machine_dict() for r in reports1] == [r.machine_dict() for r in reports2]

    def test_error_aggregated_not_raised(self):
        bad = ("[identity]\nid = DIVERGE\nkind = infinite-numeric\n"
               "lhs = sum k=0..inf : 2^k\nrhs = 1\nparams =\nanchor = t\n")
        records = parse_corpus(bad)
        options = VerifyOptions(digits=10, terms_budget=500)
        report = verify_identity(records[0], options)
        assert report.verdict == "error"
        assert "NonGeometricTail" in report.error


class TestOperatorDeriveCheck:
    def test_gosper_second_derivative(self):
        report = operator_derive_check(
            "GOS", "b", 2, point=F(1), bindings={"a": F(3, 2), "c": "2-b", "n": 2})
        assert report.verdict == "pass"
        assert report.residual == 0

    def test_gosper_sampled_points(self):
        options = VerifyOptions(seed=5, max_n=6)
        report = operator_derive_check("GOS", "b", 2, bindings={"c": "2-b"},
                                       options=options, samples=10)
        assert report.verdict == "pass"
        assert report.samples == 10

    def test_q_summation_second_derivative(self):
        report = operator_derive_check(
            "QB", "b", 2, point=F(1, 4),
            bindings={"q": F(1, 2), "a": F(3), "c": "q^4/b", "n": 2})
        assert report.verdict == "pass"

    def test_absent_parameter_gives_zero_derivative(self):
        report = operator_derive_check("GOS-SPC", "u", 1, point=F(1, 3), samples=2)
        assert report.verdict == "pass"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownParameterError):
            operator_derive_check("GOS", "zz", 1)

    def test_first_derivative_matches_weighted_record(self):
        # d1 of the plain specialized companion reproduces GOS-D1's structure:
        # check the jet route agrees with the explicit harmonic-weight record
        options = VerifyOptions(seed=1, max_n=5)
        jet_report = operator_derive_check("GOS", "b", 1, bindings={"c": "2-b"},
                                           options=options, samples=5)
        weighted = verify_identity("GOS-D1", VerifyOptions(samples=5, max_n=5, seed=1))
        assert jet_report.verdict == "pass" and weighted.verdict == "pass"


class TestPlainSides:
    """A side that does not depend on the active parameter has zero derivatives."""

    @pytest.mark.parametrize("lhs", ["sum k=0..n : 2^k", "sum k=0..n : 2^k + 0*x"])
    def test_derivative_of_plain_side_is_compared(self, lhs):
        # values agree (2^(n+1) - 1 at x = 1), d/dx is 0 on the left and 2 on the right
        text = ("[identity]\nid = PLAIN\nkind = terminating-exact\n"
                f"lhs = {lhs}\nrhs = x^2 + 2^(n+1) - 2\n"
                "params = x in rat7, n in nmax\nanchor = t\n")
        rec = parse_corpus(text)[0]
        report = operator_derive_check(rec, "x", 1, point=F(1))
        assert report.verdict == "fail"
        assert report.residual == 2


class TestDividedDifference:
    def test_empty(self):
        assert divided_difference_check(0, F(1), F(2), F(1, 5))

    def test_small_case(self):
        assert divided_difference_check(2, F(0), F(1), F(1, 3))

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):  # x + u + 2 = 0
            divided_difference_check(3, F(-1), F(2), F(-1))
        with pytest.raises(ZeroDivisionError):  # v - x + 1 = 0
            divided_difference_check(3, F(1), F(-1), F(0))
        with pytest.raises(ZeroDivisionError):  # v - u - 2x = 0
            divided_difference_check(3, F(1), F(2), F(1, 2))

    def test_fifty_random_trials(self):
        rng = random.Random(9)
        done = 0
        while done < 50:
            u = F(rng.randint(-7, 7), rng.randint(1, 7))
            v = F(rng.randint(-7, 7), rng.randint(1, 7))
            x = F(rng.randint(-7, 7), rng.randint(1, 7))
            try:
                assert divided_difference_check(5, u, v, x)
            except ZeroDivisionError:
                continue
            done += 1


class TestMutationSensitivity:
    def test_bumped_coefficient_flips_to_fail(self):
        rng = random.Random(2)
        candidates = mutation_candidates()
        assert len(candidates) >= 10
        for rec in rng.sample(candidates, 3):
            mutated = perturb_rhs(rec, rng)
            report = verify_identity(mutated, FAST_OPTS)
            assert report.verdict == "fail", (rec.id, report.text_line())


class TestSampler:
    def test_pole_storm_raises(self):
        # an identity whose only denominator factor is identically zero
        text = ("[identity]\nid = STORM\nkind = terminating-exact\n"
                "lhs = sum k=0..n : 1/(a-a)\nrhs = 1\n"
                "params = a in rat7, n in nmax\nanchor = t\n")
        rec = parse_corpus(text)[0]
        with pytest.raises(SampleExhaustedError):
            from hyperq.verify import _verify_jet
            _verify_jet(rec, VerifyOptions(samples=1))


class TestReports:
    def test_machine_fields_exact(self):
        report = verify_identity("REL", VerifyOptions(samples=3, max_n=4))
        assert list(report.machine_dict().keys()) == [
            "id", "mode", "verdict", "residual", "tolerance",
            "terms", "samples", "elapsed-ms"]
        assert report.machine_dict()["elapsed-ms"] == 0

    def test_format_magnitude(self):
        assert format_magnitude(F(0)) == "0"
        assert format_magnitude(F(1, 10 ** 40)) == "1.00e-40"
        assert format_magnitude(F(-551, 1000)) == "-5.51e-01"
        assert format_magnitude(None) is None
