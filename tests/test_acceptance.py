"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import math
import random
import time
from fractions import Fraction as F

import hypothesis
import pytest

from conftest import EULER, MACHIN, arctan_pi
from hyperq.functions import pi_constant
from hyperq.verify import (
    VerifyOptions,
    mutation_candidates,
    operator_derive_check,
    perturb_rhs,
    verify_identity,
)

TOL40 = F(1, 10 ** 40)


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {state}  {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _verify40(rid: str) -> "VerificationReport":
    report = verify_identity(rid, VerifyOptions(digits=40))
    assert report.verdict == "pass", report.text_line()
    assert report.residual <= TOL40, report.text_line()
    return report


class TestCriterion1Ramanujan:
    def test_ramanujan_suite(self):
        details = []
        ok = True
        for rid in ("R1", "R2", "R3"):
            start = time.perf_counter()
            report = verify_identity(rid, VerifyOptions(digits=40))
            elapsed = time.perf_counter() - start
            good = (report.verdict == "pass" and report.residual <= TOL40
                    and report.terms < 300 and elapsed < 1.0)
            ok = ok and good
            details.append(f"{rid}: residual<=1e-40 terms={report.terms} {elapsed * 1000:.0f}ms")
        _criterion(1, "Ramanujan suite (4/pi, 2sqrt3/pi, 16/pi at 40 digits)",
                   ok, "; ".join(details))


class TestCriterion2PiFamily:
    def test_pi_family(self):
        for rid in ("W1", "G1", "H1", "EU", "S1", "S2"):
            _verify40(rid)
        _criterion(2, "pi-family suite (pi/2, pi^2/4, pi^3/48, pi^2/6, pi/12, sqrt3 pi/54)",
                   True, "all residuals < 1e-40")


class TestCriterion3Conjectures:
    def test_conjecture_suite(self):
        for rid in ("T1", "T2", "CC", "DD"):
            _verify40(rid)
        _criterion(3, "conjecture suite (pi^4/48, 2pi/69, twice 8pi/3)",
                   True, "all residuals < 1e-40")


class TestCriterion4ExactTerminating:
    SUITE = ("GOS", "DOU", "OMEGA", "REL", "QB", "QB-SP0", "QB-SP3",
             "QFF", "QGG", "QDOU", "UV")

    def test_exact_suite_runtime(self):
        options = VerifyOptions(samples=20, max_n=8, seed=0)
        start = time.perf_counter()
        details = []
        for rid in self.SUITE:
            report = verify_identity(rid, options)
            assert report.verdict == "pass", report.text_line()
            assert report.samples == 20
            details.append(rid)
        elapsed = time.perf_counter() - start
        _criterion(4, "exact terminating suite, 20/20 samples each",
                   elapsed < 60.0, f"{len(details)} identities in {elapsed:.1f}s")


class TestCriterion5OperatorMethod:
    def test_gosper_and_q_second_derivatives(self):
        options = VerifyOptions(seed=0, max_n=6, samples=10)
        gos = operator_derive_check("GOS", "b", 2, bindings={"c": "2-b"}, options=options)
        qb = operator_derive_check("QB", "b", 2, bindings={"c": "q^4/b"}, options=options)
        ok = (gos.verdict == "pass" and gos.samples >= 10
              and qb.verdict == "pass" and qb.samples >= 10)
        _criterion(5, "operator-method suite (second derivatives via jets)",
                   ok, f"GOS: {gos.samples} points exact; QB: {qb.samples} points exact")


class TestCriterion6QAnalogues:
    SUITE = ("T3a", "T3b", "T3c", "T4", "T5", "QA1", "QA2", "QS1", "QS2",
             "QGAUSS", "QBC", "QCD", "SB")

    def test_q_suite_three_bases(self):
        options = VerifyOptions(digits=30, work_digits=40,
                                q_values=(F(1, 3), F(1, 2), F(7, 10)), seed=0)
        for rid in self.SUITE:
            report = verify_identity(rid, options)
            assert report.verdict == "pass", report.text_line()
            assert report.residual <= F(1, 10 ** 30), report.text_line()
        _criterion(6, "q-analogue suite at q in {1/3, 1/2, 7/10}",
                   True, f"{len(self.SUITE)} identities, residuals < 1e-30")


class TestCriterion7TheoremSixGate:
    def test_t6_or_reported_variant(self):
        options = VerifyOptions(digits=25, work_digits=40,
                                q_values=(F(1, 3), F(1, 2)), seed=0)
        report = verify_identity("T6", options)
        stated_ok = report.verdict == "pass" and report.residual <= F(1, 10 ** 25)
        if stated_ok:
            detail = "stated form passes at q in {1/3, 1/2}, residual < 1e-25"
        else:
            # not silent: the fallback variant must have been run and reported
            assert "variant" in report.notes, report.text_line()
            detail = f"stated form fails; {report.notes}"
        _criterion(7, "sixth q-analogue gate (lambda/mu/nu weights)",
                   stated_ok or "variant" in report.notes, detail)


class TestCriterion8CorrectionDetection:
    def test_corrected_vs_uncorrected(self):
        good = verify_identity("SA", VerifyOptions(digits=30, work_digits=40))
        assert good.verdict == "pass"
        assert good.residual <= F(1, 10 ** 30)
        bad = verify_identity("SA-UNC", VerifyOptions(digits=30, work_digits=40))
        ok = bad.verdict == "fail" and bad.residual > F(1, 10 ** 3)
        _criterion(8, "correction detection (sin(pi x)/pi vs sin(pi x)/(pi x))",
                   ok, f"corrected residual < 1e-30; uncorrected residual "
                       f"{float(bad.residual):.2f} > 1e-3 at x=1/3")


class TestCriterion9OracleIndependence:
    def test_two_arctangent_formulas(self):
        details = []
        for digits in (30, 60, 100):
            # Machin's and Euler's formulas, kept in the tests, each give the
            # correctly rounded pi that the library's Chudnovsky series gives
            bits = math.ceil((digits + 8) * math.log2(10))
            expected = pi_constant(bits).raw
            assert arctan_pi(MACHIN, bits) == expected
            assert arctan_pi(EULER, bits) == expected
            details.append(f"{digits}+8 digits")
        _criterion(9, "pi oracle independence (two arctangent formulas)",
                   True, ", ".join(details))


class TestCriterion10PropertySuites:
    def test_property_runner_configuration(self):
        # the invariant suites live in test_scalars / test_functions /
        # test_series / test_dsl / test_corpus and run in this same session;
        # here we pin the property runner to >= 200 cases per law
        profile = hypothesis.settings()
        _criterion(10, "property suites at >= 200 cases per law",
                   profile.max_examples >= 200,
                   f"hypothesis profile max_examples={profile.max_examples}")


class TestCriterion11MutationSensitivity:
    def test_ten_random_records_detect_perturbation(self):
        rng = random.Random(2024)
        candidates = mutation_candidates()
        chosen = rng.sample(candidates, 10)
        options = VerifyOptions(digits=25, samples=6, max_n=5, q_values=(F(1, 2),))
        flipped = []
        for rec in chosen:
            mutated = perturb_rhs(rec, rng)
            report = verify_identity(mutated, options)
            assert report.verdict == "fail", (rec.id, report.text_line())
            flipped.append(rec.id)
        _criterion(11, "mutation sensitivity (+1 on one RHS coefficient)",
                   True, "flipped: " + ", ".join(flipped))
