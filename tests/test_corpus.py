"""Registry invariants and the verification procedures over the corpus."""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperq import dsl
from hyperq.corpus import (
    CorpusError,
    Domain,
    ParamSpec,
    get_identity,
    list_identities,
    parse_corpus,
)
from hyperq.dsl import parse_side, render
from hyperq.series import PoleInTermError, RationalContext, evaluate_closed, sum_terminating
from hyperq.verify import (
    SampleExhaustedError,
    UnknownParameterError,
    VerifyOptions,
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
RENDER_GOLDEN = Path(__file__).parent / "golden" / "render-corpus.txt"
SIDES = ("lhs", "rhs")


def _rendered_corpus() -> str:
    """One line ``id side: text`` per side of every record, variants included,
    in corpus order: the text that ``golden/render-corpus.txt`` pins."""
    return "".join(f"{rec.id} {side}: {render(getattr(rec, side))}\n"
                   for rec in list_identities() for side in SIDES)


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

    def test_rendered_corpus_matches_its_golden(self):
        assert _rendered_corpus() == RENDER_GOLDEN.read_text()
        lines = iter(RENDER_GOLDEN.read_text().splitlines())
        for rec in list_identities():
            for side in SIDES:
                text = next(lines).removeprefix(f"{rec.id} {side}: ")
                assert parse_side(text) == getattr(rec, side), (rec.id, side)

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


def _block(extra="", **fields):
    """A record X on lines 1-7 of bad.txt, with ``fields`` replaced (None drops
    one), then the lines ``extra`` from line 8."""
    base = {"id": "X", "kind": "terminating-exact", "lhs": "sum k=0..n : poch(a,k)",
            "rhs": "1", "params": "n in nmax, a in rat7", "anchor": "t"}
    base.update(fields)
    return "[identity]\n" + "".join(
        f"{k} = {v}\n" for k, v in base.items() if v is not None) + extra


class TestCorpusErrors:
    """Each malformed input gives its one CorpusError, with the file and line
    where the parser knows them."""

    @pytest.mark.parametrize("text,message", [
        (_block(params="n in foo"), "bad.txt:6: X: params: unknown sampling domain 'foo'"),
        (_block(params="n in int(0..x)"), "bad.txt:6: X: params: malformed sampling domain "
         "'int(0..x)': invalid literal for int() with base 10: 'x'"),
        (_block(params="n in {1/0}"),
         "bad.txt:6: X: params: malformed sampling domain '{1/0}': Fraction(1, 0)"),
        (_block(params="n in int(5..1)"),
         "bad.txt:6: X: params: empty sampling domain 'int(5..1)'"),
        (_block(params="n nmax"), "bad.txt:6: X: params: malformed parameter spec 'n nmax' "
         "(expected 'name in domain')"),
        (_block(kind="sums"), "bad.txt:1: X: unknown kind 'sums'"),
        (_block(lhs="sum k=0..inf : 1/2^k"),
         "bad.txt:1: X: terminating-exact entries need a finite upper bound"),
        (_block(kind="jet-derived", extra="order = 1\n"),
         "bad.txt:1: X: jet-derived entries need an active parameter and order 1 or 2"),
        (_block(kind="jet-derived", extra="active = a\norder = 3\n"),
         "bad.txt:1: X: jet-derived entries need an active parameter and order 1 or 2"),
        (_block(kind="jet-derived", extra="active = b\norder = 1\n"),
         "bad.txt:1: X: active parameter 'b' is not declared"),
        (_block(kind="infinite-numeric"),
         "bad.txt:1: X: infinite-numeric entries need an infinite sum"),
        (_block(params="n in nmax"), "bad.txt:1: X: parameters ['a'] appear but are not declared"),
        (_block(id=None), "bad.txt:1: identity block without an id"),
        (_block(anchor=None), "bad.txt:1: X: missing field 'anchor'"),
        (_block(extra="order = two\n"),
         "bad.txt:8: X: order: invalid literal for int() with base 10: 'two'"),
        (_block(lhs="poch(a,3)"), "bad.txt:4: X: lhs must be a series"),
        (_block(extra="note: none\n"), "bad.txt:8: expected 'key = value', got 'note: none'"),
        (_block(extra="anchor = u\n"), "bad.txt:8: duplicate field 'anchor'"),
        (_block() + _block(), "bad.txt:8: duplicate identity id 'X'"),
        (_block(extra="fallback = Y\n"), "bad.txt:1: X: fallback 'Y' is not in the corpus"),
    ])
    def test_message(self, text, message):
        with pytest.raises(CorpusError) as err:
            parse_corpus(text, origin="bad.txt")
        assert str(err.value) == message

    def test_a_well_formed_block_parses(self):
        # the cases above differ from this record in the one field they break
        assert [r.id for r in parse_corpus(_block(), origin="bad.txt")] == ["X"]


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

    def test_fallback_note_ends_the_text_line(self):
        broken = replace(perturb_rhs(get_identity("GOS"), random.Random(0)), fallback="GOS")
        line = verify_identity(broken, VerifyOptions(samples=2)).text_line()
        assert line.startswith("FAIL  GOS+1 ")
        assert line.endswith("  [stated form fails; variant GOS verdict: pass]")


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


class TestEnumeratedExactDomains:
    """A terminating record runs ``samples`` draws at each binding of its
    enumerated (qvals, set) domains, as an infinite one runs its draws; with
    nothing left to draw (SET), one evaluation per binding."""

    RECORDS = ("[identity]\nid = QI\nkind = terminating-exact\n"
               "lhs = sum k=0..n-1 : q^k\nrhs = {rhs}\n"
               "params = q in qvals, n in nmax\nanchor = t\n\n"
               "[identity]\nid = SET\nkind = terminating-exact\n"
               "lhs = sum k=0..2 : x^k\nrhs = {rhs2}\nparams = x in {{1/3,2/5}}\nanchor = t\n")

    def test_each_binding_is_verified(self):
        options = VerifyOptions(samples=5, q_values=(F(1, 2), F(7, 10), F(3)))
        for wrong in (False, True):
            text = self.RECORDS.format(rhs="qint(n+1)" if wrong else "qint(n)",
                                       rhs2="1 + x" if wrong else "1 + x + x^2")
            for rec, samples in zip(parse_corpus(text), (15, 2)):
                report = verify_identity(rec, options)
                assert report.verdict == ("fail" if wrong else "pass"), report.error
                assert report.samples == samples


class TestDrawnCountAndIntegerSide:
    RECORDS = ("[identity]\nid = CNT\nkind = terminating-exact\n"
               "lhs = sum k=0..n : 1\nrhs = n + 1\nparams = n in int(2..4)\nanchor = t\n\n"
               "[identity]\nid = ONE\nkind = infinite-numeric\n"
               "lhs = sum k=0..inf : 1/2^(k+1)\nrhs = 1\nparams =\nanchor = t\n")

    def test_int_domain_draws_within_its_bounds(self):
        rec = parse_corpus(self.RECORDS)[0]
        reports = [verify_identity(rec, VerifyOptions(samples=1, seed=s)) for s in range(30)]
        assert {r.verdict for r in reports} == {"pass"}
        assert {r.terms for r in reports} == {3, 4, 5}  # n + 1 terms for n in 2..4

    def test_integer_rhs_of_an_infinite_record(self):
        report = verify_identity(parse_corpus(self.RECORDS)[1])
        assert (report.verdict, report.residual) == ("pass", 0), report.error


class TestOperatorDeriveCheck:
    def test_gosper_second_derivative(self):
        report = operator_derive_check(
            "GOS", "b", 2, point=F(1), bindings={"a": F(3, 2), "c": "2-b", "n": 2})
        assert report.verdict == "pass"
        assert report.residual == 0

    def test_gosper_sampled_points(self):
        options = VerifyOptions(seed=5, max_n=6, samples=10)
        report = operator_derive_check("GOS", "b", 2, bindings={"c": "2-b"},
                                       options=options)
        assert report.verdict == "pass"
        assert report.samples == 10

    def test_q_summation_second_derivative(self):
        report = operator_derive_check(
            "QB", "b", 2, point=F(1, 4),
            bindings={"q": F(1, 2), "a": F(3), "c": "q^4/b", "n": 2})
        assert report.verdict == "pass"

    def test_absent_parameter_gives_zero_derivative(self):
        report = operator_derive_check("GOS-SPC", "u", 1, point=F(1, 3),
                                       options=VerifyOptions(samples=2))
        assert report.verdict == "pass"

    @pytest.mark.parametrize("rid, parameter, order, kwargs, pinned", [
        ("GOS", "b", 2, dict(bindings={"c": "2-b"},
                             options=VerifyOptions(seed=0, max_n=6, samples=3)), (0, 1, 3)),
        ("QB", "b", 2, dict(bindings={"c": "q^4/b"},
                            options=VerifyOptions(seed=3, max_n=6, samples=3)), (0, 6, 3)),
        ("GOS-SPC", "u", 1, dict(point=F(1, 3), options=VerifyOptions(samples=2)), (0, 7, 2)),
    ])
    def test_reports_are_pinned(self, rid, parameter, order, kwargs, pinned):
        # terms is the largest upper index + 1 over the drawn samples, so it
        # pins the derive sampler's stream along with the verdict
        report = operator_derive_check(rid, parameter, order, **kwargs)
        assert (report.verdict, report.residual, report.terms, report.samples) == (
            "pass", *pinned)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownParameterError):
            operator_derive_check("GOS", "zz", 1)

    @pytest.mark.parametrize("parameter,order,error,message", [
        ("b", 3, ValueError, "derivative order must be 1 or 2"),
        ("n", 1, UnknownParameterError, "GOS: parameter 'n' is a count and has no derivative"),
    ])
    def test_refused_call(self, parameter, order, error, message):
        with pytest.raises(error) as err:
            operator_derive_check("GOS", parameter, order)
        assert err.value.args == (message,)

    def test_first_derivative_matches_weighted_record(self):
        # d1 of the plain specialized companion reproduces GOS-D1's structure:
        # check the jet route agrees with the explicit harmonic-weight record
        options = VerifyOptions(seed=1, max_n=5, samples=5)
        jet_report = operator_derive_check("GOS", "b", 1, bindings={"c": "2-b"},
                                           options=options)
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
    """Record REL, the divided-difference relation, through the engine:

        sum_{i=1}^m 1/((x+u+i)(v-x+i)) = (H_m(x+u) - H_m(v-x)) / (v - u - 2x).
    """

    @staticmethod
    def _lhs(m, u, v, x):
        return sum_terminating(get_identity("REL").lhs, {"m": m, "u": u, "v": v, "x": x})

    @staticmethod
    def _rhs(m, u, v, x):
        return evaluate_closed(get_identity("REL").rhs, {"m": m, "u": u, "v": v, "x": x})

    def test_empty(self):
        assert self._lhs(0, F(1), F(2), F(1, 5)) == self._rhs(0, F(1), F(2), F(1, 5)) == 0

    def test_small_case(self):
        # 1/((4/3)(5/3)) + 1/((7/3)(8/3))
        expected = F(9, 20) + F(9, 56)
        assert self._lhs(2, F(0), F(1), F(1, 3)) == self._rhs(2, F(0), F(1), F(1, 3)) == expected

    def test_pole_raises(self):
        for args in ((3, F(-1), F(2), F(-1)),  # x + u + 2 = 0
                     (3, F(1), F(-1), F(0))):  # v - x + 1 = 0
            for side in (self._lhs, self._rhs):
                with pytest.raises(PoleInTermError):
                    side(*args)
        args = (3, F(1), F(2), F(1, 2))  # v - u - 2x = 0
        assert self._lhs(*args) == sum(F(4, (5 + 2 * k) ** 2) for k in range(3))  # 1/(5/2+k)^2
        with pytest.raises(PoleInTermError):
            self._rhs(*args)

    def test_fifty_random_trials(self):
        rng = random.Random(9)
        done = 0
        while done < 50:
            u = F(rng.randint(-7, 7), rng.randint(1, 7))
            v = F(rng.randint(-7, 7), rng.randint(1, 7))
            x = F(rng.randint(-7, 7), rng.randint(1, 7))
            try:
                assert self._lhs(5, u, v, x) == self._rhs(5, u, v, x)
            except PoleInTermError:
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

    def test_a_side_without_a_literal_is_refused(self):
        rec = replace(get_identity("R1"), rhs=parse_side("pi"))
        with pytest.raises(ValueError) as err:
            perturb_rhs(rec, random.Random(0))
        assert str(err.value) == "R1: right-hand side has no integer literal to perturb"


def _fields_walk_bump(node, target: int, counter: list):
    """Reference literal numbering from an explicit list of AST fields, in
    which a series' term comes before its upper bound."""
    if isinstance(node, dsl.Num):
        counter[0] += 1
        return dsl.Num(node.value + 1) if counter[0] - 1 == target else node
    changes = {}
    for name in ("left", "right", "operand", "base", "exponent", "x", "count",
                 "offset", "arg", "term", "upper", "expr"):
        child = getattr(node, name, None)
        if child is not None and not isinstance(child, (int, str)):
            new = _fields_walk_bump(child, target, counter)
            if new is not child:
                changes[name] = new
    return replace(node, **changes) if changes else node


class _FixedIndex:
    """An rng whose ``randrange`` picks the given literal."""

    def __init__(self, index):
        self.index = index

    def randrange(self, total):
        assert 0 <= self.index < total
        return self.index


class TestLiteralNumbering:
    def test_every_literal_of_every_candidate(self):
        checked = 0
        for rec in mutation_candidates():
            counter = [0]
            _fields_walk_bump(rec.rhs, -1, counter)
            assert counter[0] > 0
            for target in range(counter[0]):
                expected = replace(rec, id=f"{rec.id}+1", fallback=None,
                                   rhs=_fields_walk_bump(rec.rhs, target, [0]))
                assert perturb_rhs(rec, _FixedIndex(target)) == expected, (rec.id, target)
                checked += 1
        assert checked > 100


class TestSampler:
    def test_pole_storm_raises(self):
        # an identity whose only denominator factor is identically zero
        text = ("[identity]\nid = STORM\nkind = terminating-exact\n"
                "lhs = sum k=0..n : 1/(a-a)\nrhs = 1\n"
                "params = a in rat7, n in nmax\nanchor = t\n")
        rec = parse_corpus(text)[0]
        report = verify_identity(rec, VerifyOptions(samples=1))
        assert report.verdict == "error"
        assert report.error.startswith(f"{SampleExhaustedError.__name__}: ")

    def test_q_power_without_q_is_an_error_report(self):
        text = ("[identity]\nid = GEO\nkind = terminating-exact\n"
                "lhs = sum k=0..n : x^k\nrhs = (1-x^(n+1))/(1-x)\n"
                "params = x in qpow(1..2), n in nmax\nanchor = t\n")
        report = verify_identity(parse_corpus(text)[0], VerifyOptions(samples=1))
        assert (report.verdict, report.error) == (
            "error", "EvalError: qpow domains need q bound before them")

    def test_unknown_domain_kind_is_an_error_report(self):
        # the corpus parser admits no such domain; a record built in code can hold one
        gos = get_identity("GOS")
        rec = replace(gos, params=(ParamSpec("a", Domain("beta")),) + gos.params[1:])
        report = verify_identity(rec, VerifyOptions(samples=1))
        assert (report.verdict, report.error) == (
            "error", "EvalError: domain 'beta' cannot be sampled")


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
        # a rounding carry moves to the next decade
        assert format_magnitude(F(9995, 1000)) == "1.00e+01"
        assert format_magnitude(F(-99949, 10 ** 7)) == "-9.99e-03"
        assert format_magnitude(F(999999, 10 ** 3006)) == "1.00e-3000"
        # exact at any depth: a decade boundary and its neighbours
        assert format_magnitude(F(1, 10 ** 3000)) == "1.00e-3000"
        assert format_magnitude(F(10 ** 3000 - 1, 10 ** 6000)) == "1.00e-3000"
        assert format_magnitude(F(10 ** 3000 + 1, 10 ** 6000)) == "1.00e-3000"
        assert format_magnitude(F(10 ** 3001, 3)) == "3.33e+3000"
        assert format_magnitude(F(1, 7 ** 1000)) == "7.98e-846"
