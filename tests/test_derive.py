"""The operator method's reports, pinned call by call, and its refusals.

``golden/derive-seed0.jsonl`` holds one line per ``operator_derive_check``
call of ``derive_calls``: the call's arguments, the report's machine form and
its error text.  It pins the derive sampler's stream (``terms`` and
``samples``), the verdicts and the refusals that are report lines, such as
SA's "must be exact here" and the q-records' "infinite q-sums do not support
an active q".  It was written with ``derive_line`` and is replayed, not
regenerated, when the derive code changes.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperq.cli import main
from hyperq.corpus import list_identities
from hyperq.verify import UnknownParameterError, VerifyOptions, operator_derive_check

DERIVE_GOLDEN = Path(__file__).parent / "golden" / "derive-seed0.jsonl"
DERIVE_OPTIONS = VerifyOptions(samples=3, seed=0)


def derive_calls():
    """(id, parameter, order, point, bindings) of every pinned call, in order:
    each record (variants included) by each parameter that is not a count, at
    orders 1 and 2, then three calls with a point or bindings."""
    for rec in list_identities(include_variants=True):
        for p in rec.params:
            if p.domain.kind not in ("nmax", "int"):
                for order in (1, 2):
                    yield rec.id, p.name, order, None, {}
    yield "GOS", "b", 2, None, {"c": "2-b"}
    yield "GOS", "b", 1, F(1, 3), {"a": F(3, 2)}
    yield "SA", "x", 1, F(1, 6), {}


def derive_line(rid, parameter, order, point, bindings) -> str:
    report = operator_derive_check(rid, parameter, order, point=point, bindings=bindings,
                                   options=DERIVE_OPTIONS)
    call = {"id": rid, "parameter": parameter, "order": order,
            "point": None if point is None else str(point),
            "bindings": {name: str(value) for name, value in bindings.items()}}
    return json.dumps({"call": call, "report": report.machine_dict(), "error": report.error})


class TestDeriveGolden:
    def test_every_report_replays(self):
        golden = DERIVE_GOLDEN.read_text().splitlines()
        lines = [derive_line(*call) for call in derive_calls()]
        assert len(lines) == len(golden) == 139
        for line, pinned in zip(lines, golden):
            assert line == pinned


class TestDerivedParameterBinding:
    """A binding of the derived parameter was dropped, and the parameter drawn."""

    def test_library_call_refuses(self):
        with pytest.raises(UnknownParameterError, match="'b' is the one derived"):
            operator_derive_check("GOS", "b", 1, bindings={"b": F(1, 3)},
                                  options=VerifyOptions(samples=2))

    def test_cli_is_two(self, capsys):
        assert main(["derive", "--id", "GOS", "--param", "b", "--bind", "b=1/3",
                     "--samples", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: GOS: parameter 'b' is the one derived; "
                           "give its point with --point\n")


class TestComparedComponents:
    """A derive call compares the jet components up to its own order, and
    ``verify`` compares all three of a terminating jet-derived record's,
    whatever its ``order``: x^2 and 0 agree at x = 0 in value and slope, not
    in curvature, so the record of order 1 fails where a call of order 1 passes."""

    CORPUS = ("[identity]\nid = X2\nkind = terminating-exact\n"
              "lhs = sum k=0..0 : x^2\nrhs = 0\nparams = x in {0}\nanchor = test corpus\n\n"
              "[identity]\nid = X2-D\nkind = jet-derived\n"
              "lhs = sum k=0..0 : x^2\nrhs = 0\nparams = x in {0}\nactive = x\norder = 1\n"
              "anchor = test corpus\n")

    @pytest.mark.parametrize("args,status,line", [
        (["derive", "--id", "X2", "--param", "x", "--order", "1"], 0,
         "PASS  X2         mode=derive-x-d1  residual=0"),
        (["derive", "--id", "X2", "--param", "x", "--order", "2"], 1,
         "FAIL  X2         mode=derive-x-d2  residual=2.00e+00"),
        (["verify", "X2-D"], 1, "FAIL  X2-D       mode=jet-derived  residual=2.00e+00"),
        (["derive", "--id", "X2-D", "--param", "x", "--order", "1"], 0,
         "PASS  X2-D       mode=derive-x-d1  residual=0"),
    ])
    def test_verdict(self, tmp_path, monkeypatch, capsys, args, status, line):
        path = tmp_path / "x2.txt"
        path.write_text(self.CORPUS)
        monkeypatch.setenv("HYPERQ_CORPUS", str(path))
        assert main(args) == status
        out = capsys.readouterr()
        assert out.err == "" and out.out.startswith(line + "  tol=0  terms=1  samples=1"), out.out
