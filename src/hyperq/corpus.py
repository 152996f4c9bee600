"""The identity registry: record model, corpus-file parsing, and the default
embedded corpus.

A corpus file is a sequence of ``[identity]`` blocks of ``key = value``
lines (see ``data/corpus.txt`` for the field inventory).  The default
corpus is embedded in the package; the ``HYPERQ_CORPUS`` environment
variable selects an alternate file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Tuple, Union

from . import dsl

KINDS = ("terminating-exact", "infinite-numeric", "jet-derived")


class CorpusError(ValueError):
    """A malformed corpus file or an internally inconsistent record."""


@dataclass(frozen=True)
class Domain:
    """Sampling domain of one parameter.

    kinds: ``rat7`` (random nonzero rationals, |num|,den <= 7), ``qrat``
    (rat7 minus the roots of unity +-1), ``rat01`` (random rationals in
    (0,1)), ``int`` (uniform integer in lo..hi), ``nmax`` (uniform integer
    in 0..max-n), ``qpow`` (q**j with j uniform in lo..hi), ``qvals``
    (enumerate the q values under test), ``set`` (enumerate fixed
    rationals).
    """

    kind: str
    lo: int = 0
    hi: int = 0
    values: Tuple[Fraction, ...] = ()

    @property
    def enumerated(self) -> bool:
        return self.kind in ("qvals", "set")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    domain: Domain


@dataclass(frozen=True)
class IdentityRecord:
    """One identity: both sides, parameter domains, and how to verify it."""

    id: str
    kind: str
    lhs: dsl.SeriesSpec
    rhs: Union[dsl.SeriesSpec, dsl.ClosedForm]
    params: Tuple[ParamSpec, ...]
    anchor: str
    notes: str = ""
    active: Optional[str] = None
    order: int = 0
    expect_fail: bool = False
    fallback: Optional[str] = None


def _parse_domain(text: str) -> Domain:
    text = text.strip()
    if text in ("rat7", "qrat", "rat01", "nmax", "qvals"):
        return Domain(text)
    if not (text.startswith(("int(", "qpow(")) and text.endswith(")")
            or text.startswith("{") and text.endswith("}")):
        raise CorpusError(f"unknown sampling domain {text!r}")
    try:
        if text.startswith("{"):
            return Domain("set", values=tuple(Fraction(v) for v in text[1:-1].split(",")))
        kind, _, bounds = text[:-1].partition("(")
        lo, hi = (int(b) for b in bounds.split(".."))
    except (ValueError, ZeroDivisionError) as exc:
        raise CorpusError(f"malformed sampling domain {text!r}: {exc}") from None
    if lo > hi:
        raise CorpusError(f"empty sampling domain {text!r}")
    return Domain(kind, lo=lo, hi=hi)


def _split_params(text: str) -> List[str]:
    """Split on commas that are not inside braces or parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if p]


def _parse_params(text: str) -> Tuple[ParamSpec, ...]:
    specs = []
    for item in _split_params(text):
        if " in " not in item:
            raise CorpusError(f"malformed parameter spec {item!r} (expected 'name in domain')")
        name, domain = item.split(" in ", 1)
        specs.append(ParamSpec(name.strip(), _parse_domain(domain)))
    return tuple(specs)


def _validate(rec: IdentityRecord) -> IdentityRecord:
    if rec.kind not in KINDS:
        raise CorpusError(f"{rec.id}: unknown kind {rec.kind!r}")
    if rec.kind == "terminating-exact" and not rec.lhs.terminating:
        raise CorpusError(f"{rec.id}: terminating-exact entries need a finite upper bound")
    if rec.kind == "infinite-numeric" and rec.lhs.terminating:
        raise CorpusError(f"{rec.id}: infinite-numeric entries need an infinite sum")
    if rec.kind == "jet-derived":
        if not rec.active or rec.order not in (1, 2):
            raise CorpusError(f"{rec.id}: jet-derived entries need an active parameter and order 1 or 2")
        if rec.active not in {p.name for p in rec.params}:
            raise CorpusError(f"{rec.id}: active parameter {rec.active!r} is not declared")
    declared = {p.name for p in rec.params}
    used = dsl.parameters_of(rec.lhs) | dsl.parameters_of(rec.rhs)
    if rec.lhs.terminating:
        used |= dsl.parameters_of(rec.lhs.upper)
    missing = used - declared
    if missing:
        raise CorpusError(f"{rec.id}: parameters {sorted(missing)} appear but are not declared")
    return rec


def parse_corpus(text: str, origin: str = "<corpus>") -> List[IdentityRecord]:
    """Parse a corpus file into records, preserving order."""
    records: List[IdentityRecord] = []
    fields: Dict[str, str] = {}
    field_lines: Dict[str, int] = {}
    block_line = 0

    def flush():
        if not fields:
            return
        try:
            rid = fields["id"]
        except KeyError:
            raise CorpusError(f"{origin}:{block_line}: identity block without an id")
        for required in ("kind", "lhs", "rhs", "anchor"):
            if required not in fields:
                raise CorpusError(f"{origin}:{block_line}: {rid}: missing field {required!r}")

        def side(key):
            src = dsl.SourceText(fields[key], origin=origin, line_offset=field_lines[key] - 1)
            return dsl.parse_side(src)

        def read(key, parse, default):
            try:
                return parse(fields[key]) if key in fields else default
            except ValueError as exc:  # a CorpusError too
                raise CorpusError(f"{origin}:{field_lines[key]}: {rid}: {key}: {exc}") from None

        lhs = side("lhs")
        if not isinstance(lhs, dsl.SeriesSpec):
            raise CorpusError(f"{origin}:{field_lines['lhs']}: {rid}: lhs must be a series")
        rec = IdentityRecord(
            id=rid,
            kind=fields["kind"],
            lhs=lhs,
            rhs=side("rhs"),
            params=read("params", _parse_params, ()),
            anchor=fields["anchor"],
            notes=fields.get("notes", ""),
            active=fields.get("active") or None,
            order=read("order", int, 0),
            expect_fail=fields.get("expect", "pass") == "fail",
            fallback=fields.get("fallback") or None,
        )
        records.append(_validate(rec))
        fields.clear()
        field_lines.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[identity]":
            flush()
            block_line = lineno
            continue
        if "=" not in line:
            raise CorpusError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise CorpusError(f"{origin}:{lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
        field_lines[key] = lineno
    flush()

    seen = set()
    for rec in records:
        if rec.id in seen:
            raise CorpusError(f"duplicate identity id {rec.id!r}")
        seen.add(rec.id)
    for rec in records:
        if rec.fallback is not None and rec.fallback not in seen:
            raise CorpusError(f"{rec.id}: fallback {rec.fallback!r} is not in the corpus")
    return records


def _default_text() -> str:
    return resources.files("hyperq").joinpath("data/corpus.txt").read_text(encoding="utf-8")


_cache: Dict[str, List[IdentityRecord]] = {}


def load_corpus() -> List[IdentityRecord]:
    """Load the corpus: $HYPERQ_CORPUS if set, else the embedded one."""
    path = os.environ.get("HYPERQ_CORPUS")
    key = path or "<embedded>"
    if key not in _cache:
        if path:
            with open(path, encoding="utf-8") as fh:
                _cache[key] = parse_corpus(fh.read(), origin=path)
        else:
            _cache[key] = parse_corpus(_default_text(), origin="<embedded corpus>")
    return _cache[key]


def list_identities(include_variants: bool = True) -> List[IdentityRecord]:
    """All records in corpus order; ids are unique."""
    records = load_corpus()
    if include_variants:
        return list(records)
    return [r for r in records if not r.expect_fail]


def get_identity(rid: str) -> IdentityRecord:
    for rec in load_corpus():
        if rec.id == rid:
            return rec
    raise KeyError(f"unknown identity id {rid!r}")
