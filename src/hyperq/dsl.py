"""The identity DSL: parser, AST, and canonical renderer.

This is the language the corpus file and the CLI ``eval`` command are
written in.  Grammar (authoritative; whitespace-insensitive, ``#`` starts a
comment that runs to end of line):

    series  := "sum" IDENT "=" INT ".." ("inf" | expr) ":" expr
    closed  := expr
    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | atom ["^" factor]
    atom    := INT | IDENT | "(" expr ")" | NAME ["(" arg ("," arg)* ")"]
    INT     := [0-9]+                 IDENT := [A-Za-z_][A-Za-z0-9_]*

Tokens are ASCII: a non-ASCII letter or digit (``é``, ``²``) is, like any
other character outside these rules, a parse error at its column.

The atoms are the AST node types ``Poch`` to ``CosPi`` below (``ATOMS``).
An atom's NAME is its type's name in lower case (``pi`` for ``PiConst``),
and its arguments are the type's fields, in order, in parentheses unless it
has none.  An ``Expr`` field takes an expression, an ``int`` field a literal
under the rule of the field's name: ``order`` and ``step`` >= 1, ``stride``
>= 1 (>= 0 in ``qsum``), a signed ``shift`` >= 1 - stride (so the first
q-sum index c+d is >= 1), ``sign`` "+" or "-", and any ``radicand``.  A
literal outside its rule is a parse error at its position.  So is a tree
deeper than ``MAX_DEPTH``, or parentheses, atoms and signs nested deeper:
the evaluator, the renderer and ``parameters_of`` recurse on the tree.

The exponent after ``^`` binds a single (possibly negated) primary, so
``fact(k)^3*4^k`` means ``(fact(k)^3)*(4^k)``; write ``q^(k*(k+1)/2)`` for
polynomial exponents.  The q-atoms (``Q_ATOMS``) refer to the ambient
parameter named ``q``.  ``qsuminf`` extends the sketch grammar: the
closed-form sides of the harmonic-weighted q-identities need infinite q-sum
constants.

Rationals are written with ``/`` (``1/2`` is exact division); ``sinpi`` and
``cospi`` accept only arguments that reduce to the rational points with
algebraic closed forms (checked at evaluation time).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union


@dataclass(frozen=True)
class SourceText:
    """A piece of DSL source plus where it came from (for error messages)."""

    text: str
    origin: str = "<string>"
    line_offset: int = 0


class ParseError(ValueError):
    """Syntax error with a position inside the source."""

    def __init__(self, origin: str, line: int, column: int, expected: str, found: str):
        self.origin = origin
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{origin}:{line}:{column}: expected {expected}, found {found}")


# --------------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Poch:  # (x)_m
    x: "Expr"
    count: "Expr"


@dataclass(frozen=True)
class QPoch:  # (x; q^s)_m
    x: "Expr"
    step: int
    count: "Expr"


@dataclass(frozen=True)
class QPochInf:  # (x; q^s)_oo
    x: "Expr"
    step: int


@dataclass(frozen=True)
class Fact:  # m!
    count: "Expr"


@dataclass(frozen=True)
class DFactOdd:  # (2m+1)!!
    count: "Expr"


@dataclass(frozen=True)
class QInt:  # [m]
    count: "Expr"


@dataclass(frozen=True)
class Harm:  # H_m^(l)
    order: int
    count: "Expr"


@dataclass(frozen=True)
class HarmX:  # H_m^(l)(x)
    order: int
    count: "Expr"
    offset: "Expr"


@dataclass(frozen=True)
class QSum:  # sum_{i=1}^{m} sign^(i-1) q^(c*i+d) / [c*i+d]^l
    order: int
    stride: int
    shift: int
    sign: int
    count: "Expr"


@dataclass(frozen=True)
class QSumInf:  # the same sum taken to infinity
    order: int
    stride: int
    shift: int
    sign: int


@dataclass(frozen=True)
class PiConst:  # pi
    pass


@dataclass(frozen=True)
class Sqrt:  # sqrt(m)
    radicand: int


@dataclass(frozen=True)
class SinPi:  # sin(pi x)
    arg: "Expr"


@dataclass(frozen=True)
class CosPi:  # cos(pi x)
    arg: "Expr"


# the DSL name of each atom node type
ATOMS = {cls: "pi" if cls is PiConst else cls.__name__.lower() for cls in (
    Poch, QPoch, QPochInf, Fact, DFactOdd, QInt, Harm, HarmX, QSum, QSumInf,
    PiConst, Sqrt, SinPi, CosPi)}
Q_ATOMS = (QPoch, QPochInf, QInt, QSum, QSumInf)  # the atoms that read q
Expr = Union[(Num, Param, Add, Sub, Mul, Div, Neg, Pow, *ATOMS)]


@dataclass(frozen=True)
class SeriesSpec:
    """The sum of ``term`` over ``index`` = 0..``upper``; ``upper is None`` means infinite."""

    index: str
    upper: Optional[Expr]
    term: Expr

    @property
    def terminating(self) -> bool:
        return self.upper is not None


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form expression (the right-hand side of an identity)."""

    expr: Expr


# ------------------------------------------------------------------ atom rules

# how an atom's int field is read, by field name: "sign", or (signed,
# minimum, what) for a literal; a shift's minimum is 1 - stride
_INT_FIELDS = {"order": (False, 1, "an order"), "step": (False, 1, "a step"),
               "stride": (False, 1, "a stride"), "shift": (True, None, "a shift"),
               "sign": "sign", "radicand": (False, None, "an integer")}


def _rule(cls, field):
    """How an argument of an atom is read: None for an expression."""
    if field.type != "int":
        return None
    if field.name == "stride" and "count" in cls.__dataclass_fields__:
        return (False, 0, "a stride")  # a terminating q-sum may repeat one index
    return _INT_FIELDS[field.name]


# name -> (node type, its (field name, rule) pairs in field order)
_GRAMMAR = {name: (cls, tuple((f.name, _rule(cls, f)) for f in cls.__dataclass_fields__.values()))
            for cls, name in ATOMS.items()}
_KEYWORDS = {"sum", "inf", *_GRAMMAR}
_OPERATORS = {"+": Add, "-": Sub, "*": Mul, "/": Div}

# the height of the deepest tree the parser accepts: the evaluator, the renderer
# and parameters_of recurse a few frames per level, far from the interpreter's
# recursion limit; the deepest side in the corpus has height 17
MAX_DEPTH = 64


# ------------------------------------------------------------------------ lexer

_LEXEME = re.compile(r"(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
                     r"|(?P<OP>\.\.|[(),^*/+\-:=])|(?P<NL>\n)|[ \t\r]+|(?P<COMMENT>#.*)|(?P<BAD>.)")


class _Token(NamedTuple):
    kind: str  # INT | IDENT | OP | EOF
    text: str
    line: int
    column: int


def _tokenize(src: SourceText):
    tokens, line, line_start, m = [], 1 + src.line_offset, 0, None
    for m in _LEXEME.finditer(src.text):
        kind = m.lastgroup
        if kind in ("INT", "IDENT", "OP"):  # the lexemes that are tokens
            tokens.append(_Token._make((kind, m.group(), line, m.start() - line_start + 1)))
        elif kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ParseError(src.origin, line, m.start() - line_start + 1, "a token", repr(m.group()))
    # the end of input is where a trailing comment starts
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(src.text)
    tokens.append(_Token("EOF", "<end of input>", line, end - line_start + 1))
    return tokens


# ----------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, src: Union[str, SourceText]):
        self.src = src = SourceText(src) if isinstance(src, str) else src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # factors being parsed, one inside the other
        self.height = 0  # height of the node parsed last

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> Optional[_Token]:
        """The next token, consumed, if it is one of the operators ``ops``."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def error(self, expected: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(self.src.origin, tok.line, tok.column, expected, repr(tok.text))

    def made(self, height: int, tok: _Token):
        """Record the height of the node made at ``tok``, up to MAX_DEPTH
        (the chains, which make most nodes, check theirs inline)."""
        if height > MAX_DEPTH:
            self.too_deep(tok)
        self.height = height

    def too_deep(self, tok: _Token):
        self.error(f"at most {MAX_DEPTH} levels of nesting", tok)

    def expect_op(self, op: str) -> _Token:
        return self.accept(op) or self.error(f"'{op}'")

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # beyond the interpreter's limit on integer strings
            self.error("a shorter integer", tok)

    def expect_int(self, signed: bool = False, minimum: Optional[int] = None,
                   what: str = "an integer") -> int:
        """An integer literal; ``minimum`` rejects smaller ones at their position."""
        start = self.peek()
        sign = signed and self.accept("+-")
        if self.peek().kind != "INT":
            self.error("an integer")
        value = self.integer(self.advance())
        value = -value if sign and sign.text == "-" else value
        if minimum is not None and value < minimum:
            raise ParseError(self.src.origin, start.line, start.column,
                             f"{what} >= {minimum}", repr(str(value)))
        return value

    def expect_sign(self) -> int:
        tok = self.accept("+-") or self.error("a sign ('+' or '-')")
        return 1 if tok.text == "+" else -1

    # grammar productions --------------------------------------------------

    def parse_series(self) -> SeriesSpec:
        if self.peek()[:2] != ("IDENT", "sum"):
            self.error("'sum'")
        index = self.tokens[self.pos + 1]
        if index.kind != "IDENT":
            self.error("an identifier", index)
        if index.text in _KEYWORDS:
            self.error("an index name", index)
        self.pos += 2
        self.expect_op("=")
        lower = self.peek()
        if self.expect_int() != 0:
            raise ParseError(self.src.origin, lower.line, lower.column,
                             "lower bound 0", repr(lower.text))
        self.expect_op("..")
        if self.peek()[:2] == ("IDENT", "inf"):
            self.pos += 1
            upper = None
        else:
            upper = self.parse_expr()
        self.expect_op(":")
        term = self.parse_expr()
        self.expect_eof()
        return SeriesSpec(index.text, upper, term)

    def parse_closed(self) -> ClosedForm:
        expr = self.parse_expr()
        self.expect_eof()
        return ClosedForm(expr)

    def expect_eof(self):
        if self.peek().kind != "EOF":
            self.error("end of input")

    def parse_expr(self, ops: str = "+-") -> Expr:
        """A chain of terms joined by + and -, or (``ops`` "*/") a term: factors
        joined by * and /."""
        term = ops == "*/"
        node, height = self.parse_factor() if term else self.parse_expr("*/"), self.height
        while tok := self.accept(ops):
            right = self.parse_factor() if term else self.parse_expr("*/")
            height = 1 + (height if height > self.height else self.height)
            if height > MAX_DEPTH:
                self.too_deep(tok)
            node = _OPERATORS[tok.text](node, right)
        self.height = height
        return node

    def parse_factor(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.too_deep(self.peek())
        if tok := self.accept("-"):
            node = Neg(self.parse_factor())
            self.made(1 + self.height, tok)
        else:
            node = self.parse_atom()
            if tok := self.accept("^"):
                height = self.height
                exponent = self.parse_factor()
                self.made(1 + max(height, self.height), tok)
                node = Pow(node, exponent)
        self.depth -= 1
        return node

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "INT":
            self.height = 1
            return Num(self.integer(tok))
        if tok.kind == "IDENT":
            if tok.text in _GRAMMAR:
                return self.parse_call(tok)
            if nxt := self.accept("("):
                raise ParseError(self.src.origin, nxt.line, nxt.column,
                                 "a known atom before '('", repr(tok.text))
            if tok.text in _KEYWORDS:  # sum, inf
                self.error("a parameter name", tok)
            self.height = 1
            return Param(tok.text)
        if tok[:2] != ("OP", "("):
            self.error("a number, parameter, or atom", tok)
        node = self.parse_expr()
        self.expect_op(")")
        return node

    def parse_call(self, name: _Token) -> Expr:
        """An atom: its arguments are its node's fields, in order."""
        kind, rules = _GRAMMAR[name.text]
        args, height = [], 0
        if rules:
            self.expect_op("(")
            for field, rule in rules:
                if args:
                    self.expect_op(",")
                if rule is None:
                    args.append(self.parse_expr())
                    height = max(height, self.height)
                elif rule == "sign":
                    args.append(self.expect_sign())
                else:
                    signed, minimum, what = rule
                    if field == "shift":  # the first summand has index stride + shift
                        minimum = 1 - args[-1]
                    args.append(self.expect_int(signed, minimum, what))
            self.expect_op(")")
        self.made(1 + height, name)
        return kind(*args)


def parse_series_spec(text: Union[str, SourceText]) -> SeriesSpec:
    """Parse a ``sum`` header plus term expression into a SeriesSpec."""
    return _Parser(text).parse_series()


def parse_closed_form(text: Union[str, SourceText]) -> ClosedForm:
    """Parse a closed-form expression (no ``sum`` header)."""
    return _Parser(text).parse_closed()


def parse_side(text: Union[str, SourceText]) -> Union[SeriesSpec, ClosedForm]:
    """Parse either side of an identity: a series if its first token is ``sum``."""
    parser = _Parser(text)
    return parser.parse_series() if parser.peek()[:2] == ("IDENT", "sum") else parser.parse_closed()


# --------------------------------------------------------------------- renderer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5
_LEVELS = {Add: _LEVEL_ADD, Sub: _LEVEL_ADD, Mul: _LEVEL_MUL, Div: _LEVEL_MUL,
           Neg: _LEVEL_UNARY, Pow: _LEVEL_POW}
_SYMBOLS = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _wrap(node: Expr, min_level: int) -> str:
    text = render(node)
    if _LEVELS.get(type(node), _LEVEL_ATOM) < min_level:
        return f"({text})"
    return text


def _render_arg(rule, value) -> str:
    if rule is None:
        return render(value)
    if rule == "sign":
        return "+" if value == 1 else "-"
    return str(value)


def render(node) -> str:
    """Canonical text for an AST node; ``parse(render(x))`` equals x structurally."""
    kind = type(node)
    if kind is SeriesSpec:
        upper = "inf" if node.upper is None else render(node.upper)
        return f"sum {node.index}=0..{upper} : {render(node.term)}"
    if kind is ClosedForm:
        return render(node.expr)
    if kind is Num:
        return str(node.value)
    if kind is Param:
        return node.name
    if kind in _SYMBOLS:
        level = _LEVELS[kind]
        return f"{_wrap(node.left, level)}{_SYMBOLS[kind]}{_wrap(node.right, level + 1)}"
    if kind is Neg:
        return f"-{_wrap(node.operand, _LEVEL_UNARY)}"
    if kind is Pow:
        return f"{_wrap(node.base, _LEVEL_ATOM)}^{_wrap(node.exponent, _LEVEL_UNARY)}"
    if kind in ATOMS:
        name = ATOMS[kind]
        args = [_render_arg(rule, getattr(node, field)) for field, rule in _GRAMMAR[name][1]]
        return f"{name}({','.join(args)})" if args else name
    raise TypeError(f"cannot render {kind.__name__}")


def children(node) -> list:
    """The (field name, sub-node) pairs of an AST node, in field order but
    with a series' term before its upper bound; int, str and None fields
    (orders, steps, names, an infinite bound) are not nodes and are skipped."""
    names = ("term", "upper") if isinstance(node, SeriesSpec) else node.__dataclass_fields__
    return [(name, value) for name in names
            if (value := getattr(node, name)) is not None and not isinstance(value, (int, str))]


def parameters_of(node) -> set:
    """All parameter names referenced by an expression, series, or closed form."""
    if isinstance(node, Param):
        return {node.name}
    names = set()
    for _, child in children(node):
        names |= parameters_of(child)
    if isinstance(node, Q_ATOMS):
        names.add("q")
    if isinstance(node, SeriesSpec):
        names.discard(node.index)
    return names
