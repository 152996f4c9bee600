"""The identity DSL: parser, AST, and canonical renderer.

This is the language the corpus file and the CLI ``eval`` command are
written in.  Grammar (authoritative; whitespace-insensitive, ``#`` starts a
comment that runs to end of line):

    series  := "sum" IDENT "=" INT ".." ("inf" | expr) ":" expr
    closed  := expr
    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ["^" factor]
    atom    := INT | IDENT | "(" expr ")"
             | "poch" "(" expr "," expr ")"                  -- (x)_m
             | "qpoch" "(" expr "," INT "," expr ")"         -- (x; q^s)_m
             | "qpochinf" "(" expr "," INT ")"               -- (x; q^s)_oo
             | "fact" "(" expr ")"                           -- m!
             | "dfactodd" "(" expr ")"                       -- (2m+1)!!
             | "qint" "(" expr ")"                           -- [m]
             | "harm" "(" INT "," expr ")"                   -- H_m^(l)
             | "harmx" "(" INT "," expr "," expr ")"         -- H_m^(l)(x)
             | "qsum" "(" INT "," INT "," INT "," SIGN "," expr ")"
                  -- sum_{i=1}^{m} SIGN^(i-1) q^(c*i+d) / [c*i+d]^l
             | "qsuminf" "(" INT "," INT "," INT "," SIGN ")"
                  -- the same sum taken to infinity
             | "pi" | "sqrt" "(" INT ")"
             | "sinpi" "(" expr ")" | "cospi" "(" expr ")"

    SIGN := "+" | "-"        INT := digits (signed where noted)

The exponent after ``^`` binds a single (possibly negated) primary, so
``fact(k)^3*4^k`` means ``(fact(k)^3)*(4^k)``; write ``q^(k*(k+1)/2)`` for
polynomial exponents.  The q-atoms refer to the ambient parameter named
``q``.  ``qsuminf`` extends the sketch grammar: the closed-form sides of the
harmonic-weighted q-identities need infinite q-sum constants.  Orders and
q-steps are at least 1, and so is a q-sum's first index c+d; a smaller
literal is a parse error at its position.

Rationals are written with ``/`` (``1/2`` is exact division); ``sinpi`` and
``cospi`` accept only arguments that reduce to the rational points with
algebraic closed forms (checked at evaluation time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


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
class Poch:
    x: "Expr"
    count: "Expr"


@dataclass(frozen=True)
class QPoch:
    x: "Expr"
    step: int
    count: "Expr"


@dataclass(frozen=True)
class QPochInf:
    x: "Expr"
    step: int


@dataclass(frozen=True)
class Fact:
    count: "Expr"


@dataclass(frozen=True)
class DFactOdd:
    count: "Expr"


@dataclass(frozen=True)
class QInt:
    count: "Expr"


@dataclass(frozen=True)
class Harm:
    order: int
    count: "Expr"


@dataclass(frozen=True)
class HarmX:
    order: int
    count: "Expr"
    offset: "Expr"


@dataclass(frozen=True)
class QSum:
    order: int
    stride: int
    shift: int
    sign: int
    count: "Expr"


@dataclass(frozen=True)
class QSumInf:
    order: int
    stride: int
    shift: int
    sign: int


@dataclass(frozen=True)
class PiConst:
    pass


@dataclass(frozen=True)
class Sqrt:
    radicand: int


@dataclass(frozen=True)
class SinPi:
    arg: "Expr"


@dataclass(frozen=True)
class CosPi:
    arg: "Expr"


Expr = Union[
    Num, Param, Add, Sub, Mul, Div, Neg, Pow,
    Poch, QPoch, QPochInf, Fact, DFactOdd, QInt,
    Harm, HarmX, QSum, QSumInf, PiConst, Sqrt, SinPi, CosPi,
]


@dataclass(frozen=True)
class SeriesSpec:
    """A sum over one index: lower bound 0, ``upper is None`` means infinite."""

    index: str
    lower: int
    upper: Optional[Expr]
    term: Expr

    @property
    def terminating(self) -> bool:
        return self.upper is not None


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form expression (the right-hand side of an identity)."""

    expr: Expr


# ------------------------------------------------------------------------ lexer

_PUNCT = {"(", ")", ",", "^", "*", "/", "+", "-", ":", "="}


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | IDENT | OP | EOF
    text: str
    line: int
    column: int


def _tokenize(src: SourceText):
    text = src.text
    tokens = []
    line = 1 + src.line_offset
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "." and i + 1 < n and text[i + 1] == ".":
            tokens.append(_Token("OP", "..", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(src.origin, line, col, "a token", repr(ch))
    tokens.append(_Token("EOF", "<end of input>", line, col))
    return tokens


# ----------------------------------------------------------------------- parser

_ATOM_NAMES = {
    "poch", "qpoch", "qpochinf", "fact", "dfactodd", "qint",
    "harm", "harmx", "qsum", "qsuminf", "pi", "sqrt", "sinpi", "cospi",
}
_KEYWORDS = {"sum", "inf"} | _ATOM_NAMES


class _Parser:
    def __init__(self, src: SourceText):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(self.src.origin, tok.line, tok.column, expected, repr(tok.text))

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            return self.advance()
        self.error(f"'{op}'")

    def expect_int(self, signed: bool = False, minimum: Optional[int] = None,
                   what: str = "an integer") -> int:
        """An integer literal; ``minimum`` rejects smaller ones at their position."""
        neg = False
        start = tok = self.peek()
        if signed and tok.kind == "OP" and tok.text in "+-":
            neg = tok.text == "-"
            self.advance()
            tok = self.peek()
        if tok.kind != "INT":
            self.error("an integer")
        self.advance()
        value = -int(tok.text) if neg else int(tok.text)
        if minimum is not None and value < minimum:
            raise ParseError(self.src.origin, start.line, start.column,
                             f"{what} >= {minimum}", repr(str(value)))
        return value

    def expect_q_sum_indices(self, infinite: bool):
        """order, stride, shift of a q-sum; orders and indices start at 1."""
        order = self.expect_int(minimum=1, what="an order")
        self.expect_op(",")
        stride = self.expect_int(minimum=1 if infinite else 0, what="a stride")
        self.expect_op(",")
        # the first summand has index stride + shift
        shift = self.expect_int(signed=True, minimum=1 - stride, what="a shift")
        self.expect_op(",")
        return order, stride, shift

    def expect_sign(self) -> int:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            return 1 if tok.text == "+" else -1
        self.error("a sign ('+' or '-')")

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error("an identifier")
        self.advance()
        return tok.text

    # grammar productions --------------------------------------------------

    def parse_series(self) -> SeriesSpec:
        tok = self.peek()
        if not (tok.kind == "IDENT" and tok.text == "sum"):
            self.error("'sum'")
        self.advance()
        idx_tok = self.peek()
        index = self.expect_ident()
        if index in _KEYWORDS:
            self.error("an index name", idx_tok)
        self.expect_op("=")
        low_tok = self.peek()
        lower = self.expect_int()
        if lower != 0:
            raise ParseError(self.src.origin, low_tok.line, low_tok.column,
                             "lower bound 0", repr(low_tok.text))
        self.expect_op("..")
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "inf":
            self.advance()
            upper = None
        else:
            upper = self.parse_expr()
        self.expect_op(":")
        term = self.parse_expr()
        self.expect_eof()
        return SeriesSpec(index, lower, upper, term)

    def parse_closed(self) -> ClosedForm:
        expr = self.parse_expr()
        self.expect_eof()
        return ClosedForm(expr)

    def expect_eof(self):
        if self.peek().kind != "EOF":
            self.error("end of input")

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                right = self.parse_term()
                node = Add(node, right) if tok.text == "+" else Sub(node, right)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                right = self.parse_factor()
                node = Mul(node, right) if tok.text == "*" else Div(node, right)
            else:
                return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            return Pow(base, self.parse_factor())
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Num(int(tok.text))
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "IDENT":
            name = tok.text
            if name in _ATOM_NAMES:
                self.advance()
                return self.parse_call(name)
            self.advance()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                raise ParseError(self.src.origin, nxt.line, nxt.column,
                                 "a known atom before '('", repr(name))
            return Param(name)
        self.error("a number, parameter, or atom")

    def parse_call(self, name: str) -> Expr:
        if name == "pi":
            return PiConst()
        self.expect_op("(")
        if name == "poch":
            x = self.parse_expr()
            self.expect_op(",")
            count = self.parse_expr()
            node = Poch(x, count)
        elif name == "qpoch":
            x = self.parse_expr()
            self.expect_op(",")
            step = self.expect_int(minimum=1, what="a step")
            self.expect_op(",")
            count = self.parse_expr()
            node = QPoch(x, step, count)
        elif name == "qpochinf":
            x = self.parse_expr()
            self.expect_op(",")
            step = self.expect_int(minimum=1, what="a step")
            node = QPochInf(x, step)
        elif name == "fact":
            node = Fact(self.parse_expr())
        elif name == "dfactodd":
            node = DFactOdd(self.parse_expr())
        elif name == "qint":
            node = QInt(self.parse_expr())
        elif name == "harm":
            order = self.expect_int(minimum=1, what="an order")
            self.expect_op(",")
            count = self.parse_expr()
            node = Harm(order, count)
        elif name == "harmx":
            order = self.expect_int(minimum=1, what="an order")
            self.expect_op(",")
            count = self.parse_expr()
            self.expect_op(",")
            offset = self.parse_expr()
            node = HarmX(order, count, offset)
        elif name == "qsum":
            order, stride, shift = self.expect_q_sum_indices(infinite=False)
            sign = self.expect_sign()
            self.expect_op(",")
            count = self.parse_expr()
            node = QSum(order, stride, shift, sign, count)
        elif name == "qsuminf":
            order, stride, shift = self.expect_q_sum_indices(infinite=True)
            sign = self.expect_sign()
            node = QSumInf(order, stride, shift, sign)
        elif name == "sqrt":
            node = Sqrt(self.expect_int())
        elif name == "sinpi":
            node = SinPi(self.parse_expr())
        elif name == "cospi":
            node = CosPi(self.parse_expr())
        else:  # pragma: no cover - _ATOM_NAMES is exhaustive
            self.error("a known atom")
        self.expect_op(")")
        return node


def _as_source(text: Union[str, SourceText]) -> SourceText:
    if isinstance(text, SourceText):
        return text
    return SourceText(text)


def parse_series_spec(text: Union[str, SourceText]) -> SeriesSpec:
    """Parse a ``sum`` header plus term expression into a SeriesSpec."""
    return _Parser(_as_source(text)).parse_series()


def parse_closed_form(text: Union[str, SourceText]) -> ClosedForm:
    """Parse a closed-form expression (no ``sum`` header)."""
    return _Parser(_as_source(text)).parse_closed()


def parse_side(text: Union[str, SourceText]) -> Union[SeriesSpec, ClosedForm]:
    """Parse either side of an identity: a series if it starts with ``sum``."""
    src = _as_source(text)
    if src.text.lstrip().startswith("sum "):
        return parse_series_spec(src)
    return parse_closed_form(src)


# --------------------------------------------------------------------- renderer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(node, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if isinstance(node, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(node: Expr, min_level: int) -> str:
    text = render(node)
    if _level(node) < min_level:
        return f"({text})"
    return text


def render(node) -> str:
    """Canonical text for an AST node; ``parse(render(x))`` equals x structurally."""
    if isinstance(node, SeriesSpec):
        upper = "inf" if node.upper is None else render(node.upper)
        return f"sum {node.index}={node.lower}..{upper} : {render(node.term)}"
    if isinstance(node, ClosedForm):
        return render(node.expr)
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Add):
        return f"{_wrap(node.left, _LEVEL_ADD)} + {_wrap(node.right, _LEVEL_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _LEVEL_ADD)} - {_wrap(node.right, _LEVEL_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _LEVEL_MUL)}*{_wrap(node.right, _LEVEL_MUL + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _LEVEL_MUL)}/{_wrap(node.right, _LEVEL_MUL + 1)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _LEVEL_UNARY)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _LEVEL_ATOM)}^{_wrap(node.exponent, _LEVEL_UNARY)}"
    if isinstance(node, Poch):
        return f"poch({render(node.x)},{render(node.count)})"
    if isinstance(node, QPoch):
        return f"qpoch({render(node.x)},{node.step},{render(node.count)})"
    if isinstance(node, QPochInf):
        return f"qpochinf({render(node.x)},{node.step})"
    if isinstance(node, Fact):
        return f"fact({render(node.count)})"
    if isinstance(node, DFactOdd):
        return f"dfactodd({render(node.count)})"
    if isinstance(node, QInt):
        return f"qint({render(node.count)})"
    if isinstance(node, Harm):
        return f"harm({node.order},{render(node.count)})"
    if isinstance(node, HarmX):
        return f"harmx({node.order},{render(node.count)},{render(node.offset)})"
    if isinstance(node, QSum):
        sign = "+" if node.sign == 1 else "-"
        return f"qsum({node.order},{node.stride},{node.shift},{sign},{render(node.count)})"
    if isinstance(node, QSumInf):
        sign = "+" if node.sign == 1 else "-"
        return f"qsuminf({node.order},{node.stride},{node.shift},{sign})"
    if isinstance(node, PiConst):
        return "pi"
    if isinstance(node, Sqrt):
        return f"sqrt({node.radicand})"
    if isinstance(node, SinPi):
        return f"sinpi({render(node.arg)})"
    if isinstance(node, CosPi):
        return f"cospi({render(node.arg)})"
    raise TypeError(f"cannot render {type(node).__name__}")


def parameters_of(node) -> set:
    """All parameter names referenced by an expression, series, or closed form."""
    names = set()
    _collect_params(node, names)
    return names


def _collect_params(node, names: set):
    if isinstance(node, SeriesSpec):
        if node.upper is not None:
            _collect_params(node.upper, names)
        _collect_params(node.term, names)
        names.discard(node.index)
        return
    if isinstance(node, ClosedForm):
        _collect_params(node.expr, names)
        return
    if isinstance(node, Param):
        names.add(node.name)
        return
    if isinstance(node, (QPoch, QPochInf, QInt, QSum, QSumInf)):
        names.add("q")
    for attr in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, attr)
        if isinstance(value, (Num, Param, Add, Sub, Mul, Div, Neg, Pow, Poch, QPoch,
                              QPochInf, Fact, DFactOdd, QInt, Harm, HarmX, QSum,
                              QSumInf, PiConst, Sqrt, SinPi, CosPi)):
            _collect_params(value, names)
