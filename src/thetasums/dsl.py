"""Text grammar for theta expressions, polygonal sums, and catalog files.

Theta expressions:  expression := term ('+' term)*
                    term       := [INT '*']? [qpow '*']? factor ('*' factor)*
                    factor     := atom ['^' INT]
                    atom       := 'f(' qpow ',' qpow ')' | 'phi(' qpow ')'
                                  | 'psi(' qpow ')' | 'X(' qpow ')' | 'Y(' qpow ')'
                    qpow       := 'q' ['^' INT]
Polygonal sums:     sum  := term ('+' term)*
                    term := [INT '*']? ('p' INT | 'x(' INT 'x' [('+'|'-') INT] ')/2')
Chains:             chain := sum ('~' sum)*

The surface syntax is ASCII only, whitespace insensitive, and '^' binds
tighter than '*' which binds tighter than '+'.  Factor powers expand to
repeated atoms.  Serialization is canonical (single spacing, named atom
shapes, q^1 printed as q) and parse(serialize(v)) == v on valid values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygonal import PolygonalSum, QuadTerm
from .theta import ProductTerm, ThetaAtom, ThetaExpression

# Named atom shapes: name(q^n) is the atom (n, ratio * n).
_SHAPES = {"phi": 1, "X": 2, "psi": 3, "Y": 5}


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column range of a token."""

    line: int
    col_start: int
    col_end: int

    def __str__(self):
        return f"line {self.line}, cols {self.col_start}-{self.col_end}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


_PUNCT = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "/": "SLASH",
    "~": "TILDE",
}


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(
                Token("INT", text[start:i], SourceSpan(line, start_col, col - 1))
            )
            continue
        if ch.isalpha():
            start = i
            start_col = col
            while i < n and text[i].isalpha():
                i += 1
                col += 1
            tokens.append(
                Token("NAME", text[start:i], SourceSpan(line, start_col, col - 1))
            )
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(line, col, col))
        tokens.append(Token(kind, ch, SourceSpan(line, col, col)))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", SourceSpan(line, col, col)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            raise ParseError(f"expected {what}, found {self.current.text!r}", self.current.span)
        return tok

    def expect_int(self, what: str) -> int:
        return int(self.expect("INT", what).text)

    def done(self) -> bool:
        return self.current.kind == "EOF"

    # -- theta grammar -----------------------------------------------------

    def qpow(self) -> int:
        self.expect("NAME", "q", "q")
        return self.expect_int("exponent") if self.accept("CARET") else 1

    def atom(self) -> ThetaAtom:
        tok = self.current
        if tok.kind != "NAME":
            raise ParseError(f"expected an atom, found {tok.text!r}", tok.span)
        name = tok.text
        if name == "f":
            self.pos += 1
            self.expect("LPAREN", "'('")
            i = self.qpow()
            self.expect("COMMA", "','")
            j = self.qpow()
            self.expect("RPAREN", "')'")
            if i + j < 1:
                raise ParseError("atom f(1, 1) has no series", tok.span)
            return ThetaAtom(i, j)
        if name in _SHAPES:
            self.pos += 1
            self.expect("LPAREN", "'('")
            n = self.qpow()
            self.expect("RPAREN", "')'")
            if n < 1:
                raise ParseError(f"{name} needs a positive power of q", tok.span)
            return ThetaAtom(n, _SHAPES[name] * n)
        raise ParseError(f"unknown atom name {name!r}", tok.span)

    def theta_term(self) -> ProductTerm:
        multiplier = 1
        shift = 0
        tok = self.accept("INT")
        if tok is not None:
            multiplier = int(tok.text)
            if multiplier < 1:
                raise ParseError("multiplier must be >= 1", tok.span)
            self.expect("STAR", "'*' after multiplier")
        if self.accept("NAME", "q"):
            shift = self.expect_int("shift exponent") if self.accept("CARET") else 1
            self.expect("STAR", "'*' after q-power prefactor")
        atoms: list[ThetaAtom] = []
        while True:
            a = self.atom()
            power = 1
            if self.accept("CARET"):
                ptok = self.current
                power = self.expect_int("power")
                if power < 1:
                    raise ParseError("atom power must be >= 1", ptok.span)
            atoms.extend([a] * power)
            if not self.accept("STAR"):
                break
        return ProductTerm(multiplier, shift, tuple(atoms))

    def theta_expression(self) -> ThetaExpression:
        # A bare "0" denotes the empty (zero) expression.
        if self.current.kind == "INT" and self.current.text == "0":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "EOF":
                self.pos += 1
                return ThetaExpression(())
        terms = [self.theta_term()]
        while self.accept("PLUS"):
            terms.append(self.theta_term())
        return ThetaExpression(tuple(terms))

    # -- polygonal grammar ---------------------------------------------------

    def quad_term(self) -> QuadTerm:
        coeff = 1
        tok = self.accept("INT")
        if tok is not None:
            coeff = int(tok.text)
            if coeff < 1:
                raise ParseError("coefficient must be >= 1", tok.span)
            self.expect("STAR", "'*' after coefficient")
        name = self.current
        if name.kind != "NAME":
            raise ParseError(f"expected a term, found {name.text!r}", name.span)
        if name.text == "p":
            self.pos += 1
            m = self.expect_int("polygonal order")
            if m < 3:
                raise ParseError(f"polygonal order {m} < 3", name.span)
            return QuadTerm(coeff, m - 2, -(m - 4))
        if name.text == "x":
            self.pos += 1
            self.expect("LPAREN", "'('")
            a = self.expect_int("quadratic parameter")
            self.expect("NAME", "x", "x")
            if self.accept("PLUS"):
                b = self.expect_int("linear parameter")
            elif self.accept("MINUS"):
                b = -self.expect_int("linear parameter")
            else:
                b = 0
            self.expect("RPAREN", "')'")
            self.expect("SLASH", "'/2'")
            half = self.current
            if self.expect_int("denominator 2") != 2:
                raise ParseError("denominator must be 2", half.span)
            try:
                return QuadTerm(coeff, a, b)
            except ValueError as exc:
                raise ParseError(str(exc), name.span) from None
        raise ParseError(f"unknown term {name.text!r}", name.span)

    def polygonal_sum(self) -> PolygonalSum:
        terms = [self.quad_term()]
        while self.accept("PLUS"):
            terms.append(self.quad_term())
        return PolygonalSum(tuple(terms))

    def chain(self) -> list[PolygonalSum]:
        sums = [self.polygonal_sum()]
        while self.accept("TILDE"):
            sums.append(self.polygonal_sum())
        return sums


def _finish(parser: _Parser, value):
    if not parser.done():
        tok = parser.current
        raise ParseError(f"trailing input {tok.text!r}", tok.span)
    return value


def parse_theta_expression(text: str) -> ThetaExpression:
    p = _Parser(text)
    return _finish(p, p.theta_expression())


def parse_polygonal_sum(text: str) -> PolygonalSum:
    p = _Parser(text)
    return _finish(p, p.polygonal_sum())


def parse_chain(text: str) -> list[PolygonalSum]:
    p = _Parser(text)
    return _finish(p, p.chain())


# -- serialization ------------------------------------------------------------

_NAMED = {ratio: name for name, ratio in _SHAPES.items()}


def _qpow_text(e: int) -> str:
    return "q" if e == 1 else f"q^{e}"


def serialize_atom(a: ThetaAtom) -> str:
    if a.i >= 1 and a.j % a.i == 0 and a.j // a.i in _NAMED:
        return f"{_NAMED[a.j // a.i]}({_qpow_text(a.i)})"
    return f"f({_qpow_text(a.i)}, {_qpow_text(a.j)})"


def serialize_product_term(t: ProductTerm) -> str:
    parts = []
    if t.multiplier != 1:
        parts.append(str(t.multiplier))
    if t.shift:
        parts.append(_qpow_text(t.shift))
    run_atom: ThetaAtom | None = None
    run = 0
    for a in list(t.atoms) + [None]:
        if a == run_atom:
            run += 1
            continue
        if run_atom is not None:
            text = serialize_atom(run_atom)
            parts.append(text if run == 1 else f"{text}^{run}")
        run_atom = a
        run = 1
    return "*".join(parts)


def serialize_theta_expression(e: ThetaExpression) -> str:
    if not e.terms:
        return "0"
    return " + ".join(serialize_product_term(t) for t in e.terms)


def serialize_quad_term(t: QuadTerm) -> str:
    # Named form only when the stored fields are exactly an m-gonal shape,
    # so parsing the output reproduces the same QuadTerm.
    m = t.a + 2
    if -t.b == abs(m - 4):
        body = f"p{m}"
    else:
        body = f"x({t.a}x{'+0' if t.b == 0 else str(t.b)})/2"
    return body if t.coeff == 1 else f"{t.coeff}*{body}"


def serialize_polygonal_sum(s: PolygonalSum) -> str:
    return " + ".join(serialize_quad_term(t) for t in s.terms)


def serialize_chain(sums: list[PolygonalSum]) -> str:
    return " ~ ".join(serialize_polygonal_sum(s) for s in sums)


def serialize(value) -> str:
    """Canonical text for any DSL value."""
    if isinstance(value, ThetaExpression):
        return serialize_theta_expression(value)
    if isinstance(value, ProductTerm):
        return serialize_product_term(value)
    if isinstance(value, ThetaAtom):
        return serialize_atom(value)
    if isinstance(value, PolygonalSum):
        return serialize_polygonal_sum(value)
    if isinstance(value, QuadTerm):
        return serialize_quad_term(value)
    if isinstance(value, list):
        return serialize_chain(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
