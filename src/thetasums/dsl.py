"""Text grammar for theta expressions, polygonal sums, and catalog files.

Theta expressions:  expression := term ('+' term)*
                    term       := [INT '*']? [qpow '*']? factor ('*' factor)*
                    factor     := atom ['^' INT]
                    atom       := 'f(' qpow ',' qpow ')' | 'phi(' qpow ')'
                                  | 'psi(' qpow ')' | 'X(' qpow ')' | 'Y(' qpow ')'
                    qpow       := 'q' ['^' INT]
Polygonal sums:     sum  := term ('+' term)*
                    term := [INT '*']? ('p' INT | 'x(' INT 'x' [('+'|'-') INT] ')/2')
Chains:             chain  := sum ('~' sum)*
Claims:             claims := sum ('|' sum)*

The grammar is ASCII: a token is a run of digits, a run of letters, or
one of + - * ^ ( ) , / ~ |.  Whitespace separates tokens and is otherwise
ignored; any other character, ASCII or not, is an 'unexpected character'
error.  '^' binds tighter than '*' which binds tighter than '+'.  Factor
powers expand to repeated atoms.  Serialization is canonical (single
spacing, named atom shapes, q^1 printed as q) and parse(serialize(v)) == v
on valid values.

A token is a plain string whose kind is read off the string itself, and
"" ends the input.  Valid text never needs a token's position: only an
error scans the text again to find where its token starts.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import groupby, islice

from .polygonal import PolygonalSum, QuadTerm, term_from_polygonal
from .theta import ProductTerm, ThetaAtom, ThetaExpression

# Named atom shapes: name(q^n) is the atom (n, ratio * n).
_SHAPES = {"phi": 1, "X": 2, "psi": 3, "Y": 5}


class SourceSpan(namedtuple("SourceSpan", "line col_start col_end")):
    """1-based line and column range of a token."""

    __slots__ = ()

    def __str__(self):
        return f"line {self.line}, cols {self.col_start}-{self.col_end}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


def _span(text: str, start: int, length: int) -> SourceSpan:
    """The span of text[start:start + length]; an empty token spans one column."""
    col = start - text.rfind("\n", 0, start)
    return SourceSpan(text.count("\n", 0, start) + 1, col, col + max(length, 1) - 1)


_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+|[-+*^(),/~|]")
# Any non-space character that starts no token.
_BAD = re.compile(r"[^\s0-9A-Za-z+\-*^(),/~|]")


def tokenize(text: str) -> list[str]:
    """The token strings of text, then "" for its end."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", _span(text, bad.start(), 1))
    return _TOKEN.findall(text) + [""]


def _token_start(text: str, index: int) -> int:
    """Offset in text of token index of tokenize(text); the end token's is len(text)."""
    m = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token index at, by default the current token."""
        at = self.pos if at is None else at
        start = _token_start(self.text, at)
        return ParseError(message, _span(self.text, start, len(self.tokens[at])))

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, what: str) -> None:
        if not self.accept(text):
            raise self.error(f"expected {what}, found {self.tokens[self.pos]!r}")

    def expect_int(self, what: str) -> int:
        tok = self.tokens[self.pos]
        if not tok.isdigit():
            raise self.error(f"expected {what}, found {tok!r}")
        self.pos += 1
        try:
            return int(tok)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(f"{what} has too many digits", self.pos - 1) from None

    def prefix(self, what: str) -> int:
        """An optional 'INT *' prefix, 1 when absent; what names the integer."""
        at = self.pos
        if not self.tokens[at].isdigit():
            return 1
        n = self.expect_int(what)
        if n < 1:
            raise self.error(f"{what} must be >= 1", at)
        self.expect("*", f"'*' after {what}")
        return n

    def separated(self, item, separator: str) -> list:
        """item ('separator' item)*"""
        items = [item()]
        while self.accept(separator):
            items.append(item())
        return items

    # -- theta grammar -----------------------------------------------------

    def qpow(self) -> int:
        self.expect("q", "q")
        return self.expect_int("exponent") if self.accept("^") else 1

    def atom(self) -> ThetaAtom:
        at = self.pos
        name = self.tokens[at]
        if not name.isalpha():
            raise self.error(f"expected an atom, found {name!r}")
        if name == "f":
            self.pos += 1
            self.expect("(", "'('")
            i = self.qpow()
            self.expect(",", "','")
            j = self.qpow()
            self.expect(")", "')'")
            if i + j < 1:
                raise self.error("atom f(1, 1) has no series", at)
            return ThetaAtom(i, j)
        if name in _SHAPES:
            self.pos += 1
            self.expect("(", "'('")
            n = self.qpow()
            self.expect(")", "')'")
            if n < 1:
                raise self.error(f"{name} needs a positive power of q", at)
            return ThetaAtom(n, _SHAPES[name] * n)
        raise self.error(f"unknown atom name {name!r}")

    def theta_term(self) -> ProductTerm:
        multiplier = self.prefix("multiplier")
        shift = 0
        if self.accept("q"):
            shift = self.expect_int("shift exponent") if self.accept("^") else 1
            self.expect("*", "'*' after q-power prefactor")
        atoms: list[ThetaAtom] = []
        while True:
            a = self.atom()
            power = 1
            if self.accept("^"):
                at = self.pos
                power = self.expect_int("power")
                if power < 1:
                    raise self.error("atom power must be >= 1", at)
            atoms.extend([a] * power)
            if not self.accept("*"):
                break
        return ProductTerm(multiplier, shift, tuple(atoms))

    def theta_expression(self) -> ThetaExpression:
        # A bare "0" denotes the empty (zero) expression.
        if self.tokens[self.pos:] == ["0", ""]:
            self.pos += 1
            return ThetaExpression(())
        return ThetaExpression(tuple(self.separated(self.theta_term, "+")))

    # -- polygonal grammar ---------------------------------------------------

    def quad_term(self) -> QuadTerm:
        coeff = self.prefix("coefficient")
        at = self.pos
        name = self.tokens[at]
        if not name.isalpha():
            raise self.error(f"expected a term, found {name!r}")
        if name == "p":
            self.pos += 1
            m = self.expect_int("polygonal order")
            if m < 3:
                raise self.error(f"polygonal order {m} < 3", at)
            return term_from_polygonal(coeff, m)
        if name == "x":
            self.pos += 1
            self.expect("(", "'('")
            a = self.expect_int("quadratic parameter")
            self.expect("x", "x")
            if self.accept("+"):
                b = self.expect_int("linear parameter")
            elif self.accept("-"):
                b = -self.expect_int("linear parameter")
            else:
                b = 0
            self.expect(")", "')'")
            self.expect("/", "'/2'")
            if self.expect_int("denominator 2") != 2:
                raise self.error("denominator must be 2", self.pos - 1)
            try:
                return QuadTerm(coeff, a, b)
            except ValueError as exc:
                raise self.error(str(exc), at) from None
        raise self.error(f"unknown term {name!r}")

    def polygonal_sum(self) -> PolygonalSum:
        return PolygonalSum(tuple(self.separated(self.quad_term, "+")))


def _finish(parser: _Parser, value):
    if parser.tokens[parser.pos]:
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}")
    return value


def parse_theta_expression(text: str) -> ThetaExpression:
    p = _Parser(text)
    return _finish(p, p.theta_expression())


def parse_polygonal_sum(text: str) -> PolygonalSum:
    p = _Parser(text)
    return _finish(p, p.polygonal_sum())


def parse_chain(text: str) -> list[PolygonalSum]:
    p = _Parser(text)
    return _finish(p, p.separated(p.polygonal_sum, "~"))


def parse_claims(text: str) -> list[PolygonalSum]:
    p = _Parser(text)
    return _finish(p, p.separated(p.polygonal_sum, "|"))


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
    for atom, run in groupby(t.atoms):
        n = len(list(run))
        parts.append(serialize_atom(atom) + (f"^{n}" if n > 1 else ""))
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
