import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetasums import dsl
from thetasums.catalog import load_catalog, parse_catalog_text
from thetasums.dsl import (
    ParseError,
    parse_polygonal_sum,
    parse_sums,
    parse_theta_expression,
    serialize,
)
from thetasums.polygonal import QuadTerm
from thetasums.theta import ProductTerm, ThetaAtom, ThetaExpression

from oracles import char_tokenize


def test_parse_simple_atoms():
    expr = parse_theta_expression("phi(q)")
    assert expr.terms == (ProductTerm(1, 0, (ThetaAtom(1, 1),)),)
    expr = parse_theta_expression("f(q, q^2)")
    assert expr.terms[0].atoms == (ThetaAtom(1, 2),)
    assert parse_theta_expression("Y(q^4)").terms[0].atoms == (ThetaAtom(4, 20),)


def test_parse_q1_rhs_prefix():
    expr = parse_theta_expression("X(q^8)*X(q^16)*Y(q^4)^2 + q*X(q^16)*Y(q^4)^3")
    assert len(expr.terms) == 2
    first, second = expr.terms
    assert first.multiplier == 1 and first.shift == 0
    assert first.atoms == (
        ThetaAtom(8, 16),
        ThetaAtom(16, 32),
        ThetaAtom(4, 20),
        ThetaAtom(4, 20),
    )
    assert second.shift == 1
    assert second.atoms == (ThetaAtom(16, 32),) + (ThetaAtom(4, 20),) * 3


def test_parse_multiplier_and_shift():
    expr = parse_theta_expression("2*q^2*psi(q^9)*Y(q^3)")
    term = expr.terms[0]
    assert term.multiplier == 2
    assert term.shift == 2
    assert term.atoms == (ThetaAtom(9, 27), ThetaAtom(3, 15))


def test_a_product_term_holds_up_to_the_atom_cap():
    assert dsl.MAX_PRODUCT_ATOMS == 256
    terms = parse_theta_expression("phi(q)^128*Y(q)^127*psi(q) + phi(q)^256").terms
    assert [len(t.atoms) for t in terms] == [256, 256]


def test_parse_whitespace_insensitive():
    a = parse_theta_expression("phi(q^4)+2*q*psi(q^8)")
    b = parse_theta_expression("  phi( q^4 )  +  2 * q * psi( q^8 ) ")
    assert a == b


# Malformed inputs and their exact errors, as the character-by-character
# lexer reported them before the regex scanner replaced it.
MALFORMED = [
    ("theta_expression", "phi(q", "line 1, cols 6-6: expected ')', found ''"),
    ("theta_expression", "phi(q) + ", "line 1, cols 10-10: expected an atom, found ''"),
    ("theta_expression", "phi(q^4) + 2*plop(q)", "line 1, cols 14-17: unknown atom name 'plop'"),
    ("theta_expression", "f(q^0, q^0)", "line 1, cols 1-1: atom f(1, 1) has no series"),
    ("theta_expression", "psi(q^0)", "line 1, cols 1-3: psi needs a positive power of q"),
    ("theta_expression", "0*phi(q)", "line 1, cols 1-1: multiplier must be >= 1"),
    ("theta_expression", "2 phi(q)",
     "line 1, cols 3-5: expected '*' after multiplier, found 'phi'"),
    ("theta_expression", "q^2 psi(q)",
     "line 1, cols 5-7: expected '*' after q-power prefactor, found 'psi'"),
    ("theta_expression", "phi(q)^0", "line 1, cols 8-8: atom power must be >= 1"),
    ("theta_expression", "phi(q) ! psi(q)", "line 1, cols 8-8: unexpected character '!'"),
    ("theta_expression", "phi(q)\n  + psi(q^2)\n  + Y(q^3) Y",
     "line 3, cols 12-12: trailing input 'Y'"),
    ("theta_expression", "f(q, q^2", "line 1, cols 9-9: expected ')', found ''"),
    ("theta_expression", "phi(q)^99999999999999999999",
     "line 1, cols 8-27: product term has more than 256 atoms"),
    ("theta_expression", "phi(q) + phi(q)^200*Y(q)^57",
     "line 1, cols 26-27: product term has more than 256 atoms"),
    ("theta_expression", "phi(q)^256*Y(q)", "line 1, cols 12-12: product term has more than 256 atoms"),
    ("polygonal_sum", "p2", "line 1, cols 1-1: polygonal order 2 < 3"),
    ("polygonal_sum", "p3 + + p4", "line 1, cols 6-6: expected a term, found '+'"),
    ("polygonal_sum", "x(3x+2)/2", "line 1, cols 1-1: parity violation: 3 and -2 differ mod 2"),
    ("polygonal_sum", "x(3x+1)/3", "line 1, cols 9-9: denominator must be 2"),
    ("polygonal_sum", "0*p3", "line 1, cols 1-1: coefficient must be >= 1"),
    ("polygonal_sum", "p3 + r5", "line 1, cols 6-6: unknown term 'r'"),
    ("polygonal_sum", "p3 + p", "line 1, cols 7-7: expected polygonal order, found ''"),
    ("polygonal_sum", "p3 + 2*", "line 1, cols 8-8: expected a term, found ''"),
    ("polygonal_sum", "x(5x-7)/2", "line 1, cols 1-1: |b| > a would produce negative values"),
    ("polygonal_sum", "p3 p4", "line 1, cols 4-4: trailing input 'p'"),
    ("chain", "p3 ~ p6 ~ ", "line 1, cols 11-11: expected a term, found ''"),
    ("chain", "p3 ~\n\tp6 ~ x(4x-2/2", "line 2, cols 13-13: expected ')', found '/'"),
    ("chain", "p3 ~ p6 . p8", "line 1, cols 9-9: unexpected character '.'"),
    ("claims", "p4 + p4 + p4 | p4 + q4 + p4", "line 1, cols 21-21: unknown term 'q'"),
    ("claims", "p4 | | p8", "line 1, cols 6-6: expected a term, found '|'"),
    ("polygonal_sum", "p3 | p4", "line 1, cols 4-4: trailing input '|'"),
]


PARSERS = {
    "theta_expression": parse_theta_expression,
    "polygonal_sum": parse_polygonal_sum,
    "chain": lambda text: parse_sums(text, "~"),
    "claims": lambda text: parse_sums(text, "|"),
}


@pytest.mark.parametrize("grammar, text, message", MALFORMED)
def test_malformed_input_errors_are_pinned(grammar, text, message):
    with pytest.raises(ParseError) as info:
        PARSERS[grammar](text)
    assert str(info.value) == message


def _scan(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return str(exc), exc.span


def _regex_scan(text):
    """dsl.tokenize's strings, each with the span its error path would report."""
    return [
        (tok, dsl._span(text, dsl._token_start(text, i), len(tok)))
        for i, tok in enumerate(dsl.tokenize(text))
    ]


@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + "+-*^(),/~| \t\n\u2003\xa0\u2028"
    )
    | st.text(alphabet=string.printable + "\u2003\xa0\u2028")
)
def test_the_regex_scanner_matches_the_character_lexer(text):
    assert _scan(_regex_scan, text) == _scan(char_tokenize, text)


def test_every_packaged_field_scans_as_the_character_lexer_does(catalog):
    texts = [value for entry in catalog.entries for value in entry.fields.values()]
    assert len(texts) == 666  # claims scan whole, their "|" tokens included
    for text in texts:
        assert _regex_scan(text) == char_tokenize(text), text


def test_valid_text_never_looks_for_a_token_start(monkeypatch):
    def no_rescan(text, index):
        raise AssertionError("token start computed for valid text")

    monkeypatch.setattr(dsl, "_token_start", no_rescan)
    assert len(load_catalog()) == 363
    # The '+' inside x(3x+1)/2 joins no two terms of the chain.
    (entry,) = parse_catalog_text("[k] kind: equivalence\nchain: x(3x+1)/2 + p4 ~ p5 + p4")
    assert entry.chain == tuple(parse_sums("p5 + p4 ~ p5 + p4", "~"))
    with pytest.raises(AssertionError, match="valid text"):
        parse_theta_expression("phi(q")


def test_parse_polygonal_sums():
    s = parse_polygonal_sum("p8 + p8 + p8 + 2*p8")
    assert len(s.terms) == 4
    assert s.terms[0] == QuadTerm(1, 6, -4)
    assert s.terms[3] == QuadTerm(2, 6, -4)

    s = parse_polygonal_sum("x(5x+1)/2 + x(5x+1)/2")
    assert s.terms[0] == QuadTerm(1, 5, -1)

    s = parse_polygonal_sum("p3")
    assert s.terms == (QuadTerm(1, 1, -1),)


def test_parse_chain():
    chain = parse_sums("p3 ~ p6 ~ x(4x-2)/2", "~")
    assert len(chain) == 3


def test_serialize_is_canonical_text():
    assert serialize(parse_theta_expression("phi(q)")) == "phi(q)"
    assert serialize(parse_theta_expression("phi( q^4 ) + 2 * q * psi(q^8)")) == (
        "phi(q^4) + 2*q*psi(q^8)"
    )


def test_roundtrip_theta():
    texts = [
        "phi(q)",
        "Y(q)*Y(q^2)*Y(q^4)^2",
        "X(q^8)*X(q^16)*Y(q^4)^2 + q*X(q^16)*Y(q^4)^3",
        "2*q^2*psi(q^9)*Y(q^3)",
        "f(q^6, q^10) + q*f(q^2, q^14)",
        "0",
    ]
    for text in texts:
        expr = parse_theta_expression(text)
        assert parse_theta_expression(serialize(expr)) == expr
        # One normalization pass is idempotent.
        assert serialize(parse_theta_expression(serialize(expr))) == serialize(expr)


def test_roundtrip_polygonal():
    texts = ["p3", "p8 + p8 + p8 + 2*p8", "x(5x-1)/2 + 3*x(7x-3)/2", "p6 + 2*p6"]
    for text in texts:
        s = parse_polygonal_sum(text)
        assert parse_polygonal_sum(serialize(s)) == s
        assert serialize(parse_polygonal_sum(serialize(s))) == serialize(s)


def test_serialize_doubled_canonical_term():
    from thetasums.theta import canonicalize

    term = canonicalize(ProductTerm(1, 0, (ThetaAtom(0, 8),)))
    assert serialize(term) == "2*psi(q^8)"


def test_roundtrip_all_catalog_entries(catalog):
    for entry in catalog.entries:
        for expr in (entry.lhs, entry.rhs):
            if expr is not None:
                assert parse_theta_expression(serialize(expr)) == expr
        if entry.decomposition is not None:
            lhs = ThetaExpression((entry.decomposition.lhs,))
            rhs = ThetaExpression(entry.decomposition.rhs)
            assert parse_theta_expression(serialize(lhs)) == lhs
            assert parse_theta_expression(serialize(rhs)) == rhs
        for s in entry.chain:
            assert parse_polygonal_sum(serialize(s)) == s
        if entry.target is not None:
            assert parse_polygonal_sum(serialize(entry.target)) == entry.target
        if entry.base is not None:
            assert parse_polygonal_sum(serialize(entry.base)) == entry.base
        for claim in entry.claims:
            assert parse_polygonal_sum(serialize(claim)) == claim
