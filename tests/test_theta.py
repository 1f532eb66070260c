import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetasums.dsl import parse_theta_expression, serialize
from thetasums.series import Series
from thetasums.theta import (
    ProductTerm,
    ThetaAtom,
    ThetaError,
    ThetaExpression,
    UnsupportedDissection,
    UnsupportedSplit,
    atom_exponents,
    atom_series,
    canonicalize,
    dissect,
    expression_series,
    product_split,
)

from oracles import dense_expression_series, mul, shift, stepped_atom_exponents


def test_atom_validation():
    with pytest.raises(ThetaError):
        ThetaAtom(0, 0)
    with pytest.raises(ThetaError):
        ThetaAtom(-1, 2)


def test_named_shapes():
    named = ("phi(q)", "psi(q^8)", "X(q^4)", "Y(q^12)")
    atoms = (ThetaAtom(1, 1), ThetaAtom(8, 24), ThetaAtom(4, 8), ThetaAtom(12, 60))
    assert parse_theta_expression("*".join(named)).terms[0].atoms == atoms
    assert tuple(serialize(a) for a in atoms) == named


def test_canonicalize_swaps_sorts_and_doubles():
    term = ProductTerm(1, 0, (ThetaAtom(3, 1),))
    assert canonicalize(term).atoms == (ThetaAtom(1, 3),)

    term = ProductTerm(1, 0, (ThetaAtom(0, 8),))
    fixed = canonicalize(term)
    assert fixed.multiplier == 2
    assert fixed.atoms == (ThetaAtom(8, 24),)

    term = ProductTerm(3, 2, (ThetaAtom(2, 10), ThetaAtom(1, 5)))
    fixed = canonicalize(term)
    assert fixed.atoms == (ThetaAtom(1, 5), ThetaAtom(2, 10))
    assert canonicalize(fixed) == fixed  # idempotent


def test_atom_series_prefixes():
    assert atom_series(ThetaAtom(1, 1), 10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert atom_series(ThetaAtom(1, 3), 10).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0)
    assert atom_series(ThetaAtom(1, 5), 10).coeffs == (1, 1, 0, 0, 0, 1, 0, 0, 1, 0)
    assert atom_series(ThetaAtom(1, 2), 8).coeffs == (1, 1, 1, 0, 0, 1, 0, 1)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (1, 5), (2, 3), (3, 1), (1, 0)]),
    st.integers(1, 12),
    st.integers(0, 5000),
)
def test_atom_exponents_match_stepping_each_branch(shape, coeff, limit):
    # (1, 0) and (3, 1) put the larger parameter first; the closed-form end
    # of each branch must give the same list, order and multiplicity.
    i, j = coeff * shape[0], coeff * shape[1]
    expected = stepped_atom_exponents(i, j, limit)
    assert atom_exponents(i, j, limit) == expected
    coeffs = [0] * (limit + 1)
    for e in expected:
        coeffs[e] += 1
    assert atom_series(ThetaAtom(i, j), limit + 1).coeffs == tuple(coeffs)


def test_atom_exponents_below_zero_is_empty():
    assert atom_exponents(1, 3, -1) == [] == stepped_atom_exponents(1, 3, -1)


def test_atom_series_coefficients_nonnegative():
    for i in range(1, 9):
        for j in range(i, 9):
            assert all(c >= 0 for c in atom_series(ThetaAtom(i, j), 200).coeffs)


def test_expression_series_empty_and_singleton():
    assert expression_series(ThetaExpression(()), 6).coeffs == (0,) * 6
    expr = ThetaExpression((ProductTerm(1, 0, (ThetaAtom(1, 1),)),))
    assert expression_series(expr, 12).coeffs == atom_series(ThetaAtom(1, 1), 12).coeffs


_ATOMS = st.one_of(
    st.sampled_from([ThetaAtom(1, 1), ThetaAtom(1, 3), ThetaAtom(0, 1), ThetaAtom(0, 3)]),
    st.builds(ThetaAtom, st.integers(0, 6), st.integers(1, 12)),
)
_TERMS = st.builds(
    ProductTerm,
    st.integers(1, 5),
    st.integers(0, 320),
    st.lists(_ATOMS, min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERMS, max_size=3).map(tuple), st.integers(1, 300))
def test_expression_series_matches_dense_series_arithmetic(terms, order):
    # Unit-argument and repeated atoms, multipliers, and shifts up to past
    # the order, against products, scales, shifts and sums of full lists.
    expr = ThetaExpression(terms)
    assert expression_series(expr, order) == dense_expression_series(expr, order)


def test_packaged_identity_sides_match_dense_series_arithmetic(catalog):
    sides = [side for e in catalog.of_kind("identity") for side in (e.lhs, e.rhs)]
    assert len(sides) == 26
    for expr in sides:
        assert expression_series(expr, 4000).coeffs == dense_expression_series(expr, 4000).coeffs


def test_expression_series_needs_a_positive_order():
    for order in (0, -1):
        with pytest.raises(ValueError, match="^series order must be positive$"):
            expression_series(parse_theta_expression("phi(q)"), order)


def test_expression_series_two_square_dissection():
    expr = parse_theta_expression("phi(q^4) + 2*q*psi(q^8)")
    ok, diff = expression_series(expr, 500).equal_upto(
        atom_series(ThetaAtom(1, 1), 500), 500
    )
    assert ok, diff


def test_dissect_known_splits():
    assert serialize(dissect(ThetaAtom(1, 1), 2)) == "phi(q^4) + 2*q*psi(q^8)"
    assert serialize(dissect(ThetaAtom(1, 3), 2)) == "f(q^6, q^10) + q*f(q^2, q^14)"
    assert serialize(dissect(ThetaAtom(1, 5), 2)) == "X(q^8) + q*Y(q^4)"


def test_dissect_matches_series_for_all_small_atoms():
    for i in range(1, 9):
        for j in range(i, 9):
            atom = ThetaAtom(i, j)
            expr = dissect(atom, 2)
            ok, diff = expression_series(expr, 128).equal_upto(
                atom_series(atom, 128), 128
            )
            assert ok, (i, j, diff)


def test_dissect_rejects_deeper_splits():
    # The closed form goes negative at the last residue for every n >= 3.
    for n in (3, 4, 5):
        with pytest.raises(UnsupportedDissection):
            dissect(ThetaAtom(1, 3), n)
    with pytest.raises(ValueError):
        dissect(ThetaAtom(1, 3), 1)


def test_product_split_known_cases():
    assert (
        serialize(product_split(ThetaAtom(1, 1), ThetaAtom(1, 1)))
        == "phi(q^2)^2 + 4*q*psi(q^4)^2"
    )
    assert (
        serialize(product_split(ThetaAtom(1, 3), ThetaAtom(1, 3)))
        == "psi(q^2)*phi(q^4) + 2*q*psi(q^2)*psi(q^8)"
    )
    assert (
        serialize(product_split(ThetaAtom(1, 5), ThetaAtom(1, 5)))
        == "Y(q^2)*phi(q^6) + 2*q*X(q^4)*psi(q^12)"
    )
    assert (
        serialize(product_split(ThetaAtom(1, 5), ThetaAtom(3, 3)))
        == "X(q^4)^2 + q*Y(q^2)^2"
    )


def test_product_split_requires_matching_sums():
    with pytest.raises(ThetaError):
        product_split(ThetaAtom(1, 1), ThetaAtom(1, 3))
    # Splitting in the wrong order runs into a negative exponent.
    with pytest.raises(UnsupportedSplit):
        product_split(ThetaAtom(3, 3), ThetaAtom(1, 5))


def test_product_split_matches_series_for_matching_pairs():
    pairs = []
    for total in range(2, 13):
        atoms = [ThetaAtom(i, total - i) for i in range(1, total // 2 + 1)]
        for a1 in atoms:
            for a2 in atoms:
                pairs.append((a1, a2))
    checked = 0
    for a1, a2 in pairs:
        try:
            expr = product_split(a1, a2)
        except UnsupportedSplit:
            continue
        product = Series(mul(atom_series(a1, 512).coeffs, atom_series(a2, 512).coeffs))
        ok, diff = expression_series(expr, 512).equal_upto(product, 512)
        assert ok, (a1, a2, diff)
        checked += 1
    assert checked > 50


def test_canonicalize_preserves_series():
    raw = ProductTerm(1, 1, (ThetaAtom(0, 4), ThetaAtom(5, 2)))
    fixed = canonicalize(raw)
    # Evaluate the raw term by hand: shift * atom products.
    left, right = atom_series(ThetaAtom(0, 4), 64), atom_series(ThetaAtom(5, 2), 64)
    series = Series(shift(mul(left.coeffs, right.coeffs), 1))
    ok, diff = expression_series(ThetaExpression((fixed,)), 64).equal_upto(series, 64)
    assert ok, diff
