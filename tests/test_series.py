"""Series, and the dense arithmetic on coefficient lists in the test oracle.

The package's Series has no arithmetic: theta.expression_series is the
one route to a theta product.  zero, add, scale, mul and shift live in
oracles as the reference route that expression_series is checked against,
and are tested here, beside the Series tests.
"""

import random

import pytest

from thetasums.series import Series
from thetasums.theta import ThetaAtom, atom_series

from oracles import add, mul, scale, schoolbook_mul, shift, zero


def random_sparse(rng, order, density=0.1, magnitude=9):
    coeffs = [0] * order
    for e in range(order):
        if rng.random() < density:
            coeffs[e] = rng.randint(-magnitude, magnitude) or 1
    return coeffs


def test_construction_pads_and_truncates():
    s = Series([1, 2], 5)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = Series([1, 2, 3, 4], 2)
    assert t.coeffs == (1, 2)
    with pytest.raises(ValueError):
        Series([], 0)


def test_add_identity_and_cancellation():
    one_plus_q = [1, 1] + [0] * 8
    assert add(one_plus_q, zero(10)) == one_plus_q
    a = [1, 2, 0, 0, 0]
    b = [1, -2, 0, 0, 0]
    assert add(a, b) == [2, 0, 0, 0, 0]


def test_add_theta_prefixes():
    phi = [1, 2, 0, 0, 2]
    psi = [1, 1, 0, 1, 0]
    assert add(phi, psi) == [2, 3, 0, 1, 2]


def test_add_truncates_to_min_order():
    a = [1] * 8
    b = [1] * 5
    assert len(add(a, b)) == 5


def test_mul_identity_and_binomial():
    s = [3, 1, 4, 1, 5]
    assert mul(s, [1, 0, 0, 0, 0]) == s
    sq = mul([1, 1, 0, 0], [1, 1, 0, 0])
    assert sq == [1, 2, 1, 0]


def test_mul_counts_sums_of_two_squares():
    # Count representations n = x^2 + y^2 directly, then compare.
    expected = [0] * 10
    for x in range(-3, 4):
        for y in range(-3, 4):
            if x * x + y * y < 10:
                expected[x * x + y * y] += 1
    assert expected == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4]
    phi = list(atom_series(ThetaAtom(1, 1), 10).coeffs)
    assert mul(phi, phi) == expected


def test_mul_matches_schoolbook_on_random_inputs():
    rng = random.Random(90210)
    for _ in range(25):
        order = rng.randint(1, 128)
        a = random_sparse(rng, order, density=rng.uniform(0.05, 0.5))
        b = random_sparse(rng, order, density=rng.uniform(0.05, 0.5))
        assert mul(a, b) == schoolbook_mul(a, b)


def test_shift():
    assert shift([1, 0, 0, 0, 0], 3) == [0, 0, 0, 1, 0]
    phi = [1, 2, 0, 0, 2, 0]
    assert shift(phi, 1) == [0, 1, 2, 0, 0, 2]
    s = [5, 6, 7]
    assert shift(s, 0) is s
    assert shift(s, 10) == [0, 0, 0]
    with pytest.raises(ValueError):
        shift(s, -1)


def test_equal_upto():
    s = Series([1, 1], 10)
    ok, diff = s.equal_upto(s, 10)
    assert ok and diff is None
    t = Series([1, 1, 0, 0, 0, 0, 0, 0, 0, 1], 10)
    ok, diff = s.equal_upto(t, 9)
    assert ok
    ok, diff = s.equal_upto(t, 10)
    assert not ok and diff == (9, 0, 1)
    with pytest.raises(ValueError):
        s.equal_upto(t, 11)


def test_equal_upto_returns_the_witness_of_a_single_difference():
    rng = random.Random(4000)
    n = 4000
    base = [rng.randint(-9, 9) for _ in range(n + 5)]
    same = Series(base)
    for e in (0, n - 1, rng.randint(1, n - 2)):
        changed = list(base)
        changed[e] += 7
        other = Series(changed)
        assert same.equal_upto(other, n) == (False, (e, base[e], base[e] + 7))
        assert other.equal_upto(same, n) == (False, (e, base[e] + 7, base[e]))
    for e in (n, n + 4):
        changed = list(base)
        changed[e] -= 1
        assert same.equal_upto(Series(changed), n) == (True, None)


def test_a_comparison_past_either_order_is_refused():
    short, long = Series([1, 2, 3], 3), Series([1, 2, 3, 4, 5], 5)
    assert short.equal_upto(long, 3) == (True, None)
    for left, right in ((short, long), (long, short)):
        with pytest.raises(ValueError, match="exceeds a series order"):
            left.equal_upto(right, 4)


def test_ring_axioms_up_to_truncation():
    rng = random.Random(777)
    for _ in range(8):
        order = rng.randint(2, 256)
        a = random_sparse(rng, order)
        b = random_sparse(rng, order)
        c = random_sparse(rng, order)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_scale_and_exactness():
    # Exact integer arithmetic at any magnitude: no silent wraparound.
    big = 10**30
    s = [big, -big, 0]
    assert scale(s, big) == [big * big, -big * big, 0]
    assert mul(s, s) == [big * big, -2 * big * big, big * big]


def test_scale_by_zero_is_zero_and_by_one_is_the_series():
    s = [3, -1, 4]
    assert scale(s, 0) == zero(3)
    assert scale(s, 1) == s
    assert scale(s, -2) == [-6, 2, -8]


def test_a_series_of_order_one_is_the_least():
    assert zero(1) == [0]
    assert atom_series(ThetaAtom(1, 1), 1).coeffs == (1,)
    for order in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            zero(order)
        with pytest.raises(ValueError, match="must be positive"):
            atom_series(ThetaAtom(1, 1), order)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3"], ids=["float", "integral-float", "str"])
def test_coefficients_and_scale_factors_must_be_integers(bad):
    with pytest.raises(TypeError):
        Series([1, bad, 3])
    with pytest.raises(TypeError):
        scale([1, 2, 3], bad)
    assert Series([True, 2]).coeffs == (1, 2)
