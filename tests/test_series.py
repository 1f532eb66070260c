import random

import pytest

from thetasums.series import Series
from thetasums.theta import ThetaAtom, atom_series

from oracles import schoolbook_mul


def random_sparse(rng, order, density=0.1, magnitude=9):
    coeffs = [0] * order
    for e in range(order):
        if rng.random() < density:
            coeffs[e] = rng.randint(-magnitude, magnitude) or 1
    return Series(coeffs, order)


def test_construction_pads_and_truncates():
    s = Series([1, 2], 5)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = Series([1, 2, 3, 4], 2)
    assert t.coeffs == (1, 2)
    with pytest.raises(ValueError):
        Series([], 0)


def test_add_identity_and_cancellation():
    one_plus_q = Series([1, 1], 10)
    zero = Series.zero(10)
    assert one_plus_q.add(zero).coeffs == one_plus_q.coeffs
    a = Series([1, 2], 5)
    b = Series([1, -2], 5)
    assert a.add(b).coeffs == (2, 0, 0, 0, 0)


def test_add_theta_prefixes():
    phi = Series([1, 2, 0, 0, 2], 5)
    psi = Series([1, 1, 0, 1, 0], 5)
    assert phi.add(psi).coeffs == (2, 3, 0, 1, 2)


def test_add_truncates_to_min_order():
    a = Series([1] * 8, 8)
    b = Series([1] * 5, 5)
    assert a.add(b).order == 5


def test_mul_identity_and_binomial():
    s = Series([3, 1, 4, 1, 5], 5)
    assert s.mul(Series([1], 5)).coeffs == s.coeffs
    sq = Series([1, 1], 4).mul(Series([1, 1], 4))
    assert sq.coeffs == (1, 2, 1, 0)


def test_mul_counts_sums_of_two_squares():
    # Count representations n = x^2 + y^2 directly, then compare.
    expected = [0] * 10
    for x in range(-3, 4):
        for y in range(-3, 4):
            if x * x + y * y < 10:
                expected[x * x + y * y] += 1
    assert expected == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4]
    phi = atom_series(ThetaAtom(1, 1), 10)
    assert phi.mul(phi).coeffs == tuple(expected)


def test_mul_matches_schoolbook_on_random_inputs():
    rng = random.Random(90210)
    for _ in range(25):
        order = rng.randint(1, 128)
        a = random_sparse(rng, order, density=rng.uniform(0.05, 0.5))
        b = random_sparse(rng, order, density=rng.uniform(0.05, 0.5))
        assert a.mul(b).coeffs == schoolbook_mul(a, b).coeffs


def test_shift():
    assert Series([1], 5).shift(3).coeffs == (0, 0, 0, 1, 0)
    phi = Series([1, 2, 0, 0, 2, 0], 6)
    assert phi.shift(1).coeffs == (0, 1, 2, 0, 0, 2)
    s = Series([5, 6, 7], 3)
    assert s.shift(0) is s
    assert s.shift(10).coeffs == (0, 0, 0)
    with pytest.raises(ValueError):
        s.shift(-1)


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
        assert a.add(b).coeffs == b.add(a).coeffs
        assert a.add(b).add(c).coeffs == a.add(b.add(c)).coeffs
        assert a.mul(b).coeffs == b.mul(a).coeffs
        assert a.mul(b).mul(c).coeffs == a.mul(b.mul(c)).coeffs
        assert a.mul(b.add(c)).coeffs == a.mul(b).add(a.mul(c)).coeffs


def test_scale_and_exactness():
    # Exact integer arithmetic at any magnitude: no silent wraparound.
    big = 10**30
    s = Series([big, -big], 3)
    assert s.scale(big).coeffs == (big * big, -big * big, 0)
    assert s.mul(s).coeffs == (big * big, -2 * big * big, big * big)


def test_scale_by_zero_is_zero_and_by_one_is_the_series():
    s = Series([3, -1, 4], 3)
    assert s.scale(0) == Series.zero(3)
    assert s.scale(1) == s
    assert s.scale(-2).coeffs == (-6, 2, -8)


def test_a_series_of_order_one_is_the_least():
    assert Series.zero(1).coeffs == (0,)
    assert atom_series(ThetaAtom(1, 1), 1).coeffs == (1,)
    for order in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            Series.zero(order)
        with pytest.raises(ValueError, match="must be positive"):
            atom_series(ThetaAtom(1, 1), order)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3"], ids=["float", "integral-float", "str"])
def test_coefficients_and_scale_factors_must_be_integers(bad):
    with pytest.raises(TypeError):
        Series([1, bad, 3])
    with pytest.raises(TypeError):
        Series([1, 2, 3]).scale(bad)
    assert Series([True, 2]).coeffs == (1, 2)
