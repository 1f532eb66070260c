import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetasums import polygonal
from thetasums.catalog import run_catalog
from thetasums.cli import main as cli_main
from thetasums.dsl import parse_polygonal_sum
from thetasums.polygonal import (
    PolygonalSum,
    QuadTerm,
    SieveTable,
    _fold,
    _least_difference,
    _mask_bits,
    _shape,
    certify_universal,
    equivalent_upto,
    family_key,
    sum_families,
    sum_label,
    sum_value_mask,
    term_from_polygonal,
)

from oracles import (
    bitmask_sumset,
    brute_counts,
    brute_missing,
    expected_value_mask,
    reduce_term_by_divisors,
    representation_series,
    term_values_sorted,
)


def test_polygonal_value():
    # term_from_polygonal(1, m) takes the generalized m-gonal numbers
    # ((m-2)x^2 - (m-4)x)/2 as its values.  Pointwise they agree up to
    # x <-> -x: for m = 3 the term's b is normalized from +1 to -1.
    def p(m, x):
        return ((m - 2) * x * x - (m - 4) * x) // 2

    xs = range(-9, 10)
    for m in range(3, 12):
        term = term_from_polygonal(1, m)
        assert all(term.value(x) in (p(m, x), p(m, -x)) for x in xs)
        assert sorted(map(term.value, xs)) == sorted(p(m, x) for x in xs)
    assert term_from_polygonal(1, 3).value(-4) == p(3, 4) == 10
    assert term_from_polygonal(1, 5).value(-2) == 7
    assert term_from_polygonal(1, 8).value(-1) == 5
    assert term_from_polygonal(1, 4).value(7) == 49


def test_term_from_polygonal_value_sets():
    tri = term_from_polygonal(1, 3)
    assert sorted(set(tri.values_upto(12)))[:5] == [0, 1, 3, 6, 10]
    octa = term_from_polygonal(1, 8)
    assert sorted(set(octa.values_upto(21))) == [0, 1, 5, 8, 16, 21]
    pent2 = term_from_polygonal(2, 5)
    assert sorted(set(pent2.values_upto(24))) == [0, 2, 4, 10, 14, 24]
    with pytest.raises(ValueError):
        term_from_polygonal(1, 2)


@pytest.mark.parametrize(
    "term",
    [
        QuadTerm(1, 1, -1),
        QuadTerm(1, 2, 0),
        QuadTerm(1, 3, -1),
        QuadTerm(1, 4, -2),
        QuadTerm(1, 5, -3),
        QuadTerm(1, 6, -2),
        QuadTerm(3, 10, -6),  # 6*p5 spelled with the shape doubled
    ],
)
def test_values_upto_lists_each_value_once_in_order(term):
    bound = 2000
    values = term.values_upto(bound)
    # Strictly increasing, so no repeats: for the square (2, 0) and the
    # triangular (1, -1) shapes, x and -x or x and 1-x share a value.
    assert all(u < v for u, v in zip(values, values[1:]))
    brute = {term.value(x) for x in range(-bound, bound + 1)}
    assert values == sorted(v for v in brute if v <= bound)


@st.composite
def quad_terms(draw):
    """QuadTerms of every shape: b = -a gives the atom (0, j), b = 0 the
    atom (i, i), and p6's b = -a/2 the hexagonal (i, 3i), keyed (0, i)."""
    a = draw(st.integers(1, 12))
    b = draw(st.sampled_from([b for b in range(-a, 1) if (a - b) % 2 == 0]))
    return QuadTerm(draw(st.integers(1, 6)), a, b)


@settings(max_examples=300, deadline=None, database=None)
@given(term=quad_terms(), bound=st.integers(0, 3000))
@example(term=QuadTerm(1, 1, -1), bound=0)  # (0, 1): 0 is n = 0 and n = 1
@example(term=QuadTerm(2, 2, 0), bound=0)  # (2, 2)
@example(term=QuadTerm(1, 4, -2), bound=3000)  # p6, keyed (0, 1)
@example(term=QuadTerm(3, 5, -1), bound=3000)  # (6, 9)
def test_values_upto_is_the_brute_force_value_set(term, bound):
    assert term.values_upto(bound) == term_values_sorted(term, bound, with_multiplicity=False)


def test_quad_term_validation():
    with pytest.raises(ValueError):
        QuadTerm(1, 3, 2)  # parity
    with pytest.raises(ValueError):
        QuadTerm(1, 2, -4)  # |b| > a
    with pytest.raises(ValueError):
        QuadTerm(0, 1, 1)
    assert QuadTerm(1, 3, 1).b == -1  # normalized


def test_term_series():
    # Every triangular value is hit by two arguments (x and -x-1), so the
    # two-sided count is twice the one-sided one, exponent 0 included.
    def one_term(term, bound):
        return representation_series(PolygonalSum((term,)), bound).coeffs

    tri = term_from_polygonal(1, 3)
    assert one_term(tri, 7) == (2, 2, 0, 2, 0, 0, 2, 0)
    square = term_from_polygonal(1, 4)
    assert one_term(square, 9) == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    doubled = QuadTerm(1, 2, 0)  # x^2 via a=2, b=0
    coeffs = one_term(doubled, 9)
    assert coeffs[0] == 1 and coeffs[1] == 2 and coeffs[4] == 2 and coeffs[9] == 2


def test_value_set_symmetry_in_b():
    rng = random.Random(4242)
    for _ in range(50):
        a = rng.randint(1, 9)
        b = rng.randint(0, a)
        if (a - b) % 2:
            b -= 1
        if b < 0:
            continue
        c = rng.randint(1, 4)
        plus = QuadTerm(c, a, b)
        minus = QuadTerm(c, a, -b)
        assert plus == minus  # constructor normalizes the sign away
        assert set(plus.values_upto(500)) == set(minus.values_upto(500))


def test_representation_series_examples():
    four_squares = PolygonalSum((term_from_polygonal(1, 4),) * 4)
    series = representation_series(four_squares, 10)
    assert series[0] == 1
    assert series[1] == 8
    assert series.coeffs == tuple(brute_counts(four_squares, 10))

    octa = parse_polygonal_sum("p8 + p8 + p8 + 2*p8")
    series = representation_series(octa, 12)
    assert series.coeffs == tuple(brute_counts(octa, 12))
    assert series[0] >= 1


def test_certify_universal_examples():
    octa = parse_polygonal_sum("p8 + p8 + p8 + 2*p8")
    assert certify_universal(octa, 50000).universal

    even = parse_polygonal_sum("2*p4 + 2*p4 + 2*p4 + 2*p4")
    verdict = certify_universal(even, 100)
    assert not verdict.universal
    assert verdict.missing[0] == 1

    pent = parse_polygonal_sum("4*p5 + p8 + p8 + p8")
    assert certify_universal(pent, 50000).universal


def test_certify_monotone_in_bound():
    s = parse_polygonal_sum("p3 + p3 + p3")
    big = certify_universal(s, 5000)
    assert big.universal
    for smaller in (1, 10, 1234):
        assert certify_universal(s, smaller).universal


def test_missing_set_matches_series_and_brute_force():
    rng = random.Random(20240601)
    for _ in range(12):
        sum_ = PolygonalSum(
            tuple(
                term_from_polygonal(rng.randint(1, 4), rng.choice([3, 4, 5, 8]))
                for _ in range(4)
            )
        )
        bound = 400
        verdict = certify_universal(sum_, bound)
        series = representation_series(sum_, bound)
        series_missing = tuple(e for e in range(bound + 1) if series[e] == 0)
        assert verdict.missing == series_missing
        assert list(verdict.missing) == brute_missing(sum_, bound)


def test_counts_match_brute_force():
    rng = random.Random(77)
    for _ in range(6):
        sum_ = PolygonalSum(
            tuple(
                term_from_polygonal(rng.randint(1, 3), rng.choice([3, 4, 5, 8]))
                for _ in range(4)
            )
        )
        series = representation_series(sum_, 200)
        assert series.coeffs == tuple(brute_counts(sum_, 200))


def test_equivalent_upto_examples():
    p3, p6 = parse_polygonal_sum("p3"), parse_polygonal_sum("p6")
    assert equivalent_upto(p3, p6, 100000) == (True, None)

    left = parse_polygonal_sum("p3 + 2*p3")
    right = parse_polygonal_sum("p5 + p8")
    assert equivalent_upto(left, right, 50000) == (True, None)

    left = parse_polygonal_sum("p3 + p5")
    right = parse_polygonal_sum("p5 + 3*p5")
    assert equivalent_upto(left, right, 50000) == (True, None)

    ok, witness = equivalent_upto(parse_polygonal_sum("p3"), parse_polygonal_sum("p4"), 50)
    assert not ok and witness == 3


def test_equivalence_is_an_equivalence_relation():
    sums = [
        parse_polygonal_sum(t)
        for t in ("p3", "p6", "p4 + p3", "p5 + 2*p5", "p3 + 2*p3", "p5 + p8")
    ]
    bound = 2000
    for s in sums:
        assert equivalent_upto(s, s, bound)[0]
    for a in sums:
        for b in sums:
            assert equivalent_upto(a, b, bound)[0] == equivalent_upto(b, a, bound)[0]
    for a in sums:
        for b in sums:
            for c in sums:
                ab = equivalent_upto(a, b, bound)[0]
                bc = equivalent_upto(b, c, bound)[0]
                if ab and bc:
                    assert equivalent_upto(a, c, bound)[0]


def test_rescale_equivalence(catalog):
    # (2.26): h(ah+b) + l(al+a-b) ~ a*p3(h) + l(al+a-2b)/2 for a >= 1 and
    # 0 <= b <= a/2; the catalog rows eq-2.26-i1..i3 hold its instances.
    instances = {"eq-2.26-i1": (1, 0), "eq-2.26-i2": (2, 1), "eq-2.26-i3": (3, 1)}
    for key, (a, b) in instances.items():
        lhs = PolygonalSum((QuadTerm(1, 2 * a, 2 * b), QuadTerm(1, 2 * a, 2 * (a - b))))
        rhs = PolygonalSum((term_from_polygonal(a, 3), QuadTerm(1, a, a - 2 * b)))
        chain = catalog.by_key[key].chain
        assert [sum_families(s) for s in chain] == [sum_families(lhs), sum_families(rhs)]
        assert equivalent_upto(lhs, rhs, 10000) == (True, None)
    for key, text in (("eq-2.26-i2", "p3 + p3"), ("eq-2.26-i3", "2*p5 + p8")):
        lhs = catalog.by_key[key].chain[0]
        assert equivalent_upto(lhs, parse_polygonal_sum(text), 10000) == (True, None)


@st.composite
def quad_terms(draw):
    # Every b with |b| <= a and a - b even.
    a = draw(st.integers(1, 400))
    b = a - 2 * draw(st.integers(0, a))
    return QuadTerm(draw(st.integers(1, 5)), a, b)


@given(quad_terms())
@example(QuadTerm(1, 2, 0))
@example(QuadTerm(3, 12, -4))
@example(QuadTerm(1, 24, -12))
def test_reduce_term_matches_the_divisor_search(term):
    # The key's shape (A, |B|, g) is the term reduced by its largest content
    # g, except that the hexagonal shape (4, 2) is written as (1, 1).
    reduced = reduce_term_by_divisors(term)
    a, bb = (reduced.a, -reduced.b) if (reduced.a, reduced.b) != (4, -2) else (1, 1)
    assert _shape(family_key(term)) == (a, bb, reduced.coeff)
    assert [reduced.value(x) for x in range(-5, 6)] == [term.value(x) for x in range(-5, 6)]


def test_equal_keys_are_equal_value_sets():
    # Over every term with c <= 8 and a <= 16, two terms share a key
    # exactly when they share their values up to 2000.
    terms = [
        QuadTerm(c, a, b)
        for c in range(1, 9)
        for a in range(1, 17)
        for b in range(-a, 1)
        if (a - b) % 2 == 0
    ]
    assert len(terms) == 640
    values = {t: frozenset(t.values_upto(2000)) for t in terms}
    by_key, by_values = {}, {}
    for t in terms:
        by_key.setdefault(family_key(t), set()).add(values[t])
        by_values.setdefault(values[t], set()).add(family_key(t))
    assert all(len(sets) == 1 for sets in by_key.values())
    assert all(len(keys) == 1 for keys in by_values.values())


def test_family_key_identifies_scaled_shapes():
    assert family_key(QuadTerm(1, 24, -12)) == family_key(term_from_polygonal(6, 3))
    assert family_key(QuadTerm(1, 12, -4)) == family_key(term_from_polygonal(4, 5))
    assert family_key(QuadTerm(1, 6, 0)) == family_key(term_from_polygonal(3, 4))
    assert family_key(QuadTerm(1, 12, -8)) == family_key(term_from_polygonal(2, 8))
    assert family_key(term_from_polygonal(1, 6)) == family_key(term_from_polygonal(1, 3))


def test_sum_label():
    s = PolygonalSum((QuadTerm(1, 24, -12), QuadTerm(1, 3, -1), QuadTerm(1, 12, -8)))
    assert sum_label(s) == "6*p3 + p5 + 2*p8"


@pytest.fixture
def fresh_masks(monkeypatch):
    """An empty mask store, so masks of earlier tests hide no fold."""
    masks = {}
    monkeypatch.setattr(polygonal, "_masks", masks)
    return masks


@pytest.fixture
def folds(monkeypatch):
    """(family key, bound) of every fold, in call order."""
    calls = []
    values_upto = QuadTerm.values_upto

    def counted(term, bound):
        calls.append((family_key(term), bound))
        return values_upto(term, bound)

    monkeypatch.setattr(QuadTerm, "values_upto", counted)
    return calls


@pytest.fixture
def values_read(monkeypatch):
    """Every family value the folds read, in order."""
    read = []
    values_upto = QuadTerm.values_upto

    class CountedValues(list):
        def __iter__(self):
            for v in list.__iter__(self):
                read.append(v)
                yield v

    monkeypatch.setattr(
        QuadTerm, "values_upto", lambda term, bound: CountedValues(values_upto(term, bound))
    )
    return read


def test_certify_and_equivalence_share_one_sieve_entry(fresh_masks, folds):
    s = parse_polygonal_sum("3*p5 + 7*p8")
    t = parse_polygonal_sum("7*p5 + 3*p8")
    bound = 4321
    certify_universal(s, bound)
    folds.clear()
    equivalent_upto(s, t, bound)
    assert folds == [(f, bound) for f in sum_families(t)]


def test_sum_value_mask_rejects_a_bound_below_one(fresh_masks):
    p3 = parse_polygonal_sum("p3")
    for bound in (0, -1, -5):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            sum_value_mask(p3, bound)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            certify_universal(p3, bound)
    assert sum_value_mask(p3, 1) is None
    assert sum_value_mask(p3, 2) == 0b110
    # A tuple stored as full answers no question below bound 1 either.
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    assert certify_universal(gauss, 100).universal
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            certify_universal(gauss, bound)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            equivalent_upto(gauss, gauss, bound)


def test_equivalent_upto_rejects_a_bound_below_one():
    p3, p4 = parse_polygonal_sum("p3"), parse_polygonal_sum("p4")
    for bound in (0, -1, -2):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            equivalent_upto(p3, p4, bound)
    assert equivalent_upto(p3, p4, 1) == (True, None)


# A term drawn as coeff * x(g*a*x + g*b)/2: g > 1 rescales the shape without
# changing its values, and the hexagonal shape x(4x-2)/2 stands in for p3.
SHAPES = [(1, -1), (2, 0), (3, -1), (4, -2), (5, -3), (6, -4), (5, -1), (7, -3)]
drawn_terms = st.builds(
    lambda coeff, shape, g: QuadTerm(coeff, g * shape[0], g * shape[1]),
    st.integers(1, 4),
    st.sampled_from(SHAPES),
    st.integers(1, 3),
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(drawn_terms, min_size=1, max_size=4).flatmap(
        lambda ts: st.tuples(st.just(ts), st.permutations(ts))
    ),
    st.integers(1, 600),
)
def test_prefix_fold_matches_brute_force(spellings, bound):
    # Every example runs in this process, so prefix masks cached by earlier
    # sums and bounds are warm when a later sum reuses them.
    drawn, permuted = spellings
    s, t = PolygonalSum(tuple(drawn)), PolygonalSum(tuple(permuted))
    expected = tuple(brute_missing(s, bound))
    assert certify_universal(s, bound).missing == expected
    assert certify_universal(t, bound).missing == expected


def test_sums_sharing_a_sorted_prefix_share_its_folds(fresh_masks, folds):
    # p8 + p8 + p8 misses 534 numbers up to the bound, so the second sum
    # folds its last family onto the stored prefix mask.
    bound = 3217
    sum_value_mask(parse_polygonal_sum("p8 + p8 + p8 + 2*p8"), bound)
    folds.clear()
    second = parse_polygonal_sum("p8 + p8 + p8 + 3*p8")
    sum_value_mask(second, bound)
    assert folds == [(sum_families(second)[-1], bound)]
    folds.clear()
    sum_value_mask(parse_polygonal_sum("x(18x-12)/2 + p8 + x(6x-4)/2 + p8"), bound)
    assert folds == []


def test_families_come_densest_first():
    # Up to N, the atom (i, j) has about m * sqrt(2N / (i + j)) values (m = 1
    # when i is 0 or j), so counts may rise along the order only where two
    # families tie asymptotically, and then by one value.
    terms = [term_from_polygonal(c, m) for c in range(1, 9) for m in (3, 4, 5, 7, 8)]
    families = sum_families(PolygonalSum(tuple(terms)))
    for bound in (1000, 30000, 100000, 10**6):
        counts = [len(QuadTerm(1, i + j, i - j).values_upto(bound)) for i, j in families]
        rises = [later - earlier for earlier, later in zip(counts, counts[1:])]
        assert max(rises) <= 1
        assert rises.count(1) <= 6


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(drawn_terms, min_size=1, max_size=4),
    st.integers(1, 3000),
    st.integers(1, 3000),
    st.booleans(),
)
def test_a_mask_truncated_from_a_wider_bound_matches_a_fresh_fold(
    terms, b1, b2, wide_first
):
    # Whichever bound is asked first, the other is then answered from it
    # or widens it; both must equal a fold that never stops early, read
    # top-aligned, and the store keeps only the masks at the wider bound.
    s = PolygonalSum(tuple(terms))
    families = sum_families(s)
    low, high = sorted((b1, b2))
    with pytest.MonkeyPatch.context() as patch:
        masks = {}
        patch.setattr(polygonal, "_masks", masks)
        for bound in (high, low) if wide_first else (low, high):
            assert sum_value_mask(s, bound) == expected_value_mask(s, bound)
        assert {b for b, _ in masks.values()} == {high}
        assert masks[families][0] == high
        assert all(m is None or m.bit_count() <= b for b, m in masks.values())


def test_a_truncated_universal_prefix_folds_nothing(fresh_masks, folds):
    wide, bound = 2027, 1031
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    assert sum_value_mask(gauss, wide) is None
    assert fresh_masks[sum_families(gauss)] == (wide, None)
    folds.clear()
    assert sum_value_mask(gauss, bound) is None
    extended = parse_polygonal_sum("p3 + p3 + p3 + p4")
    assert sum_value_mask(extended, bound) is None
    assert folds == []
    assert fresh_masks[sum_families(gauss)] == (wide, None)
    assert fresh_masks[sum_families(extended)] == (bound, None)


def test_a_mask_full_only_once_truncated_is_read_as_none(fresh_masks):
    # p3 + p4 + 6*p8 first misses 68, so below 68 its mask stored at 3000
    # truncates to a full one: the read returns None, the one spelling of a
    # full mask, and leaves the stored entry as it is.
    wide, bound = 3000, 67
    prefix = parse_polygonal_sum("p3 + p4 + 6*p8")
    assert certify_universal(prefix, wide).head(1) == (68,)
    stored = fresh_masks[sum_families(prefix)]
    read = _fold(sum_families(prefix), bound, fresh_masks)
    assert read is None
    assert fresh_masks[sum_families(prefix)] is stored
    assert _least_difference(None, read, bound) is None


def test_a_prefix_full_only_once_truncated_folds_nothing(fresh_masks, values_read):
    # Below 68 the wide mask of p3 + p4 + 6*p8 reads as full, so its
    # extension by 7*p8 is full with no value of 7*p8 read.
    wide, bound = 3000, 67
    prefix = parse_polygonal_sum("p3 + p4 + 6*p8")
    s = parse_polygonal_sum("p3 + p4 + 6*p8 + 7*p8")
    assert certify_universal(prefix, wide).head(1) == (68,)
    stored = fresh_masks[sum_families(prefix)]
    values_read.clear()
    assert sum_value_mask(s, bound) is None
    assert values_read == []
    assert fresh_masks[sum_families(s)] == (bound, None)
    assert fresh_masks[sum_families(prefix)] is stored


# Ternary prefixes: three universal ones, whose last fold ends in a full
# mask, and two octagonal ones, whose quaternary extensions stop late.
PREFIXES = [
    "p3 + p3 + p3", "p3 + p3 + p4", "p3 + p4 + p5", "p8 + p8 + p8", "3*p4 + 3*p4 + p8"
]


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.one_of(
        st.sampled_from(PREFIXES).map(lambda text: parse_polygonal_sum(text).terms),
        st.lists(drawn_terms, min_size=3, max_size=3),
    ),
    st.lists(drawn_terms, max_size=1),
    st.integers(1, 20000),
)
# The last fold stops at the 128-value check, and at the 256-value check
# past bound 20000: up to 20000 no family has 256 values.
@example(parse_polygonal_sum("3*p4 + 3*p4 + p8").terms, [term_from_polygonal(1, 8)], 20000)
@example(parse_polygonal_sum("p8 + p8 + p8").terms, [term_from_polygonal(1, 8)], 100000)
# p8 up to 5 is 0, 1, 5: after 0 and 1 the one gap at or above the next
# value is 5 itself, which the fold must still fill.
@example(parse_polygonal_sum("p8 + p8 + p8").terms, [term_from_polygonal(1, 8)], 5)
def test_folds_that_stop_early_match_a_fold_without_exit(prefix, last, bound):
    s = PolygonalSum(tuple(prefix) + tuple(last))
    assert sum_value_mask(s, bound) == expected_value_mask(s, bound)


@pytest.mark.parametrize("text", ["9*p5 + 8*p3", "p3 + 2*p4", "3*p5 + 5*p8 + p3"])
def test_a_fold_that_stops_early_keeps_the_value_at_its_bound(fresh_masks, text):
    # The early exit must wait for bit 0 too, the value bound itself.  An
    # exit mask one bit short loses it: these sums would then miss their
    # bound at 24, 80 and 288; 9, 32 and 129; and 7, 22, 38 and 129.
    s = parse_polygonal_sum(text)
    missing = brute_missing(s, 400)
    for bound in range(1, 401):
        fresh_masks.clear()
        expected = tuple(m for m in missing if m <= bound)
        assert certify_universal(s, bound).missing == expected, bound


def test_the_last_fold_stops_once_no_gap_is_left_above_the_next_value(values_read):
    # p4 + p4 + p4 misses the numbers 4^a(8b+7); a few small squares fill
    # every one of them, so the last fold reads only a handful of squares.
    families = sum_families(parse_polygonal_sum("p4 + p4 + p4 + p4"))
    bound = 100_000
    prefix = _fold(families[:-1], bound, {})
    assert prefix is not None
    values_read.clear()
    assert _fold(families, bound, {families[:-1]: (bound, prefix)}) is None
    squares = term_from_polygonal(1, 4).values_upto(bound)
    assert 0 < len(values_read) < len(squares) / 4


def test_a_universal_prefix_is_kept_as_its_bound(fresh_masks, folds):
    bound = 1009
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    assert sum_value_mask(gauss, bound) is None
    assert fresh_masks[sum_families(gauss)] == (bound, None)
    folds.clear()
    extended = parse_polygonal_sum("p3 + p3 + p3 + p4")
    assert sum_value_mask(extended, bound) is None
    assert folds == []
    assert fresh_masks[sum_families(extended)] == (bound, None)


# Universal sums, kept as their bounds, and sums with gaps; p3 + p4 + 6*p8
# first misses 68, so below 68 it and its extension are full.
MIXED = [
    parse_polygonal_sum(text)
    for text in (
        "p3 + p3 + p3", "p3 + p3 + p3 + p4", "p4 + p4 + p4 + p4", "p3 + p4 + 6*p8",
        "p3 + p4 + 6*p8 + 7*p8", "p8 + p8 + p8", "p8 + p8 + p8 + 2*p8",
        "2*p4 + 2*p4 + 2*p4 + 2*p4",
    )
]
GAUSS4, GAPPED_PREFIX, GAPPED_4 = MIXED[1], MIXED[3], MIXED[4]


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(MIXED),
                st.lists(drawn_terms, min_size=1, max_size=4).map(
                    lambda terms: PolygonalSum(tuple(terms))
                ),
            ),
            st.integers(1, 2500),
        ),
        min_size=1,
        max_size=8,
    )
)
@example([(GAUSS4, 2000), (GAUSS4, 300), (GAUSS4, 1)])
@example([(GAUSS4, 1), (GAUSS4, 300), (GAUSS4, 2000)])
@example([(GAPPED_4, 500), (GAPPED_4, 500), (GAPPED_4, 500)])
@example([(GAPPED_PREFIX, 2500), (GAPPED_4, 67), (GAPPED_4, 68), (GAPPED_4, 2500)])
@example([(GAPPED_4, 67), (GAPPED_PREFIX, 2500), (GAPPED_4, 2000), (GAPPED_PREFIX, 67)])
def test_sums_asked_at_mixed_bounds_match_a_fresh_fold(requests):
    with pytest.MonkeyPatch.context() as patch:
        masks = {}
        patch.setattr(polygonal, "_masks", masks)
        for s, bound in requests:
            assert sum_value_mask(s, bound) == expected_value_mask(s, bound)
        assert all(m is None or m.bit_count() <= b for b, m in masks.values())


def test_a_catalog_run_stores_no_full_mask(catalog, fresh_masks, sieve_tables):
    # The run folds into a store of its own; every entry written there is
    # either a non-full mask or a full tuple kept as its bound.
    run_catalog(catalog, order=200, bound=20000)
    [table] = sieve_tables
    written = [entry for _, entry in table.store.written]
    assert all(m is None or m.bit_count() <= b for b, m in written)
    assert sum(m is None for _, m in written) > 50
    assert table.store == {} and fresh_masks == {}


def test_certify_reads_a_tuple_stored_as_full_without_building_a_mask(fresh_masks):
    bound = 200_000
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    assert certify_universal(gauss, bound).universal
    assert fresh_masks[sum_families(gauss)] == (bound, None)
    tracemalloc.start()
    try:
        verdict = certify_universal(gauss, bound - 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (verdict.bound, verdict.gaps) == (bound - 7, 0)
    assert peak < bound // 80
    # Stored as full below 68 says nothing above it: p3 + p4 + 6*p8 misses 68.
    gapped = parse_polygonal_sum("p3 + p4 + 6*p8")
    assert certify_universal(gapped, 67).universal
    assert fresh_masks[sum_families(gapped)] == (67, None)
    assert certify_universal(gapped, 3000).head(1) == (68,)


def test_two_tuples_stored_as_full_are_equal_without_building_a_mask(fresh_masks):
    bound = 200_000
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    extended = parse_polygonal_sum("p3 + p3 + p3 + p4")
    assert equivalent_upto(gauss, extended, bound) == (True, None)
    tracemalloc.start()
    try:
        answer = equivalent_upto(extended, gauss, bound - 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answer == (True, None)
    assert peak < bound // 80
    # One full tuple against a gapped one still differs at its first gap.
    assert equivalent_upto(gauss, parse_polygonal_sum("p3 + p4 + 6*p8"), 3000) == (False, 68)


# Sums whose tuples share prefixes, or are prefixes of one another, and
# sums whose value sets are equal under other spellings.
SIEVED = [
    parse_polygonal_sum(text)
    for text in (
        "p3 + p3 + p3", "p3 + p3 + p3 + p4", "p8 + p8 + p8", "p8 + p8 + p8 + 2*p8",
        "p8 + p8 + p8 + 3*p8", "p3 + p4 + 6*p8", "p3 + p4 + 6*p8 + 7*p8", "p4 + p4",
        "p4 + x(2x-2)/2", "p3 + p3", "p6 + p3",
    )
]
sieved_sums = st.one_of(
    st.sampled_from(SIEVED),
    st.lists(drawn_terms, min_size=1, max_size=4).map(lambda ts: PolygonalSum(tuple(ts))),
)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(sieved_sums, st.integers(1, 1500)),
            st.tuples(sieved_sums, sieved_sums, st.integers(1, 1500)),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_a_sieve_table_answers_as_the_library_calls_do(questions):
    table = SieveTable()
    for *sums, bound in questions:
        (table.ask_universal if len(sums) == 1 else table.ask_equal)(*sums, bound)
    with pytest.MonkeyPatch.context() as patch:
        library = {}
        patch.setattr(polygonal, "_masks", library)
        table.answer()
        assert library == {}
        for *sums, bound in questions:
            if len(sums) == 1:
                expected = tuple(brute_missing(sums[0], bound))[: SieveTable.GAP_HEAD]
                assert table.universal(sums[0], bound) == expected
            else:
                assert table.equal(*sums, bound) == equivalent_upto(*sums, bound)[1]
    assert table.store == {} and table.questions == {}


def test_a_sieve_table_rejects_a_bound_below_one():
    table = SieveTable()
    p3 = parse_polygonal_sum("p3")
    for bound in (0, -1, -5):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            table.ask_universal(p3, bound)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            table.ask_equal(p3, p3, bound)
    assert not table.questions


def test_a_question_not_asked_raises_and_folds_nothing(folds):
    table = SieveTable()
    gauss = parse_polygonal_sum("p3 + p3 + p3")
    table.ask_universal(gauss, 500)
    table.answer()
    folds.clear()
    with pytest.raises(KeyError):
        table.universal(gauss, 499)
    with pytest.raises(KeyError):
        table.equal(gauss, gauss, 500)
    assert folds == []
    assert table.universal(parse_polygonal_sum("p6 + p3 + p3"), 500) == ()


def test_a_sieve_table_folds_each_tuple_once_at_its_widest_bound(folds):
    # p8 + p8 + p8 is asked at 300 and its extension at 900, so the prefix
    # is folded once, at 900; the equality question reads both at 600.
    table = SieveTable()
    prefix = parse_polygonal_sum("p8 + p8 + p8")
    extended = parse_polygonal_sum("p8 + p8 + p8 + 2*p8")
    table.ask_universal(prefix, 300)
    table.ask_universal(extended, 900)
    table.ask_equal(prefix, extended, 600)
    table.answer()
    families = sum_families(extended)
    assert folds == [(f, 900) for f in families]
    assert table.universal(prefix, 300) == tuple(brute_missing(prefix, 300))[:5]
    assert table.equal(extended, prefix, 600) == equivalent_upto(prefix, extended, 600)[1]
    assert table.store == {}


def test_the_mask_store_drops_its_oldest_entry_past_the_cap(fresh_masks, monkeypatch):
    monkeypatch.setattr(polygonal, "_MAX_MASKS", 4)
    coeffs = [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2),
              (3, 1, 1, 1), (1, 3, 1, 1), (1, 1, 3, 1), (1, 1, 1, 3), (2, 2, 2, 2)]
    sums = [
        PolygonalSum(tuple(term_from_polygonal(c, m) for c, m in zip(cs, (5, 3, 8, 4))))
        for cs in coeffs
    ]
    assert len({sum_families(s) for s in sums}) == 10
    bound = 700
    for _ in range(2):  # the second pass refolds what the cap dropped
        for s in sums:
            assert sum_value_mask(s, bound) == expected_value_mask(s, bound)
            assert len(fresh_masks) <= 4
    # The last sum, all coefficients even, has no universal prefix: its four
    # prefixes are the newest entries, and they pushed out all the others.
    last = sum_families(sums[-1])
    assert list(fresh_masks) == [last[:n] for n in range(1, 5)]


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(
        st.integers(0, 2**5000),
        st.integers(0, 4095).map(lambda k: 1 << k),
        st.sets(st.integers(0, 5000)).map(lambda bits: sum(1 << i for i in bits)),
    ),
    st.integers(0, 100),
)
@example(0, 0)
@example(1, 0)
@example(1 << 4095, 0)
@example((1 << 5000) - 1, 0)
@example((1 << 5000) - 1, 7)
def test_mask_bits_matches_naive_scan(m, headroom):
    bound = max(m.bit_length() - 1, 0) + headroom
    assert _mask_bits(m, bound) == [bound - i for i in range(bound, -1, -1) if m >> i & 1]


def test_certify_gap_list_at_a_large_bound():
    # Half of [0, 200000] is missing: the gap list is as long as the mask.
    even = parse_polygonal_sum("2*p4 + 2*p4 + 2*p4 + 2*p4")
    assert certify_universal(even, 200000).missing == tuple(range(1, 200001, 2))


def test_verdict_flag_count_and_head_come_from_the_mask(monkeypatch, capsys):
    def no_listing(mask):
        raise AssertionError("the full gap list was built")

    monkeypatch.setattr(polygonal, "_mask_bits", no_listing)
    even = parse_polygonal_sum("2*p4 + 2*p4 + 2*p4 + 2*p4")
    verdict = certify_universal(even, 10000)
    assert not verdict.universal
    assert verdict.missing_count == 5000
    assert verdict.head(3) == (1, 3, 5)
    gauss = certify_universal(parse_polygonal_sum("p3 + p3 + p3"), 10000)
    assert gauss.universal and gauss.missing_count == 0 and gauss.head(5) == ()
    code = cli_main(["universal", "2*p4+2*p4+2*p4+2*p4", "--bound", "10000",
                     "--format", "report"])
    assert code == 1 and '"missing_count": 5000' in capsys.readouterr().out


def test_verdict_lists_the_gaps_once(monkeypatch):
    calls = []

    def counted(mask, bound):
        calls.append(mask)
        return _mask_bits(mask, bound)

    monkeypatch.setattr(polygonal, "_mask_bits", counted)
    verdict = certify_universal(parse_polygonal_sum("p4 + p4 + p4"), 3000)
    assert calls == []
    expected = tuple(brute_missing(parse_polygonal_sum("p4 + p4 + p4"), 3000))
    assert verdict.missing == expected
    assert verdict.missing[:7] == expected[:7] and len(verdict.missing) == len(expected)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, bound",
    [
        # x^2 + 2y^2 + 5z^2 + 5w^2 misses only 15: one small gap at the top of
        # a wide mask, and one gap at or next to its lowest bit.
        ("p4 + 2*p4 + 5*p4 + 5*p4", 200000),
        ("p4 + 2*p4 + 5*p4 + 5*p4", 15),
        ("p4 + 2*p4 + 5*p4 + 5*p4", 16),
        # Up to 200000 this sum misses only 41, 2099 and 102941; at bound
        # 2099 its largest gap is the mask's lowest bit.
        ("7*p3 + 7*p3 + p5 + 2*p5", 2099),
        ("7*p3 + 7*p3 + p5 + 2*p5", 200000),
    ],
)
def test_missing_matches_brute_force_at_either_end_of_the_mask(text, bound):
    s = parse_polygonal_sum(text)
    reached = format(bitmask_sumset(s, bound), f"0{bound + 1}b")[::-1]
    expected = tuple(n for n, bit in enumerate(reached) if bit == "0")
    assert expected[:2] == tuple(brute_missing(s, 2100))[:2]
    verdict = certify_universal(s, bound)
    assert verdict.missing == expected
    assert verdict.head(3) == expected[:3] and verdict.missing_count == len(expected)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.lists(drawn_terms, min_size=1, max_size=3),
    st.lists(drawn_terms, min_size=1, max_size=3),
    st.integers(1, 600),
)
def test_equivalence_witness_is_the_least_differing_value(first, second, bound):
    s, t = PolygonalSum(tuple(first)), PolygonalSum(tuple(second))
    differ = set(brute_missing(s, bound)) ^ set(brute_missing(t, bound))
    expected = (False, min(differ)) if differ else (True, None)
    assert equivalent_upto(s, t, bound) == expected


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(drawn_terms, min_size=1, max_size=4), st.integers(1, 600), st.integers(0, 30))
def test_verdict_head_and_count_match_brute_force(terms, bound, n):
    expected = brute_missing(PolygonalSum(tuple(terms)), bound)
    verdict = certify_universal(PolygonalSum(tuple(terms)), bound)
    assert verdict.head(n) == tuple(expected[:n])
    assert verdict.missing_count == len(expected)
    assert verdict.universal == (not expected)
