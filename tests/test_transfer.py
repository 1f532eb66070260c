from collections import Counter

import pytest

from thetasums import catalog as catalog_module
from thetasums.catalog import Catalog, parse_catalog_text, run_catalog
from thetasums.dsl import parse_polygonal_sum, parse_theta_expression
from thetasums.polygonal import SieveTable, certify_universal, sum_families
from thetasums.theta import ProductTerm, ThetaAtom
from thetasums.transfer import (
    Decomposition,
    DecompositionError,
    derive_sums,
    verify_decomposition,
)

from oracles import derive_decomposition, lemma_rules, product_coeffs


def get_decomposition(catalog, key):
    return catalog.by_key[key].decomposition


def test_structural_validation():
    lhs = parse_theta_expression("Y(q)*Y(q^2)*Y(q^4)^2").terms[0]
    good = parse_theta_expression("X(q^8)*Y(q^2)*Y(q^4)^2 + q*Y(q^2)*Y(q^4)^3").terms
    Decomposition(lhs, 2, good)

    with pytest.raises(DecompositionError):
        Decomposition(lhs, 1, good)  # modulus too small
    with pytest.raises(DecompositionError):
        # shift 2 is outside 0..1 for modulus 2
        bad = parse_theta_expression(
            "X(q^8)*Y(q^2)*Y(q^4)^2 + q^2*Y(q^2)*Y(q^4)^3"
        ).terms
        Decomposition(lhs, 2, bad)
    with pytest.raises(DecompositionError):
        # atom exponents not all divisible by the modulus
        bad = parse_theta_expression("X(q^8)*Y(q)*Y(q^4)^2 + q*Y(q^2)*Y(q^4)^3").terms
        Decomposition(lhs, 2, bad)
    with pytest.raises(DecompositionError):
        Decomposition(ProductTerm(2, 0, lhs.atoms), 2, good)  # lhs multiplier


def test_an_rhs_atom_needs_both_exponents_divisible_by_the_modulus():
    lhs = parse_theta_expression("Y(q)*Y(q^2)*Y(q^4)^2").terms[0]
    rhs = parse_theta_expression("X(q^8)*X(q^16)*Y(q^4)^2 + q*f(q^4, q^6)*Y(q^4)^3").terms
    with pytest.raises(DecompositionError, match=r"atom \(4, 6\) exponents not divisible by 4"):
        Decomposition(lhs, 4, rhs)


def test_verify_q1_and_q18(catalog):
    out = verify_decomposition(get_decomposition(catalog, "Q1"), 2000)
    assert out.ok, out.detail
    out = verify_decomposition(get_decomposition(catalog, "Q18"), 2000)
    assert out.ok, out.detail


def test_verify_detects_corruption(catalog):
    q1 = get_decomposition(catalog, "Q1")
    broken_terms = list(q1.rhs)
    t = broken_terms[1]
    broken_terms[1] = ProductTerm(t.multiplier + 1, t.shift, t.atoms)
    broken = Decomposition(q1.lhs, q1.modulus, tuple(broken_terms))
    out = verify_decomposition(broken, 500)
    assert not out.ok
    assert out.exponent is not None and out.exponent < 50


def test_verify_reports_insufficient_order(catalog):
    q1 = get_decomposition(catalog, "Q1")
    out = verify_decomposition(q1, 2)
    assert not out.ok and "insufficient order" in out.detail


def test_uncovered_residues_must_vanish():
    # X(q^2)^4 has only even exponents: a single shift-0 term covers it.
    lhs = parse_theta_expression("X(q^2)^4").terms[0]
    rhs = parse_theta_expression("X(q^2)^4").terms
    d = Decomposition(lhs, 2, rhs)
    out = verify_decomposition(d, 300)
    assert out.ok, out.detail

    # phi(q)^3*psi(q^2) is odd-exponent-rich; the same shape must fail.
    lhs = parse_theta_expression("phi(q)^3*psi(q^2)").terms[0]
    rhs = parse_theta_expression("phi(q^2)^3*psi(q^2)").terms
    d = Decomposition(lhs, 2, rhs)
    out = verify_decomposition(d, 300)
    assert not out.ok


def test_derive_sums_q1(catalog):
    lhs_sum, rhs_sums = derive_sums(get_decomposition(catalog, "Q1"))
    assert sum_families(lhs_sum) == sum_families(
        parse_polygonal_sum("p8 + 2*p8 + 4*p8 + 4*p8")
    )
    assert sum_families(rhs_sums[0]) == sum_families(
        parse_polygonal_sum("2*p5 + 4*p5 + p8 + p8")
    )
    assert sum_families(rhs_sums[3]) == sum_families(
        parse_polygonal_sum("p8 + p8 + p8 + 2*p8")
    )


def test_derive_sums_q2(catalog):
    lhs_sum, rhs_sums = derive_sums(get_decomposition(catalog, "Q2"))
    assert sum_families(lhs_sum) == sum_families(
        parse_polygonal_sum("2*p5 + 4*p5 + p8 + p8")
    )
    assert sum_families(rhs_sums[0]) == sum_families(
        parse_polygonal_sum("3*p4 + p5 + 2*p5 + p8")
    )
    assert sum_families(rhs_sums[1]) == sum_families(
        parse_polygonal_sum("6*p3 + p5 + 2*p5 + 2*p5")
    )


def test_derive_sums_ignores_multipliers(catalog):
    q2 = get_decomposition(catalog, "Q2")
    scaled_terms = tuple(
        ProductTerm(t.multiplier * 3, t.shift, t.atoms) for t in q2.rhs
    )
    sums1 = derive_sums(q2)
    sums2 = derive_sums(Decomposition(q2.lhs, q2.modulus, scaled_terms))
    assert [sum_families(s) for s in sums1[1]] == [sum_families(s) for s in sums2[1]]


def test_per_residue_identity_mechanism(catalog):
    # Representation counts on residue class (r-1) mod k of the lhs match
    # the descaled rhs term counts exactly; verify_decomposition checks
    # this, so a spot check of the arithmetic suffices here.
    d = get_decomposition(catalog, "Q18")
    k = d.modulus
    order = 600
    lhs = product_coeffs(d.lhs.atoms, order)
    for t in d.rhs:
        descaled = tuple(ThetaAtom(a.i // k, a.j // k) for a in t.atoms)
        inner = product_coeffs(descaled, (order - t.shift + k - 1) // k)
        for m in range(len(inner)):
            e = k * m + t.shift
            if e >= order:
                break
            assert lhs[e] == t.multiplier * inner[m]


def test_three_atom_products_use_the_same_machinery():
    # Ternary products run through the identical code path: multiply the
    # phi(q^3)*Y(q) split by Y(q^2).
    lhs = parse_theta_expression("phi(q^3)*Y(q)*Y(q^2)").terms[0]
    rhs = parse_theta_expression("X(q^4)^2*Y(q^2) + q*Y(q^2)^3").terms
    d = Decomposition(lhs, 2, rhs)
    out = verify_decomposition(d, 400)
    assert out.ok, out.detail
    lhs_sum, rhs_sums = derive_sums(d)
    assert sum_families(lhs_sum) == sum_families(
        parse_polygonal_sum("3*p4 + p8 + 2*p8")
    )
    assert sum_families(rhs_sums[0]) == sum_families(
        parse_polygonal_sum("2*p5 + 2*p5 + p8")
    )
    assert sum_families(rhs_sums[1]) == sum_families(
        parse_polygonal_sum("p8 + p8 + p8")
    )
    # Three octagonal terms are not universal, and neither is the lhs sum,
    # so the row fails (test_transfer_refuses_non_universal_lhs).
    assert not certify_universal(lhs_sum, 500).universal


def _steps(catalog, proof):
    """verify_decomposition's (lhs, rhs, n) steps for (key, n) steps."""
    return tuple((catalog.by_key[k].lhs.terms[0], catalog.by_key[k].rhs, n) for k, n in proof)


def test_every_packaged_decomposition_is_derived_from_the_lemmas(catalog, series_checks):
    # Each recorded proof replays to its rhs with no series check, and the
    # search finds a derivation of the recorded length, so none shorter.
    # The series product stays the reference: each decomposition passes it.
    assert run_catalog(catalog, order=512, kinds=("identity",)).ok
    lemmas = lemma_rules(catalog)
    assert len(lemmas) == len(catalog.of_kind("identity"))
    lengths = Counter()
    for entry in catalog.of_kind("decomposition"):
        d = entry.decomposition
        out = verify_decomposition(d, 512, _steps(catalog, entry.proof))
        assert out.ok and series_checks == [], (entry.key, out.detail)
        found = derive_decomposition(d, lemmas)
        assert found is not None and len(found) == len(entry.proof), entry.key
        assert verify_decomposition(d, 512).ok, entry.key
        assert series_checks == [d]
        series_checks.clear()
        lengths[len(entry.proof)] += 1
    assert lengths == {1: 38, 2: 4}


def test_q1_applies_eq_2_16_at_q_and_q2(catalog):
    q1 = catalog.by_key["Q1"]
    assert q1.proof == (("eq-2.16", 2), ("eq-2.16", 1))
    assert derive_decomposition(q1.decomposition, lemma_rules(catalog)) == q1.proof


def test_a_product_of_divisible_atoms_needs_no_step(series_checks):
    # The search finds the empty derivation; an empty proof is no proof,
    # so the check is the series check, which agrees.
    lhs = parse_theta_expression("X(q^2)^4").terms[0]
    d = Decomposition(lhs, 2, parse_theta_expression("X(q^2)^4").terms)
    assert derive_decomposition(d, ()) == ()
    assert verify_decomposition(d, 300).ok
    d = Decomposition(lhs, 2, parse_theta_expression("2*X(q^2)^4").terms)
    assert derive_decomposition(d, ()) is None
    assert not verify_decomposition(d, 300).ok


def test_like_terms_are_added(catalog, series_checks):
    # phi(q)^2 by (2.12) twice: the two cross terms 2*q*phi(q^4)*psi(q^8)
    # meet in one term with multiplier 4.
    lhs = parse_theta_expression("phi(q)^2*Y(q^4)").terms[0]
    rhs = (
        "phi(q^4)^2*Y(q^4) + {m}*q*phi(q^4)*psi(q^8)*Y(q^4)"
        " + 4*q^2*psi(q^8)^2*Y(q^4)"
    )
    lemmas = lemma_rules(catalog)
    proof = (("eq-2.12", 1), ("eq-2.12", 1))
    true = Decomposition(lhs, 4, parse_theta_expression(rhs.format(m=4)).terms)
    assert derive_decomposition(true, lemmas) == proof
    assert verify_decomposition(true, 400, _steps(catalog, proof)).ok
    assert series_checks == []
    false = Decomposition(lhs, 4, parse_theta_expression(rhs.format(m=2)).terms)
    assert derive_decomposition(false, lemmas) is None
    out = verify_decomposition(false, 400, _steps(catalog, proof))
    assert out.detail == "residue 1: coefficient 4 vs 2 at q^1"
    assert series_checks == [false]


# -- transfer rows: the lhs certified to the bound, each rhs sum to its derived bound

Q1_TEXT = (
    "[Q1] kind: decomposition\nlhs: Y(q)*Y(q^2)*Y(q^4)^2\nmodulus: 4\n"
    "rhs: X(q^8)*X(q^16)*Y(q^4)^2 + q*X(q^16)*Y(q^4)^3"
    " + q^2*X(q^8)*Y(q^4)^2*Y(q^8) + q^3*Y(q^4)^3*Y(q^8)\n"
)
D3_TEXT = (
    "[D3] kind: decomposition\nlhs: phi(q^3)*Y(q)*Y(q^2)\nmodulus: 2\n"
    "rhs: X(q^4)^2*Y(q^2) + q*Y(q^2)^3\nbase: p4+p4+p4+p4\n"
    "claims: 2*p5+2*p5+p8 | p8+p4+p8\n"
)
EVEN = "2*p4 + 2*p4 + 2*p4 + 2*p4"


def _row(text, order, bound):
    catalog = Catalog(parse_catalog_text(text))
    return run_catalog(catalog, order=order, bound=bound).rows[0]


def test_transfer_propagates_with_base(catalog):
    # The packaged Q1 has a base; lhs, base and all four rhs sums pass.
    assert catalog.by_key["Q1"].base is not None
    row = run_catalog(catalog, order=200, bound=50000, keys=["Q1"]).rows[0]
    assert row.detail == "verified to order 200; transfer certified to bound 50000 (k=4)"


def test_transfer_direct_certification_without_base():
    row = _row(Q1_TEXT, 200, 20000)
    assert row.detail == "verified to order 200; transfer certified to bound 20000 (k=4)"


def test_transfer_refuses_non_universal_lhs():
    # p8 + p8 + p8 misses values up to 1000, but the lhs fails first, so no
    # rhs sum is certified and no rhs line is written.
    row = _row(D3_TEXT, 400, 2000)
    assert (row.key, row.status) == ("D3", "fail")
    assert row.detail == (
        "claim 2 is p4 + p8 + p8 but the atoms give p8 + p8 + p8; "
        "lhs sum 3*p4 + p8 + 2*p8 missing (9, 25, 39); "
        "base p4 + p4 + p4 + p4 is not the lhs sum 3*p4 + p8 + 2*p8 and no "
        "equivalence chain holds both; lhs and base value sets differ at 9"
    )


def test_a_base_that_is_not_universal_is_reported():
    # A chain that holds the lhs sum and the base lets the base stand in for
    # the lhs sum; without it the base is also not the lhs sum.
    chained = "\n[link] kind: equivalence\nchain: p8 + 2*p8 + 4*p8 + 4*p8 ~ " + EVEN + "\n"
    row = _row(Q1_TEXT + f"base: {EVEN}\n" + chained, 200, 2000)
    assert (row.key, row.status) == ("Q1", "fail")
    assert row.detail == (
        f"base {EVEN} not certified; lhs and base value sets differ at 1"
    )
    row = _row(Q1_TEXT + f"base: {EVEN}\n", 200, 2000)
    assert row.detail == (
        f"base {EVEN} is not the lhs sum p8 + 2*p8 + 4*p8 + 4*p8 and no equivalence "
        f"chain holds both; base {EVEN} not certified; lhs and base value sets differ at 1"
    )


def test_transfer_reports_inconsistency(monkeypatch):
    # Q1's rhs sums are universal, so the second (shift 1) is replaced by a
    # sum that misses every odd number; it is certified up to
    # (2000 - 1) // 4 = 499.
    def with_even_second(d):
        lhs_sum, rhs_sums = derive_sums(d)
        return lhs_sum, rhs_sums[:1] + (parse_polygonal_sum(EVEN),) + rhs_sums[2:]

    monkeypatch.setattr(catalog_module, "derive_sums", with_even_second)
    row = _row(Q1_TEXT, 200, 2000)
    assert (row.key, row.status) == ("Q1", "fail")
    assert row.detail == f"rhs {EVEN} missing (1, 3, 5) up to {(2000 - 1) // 4}"


def test_rhs_bound(monkeypatch):
    # A passing row certifies the lhs sum up to the bound, then each rhs
    # sum up to the largest m with 4*m + shift <= bound, and at least 1.
    calls = []
    read = SieveTable.universal

    def spy(table, s, b):
        calls.append((s, b))
        return read(table, s, b)

    monkeypatch.setattr(SieveTable, "universal", spy)
    catalog = Catalog(parse_catalog_text(Q1_TEXT))
    lhs_sum, rhs_sums = derive_sums(catalog.by_key["Q1"].decomposition)
    for bound, derived in ((50000, (12500, 12499, 12499, 12499)), (43, (10,) * 4), (3, (1,) * 4)):
        calls.clear()
        row = run_catalog(catalog, order=50, bound=bound).rows[0]
        assert row.ok, row.detail
        assert calls == [(lhs_sum, bound)] + list(zip(rhs_sums, derived))
