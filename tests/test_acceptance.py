"""Acceptance suite: the eight exit criteria, at their stated scales.

Each test prints one PASS/FAIL line (visible with pytest -s and in failure
output), and every tolerance is exact: the arithmetic is over the integers
so there is nothing to calibrate.
"""

import random

import pytest

from thetasums.catalog import load_catalog, run_catalog
from thetasums.dsl import parse_polygonal_sum
from thetasums.polygonal import (
    PolygonalSum,
    certify_universal,
    equivalent_upto,
    term_from_polygonal,
)
from thetasums.theta import (
    ProductTerm,
    ThetaAtom,
    UnsupportedDissection,
    atom_series,
    dissect,
    expression_series,
)
from thetasums.transfer import Decomposition, derive_sums, verify_decomposition

from oracles import brute_missing, representation_series

BOUND = 50000
ORDER = 1000


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_identity_suite(catalog):
    keys = [e.key for e in catalog.of_kind("identity")]
    keys += [e.key for e in catalog.of_kind("decomposition")]
    rep = run_catalog(catalog, order=ORDER, bound=1000, keys=keys)
    bad = [f"{r.key}: {r.detail}" for r in rep.rows if not r.ok]
    n_ids = len(catalog.of_kind("identity"))
    n_dec = len(catalog.of_kind("decomposition"))
    report(
        "1 identity suite",
        not bad,
        bad[0] if bad else f"{n_ids} identities + {n_dec} decompositions exact to order {ORDER}",
    )


def test_criterion_2_dissection_oracle():
    checked = 0
    unsupported = 0
    failures = []
    for i in range(1, 9):
        for j in range(i, 9):
            atom = ThetaAtom(i, j)
            for n in (2, 3, 4, 5):
                try:
                    expr = dissect(atom, n)
                except UnsupportedDissection:
                    unsupported += 1
                    continue
                ok, diff = expression_series(expr, 512).equal_upto(
                    atom_series(atom, 512), 512
                )
                if not ok:
                    failures.append(((i, j), n, diff))
                checked += 1
    report(
        "2 dissection oracle",
        not failures and checked == 36,
        failures[0] if failures else f"{checked} dissections exact to order 512 "
        f"({unsupported} unsupported depths rejected)",
    )


def test_criterion_3_universality_certification(catalog):
    failures = []
    count = 0
    for entry in catalog.of_kind("target-sum"):
        verdict = certify_universal(entry.target, BOUND)
        count += 1
        if not verdict.universal:
            failures.append((entry.key, verdict.missing[:3]))
    for entry in catalog.of_kind("equivalence"):
        if not entry.key.startswith("thm3.4"):
            continue
        for idx, member in enumerate(entry.chain):
            verdict = certify_universal(member, BOUND)
            count += 1
            if not verdict.universal:
                failures.append((f"{entry.key}#{idx}", verdict.missing[:3]))
    report(
        "3 universality certification",
        not failures,
        failures[0] if failures else f"{count} sums certified universal up to {BOUND}",
    )


def test_criterion_4_base_facts(catalog):
    required = [
        "p8+2*p8+4*p8+4*p8", "p8+2*p8+2*p8+4*p8", "p8+p8+2*p8+4*p8",
        "p8+2*p8+4*p8+8*p8", "p8+2*p8+4*p8+12*p8", "p8+p8+2*p8+6*p8",
        "p8+2*p8+3*p8+6*p8", "p8+2*p8+3*p8+9*p8",
    ]
    failures = []
    for text in required:
        verdict = certify_universal(parse_polygonal_sum(text), BOUND)
        if not verdict.universal:
            failures.append((text, verdict.missing[:3]))
    for entry in catalog.of_kind("base-fact"):
        verdict = certify_universal(entry.target, BOUND)
        if not verdict.universal:
            failures.append((entry.key, verdict.missing[:3]))
    total = len(required) + len(catalog.of_kind("base-fact"))
    report(
        "4 base facts",
        not failures,
        failures[0] if failures else f"{total} base certifications up to {BOUND}",
    )


def test_criterion_5_equivalence_suite(catalog):
    failures = []
    checks = 0
    # eq-2.26-i1..i3 are the rescaling instances (a, b) = (1, 0), (2, 1), (3, 1).
    for key in (
        "eq-2.26-i1", "eq-2.26-i2", "eq-2.26-i3",
        "eq-2.27", "eq-2.28", "eq-2.29", "eq-2.31", "eq-2.32", "eq-2.33",
    ):
        chain = catalog.by_key[key].chain
        ok, witness = equivalent_upto(chain[0], chain[1], BOUND)
        checks += 1
        if not ok:
            failures.append((key, witness))
    for entry in catalog.of_kind("equivalence"):
        if not entry.key.startswith("thm3.4"):
            continue
        for left, right in zip(entry.chain, entry.chain[1:]):
            ok, witness = equivalent_upto(left, right, BOUND)
            checks += 1
            if not ok:
                failures.append((entry.key, witness))
    report(
        "5 equivalence suite",
        not failures,
        failures[0] if failures else f"{checks} set equalities hold up to {BOUND}",
    )


def test_criterion_6_transfer_consistency(catalog):
    failures = []
    for entry in catalog.of_kind("decomposition"):
        d = entry.decomposition
        outcome = verify_decomposition(d, ORDER)  # includes per-residue identity
        if not outcome.ok:
            failures.append((entry.key, outcome.detail))
            continue
        lhs_sum, rhs_sums = derive_sums(d)
        n = 10000
        lhs_bound = d.modulus * n + d.modulus - 1
        lhs_ok = certify_universal(lhs_sum, lhs_bound).universal
        # Term r is certified up to the largest m with k*m + shift <= lhs_bound.
        rhs_ok = all(
            certify_universal(s, (lhs_bound - t.shift) // d.modulus).universal
            for t, s in zip(d.rhs, rhs_sums)
        )
        if lhs_ok != rhs_ok or not lhs_ok:
            failures.append((entry.key, f"lhs={lhs_ok} rhs={rhs_ok}"))
    report(
        "6 transfer consistency",
        not failures,
        failures[0] if failures else
        f"{len(catalog.of_kind('decomposition'))} decompositions: residue identity at "
        f"order {ORDER} and biconditional at N=10000",
    )


def test_criterion_7_negative_controls(catalog):
    problems = []

    verdict = certify_universal(parse_polygonal_sum("2*p4+2*p4+2*p4+2*p4"), 1000)
    if verdict.universal or verdict.missing[0] != 1:
        problems.append("even sum should first miss 1")

    q1 = catalog.by_key["Q1"].decomposition
    terms = list(q1.rhs)
    t = terms[1]
    terms[1] = ProductTerm(t.multiplier + 1, t.shift, t.atoms)
    outcome = verify_decomposition(Decomposition(q1.lhs, q1.modulus, tuple(terms)), 500)
    if outcome.ok or outcome.exponent is None:
        problems.append("corrupted Q1 must fail with a reported exponent")

    ok, witness = equivalent_upto(
        parse_polygonal_sum("p3"), parse_polygonal_sum("p4"), 100
    )
    if ok or witness != 3:
        problems.append(f"p3 vs p4 witness should be 3, got {witness}")

    report(
        "7 negative controls",
        not problems,
        problems[0] if problems else
        f"missing-1 verdict, corrupted-identity exponent {outcome.exponent}, witness 3",
    )


def test_criterion_8_oracle_equivalence():
    rng = random.Random(271828)
    bound = 2000
    failures = []
    for trial in range(100):
        sum_ = PolygonalSum(
            tuple(
                term_from_polygonal(rng.randint(1, 4), rng.choice([3, 4, 5, 8]))
                for _ in range(4)
            )
        )
        sieve_missing = list(certify_universal(sum_, bound).missing)
        series = representation_series(sum_, bound)
        series_missing = [e for e in range(bound + 1) if series[e] == 0]
        loop_missing = brute_missing(sum_, bound)
        if not (sieve_missing == series_missing == loop_missing):
            failures.append(trial)
    report(
        "8 oracle equivalence",
        not failures,
        f"first disagreement in trial {failures[0]}" if failures else
        f"100 random quaternary sums agree across sieve, series, and loops at bound {bound}",
    )
