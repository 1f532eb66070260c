import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetasums import catalog as catalog_module
from thetasums import polygonal, transfer
from thetasums.catalog import (
    FIELDS,
    Catalog,
    CatalogError,
    check_entry,
    default_catalog_dir,
    load_catalog,
    parse_catalog_text,
    run_catalog,
)
from thetasums.polygonal import QuadTerm, SieveTable, sum_families
from thetasums.transfer import (
    derive_decomposition,
    derive_sums,
    verify_decomposition,
    verify_identity,
)


def test_load_counts(catalog):
    identities = catalog.of_kind("identity")
    decomps = catalog.of_kind("decomposition")
    equivalences = catalog.of_kind("equivalence")
    bases = catalog.of_kind("base-fact")
    targets = catalog.of_kind("target-sum")

    assert len(identities) == 13
    labeled = [e for e in decomps if not e.key.startswith("QX")]
    assert len(labeled) == 20  # Q1, Q1a, Q2..Q13, Q15..Q20 (no Q14 exists)
    assert len(decomps) == 42
    assert len(bases) == 13
    assert len(equivalences) == 40  # named relations, proof links, 26 chains
    assert len([e for e in equivalences if e.key.startswith("thm3.4")]) == 26
    assert len([e for e in targets if e.key.startswith("thm3.1")]) == 66
    assert len([e for e in targets if e.key.startswith("thm3.2")]) == 13
    assert len([e for e in targets if e.key.startswith("thm3.3")]) == 16
    assert len([e for e in targets if e.key.startswith("sec1")]) == 160


def test_example_entries(catalog):
    from thetasums.dsl import serialize

    entry = catalog.by_key["eq-2.22"]
    assert serialize(entry.lhs) == "psi(q)*psi(q^3)"
    assert serialize(entry.rhs) == "phi(q^6)*psi(q^4) + q*phi(q^2)*psi(q^12)"

    entry = catalog.by_key["eq-2.24"]
    assert serialize(entry.rhs) == (
        "phi(q^9)*X(q^3) + q*X(q^3)*Y(q^3) + 2*q^2*psi(q^9)*Y(q^3)"
    )

    entry = catalog.by_key["base-sun-1-2-2-4"]
    assert serialize(entry.target) == "p8 + 2*p8 + 2*p8 + 4*p8"


def test_malformed_entries_fail_at_load():
    with pytest.raises(CatalogError):
        parse_catalog_text("[x] kind: identity\nlhs: phi(q\nrhs: phi(q)")
    with pytest.raises(CatalogError):
        parse_catalog_text("[x] kind: mystery\nsum: p3")
    with pytest.raises(CatalogError):
        parse_catalog_text("[x] kind: identity\nrhs: phi(q)")  # missing lhs
    with pytest.raises(CatalogError):
        Catalog(parse_catalog_text("[x] kind: base-fact\nsum: p3\n\n[x] kind: base-fact\nsum: p4"))
    with pytest.raises(CatalogError):
        # decomposition with a shift outside 0..k-1
        parse_catalog_text(
            "[x] kind: decomposition\nlhs: Y(q)*Y(q^2)*Y(q^4)^2\nmodulus: 2\n"
            "rhs: X(q^8)*Y(q^2)*Y(q^4)^2 + q^2*Y(q^2)*Y(q^4)^3"
        )


Q1_TEXT = (
    "[Q1] kind: decomposition\nlhs: Y(q)*Y(q^2)*Y(q^4)^2\nmodulus: 4\n"
    "rhs: X(q^8)*X(q^16)*Y(q^4)^2 + q*X(q^16)*Y(q^4)^3"
    " + q^2*X(q^8)*Y(q^4)^2*Y(q^8) + q^3*Y(q^4)^3*Y(q^8)\n"
)


@pytest.mark.parametrize(
    "text",
    [
        # 'claim' for 'claims': the claim check would never run.
        Q1_TEXT + "claim: p3+p3+p3+p3 | 4*p5+p8+p8+p8 | 2*p5+p8+p8+2*p8 | p8+p8+p8+2*p8",
        # 'certfy' for 'certify': the members would never be certified.
        "[x] kind: equivalence\nchain: p3+p3 ~ p4+2*p3\ncertfy: members",
        "[x] kind: equivalence\nchain: p3+p3 ~ p4+2*p3\ncertify: all",
        "[x] kind: target-sum\nsum: p3+4*p3+p5+2*p5\nanchor: thm3.1",
        # A field of another kind.
        "[x] kind: base-fact\nsum: p3+p3+p3\nvia: Q1 r1",
    ],
    ids=["claim", "certfy", "certify-all", "anchor-key", "field-of-another-kind"],
)
def test_fields_the_kind_does_not_allow_fail_at_load(text):
    with pytest.raises(CatalogError):
        parse_catalog_text(text)


@pytest.mark.parametrize(
    "via", ["Q1 rx", "Q1 r", "Q1 r1 r2", "Q1 2", ""],
    ids=["rx", "r", "two-terms", "no-r", "empty"],
)
def test_malformed_via_fails_at_load(via):
    text = Q1_TEXT + "\n[t] kind: target-sum\nsum: 2*p5+4*p5+p8+p8\nvia: "
    assert len(parse_catalog_text(text + "Q1 r1")) == 2
    with pytest.raises(CatalogError):
        parse_catalog_text(text + via)


@pytest.mark.parametrize(
    "modulus", ["\u0664", "0_4", "+4"], ids=["arabic-indic-four", "underscore", "plus"]
)
def test_a_modulus_not_in_ascii_digits_fails_at_its_line(modulus):
    with pytest.raises(CatalogError) as info:
        parse_catalog_text(Q1_TEXT.replace("modulus: 4", f"modulus: {modulus}"))
    assert str(info.value) == "<catalog>:3: [Q1]: modulus must be written in ASCII digits"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[x kind: identity", "<catalog>:1: unterminated key in '[x kind: identity'"),
        ("# note\n[x] identity", "<catalog>:2: missing kind in '[x] identity'"),
        ("[x] kind: mystery", "<catalog>:1: unknown kind 'mystery'"),
        # 'ref:' glued to the kind is part of the kind, not a ref.
        ('[x] kind: base-factref: "x"', """<catalog>:1: unknown kind 'base-factref: "x"'"""),
        ("\nlhs: phi(q)", "<catalog>:2: field outside any entry: 'lhs: phi(q)'"),
        (
            "[x] kind: identity\nlhs phi(q)",
            "<catalog>:2: expected 'field: value', got 'lhs phi(q)'",
        ),
        ("\n[] kind: base-fact", "<catalog>:2: key [] must be one word, with no whitespace"),
        ("[  ] kind: base-fact", "<catalog>:1: key [] must be one word, with no whitespace"),
        ("[a b] kind: base-fact", "<catalog>:1: key [a b] must be one word, with no whitespace"),
        (
            "[a\u2003b] kind: base-fact",
            "<catalog>:1: key [a\u2003b] must be one word, with no whitespace",
        ),
    ]
    + [
        (header, f"<catalog>:1: ref must be one double-quoted string in {header!r}")
        for header in (
            f"[x] kind: base-fact ref: {ref}"
            for ref in ['"x" extra', "x", '"x', 'x"', '"a"b"', '"x" "y"']
        )
    ],
    ids=[
        "unterminated-key", "missing-kind", "unknown-kind", "ref-glued-to-kind",
        "outside-entry", "no-colon",
        "empty-key", "blank-key", "key-with-space", "key-with-em-space",
        "ref-trailing-text", "ref-unquoted", "ref-unclosed", "ref-unopened",
        "ref-inner-quote", "ref-two-strings",
    ],
)
def test_line_level_errors_name_their_line(text, message):
    with pytest.raises(CatalogError) as info:
        parse_catalog_text(text)
    assert str(info.value) == message


def test_a_repeated_key_names_both_places(tmp_path):
    (tmp_path / "a.cat").write_text("[x] kind: base-fact\nsum: p3 + p3 + p3\n")
    (tmp_path / "b.cat").write_text("# again\n\n[x] kind: base-fact\nsum: p4 + p4 + p4 + p4\n")
    with pytest.raises(CatalogError) as info:
        load_catalog(tmp_path)
    assert str(info.value) == "b.cat:3: duplicate catalog key 'x', first at a.cat:1"


def test_the_lemmas_are_collected_once_per_catalog(catalog, monkeypatch):
    fresh = Catalog(catalog.entries)
    kinds = []
    of_kind = Catalog.of_kind
    monkeypatch.setattr(
        Catalog, "of_kind", lambda self, kind: kinds.append(kind) or of_kind(self, kind)
    )
    report = run_catalog(fresh, order=200, bound=2000, kinds=("decomposition", "target-sum"))
    assert report.ok
    assert kinds == ["identity"]
    assert fresh.lemmas is fresh.lemmas


def test_a_ref_is_read_between_its_quotes():
    text = '[x] kind: base-fact ref:  "(2.8), p. 3"  \nsum: p3\n\n[y] kind: base-fact\nsum: p4'
    assert [e.ref for e in parse_catalog_text(text)] == ["(2.8), p. 3", ""]


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            "[x] kind: identity\nlhs: phi(q)\nrhs: phi(q",
            "a.cat:6: [x]: line 1, cols 6-6: expected ')', found ''",
        ),
        ("[x] kind: identity\n\nrhs: phi(q)", "a.cat:4: [x]: missing field 'lhs'"),
        (
            "[x] kind: equivalence\nchain: p3 ~ p6\ncertify: all",
            "a.cat:6: [x]: certify must be 'members'",
        ),
        (
            "[x] kind: decomposition\nlhs: Y(q)*Y(q^2)*Y(q^4)^2\nrhs: X(q^8)*Y(q^2)*Y(q^4)^2"
            " + q^2*Y(q^2)*Y(q^4)^3\nmodulus: 2",
            "a.cat:6: [x]: shift 2 outside 0..1",
        ),
        (
            # The column counts from the start of the field, not of the claim.
            "[Qx] kind: decomposition\nclaims: p4 + p4 + p4 | p4 + q4 + p4\n"
            + Q1_TEXT.split("\n", 1)[1],
            "a.cat:5: [Qx]: line 1, cols 21-21: unknown term 'q'",
        ),
    ],
    ids=["dsl-error", "missing-field", "bad-certify", "bad-decomposition", "later-claim"],
)
def test_entry_errors_name_the_file_and_line_of_the_field(tmp_path, entry, message):
    path = tmp_path / "a.cat"
    path.write_text("[ok] kind: base-fact\nsum: p3 + p3 + p3\n\n" + entry + "\n")
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value) == message


DATA = Path(catalog_module.__file__).with_name("data")
# Per packaged file: entry count, first key and last key.
DATA_FILES = {
    "base_facts.cat": (13, "base-sun-1-1-2-4", "base-juoh-1-2-3-9"),
    "decompositions.cat": (42, "Q1", "QX22"),
    "equivalences.cat": (14, "eq-2.8.2", "pf-qx19-base"),
    "identities.cat": (13, "eq-2.12", "eq-2.25"),
    "section1.cat": (160, "sec1-01-01", "sec1-24-03"),
    "theorem31.cat": (66, "thm3.1-01", "thm3.1-66"),
    "theorem32.cat": (13, "thm3.2-01", "thm3.2-13"),
    "theorem33.cat": (16, "thm3.3-01", "thm3.3-16"),
    "theorem34.cat": (26, "thm3.4-chain-01", "thm3.4-chain-26"),
}


def test_the_package_a_directory_and_its_files_load_the_same_keys():
    keys = [e.key for e in load_catalog().entries]
    assert [e.key for e in load_catalog(DATA).entries] == keys
    assert [e.key for e in load_catalog(str(DATA)).entries] == keys
    per_file = {
        f.name: [e.key for e in load_catalog(f).entries]
        for f in sorted(DATA.glob("*.cat"))
    }
    assert {name: (len(k), k[0], k[-1]) for name, k in per_file.items()} == DATA_FILES
    assert sum(per_file.values(), []) == keys


def test_a_directory_without_catalog_files_is_an_error(tmp_path):
    (tmp_path / "notes.txt").write_text("[x] kind: base-fact\nsum: p3\n")
    with pytest.raises(CatalogError, match="no \\*.cat files"):
        load_catalog(tmp_path)
    with pytest.raises(CatalogError, match="missing.cat: No such file"):
        load_catalog(tmp_path / "missing.cat")


def test_every_claim_matches_derived_sums(catalog):
    for entry in catalog.of_kind("decomposition"):
        _lhs_sum, rhs_sums = derive_sums(entry.decomposition)
        assert len(entry.claims) == len(rhs_sums), entry.key
        for claim, derived in zip(entry.claims, rhs_sums):
            assert sum_families(claim) == sum_families(derived), entry.key


def test_every_via_resolves(catalog):
    for entry in catalog.of_kind("target-sum"):
        if entry.via:
            source_key = entry.via.split()[0]
            assert source_key in catalog.by_key, entry.key


def target_row(catalog, fields):
    """The row of a target-sum [t] with these fields, added to the catalog
    and checked at bound 500."""
    extra = parse_catalog_text(f'[t] kind: target-sum ref: "x"\n{fields}')
    return run_catalog(Catalog(catalog.entries + extra), 50, 500, keys=["t"]).rows[0]


# pf-q15-base is an equivalence whose chain holds p5 + 4*p5 + p8 + p8.
PF_Q15_SUM = "sum: p5 + 4*p5 + p8 + p8\n"


def test_a_residue_term_of_an_equivalence_fails_its_row(catalog):
    def row(via):
        return target_row(catalog, f"{PF_Q15_SUM}via: {via}")

    assert row("pf-q15-base").detail == "certified universal up to 500; via pf-q15-base"
    failed = row("pf-q15-base r7")
    assert (failed.status, failed.detail) == (
        "fail",
        "via 'pf-q15-base r7': a residue term needs a decomposition",
    )


# Each sum is universal at bound 500, so the row reaches its via or anchor.
@pytest.mark.parametrize(
    "fields, detail",
    [
        (PF_Q15_SUM + "via: nowhere", "via references unknown key 'nowhere'"),
        (PF_Q15_SUM + "via: Q1", "via 'Q1' needs a residue term like 'r2'"),
        (PF_Q15_SUM + "via: Q1 r9", "via 'Q1 r9': no residue term 9"),
        # eq-2.8.2 is the chain p3 ~ p6.
        (PF_Q15_SUM + "via: eq-2.8.2", "via 'eq-2.8.2': chain does not contain this sum"),
        (
            PF_Q15_SUM + "via: base-sun-1-1-2-4",
            "via 'base-sun-1-1-2-4' must name a decomposition or equivalence",
        ),
        (PF_Q15_SUM + "via: eq-2.12", "via 'eq-2.12' must name a decomposition or equivalence"),
        # thm3.1-01 derives this sum via Q1 r1.
        ("sum: 2*p5+4*p5+p8+p8\nanchor: none", "unexpected theorem anchor thm3.1-01"),
    ],
    ids=[
        "unknown-key", "no-residue", "residue-out-of-range", "not-in-chain", "via-base-fact",
        "via-identity", "unexpected-anchor",
    ],
)
def test_a_via_or_anchor_that_does_not_hold_fails_its_row(catalog, fields, detail):
    row = target_row(catalog, fields)
    assert (row.status, row.detail) == ("fail", detail)


def test_duplicate_derivations_are_both_kept(catalog):
    # The same sum is claimed from two different decompositions; the catalog
    # keeps both derivations rather than merging them.
    def rhs_sums(key):
        return derive_sums(catalog.by_key[key].decomposition)[1]

    assert sum_families(rhs_sums("Q11")[3]) == sum_families(rhs_sums("Q18")[2])
    assert sum_families(rhs_sums("Q17")[3]) == sum_families(rhs_sums("QX13")[2])


def test_run_catalog_full_small(catalog):
    report = run_catalog(catalog, order=120, bound=1200)
    assert report.ok, [r for r in report.rows if not r.ok][:3]
    assert len(report.rows) == len(catalog)
    assert [r.key for r in report.rows] == sorted(r.key for r in report.rows)


def test_run_catalog_kind_filter(catalog):
    report = run_catalog(catalog, order=64, bound=600, kinds=("equivalence",))
    assert len(report.rows) == 40
    assert all(r.kind == "equivalence" for r in report.rows)


@pytest.mark.parametrize(
    "selection, unknown",
    [
        ({"keys": ["Q1", "no-such-key"]}, "no-such-key"),
        ({"kinds": ("identiy",)}, "identiy"),
        ({"keys": []}, "no catalog entries selected"),
        ({"kinds": ()}, "no catalog entries selected"),
    ],
    ids=["key", "kind", "no-keys", "no-kinds"],
)
def test_run_catalog_rejects_an_unknown_key_or_kind(catalog, selection, unknown):
    # Selecting nothing, by a typo or by an empty list, would otherwise pass
    # with zero rows.
    with pytest.raises(CatalogError, match=unknown):
        run_catalog(catalog, order=64, bound=100, **selection)


def test_run_catalog_insufficient_order(catalog):
    report = run_catalog(catalog, order=2, bound=100, keys=["Q1"])
    assert not report.ok
    assert "insufficient order" in report.rows[0].detail


def test_report_dict_schema(catalog):
    report = run_catalog(catalog, order=64, bound=400, keys=["eq-2.12", "Q1"])
    data = report.to_dict()
    assert data["schema"] == "thetasums-report/1"
    assert data["config"] == {"order": 64, "bound": 400}
    assert data["summary"]["pass"] == 2
    assert {row["key"] for row in data["rows"]} == {"eq-2.12", "Q1"}
    assert set(data["rows"][0]) == {"key", "kind", "status", "detail"}


def test_section1_anchor_exception_is_explicit(catalog):
    flagged = [
        e for e in catalog.of_kind("target-sum") if e.anchor == "none"
    ]
    assert [e.key for e in flagged] == ["sec1-13-03"]


def test_a_via_less_target_is_anchored_whatever_its_key(catalog):
    # p3+p3+p3 is universal (Gauss), but no theorem lists a ternary sum.
    extra = Catalog(
        catalog.entries
        + parse_catalog_text('[extra-gauss] kind: target-sum ref: "x"\nsum: p3+p3+p3')
    )
    row = run_catalog(extra, order=50, bound=500, keys=["extra-gauss"]).rows[0]
    assert (row.status, row.detail) == ("fail", "no theorem list contains this sum")


def test_run_checks_the_given_catalog():
    # The key eq-2.12 also names a true identity in the packaged catalog.
    text = (
        '[eq-2.12] kind: identity ref: "x"\nlhs: phi(q)\nrhs: psi(q)\n\n'
        '[only-here] kind: identity ref: "x"\nlhs: phi(q)\nrhs: phi(q)\n'
    )
    catalog = Catalog(parse_catalog_text(text))
    report = run_catalog(catalog, order=50, bound=100)
    assert [(r.key, r.status) for r in report.rows] == [
        ("eq-2.12", "fail"),
        ("only-here", "pass"),
    ]


def test_derived_bounds_are_answered_from_full_bound_masks(
    catalog, monkeypatch, sieve_tables
):
    # Q1 (k = 4) certifies its rhs sums, thm3.1-01..04, up to the derived
    # bounds 10240 and 10239; the target rows certify them up to 40961.
    keys = ["Q1", "thm3.1-01", "thm3.1-02", "thm3.1-03", "thm3.1-04"]
    order, bound = 200, 40961
    folded = []
    values_upto = QuadTerm.values_upto

    def counted(term, b):
        folded.append(b)
        return values_upto(term, b)

    monkeypatch.setattr(QuadTerm, "values_upto", counted)
    rows = run_catalog(catalog, order=order, bound=bound, keys=keys).rows
    assert bound in folded
    assert not {10239, 10240} & set(folded)
    # The run's own store keeps every tuple at the full bound only.
    assert {b for _, (b, _) in sieve_tables[0].store.written} == {bound}
    assert [r.key for r in rows] == keys
    assert rows == [
        run_catalog(catalog, order=order, bound=bound, keys=[k]).rows[0] for k in keys
    ]


class UntouchableStore(dict):
    def get(self, *args):
        raise AssertionError("the library store was read")

    __getitem__ = __contains__ = get

    def __setitem__(self, *args):
        raise AssertionError("the library store was written")


def test_a_run_folds_each_tuple_once_and_frees_every_mask(catalog, monkeypatch, sieve_tables):
    monkeypatch.setattr(polygonal, "_masks", UntouchableStore())
    folds = []
    values_upto = QuadTerm.values_upto

    def counted(term, b):
        out = values_upto(term, b)
        folds.append(len(out))
        return out

    monkeypatch.setattr(QuadTerm, "values_upto", counted)
    assert run_catalog(catalog, order=200, bound=50000).ok
    assert (len(folds), sum(folds)) == (154, 29451)
    [table] = sieve_tables
    assert table.store == {} and table.questions == {}
    # The library store used to keep 43 masks after this run.
    assert 0 < table.store.peak_masks <= 7


def test_a_run_rejects_a_bound_below_one(catalog):
    # A run that asks the sieve anything refuses the bound before it folds.
    for bound in (0, -3):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            run_catalog(catalog, order=50, bound=bound, keys=["Q1", "eq-2.12"])
        with pytest.raises(ValueError, match="bound must be >= 1"):
            run_catalog(catalog, order=50, bound=bound, keys=["Q1"])


@pytest.fixture(scope="module")
def broken_keys(broken_catalog):
    return sorted(broken_catalog.by_key)


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), bound=st.integers(1, 3000))
def test_a_planned_run_gives_the_rows_of_one_entry_at_a_time(
    broken_catalog, broken_keys, data, bound
):
    def some(values, most):
        return st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True)

    kinds = data.draw(st.none() | some(sorted(FIELDS), len(FIELDS)))
    keys = data.draw(st.none() | some(broken_keys, 25))
    selected = sorted(
        e.key
        for e in broken_catalog.entries
        if (kinds is None or e.kind in kinds) and (keys is None or e.key in keys)
    )
    assume(selected)
    order = 120
    report = run_catalog(broken_catalog, order=order, bound=bound, kinds=kinds, keys=keys)
    assert report.rows == [
        run_catalog(broken_catalog, order=order, bound=bound, keys=[k]).rows[0] for k in selected
    ]


@pytest.fixture
def verify_calls(monkeypatch):
    """Decompositions that reach the series check, in call order."""
    calls = []
    series_check = transfer._series_check

    def spy(d, order):
        calls.append(d)
        return series_check(d, order)

    verify_decomposition.cache_clear()
    monkeypatch.setattr(transfer, "_series_check", spy)
    return calls


def test_packaged_decompositions_pass_without_the_series_check(catalog, verify_calls):
    report = run_catalog(catalog, order=300, bound=600, kinds=("decomposition",))
    assert report.ok and len(report.rows) == 42
    assert verify_calls == []
    assert all(r.detail.startswith("verified to order 300;") for r in report.rows)


def _with_identities(text):
    identities = (default_catalog_dir() / "identities.cat").read_text()
    return Catalog(parse_catalog_text(identities + "\n" + text))


BROKEN_Q1_TEXT = {
    "atom": Q1_TEXT.replace("+ q*X(q^16)", "+ q*X(q^12)"),
    "multiplier": Q1_TEXT.replace("+ q*X(q^16)", "+ 2*q*X(q^16)"),
    # The shifts of two residue terms swapped.
    "shift": Q1_TEXT.replace("+ q^2*X(q^8)", "+ q*X(q^8)").replace(
        "+ q*X(q^16)", "+ q^2*X(q^16)"
    ),
}


@pytest.mark.parametrize("fault", sorted(BROKEN_Q1_TEXT))
def test_a_wrong_rhs_has_no_derivation_and_fails_with_the_series_witness(
    fault, verify_calls
):
    assert BROKEN_Q1_TEXT[fault] != Q1_TEXT
    catalog = _with_identities(BROKEN_Q1_TEXT[fault])
    d = catalog.by_key["Q1"].decomposition
    assert derive_decomposition(d, catalog.lemmas) is None
    reference = verify_decomposition(d, 200)
    verify_calls.clear()
    row = run_catalog(catalog, order=200, bound=500, keys=["Q1"]).rows[0]
    assert row.status == "fail"
    assert row.detail == reference.detail
    assert row.detail.startswith("residue ")
    assert verify_calls == [d]


FALSE_EQ_2_16 = (
    '[eq-2.16] kind: identity ref: "(2.16)"\nlhs: Y(q)\nrhs: X(q^8) + 2*q*Y(q^4)\n\n'
)
ONLY_BY_FALSE_LEMMA = (
    "[D] kind: decomposition\nlhs: Y(q)*Y(q^4)^3\nmodulus: 4\n"
    "rhs: X(q^8)*Y(q^4)^3 + 2*q*Y(q^4)^4\n"
)


def test_a_failing_identity_is_not_used_as_a_lemma(verify_calls):
    catalog = Catalog(parse_catalog_text(FALSE_EQ_2_16 + ONLY_BY_FALSE_LEMMA))
    false = catalog.by_key["eq-2.16"]
    d = catalog.by_key["D"].decomposition
    # D does follow from the false lemma, so only the lemma's check stops it.
    assert derive_decomposition(d, [("eq-2.16", false.lhs.terms[0], false.rhs)])
    reference = verify_decomposition(d, 200)
    verify_calls.clear()
    rows = run_catalog(catalog, order=200, bound=500).rows
    assert [(r.key, r.status) for r in rows] == [("D", "fail"), ("eq-2.16", "fail")]
    assert rows[0].detail == reference.detail
    assert verify_calls == [d]
    # With the true (2.16) the same lhs derives the true rhs, with no
    # series check.
    true_d = ONLY_BY_FALSE_LEMMA.replace("2*q*", "q*")
    rows = run_catalog(_with_identities(true_d), order=200, bound=500, keys=["D"]).rows
    assert not rows[0].detail.startswith("residue ")
    assert verify_calls == [d]


def test_the_derivation_gives_the_outcome_of_the_series_check(catalog):
    # The faster path against the naive one: with its lemmas a decomposition
    # passes or fails exactly as its own series check says, witness included.
    cases = [(catalog.lemmas, e.decomposition) for e in catalog.of_kind("decomposition")]
    for text in BROKEN_Q1_TEXT.values():
        broken = _with_identities(text)
        cases.append((broken.lemmas, broken.by_key["Q1"].decomposition))
    false = Catalog(parse_catalog_text(FALSE_EQ_2_16 + ONLY_BY_FALSE_LEMMA))
    cases.append((false.lemmas, false.by_key["D"].decomposition))
    assert len(cases) == 46
    verify_decomposition.cache_clear()
    for lemmas, d in cases:
        assert verify_decomposition(d, 300, lemmas) == verify_decomposition(d, 300), d


def test_q1_alone_passes_through_the_series_check(verify_calls):
    catalog = Catalog(parse_catalog_text(Q1_TEXT))
    row = run_catalog(catalog, order=160, bound=800).rows[0]
    assert (row.key, row.status) == ("Q1", "pass")
    assert row.detail == "verified to order 160; transfer certified to bound 800 (k=4)"
    assert verify_calls == [catalog.by_key["Q1"].decomposition]


def test_a_row_checks_only_the_lemmas_its_derivation_uses(catalog):
    verify_decomposition.cache_clear()
    verify_identity.cache_clear()
    row = run_catalog(catalog, order=300, bound=600, keys=["Q1"]).rows[0]
    assert row.detail == "verified to order 300; transfer certified to bound 600 (k=4)"
    # Q1 is derived from (2.16) alone, so none of the other twelve
    # identities is expanded.
    assert verify_identity.cache_info().misses == 1


def test_a_series_check_keeps_no_order_sized_data(catalog):
    # Expansions are not cached: once the run returns, only outcomes and
    # the report are held, whatever the order.  With the outcome caches
    # cleared, every series check of the run expands both sides at this order.
    verify_decomposition.cache_clear()
    verify_identity.cache_clear()
    tracemalloc.start()
    try:
        report = run_catalog(
            catalog, order=20011, bound=1000, kinds=("identity", "decomposition")
        )
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert held < 1_000_000


# Edits to the packaged catalog, each an exact text replacement.
BROKEN_EDITS = (
    ("+ q*X(q^16)*Y(q^4)^3", "+ 2*q*X(q^16)*Y(q^4)^3"),  # Q1
    ("+ 2*q*psi(q^12)*X(q^2)*X(q^4)^2", "+ 2*q*psi(q^4)*X(q^2)*X(q^4)^2"),  # Q2
    ("+ 2*q*psi(q^12)*X(q^4)\n", "+ 3*q*psi(q^12)*X(q^4)\n"),  # eq-2.20
    (  # Q3: a wrong claim, written unsorted and with 6*p6 for 6*p3
        "claims: 3*p4+p5+p8+p8 | 6*p3+p5+2*p5+p8",
        "claims: 3*p4+p5+p8+p8 | p8+4*p5+p5+6*p6",
    ),
    (  # eq-2.26-i3: a link whose sides differ
        "chain: x(6x-2)/2 + p8 ~ 3*p3 + p5",
        "chain: x(6x-2)/2 + p8 ~ 3*p3 + x(5x-1)/2",
    ),
    ("sum: 4*p5+p8+2*p8+2*p8\nvia: Q1a r1", "sum: 4*p5+p8+2*p8+2*p8\nvia: Q1a r2"),
)

# A true decomposition whose lhs sum takes even values only; its psi(q^2)
# reads as 2*p3 and its f(q^4, q^6) as 2*x(5x-1)/2.
EVEN_DECOMPOSITION = """
[even-d] kind: decomposition ref: "every atom already in q^2"
lhs: f(q^4, q^6)*X(q^2)*psi(q^2)*phi(q^2)
modulus: 2
rhs: f(q^4, q^6)*X(q^2)*psi(q^2)*phi(q^2)
"""

# A chain whose link holds but whose members are not universal.
NON_UNIVERSAL_CHAIN = """
[two-p3] kind: equivalence ref: "x(x+1)/2 takes the triangular numbers too"
chain: p3 + p3 ~ x(1x+1)/2 + p3
certify: members
"""

# A chain whose first and third links fail and whose members are not
# universal: only the first failing link is reported.
TWO_BROKEN_LINKS = """
[broken-links] kind: equivalence ref: "links 1 and 3 differ"
chain: p3 + p3 ~ p4 + p3 ~ p3 + p4 ~ p8 + p3
certify: members
"""

# A true decomposition whose lhs sum takes even values only.  Its rhs sum,
# p4 + p4 + p4, misses 7, but only a certified lhs transfers, so the row
# reports the lhs and the base and says nothing of the rhs sum.
EVEN_SQUARES = """
[even-squares] kind: decomposition ref: "every atom already in q^2"
lhs: phi(q^2)^3
modulus: 2
rhs: phi(q^2)^3
base: p4 + p4 + p4
"""


@pytest.fixture(scope="module")
def broken_catalog():
    root = default_catalog_dir()
    text = "\n".join(
        (root / name).read_text()
        for name in sorted(r.name for r in root.iterdir() if r.name.endswith(".cat"))
    )
    for old, new in BROKEN_EDITS:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    extra = EVEN_DECOMPOSITION + NON_UNIVERSAL_CHAIN + TWO_BROKEN_LINKS + EVEN_SQUARES
    return Catalog(parse_catalog_text(text + extra))


def test_failing_rows_keep_their_exact_details(broken_catalog):
    keys = [
        "Q1", "Q2", "Q3", "eq-2.20", "eq-2.26-i3", "thm3.1-01", "thm3.1-05", "even-d", "two-p3",
        "broken-links", "even-squares",
    ]
    rows = run_catalog(broken_catalog, order=1000, bound=1000, keys=keys).rows
    assert [(r.key, r.status, r.detail) for r in rows] == [
        ("Q1", "fail", "residue 1: coefficient 1 vs 2 at q^1"),
        ("Q2", "fail", "residue 1: coefficient 6 vs 8 at q^5"),
        (
            "Q3",
            "fail",
            "claim 2 is 6*p3 + p5 + 4*p5 + p8 but the atoms give 6*p3 + p5 + 2*p5 + p8",
        ),
        ("broken-links", "fail", "p3 + p3 vs p3 + p4: differ at 5"),
        ("eq-2.20", "fail", "first difference at q^1: 2 vs 3"),
        ("eq-2.26-i3", "fail", "2*p5 + p8 vs 3*p3 + x(5x-1)/2: differ at 1"),
        ("even-d", "fail", "lhs sum 2*p3 + 2*p4 + 2*p5 + 2*x(5x-1)/2 missing (1, 3, 5)"),
        (
            "even-squares",
            "fail",
            "lhs sum 2*p4 + 2*p4 + 2*p4 missing (1, 3, 5); base p4 + p4 + p4 not certified; "
            "lhs and base value sets differ at 1",
        ),
        (
            "thm3.1-01",
            "fail",
            "deriving identity Q1 failed: residue 1: coefficient 1 vs 2 at q^1",
        ),
        (
            "thm3.1-05",
            "fail",
            "via 'Q1a r2' derives p8 + 2*p8 + 2*p8 + 2*p8, not 4*p5 + p8 + 2*p8 + 2*p8",
        ),
        ("two-p3", "fail", "member p3 + p3 missing (5, 8, 14)"),
    ]
    row = run_catalog(broken_catalog, order=3, bound=1000, keys=["Q1"]).rows[0]
    assert (row.status, row.detail) == ("fail", "insufficient order 3 for shift 3")


def test_an_entry_of_a_kind_outside_fields_has_no_check():
    catalog = Catalog(parse_catalog_text("[x] kind: base-fact\nsum: p3 + p3 + p3"))
    entry = catalog.by_key["x"]
    entry.kind = "mystery"
    assert entry.kind not in FIELDS
    with pytest.raises(CatalogError, match="unknown kind 'mystery'"):
        check_entry(entry, 100, 100, catalog, SieveTable())
