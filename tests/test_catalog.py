import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thetasums import catalog as catalog_module
from thetasums import dsl, polygonal, transfer
from thetasums.catalog import (
    FIELDS,
    Catalog,
    CatalogError,
    attach_proofs,
    default_catalog_dir,
    load_catalog,
    parse_catalog_text,
    run_catalog,
)
from thetasums.dsl import ParseError, parse_chain, parse_claims, parse_polygonal_sum
from thetasums.polygonal import QuadTerm, SieveTable, sum_families
from thetasums.transfer import derive_sums, verify_decomposition

from oracles import derive_decomposition, lemma_rules


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
        # A proof is read from a *.proofs file only.
        Q1_TEXT + "proof: eq-2.16 q^2, eq-2.16 q",
    ],
    ids=["claim", "certfy", "certify-all", "anchor-key", "field-of-another-kind", "proof"],
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


Q1_PROOF = "Q1: eq-2.16 q^2, eq-2.16 q"
BAD_STEPS = "proof must be steps 'KEY q^N' with N >= 1, separated by ','"


def _catalog(text, proofs=""):
    catalog = Catalog(parse_catalog_text(text))
    attach_proofs(catalog, proofs)
    return catalog


def test_a_proof_is_read_as_key_and_scaling_steps():
    def proof(text):
        return _catalog(Q1_TEXT, f"Q1: {text}").by_key["Q1"].proof

    assert proof("eq-2.16 q^2, eq-2.16 q") == (("eq-2.16", 2), ("eq-2.16", 1))
    assert proof("  eq-2.16  q^1 ,eq-2.20 q^12") == (("eq-2.16", 1), ("eq-2.20", 12))
    assert _catalog(Q1_TEXT).by_key["Q1"].proof == ()


def test_a_directory_gives_its_decompositions_the_proofs_of_its_proofs_files(tmp_path):
    (tmp_path / "a.cat").write_text(Q1_TEXT + "\n[x] kind: base-fact\nsum: p3\n")
    proofs = tmp_path / "a.proofs"
    proofs.write_text("# Q1: not a line\n\nQ1 :  eq-2.16 q^2, eq-2.16 q\n")
    assert load_catalog(tmp_path).by_key["Q1"].proof == (("eq-2.16", 2), ("eq-2.16", 1))
    assert load_catalog(tmp_path / "a.cat").by_key["Q1"].proof == ()
    for text, message in (
        ("Q1: eq-2.16 q\nQ1: eq-2.16 q", "a.proofs:2: [Q1]: not a decomposition without a proof"),
        ("\nQ9: eq-2.16 q", "a.proofs:2: [Q9]: not a decomposition without a proof"),
        ("x: eq-2.16 q", "a.proofs:1: [x]: not a decomposition without a proof"),
        ("Q1 eq-2.16 q", "a.proofs:1: expected 'KEY: STEP, ...', got 'Q1 eq-2.16 q'"),
        ("Q1: eq-2.16", f"a.proofs:1: [Q1]: {BAD_STEPS}"),
    ):
        proofs.write_text(text)
        with pytest.raises(CatalogError) as info:
            load_catalog(tmp_path)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "proof, message",
    [
        ("eq-2.16", BAD_STEPS),
        ("eq-2.16 q^2 eq-2.16 q", BAD_STEPS),
        ("eq-2.16 q^2,", BAD_STEPS),
        ("eq-2.16 q^", BAD_STEPS),
        ("eq-2.16 2", BAD_STEPS),
        ("", BAD_STEPS),
        ("eq-2.16 q^0", BAD_STEPS),
        ("eq-2.16 q^" + "9" * 5000, "proof step scaling has too many digits"),
    ],
    ids=["no-scaling", "no-comma", "trailing-comma", "no-exponent", "bare-n", "empty", "q0",
         "too-many-digits"],
)
def test_a_malformed_proof_fails_at_its_line(proof, message):
    with pytest.raises(CatalogError) as info:
        _catalog(Q1_TEXT, f"# Q1's proof\nQ1: {proof}\n")
    assert str(info.value) == f"<proofs>:2: [Q1]: {message}"


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


def test_a_run_reads_the_lemmas_by_key_and_scans_no_kind(catalog, monkeypatch):
    # A proof names its lemmas, so no run collects the identities.
    fresh = Catalog(catalog.entries)
    kinds = []
    of_kind = Catalog.of_kind
    monkeypatch.setattr(
        Catalog, "of_kind", lambda self, kind: kinds.append(kind) or of_kind(self, kind)
    )
    report = run_catalog(fresh, order=200, bound=2000, kinds=("decomposition", "target-sum"))
    assert report.ok
    assert kinds == []


def test_a_ref_is_read_between_its_quotes():
    text = '[x] kind: base-fact ref:  "(2.8), p. 3"  \nsum: p3\n\n[y] kind: base-fact\nsum: p4'
    assert [e.ref for e in parse_catalog_text(text)] == ["(2.8), p. 3", ""]


def _header_by_regexes(line: str):
    """The header grammar as regular expressions: (key, kind, ref), or the
    part that is malformed."""
    close = line.find("]")
    key = line[1:close].strip()
    if not re.fullmatch(r"\S+", key):
        return "key"
    parts = re.split(r"(?:^|\s)ref:", line[close + 1 :].strip()[5:].strip(), maxsplit=1)
    kind = parts[0].strip()
    if kind not in FIELDS:
        return "kind"
    if len(parts) == 1:
        return key, kind, ""
    ref = re.fullmatch(r'"([^"]*)"', parts[1].strip())
    return "ref" if ref is None else (key, kind, ref[1])


# Text after a header's kind: Unicode spaces, "ref:" and its parts, quotes.
HEADER_BITS = st.lists(
    st.sampled_from([" ", "\u2003", "\x1c", "\x85", "\xa0", "ref:", "ref", ":", '"', '"x"', "x"]),
    max_size=8,
).map("".join)


@settings(max_examples=400, deadline=None, database=None)
@given(
    key=st.text(alphabet="ab \u2003\x1c\x85", max_size=3),
    kind=st.sampled_from([*FIELDS, "mystery", ""]),
    before=st.text(alphabet=" \u2003\x1c", max_size=2),
    after=st.one_of(
        HEADER_BITS,
        st.builds("{}ref:{}".format, st.text(" \u2003\x85", max_size=2), st.text('"x ', max_size=4)),
    ),
)
@example(key="a", kind="identity", before="", after=' ref:"x""')
@example(key="a", kind="identity", before="", after='ref: "x"')
@example(key="a\u2003b", kind="identity", before="", after="")
def test_a_header_reads_as_its_regular_expressions_read_it(key, kind, before, after):
    line = f"[{key}] kind:{before}{kind}{after}"
    try:
        got = catalog_module._parse_header(line, "a.cat:1")
    except CatalogError as exc:
        got = {"key": "key", "unknown": "kind", "ref": "ref"}[str(exc).split()[1]]
    assert got == _header_by_regexes(line)


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


def test_packaged_decompositions_pass_without_the_series_check(catalog, series_checks):
    report = run_catalog(catalog, order=300, bound=600, kinds=("decomposition",))
    assert report.ok and len(report.rows) == 42
    assert series_checks == []
    assert all(r.detail.startswith("verified to order 300;") for r in report.rows)


def _with_identities(text, proofs=""):
    identities = (default_catalog_dir() / "identities.cat").read_text()
    return _catalog(identities + "\n" + text, proofs)


# Each checked with Q1's proof, whose replay ends off the wrong rhs.
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
    fault, series_checks
):
    assert BROKEN_Q1_TEXT[fault] != Q1_TEXT
    catalog = _with_identities(BROKEN_Q1_TEXT[fault], Q1_PROOF)
    d = catalog.by_key["Q1"].decomposition
    assert derive_decomposition(d, lemma_rules(catalog)) is None
    reference = verify_decomposition(d, 200)
    series_checks.clear()
    row = run_catalog(catalog, order=200, bound=500, keys=["Q1"]).rows[0]
    assert row.status == "fail"
    assert row.detail == reference.detail
    assert row.detail.startswith("residue ")
    assert series_checks == [d]


FALSE_EQ_2_16 = (
    '[eq-2.16] kind: identity ref: "(2.16)"\nlhs: Y(q)\nrhs: X(q^8) + 2*q*Y(q^4)\n\n'
)
ONLY_BY_FALSE_LEMMA = (
    "[D] kind: decomposition\nlhs: Y(q)*Y(q^4)^3\nmodulus: 4\n"
    "rhs: X(q^8)*Y(q^4)^3 + 2*q*Y(q^4)^4\n"
)
D_PROOF = "D: eq-2.16 q"


def test_a_failing_identity_is_not_used_as_a_lemma(series_checks):
    catalog = _catalog(FALSE_EQ_2_16 + ONLY_BY_FALSE_LEMMA, D_PROOF)
    false = catalog.by_key["eq-2.16"]
    d = catalog.by_key["D"].decomposition
    # D does follow from the false lemma, so only the lemma's check stops it.
    assert derive_decomposition(d, lemma_rules(catalog)) == catalog.by_key["D"].proof
    reference = verify_decomposition(d, 200)
    series_checks.clear()
    rows = run_catalog(catalog, order=200, bound=500).rows
    assert [(r.key, r.status) for r in rows] == [("D", "fail"), ("eq-2.16", "fail")]
    assert rows[0].detail == reference.detail
    assert series_checks == [d]
    # With the true (2.16) the same lhs derives the true rhs, with no
    # series check.
    true_d = ONLY_BY_FALSE_LEMMA.replace("2*q*", "q*")
    rows = run_catalog(_with_identities(true_d, D_PROOF), order=200, bound=500, keys=["D"]).rows
    assert not rows[0].detail.startswith("residue ")
    assert series_checks == [d]


def test_the_derivation_gives_the_outcome_of_the_series_check(catalog):
    # The faster path against the naive one: with its proof a decomposition
    # passes or fails exactly as its own series check says, witness included.
    cases = [(catalog, e) for e in catalog.of_kind("decomposition")]
    for text in BROKEN_Q1_TEXT.values():
        broken = _with_identities(text, Q1_PROOF)
        cases.append((broken, broken.by_key["Q1"]))
    false = _catalog(FALSE_EQ_2_16 + ONLY_BY_FALSE_LEMMA, D_PROOF)
    cases.append((false, false.by_key["D"]))
    assert len(cases) == 46
    assert all(entry.proof for _, entry in cases)
    for source, entry in cases:
        d = entry.decomposition
        run = catalog_module._Run(source, 300, 0, None)
        checked = catalog_module._verify_decomposition(entry, run)
        assert checked == verify_decomposition(d, 300), d


def test_q1_alone_passes_through_the_series_check(series_checks):
    catalog = Catalog(parse_catalog_text(Q1_TEXT))
    row = run_catalog(catalog, order=160, bound=800).rows[0]
    assert (row.key, row.status) == ("Q1", "pass")
    assert row.detail == "verified to order 160; transfer certified to bound 800 (k=4)"
    assert series_checks == [catalog.by_key["Q1"].decomposition]


@pytest.fixture
def identity_checks(monkeypatch):
    """(lhs, rhs, order) of each identity a run series-checks, lemmas included."""
    calls = []
    check = catalog_module.verify_identity

    def spy(lhs, rhs, order):
        calls.append((lhs, rhs, order))
        return check(lhs, rhs, order)

    monkeypatch.setattr(catalog_module, "verify_identity", spy)
    return calls


def test_a_row_checks_only_the_lemmas_its_derivation_uses(catalog, identity_checks):
    row = run_catalog(catalog, order=300, bound=600, keys=["Q1"]).rows[0]
    assert row.detail == "verified to order 300; transfer certified to bound 600 (k=4)"
    # Q1 is derived from (2.16) alone, so none of the other twelve
    # identities is expanded.
    lemma = catalog.by_key["eq-2.16"]
    assert identity_checks == [(lemma.lhs, lemma.rhs, 300)]


def test_a_run_series_checks_the_eight_lemmas_its_proofs_name_once_each(
    catalog, identity_checks
):
    report = run_catalog(catalog, order=300, bound=600, kinds=("decomposition", "target-sum"))
    assert report.ok
    named = ["eq-2.12", "eq-2.16", "eq-2.20", "eq-2.21", "eq-2.22", "eq-2.23", "eq-2.24", "eq-2.25"]
    lemmas = [catalog.by_key[key] for key in named]
    assert sorted(identity_checks) == sorted((e.lhs, e.rhs, 300) for e in lemmas)
    assert {key for e in catalog.of_kind("decomposition") for key, _n in e.proof} == set(named)


@pytest.fixture
def series_work(monkeypatch):
    """Series expansions, and proof replays (verify_decomposition calls) of
    the catalog, counted where the work is done."""
    work = Counter()
    expand, replay = transfer.expression_series, catalog_module.verify_decomposition

    def expanding(expr, order):
        work["expansions"] += 1
        return expand(expr, order)

    def replaying(*args):
        work["replays"] += 1
        return replay(*args)

    monkeypatch.setattr(transfer, "expression_series", expanding)
    monkeypatch.setattr(catalog_module, "verify_decomposition", replaying)
    return work


def test_a_default_run_expands_each_identity_and_replays_each_proof_once(catalog, series_work):
    # 13 identities of two sides each; 42 decompositions, each with a proof
    # that no row or 'via' replays again.
    assert run_catalog(catalog).ok
    assert series_work == {"expansions": 26, "replays": 42}


def test_a_second_run_in_one_process_does_the_same_series_work(catalog, series_work):
    # The sharing lives in the run: a later run reuses none of it.
    first = run_catalog(catalog)
    work = dict(series_work)
    series_work.clear()
    assert run_catalog(catalog).rows == first.rows
    assert series_work == work == {"expansions": 26, "replays": 42}


# A true lemma that is no rewrite rule, and the false decomposition it
# would prove if read as one: 2*Y(q) = ... would rewrite Y(q) to twice its
# rhs, and q*Y(q) = ... would add a shift of 1.
NOT_A_RULE = {
    "multiplier": ("2*Y(q)", "2*X(q^8) + 2*q*Y(q^4)", "2*X(q^8)*Y(q^4)^3 + 2*q*Y(q^4)^4"),
    "shift": ("q*Y(q)", "q*X(q^8) + q^2*Y(q^4)", "q*X(q^8)*Y(q^4)^3 + q^2*Y(q^4)^4"),
}


@pytest.mark.parametrize("fault", sorted(NOT_A_RULE))
def test_a_lemma_whose_lhs_is_not_a_bare_product_fails_the_row(fault, series_checks):
    lhs, rhs, d_rhs = NOT_A_RULE[fault]
    text = (
        f"[L] kind: identity\nlhs: {lhs}\nrhs: {rhs}\n\n"
        f"[D] kind: decomposition\nlhs: Y(q)*Y(q^4)^3\nmodulus: 4\nrhs: {d_rhs}\n"
    )
    rows = run_catalog(_catalog(text, "D: L q"), order=200, bound=500).rows
    assert [(r.key, r.status) for r in rows] == [("D", "fail"), ("L", "pass")]
    assert rows[0].detail == "proof step 1: lemma lhs is not a bare product"
    assert series_checks == []


@pytest.mark.parametrize(
    "proof, detail",
    [
        ("eq-2.99 q", "proof step 1: 'eq-2.99' is not a single-product identity"),
        ("eq-2.16 q^2, Q1a q", "proof step 2: 'Q1a' is not a single-product identity"),
        ("two q", "proof step 1: 'two' is not a single-product identity"),
        ("eq-2.16 q^3", "proof step 1 rewrites no open term"),
        # After the proof every term is closed, Y(q^4) included.
        ("eq-2.16 q^2, eq-2.16 q, eq-2.16 q^4", "proof step 3 rewrites no open term"),
    ],
    ids=["unknown-key", "a-decomposition", "two-product-lhs", "no-match", "closed-terms"],
)
def test_a_proof_step_that_is_no_lemma_rewrite_fails_the_row(proof, detail, series_checks):
    text = Q1_TEXT + "\n[two] kind: identity\nlhs: phi(q) + psi(q)\nrhs: psi(q) + phi(q)\n\n"
    text += "[Q1a] kind: decomposition\nlhs: Y(q)*Y(q^2)*Y(q^4)^2\nmodulus: 2\n"
    text += "rhs: X(q^8)*Y(q^2)*Y(q^4)^2 + q*Y(q^2)*Y(q^4)^3\n"
    catalog = _with_identities(text, f"Q1: {proof}")
    for order in (200, 3):
        row = run_catalog(catalog, order=order, bound=500, keys=["Q1"]).rows[0]
        assert (row.status, row.detail) == ("fail", detail)
    target = "\n[t] kind: target-sum\nsum: 2*p5+4*p5+p8+p8\nvia: Q1 r1\n"
    catalog = _with_identities(text + target, f"Q1: {proof}")
    row = run_catalog(catalog, order=200, bound=500, keys=["t"]).rows[0]
    assert (row.status, row.detail) == ("fail", f"deriving identity Q1 failed: {detail}")
    assert series_checks == []


def test_an_rhs_shift_must_stay_below_the_order_of_a_replay(series_checks):
    # Q1's last term has shift 3: order 3 cannot see it, order 4 can.
    catalog = _with_identities(Q1_TEXT, Q1_PROOF)
    row = run_catalog(catalog, order=3, bound=500, keys=["Q1"]).rows[0]
    assert (row.status, row.detail) == ("fail", "insufficient order 3 for shift 3")
    assert series_checks == [catalog.by_key["Q1"].decomposition]
    series_checks.clear()
    row = run_catalog(catalog, order=4, bound=500, keys=["Q1"]).rows[0]
    assert (row.status, row.detail) == (
        "pass", "verified to order 4; transfer certified to bound 500 (k=4)"
    )
    assert series_checks == []


def test_a_via_residue_term_counts_from_1():
    # r0 names no term; read as an index it would be the last, whose sum
    # this target is.
    text = Q1_TEXT + "\n[t] kind: target-sum\nsum: p8+p8+p8+2*p8\nvia: Q1 r"
    for residue, status, detail in (
        (0, "fail", "via 'Q1 r0': no residue term 0"),
        (4, "pass", "certified universal up to 500; via Q1 r4"),
    ):
        catalog = Catalog(parse_catalog_text(text + str(residue)))
        row = run_catalog(catalog, order=100, bound=500, keys=["t"]).rows[0]
        assert (row.status, row.detail) == (status, detail)


def test_a_series_check_keeps_no_order_sized_data(catalog):
    # Expansions are not cached: once the run returns, only the report is
    # held, whatever the order.  No verdict outlives its run, so every
    # series check of the run expands both sides at this order.
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


class FailingTable:
    """Answers every sieve question as failing and records the questions read."""

    def __init__(self):
        self.read = set()

    def universal(self, s, bound):
        self.read.add((sum_families(s), bound))
        return (1,)

    def equal(self, s1, s2, bound):
        self.read.add(SieveTable._equal_key(s1, s2, bound))
        return 1


@pytest.mark.parametrize("which", ["packaged", "broken"])
def test_a_failing_answer_makes_no_check_read_past_the_asking_pass(
    catalog, broken_catalog, which
):
    # run_catalog asks what each check reads when every answer passes, so
    # a check may read no other question when its answers fail.
    chosen = {"packaged": catalog, "broken": broken_catalog}[which]
    order, bound = 1000, 1000
    asked = 0
    for e in chosen.entries:
        check = catalog_module._CHECKS[e.kind]
        table = SieveTable()
        check(e, catalog_module._Run(chosen, order, bound, catalog_module._Asker(table)))
        failing = FailingTable()
        check(e, catalog_module._Run(chosen, order, bound, failing))
        assert failing.read <= set(table.questions), e.key
        asked += len(table.questions)
    assert asked > len(chosen) / 2


def test_an_entry_of_a_kind_outside_fields_has_no_check():
    catalog = Catalog(parse_catalog_text("[x] kind: base-fact\nsum: p3 + p3 + p3"))
    entry = catalog.by_key["x"]
    entry.kind = "mystery"
    assert entry.kind not in FIELDS
    with pytest.raises(CatalogError, match=r"^\[x\]: unknown kind 'mystery'$"):
        run_catalog(catalog, 100, 100)


# -- the term memo of a catalog load ---------------------------------------

PAYLOAD = (
    "key", "kind", "ref", "fields", "where", "lhs", "rhs", "decomposition",
    "base", "claims", "chain", "target", "via", "residue", "anchor",
)


def _loaded(text: str):
    """Every parsed payload of text, or the text of its CatalogError."""
    try:
        entries = parse_catalog_text(text, "a.cat")
    except CatalogError as exc:
        return str(exc)
    return [[getattr(e, name) for name in PAYLOAD] for e in entries]


def _loaded_whole(text: str):
    """_loaded with every sum field parsed whole by dsl, with no term memo."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(catalog_module, "_memo_sums", lambda text, sep, terms: None)
        return _loaded(text)


@pytest.mark.parametrize("name", sorted(DATA_FILES))
def test_every_packaged_file_loads_as_whole_field_parses_load_it(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert _loaded(text) == _loaded_whole(text)


# Term texts, valid or not, and the separators joined between them.
TERM_TEXTS = st.sampled_from(
    ["p3", "p8", " 2*p5 ", "x(3x+1)/2", "3*x( 5x - 3 )/2", "x(2x+0)/2", "p\u20038", "p\xa04"] * 3
    + ["x(3x+2)/2", "0", "", "p2", "2*", "p\xb2", "p3 ~ p4", "(", ")", "q", "\u2003", "p 3 4"]
)
SEPARATORS = st.sampled_from(["+", " + ", "\u2003+ ", "~", " ~ ", "|", " | "])
FIELD_TEXTS = st.builds(
    lambda first, rest: first + "".join(sep + term for sep, term in rest),
    TERM_TEXTS,
    st.lists(st.tuples(SEPARATORS, TERM_TEXTS), max_size=5),
)
# Per sum field, the block around it.
SUM_FIELD_BLOCKS = {
    "sum": "[k{}] kind: base-fact\nsum: {}\n",
    "chain": "[k{}] kind: equivalence\nchain: {}\n",
    "base": Q1_TEXT.replace("[Q1]", "[k{}]") + "base: {}\n",
    "claims": Q1_TEXT.replace("[Q1]", "[k{}]") + "claims: {}\n",
}


@settings(max_examples=300, deadline=None, database=None)
@given(fields=st.lists(st.tuples(st.sampled_from(sorted(SUM_FIELD_BLOCKS)), FIELD_TEXTS), min_size=1, max_size=4))
def test_drawn_sum_fields_load_as_whole_field_parses_load_them(fields):
    text = "\n".join(SUM_FIELD_BLOCKS[name].format(i, value) for i, (name, value) in enumerate(fields))
    assert _loaded(text) == _loaded_whole(text)


WHOLE_FIELD_PARSES = {
    "": lambda text: [parse_polygonal_sum(text)],
    "~": parse_chain,
    "|": parse_claims,
}


@settings(max_examples=300, deadline=None, database=None)
@given(fields=st.lists(st.tuples(st.sampled_from(sorted(WHOLE_FIELD_PARSES)), FIELD_TEXTS), max_size=8))
def test_one_term_memo_reads_each_field_as_its_whole_field_parse_or_not_at_all(fields):
    # Fields that share a memo, as one file's do, and go on after a failure.
    terms = {}
    for sep, text in fields:
        try:
            whole = WHOLE_FIELD_PARSES[sep](text)
        except ParseError:
            whole = None
        assert catalog_module._memo_sums(text, sep, terms) == whole, text


def test_a_piece_of_more_than_one_term_is_parsed_whole(monkeypatch):
    # A term split that missed a '+' gives a piece of two terms: the field
    # is then parsed whole, not read as the piece's first term.
    monkeypatch.setattr(catalog_module, "_TERM_SPLIT", re.compile(r"\+(?= p4)"))
    (entry,) = parse_catalog_text("[k] kind: base-fact\nsum: p3 + p5 + p4")
    assert entry.target == parse_polygonal_sum("p3 + p5 + p4")


def test_a_packaged_load_parses_each_term_text_once_per_file(monkeypatch):
    parsed = []
    parse = dsl.parse_polygonal_sum

    def spy(text):
        parsed.append(text)
        return parse(text)

    def whole(text):
        raise AssertionError("a valid field parsed whole")

    monkeypatch.setattr(dsl, "parse_polygonal_sum", spy)
    monkeypatch.setattr(dsl, "parse_chain", whole)
    monkeypatch.setattr(dsl, "parse_claims", whole)
    per_file = []
    for path in sorted(DATA.glob("*.cat")):
        parsed.clear()
        parse_catalog_text(path.read_text(encoding="utf-8"), path.name)
        assert len(parsed) == len(set(parsed)), path.name
        per_file.append(len(parsed))
    # 2,062 terms in 526 sums, of 190 distinct texts within their files.
    assert sum(per_file) == 190


# Characters a random edit puts in: the grammar's, the catalog's and some
# that neither allows.
FUZZ_CHARACTERS = "0123456789 pqxfXY+-*^(),/~|[]:#\"\n\u2003\xb2"


def test_random_edits_of_packaged_blocks_raise_only_catalog_and_parse_errors():
    rng = random.Random(30)
    blocks = [
        block
        for path in sorted(DATA.glob("*.cat"))
        for block in path.read_text(encoding="utf-8").split("\n\n")
        if block.startswith("[")
    ]
    loaded = 0
    for _ in range(6000):
        text = "\n\n".join(rng.sample(blocks, 3))
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(text) + 1)
            cut = rng.randint(0, 1)  # 0: insert, 1: replace or delete
            text = text[:at] + rng.choice(FUZZ_CHARACTERS + "\0") + text[at + cut :]
            text = text.replace("\0", "")
        try:
            catalog = Catalog(parse_catalog_text(text))
        except CatalogError:
            continue
        loaded += 1
        try:
            run_catalog(catalog, order=60, bound=300)
        except (CatalogError, ParseError):
            pass
    assert loaded > 1000
