"""The curated identity catalog: loading, validation, and batch checking.

Catalog files are plain text, one entry per block:

    [key] kind: <kind> ref: "<source location>"
    field: value
    ...

with a blank line between blocks and '#' comments.  A key is one word
with no whitespace; a ref, which may be left out, is one double-quoted
string with no '"' inside it.  Each kind allows only these fields:

    identity       lhs:, rhs:            theta expressions; checked by series
    decomposition  lhs:, modulus:, rhs:, base:, claims:  (claims '|'-separated)
                                         base: the lhs sum, or a sum that one
                                         equivalence chain holds with it
    equivalence    chain:, certify:      sums joined by '~', checked pairwise;
                                         'certify: members' certifies each sum
    base-fact      sum:                  externally known sum, re-certified
    target-sum     sum:, via:, anchor:   certified; 'via: KEY [rN]' names its
                                         derivation (rN, a residue term of a
                                         decomposition), 'anchor: none'
                                         asserts that no theorem lists the sum

Entries parse at load time; malformed data, including a field the kind does
not allow, is a startup failure that names its file and line.  A sum field
(sum, base, chain, claims) is split into its sums at '~' or '|' and into
terms at each '+' outside parentheses, and each distinct term text of a
file is parsed once, through a memo that ends with the parse_catalog_text
call.  A field with a piece that does not parse alone as one term is
parsed whole, so its error, message and span, is the dsl's.  Theta
expressions are parsed whole.

A line 'KEY: LEMMA q^N, LEMMA q, ...' of a *.proofs file gives the
decomposition KEY its proof: the lemma steps that derive its rhs, in the
order they apply, each LEMMA under q -> q^N (N >= 1).  Only a directory
load reads *.proofs files; a catalog file loaded alone has no proofs.

The theorem lists are read from the data, never from key names: they hold
every target-sum with a 'via' and every member of a 'certify: members'
chain.  A target-sum with no 'via', or with an 'anchor' field, is anchored:
some theorem list must contain its sum, or none may under 'anchor: none'.

Every series check is transfer.verify_identity, and a decomposition is
checked by transfer.verify_decomposition, which replays its proof with the
identities its keys name.  The row then certifies the sums read off the
atoms (transfer.derive_sums): the lhs sum up to the bound and, only once it
passes, each rhs sum up to the largest m with k*m + shift <= bound.  A
base must be the lhs sum by family key, or a sum that one equivalence
chain holds with it (Catalog.chains); it is then certified and compared
with the lhs sum up to the bound.
Nothing is checked at load time.

Each kind has one check, which returns (ok, detail); run_catalog builds
the entry's Row from it.  A check reads its run's record, a _Run: the
catalog, order and bound, the sieve answers and one memo per kind of
series work, so each distinct identity, decomposition and sum list is
worked out once per run and none outlives it.  run_catalog first runs
each selected check against an asker that puts every question it reads to
one polygonal.SieveTable and answers it as passing, so each distinct
question is sieved once.  A Row is an immutable namedtuple; CatalogEntry,
Catalog and Report are plain records.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

from . import dsl
from .polygonal import PolygonalSum, QuadTerm, SieveTable, sum_families, sum_label
from .theta import ThetaExpression
from .transfer import (
    Decomposition,
    VerifyOutcome,
    derive_sums,
    derived_bounds,
    verify_decomposition,
    verify_identity,
)

FIELDS = {
    "identity": ("lhs", "rhs"),
    "decomposition": ("lhs", "modulus", "rhs", "base", "claims"),
    "equivalence": ("chain", "certify"),
    "base-fact": ("sum",),
    "target-sum": ("sum", "via", "anchor"),
}

# A '+' that a ')' follows with no paren between them is inside an
# x(Ax+B)/2 term; every other '+' separates two terms.
_TERM_SPLIT = re.compile(r"\+(?![^()]*\))")


class CatalogError(ValueError):
    """Malformed catalog data."""


class CatalogEntry:
    """One catalog block: its header, its raw fields and, by kind, the payloads
    parsed from them."""

    lhs: ThetaExpression | None = None
    rhs: ThetaExpression | None = None
    decomposition: Decomposition | None = None
    proof: tuple[tuple[str, int], ...] = ()  # (KEY, N) of each 'KEY q^N' step
    base: PolygonalSum | None = None
    claims: tuple[PolygonalSum, ...] = ()
    chain: tuple[PolygonalSum, ...] = ()
    target: PolygonalSum | None = None
    via: str | None = None
    residue: int | None = None  # N of a 'via: KEY rN'
    anchor: str | None = None

    def __init__(self, key: str, kind: str, ref: str, fields: dict[str, str], where: str = ""):
        self.key, self.kind, self.ref, self.fields = key, kind, ref, fields
        self.where = where  # file:line of the header


class Catalog:
    """Entries in load order, indexed by their unique keys."""

    def __init__(self, entries: list[CatalogEntry]):
        self.entries = entries
        self.by_key: dict[str, CatalogEntry] = {}
        for e in entries:
            if (first := self.by_key.get(e.key)) is not None:
                raise CatalogError(
                    f"{e.where}: duplicate catalog key {e.key!r}, first at {first.where}"
                )
            self.by_key[e.key] = e

    def of_kind(self, kind: str) -> list[CatalogEntry]:
        return [e for e in self.entries if e.kind == kind]

    @cached_property
    def theorem_anchors(self) -> dict[tuple, str]:
        """Family-key index of the theorem lists, read from the data.

        A theorem lists the target-sums it derives (those with a 'via') and
        the members of its 'certify: members' chains; the first entry wins.
        """
        index: dict[tuple, str] = {}
        for e in self.entries:
            if e.kind == "target-sum" and e.via:
                index.setdefault(sum_families(e.target), e.key)
            elif e.kind == "equivalence" and "certify" in e.fields:
                for s in e.chain:
                    index.setdefault(sum_families(s), e.key)
        return index

    @cached_property
    def chains(self) -> dict[tuple, set[str]]:
        """Family-key index of the equivalence chains: the keys of the
        chains that hold a sum of each family tuple."""
        index: dict[tuple, set[str]] = {}
        for e in self.entries:
            if e.kind == "equivalence":
                for s in e.chain:
                    index.setdefault(sum_families(s), set()).add(e.key)
        return index

    def __len__(self):
        return len(self.entries)


def _parse_header(line: str, where: str) -> tuple[str, str, str]:
    close = line.find("]")
    if close < 0:
        raise CatalogError(f"{where}: unterminated key in {line!r}")
    key = line[1:close].strip()
    if len(key.split()) != 1:
        raise CatalogError(f"{where}: key [{key}] must be one word, with no whitespace")
    rest = line[close + 1 :].strip()
    if not rest.startswith("kind:"):
        raise CatalogError(f"{where}: missing kind in {line!r}")
    rest = rest[5:].strip()
    at = rest.find("ref:")
    while at > 0 and not rest[at - 1].isspace():  # glued to the kind, so part of it
        at = rest.find("ref:", at + 1)
    kind = (rest if at < 0 else rest[:at]).strip()
    if kind not in FIELDS:
        raise CatalogError(f"{where}: unknown kind {kind!r}")
    if at < 0:
        return key, kind, ""
    ref = rest[at + 4 :].strip()
    if ref[:1] != '"' or ref[-1:] != '"' or ref.count('"') != 2:
        raise CatalogError(f"{where}: ref must be one double-quoted string in {line!r}")
    return key, kind, ref[1:-1]


def parse_catalog_text(text: str, where: str = "<catalog>") -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    # Per entry, the line of its header ("") and of each of its fields.
    lines: list[dict[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        loc = f"{where}:{lineno}"
        if line.startswith("["):
            key, kind, ref = _parse_header(line, loc)
            entries.append(CatalogEntry(key, kind, ref, {}, where=loc))
            lines.append({"": lineno})
            continue
        if not entries:
            raise CatalogError(f"{loc}: field outside any entry: {line!r}")
        current = entries[-1]
        name, sep, value = line.partition(":")
        if not sep:
            raise CatalogError(f"{loc}: expected 'field: value', got {line!r}")
        name = name.strip()
        if name not in FIELDS[current.kind]:
            raise CatalogError(
                f"{loc}: field {name!r} not allowed for kind {current.kind}"
            )
        if name in current.fields:
            raise CatalogError(f"{loc}: duplicate field {name!r} in [{current.key}]")
        current.fields[name] = value.strip()
        lines[-1][name] = lineno
    terms: dict[str, QuadTerm] = {}  # each term text of this file, parsed once
    for e, at in zip(entries, lines):
        _parse_payload(e, where, at, terms)
    return entries


def _memo_sums(text: str, sep: str, terms: dict[str, QuadTerm]) -> list[PolygonalSum] | None:
    """The sums of text split at sep ("" for a single sum), each term looked
    up in terms by its text or parsed once as a one-term sum; None when
    some piece does not parse so.  A term's text is the piece of its sum
    between two _TERM_SPLIT '+'s, spaces included."""
    sums = []
    for part in text.split(sep) if sep else (text,):
        found = []
        for piece in _TERM_SPLIT.split(part):
            term = terms.get(piece)
            if term is None:
                try:
                    (term,) = dsl.parse_polygonal_sum(piece).terms
                except ValueError:  # a ParseError, or more than one term
                    return None
                terms[piece] = term
            found.append(term)
        sums.append(PolygonalSum(found))
    return sums


def _parse_payload(
    entry: CatalogEntry, where: str, lines: dict[str, int], terms: dict[str, QuadTerm]
) -> None:
    """Parse entry's fields by kind; an error names the line of the field
    being parsed, or the header line for a missing field.

    A sum field is read through _memo_sums, and parsed whole by dsl only
    when some piece of it does not parse alone, which then raises."""
    field_name = ""

    def value(name: str) -> str:
        nonlocal field_name
        if name not in entry.fields:
            field_name = ""
            raise CatalogError(f"missing field {name!r}")
        field_name = name
        return entry.fields[name]

    def sums(name: str, sep: str = "") -> list[PolygonalSum]:
        text = value(name)
        found = _memo_sums(text, sep, terms)
        if found is not None:
            return found
        return dsl.parse_sums(text, sep) if sep else [dsl.parse_polygonal_sum(text)]

    try:
        if entry.kind == "identity":
            entry.lhs = dsl.parse_theta_expression(value("lhs"))
            entry.rhs = dsl.parse_theta_expression(value("rhs"))
        elif entry.kind == "decomposition":
            lhs = dsl.parse_theta_expression(value("lhs"))
            if len(lhs.terms) != 1:
                raise CatalogError("lhs must be a single product")
            digits = value("modulus")
            if not (digits.isascii() and digits.isdigit()):
                raise CatalogError("modulus must be written in ASCII digits")
            modulus = _parse_digits(digits, "modulus")
            rhs = dsl.parse_theta_expression(value("rhs"))
            entry.decomposition = Decomposition(lhs.terms[0], modulus, rhs.terms)
            if "base" in entry.fields:
                (entry.base,) = sums("base")
            if "claims" in entry.fields:
                entry.claims = tuple(sums("claims", "|"))
        elif entry.kind == "equivalence":
            entry.chain = tuple(sums("chain", "~"))
            if len(entry.chain) < 2:
                raise CatalogError("chain needs at least two sums")
            if "certify" in entry.fields and value("certify") != "members":
                raise CatalogError("certify must be 'members'")
        elif entry.kind in ("base-fact", "target-sum"):
            (entry.target,) = sums("sum")
            entry.via = entry.fields.get("via")
            via = entry.via and re.fullmatch(r"\S+(\s+r([0-9]+))?", value("via"))
            if entry.via is not None and not via:
                raise CatalogError("via must be 'KEY' or 'KEY rN'")
            # Set on every entry of these kinds, which then share one key layout.
            entry.residue = _parse_digits(via[2], "via residue term") if via and via[2] else None
            entry.anchor = entry.fields.get("anchor")
            if entry.anchor is not None and value("anchor") != "none":
                raise CatalogError("anchor must be 'none'")
    except ValueError as exc:
        raise CatalogError(f"{where}:{lines[field_name]}: [{entry.key}]: {exc}") from None


def _parse_proof(text: str) -> tuple[tuple[str, int], ...]:
    """'KEY q^N, KEY q, ...', N >= 1, as its (KEY, N) steps, in order."""
    steps = [re.fullmatch(r"\s*(\S+)\s+q(?:\^([1-9][0-9]*))?\s*", step) for step in text.split(",")]
    if not all(steps):
        raise CatalogError("proof must be steps 'KEY q^N' with N >= 1, separated by ','")
    return tuple((m[1], _parse_digits(m[2] or "1", "proof step scaling")) for m in steps)


def _parse_digits(digits: str, what: str) -> int:
    """int(digits) of a run of ASCII digits, whose only error is a length
    over sys.get_int_max_str_digits(): a CatalogError that names what."""
    try:
        return int(digits)
    except ValueError:
        raise CatalogError(f"{what} has too many digits") from None


def default_catalog_dir():
    return resources.files("thetasums") / "data"


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog from a file, a directory of *.cat files and the
    *.proofs files that attach_proofs reads, or, with no path, the packaged
    data directory; a directory's files load by name.  Files are read as
    UTF-8; a file that cannot be read or decoded is a CatalogError naming it.
    """
    root = default_catalog_dir() if path is None else Path(path)
    files = [root]
    if root.is_dir():
        files = [f for f in root.iterdir() if f.name.endswith((".cat", ".proofs"))]
        if not any(f.name.endswith(".cat") for f in files):
            raise CatalogError(f"{root}: no *.cat files in this directory")
    files.sort(key=lambda f: f.name)
    entries, proofs = [], []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} at byte {exc.start}"
            raise CatalogError(f"{f}: not UTF-8 text ({reason})") from None
        except OSError as exc:
            raise CatalogError(f"{f}: {exc.strerror or exc}") from None
        if f.name.endswith(".proofs"):
            proofs.append((text, f.name))
        else:
            entries += parse_catalog_text(text, f.name)
    catalog = Catalog(entries)
    for text, where in proofs:
        attach_proofs(catalog, text, where)
    return catalog


def attach_proofs(catalog: Catalog, text: str, where: str = "<proofs>") -> None:
    """Give each decomposition the proof a 'KEY: STEP, ...' line of text names."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (line := raw.strip()) or line.startswith("#"):
            continue
        key, sep, steps = (part.strip() for part in line.partition(":"))
        if not sep:
            raise CatalogError(f"{where}:{lineno}: expected 'KEY: STEP, ...', got {line!r}")
        entry = catalog.by_key.get(key)
        if entry is None or entry.kind != "decomposition" or entry.proof:
            raise CatalogError(f"{where}:{lineno}: [{key}]: not a decomposition without a proof")
        try:
            entry.proof = _parse_proof(steps)
        except CatalogError as exc:
            raise CatalogError(f"{where}:{lineno}: [{key}]: {exc}") from None


# -- per-entry checks ----------------------------------------------------------


class Row(namedtuple("Row", "key kind status detail")):
    """One checked entry; status is "pass" or "fail"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _check_identity(entry: CatalogEntry, run: _Run) -> tuple[bool, str]:
    outcome = run.identity(entry.lhs, entry.rhs, run.order)
    return outcome.ok, outcome.detail


def _match_claims(
    rhs_sums: tuple[PolygonalSum, ...], claims: tuple[PolygonalSum, ...]
) -> str | None:
    if len(claims) != len(rhs_sums):
        return f"{len(claims)} claims for {len(rhs_sums)} residue terms"
    for idx, (claim, derived) in enumerate(zip(claims, rhs_sums), start=1):
        if sum_families(claim) != sum_families(derived):
            return (
                f"claim {idx} is {sum_label(claim)} but the atoms give "
                f"{sum_label(derived)}"
            )
    return None


def _verify_decomposition(entry: CatalogEntry, run: _Run) -> VerifyOutcome:
    """verify_decomposition of entry, its proof's keys read as single-product identities."""
    steps = []
    for step, (key, n) in enumerate(entry.proof, start=1):
        lemma = run.catalog.by_key.get(key)
        if lemma is None or lemma.kind != "identity" or len(lemma.lhs.terms) != 1:
            detail = f"proof step {step}: {key!r} is not a single-product identity"
            return VerifyOutcome(False, None, detail)
        steps.append((lemma.lhs.terms[0], lemma.rhs, n))
    return run.decomposition(entry.decomposition, run.order, tuple(steps), run.identity)


def _check_decomposition(entry: CatalogEntry, run: _Run) -> tuple[bool, str]:
    d = entry.decomposition
    outcome = _verify_decomposition(entry, run)
    if not outcome.ok:
        return False, outcome.detail
    lhs_sum, rhs_sums = run.sums(d)
    problems = []
    if entry.claims:
        mismatch = _match_claims(rhs_sums, entry.claims)
        if mismatch:
            problems.append(mismatch)
    lhs_gaps = run.sieve.universal(lhs_sum, run.bound)
    if lhs_gaps:
        problems.append(f"lhs sum {sum_label(lhs_sum)} missing {lhs_gaps[:3]}")
    if entry.base is not None:
        lhs_key, base_key = sum_families(lhs_sum), sum_families(entry.base)
        chains = run.catalog.chains
        if lhs_key != base_key and chains.get(lhs_key, set()).isdisjoint(chains.get(base_key, ())):
            problems.append(
                f"base {sum_label(entry.base)} is not the lhs sum {sum_label(lhs_sum)}"
                " and no equivalence chain holds both"
            )
        if run.sieve.universal(entry.base, run.bound):
            problems.append(f"base {sum_label(entry.base)} not certified")
        witness = run.sieve.equal(lhs_sum, entry.base, run.bound)
        if witness is not None:
            problems.append(f"lhs and base value sets differ at {witness}")
    if not lhs_gaps:
        # Only a certified lhs transfers: each rhs sum is certified up to
        # its derived bound.
        for s, derived in zip(rhs_sums, derived_bounds(d, run.bound)):
            if gaps := run.sieve.universal(s, derived):
                problems.append(f"rhs {sum_label(s)} missing {gaps[:3]} up to {derived}")
    if problems:
        return False, "; ".join(problems)
    detail = f"transfer certified to bound {run.bound} (k={d.modulus})"
    return True, f"verified to order {run.order}; {detail}"


def _check_equivalence(entry: CatalogEntry, run: _Run) -> tuple[bool, str]:
    for left, right in zip(entry.chain, entry.chain[1:]):
        witness = run.sieve.equal(left, right, run.bound)
        if witness is not None:
            return False, f"{sum_label(left)} vs {sum_label(right)}: differ at {witness}"
    notes = [f"{len(entry.chain) - 1} link(s) hold to bound {run.bound}"]
    if entry.fields.get("certify") == "members":
        # The links hold, so every member has the first member's values up
        # to the bound: certifying the first certifies them all.
        if gaps := run.sieve.universal(entry.chain[0], run.bound):
            return False, f"member {sum_label(entry.chain[0])} missing {gaps[:3]}"
        notes.append(f"all {len(entry.chain)} members certified universal")
    return True, "; ".join(notes)


def _check_base_fact(entry: CatalogEntry, run: _Run) -> tuple[bool, str]:
    if gaps := run.sieve.universal(entry.target, run.bound):
        return False, f"missing {gaps} up to {run.bound}"
    return True, f"certified universal up to {run.bound}"


def _check_target(entry: CatalogEntry, run: _Run) -> tuple[bool, str]:
    ok, detail = _check_base_fact(entry, run)
    if not ok:
        return ok, detail
    notes = [detail]
    if entry.via:
        err = _check_via(entry, run)
        if err:
            return False, err
        notes.append(f"via {entry.via}")
    if entry.anchor is not None or not entry.via:
        hit = run.catalog.theorem_anchors.get(sum_families(entry.target))
        if entry.anchor == "none":
            if hit:
                return False, f"unexpected theorem anchor {hit}"
            notes.append("no theorem anchor (known source discrepancy)")
        elif hit is None:
            return False, "no theorem list contains this sum"
        else:
            notes.append(f"anchored at {hit}")
    return True, "; ".join(notes)


def _check_via(entry: CatalogEntry, run: _Run) -> str | None:
    """Validate a 'via: KEY [rN]' annotation against the deriving entry.

    A deriving decomposition is checked at this order, once per run, its
    proof replayed or else series-checked, so a theorem reproduction is
    self-contained even when run key-by-key.
    """
    key = entry.via.split()[0]
    source = run.catalog.by_key.get(key)
    if source is None:
        return f"via references unknown key {key!r}"
    if source.kind == "decomposition":
        if entry.residue is None:
            return f"via {entry.via!r} needs a residue term like 'r2'"
        outcome = _verify_decomposition(source, run)
        if not outcome.ok:
            return f"deriving identity {key} failed: {outcome.detail}"
        _lhs_sum, rhs_sums = run.sums(source.decomposition)
        if not 1 <= entry.residue <= len(rhs_sums):
            return f"via {entry.via!r}: no residue term {entry.residue}"
        derived = rhs_sums[entry.residue - 1]
        if sum_families(derived) != sum_families(entry.target):
            return f"via {entry.via!r} derives {sum_label(derived)}, not {sum_label(entry.target)}"
        return None
    if source.kind == "equivalence":
        if entry.residue is not None:
            return f"via {entry.via!r}: a residue term needs a decomposition"
        if any(
            sum_families(s) == sum_families(entry.target) for s in source.chain
        ):
            return None
        return f"via {entry.via!r}: chain does not contain this sum"
    return f"via {entry.via!r} must name a decomposition or equivalence"


# Per kind, its check.  A failing sieve answer may only end a check early
# or add to its problems, so a check whose answers all pass reads every
# question it can read.
_CHECKS = {
    "identity": _check_identity,
    "decomposition": _check_decomposition,
    "equivalence": _check_equivalence,
    "base-fact": _check_base_fact,
    "target-sum": _check_target,
}


class _Asker:
    """Stands in for a SieveTable in run_catalog's asking pass: it asks table
    each question a check reads and answers it as passing."""

    def __init__(self, table: SieveTable):
        self.table = table

    def universal(self, s: PolygonalSum, bound: int) -> tuple[int, ...]:
        self.table.ask_universal(s, bound)
        return ()

    def equal(self, s1: PolygonalSum, s2: PolygonalSum, bound: int) -> None:
        self.table.ask_equal(s1, s2, bound)


class _Run:
    """One run_catalog call: what its checks read, and one memo per kind of
    series work they share, kept as long as the run.  sieve is the _Asker
    of the asking pass, then the answered SieveTable."""

    def __init__(self, catalog: Catalog, order: int, bound: int, sieve: _Asker | SieveTable):
        self.catalog, self.order, self.bound, self.sieve = catalog, order, bound, sieve
        self.identity = cache(verify_identity)  # lemma steps are checked through it too
        self.decomposition = cache(verify_decomposition)
        self.sums = cache(derive_sums)


SCHEMA = "thetasums-report/1"


class Report:
    """The rows of one catalog run, with the order and bound they were checked at."""

    def __init__(self, order: int, bound: int, rows: list[Row]):
        self.order, self.bound, self.rows = order, bound, rows

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": {"order": self.order, "bound": self.bound},
            "summary": {"pass": self.passed, "fail": self.failed},
            "rows": [
                {"key": r.key, "kind": r.kind, "status": r.status, "detail": r.detail}
                for r in self.rows
            ],
        }


def run_catalog(
    catalog: Catalog,
    order: int = 1000,
    bound: int = 50000,
    kinds: tuple[str, ...] | None = None,
    keys: list[str] | None = None,
) -> Report:
    """Check every selected entry, in key order, and return one row per entry.

    An unknown key or kind, or a selection of no entry, is a CatalogError.

    Every sieve question of the selected entries is asked of one SieveTable
    first, by running each entry's check against an _Asker of it, and
    answered in one planned walk, each distinct question once; then each
    row is checked against the table.  Both passes share one _Run, whose
    memos make each distinct identity and decomposition one series check
    of this run, not of the next.  The walk folds into a store of its own
    and frees each mask after its last use, so the library store
    polygonal._masks is neither read nor written.
    """
    selected = catalog.entries
    if kinds is not None:
        if unknown := [k for k in kinds if k not in FIELDS]:
            raise CatalogError(f"unknown kind(s): {', '.join(unknown)}")
        selected = [e for e in selected if e.kind in kinds]
    if keys is not None:
        if unknown := [k for k in keys if k not in catalog.by_key]:
            raise CatalogError(f"unknown catalog key(s): {', '.join(unknown)}")
        wanted = set(keys)
        selected = [e for e in selected if e.key in wanted]
    if not selected:
        raise CatalogError("no catalog entries selected")
    for e in selected:
        if e.kind not in FIELDS:
            raise CatalogError(f"[{e.key}]: unknown kind {e.kind!r}")
    selected = sorted(selected, key=lambda e: e.key)
    table = SieveTable()
    run = _Run(catalog, order, bound, _Asker(table))
    for e in selected:
        _CHECKS[e.kind](e, run)
    table.answer()
    run.sieve = table
    rows = []
    for e in selected:
        ok, detail = _CHECKS[e.kind](e, run)
        rows.append(Row(e.key, e.kind, "pass" if ok else "fail", detail))
    return Report(order, bound, rows)
