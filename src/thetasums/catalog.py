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
    equivalence    chain:, certify:      sums joined by '~', checked pairwise;
                                         'certify: members' certifies each sum
    base-fact      sum:                  externally known sum, re-certified
    target-sum     sum:, via:, anchor:   certified; 'via: KEY [rN]' names its
                                         derivation (rN, a residue term of a
                                         decomposition), 'anchor: none'
                                         asserts that no theorem lists the sum

Entries parse at load time; malformed data, including a field the kind does
not allow, is a startup failure that names its file and line.

The theorem lists are read from the data, never from key names: they hold
every target-sum with a 'via' and every member of a 'certify: members'
chain.  A target-sum with no 'via', or with an 'anchor' field, is anchored:
some theorem list must contain its sum, or none may under 'anchor: none'.

Every series check is transfer.verify_identity, and a decomposition is
checked by transfer.verify_decomposition with the catalog's lemmas.  The
row then certifies the sums read off the atoms (transfer.derive_sums): the
lhs sum up to the bound and, only once it passes, each rhs sum up to the
largest m with k*m + shift <= bound.  Nothing is checked at load time.

Each kind has one check, which returns (ok, detail); check_entry builds
the entry's Row from it.  A check reads its sieve answers from the
polygonal.SieveTable that check_entry is given, and beside each check that
reads one is the function that asks every question the check may read;
_CHECKS pairs the two.  run_catalog asks one table for all the selected
entries, so each distinct question is sieved once.  A Row is an immutable
namedtuple; CatalogEntry, Catalog and Report are plain records.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from importlib import resources
from pathlib import Path

from . import dsl
from .polygonal import PolygonalSum, SieveTable, sum_families, sum_label
from .theta import ThetaExpression
from .transfer import (
    Decomposition,
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


class CatalogError(ValueError):
    """Malformed catalog data."""


class CatalogEntry:
    """One catalog block: its header, its raw fields and, by kind, the payloads
    parsed from them."""

    lhs: ThetaExpression | None = None
    rhs: ThetaExpression | None = None
    decomposition: Decomposition | None = None
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
    def lemmas(self) -> tuple:
        """(key, lhs, rhs) of the single-product identities, not yet checked."""
        return tuple(
            (e.key, e.lhs.terms[0], e.rhs)
            for e in self.of_kind("identity")
            if len(e.lhs.terms) == 1
        )

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

    def __len__(self):
        return len(self.entries)


def _parse_header(line: str, where: str) -> tuple[str, str, str]:
    close = line.find("]")
    if close < 0:
        raise CatalogError(f"{where}: unterminated key in {line!r}")
    key = line[1:close].strip()
    if not re.fullmatch(r"\S+", key):
        raise CatalogError(f"{where}: key [{key}] must be one word, with no whitespace")
    rest = line[close + 1 :].strip()
    if not rest.startswith("kind:"):
        raise CatalogError(f"{where}: missing kind in {line!r}")
    rest = rest[5:].strip()
    parts = re.split(r"(?:^|\s)ref:", rest, maxsplit=1)
    kind = parts[0].strip()
    if kind not in FIELDS:
        raise CatalogError(f"{where}: unknown kind {kind!r}")
    if len(parts) == 1:
        return key, kind, ""
    ref = re.fullmatch(r'"([^"]*)"', parts[1].strip())
    if ref is None:
        raise CatalogError(f"{where}: ref must be one double-quoted string in {line!r}")
    return key, kind, ref[1]


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
    for e, at in zip(entries, lines):
        _parse_payload(e, where, at)
    return entries


def _parse_payload(entry: CatalogEntry, where: str, lines: dict[str, int]) -> None:
    """Parse entry's fields by kind; an error names the line of the field
    being parsed, or the header line for a missing field."""
    field_name = ""

    def value(name: str) -> str:
        nonlocal field_name
        if name not in entry.fields:
            field_name = ""
            raise CatalogError(f"missing field {name!r}")
        field_name = name
        return entry.fields[name]

    try:
        if entry.kind == "identity":
            entry.lhs = dsl.parse_theta_expression(value("lhs"))
            entry.rhs = dsl.parse_theta_expression(value("rhs"))
        elif entry.kind == "decomposition":
            lhs = dsl.parse_theta_expression(value("lhs"))
            if len(lhs.terms) != 1:
                raise CatalogError("lhs must be a single product")
            if not re.fullmatch(r"[0-9]+", value("modulus")):
                raise CatalogError("modulus must be written in ASCII digits")
            try:
                modulus = int(value("modulus"))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise CatalogError("modulus has too many digits") from None
            rhs = dsl.parse_theta_expression(value("rhs"))
            entry.decomposition = Decomposition(lhs.terms[0], modulus, rhs.terms)
            if "base" in entry.fields:
                entry.base = dsl.parse_polygonal_sum(value("base"))
            if "claims" in entry.fields:
                entry.claims = tuple(dsl.parse_claims(value("claims")))
        elif entry.kind == "equivalence":
            entry.chain = tuple(dsl.parse_chain(value("chain")))
            if len(entry.chain) < 2:
                raise CatalogError("chain needs at least two sums")
            if "certify" in entry.fields and value("certify") != "members":
                raise CatalogError("certify must be 'members'")
        elif entry.kind in ("base-fact", "target-sum"):
            entry.target = dsl.parse_polygonal_sum(value("sum"))
            entry.via = entry.fields.get("via")
            via = entry.via and re.fullmatch(r"\S+(\s+r([0-9]+))?", value("via"))
            if entry.via is not None and not via:
                raise CatalogError("via must be 'KEY' or 'KEY rN'")
            try:  # set on every entry of these kinds, which then share one key layout
                entry.residue = int(via[2]) if via and via[2] else None
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise CatalogError("via residue term has too many digits") from None
            entry.anchor = entry.fields.get("anchor")
            if entry.anchor is not None and value("anchor") != "none":
                raise CatalogError("anchor must be 'none'")
    except ValueError as exc:
        raise CatalogError(f"{where}:{lines[field_name]}: [{entry.key}]: {exc}") from None


def default_catalog_dir():
    return resources.files("thetasums") / "data"


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog from a file, a directory of *.cat files, or, with no
    path, the packaged data directory; a directory's files load by name.

    Files are read as UTF-8; a file that cannot be read or decoded is a
    CatalogError that names it.
    """
    root = default_catalog_dir() if path is None else Path(path)
    files = [root]
    if root.is_dir():
        files = [f for f in root.iterdir() if f.name.endswith(".cat")]
        if not files:
            raise CatalogError(f"{root}: no *.cat files in this directory")
    files.sort(key=lambda f: f.name)
    entries = []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} at byte {exc.start}"
            raise CatalogError(f"{f}: not UTF-8 text ({reason})") from None
        except OSError as exc:
            raise CatalogError(f"{f}: {exc.strerror or exc}") from None
        entries += parse_catalog_text(text, f.name)
    return Catalog(entries)


# -- per-entry checks ----------------------------------------------------------


class Row(namedtuple("Row", "key kind status detail")):
    """One checked entry; status is "pass" or "fail"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _check_identity(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> tuple[bool, str]:
    outcome = verify_identity(entry.lhs, entry.rhs, order)
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


def _ask_decomposition(entry: CatalogEntry, bound: int, sieve: SieveTable) -> None:
    lhs_sum, rhs_sums = derive_sums(entry.decomposition)
    sieve.ask_universal(lhs_sum, bound)
    for s, derived in zip(rhs_sums, derived_bounds(entry.decomposition, bound)):
        sieve.ask_universal(s, derived)
    if entry.base is not None:
        sieve.ask_universal(entry.base, bound)
        sieve.ask_equal(lhs_sum, entry.base, bound)


def _check_decomposition(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> tuple[bool, str]:
    d = entry.decomposition
    outcome = verify_decomposition(d, order, catalog.lemmas)
    if not outcome.ok:
        return False, outcome.detail
    lhs_sum, rhs_sums = derive_sums(d)
    problems = []
    if entry.claims:
        mismatch = _match_claims(rhs_sums, entry.claims)
        if mismatch:
            problems.append(mismatch)
    lhs_gaps = sieve.universal(lhs_sum, bound)
    if lhs_gaps:
        problems.append(f"lhs sum {sum_label(lhs_sum)} missing {lhs_gaps[:3]}")
    if entry.base is not None:
        if sieve.universal(entry.base, bound):
            problems.append(f"base {sum_label(entry.base)} not certified")
        witness = sieve.equal(lhs_sum, entry.base, bound)
        if witness is not None:
            problems.append(f"lhs and base value sets differ at {witness}")
    if not lhs_gaps:
        # Only a certified lhs transfers: each rhs sum is certified up to
        # its derived bound.
        for s, derived in zip(rhs_sums, derived_bounds(d, bound)):
            if gaps := sieve.universal(s, derived):
                problems.append(f"rhs {sum_label(s)} missing {gaps[:3]} up to {derived}")
    if problems:
        return False, "; ".join(problems)
    return True, f"verified to order {order}; transfer certified to bound {bound} (k={d.modulus})"


def _ask_equivalence(entry: CatalogEntry, bound: int, sieve: SieveTable) -> None:
    for left, right in zip(entry.chain, entry.chain[1:]):
        sieve.ask_equal(left, right, bound)
    if entry.fields.get("certify") == "members":
        sieve.ask_universal(entry.chain[0], bound)


def _check_equivalence(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> tuple[bool, str]:
    for left, right in zip(entry.chain, entry.chain[1:]):
        witness = sieve.equal(left, right, bound)
        if witness is not None:
            return False, f"{sum_label(left)} vs {sum_label(right)}: differ at {witness}"
    notes = [f"{len(entry.chain) - 1} link(s) hold to bound {bound}"]
    if entry.fields.get("certify") == "members":
        # The links hold, so every member has the first member's values up
        # to the bound: certifying the first certifies them all.
        if gaps := sieve.universal(entry.chain[0], bound):
            return False, f"member {sum_label(entry.chain[0])} missing {gaps[:3]}"
        notes.append(f"all {len(entry.chain)} members certified universal")
    return True, "; ".join(notes)


def _ask_target(entry: CatalogEntry, bound: int, sieve: SieveTable) -> None:
    sieve.ask_universal(entry.target, bound)


def _check_base_fact(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> tuple[bool, str]:
    if gaps := sieve.universal(entry.target, bound):
        return False, f"missing {gaps} up to {bound}"
    return True, f"certified universal up to {bound}"


def _check_target(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> tuple[bool, str]:
    ok, detail = _check_base_fact(entry, order, bound, catalog, sieve)
    if not ok:
        return ok, detail
    notes = [detail]
    if entry.via:
        err = _check_via(entry, catalog, order)
        if err:
            return False, err
        notes.append(f"via {entry.via}")
    if entry.anchor is not None or not entry.via:
        hit = catalog.theorem_anchors.get(sum_families(entry.target))
        if entry.anchor == "none":
            if hit:
                return False, f"unexpected theorem anchor {hit}"
            notes.append("no theorem anchor (known source discrepancy)")
        elif hit is None:
            return False, "no theorem list contains this sum"
        else:
            notes.append(f"anchored at {hit}")
    return True, "; ".join(notes)


def _check_via(entry: CatalogEntry, catalog: Catalog, order: int) -> str | None:
    """Validate a 'via: KEY [rN]' annotation against the deriving entry.

    A deriving decomposition is checked again at this order, derived from
    its lemmas or else series-checked, so a theorem reproduction is
    self-contained even when run key-by-key.
    """
    key = entry.via.split()[0]
    source = catalog.by_key.get(key)
    if source is None:
        return f"via references unknown key {key!r}"
    if source.kind == "decomposition":
        if entry.residue is None:
            return f"via {entry.via!r} needs a residue term like 'r2'"
        outcome = verify_decomposition(source.decomposition, order, catalog.lemmas)
        if not outcome.ok:
            return f"deriving identity {key} failed: {outcome.detail}"
        _lhs_sum, rhs_sums = derive_sums(source.decomposition)
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


# Per kind, the function that asks a SieveTable every question the check
# may read, whatever the answers to the others (None: the check reads no
# sieve), and the check.
_CHECKS = {
    "identity": (None, _check_identity),
    "decomposition": (_ask_decomposition, _check_decomposition),
    "equivalence": (_ask_equivalence, _check_equivalence),
    "base-fact": (_ask_target, _check_base_fact),
    "target-sum": (_ask_target, _check_target),
}


def check_entry(
    entry: CatalogEntry, order: int, bound: int, catalog: Catalog, sieve: SieveTable
) -> Row:
    """Check one entry, reading its sieve answers from sieve, which must have
    been asked them and answered, as run_catalog does."""
    if entry.kind not in _CHECKS:
        raise CatalogError(f"unknown kind {entry.kind!r}")
    _ask, check = _CHECKS[entry.kind]
    ok, detail = check(entry, order, bound, catalog, sieve)
    return Row(entry.key, entry.kind, "pass" if ok else "fail", detail)


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
    first and answered in one planned walk, each distinct question once,
    before any row is checked; the rows read their answers from it.  The
    walk folds into a store of its own and frees each mask after its last
    use, so the library store polygonal._masks is neither read nor written.
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
    selected = sorted(selected, key=lambda e: e.key)
    sieve = SieveTable()
    for e in selected:
        if (ask := _CHECKS[e.kind][0]) is not None:
            ask(e, bound, sieve)
    sieve.answer()
    return Report(order, bound, [check_entry(e, order, bound, catalog, sieve) for e in selected])
