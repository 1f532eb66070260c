"""A standing mutation audit of the packaged catalog data.

A mutant adds 1 to or subtracts 1 from one digit run of one payload field
of one packaged entry.  A mutant that still loads takes its entry's place,
and its row alone is checked at the default order and bound.  A passing
mutant is a change to the data that the checks cannot tell from the data as
written, so a passing count that goes up means a check got weaker.
"""

import random
import re
from collections import Counter

from thetasums.catalog import Catalog, CatalogError, load_catalog, parse_catalog_text, run_catalog

PER_FIELD = 100  # mutants drawn per (kind, field); all of them when a field has fewer

# Per (kind, field) with a mutant that loads: (passing, loaded) of the draw.
# No modulus mutant loads.  Over all 8146 mutants, 141 of 172 base-fact
# sums, 1121 of 1243 chains and 137 of 2970 target-sum sums that load pass,
# and none elsewhere; the 137 are other theorem sums, so true statements.
# A lower count is a stronger check and is pinned here anew; a higher one
# is a weaker check.
PINNED = {
    ("base-fact", "sum"): (87, 100),
    ("decomposition", "base"): (0, 99),
    ("decomposition", "claims"): (0, 93),
    ("decomposition", "lhs"): (0, 86),
    ("decomposition", "rhs"): (0, 6),
    ("equivalence", "chain"): (83, 89),
    ("identity", "lhs"): (0, 14),
    ("identity", "rhs"): (0, 100),
    ("target-sum", "sum"): (3, 91),
    ("target-sum", "via"): (0, 100),
}


def _mutants(catalog: Catalog) -> dict[tuple[str, str], list[tuple[int, str, str]]]:
    """Per (kind, field), each ±1 digit-run mutant as (entry index, field, text)."""
    found: dict[tuple[str, str], list[tuple[int, str, str]]] = {}
    for i, e in enumerate(catalog.entries):
        for name, value in e.fields.items():
            for m in re.finditer("[0-9]+", value):
                for step in (-1, 1):
                    text = value[: m.start()] + str(int(m[0]) + step) + value[m.end() :]
                    found.setdefault((e.kind, name), []).append((i, name, text))
    return found


def _row_alone(catalog: Catalog, i: int, name: str, text: str):
    """The row of entry i with field name set to text, checked alone; None
    when the entry no longer loads."""
    e = catalog.entries[i]
    fields = dict(e.fields, **{name: text})
    block = f"[{e.key}] kind: {e.kind}\n" + "".join(f"{k}: {v}\n" for k, v in fields.items())
    try:
        (mutant,) = parse_catalog_text(block)
    except CatalogError:
        return None
    mutant.proof = e.proof  # a proof comes from a *.proofs file, not from the block
    entries = catalog.entries.copy()
    entries[i] = mutant
    (row,) = run_catalog(Catalog(entries), keys=[e.key]).rows
    return row


def test_digit_mutants_of_the_packaged_data_pass_no_more_often_than_pinned():
    catalog = load_catalog()
    rng = random.Random(6)
    passing, loaded = Counter(), Counter()
    for group, mutants in sorted(_mutants(catalog).items()):
        for mutant in rng.sample(mutants, min(PER_FIELD, len(mutants))):
            row = _row_alone(catalog, *mutant)
            if row is not None:
                loaded[group] += 1
                passing[group] += row.ok
    found = {group: (passing[group], loaded[group]) for group in loaded}
    weaker = {g: n for g, n in found.items() if n[0] > PINNED.get(g, (0, 0))[0]}
    assert not weaker, f"more mutants pass than pinned: {weaker}"
    assert found == PINNED
