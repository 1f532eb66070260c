"""Independent reference implementations used only by tests.

Everything here recomputes results by a second route (schoolbook
convolution, direct nested loops over integer variables, theta products)
so the fast paths in the package are checked against an independent one.
zero, add, scale, mul and shift are dense series arithmetic on plain
coefficient lists, which the package does not have; dense_expression_series
expands a theta expression through them, from each atom's stepped
exponents, as the second route to theta.expression_series.
The sieve, representation_series and brute_counts/brute_missing are the
three legs of the sieve/series/loops oracle; top_aligned reads a mask of
bitmask_sumset in the sieve's bit order by string reversal, and
expected_value_mask also spells a full one None;
stepped_atom_exponents walks each branch of a theta atom one n at a time;
char_tokenize is a character-by-character lexer that gives each token's
span as it scans, checked against dsl.tokenize's plain strings with the
spans that dsl's error path finds by scanning again.

derive_decomposition is not a second route but the prover: the
breadth-first search over lemma rewrites that found each decomposition's
recorded proof, which the package only replays.
"""

from __future__ import annotations

from math import gcd
from operator import index

from thetasums.dsl import ParseError, SourceSpan
from thetasums.polygonal import PolygonalSum, QuadTerm
from thetasums.series import Series
from thetasums.theta import ThetaAtom, ThetaExpression, canonicalize
from thetasums.transfer import _merge, _rewrite


def zero(order: int) -> list[int]:
    """The coefficient list of 0 at order."""
    if order < 1:
        raise ValueError("series order must be positive")
    return [0] * order


def add(a: list[int], b: list[int]) -> list[int]:
    """Coefficientwise sum, truncated to the shorter list."""
    return [x + y for x, y in zip(a, b)]


def scale(a: list[int], k: int) -> list[int]:
    """Every coefficient times the integer k; a is returned as is for k = 1."""
    k = index(k)
    if k == 1:
        return a
    return [k * c for c in a]


def mul(a: list[int], b: list[int]) -> list[int]:
    """Cauchy product truncated to the shorter list.

    Iterates nonzero terms only, outer loop over the sparser factor.
    """
    order = min(len(a), len(b))
    na = [(e, c) for e, c in enumerate(a[:order]) if c]
    nb = [(e, c) for e, c in enumerate(b[:order]) if c]
    if len(na) > len(nb):
        na, nb = nb, na
    out = [0] * order
    for ea, ca in na:
        limit = order - ea
        for eb, cb in nb:
            if eb >= limit:
                break
            out[ea + eb] += ca * cb
    return out


def shift(a: list[int], e: int) -> list[int]:
    """Times q^e, keeping the length; a is returned as is for e = 0."""
    if e < 0:
        raise ValueError("shift must be nonnegative")
    if e == 0:
        return a
    return ([0] * e + a)[: len(a)]


def schoolbook_mul(a: list[int], b: list[int]) -> list[int]:
    """Quadratic-time convolution over every index pair."""
    order = min(len(a), len(b))
    out = [0] * order
    for i in range(order):
        ai = a[i]
        for j in range(order - i):
            out[i + j] += ai * b[j]
    return out


def atom_coeffs(atom: ThetaAtom, order: int) -> list[int]:
    """The atom's coefficient list at order, counted from stepped_atom_exponents."""
    out = zero(order)
    for e in stepped_atom_exponents(atom.i, atom.j, order - 1):
        out[e] += 1
    return out


def product_coeffs(atoms, order: int) -> list[int]:
    """The coefficient list of a plain product of atoms, a chain of mul."""
    product = atom_coeffs(atoms[0], order)
    for a in atoms[1:]:
        product = mul(product, atom_coeffs(a, order))
    return product


def dense_expression_series(expr: ThetaExpression, order: int) -> Series:
    """theta.expression_series from arithmetic on full-length coefficient lists.

    Each term's product is a chain of mul over atom_coeffs, scaled by the
    multiplier, shifted and added to zero.
    """
    total = zero(order)
    for term in expr.terms:
        product = product_coeffs(term.atoms, order)
        total = add(total, shift(scale(product, term.multiplier), term.shift))
    return Series(total)


def representation_series(s: PolygonalSum, bound: int) -> Series:
    """Exact representation counts of 0..bound (series order bound+1).

    QuadTerm(c, A, B) enumerates the exponents of the theta atom
    (c(A+B)/2, c(A-B)/2), so the counts are the product of those atoms.
    """
    atoms = tuple(
        ThetaAtom(t.coeff * (t.a + t.b) // 2, t.coeff * (t.a - t.b) // 2)
        for t in s.terms
    )
    return Series(product_coeffs(atoms, bound + 1))


def stepped_atom_exponents(i: int, j: int, limit: int) -> list[int]:
    """theta.atom_exponents by stepping n until the exponent passes limit.

    n = 0, 1, 2, ... and then n = -1, -2, ..., with multiplicity.
    """
    out = []
    for n, step in ((0, 1), (-1, -1)):
        while (e := (i * n * (n + 1) + j * n * (n - 1)) // 2) <= limit:
            out.append(e)
            n += step
    return out


def reduce_term_by_divisors(term: QuadTerm) -> QuadTerm:
    """Largest content g of (a, b) that keeps a/g and b/g of equal parity.

    Tries every g from gcd(a, b) down to 1.
    """
    c, a, b = term.coeff, term.a, term.b
    if b == 0:
        return QuadTerm(c * a // 2, 2, 0)
    g0 = gcd(a, -b)
    for g in range(g0, 0, -1):
        if g0 % g == 0 and ((a // g) - (b // g)) % 2 == 0:
            return QuadTerm(c * g, a // g, b // g)
    raise AssertionError("g = 1 always keeps the parity")


def term_values_sorted(term, bound: int, with_multiplicity: bool) -> list[int]:
    """Values of c*x(ax+b)/2 up to bound by direct x iteration."""
    vals = []
    x = 0
    while True:
        v = term.coeff * (x * (term.a * x + term.b)) // 2
        if v > bound:
            break
        vals.append(v)
        x += 1
    x = -1
    while True:
        v = term.coeff * (x * (term.a * x + term.b)) // 2
        if v > bound:
            break
        vals.append(v)
        x -= 1
    if not with_multiplicity:
        vals = list(set(vals))
    vals.sort()
    return vals


def brute_counts(s: PolygonalSum, bound: int) -> list[int]:
    """Representation counts by nested loops over every variable."""
    per_term = [term_values_sorted(t, bound, with_multiplicity=True) for t in s.terms]
    counts = [0] * (bound + 1)

    def rec(i: int, partial: int):
        vals = per_term[i]
        if i == len(per_term) - 1:
            for v in vals:
                total = partial + v
                if total > bound:
                    break
                counts[total] += 1
            return
        for v in vals:
            total = partial + v
            if total > bound:
                break
            rec(i + 1, total)

    rec(0, 0)
    return counts


def brute_missing(s: PolygonalSum, bound: int) -> list[int]:
    """Non-represented integers <= bound by nested loops over value sets."""
    per_term = [term_values_sorted(t, bound, with_multiplicity=False) for t in s.terms]
    reached = bytearray(bound + 1)

    def rec(i: int, partial: int):
        vals = per_term[i]
        if i == len(per_term) - 1:
            for v in vals:
                total = partial + v
                if total > bound:
                    break
                reached[total] = 1
            return
        for v in vals:
            total = partial + v
            if total > bound:
                break
            rec(i + 1, total)

    rec(0, 0)
    return [n for n in range(bound + 1) if not reached[n]]


def bitmask_sumset(s: PolygonalSum, bound: int) -> int:
    """Mask of the integers in [0, bound] that s represents.

    Every value of every term is shifted in: a shift-OR fold that never
    stops early.
    """
    full = (1 << (bound + 1)) - 1
    reached = 1
    for term in s.terms:
        folded = 0
        for v in term_values_sorted(term, bound, with_multiplicity=False):
            folded |= reached << v
        reached = folded & full
    return reached


def top_aligned(mask: int, bound: int) -> int:
    """The same set with bit i standing for bound - i: digits reversed."""
    return int(format(mask, f"0{bound + 1}b")[::-1], 2)


def expected_value_mask(s: PolygonalSum, bound: int) -> int | None:
    """bitmask_sumset read top-aligned, None when every integer in [0, bound]
    is a value, the one spelling of a full mask that sum_value_mask uses."""
    mask = top_aligned(bitmask_sumset(s, bound), bound)
    return None if mask == (1 << (bound + 1)) - 1 else mask


def char_tokenize(text: str) -> list[tuple[str, SourceSpan]]:
    """(text, span) of each token, then ("", span) at the end of input.

    One character at a time: runs of isdigit() or isalpha() characters,
    single punctuation characters, '\\n' starts a new line and any other
    isspace() character is skipped.  It agrees with dsl.tokenize on ASCII
    text and whitespace only, since isdigit() and isalpha() also accept
    other scripts.
    """
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append((text[start:i], SourceSpan(line, start_col, col - 1)))
            continue
        if ch.isalpha():
            start = i
            start_col = col
            while i < n and text[i].isalpha():
                i += 1
                col += 1
            tokens.append((text[start:i], SourceSpan(line, start_col, col - 1)))
            continue
        if ch not in "+-*^(),/~|":
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(line, col, col))
        tokens.append((ch, SourceSpan(line, col, col)))
        i += 1
        col += 1
    tokens.append(("", SourceSpan(line, col, col)))
    return tokens


def lemma_rules(catalog) -> tuple:
    """(key, lhs, rhs) of each identity whose lhs is one product, in load order."""
    return tuple(
        (e.key, e.lhs.terms[0], e.rhs)
        for e in catalog.of_kind("identity")
        if len(e.lhs.terms) == 1
    )


def derive_decomposition(d, lemmas, max_steps: int = 3) -> tuple[tuple[str, int], ...] | None:
    """Shortest derivation of d from the lemmas as (key, n) steps, or None
    within max_steps.

    lemmas holds (key, lhs, rhs) triples, as lemma_rules gives them; only
    those whose lhs is a bare product after canonicalize take part.  A step
    (key, n) is transfer._rewrite under q -> q^n, the rewrite that
    verify_decomposition replays.  The search is breadth-first over the
    canonical sum of terms; it tries each lemma at each n that maps the
    lemma's first atom onto an atom of an open term, and succeeds when the
    sum equals the canonical rhs exactly.
    """
    k = d.modulus
    rules = []
    for key, lhs, rhs in lemmas:
        c = canonicalize(lhs)
        if c.multiplier == 1 and c.shift == 0:
            rules.append((key, c.atoms, rhs.terms))
    target = _merge(d.rhs)
    start = _merge([d.lhs])
    if start == target:
        return ()
    frontier = [((), start)]
    seen = {frozenset(start.items())}
    for _ in range(max_steps):
        next_frontier = []
        for steps, state in frontier:
            candidates = {}
            for _shift, atoms in state:
                if all(a.i % k == a.j % k == 0 for a in atoms):
                    continue
                for key, lhs_atoms, rhs_terms in rules:
                    head = lhs_atoms[0]
                    for a in set(atoms):
                        n, r = divmod(a.i, head.i)
                        if not r and a.j == n * head.j:
                            candidates[(key, n)] = (lhs_atoms, rhs_terms)
            for step, (lhs_atoms, rhs_terms) in candidates.items():
                new = _rewrite(state, lhs_atoms, rhs_terms, step[1], k)
                if new is None:
                    continue
                if new == target:
                    return steps + (step,)
                key = frozenset(new.items())
                if key not in seen:
                    seen.add(key)
                    next_frontier.append((steps + (step,), new))
        frontier = next_frontier
    return None
