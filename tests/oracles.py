"""Independent reference implementations used only by tests.

Everything here recomputes results by a second route (schoolbook
convolution, direct nested loops over integer variables, theta products)
so the fast paths in the package are checked against an independent one.
The sieve, representation_series and brute_counts/brute_missing are the
three legs of the sieve/series/loops oracle; top_aligned reads a mask of
bitmask_sumset in the sieve's bit order by string reversal, and
expected_value_mask also spells a full one None;
stepped_atom_exponents walks each branch of a theta atom one n at a time;
char_tokenize is a character-by-character lexer that gives each token's
span as it scans, checked against dsl.tokenize's plain strings with the
spans that dsl's error path finds by scanning again.
"""

from __future__ import annotations

from math import gcd

from thetasums.dsl import ParseError, SourceSpan
from thetasums.polygonal import PolygonalSum, QuadTerm
from thetasums.series import Series
from thetasums.theta import ThetaAtom, product_series


def schoolbook_mul(a: Series, b: Series) -> Series:
    """Quadratic-time convolution over every index pair."""
    order = min(a.order, b.order)
    out = [0] * order
    for i in range(order):
        ai = a[i]
        for j in range(order - i):
            out[i + j] += ai * b[j]
    return Series(out, order)


def representation_series(s: PolygonalSum, bound: int) -> Series:
    """Exact representation counts of 0..bound (series order bound+1).

    QuadTerm(c, A, B) enumerates the exponents of the theta atom
    (c(A+B)/2, c(A-B)/2), so the counts are the product of those atoms.
    """
    atoms = tuple(
        ThetaAtom(t.coeff * (t.a + t.b) // 2, t.coeff * (t.a - t.b) // 2)
        for t in s.terms
    )
    return product_series(atoms, bound + 1)


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
