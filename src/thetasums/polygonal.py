"""Generalized polygonal numbers, finite polygonal sums, and certification.

A QuadTerm is one summand c*x(Ax+B)/2 with x ranging over all integers; a
PolygonalSum is a finite list of them.  Both are immutable namedtuples
whose constructors validate (_make and _replace too) and which hash and
compare as the plain tuple of their fields; the length of a PolygonalSum is
its number of terms.
Certification of universality is bounded and sieve-based: value sets become
bitmasks (Python ints) and the sumset of two masks is an OR of shifts, so
only positivity is ever computed, never a representation count.

Every mask is top-aligned: in a mask at bound b, bit i stands for the value
b - i, so {0} is 1 << b and no mask is wider than b + 1 bits.  One fold
builds every mask: _fold(families, bound, store) shifts the mask of the
families before the last one right by each of the last family's values,
starting from {0}; a right shift drops every sum past the bound as it goes.
A sum is keyed by its family keys in canonical densest-first order
(sum_families), so permuted and rescaled spellings share one mask, sums
with a common prefix share its folds, and the sparsest family is folded
last.  Each distinct value of a family is folded once, in increasing order,
and a fold stops once no gap is left at or above the next value u, that is
once the low bound - u + 1 bits are all set: shifting by v sets no bit for
a value below v, so no later value can fill a gap.  Every value is >= 0, so
a mask at bound b is the same families' mask at any wider bound w shifted
right by w - b: a store keeps only the widest mask folded for each family
tuple, and a request below that bound is answered by that shift, not by a
fold.  A universal tuple, whose mask is full at that bound, is kept as its
bound alone, so a store holds bound/8 bytes for each non-full entry only;
from _fold to every reader of sum_value_mask a full mask is None, so a full
tuple is universal, and two full tuples equal, with no all-ones int built.

There are two stores.  Library calls (sum_value_mask, certify_universal,
equivalent_upto) share _masks, kept for the life of the process and cut
back to _MAX_MASKS entries after each fold.  A SieveTable, which the
catalog runs use, is told every question of a run before it folds
anything: it folds each family tuple once, at the widest bound any
question needs, into a store of its own, reads each answer's masks from
it through sum_value_mask, and frees each mask after its last use.
Verdicts are not cached: certify_universal keeps the gaps of the mask as a
top-aligned mask, counted by bit_count, and lists them in one linear scan
of its binary digits only when the full list is read.

A value family is keyed by its theta atom (family_key): QuadTerm(c, A, B)
has the exponents of the atom (i, j) = (c(A+B)/2, c(A-B)/2), 0 <= i <= j,
since i*n(n+1)/2 + j*n(n-1)/2 is c*n(An+B)/2; this inverts the map of
transfer.derive_sums and gives values_upto.  The hexagonal atom (i, 3i) is
keyed (0, i), the triangular atom with the same values, so two terms have
equal keys exactly when they have equal value sets.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd

from .theta import atom_exponents


class QuadTerm(namedtuple("QuadTerm", "coeff a b")):
    """Value family { coeff * x(a*x + b)/2 : x in Z }.

    b is normalized to b <= 0 (x <-> -x symmetry leaves the family fixed);
    a and b must share parity so values are integers, and |b| <= a so the
    family is nonnegative.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, coeff: int, a: int, b: int):
        b = -abs(b)
        if coeff < 1:
            raise ValueError("term coefficient must be >= 1")
        if a < 1:
            raise ValueError("leading parameter must be >= 1")
        if (a - b) % 2 != 0:
            raise ValueError(f"parity violation: {a} and {b} differ mod 2")
        if -b > a:
            raise ValueError("|b| > a would produce negative values")
        return tuple.__new__(cls, (coeff, a, b))

    def value(self, x: int) -> int:
        return self.coeff * (x * (self.a * x + self.b)) // 2

    def values_upto(self, bound: int) -> list[int]:
        """All family values <= bound, each once, in increasing order."""
        return sorted(set(atom_exponents(*family_key(self), bound)))


class PolygonalSum(namedtuple("PolygonalSum", "terms")):
    """Finite formal sum of QuadTerms; its length is the number of terms."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, terms: tuple[QuadTerm, ...]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a polygonal sum needs at least one term")
        return tuple.__new__(cls, (terms,))

    def __len__(self) -> int:
        return len(self.terms)


class UniversalityVerdict:
    """Bounded certification result; gaps is a top-aligned mask.

    Bit i of gaps is set when bound - i is a gap, so the smallest gaps are
    the highest set bits.  The verdict, the gap count and a short head come
    from the mask; the full gap list is built only when missing is first
    read.
    """

    def __init__(self, bound: int, gaps: int = 0):
        self.bound = bound
        self.gaps = gaps

    def __repr__(self) -> str:
        return f"UniversalityVerdict(bound={self.bound!r})"

    @property
    def universal(self) -> bool:
        return self.gaps == 0

    @property
    def missing_count(self) -> int:
        return self.gaps.bit_count()

    def head(self, n: int) -> tuple[int, ...]:
        """The n smallest gaps, read off the highest set bits."""
        out = []
        g = self.gaps
        while g and len(out) < n:
            top = g.bit_length() - 1
            out.append(self.bound - top)
            g ^= 1 << top
        return tuple(out)

    @cached_property
    def missing(self) -> tuple[int, ...]:
        """Every gap <= bound, increasing."""
        return tuple(_mask_bits(self.gaps, self.bound))


def term_from_polygonal(coeff: int, m: int) -> QuadTerm:
    """coeff * p_m as a QuadTerm (a = m-2, b normalized from -(m-4))."""
    if m < 3:
        raise ValueError("polygonal order must be >= 3")
    return QuadTerm(coeff, m - 2, -(m - 4))


# The library store: the widest mask folded for each tuple of family atoms,
# as (bound, mask), oldest key first; sum_value_mask drops the oldest keys
# past _MAX_MASKS after each fold.  A tuple whose mask is full at that bound,
# a universal sum, keeps (bound, None), so only the non-full entries hold
# bound/8 bytes each.
# It lives beside the SieveTable stores because library calls share prefixes
# too: the 200 seeded sums of the candidate-search benchmark have 800 prefix
# tuples at bound 30000, and 233 of them are already stored when asked.
# A SieveTable folds into a store of its own and leaves this one alone.
_masks: dict[tuple[tuple[int, int], ...], tuple[int, int | None]] = {}
_MAX_MASKS = 4096


def _fold(families: tuple[tuple[int, int], ...], bound: int, store: dict) -> int | None:
    """Top-aligned mask of the families' sumset within [0, bound], None when full.

    A tuple stored at this bound returns the stored mask, and one stored at a
    wider bound returns that mask shifted right to [0, bound]: no value is
    negative.  A tuple stored as full returns None.  A single family sets
    its values' bits in a bytearray of bound/8 bytes, as shifting {0} right
    by each value would build a (bound + 1)-bit int per value.  Otherwise
    the last family's values are folded onto the prefix mask by right
    shifts.  Every family reaches 0, so the extension of a prefix stored as
    full is full, with nothing folded.  The values come in increasing order
    and acc >> v sets no bit for a value below v, so once the low
    bound - u + 1 bits are all set, u the next value, the rest of the fold
    changes nothing; that is tested after 2, 4, 8, ... values, and a prefix
    that is full only once truncated to this bound stops at the first test.
    The result replaces the tuple's entry, as None when it is full.
    """
    stored = store.get(families)
    if stored is not None and stored[0] >= bound:
        widest, mask = stored
        return mask if mask is None or widest == bound else mask >> (widest - bound)
    i, j = families[-1]
    term = QuadTerm(1, i + j, i - j)
    if len(families) == 1:
        flags = bytearray(bound // 8 + 1)
        for v in term.values_upto(bound):
            bit = bound - v
            flags[bit >> 3] |= 1 << (bit & 7)
        mask = int.from_bytes(flags, "little")
    else:
        mask = acc = _fold(families[:-1], bound, store)
        if acc is not None:  # else the prefix is full, and so is mask
            values = term.values_upto(bound)
            mask = 0
            check = 2
            for n, v in enumerate(values, 1):
                mask |= acc >> v
                if n == check and n < len(values):
                    low = (1 << (bound - values[n] + 1)) - 1
                    if mask & low == low:
                        break
                    check *= 2
    if mask is not None and mask.bit_count() > bound:
        mask = None
    store[families] = (bound, mask)
    return mask


def sum_value_mask(s: PolygonalSum, bound: int, store: dict | None = None) -> int | None:
    """Top-aligned mask of the values of s in [0, bound], None when every
    integer there is one.

    Bit i is set when bound - i is a value of s.  A full mask is always
    None, so two masks at one bound are equal exactly when they compare
    equal.  Spellings with the same family keys (permuted, rescaled, or p6
    for p3) share one mask, and sums sharing a prefix of sum_families share
    its folds.  The store read and filled is the library store _masks, cut
    back to its _MAX_MASKS newest keys afterwards, unless a SieveTable
    passes its own.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    mask = _fold(sum_families(s), bound, _masks if store is None else store)
    while len(_masks) > _MAX_MASKS:
        del _masks[next(iter(_masks))]
    # A mask read off a wider bound can be full once truncated to this one.
    return None if mask is not None and mask.bit_count() > bound else mask


def _gaps(mask: int | None, bound: int) -> int:
    """The top-aligned mask of the integers in [0, bound] that mask lacks."""
    return 0 if mask is None else ((1 << (bound + 1)) - 1) ^ mask


def _least_difference(m1: int | None, m2: int | None, bound: int) -> int | None:
    """The least value in exactly one of two masks at bound, None when they
    are equal; a full mask is widened to all ones only against a gapped one."""
    if m1 == m2:
        return None
    diff = m1 ^ m2 if None not in (m1, m2) else _gaps(m1, bound) ^ _gaps(m2, bound)
    return bound + 1 - diff.bit_length()


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _mask_bits(mask: int, bound: int) -> list[int]:
    """The values bound - i of the set bits i of a top-aligned mask, increasing.

    Only the digits from the highest to the lowest set bit are scanned.
    """
    if not mask:
        return []
    low = (mask & -mask).bit_length() - 1
    flags = bin(mask >> low)[2:].encode().translate(_BIT_FLAGS)
    start = bound + 1 - mask.bit_length()
    return list(compress(range(start, start + len(flags)), flags))


def certify_universal(s: PolygonalSum, bound: int) -> UniversalityVerdict:
    """Sieve every integer in [0, bound]; the verdict keeps the gap mask."""
    return UniversalityVerdict(bound, _gaps(sum_value_mask(s, bound), bound))


def equivalent_upto(s1: PolygonalSum, s2: PolygonalSum, bound: int) -> tuple[bool, int | None]:
    """Set equality of the two value sets within [0, bound].

    Returns (True, None) or (False, w) with w the least witness present in
    exactly one of the sets.
    """
    witness = _least_difference(sum_value_mask(s1, bound), sum_value_mask(s2, bound), bound)
    return witness is None, witness


class SieveTable:
    """Universality and equality questions about sums, each sieved once.

    ask_universal and ask_equal collect questions, keyed by sum_families
    so that spellings of one sum share an answer; answer() sieves them all.
    Then universal(s, bound) is the first GAP_HEAD gaps of s up to bound,
    () when s is universal there, and equal(s1, s2, bound) the least value
    in exactly one of the two value sets, None when they agree.  Reading a
    question that was not asked raises KeyError; nothing is folded then.

    answer() walks the trie of the asked family tuples and their prefixes
    in sorted order, which is depth first.  Each node is folded once, into
    this table's own store, at the widest bound asked of it or of any tuple
    below it, so its prefix is already stored and every lower bound is read
    by truncation.  Right after the fold of its last tuple, a question reads
    the mask of each of its sums from that store through sum_value_mask,
    None when full, and keeps only its compact answer.  A node's entry is
    dropped once its extensions are folded and its questions answered, so
    only the current path and the tuples that wait for the other side of an
    equality question hold masks; once every question is answered, the
    store and the questions are empty.
    The library store _masks is neither read nor written.
    """

    GAP_HEAD = 5

    def __init__(self):
        self.questions: dict[tuple, tuple[PolygonalSum, ...]] = {}
        self.answers: dict[tuple, tuple[int, ...] | int | None] = {}
        self.store: dict[tuple[tuple[int, int], ...], tuple[int, int | None]] = {}

    @staticmethod
    def _equal_key(s1: PolygonalSum, s2: PolygonalSum, bound: int) -> tuple:
        return (*sorted((sum_families(s1), sum_families(s2))), bound)

    def _ask(self, key: tuple, sums: tuple[PolygonalSum, ...]) -> None:
        if key[-1] < 1:
            raise ValueError("bound must be >= 1")
        self.questions.setdefault(key, sums)

    def ask_universal(self, s: PolygonalSum, bound: int) -> None:
        self._ask((sum_families(s), bound), (s,))

    def ask_equal(self, s1: PolygonalSum, s2: PolygonalSum, bound: int) -> None:
        self._ask(self._equal_key(s1, s2, bound), (s1, s2))

    def universal(self, s: PolygonalSum, bound: int) -> tuple[int, ...]:
        return self.answers[(sum_families(s), bound)]

    def equal(self, s1: PolygonalSum, s2: PolygonalSum, bound: int) -> int | None:
        return self.answers[self._equal_key(s1, s2, bound)]

    def answer(self) -> None:
        widest: dict[tuple, int] = {}
        uses: Counter = Counter()  # extensions and questions not yet served
        due = defaultdict(list)  # questions by the tuple folded last of theirs
        for key in self.questions:
            *tuples, bound = key
            for families in set(tuples):
                uses[families] += 1
                # A prefix is folded at least as wide as any tuple below it.
                while families and widest.get(families, 0) < bound:
                    widest[families] = bound
                    families = families[:-1]
            due[max(tuples)].append(key)
        for node in widest:
            if len(node) > 1:
                uses[node[:-1]] += 1
        store = self.store

        def release(families):
            uses[families] -= 1
            if not uses[families]:
                del store[families]

        for node in sorted(widest):
            _fold(node, widest[node], store)
            if len(node) > 1:
                release(node[:-1])
            for key in due.pop(node, ()):
                *tuples, bound = key
                masks = [sum_value_mask(s, bound, store) for s in self.questions.pop(key)]
                if len(masks) == 1:
                    verdict = UniversalityVerdict(bound, _gaps(masks[0], bound))
                    self.answers[key] = verdict.head(self.GAP_HEAD)
                else:
                    self.answers[key] = _least_difference(*masks, bound)
                for families in set(tuples):
                    release(families)


def family_key(term: QuadTerm) -> tuple[int, int]:
    """The term's theta atom (i, j) = (c(a+b)/2, c(a-b)/2), 0 <= i <= j as b <= 0.

    The hexagonal (i, 3i) is written as the triangular (0, i), which has the
    same values, so sums written with p3 match terms from psi-type atoms.
    """
    c, a, b = term
    i, j = c * (a + b) // 2, c * (a - b) // 2
    return (0, i) if j == 3 * i else (i, j)


def _shape(key: tuple[int, int]) -> tuple[int, int, int]:
    """(A, |B|, g) such that the atom's values are g*x(Ax-|B|)/2, g = gcd(i, j)."""
    i, j = key
    g = gcd(i, j)
    return ((i + j) // g, (j - i) // g, g)


def _density_rank(key: tuple[int, int]) -> tuple[int, tuple[int, int, int]]:
    """Fewer values up to N for a larger rank; ties broken by the shape.

    The atom (i, j) has about m * sqrt(2N / (i + j)) values up to N, with m = 1
    when i is 0 or j (n and 1 - n, or n and -n, give one value) and m = 2
    otherwise, so (i + j) * 4 / m^2 orders the families by that count.
    """
    i, j = key
    return ((i + j) * (4 if i in (0, j) else 1), _shape(key))


@lru_cache(maxsize=4096)
def sum_families(s: PolygonalSum) -> tuple[tuple[int, int], ...]:
    """Family atoms, densest first; two sums match iff these tuples are equal.

    The order is canonical, and the sparsest family is folded last, where a
    fold most often stops early.
    """
    return tuple(sorted(map(family_key, s.terms), key=_density_rank))


def sum_label(s: PolygonalSum) -> str:
    """Label with terms sorted the way the value lists are usually quoted.

    A term of shape (A, |B|, g) reads 'g*pm' when (A, |B|) is the m-gonal
    (m - 2, |m - 4|), else 'g*x(Ax-|B|)/2'; m-gonal terms come first, by m.
    """
    shapes = (_shape(family_key(t)) for t in s.terms)
    return " + ".join(
        ("" if g == 1 else f"{g}*") + (f"x({a}x-{bb})/2" if other else f"p{a + 2}")
        for other, a, bb, g in sorted((bb != abs(a - 2), a, bb, g) for a, bb, g in shapes)
    )
