"""Symbolic two-parameter theta atoms and weighted sums of their products.

An atom (i, j) stands for the series sum over all integers n of
q^(i*n(n+1)/2 + j*n(n-1)/2), the formal two-parameter theta function with
arguments q^i, q^j.  The named shapes are

    phi(q^n) = (n, n)      exponents n*x^2
    psi(q^n) = (n, 3n)     exponents n*x(2x-1)  (triangular values)
    X(q^n)   = (n, 2n)     exponents n*x(3x-1)/2  (generalized pentagonal)
    Y(q^n)   = (n, 5n)     exponents n*x(3x-2)  (generalized octagonal)

Expressions are formal integer-weighted sums of q-power-shifted products
of atoms; they evaluate exactly into Series.  expression_series expands
them straight from the atoms' exponent lists (atom_exponents) into one
coefficient list, the one route to a theta product; atom_series is that
expansion of one atom.  The two rewriting rules used throughout are
symmetry (i, j) = (j, i) and the unit-argument doubling (0, j) -> 2 * (j, 3j).

Atoms, product terms and expressions are immutable namedtuples whose
constructors validate (_make, and so _replace, call the constructor): they
hash, compare and sort as the plain tuple of their fields, so
ThetaAtom(1, 3) == (1, 3).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, groupby
from math import isqrt

from .series import Series


class ThetaError(ValueError):
    """Structural misuse of a theta atom or expression."""


class UnsupportedDissection(ThetaError):
    """Dissection would produce a negative atom exponent."""


class UnsupportedSplit(ThetaError):
    """Product split would produce a negative atom exponent."""


class ThetaAtom(namedtuple("ThetaAtom", "i j")):
    """One theta factor with exponent pair (i, j); denotes f(q^i, q^j)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, i: int, j: int):
        if i < 0 or j < 0:
            raise ThetaError(f"negative atom exponent in ({i}, {j})")
        if i + j < 1:
            raise ThetaError("atom (0, 0) is not a theta function")
        return tuple.__new__(cls, (i, j))


class ProductTerm(namedtuple("ProductTerm", "multiplier shift atoms")):
    """multiplier * q^shift * product of atoms."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, multiplier: int, shift: int, atoms: tuple[ThetaAtom, ...]):
        if multiplier < 1:
            raise ThetaError("term multiplier must be >= 1")
        if shift < 0:
            raise ThetaError("term shift must be nonnegative")
        atoms = tuple(atoms)
        if not atoms:
            raise ThetaError("term needs at least one atom")
        return tuple.__new__(cls, (multiplier, shift, atoms))


class ThetaExpression(namedtuple("ThetaExpression", "terms")):
    """Formal sum of product terms; the empty sum is zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, terms: tuple[ProductTerm, ...] = ()):
        return tuple.__new__(cls, (tuple(terms),))


def canonicalize(term: ProductTerm) -> ProductTerm:
    """Rewrite every atom to canonical form 1 <= i <= j and sort the list.

    Symmetry lets (i, j) with i > j swap; an atom with a zero exponent is
    the unit-argument case and rewrites to (j, 3j) while doubling the term
    multiplier.  Idempotent on canonical terms.
    """
    mult = term.multiplier
    atoms = []
    for a in term.atoms:
        i, j = a.i, a.j
        if i > j:
            i, j = j, i
        if i == 0:
            mult *= 2
            i, j = j, 3 * j
        atoms.append(ThetaAtom(i, j))
    atoms.sort()
    return ProductTerm(mult, term.shift, tuple(atoms))


def _last_index(i: int, j: int, limit: int) -> int:
    """Largest n >= 0 with i*n(n+1)/2 + j*n(n-1)/2 <= limit, for limit >= 0.

    The exponent is ((i+j)n^2 + (i-j)n)/2, so n is the floor of the larger
    root of (i+j)x^2 + (i-j)x = 2*limit.  Taking isqrt of the discriminant
    loses nothing: with d and 2(i+j) integers, floor((floor(r) - d) / m)
    equals floor((r - d) / m).
    """
    s, d = i + j, i - j
    return (isqrt(d * d + 8 * s * limit) - d) // (2 * s)


def atom_exponents(i: int, j: int, limit: int) -> list[int]:
    """Every exponent i*n(n+1)/2 + j*n(n-1)/2 <= limit, n over all integers.

    Listed with multiplicity, for n = 0, 1, 2, ... and then n = -1, -2, ...;
    each branch is nondecreasing, so it ends at its last n, found in closed
    form.  Going from n to n + 1 adds i(n+1) + jn, and going from -m to
    -(m+1) adds j(m+1) + im: both steps grow by i + j each time, so each
    branch is a running sum of a range.
    """
    if limit < 0:
        return []
    s = i + j
    up, down = _last_index(i, j, limit), _last_index(j, i, limit)
    out = list(accumulate(range(i, i + s * up, s), initial=0))
    out += accumulate(range(j, j + s * down, s))
    return out


def atom_series(atom: ThetaAtom, order: int) -> Series:
    """Exact expansion of the atom, truncated at order."""
    return expression_series(ThetaExpression((ProductTerm(1, 0, (atom,)),)), order)


def expression_series(expr: ThetaExpression, order: int) -> Series:
    """Exact expansion of the full formal sum, truncated at order.

    Every term adds into one coefficient list.  Each atom of a term is its
    sorted exponent list, cut where the term's shift reaches the order.
    All lists but the longest fold into (exponent, count) pairs, the
    multiplier included; those pairs are then spread over the longest
    list at the shift.
    """
    if order < 1:
        raise ValueError("series order must be positive")
    out = [0] * order
    for term in expr.terms:
        limit = order - 1 - term.shift
        if limit < 0:
            continue
        lists = sorted(
            (sorted(atom_exponents(a.i, a.j, limit)) for a in term.atoms), key=len
        )
        longest = lists.pop()
        m = term.multiplier
        pairs = [(0, m)]
        if lists:
            pairs = [(e, m * len(list(run))) for e, run in groupby(lists[0])]
        for exponents in lists[1:]:
            coeffs = [0] * (limit + 1)
            _scatter(coeffs, 0, pairs, exponents, limit)
            pairs = [(e, c) for e, c in enumerate(coeffs) if c]
        _scatter(out, term.shift, pairs, longest, limit)
    return Series._wrap(out)


def _scatter(out: list[int], at: int, pairs, exponents: list[int], limit: int) -> None:
    """Add c at out[at + e + x] for each pair (e, c) and each x of the
    sorted exponents with e + x <= limit."""
    for e, c in pairs:
        start, cut = at + e, limit - e
        for x in exponents:
            if x > cut:
                break
            out[start + x] += c


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def dissect(atom: ThetaAtom, n: int) -> ThetaExpression:
    """Split an atom by residue classes of the exponent mod a derived step.

    Term r (0 <= r < n) carries shift i*r(r+1)/2 + j*r(r-1)/2 and a single
    atom whose exponents come from the quotient structure of the two-sided
    series; the returned expression expands to the same Series as the
    input atom at every order.  Raises UnsupportedDissection when a derived
    exponent would be negative (for canonical atoms that happens for every
    n >= 3; only n = 2 splits mechanically).
    """
    if n < 2:
        raise ValueError("dissection needs n >= 2")
    i, j = atom.i, atom.j
    terms = []
    for r in range(n):
        shift = i * _tri(r) + j * _tri(r - 1)
        first = i * (_tri(n + r) - _tri(r)) + j * (_tri(n + r - 1) - _tri(r - 1))
        second = i * (_tri(n - r - 1) - _tri(r)) + j * (_tri(n - r) - _tri(r - 1))
        if first < 0 or second < 0:
            raise UnsupportedDissection(
                f"dissection of ({i}, {j}) by {n} hits a negative exponent at r={r}"
            )
        terms.append(canonicalize(ProductTerm(1, shift, (ThetaAtom(first, second),))))
    return ThetaExpression(tuple(terms))


def product_split(a1: ThetaAtom, a2: ThetaAtom) -> ThetaExpression:
    """Split a product of two atoms with equal exponent sums into two terms.

    Requires i1 + j1 == i2 + j2 (the condition that both atoms share the
    same base q^(i+j)).  The result expands to atom_series(a1) times
    atom_series(a2) at every order.  Raises UnsupportedSplit when a
    derived exponent would be negative; argument order matters, so callers
    may need to swap the factors.
    """
    i1, j1, i2, j2 = a1.i, a1.j, a2.i, a2.j
    if i1 + j1 != i2 + j2:
        raise ThetaError(
            f"split requires matching exponent sums, got {i1 + j1} and {i2 + j2}"
        )
    t1 = ProductTerm(1, 0, (ThetaAtom(i1 + i2, j1 + j2), ThetaAtom(i1 + j2, j1 + i2)))
    u1, u2 = j1 - i2, j1 - j2
    if u1 < 0 or u2 < 0:
        raise UnsupportedSplit(
            f"split of ({i1},{j1}) * ({i2},{j2}) hits a negative exponent"
        )
    t2 = ProductTerm(
        1,
        i1,
        (ThetaAtom(u1, i1 + 2 * i2 + j2), ThetaAtom(u2, i1 + i2 + 2 * j2)),
    )
    return ThetaExpression((canonicalize(t1), canonicalize(t2)))
