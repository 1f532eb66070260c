"""Verified k-dissections of theta products and the sums read off them.

A Decomposition rewrites a product of three or four atoms as a sum of
residue-class terms: term r carries shift r-1 and atoms whose exponents
are all multiples of the modulus k.  Once the series identity is checked,
each side maps mechanically to a polygonal sum (derive_sums: atom (i, j)
becomes the family x((i+j)x + i-j)/2, with the factor k divided out on the
right, and polygonal.family_key keys that family by the atom again), and
universality propagates along the exponent map e = k*m + (r-1):
the catalog certifies the lhs sum up to its bound and then each rhs sum up
to the largest m with k*m + (r-1) <= bound (derived_bounds).

verify_decomposition is the one decomposition check, and it checks the way
the paper proves: it replays a recorded proof, each step rewriting a
lemma's lhs to its rhs under q -> q^n in every term with an atom not
divisible by the modulus, until the result equals the rhs term for term.
A lemma that holds to order N still does after q -> q^n, after multiplying
by atoms and after shifting, and canonicalize is exact, so a replay whose
lemmas pass verify_identity, the one series check, at order N proves the
decomposition to order N.  A step that is no rewrite rule, or rewrites
nothing, fails the check.  With no proof, a failing lemma, a replay that
ends off the rhs or an rhs shift that reaches the order, it series-checks
the identity itself, the reference and the source of every failure witness.

Decomposition and VerifyOutcome are immutable namedtuples; the
Decomposition constructor, which _make and _replace call, checks the
structure described above.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .polygonal import PolygonalSum, QuadTerm
from .theta import (
    ProductTerm,
    ThetaAtom,
    ThetaExpression,
    canonicalize,
    expression_series,
)

class DecompositionError(ValueError):
    """Structural violation in a decomposition."""


class Decomposition(namedtuple("Decomposition", "lhs modulus rhs")):
    """lhs = sum of rhs terms, separated by exponent residue mod modulus."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, lhs: ProductTerm, modulus: int, rhs: tuple[ProductTerm, ...]):
        rhs = tuple(rhs)
        k = modulus
        if k < 2:
            raise DecompositionError("modulus must be >= 2")
        if lhs.multiplier != 1 or lhs.shift != 0:
            raise DecompositionError("lhs must be a bare product (multiplier 1, shift 0)")
        if len(lhs.atoms) not in (3, 4):
            raise DecompositionError("lhs must be a product of 3 or 4 atoms")
        if not rhs:
            raise DecompositionError("decomposition needs at least one rhs term")
        seen = set()
        for t in rhs:
            if len(t.atoms) != len(lhs.atoms):
                raise DecompositionError("rhs terms must match the lhs arity")
            if not 0 <= t.shift < k:
                raise DecompositionError(f"shift {t.shift} outside 0..{k - 1}")
            if t.shift in seen:
                raise DecompositionError(f"duplicate shift {t.shift}")
            seen.add(t.shift)
            for a in t.atoms:
                if a.i % k or a.j % k:
                    raise DecompositionError(
                        f"atom ({a.i}, {a.j}) exponents not divisible by {k}"
                    )
        return tuple.__new__(cls, (lhs, modulus, rhs))


class VerifyOutcome(
    namedtuple("VerifyOutcome", "ok exponent detail left right", defaults=(None, "", None, None))
):
    """A series check; a failure at an exponent keeps both coefficients there."""

    __slots__ = ()


@lru_cache(maxsize=256)
def verify_identity(
    lhs: ThetaExpression, rhs: ThetaExpression, order: int
) -> VerifyOutcome:
    """Exact comparison of the two expansions up to the given order.

    The one series check: identity rows, lemmas and decompositions all come
    here.  A failure keeps the least differing exponent and both coefficients.
    """
    worst = max((t.shift for t in lhs.terms + rhs.terms), default=0)
    if worst >= order:
        return VerifyOutcome(False, None, f"insufficient order {order} for shift {worst}")
    left, right = expression_series(lhs, order), expression_series(rhs, order)
    ok, diff = left.equal_upto(right, order)
    if ok:
        return VerifyOutcome(True, None, f"series equal to order {order}")
    e, a, b = diff
    return VerifyOutcome(False, e, f"first difference at q^{e}: {a} vs {b}", a, b)


def _series_check(d: Decomposition, order: int) -> VerifyOutcome:
    """verify_identity of lhs against the sum of the rhs terms, a failure worded per residue.

    The rhs terms live on distinct residues mod k, so one full comparison
    checks every per-residue identity and the vanishing of the lhs on
    residues no rhs term covers.
    """
    out = verify_identity(ThetaExpression((d.lhs,)), ThetaExpression(d.rhs), order)
    e = out.exponent
    if e is None:
        return out
    detail = f"residue {e % d.modulus}: coefficient {out.left} vs {out.right} at q^{e}"
    return out._replace(detail=detail)


@lru_cache(maxsize=256)
def verify_decomposition(d: Decomposition, order: int, proof: tuple = ()) -> VerifyOutcome:
    """d checked to order: replayed from a proof whose lemmas hold there, else by _series_check.

    proof holds (lhs, rhs, n) steps, lhs a ProductTerm and rhs a
    ThetaExpression, applied in order by _rewrite.
    """
    state = _merge([d.lhs])
    for step, (lhs, rhs, n) in enumerate(proof, start=1):
        rule = canonicalize(lhs)
        if rule.multiplier != 1 or rule.shift != 0:
            return VerifyOutcome(False, None, f"proof step {step}: lemma lhs is not a bare product")
        state = _rewrite(state, rule.atoms, rhs.terms, n, d.modulus)
        if state is None:
            return VerifyOutcome(False, None, f"proof step {step} rewrites no open term")
    derived = (
        proof
        and state == _merge(d.rhs)
        and max(t.shift for t in d.rhs) < order
        and all(verify_identity(ThetaExpression((lhs,)), rhs, order).ok for lhs, rhs, _n in proof)
    )
    if not derived:
        out = _series_check(d, order)
        if not out.ok:
            return out
    return VerifyOutcome(True, None, f"verified to order {order} (k={d.modulus})")


def _scaled(atoms: tuple[ThetaAtom, ...], n: int) -> tuple[ThetaAtom, ...]:
    return tuple(ThetaAtom(n * a.i, n * a.j) for a in atoms)


def _merge(terms) -> dict[tuple[int, tuple[ThetaAtom, ...]], int]:
    """Canonical (shift, atoms) -> multiplier, like terms added."""
    state: dict[tuple[int, tuple[ThetaAtom, ...]], int] = {}
    for t in terms:
        c = canonicalize(t)
        key = (c.shift, c.atoms)
        state[key] = state.get(key, 0) + c.multiplier
    return state


def _rewrite(state, lhs_atoms, rhs_terms, n: int, k: int):
    """Apply lhs -> rhs under q -> q^n to every open term containing the lhs;
    None when no open term contains it."""
    pattern = Counter(_scaled(lhs_atoms, n))
    out, hit = [], False
    for (shift, atoms), mult in state.items():
        have = Counter(atoms)
        if all(a.i % k == a.j % k == 0 for a in atoms) or pattern - have:
            out.append(ProductTerm(mult, shift, atoms))
            continue
        hit = True
        rest = tuple((have - pattern).elements())
        for t in rhs_terms:
            out.append(
                ProductTerm(
                    mult * t.multiplier, shift + n * t.shift, rest + _scaled(t.atoms, n)
                )
            )
    return _merge(out) if hit else None


@lru_cache(maxsize=256)
def derive_sums(d: Decomposition) -> tuple[PolygonalSum, tuple[PolygonalSum, ...]]:
    """The lhs sum and one sum per rhs term, read off the atoms.

    Multipliers play no role; rhs atom exponents are divided by the modulus.
    A catalog run reads each decomposition's sums several times: when it
    asks the sieve, in the row's check and in each 'via' that names it.
    """

    def read(atoms, k):
        terms = (QuadTerm(1, (a.i + a.j) // k, (a.i - a.j) // k) for a in atoms)
        return PolygonalSum(tuple(terms))

    return read(d.lhs.atoms, 1), tuple(read(t.atoms, d.modulus) for t in d.rhs)


def derived_bounds(d: Decomposition, bound: int) -> list[int]:
    """Per rhs term, the largest m with k*m + shift <= bound, at least 1."""
    return [max(1, (bound - t.shift) // d.modulus) for t in d.rhs]
