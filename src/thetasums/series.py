"""Exact truncated power series in q over the integers.

Every other module evaluates against this substrate.  A Series stores one
coefficient per exponent 0..order-1 and carries no meaning beyond that;
binary operations truncate to the smaller order so stale high coefficients
never propagate.  Coefficients are Python ints, so arithmetic is exact at
any magnitude (overflow cannot occur silently).  Coefficients and scale
factors must be integers (operator.index): a float or a string is a
TypeError, never rounded or parsed.  Each operation has one name (add,
scale, mul, shift, equal_upto) and no operator spelling; a Series compares
with == and is indexed by exponent.
"""

from __future__ import annotations

from operator import index


class Series:
    """Immutable truncated power series with exact integer coefficients."""

    __slots__ = ("_coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [index(c) for c in coeffs]
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("series order must be positive")
        if len(coeffs) < order:
            coeffs.extend([0] * (order - len(coeffs)))
        elif len(coeffs) > order:
            del coeffs[order:]
        self._coeffs = coeffs
        self.order = order

    @classmethod
    def _wrap(cls, coeffs: list[int]) -> Series:
        # Internal fast path: takes ownership of an already-built list.
        s = object.__new__(cls)
        s._coeffs = coeffs
        s.order = len(coeffs)
        return s

    @classmethod
    def zero(cls, order: int) -> Series:
        if order < 1:
            raise ValueError("series order must be positive")
        return cls._wrap([0] * order)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def __getitem__(self, e: int) -> int:
        return self._coeffs[e]

    def nonzero(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs for the nonzero coefficients."""
        return [(e, c) for e, c in enumerate(self._coeffs) if c]

    def add(self, other: Series) -> Series:
        order = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series._wrap([a[e] + b[e] for e in range(order)])

    def scale(self, k: int) -> Series:
        k = index(k)
        if k == 1:
            return self
        return Series._wrap([k * c for c in self._coeffs])

    def mul(self, other: Series) -> Series:
        """Cauchy product truncated to the smaller order.

        Iterates nonzero terms only, outer loop over the sparser factor.
        This is library arithmetic and the test oracle's route to a theta
        product; the series check does not use it, since
        theta.expression_series expands products from exponent lists.
        """
        order = min(self.order, other.order)
        na = [(e, c) for e, c in enumerate(self._coeffs[:order]) if c]
        nb = [(e, c) for e, c in enumerate(other._coeffs[:order]) if c]
        if len(na) > len(nb):
            na, nb = nb, na
        out = [0] * order
        for ea, ca in na:
            limit = order - ea
            for eb, cb in nb:
                if eb >= limit:
                    break
                out[ea + eb] += ca * cb
        return Series._wrap(out)

    def shift(self, e: int) -> Series:
        """Multiply by q^e, keeping the original truncation order."""
        if e < 0:
            raise ValueError("shift must be nonnegative")
        if e == 0:
            return self
        if e >= self.order:
            return Series.zero(self.order)
        return Series._wrap([0] * e + self._coeffs[: self.order - e])

    def equal_upto(self, other: Series, n: int) -> tuple[bool, tuple[int, int, int] | None]:
        """Compare coefficients for all exponents < n.

        Returns (True, None) on agreement, else (False, (e, left, right))
        for the least disagreeing exponent e.  The prefixes are compared
        as lists first; only a mismatch is walked for its exponent.
        """
        if n > self.order or n > other.order:
            raise ValueError(f"comparison up to {n} exceeds a series order")
        a, b = self._coeffs, other._coeffs
        if a[:n] == b[:n]:
            return True, None
        e = next(e for e in range(n) if a[e] != b[e])
        return False, (e, a[e], b[e])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.order, tuple(self._coeffs)))

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{head}{tail}], order={self.order})"
