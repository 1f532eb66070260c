"""Exact truncated power series in q over the integers.

A Series is what a theta expansion returns and what a series check
compares: one coefficient per exponent 0..order-1, with no meaning beyond
that.  Coefficients are Python ints, so they are exact at any magnitude,
and must be integers (operator.index): a float or a string is a
TypeError, never rounded or parsed.  A Series is built, read by exponent,
compared with equal_upto for its first differing exponent, and compared
and hashed whole; it has no arithmetic.  theta.expression_series fills a
product's coefficients straight from its atoms' exponent lists; the dense
arithmetic on coefficient lists it is tested against is in tests/oracles.py.
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

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def __getitem__(self, e: int) -> int:
        return self._coeffs[e]

    def nonzero(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs for the nonzero coefficients."""
        return [(e, c) for e, c in enumerate(self._coeffs) if c]

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
