"""Exact q-series arithmetic, theta identities, and universal polygonal sums.

The package has three layers: Series (exact truncated integer power
series), symbolic theta atoms/expressions that evaluate into Series, and
polygonal value families with bounded universality certification.  A
curated catalog ties them together: every stored identity is re-verified,
through the one series check transfer.verify_identity or a derivation from
identities it has checked, and every stored sum is re-certified by sieve,
with a CLI (``thetasums``) on top.
"""

from .polygonal import (
    PolygonalSum,
    QuadTerm,
    UniversalityVerdict,
    certify_universal,
    equivalent_upto,
    term_from_polygonal,
)
from .series import Series
from .theta import (
    ProductTerm,
    ThetaAtom,
    ThetaExpression,
    atom_series,
    canonicalize,
    dissect,
    expression_series,
    product_split,
)
from .transfer import (
    Decomposition,
    derive_sums,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "PolygonalSum",
    "ProductTerm",
    "QuadTerm",
    "Series",
    "ThetaAtom",
    "ThetaExpression",
    "UniversalityVerdict",
    "atom_series",
    "canonicalize",
    "certify_universal",
    "derive_sums",
    "dissect",
    "equivalent_upto",
    "expression_series",
    "product_split",
    "term_from_polygonal",
    "verify_decomposition",
]
