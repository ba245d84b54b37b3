"""Exact combinatorial analysis of hyperplane arrangements in real projective 3-space.

Arrangements are modelled centrally: n hyperplanes through the origin of K^4,
where K is either the rationals or the quadratic field generated by the golden
ratio tau = (1 + sqrt(5))/2.  Every quantity in this package (intersection
lattice, h/t/f-vectors, characteristic polynomial, chamber geometry, all
inequality checks) is computed in exact arithmetic; floating point is never
consulted for a decision.
"""

from .scalars import Field, QuadScalar, Rational, TAU, sign
from .arrangement import (
    Arrangement,
    DuplicateHyperplane,
    Flat,
    MixedField,
    NotEssential,
    Rank3Arrangement,
    ZeroNormal,
)
from .invariants import (
    ArrangementData,
    CharPoly,
    CheckResult,
    NegativeRadicand,
    ReducedCubic,
    char_poly_formula,
    char_poly_moebius,
    f_vector,
    real_roots_test,
)
from .chambers import (
    Chamber,
    ChamberLimitReached,
    CoxeterDiagram,
    EmptyChamber,
    GenericPointNotFound,
    coxeter_diagram,
    enumerate_chambers,
    is_irreducible_diagrams,
    is_simplicial,
    is_simply_laced,
    walls,
)
from .catalogue import (
    CatalogueEntry,
    ClosureOverflow,
    NoVectorsAvailable,
    RootSystemSpec,
    UnknownLabel,
    builtin,
    catalogue_rows,
    reflection_closure,
    verify_row,
)
from .fileformat import ArrangementParseError, emit_arrangement, parse_arrangement

__all__ = [
    "Arrangement",
    "ArrangementData",
    "ArrangementParseError",
    "CatalogueEntry",
    "Chamber",
    "ChamberLimitReached",
    "CharPoly",
    "CheckResult",
    "ClosureOverflow",
    "CoxeterDiagram",
    "DuplicateHyperplane",
    "EmptyChamber",
    "Field",
    "Flat",
    "GenericPointNotFound",
    "MixedField",
    "NegativeRadicand",
    "NoVectorsAvailable",
    "NotEssential",
    "QuadScalar",
    "Rank3Arrangement",
    "Rational",
    "ReducedCubic",
    "RootSystemSpec",
    "TAU",
    "UnknownLabel",
    "ZeroNormal",
    "builtin",
    "catalogue_rows",
    "char_poly_formula",
    "char_poly_moebius",
    "coxeter_diagram",
    "emit_arrangement",
    "enumerate_chambers",
    "f_vector",
    "is_irreducible_diagrams",
    "is_simplicial",
    "is_simply_laced",
    "parse_arrangement",
    "real_roots_test",
    "reflection_closure",
    "sign",
    "verify_row",
    "walls",
]
