"""Exact combinatorial analysis of hyperplane arrangements in real projective 3-space.

Arrangements are modelled centrally: n hyperplanes through the origin of K^4,
where K is either the rationals or the quadratic field generated by the golden
ratio tau = (1 + sqrt(5))/2.  Every quantity in this package (intersection
lattice, h/t/f-vectors, characteristic polynomial, chamber geometry, all
inequality checks) is computed in exact arithmetic; floating point is never
consulted for a decision.

Names load on first use: `import arr4` imports no submodule, and reading a
public name (`arr4.f_vector`, `from arr4 import f_vector`) or a submodule
(`arr4.chambers`) imports its home module then (PEP 562), so a command
compiles only the modules it runs.
"""

from importlib import import_module

#: each home module and the public names it defines
_PUBLIC = {
    "scalars": ("Field", "QuadScalar", "Rational", "TAU", "sign"),
    "arrangement": (
        "Arrangement",
        "DuplicateHyperplane",
        "Flat",
        "MixedField",
        "NotEssential",
        "Rank3Arrangement",
        "ZeroNormal",
    ),
    "invariants": (
        "ArrangementData",
        "CharPoly",
        "CheckResult",
        "NegativeRadicand",
        "ReducedCubic",
        "char_poly_formula",
        "char_poly_moebius",
        "f_vector",
        "real_roots_test",
    ),
    "chambers": (
        "Chamber",
        "ChamberLimitReached",
        "CoxeterDiagram",
        "EmptyChamber",
        "GenericPointNotFound",
        "coxeter_diagram",
        "enumerate_chambers",
        "is_irreducible_diagrams",
        "is_simplicial",
        "is_simply_laced",
        "walls",
    ),
    "catalogue": (
        "CatalogueEntry",
        "NoVectorsAvailable",
        "UnknownLabel",
        "builtin",
        "catalogue_rows",
        "verify_row",
    ),
    "constructions": ("ClosureOverflow", "RootSystemSpec", "reflection_closure"),
    "fileformat": ("ArrangementParseError", "emit_arrangement", "parse_arrangement"),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"linalg", "report", "cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
