"""Structured analysis reports and their exact JSON encoding.

All numbers in emitted JSON are exact: integers appear as JSON numbers while
they fit the 53-bit safe range, anything larger and every non-integer
rational is emitted as a string such as "4913/27".  Key order is fixed at
construction, so identical inputs yield byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .invariants import (
    ArrangementData,
    CheckOutcome,
    CheckResult,
    char_poly_formula,
    char_poly_moebius,
    run_data_checks,
)

if TYPE_CHECKING:
    from .arrangement import Arrangement

_SAFE = 2**53 - 1


def encode_exact(value):
    """Exact JSON-safe representation of a value (recursing into containers)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value if -_SAFE <= value <= _SAFE else str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return encode_exact(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): encode_exact(v) for k, v in sorted(value.items())}
    if type(value) in (list, tuple):  # not the NamedTuple records
        return [encode_exact(v) for v in value]
    raise TypeError(f"cannot encode {value!r} exactly")


def encode_check(result: CheckResult) -> dict:
    return {
        "holds": result.holds,
        "lhs": encode_exact(result.lhs),
        "rhs": encode_exact(result.rhs),
        "tight": result.tight,
    }


def encode_outcome(outcome: CheckOutcome) -> dict:
    doc = {"name": outcome.name, "status": outcome.status}
    if outcome.result is not None:
        doc.update(encode_check(outcome.result))
    if outcome.note:
        doc["note"] = outcome.note
    return doc


def weight_map(vector: dict) -> dict:
    return {str(k): v for k, v in sorted(vector.items())}


def build_report(
    arrangement: Arrangement,
    *,
    with_chambers: bool = True,
    max_chambers: int | None = None,
) -> dict:
    """Full invariant report for one arrangement.

    Chamber-derived verdicts (simpliciality, simply-lacedness, diagram
    irreducibility) come from the chamber engine when enumeration runs, and
    from the counting criteria otherwise.  The chamber engine
    (`arr4.chambers`) is imported only when enumeration runs.

    The Moebius polynomial is always compared with the closed form in n, h
    and f3, but with f3 = chi(-1)/2 = n - c1 and h = c2 both taken from the
    lattice that comparison is an identity: it checks the two expansions
    against each other, not the lattice.  When enumeration completes, the
    closed form is evaluated again with the chamber count in place of f3,
    which compares Zaslavsky's count from the lattice with the chambers
    found, and the chambers' walls are counted against 2 f2: every 2-cell
    is a facet of exactly two chambers.
    """
    data = ArrangementData.from_arrangement(arrangement)
    chi = char_poly_moebius(arrangement)
    chi_formula = char_poly_formula(data.n, data.h_total, data.f[3])
    if chi != chi_formula:
        raise AssertionError(
            "lattice and closed-form characteristic polynomials disagree"
        )

    chambers_doc = None
    simplicial = data.f[2] == 2 * data.f[3]
    simply_laced = data.simply_laced
    partition = arrangement.reducible_partition()
    irreducible = partition is None
    if with_chambers:
        from .chambers import (
            ChamberLimitReached,
            chamber_diagrams,
            enumerate_chambers,
            is_irreducible_diagrams,
            is_simplicial,
            is_simply_laced,
        )

        try:
            chambers = enumerate_chambers(arrangement, limit=max_chambers)
        except ChamberLimitReached as stop:
            chambers_doc = {"complete": False, "count_at_stop": stop.count}
        else:
            if char_poly_formula(data.n, data.h_total, len(chambers)) != chi:
                raise AssertionError(
                    f"{len(chambers)} chambers enumerated, but the lattice "
                    f"gives f3 = {data.f[3]}"
                )
            # each 2-cell bounds exactly two chambers, and each wall of a
            # chamber is one of its facets
            walls = sum(len(chamber.walls) for chamber in chambers)
            if walls != 2 * data.f[2]:
                raise AssertionError(
                    f"the chambers have {walls} walls, but the vertex tallies "
                    f"give f2 = {data.f[2]}"
                )
            diagrams = chamber_diagrams(arrangement)
            tally: dict[str, int] = {}
            for diagram in diagrams:
                key = diagram.canonical_key()
                tally[key] = tally.get(key, 0) + 1
            simplicial = is_simplicial(arrangement)
            simply_laced = is_simply_laced(arrangement)
            # A disconnected chamber diagram implies a product structure only
            # for simplicial arrangements, so the routes are compared there.
            if simplicial and is_irreducible_diagrams(arrangement) != irreducible:
                raise AssertionError(
                    "diagram and span routes disagree about irreducibility"
                )
            chambers_doc = {
                "complete": True,
                "count": len(chambers),
                "diagram_types": dict(sorted(tally.items())),
            }

    checks = run_data_checks(data, simplicial=simplicial, irreducible=irreducible)
    by_name = {o.name: o for o in checks}

    def check_doc(name: str):
        outcome = by_name.get(name)
        return encode_outcome(outcome) if outcome else None

    report = {
        "n": data.n,
        "field": arrangement.field.value,
        "h_vector": weight_map(data.h),
        "t_vector": weight_map(data.t),
        "f_vector": list(data.f),
        "char_poly": [encode_exact(c) for c in chi.coefficients],
        "char_poly_integer_roots": list(chi.integer_roots()),
        "real_rooted": by_name["cubic_discriminant"].result.holds,
        "relations": {
            "line_weight_cap": check_doc("line_weight_cap"),
            "chamber_count_cap": check_doc("chamber_count_cap"),
            "chamber_count_floor": check_doc("chamber_count_floor"),
            "cubic_discriminant": check_doc("cubic_discriminant"),
        },
        "simplicial": simplicial,
        "simply_laced": simply_laced,
        "irreducible": irreducible,
        "multiplicity": data.m,
        "double_line_dominance": check_doc("double_line_dominance"),
        "simplicial_identities": {
            "vertex_sum_identity": check_doc("vertex_sum_identity"),
            "vertex_sum_cap": check_doc("vertex_sum_cap"),
            "vertex_sum_floor": check_doc("vertex_sum_floor"),
            "vertex_sum_cube_cap": check_doc("vertex_sum_cube_cap"),
            "edge_supply": check_doc("edge_supply"),
        },
        "bounds": {
            "chamber_cube_cap": check_doc("chamber_cube_cap"),
            "heavy_line_quota": check_doc("heavy_line_quota"),
            "cube_growth_conjecture": check_doc("cube_growth_conjecture"),
            "multiplicity_cap": check_doc("multiplicity_cap"),
            "multiplicity_floor": check_doc("multiplicity_floor"),
            "simply_laced": {
                name: check_doc(name)
                for name in (
                    "sl_double_line_cap",
                    "sl_triple_line_floor",
                    "sl_chamber_cap",
                    "sl_chamber_floor",
                    "sl_size_cap",
                    "sl_size_cap_gs",
                )
            },
        },
        "chambers": chambers_doc,
    }
    return report


def row_report_doc(report) -> dict:
    """JSON document for a catalogue RowReport."""
    return {
        "label": report.label,
        "has_vectors": report.has_vectors,
        "passed": report.passed,
        "geometry": [encode_outcome(o) for o in report.geometry],
        "checks": [encode_outcome(o) for o in report.checks],
    }


def to_json(document) -> str:
    """Deterministic JSON with a trailing newline."""
    return json.dumps(document, indent=2, ensure_ascii=True) + "\n"


def render_text(document: dict) -> str:
    """Plain-text rendering of a report, one key per line, nested dicts
    indented under their key."""
    lines = []

    def emit(mapping, depth):
        for key, value in mapping.items():
            if isinstance(value, dict):
                lines.append(f"{'  ' * depth}{key}:")
                emit(value, depth + 1)
            else:
                lines.append(f"{'  ' * depth}{key}: {value}")

    emit(document, 0)
    return "\n".join(lines) + "\n"
