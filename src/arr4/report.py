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


def encode_outcome(result: CheckResult) -> dict:
    """JSON document of one check: a skipped check carries no comparison."""
    doc = {"name": result.name, "status": result.status}
    if result.holds is not None:
        doc["holds"] = result.holds
        doc["lhs"] = encode_exact(result.lhs)
        doc["rhs"] = encode_exact(result.rhs)
        doc["tight"] = result.tight
    if result.note:
        doc["note"] = result.note
    return doc


def build_report(
    arrangement: Arrangement,
    *,
    with_chambers: bool = True,
    max_chambers: int | None = None,
) -> dict:
    """Full invariant report for one arrangement.

    Simpliciality is the counting verdict f2 = 2 f3.  Simply-lacedness and
    diagram irreducibility come from the chamber engine when enumeration
    runs, and from the counting criteria otherwise.  The chamber engine
    (`arr4.chambers`) is imported only when enumeration runs.

    The Moebius polynomial is always compared with the closed form in n, h
    and f3, but with f3 = chi(-1)/2 = n - c1 and h = c2 both taken from the
    lattice that comparison is an identity: it checks the two expansions
    against each other, not the lattice.  When enumeration completes, the
    chamber count is compared with f3, Zaslavsky's count from the lattice
    (the closed form equals chi and is injective in f3, so evaluating it at
    the chamber count would check the same), and the chambers' walls are
    counted against 2 f2: every 2-cell is a facet of exactly two chambers.
    Then the chamber engine's simpliciality (every chamber has exactly 4
    walls) is compared with f2 = 2 f3: a chamber of an essential
    arrangement is a pointed cone in R^4 and has at least 4 walls, so with
    2 f2 walls in all, every chamber has exactly 4 precisely when f2 = 2 f3.
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
            diagram_shapes,
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
            if len(chambers) != data.f[3]:
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
            tally: dict[str, int] = {}
            for _, label, _ in diagram_shapes(arrangement):
                tally[label] = tally.get(label, 0) + 1
            if is_simplicial(arrangement) != simplicial:
                raise AssertionError(
                    "wall and facet counting routes disagree about simpliciality"
                )
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
    by_name = {result.name: result for result in checks}

    def check_doc(name: str):
        result = by_name.get(name)
        return encode_outcome(result) if result else None

    def section(*names: str) -> dict:
        return {name: check_doc(name) for name in names}

    return {
        "n": data.n,
        "field": arrangement.field.value,
        "h_vector": encode_exact(data.h),
        "t_vector": encode_exact(data.t),
        "f_vector": list(data.f),
        "char_poly": encode_exact(chi.coefficients),
        "char_poly_integer_roots": list(chi.integer_roots()),
        "real_rooted": by_name["cubic_discriminant"].holds,
        "relations": section(
            "line_weight_cap", "chamber_count_cap", "chamber_count_floor",
            "cubic_discriminant",
        ),
        "simplicial": simplicial,
        "simply_laced": simply_laced,
        "irreducible": irreducible,
        "multiplicity": data.m,
        "double_line_dominance": check_doc("double_line_dominance"),
        "simplicial_identities": section(
            "vertex_sum_identity", "vertex_sum_cap", "vertex_sum_floor",
            "vertex_sum_cube_cap", "edge_supply",
        ),
        "bounds": {
            **section(
                "chamber_cube_cap", "heavy_line_quota", "cube_growth_conjecture",
                "multiplicity_cap", "multiplicity_floor",
            ),
            "simply_laced": section(
                "sl_double_line_cap", "sl_triple_line_floor", "sl_chamber_cap",
                "sl_chamber_floor", "sl_size_cap", "sl_size_cap_gs",
            ),
        },
        "chambers": chambers_doc,
    }


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
