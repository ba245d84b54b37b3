"""Whole-pipeline identities on seeded random arrangements of both fields.

The draws come from `helpers.random_arrangements`: small coordinates, so
most are non-simplicial and some are reducible.  The lattice tallies are also
compared on larger draws from a tiny coordinate pool, whose lines and
vertices are heavy.  The wall routes are compared in `test_chambers.py`;
these are the remaining checks.
"""

import random
from math import comb

import pytest

from arr4 import (
    TAU,
    Arrangement,
    char_poly_moebius,
    emit_arrangement,
    enumerate_chambers,
    f_vector,
    parse_arrangement,
)
from arr4.invariants import _mu_data
from arr4.report import build_report, to_json
from arr4.scalars import Field
from helpers import canonicalize_vector, random_arrangements, reference_mu_data

_DRAWS = {Field.RATIONAL: 12, Field.QUADRATIC_TAU: 8}


def _draws(field):
    return random_arrangements(field, _DRAWS[field], seed=20240618)


def _heavy_draws(field, count=4, seed=20240619):
    """10-16 distinct hyperplanes with coordinates in {0, +-1} (and +-tau)."""
    rng = random.Random(seed)
    pool = (0, 1, -1) if field is Field.RATIONAL else (0, 1, -1, TAU, -TAU)
    out = []
    while len(out) < count:
        size = rng.randint(10, 16)
        normals = {}
        while len(normals) < size:
            vec = tuple(rng.choice(pool) for _ in range(4))
            if any(vec):
                normals.setdefault(canonicalize_vector(vec, field), vec)
        try:
            out.append(Arrangement(list(normals.values()), field))
        except ValueError:  # non-spanning normals
            continue
    return out


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_vertex_tallies_match_reference_scan(field):
    """Moebius values and incident-line counts from the vertex pass equal
    the vertex-by-line scan."""
    heavy = 0
    for arr in _draws(field) + _heavy_draws(field):
        assert _mu_data(arr) == reference_mu_data(arr)
        heavy += max(v.weight for v in arr.vertices()) >= 6
    assert heavy  # the draws do reach heavy vertices


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_f2_formula_matches_restriction_counts(field):
    """f2 from the vertex tallies equals the restrictions' chamber counts."""
    for arr in _draws(field) + _heavy_draws(field):
        assert f_vector(arr)[2] == sum(chambers for _, chambers in arr.restriction_counts())


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_euler_relation_and_pair_count(field):
    for arr in _draws(field):
        f0, f1, f2, f3 = f_vector(arr)
        assert f0 - f1 + f2 - f3 == 0
        assert f0 == len(arr.vertices())
        assert 2 * f3 == char_poly_moebius(arr)(-1)
        assert len(enumerate_chambers(arr)) == f3
        assert sum(comb(flat.weight, 2) for flat in arr.lines()) == comb(arr.n, 2)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_restriction_sum_identity(field):
    """Sum of restriction sizes minus the line count is sum (i - 1) h_i."""
    for arr in _draws(field):
        lines = arr.lines()
        sizes = [size for size, _ in arr.restriction_counts()]
        h_total = sum((i - 1) * c for i, c in arr.h_vector().items())
        assert sum(sizes) - len(lines) == h_total
        for h, size in enumerate(sizes):
            assert size == sum(1 for flat in lines if flat.mask >> h & 1)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_parse_emit_parse_round_trip(field):
    for arr in _draws(field):
        text = emit_arrangement(arr)
        again = parse_arrangement(text)
        assert again.field is arr.field
        assert set(again.normals) == set(arr.normals)
        assert emit_arrangement(again) == text
        assert parse_arrangement(emit_arrangement(again)).normals == again.normals


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_build_report_is_total_and_deterministic(field):
    for arr in _draws(field):
        for with_chambers in (True, False):
            first = to_json(build_report(arr, with_chambers=with_chambers))
            fresh = Arrangement(arr.normals, arr.field)
            assert to_json(build_report(fresh, with_chambers=with_chambers)) == first
