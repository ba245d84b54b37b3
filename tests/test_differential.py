"""Whole-pipeline identities on seeded random arrangements of both fields.

The draws come from `helpers.random_arrangements`: small coordinates, so
most are non-simplicial and some are reducible.  The chamber-count and wall
routes are compared in `test_chambers.py`; these are the remaining checks.
"""

from math import comb

import pytest

from arr4 import Arrangement, char_poly_moebius, emit_arrangement, f_vector, parse_arrangement
from arr4.report import build_report, to_json
from arr4.scalars import Field
from helpers import random_arrangements

_DRAWS = {Field.RATIONAL: 12, Field.QUADRATIC_TAU: 8}


def _draws(field):
    return random_arrangements(field, _DRAWS[field], seed=20240618)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_euler_relation_and_pair_count(field):
    for arr in _draws(field):
        f0, f1, f2, f3 = f_vector(arr)
        assert f0 - f1 + f2 - f3 == 0
        assert f0 == len(arr.vertices())
        assert 2 * f3 == char_poly_moebius(arr)(-1)
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
