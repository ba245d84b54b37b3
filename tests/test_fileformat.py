from functools import cmp_to_key

import pytest

from arr4 import (
    Arrangement,
    ArrangementParseError,
    Field,
    QuadScalar,
    TAU,
    builtin,
    emit_arrangement,
    parse_arrangement,
    sign,
)
from helpers import compare_vectors, random_arrangements

BOOLEAN_FILE = """\
field: rational
# the four coordinate hyperplanes
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
"""


def test_parse_rational_file():
    arr = parse_arrangement(BOOLEAN_FILE)
    assert arr.n == 4 and arr.field is Field.RATIONAL
    assert arr.normals[0] == (1, 0, 0, 0)


def test_parse_handles_fractions_and_comments():
    text = "field: rational\n\n# comment\n1/2 -3/4 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 2\n"
    arr = parse_arrangement(text)
    assert arr.normals[0] == (2, -3, 0, 0)


def test_parse_quadratic_file():
    text = (
        "field: quadratic-tau\n"
        "1 0 0 0\n"
        "0+1*t 1 0 0\n"
        "0 1 0-1*t 1/2-3/2*t\n"
        "0 0 0 1\n"
    )
    arr = parse_arrangement(text)
    assert arr.field is Field.QUADRATIC_TAU
    assert arr.normals[1][0] == 1  # canonical: first nonzero scaled to 1


def test_round_trip_is_identity(boolean):
    text = emit_arrangement(boolean)
    again = parse_arrangement(text)
    assert again.normals == parse_arrangement(emit_arrangement(again)).normals
    assert emit_arrangement(again) == text


@pytest.mark.parametrize("label", ["A4", "D4", "A^3_1(27)"])
def test_round_trip_builtins(label):
    arr = builtin(label)
    text = emit_arrangement(arr)
    again = parse_arrangement(text)
    assert emit_arrangement(again) == text
    assert sorted(again.normals) == sorted(arr.normals)


def test_emission_is_sorted(boolean):
    lines = emit_arrangement(boolean).splitlines()
    assert lines[0] == "field: rational"
    assert lines[1:] == sorted(lines[1:], key=lambda s: [int(x) for x in s.split()])


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_emission_order_matches_reference(field):
    """Random draws in both fields list their normals in the order of the
    `compare_vectors` reference; the Q(tau) draws hold negative irrational
    entries."""
    draws = random_arrangements(field, 12, seed=22)
    entries = [x for arr in draws for vec in arr.normals for x in vec]
    assert any(sign(x) < 0 for x in entries)
    if field is Field.QUADRATIC_TAU:
        assert any(x.b and sign(x) < 0 for x in entries)
    for arr in draws:
        rows = sorted(arr.normals, key=cmp_to_key(compare_vectors))
        text = emit_arrangement(arr)
        assert text.splitlines()[1:] == [" ".join(map(str, vec)) for vec in rows]
        assert parse_arrangement(text).normals == tuple(rows)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ArrangementParseError) as err:
        parse_arrangement("field: rational\n1 0 0\n")
    assert err.value.lineno == 2
    with pytest.raises(ArrangementParseError):
        parse_arrangement("1 0 0 0\n")           # missing header
    with pytest.raises(ArrangementParseError):
        parse_arrangement("field: complex\n")    # unknown field
    with pytest.raises(ArrangementParseError):
        parse_arrangement("field: rational\n1 0 0 1.5\n")   # no floats
    with pytest.raises(ArrangementParseError):
        parse_arrangement("field: rational\n0+1*t 0 0 1\n")  # tau in a rational file
    with pytest.raises(ArrangementParseError):
        parse_arrangement("field: quadratic-tau\n1+t 0 0 1\n")  # b must be explicit
    with pytest.raises(ArrangementParseError):
        parse_arrangement("field: rational\n")   # no vectors


def test_quadratic_formatting():
    arr = Arrangement(
        [(1, 0, 0, 0), (TAU, 1, 0, 0), (0, 0, 1, 0), (0, 0, QuadScalar(-1, 2), 1)],
        Field.QUADRATIC_TAU,
    )
    text = emit_arrangement(arr)
    assert "field: quadratic-tau" in text
    again = parse_arrangement(text)
    assert emit_arrangement(again) == text
