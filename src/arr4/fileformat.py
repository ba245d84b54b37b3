"""The plain-text arrangement file format.

A file starts with a header line `field: rational` or `field: quadratic-tau`,
followed by one normal vector per line: four whitespace-separated coordinates.
Blank lines and lines starting with `#` are ignored.  Rational coordinates
are written `p` or `p/q` with q > 0; quadratic coordinates are written `a`,
`a+b*t` or `a-b*t` with rational a, b and `t` standing for the golden ratio
(t*t = t + 1).  No spaces are allowed inside a coordinate.

Emission is canonical: normals in canonical projective form, sorted
lexicographically by coordinate, so parse -> emit -> parse is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arrangement import Arrangement
from .linalg import KERNELS
from .scalars import Field, QuadScalar


class ArrangementParseError(ValueError):
    """Malformed arrangement file; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_QUADRATIC = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*t)?$")


def _too_long(token: str) -> str:
    return (
        f"coordinate {token[:12]}... ({len(token)} characters) holds an integer "
        "past the interpreter's int-string digit limit"
    )


def _parse_rational(token: str, lineno: int) -> Fraction:
    m = _RATIONAL.match(token)
    if not m:
        raise ArrangementParseError(lineno, f"bad rational coordinate {token!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:  # past the interpreter's int-string digit limit
        raise ArrangementParseError(lineno, _too_long(token)) from None
    if den <= 0:
        raise ArrangementParseError(lineno, f"denominator must be positive in {token!r}")
    return Fraction(num, den)


def _parse_quadratic(token: str, lineno: int) -> QuadScalar:
    m = _QUADRATIC.match(token)
    if not m:
        raise ArrangementParseError(lineno, f"bad quadratic coordinate {token!r}")
    try:
        a = Fraction(m.group(1))
        b = Fraction(m.group(3)) if m.group(3) is not None else Fraction(0)
    except ZeroDivisionError:
        raise ArrangementParseError(lineno, f"zero denominator in {token!r}") from None
    except ValueError:  # past the interpreter's int-string digit limit
        raise ArrangementParseError(lineno, _too_long(token)) from None
    if m.group(2) == "-":
        b = -b
    return QuadScalar(a, b)


def parse_arrangement(text: str) -> Arrangement:
    """Parse file contents into an Arrangement (canonicalizing normals)."""
    field = None
    normals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if field is None:
            m = re.match(r"^field:\s*(\S+)$", line)
            if not m:
                raise ArrangementParseError(
                    lineno, "expected header 'field: rational' or 'field: quadratic-tau'"
                )
            name = m.group(1)
            try:
                field = Field(name)
            except ValueError:
                raise ArrangementParseError(lineno, f"unknown field {name!r}") from None
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ArrangementParseError(
                lineno, f"expected 4 coordinates, got {len(tokens)}"
            )
        if field is Field.RATIONAL:
            vec = tuple(_parse_rational(tok, lineno) for tok in tokens)
        else:
            vec = tuple(_parse_quadratic(tok, lineno) for tok in tokens)
        normals.append(vec)
    if field is None:
        raise ArrangementParseError(1, "missing field header")
    if not normals:
        raise ArrangementParseError(1, "no normal vectors in file")
    return Arrangement(normals, field)


def emit_arrangement(arrangement: Arrangement) -> str:
    """Canonical file contents for an arrangement: the canonical normals,
    sorted by the kernel's `order` of their integer keys, which sorts them
    as their field points sort, with no field scalar compared.  Each
    coordinate is written by `str`, which writes `p`, `p/q`, `a+b*t` and
    `a-b*t` as the parser reads them."""
    field = arrangement.field
    kernel = KERNELS[field]
    lines = [f"field: {field.value}"]
    for key in sorted(arrangement._integer_normals(), key=kernel.order):
        lines.append(" ".join(map(str, kernel.point(key))))
    return "\n".join(lines) + "\n"
