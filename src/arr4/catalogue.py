"""Built-in arrangements and the catalogue of known irreducible simplicial ones.

Twenty catalogue rows are embedded as combinatorial data (size, h-vector,
t-vector, f-vector).  Seven of them come with exact normal vectors: the five
reflection arrangements of types A4, D4, B4, F4, H4, generated by closing a
simple system under its reflections, and two golden-ratio arrangements of 27
and 28 hyperplanes given by explicit vectors.  The remaining rows are data
only; verification degrades gracefully for them.

A reflection arrangement is the orbit of the simple-root lines under the
simple reflections, computed on the integer forms of `linalg.KERNELS`: each
simple reflection is one integer matrix, applied without division, and root
lines are compared by canonical integer keys.  Field scalars appear only
when a key becomes a stored normal.

Realizations of A4 and H4: neither admits coordinates in the stated field
with the standard dot product as invariant form (their form discriminants are
not squares), so those two are generated in simple-root coordinates with the
invariant Gram matrix supplied explicitly, and the hyperplane normals are
read off through the Gram map.  That realization is linearly isomorphic to
the usual one, so all combinatorial output is identical, which the
verification suite certifies against the embedded table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from fractions import Fraction

from .arrangement import Arrangement
from .invariants import (
    ArrangementData,
    CheckOutcome,
    CheckResult,
    f_vector,
    run_data_checks,
)
from .linalg import KERNELS, compare_vectors, dot
from .scalars import Field, QuadScalar, TAU, lift


class UnknownLabel(KeyError):
    """No catalogue row with that label."""

    def __str__(self):
        return self.args[0]


class NoVectorsAvailable(LookupError):
    """The row exists but no normal vectors are known for it."""


class ClosureOverflow(RuntimeError):
    """Reflection closure exceeded the safety cap (input not a finite system)."""


@dataclass(frozen=True)
class CatalogueEntry:
    """One row of the embedded catalogue."""

    label: str
    n: int
    h: dict
    t: dict
    f: tuple
    comments: str
    has_vectors: bool

    def data(self) -> ArrangementData:
        return ArrangementData(self.n, dict(self.h), dict(self.t), self.f)


def _h(start, values):
    return {start + i: c for i, c in enumerate(values) if c}


_ROWS = (
    CatalogueEntry("A^3_1(10)", 10, _h(2, (15, 10)), _h(3, (0, 10, 0, 5)),
                   (15, 75, 120, 60), "reflection arrangement of type A4", True),
    CatalogueEntry("A^3_1(12)", 12, _h(2, (18, 16)), _h(3, (12, 0, 0, 12)),
                   (24, 120, 192, 96), "reflection arrangement of type D4", True),
    CatalogueEntry("A^3_1(13)", 13, _h(2, (21, 19)), _h(3, (6, 10, 0, 9, 3)),
                   (28, 148, 240, 120), "subarrangement of the B4 reflection arrangement", False),
    CatalogueEntry("A^3_1(14)", 14, _h(2, (25, 20, 1)), _h(3, (2, 16, 2, 8, 2, 2)),
                   (32, 176, 288, 144), "subarrangement of the B4 reflection arrangement", False),
    CatalogueEntry("A^3_1(15)", 15, _h(2, (30, 19, 3)), _h(3, (0, 18, 6, 8, 0, 3, 1)),
                   (36, 204, 336, 168), "subarrangement of the B4 reflection arrangement", False),
    CatalogueEntry("A^3_2(15)", 15, _h(2, (27, 26)), _h(3, (0, 24, 0, 6, 9)),
                   (39, 219, 360, 180), "crystallographic, no. 1", False),
    CatalogueEntry("A^3_1(16)", 16, _h(2, (36, 16, 6)), _h(3, (0, 16, 12, 8, 0, 0, 4)),
                   (40, 232, 384, 192), "reflection arrangement of type B4", True),
    CatalogueEntry("A^3_1(17)", 17, _h(2, (34, 28, 3)), _h(3, (12, 20, 0, 14, 0, 6, 1)),
                   (53, 293, 480, 240), "crystallographic, no. 2", False),
    CatalogueEntry("A^3_1(18)", 18, _h(2, (39, 32, 3)), _h(3, (0, 36, 3, 8, 6, 6, 1)),
                   (60, 348, 576, 288), "crystallographic, no. 3", False),
    CatalogueEntry("A^3_1(21)", 21, _h(2, (51, 41, 6)), _h(3, (12, 38, 6, 21, 3, 6, 0, 4)),
                   (90, 522, 864, 432), "crystallographic, no. 4", False),
    CatalogueEntry("A^3_1(22)", 22, _h(2, (57, 40, 9)), _h(3, (12, 48, 6, 20, 0, 6, 4, 4)),
                   (100, 580, 960, 480), "crystallographic, no. 5", False),
    CatalogueEntry("A^3_1(24)", 24, _h(2, (72, 32, 18)), _h(3, (0, 96, 0, 0, 0, 0, 24)),
                   (120, 696, 1152, 576), "reflection arrangement of type F4; crystallographic, no. 6", True),
    CatalogueEntry("A^3_1(25)", 25, _h(2, (75, 55, 10)), _h(3, (0, 60, 30, 25, 15, 0, 0, 10)),
                   (140, 860, 1440, 720), "crystallographic, no. 7", False),
    CatalogueEntry("A^3_1(27)", 27, _h(2, (81, 70, 0, 6)),
                   _h(3, (30, 60, 0, 67, 0, 0, 0, 12, 0, 0, 0, 0, 1)),
                   (170, 1010, 1680, 840), "subarrangement of the H4 reflection arrangement", True),
    CatalogueEntry("A^3_1(28)", 28, _h(2, (90, 76, 0, 6)),
                   _h(3, (0, 100, 0, 58, 15, 0, 0, 12, 0, 0, 0, 0, 1)),
                   (186, 1146, 1920, 960), "subarrangement of the H4 reflection arrangement", True),
    CatalogueEntry("A^3_2(28)", 28, _h(2, (90, 64, 16)),
                   _h(3, (24, 84, 18, 40, 0, 18, 3, 0, 6, 0, 1)),
                   (194, 1154, 1920, 960), "crystallographic, no. 8", False),
    CatalogueEntry("A^3_1(30)", 30, _h(2, (99, 84, 9, 0, 2)),
                   _h(3, (0, 144, 0, 36, 24, 18, 0, 0, 0, 0, 6)),
                   (228, 1380, 2304, 1152), "crystallographic, no. 9", False),
    CatalogueEntry("A^3_1(32)", 32, _h(2, (120, 76, 18, 4)),
                   _h(3, (24, 120, 24, 68, 0, 6, 10, 8, 0, 0, 6)),
                   (266, 1610, 2688, 1344), "crystallographic, no. 10", False),
    CatalogueEntry("A^3_2(32)", 32, _h(2, (124, 64, 30)),
                   _h(3, (0, 144, 48, 40, 0, 0, 12, 16, 0, 0, 4)),
                   (264, 1608, 2688, 1344), "crystallographic, no. 11", False),
    CatalogueEntry("A^3_1(60)", 60, _h(2, (450, 200, 0, 72)),
                   _h(3, (0, 600, 0, 660, 0, 0, 0, 0, 0, 0, 0, 0, 60)),
                   (1320, 8520, 14400, 7200), "reflection arrangement of type H4", True),
)

_BY_LABEL = {row.label: row for row in _ROWS}

#: Reflection-type shorthands for the rows of the five reflection arrangements.
_ALIASES = {
    "A4": "A^3_1(10)",
    "D4": "A^3_1(12)",
    "B4": "A^3_1(16)",
    "F4": "A^3_1(24)",
    "H4": "A^3_1(60)",
}


def catalogue_rows() -> tuple[CatalogueEntry, ...]:
    """All embedded catalogue rows, in table order."""
    return _ROWS


def catalogue_entry(label: str) -> CatalogueEntry:
    """The row with that label, or with the label a shorthand (A4, ..., H4) names."""
    try:
        return _BY_LABEL[_ALIASES.get(label, label)]
    except KeyError:
        raise UnknownLabel(f"unknown catalogue label {label!r}") from None


# -- reflection arrangements --------------------------------------------------------


@dataclass(frozen=True)
class RootSystemSpec:
    """Simple system of a finite reflection group.

    `gram` is the invariant symmetric bilinear form as a 4x4 matrix of
    scalars; None means the standard dot product.
    """

    name: str
    field: Field
    simple_roots: tuple
    gram: tuple | None = None


_E = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_HALF = Fraction(1, 2)

REFLECTION_SPECS = {
    "A4": RootSystemSpec(
        "A4", Field.RATIONAL, _E,
        gram=((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ),
    "D4": RootSystemSpec(
        "D4", Field.RATIONAL,
        ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
    ),
    "B4": RootSystemSpec(
        "B4", Field.RATIONAL,
        ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)),
    ),
    "F4": RootSystemSpec(
        "F4", Field.RATIONAL,
        ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (_HALF, -_HALF, -_HALF, -_HALF)),
    ),
    "H4": RootSystemSpec(
        "H4", Field.QUADRATIC_TAU, _E,
        gram=(
            (QuadScalar(2), -TAU, QuadScalar(0), QuadScalar(0)),
            (-TAU, QuadScalar(2), QuadScalar(-1), QuadScalar(0)),
            (QuadScalar(0), QuadScalar(-1), QuadScalar(2), QuadScalar(-1)),
            (QuadScalar(0), QuadScalar(0), QuadScalar(-1), QuadScalar(2)),
        ),
    ),
}


def reflection_closure(spec: RootSystemSpec, cap: int = 10000) -> Arrangement:
    """Orbit of the simple-root lines under the simple reflections, in integers.

    The reflection group W is generated by the simple reflections, and
    s_{w a} = w s_a w^-1, so the orbit W.{simple roots} is the set of root
    lines closed under every reflection.  Each simple reflection is stored
    once as the integer form of the division-free matrix
    B(a,a) I - 2 a (G a)^T, which maps x to B(a,a) x - 2 B(x,a) a, a positive
    multiple of s_a(x) when B is the spec's invariant form with Gram matrix G.
    The orbit is a worklist over canonical integer keys of
    `linalg.KERNELS`; the arrangement collects the hyperplanes fixed by the
    reflections, whose normals under the standard pairing are the Gram
    images of the root lines.  More than `cap` root lines raise
    ClosureOverflow (the group is not finite).
    """
    field = spec.field
    kernel = KERNELS[field]
    idot, canonical = kernel.dot, kernel.canonical
    gram = spec.gram or _E
    dim = len(gram)

    def integer_matrix(entries):
        flat = kernel.ints(entries)   # one positive scale for the whole matrix
        return [flat[i * dim:(i + 1) * dim] for i in range(dim)]

    reflections = []
    for root in spec.simple_roots:
        alpha = [lift(x, field) for x in root]
        g_alpha = [dot(row, alpha) for row in gram]
        aa = dot(alpha, g_alpha)
        reflections.append(integer_matrix([
            (aa if i == j else 0) - 2 * alpha[i] * g_alpha[j]
            for i in range(dim) for j in range(dim)
        ]))
    lines = {canonical(kernel.ints(root)): None for root in spec.simple_roots}
    work = deque(lines)
    while work:
        x = work.popleft()
        for matrix in reflections:
            key = canonical(tuple(idot(row, x) for row in matrix))
            if key not in lines:
                lines[key] = None
                if len(lines) > cap:
                    raise ClosureOverflow(
                        f"more than {cap} root lines; input is not a finite system"
                    )
                work.append(key)
    gram_ints = integer_matrix([x for row in gram for x in row])
    normals = [
        kernel.point(canonical(tuple(idot(row, r) for row in gram_ints)))
        for r in lines
    ]
    normals.sort(key=cmp_to_key(compare_vectors))
    return Arrangement(normals, field)


# -- the two explicit golden-ratio arrangements -------------------------------------

_T = TAU
_T1 = QuadScalar(1, 1)   # 1 + tau

_APPENDIX_28 = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 0),
    (0, 1, 1, 1),
    (0, 0, 1, 1),
    (0, 0, 0, 1),
    (1, 1, 0, 0),
    (1, 1, 1, 1),
    (1, _T, 0, 0),
    (_T, 1, 0, 0),
    (1, _T, _T, _T),
    (_T, 1, 1, 0),
    (_T, _T1, 1, 0),
    (_T, 1, 1, 1),
    (_T, _T1, _T, _T),
    (_T1, _T1, 1, 0),
    (_T, _T1, 1, 1),
    (_T1, _T1, _T, _T),
    (_T, _T1, _T1, _T),
    (_T1, _T1, 1, 1),
    (_T1, QuadScalar(0, 2), _T, _T),
    (_T1, QuadScalar(0, 2), _T, 1),
    (_T, _T, _T, 1),
    (_T, _T1, _T, 1),
    (_T1, _T1, _T, 1),
    (_T, 2, QuadScalar(3, -1), 1),
    (QuadScalar(2, 3), QuadScalar(2, 4), QuadScalar(1, 3), _T1),
)

_REFLECTION_LABELS = {label: name for name, label in _ALIASES.items()}


@lru_cache(maxsize=None)
def _build(label: str) -> Arrangement:
    if label in _REFLECTION_LABELS:
        return reflection_closure(REFLECTION_SPECS[_REFLECTION_LABELS[label]])
    if label == "A^3_1(28)":
        return Arrangement(_APPENDIX_28, Field.QUADRATIC_TAU)
    if label == "A^3_1(27)":
        return Arrangement(_APPENDIX_28[:-1], Field.QUADRATIC_TAU)
    raise AssertionError(label)


def builtin(label: str) -> Arrangement:
    """Arrangement for one of the seven rows with known normal vectors.

    Accepts catalogue labels and the reflection-type shorthands A4, D4, B4,
    F4, H4.
    """
    entry = catalogue_entry(label)
    if not entry.has_vectors:
        raise NoVectorsAvailable(f"no normal vectors are known for {entry.label}")
    return _build(entry.label)


# -- row verification -----------------------------------------------------------------


@dataclass(frozen=True)
class RowReport:
    """Verification record for one catalogue row."""

    label: str
    has_vectors: bool
    geometry: tuple                 # CheckOutcomes from recomputed geometry
    checks: tuple                   # CheckOutcomes from the data-only suite

    @property
    def failed(self) -> tuple:
        return tuple(
            o for o in self.geometry + self.checks if o.status == "fail"
        )

    @property
    def passed(self) -> bool:
        return not self.failed


def _match(name, computed, expected) -> CheckOutcome:
    ok = computed == expected
    res = CheckResult(name, ok, computed, expected, tight=ok)
    return CheckOutcome(name, "pass" if ok else "fail", res)


def verify_row(label: str) -> RowReport:
    """Recompute whatever the row's data allows and run every data check.

    Rows with vectors get their geometry (h/t/f-vectors, restriction sizes)
    recomputed from scratch and compared to the table; data-only rows report
    those comparisons as skipped.  For rows with vectors, f2 is also
    counted restriction by restriction, from the points of the restricted
    normals (`Arrangement.restriction_counts`), and asserted equal to the f2
    of the vertex tallies.
    """
    entry = catalogue_entry(label)
    geometry: list[CheckOutcome] = []
    if entry.has_vectors:
        arr = builtin(entry.label)
        geometry.append(_match("n", arr.n, entry.n))
        geometry.append(_match("h_vector", arr.h_vector(), dict(entry.h)))
        geometry.append(_match("t_vector", arr.t_vector(), dict(entry.t)))
        f = f_vector(arr)
        geometry.append(_match("f_vector", f, entry.f))
        # h = sum of restriction sizes minus the number of lines
        data = entry.data()
        counts = arr.restriction_counts()
        lhs = sum(size for size, _ in counts) - data.g1
        geometry.append(_match("restriction_sum_identity", lhs, data.h_total))
        f2 = sum(chambers for _, chambers in counts)
        if f2 != f[2]:
            raise AssertionError(
                f"restriction chamber counts sum to {f2}, the vertex tallies "
                f"give f2 = {f[2]}"
            )
    else:
        for name in ("n", "h_vector", "t_vector", "f_vector",
                     "restriction_sum_identity"):
            geometry.append(CheckOutcome(name, "skip", note="no vectors known"))
    checks = run_data_checks(entry.data(), simplicial=True, irreducible=True)
    return RowReport(entry.label, entry.has_vectors, tuple(geometry), tuple(checks))
