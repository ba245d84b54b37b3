"""Built-in arrangements and the catalogue of known irreducible simplicial ones.

Twenty catalogue rows are embedded as combinatorial data (size, h-vector,
t-vector, f-vector).  Seven of them come with exact normal vectors: the five
reflection arrangements of types A4, D4, B4, F4, H4, generated by closing a
simple system under its reflections, and two golden-ratio arrangements of 27
and 28 hyperplanes given by explicit vectors.  The remaining rows are data
only; verification degrades gracefully for them.

A reflection arrangement is given by integer data only: the Cartan matrix
of its simple system (ints, or integer pairs a + b*tau for H4, whose Cartan
entry -tau is irrational) and one integer-form mirror normal per simple
root.  The positive roots are closed under the simple reflections in
simple-root coordinates, where each reflection changes one coordinate to a
dot product with a Cartan column, and each root's mirror normal is the same
combination of the simple mirrors.  The arrangement stores the canonical
keys of those normals, checked as input normals are, in the order of their
field points, which the kernel's `order` compares in integers: no field
scalar is made.

Realizations of A4 and H4: neither admits coordinates in the stated field
with the standard dot product as invariant form (their form discriminants are
not squares), so they are realized in simple-root coordinates, where the
mirror of a_i has normal G a_i for the Gram matrix G of the invariant form:
with every B(a_i, a_i) = 2, the mirrors are the rows of the symmetric Cartan
matrix.  That realization is linearly isomorphic to the usual one, so all
combinatorial output is identical, which the verification suite certifies
against the embedded table.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .arrangement import Arrangement, _essential_keys
from .invariants import (
    ArrangementData,
    CheckOutcome,
    CheckResult,
    f_vector,
    run_data_checks,
)
from .linalg import KERNELS
from .scalars import Field, QuadScalar, TAU


class UnknownLabel(KeyError):
    """No catalogue row with that label."""

    def __str__(self):
        return self.args[0]


class NoVectorsAvailable(LookupError):
    """The row exists but no normal vectors are known for it."""


class ClosureOverflow(RuntimeError):
    """Reflection closure exceeded the safety cap (input not a finite system)."""


class CatalogueEntry(NamedTuple):
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


class RootSystemSpec(NamedTuple):
    """Integer Cartan data of a finite reflection group.

    `cartan[i][j]` is <a_i, a_j^v> = 2 B(a_i, a_j) / B(a_j, a_j) for the
    simple roots a_i and the invariant form B, in the integer form of
    `linalg.KERNELS[field]`: ints, or (a, b) pairs standing for a + b*tau.
    `mirrors[i]` is an integer-form normal of the mirror of a_i, all at one
    positive scale, so the root sum_i b_i a_i has mirror normal
    sum_i b_i mirrors[i].
    """

    name: str
    field: Field
    cartan: tuple
    mirrors: tuple


_A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
_H4 = (
    ((2, 0), (0, -1), (0, 0), (0, 0)),
    ((0, -1), (2, 0), (-1, 0), (0, 0)),
    ((0, 0), (-1, 0), (2, 0), (-1, 0)),
    ((0, 0), (0, 0), (-1, 0), (2, 0)),
)

REFLECTION_SPECS = {
    "A4": RootSystemSpec("A4", Field.RATIONAL, _A4, _A4),
    "D4": RootSystemSpec(
        "D4", Field.RATIONAL,
        ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
        ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
    ),
    "B4": RootSystemSpec(
        "B4", Field.RATIONAL,
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
        ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)),
    ),
    "F4": RootSystemSpec(
        "F4", Field.RATIONAL,
        ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
        ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)),
    ),
    "H4": RootSystemSpec("H4", Field.QUADRATIC_TAU, _H4, _H4),
}


def reflection_closure(spec: RootSystemSpec, cap: int = 10000) -> Arrangement:
    """The positive roots in simple-root coordinates, closed under the simple
    reflections on the Cartan matrix; their mirrors are the arrangement.

    s_j(b) = b - <b, a_j^v> a_j changes only the coordinate b_j, to
    b . r_j with r_j column j of the Cartan matrix negated and its diagonal
    entry -1.  s_j permutes the positive roots other than a_j, and every
    positive root is reached from a simple one, so the worklist (s_j
    skipped on a_j) collects each root line once, exactly, in integer
    forms.  More than `cap` root lines raise ClosureOverflow (the group is
    not finite).  The mirrors' canonical keys are listed in the order of
    their field points, compared in integers by `KERNELS[field].order`.
    """
    kernel = KERNELS[spec.field]
    idot, neg = kernel.dot, kernel.neg
    dim = len(spec.cartan)
    simple = [kernel.ints([int(i == j) for i in range(dim)]) for j in range(dim)]
    r = [
        tuple(neg(simple[j][j] if i == j else row[j]) for i, row in enumerate(spec.cartan))
        for j in range(dim)
    ]
    roots = dict.fromkeys(simple)
    work = deque(simple)
    while work:
        b = work.popleft()
        for j, rj in enumerate(r):
            if b != simple[j]:
                image = b[:j] + (idot(b, rj),) + b[j + 1:]
                if image not in roots:
                    roots[image] = None
                    if len(roots) > cap:
                        raise ClosureOverflow(
                            f"more than {cap} root lines; input is not a finite system"
                        )
                    work.append(image)
    columns = tuple(zip(*spec.mirrors))
    keys = [kernel.canonical(tuple(idot(b, col) for col in columns)) for b in roots]
    keys.sort(key=kernel.order)
    return Arrangement._from_keys(_essential_keys(keys, kernel, Arrangement.dim), spec.field)


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


class RowReport(NamedTuple):
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
