"""Every construction of a catalogue row, resolved by label in `_build`.

One recipe table, `_RECIPES`, names each row's construction:

- A4, D4, B4, F4 and H4 are reflection arrangements: the mirrors of the
  positive roots of integer Cartan data (`RootSystemSpec`).
- The 13 data-only rows are restrictions of the Weyl arrangements of types
  D5-D7 and E6-E8 to standard parabolic flats (Orlik-Terao, *Arrangements
  of Hyperplanes*, App. C).  With the coordinates c_i(x) = <a_i, x>, the
  root sum_i b_i a_i cuts out sum_i b_i c_i = 0, so on the flat
  {c_s = 0 : s in S} its normal is b with the S-coordinates deleted.  By
  Steinberg's theorem every flat is conjugate to a standard parabolic one,
  so the sets S of rank - 4 simple roots give every rank-4 restriction up
  to isomorphism.
  Only the tests build these rows; the catalogue keeps them data-only.
- A^3_1(28) and A^3_1(27) are explicit Q(tau) normals, the second the
  first 27 of the first.

Both root constructions run one worklist (`_positive_roots`) in simple-root
coordinates, where each simple reflection changes one coordinate to a dot
product with a Cartan column, and end in one tail (`_arrangement`): the
canonical keys, checked as input normals are, in the order of their field
points, which the kernel's `order` compares in integers.  No field scalar is
made.

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
from .linalg import KERNELS
from .scalars import Field, QuadScalar, TAU


class ClosureOverflow(RuntimeError):
    """Reflection closure exceeded the safety cap (input not a finite system)."""


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


_ROOT_CAP = 10000


def _positive_roots(cartan, kernel, cap) -> tuple:
    """The positive roots in simple-root coordinates, closed under the
    simple reflections on the Cartan matrix, as integer forms.

    s_j(b) = b - <b, a_j^v> a_j changes only the coordinate b_j, to
    b . r_j with r_j column j of the Cartan matrix negated and its diagonal
    entry -1.  s_j permutes the positive roots other than a_j, and every
    positive root is reached from a simple one, so the worklist (s_j
    skipped on a_j) collects each root line once, exactly.  More than `cap`
    root lines raise ClosureOverflow (the group is not finite).
    """
    idot, neg = kernel.dot, kernel.neg
    dim = len(cartan)
    simple = [kernel.ints([int(i == j) for i in range(dim)]) for j in range(dim)]
    r = [
        tuple(neg(simple[j][j] if i == j else row[j]) for i, row in enumerate(cartan))
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
    return tuple(roots)


def _arrangement(keys, field: Field) -> Arrangement:
    """The arrangement on these canonical keys, in the order of their points."""
    kernel = KERNELS[field]
    keys = sorted(keys, key=kernel.order)
    return Arrangement._from_keys(_essential_keys(keys, kernel, Arrangement.dim), field)


def reflection_closure(spec: RootSystemSpec, cap: int = _ROOT_CAP) -> Arrangement:
    """The mirrors of the positive roots of `spec`: the root sum_i b_i a_i
    has the normal sum_i b_i mirrors[i].  More than `cap` root lines raise
    ClosureOverflow."""
    kernel = KERNELS[spec.field]
    columns = tuple(zip(*spec.mirrors))
    roots = _positive_roots(spec.cartan, kernel, cap)
    keys = [kernel.canonical(tuple(kernel.dot(b, col) for col in columns)) for b in roots]
    return _arrangement(keys, spec.field)


# -- parabolic restrictions of the simply laced Weyl arrangements -------------------


def _simply_laced(edges) -> tuple:
    """The Cartan matrix 2I - A of a simply laced Dynkin diagram on nodes
    1 ... rank, A the adjacency matrix of its edges."""
    nodes = range(1, max(map(max, edges)) + 1)
    linked = {frozenset(edge) for edge in edges}
    return tuple(tuple(2 if i == j else -({i, j} in linked) for j in nodes) for i in nodes)


#: the Cartan matrices of the Weyl types with rank-4 parabolic restrictions,
#: from their Dynkin diagrams in Bourbaki numbering
_WEYL_CARTANS = {
    "D5": _simply_laced(((1, 2), (2, 3), (3, 4), (3, 5))),
    "D6": _simply_laced(((1, 2), (2, 3), (3, 4), (4, 5), (4, 6))),
    "D7": _simply_laced(((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7))),
    "E6": _simply_laced(((1, 3), (3, 4), (4, 5), (5, 6), (2, 4))),
    "E7": _simply_laced(((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))),
    "E8": _simply_laced(((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))),
}


def _parabolic_restriction(cartan, flat) -> Arrangement:
    """The Weyl arrangement of a simply laced Cartan matrix restricted to
    {c_s = 0 : s in flat}, for rank - 4 simple roots numbered from 1: the
    positive roots less the flat's coordinates, zeros dropped, each line once."""
    kernel = KERNELS[Field.RATIONAL]
    keep = [i for i in range(len(cartan)) if i + 1 not in flat]
    roots = _positive_roots(cartan, kernel, _ROOT_CAP)
    restricted = (tuple(b[i] for i in keep) for b in roots)
    return _arrangement({kernel.canonical(v) for v in restricted if any(v)}, Field.RATIONAL)


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

#: each catalogue row's construction: a type of REFLECTION_SPECS; a type of
#: _WEYL_CARTANS and the first S whose flat gives the row, in a sweep over
#: the types in this order and each type's S in increasing order; or
#: explicit Q(tau) normals
_RECIPES = {
    "A^3_1(10)": "A4",
    "A^3_1(12)": "D4",
    "A^3_1(13)": ("D5", (1,)),
    "A^3_1(14)": ("D6", (1, 3)),
    "A^3_1(15)": ("D7", (1, 3, 5)),
    "A^3_2(15)": ("E6", (1, 3)),
    "A^3_1(16)": "B4",
    "A^3_1(17)": ("E6", (1, 2)),
    "A^3_1(18)": ("E7", (1, 3, 4)),
    "A^3_1(21)": ("E7", (1, 2, 3)),
    "A^3_1(22)": ("E7", (1, 2, 5)),
    "A^3_1(24)": "F4",
    "A^3_1(25)": ("E8", (1, 2, 3, 4)),
    "A^3_1(27)": _APPENDIX_28[:-1],
    "A^3_1(28)": _APPENDIX_28,
    "A^3_2(28)": ("E8", (1, 2, 4, 5)),
    "A^3_1(30)": ("E8", (1, 3, 5, 6)),
    "A^3_1(32)": ("E8", (1, 2, 3, 5)),
    "A^3_2(32)": ("E8", (1, 2, 5, 7)),
    "A^3_1(60)": "H4",
}


@lru_cache(maxsize=None)
def _build(label: str) -> Arrangement:
    recipe = _RECIPES[label]
    if isinstance(recipe, str):
        return reflection_closure(REFLECTION_SPECS[recipe])
    if isinstance(recipe[0], str):
        weyl, flat = recipe
        return _parabolic_restriction(_WEYL_CARTANS[weyl], flat)
    return Arrangement(recipe, Field.QUADRATIC_TAU)
