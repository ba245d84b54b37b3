"""Exact dense linear algebra over the coordinate fields.

Two layers.  Field-scalar routines (`rref`, `rank`, `kernel_basis`,
`canonicalize_ray`) work on Fraction and QuadScalar entries; row counts are
unbounded and column counts tiny (at most 4).  Elimination pivots on the
first nonzero entry in row-major scan order so results are deterministic
across runs.  The integer kernel works on positive rescalings of vectors
into primitive ints (Q) or integer pairs a + b*tau (Q(tau)): `int_rank`
(division-free rank), and the per-field table `KERNELS` (integer form, dot,
negation, sign, canonical key, field point) on which the intersection
lattice, the restrictions, the reflection closure, the chamber context and
`canonicalize_vector` run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg
from typing import Callable, NamedTuple

from .scalars import Field, QuadScalar, lift, pair_sign, sign


def _as_field_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns); zero rows are dropped.  Entries
    may be Fraction or QuadScalar (ints are lifted to Fraction).
    """
    work = [[_as_field_entry(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                work[i] = [x - f * y for x, y in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], tuple(pivots)


def rank(rows) -> int:
    """Exact rank of an iterable of rows."""
    _, pivots = rref(rows)
    return len(pivots)


def kernel_basis(rows, cols=None):
    """Deterministic basis of the right kernel.

    Each basis vector carries a 1 in its own free column and 0 in every other
    free column (reduced echelon back-substitution), which makes coordinates
    with respect to this basis readable directly off the free columns.
    """
    rows = [tuple(r) for r in rows]
    ncols = len(rows[0]) if rows else cols
    if ncols is None:
        raise ValueError("column count required for an empty system")
    quadratic = any(isinstance(x, QuadScalar) for row in rows for x in row)
    one = QuadScalar(1) if quadratic else Fraction(1)
    zero = QuadScalar(0) if quadratic else Fraction(0)
    ech, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][f]
        basis.append(tuple(vec))
    return basis


def dot(u, v):
    """Exact inner product; vectors must have equal length."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def canonicalize_vector(vec, field: Field):
    """Canonical projective representative of a nonzero vector.

    Rational field: primitive integer coordinates with the first nonzero one
    positive.  Quadratic field: scaled so the first nonzero coordinate is 1.
    Both come from the field's lattice kernel: point(canonical(ints(vec))).
    """
    entries = [lift(x, field) for x in vec]
    if not any(entries):
        raise ValueError("zero vector has no canonical form")
    kernel = KERNELS[field]
    return kernel.point(kernel.canonical(kernel.ints(entries)))


def canonicalize_ray(vec):
    """Scale a nonzero vector by a positive factor into a unique form.

    Unlike canonicalize_vector this preserves orientation, so it identifies
    equal open half-space constraints without merging opposite ones.
    """
    if any(isinstance(x, QuadScalar) for x in vec):
        first = next((x for x in vec if x), None)
        if first is None:
            return None
        inv = abs(QuadScalar._coerce(first)).inverse()
        return tuple(QuadScalar._coerce(x) * inv for x in vec)
    entries = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    if not any(entries):
        return None
    return primitive(_cleared(entries), oriented=True)


def _cleared(vec):
    """A rational vector times the lcm of its denominators, as ints."""
    scale = lcm(*(x.denominator for x in vec))
    return [x.numerator * (scale // x.denominator) for x in vec]


def primitive(ints, oriented=False):
    """A nonzero integer vector divided by the gcd of its entries.

    Unless `oriented`, the sign is also fixed so that the first nonzero entry
    is positive, which makes the result unique per projective class.
    """
    g = gcd(*ints)
    if not oriented and next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def compare_vectors(u, v) -> int:
    """Lexicographic comparison using the exact field order."""
    for a, b in zip(u, v):
        s = sign(a - b)
        if s:
            return s
    return 0


# -- integer-pair fast path for Q(tau) hot loops ----------------------------------
#
# A quadratic vector scaled by the positive lcm of its component denominators
# becomes a tuple of plain integer pairs (a, b) standing for a + b*tau.  Signs,
# zero tests and ranks are unchanged by the positive scaling, so bulk
# sign-of-dot work and rank tests can run on machine integers instead of
# Fraction-backed scalars.  The chamber engine keeps every corner in such an
# integer form (plain primitive ints for rational corners, pairs for Q(tau)
# ones) and decides walls with the division-free `int_rank` below; the
# lattice kernel at the end of this module does the same for flats.


def to_int_pairs(vec):
    """Clear denominators: vector of scalars -> tuple of (a, b) integer pairs."""
    pairs = [(x.a, x.b) if isinstance(x, QuadScalar) else (x, 0) for x in vec]
    scale = lcm(*(y.denominator for pair in pairs for y in pair))
    return tuple(
        (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        for a, b in pairs
    )


def pair_dot(u, v):
    sa = 0
    sb = 0
    for (a, b), (c, d) in zip(u, v):
        bd = b * d
        sa += a * c + bd
        sb += a * d + b * c + bd
    return (sa, sb)


def int_rank(rows) -> int:
    """Exact rank of integer rows or of integer-pair rows, without division.

    Entries are either all ints or all (a, b) pairs standing for a + b*tau.
    Z[tau] is an integral domain, so clearing a column by cross-multiplication
    (row <- p*row - f*pivot_row, p the pivot) never leaves the ring and a zero
    entry is exactly 0 or (0, 0).  Rows are only a few columns wide, so the
    entry growth of the division-free update stays small.
    """
    work = list(rows)
    if not work or not work[0]:
        return 0
    pairs = isinstance(work[0][0], tuple)
    found = 0
    while work and work[0]:
        for k, row in enumerate(work):
            head = row[0]
            if (head[0] or head[1]) if pairs else head:
                break
        else:
            work = [row[1:] for row in work]
            continue
        pivot = work.pop(k)
        p, ptail = pivot[0], pivot[1:]
        reduced = []
        for row in work:
            f, tail = row[0], row[1:]
            if pairs:
                if f[0] or f[1]:
                    pa, pb = p
                    fa, fb = f
                    tail = tuple(
                        (
                            pa * xa + pb * xb - fa * ya - fb * yb,
                            pa * xb + pb * (xa + xb) - fa * yb - fb * (ya + yb),
                        )
                        for (xa, xb), (ya, yb) in zip(tail, ptail)
                    )
            elif f:
                tail = tuple(p * x - f * y for x, y in zip(tail, ptail))
            reduced.append(tail)
        work = reduced
        found += 1
    return found


def _times_conj_of_first(pairs):
    """The pairs times the conjugate of the first nonzero one, and that one's norm.

    For the first nonzero entry c + d*tau the conjugate is (c + d) - d*tau,
    and the product turns that entry into the rational norm c^2 + cd - d^2.
    """
    first = next((p for p in pairs if p[0] or p[1]), None)
    if first is None:
        raise ValueError("zero vector has no canonical form")
    c, d = first
    e = c + d
    scaled = [(a * e - b * d, b * e - (a + b) * d) for a, b in pairs]
    return scaled, c * c + c * d - d * d


def pair_vector_canonical(pairs):
    """Canonical form of a nonzero integer-pair vector, unique per projective class.

    Multiplying through by the conjugate of the first nonzero entry turns any
    two representatives (which may differ by an irrational factor) into
    vectors differing by a rational factor only, because lambda * conj(lambda)
    is the rational field norm; dividing by the integer content and fixing
    the sign of the first nonzero entry (that norm) then lands on a unique
    representative.
    """
    scaled, norm = _times_conj_of_first(pairs)
    g = 0
    for a, b in scaled:
        g = gcd(g, a, b)
    if norm < 0:
        g = -g
    return tuple((a // g, b // g) for a, b in scaled)


def pair_point(pairs):
    """Field vector of a nonzero integer-pair vector, its first nonzero entry 1.

    After multiplying by the conjugate of the first nonzero entry, that
    entry's rational norm is the only divisor.
    """
    scaled, norm = _times_conj_of_first(pairs)
    return tuple(QuadScalar(Fraction(a, norm), Fraction(b, norm)) for a, b in scaled)


# -- the lattice kernel ------------------------------------------------------------
#
# The intersection lattice, the restrictions and the reflection closure run
# on integer forms only.  Each vector is scaled by a positive factor into
# primitive ints (rational) or integer pairs (Q(tau)); minors, dot products
# and reflections then stay in Z or Z[tau], and flats and root lines are
# grouped by a canonical key that is unique per projective class.  Field
# scalars come back only when a key becomes a stored normal or a flat's
# point: `point` divides by the first nonzero coordinate in integers (for
# Q(tau), by its norm after multiplying by its conjugate), and
# `canonicalize_vector` is point(canonical(ints(v))) for both fields, the
# one canonical path.  The table below holds every field decision these
# layers and the chamber context make.


class FieldKernel(NamedTuple):
    """Integer arithmetic of one coordinate field."""

    #: field vector -> integer form, a positive rescaling of it
    ints: Callable
    #: inner product of two integer forms, an integer-form scalar
    dot: Callable
    #: negation of an integer-form scalar
    neg: Callable
    #: sign of an integer-form scalar
    sign: Callable
    #: nonzero integer form -> hashable key, unique per projective class
    canonical: Callable
    #: key -> the vector canonicalize_vector gives for that class
    point: Callable


def _int_dot(u, v):
    return sum(map(mul, u, v))


KERNELS = {
    Field.RATIONAL: FieldKernel(
        ints=lambda vec: primitive(_cleared(vec), oriented=True),
        dot=_int_dot,
        neg=neg,
        sign=sign,
        canonical=primitive,
        point=tuple,
    ),
    Field.QUADRATIC_TAU: FieldKernel(
        ints=to_int_pairs,
        dot=pair_dot,
        neg=lambda x: (-x[0], -x[1]),
        sign=pair_sign,
        canonical=pair_vector_canonical,
        point=pair_point,
    ),
}
