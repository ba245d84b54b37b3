"""Exact dense linear algebra over the coordinate fields.

Row counts are unbounded; column counts stay tiny (at most 6, for the
Grassmann coordinates of a plane).  Elimination pivots on the first nonzero
entry in row-major scan order so results are deterministic across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Field, QuadScalar, lift, sign


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


class Matrix:
    """Immutable exact matrix, used for rank and kernel computations."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows, cols=None):
        entries = tuple(tuple(_as_field_entry(x) for x in row) for row in rows)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __repr__(self):
        return f"Matrix({list(map(list, self.entries))!r})"

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.entries, self.cols))

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix([() for _ in range(self.cols)], cols=0)
        return Matrix(list(zip(*self.entries)), cols=self.rows)

    def rref(self):
        return rref(self.entries)

    def rank(self) -> int:
        _, pivots = rref(self.entries)
        return len(pivots)

    def kernel_basis(self):
        return kernel_basis(self)


def rank(matrix) -> int:
    """Exact rank of a Matrix or an iterable of rows."""
    if isinstance(matrix, Matrix):
        return matrix.rank()
    _, pivots = rref(matrix)
    return len(pivots)


def kernel_basis(matrix, cols=None):
    """Deterministic basis of the right kernel.

    Each basis vector carries a 1 in its own free column and 0 in every other
    free column (reduced echelon back-substitution), which makes coordinates
    with respect to this basis readable directly off the free columns.
    """
    if isinstance(matrix, Matrix):
        rows, ncols = matrix.entries, matrix.cols
    else:
        rows = [tuple(r) for r in matrix]
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


def vec_is_zero(vec) -> bool:
    return not any(vec)


def canonicalize_vector(vec, field: Field):
    """Canonical projective representative of a nonzero vector.

    Rational field: primitive integer coordinates with the first nonzero one
    positive.  Quadratic field: scaled so the first nonzero coordinate is 1.
    """
    if field is Field.QUADRATIC_TAU:
        entries = [lift(x, field) for x in vec]
        first = next((x for x in entries if x), None)
        if first is None:
            raise ValueError("zero vector has no canonical form")
        inv = first.inverse()
        return tuple(x * inv for x in entries)
    entries = [lift(x, field) for x in vec]
    if not any(entries):
        raise ValueError("zero vector has no canonical form")
    scale = lcm(*(x.denominator for x in entries))
    ints = [int(x * scale) for x in entries]
    g = 0
    for x in ints:
        g = gcd(g, x)
    first = next(x for x in ints if x)
    if first < 0:
        g = -g
    return tuple(x // g for x in ints)


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
    scale = lcm(*(x.denominator for x in entries))
    ints = [int(x * scale) for x in entries]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def plucker(u, v, field: Field):
    """Canonical Grassmann coordinates of the plane spanned by two 4-vectors.

    The six 2x2 minors identify the span uniquely up to scale, so the
    canonicalized tuple is a hashable key for rank-2 flats.
    """
    minors = []
    for i in range(4):
        for j in range(i + 1, 4):
            minors.append(u[i] * v[j] - u[j] * v[i])
    return canonicalize_vector(minors, field)


def cross3(u, v):
    """Cross product in K^3; spans the intersection of the two normal planes."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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
# ones) and decides walls with the division-free `int_rank` below.


def to_int_pairs(vec):
    """Clear denominators: vector of scalars -> tuple of (a, b) integer pairs."""
    pairs = []
    denominators = []
    for x in vec:
        if isinstance(x, QuadScalar):
            a, b = x.a, x.b
        else:
            a, b = Fraction(x), Fraction(0)
        pairs.append((a, b))
        denominators.append(a.denominator)
        denominators.append(b.denominator)
    scale = lcm(*denominators)
    return tuple((int(a * scale), int(b * scale)) for a, b in pairs)


def pair_mul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c + bd, a * d + b * c + bd)


def pair_dot(u, v):
    sa = 0
    sb = 0
    for (a, b), (c, d) in zip(u, v):
        bd = b * d
        sa += a * c + bd
        sb += a * d + b * c + bd
    return (sa, sb)


def pair_sign(x) -> int:
    """Exact sign of a + b*tau for an integer pair (a, b)."""
    a, b = x
    if not b:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if not a:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    u = 2 * a + b
    if not u:
        return 1 if b > 0 else -1
    su = 1 if u > 0 else -1
    if su == (1 if b > 0 else -1):
        return su
    return su if u * u > 5 * b * b else (1 if b > 0 else -1)


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


def pair_vector_canonical(pairs):
    """Canonical form of a nonzero integer-pair vector, unique per projective class.

    Multiplying through by the conjugate of the first nonzero entry turns any
    two representatives (which may differ by an irrational factor) into
    vectors differing by a rational factor only, because lambda * conj(lambda)
    is the rational field norm; dividing by the integer content and fixing
    the sign of the first nonzero pair then lands on a unique representative.
    """
    first = next((p for p in pairs if p[0] or p[1]), None)
    if first is None:
        raise ValueError("zero vector has no canonical form")
    conj = (first[0] + first[1], -first[1])
    scaled = [pair_mul(p, conj) for p in pairs]
    g = 0
    for a, b in scaled:
        g = gcd(g, a)
        g = gcd(g, b)
    lead = next(p for p in scaled if p[0] or p[1])
    if pair_sign(lead) < 0:
        g = -g
    return tuple((a // g, b // g) for a, b in scaled)


def pairs_to_quads(pairs):
    return tuple(QuadScalar(a, b) for a, b in pairs)
