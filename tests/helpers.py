"""Shared fixtures-in-code, reference routes and the randomized property suites.

The property runners live here (not in a test module) so both the unit tests
and the acceptance suite can invoke them with their own case counts.  The
reference routes (field-scalar `rref`/`rank`/`kernel_basis` and
`canonicalize_vector`, the division-free integer elimination `int_rank`, the
one-point-at-a-time P^1 keys, the all-pairs reflection closure, kernel-basis
restrictions, the vertex-by-line Moebius scan, the vertex pass with one full
point per candidate, the chamber corner list scan, the per-hyperplane wall
scan) are the slow, obvious versions that the package's integer kernel is
compared against.  The oracles
`chamber_feasible` (strict feasibility of a sign vector) and the
interval-refinement surd floors check the package from outside it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations
from math import gcd, isqrt

from arr4 import Arrangement, Field, Flat, QuadScalar, Rank3Arrangement, sign
from arr4.chambers import _bits, _canonical_mask, _oriented_normals, feasible_strict, generic_point
from arr4.invariants import NegativeRadicand, ceil_sub_sqrt, floor_add_sqrt
from arr4.linalg import _PAIR_INFINITY, KERNELS
from arr4.scalars import lift


#: Rows of the Hodge dual *P of a Pluecker vector P: x_i = sum_j eps_ijkl p_kl w_j,
#: {k < l} the remaining two coordinates, is the point where the line meets
#: the hyperplane with normal w.  Entries are (index of p_kl in the minors
#: order of `KERNELS[field].normal`, j, eps_ijkl).  The reference table of
#: `reference_vertices` and of the `linalg.line_forms` tests.
_HODGE = (
    ((5, 1, 1), (4, 2, -1), (3, 3, 1)),
    ((5, 0, -1), (2, 2, 1), (1, 3, -1)),
    ((4, 0, 1), (2, 1, -1), (0, 3, 1)),
    ((3, 0, -1), (1, 1, 1), (0, 2, -1)),
)


# -- field-scalar reference elimination ---------------------------------------------


def compare_vectors(u, v) -> int:
    """Lexicographic comparison using the exact field order: the sign of the
    first nonzero difference.  The reference for the order in which
    `emit_arrangement` and the reflection closure list normals."""
    for a, b in zip(u, v):
        s = sign(a - b)
        if s:
            return s
    return 0


def dot(u, v):
    """Exact inner product of field vectors; they must have equal length."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def rref(rows):
    """Reduced row echelon form over Fraction or QuadScalar entries.

    Returns (echelon_rows, pivot_columns); zero rows are dropped and ints are
    lifted to Fraction.  Elimination pivots on the first nonzero entry in
    row-major scan order, so results are deterministic.
    """
    work = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
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
    """Exact rank of an iterable of rows, by field-scalar elimination."""
    _, pivots = rref(rows)
    return len(pivots)


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


def kernel_basis(rows, cols=None):
    """Deterministic basis of the right kernel, by field-scalar elimination.

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


def inverse_canonical(vec):
    """Reference Q(tau) form: every entry times the inverse of the first nonzero one."""
    quads = [QuadScalar._coerce(x) for x in vec]
    inverse = next(x for x in quads if x).inverse()
    return tuple(x * inverse for x in quads)


def rational_canonical(vec):
    """Reference Q form: divide by the first nonzero entry, clear denominators,
    which leaves primitive integers with the first nonzero one positive."""
    first = next(x for x in vec if x)
    scaled = [Fraction(x) / first for x in vec]
    common = 1
    for x in scaled:
        common = common * x.denominator // gcd(common, x.denominator)
    return tuple(int(x * common) for x in scaled)


def canonicalize_vector(vec, field: Field):
    """Canonical projective representative of a nonzero field vector, in
    field scalars and independent of the lattice kernel: `rational_canonical`
    or `inverse_canonical` of the lifted entries.  The kernel's form
    point(canonical(ints(vec))) must equal it."""
    entries = [lift(x, field) for x in vec]
    if not any(entries):
        raise ValueError("zero vector has no canonical form")
    if field is Field.QUADRATIC_TAU:
        return inverse_canonical(entries)
    return rational_canonical(entries)


# -- reference keys of points of P^1 ------------------------------------------------


def int_position(x, y):
    """Key of the point [x : y] of P^1 for integers, unique per class:
    (x, y) over their gcd, the first nonzero entry positive."""
    g = gcd(x, y)
    if not g:
        raise ValueError("zero vector has no position")
    if x < 0 or not x and y < 0:
        g = -g
    return (x // g, y // g)


def pair_position(x, y):
    """Key of the point [x : y] of P^1 for integer pairs, unique per class.

    For x != 0 the key is the ratio y/x = y*conj(x) / N(x), N(x) the nonzero
    rational norm, as the triple (N, p, q) standing for (p + q*tau)/N, with
    N > 0 and no common factor.  The point x = 0 is `_PAIR_INFINITY`.
    """
    a, b = x
    c, d = y
    if not (a or b):
        if c or d:
            return _PAIR_INFINITY
        raise ValueError("zero vector has no position")
    e = a + b  # conj(x) = e - b*tau
    bd = b * d
    n = a * e - b * b
    p = c * e - bd
    q = d * e - b * c - bd
    g = gcd(n, p, q)
    if n < 0:
        g = -g
    return (n // g, p // g, q // g)


#: the reference P^1 key of each field
POSITION = {Field.RATIONAL: int_position, Field.QUADRATIC_TAU: pair_position}


def reference_group(field, p, q, rows):
    """`KERNELS[field].group` one row (bit, w) at a time: two `dot` calls
    and the reference key per row."""
    idot, position = KERNELS[field].dot, POSITION[field]
    groups = {}
    for bit, w in rows:
        key = position(idot(p, w), idot(q, w))
        groups[key] = groups.get(key, 0) | bit
    return groups


def reference_meets(field, u, rows):
    """`KERNELS[field].meets` one row (bit, v) at a time: the reference key
    of [m_f : m_g], m_f = u_t v_f - u_f v_t the pivot minors of u's pivot t
    for f < g the other two coordinates, each a two-term `dot`."""
    kernel, position = KERNELS[field], POSITION[field]
    t = next(i for i, x in enumerate(u) if kernel.sign(x))
    f, g = (c for c in range(3) if c != t)
    pivot_f, pivot_g = (u[t], kernel.neg(u[f])), (u[t], kernel.neg(u[g]))
    groups = {}
    for bit, v in rows:
        key = position(kernel.dot(pivot_f, (v[f], v[t])), kernel.dot(pivot_g, (v[g], v[t])))
        groups[key] = groups.get(key, 0) | bit
    return groups


def boolean_arrangement() -> Arrangement:
    return Arrangement([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def generic5_arrangement() -> Arrangement:
    """Four coordinate hyperplanes plus one in general position."""
    return Arrangement(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 5)]
    )


def random_arrangements(field, count, seed):
    """Small essential arrangements with coordinates from a tiny range.

    The tiny range makes many lines and vertices of higher weight, so most
    draws are non-simplicial.
    """
    rng = random.Random(seed)
    if field is Field.QUADRATIC_TAU:
        def coord():
            return QuadScalar(rng.randint(-1, 1), rng.randint(-1, 1))
    else:
        def coord():
            return rng.randint(-2, 2)
    out = []
    while len(out) < count:
        normals = [tuple(coord() for _ in range(4)) for _ in range(rng.randint(5, 6))]
        try:
            out.append(Arrangement(normals, field))
        except ValueError:  # zero, repeated or non-spanning normals
            continue
    return out


_E = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_HALF = Fraction(1, 2)
_Q = QuadScalar



def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def _d_roots(n):
    """Bourbaki's simple roots of D_n in R^n: e_i - e_(i+1), e_(n-1) + e_n."""
    e = [_unit(n, i) for i in range(n)]
    return tuple(
        tuple(x - y for x, y in zip(e[i], e[i + 1])) for i in range(n - 1)
    ) + (tuple(x + y for x, y in zip(e[n - 2], e[n - 1])),)


#: Bourbaki's simple roots of E8 in R^8; those of E7 and E6 are the first
#: seven and six
_E8_ROOTS = (
    (_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF, _HALF),
    (1, 1, 0, 0, 0, 0, 0, 0),
) + tuple(
    tuple(x - y for x, y in zip(_unit(8, i + 1), _unit(8, i))) for i in range(6)
)

#: The simple systems of the five reflection types and of the Weyl types
#: D5-D7, E6-E8 in field scalars, as (simple roots, Gram matrix of the
#: invariant form); a Gram matrix of None is the standard dot product.  This
#: is the textbook input the integer Cartan data of
#: `constructions.REFLECTION_SPECS` and `constructions._WEYL_CARTANS` is
#: checked against.
SIMPLE_SYSTEMS = {
    "A4": (_E, ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))),
    "D4": (((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)), None),
    "B4": (((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)), None),
    "F4": (
        ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (_HALF, -_HALF, -_HALF, -_HALF)),
        None,
    ),
    "H4": (_E, (
        (_Q(2), _Q(0, -1), _Q(0), _Q(0)),
        (_Q(0, -1), _Q(2), _Q(-1), _Q(0)),
        (_Q(0), _Q(-1), _Q(2), _Q(-1)),
        (_Q(0), _Q(0), _Q(-1), _Q(2)),
    )),
    "D5": (_d_roots(5), None),
    "D6": (_d_roots(6), None),
    "D7": (_d_roots(7), None),
    "E6": (_E8_ROOTS[:6], None),
    "E7": (_E8_ROOTS[:7], None),
    "E8": (_E8_ROOTS, None),
}


def invariant_form(gram):
    """B(x, y) for a Gram matrix, the dot product for None."""
    if gram is None:
        return dot
    return lambda x, y: dot(x, tuple(dot(row, y) for row in gram))


def reference_closure_normals(field, simple_roots, gram):
    """Sorted canonical normals of the reflection closure, in field scalars.

    The reference route: every reflection found so far is applied to every
    root line, s_a(x) = x - 2 B(x,a)/B(a,a) * a with Fraction or QuadScalar
    division, round after round until no new line appears.  A hyperplane's
    normal under the standard pairing is the Gram image of its root.
    """
    form = invariant_form(gram)
    lines = {canonicalize_vector(root, field): None for root in simple_roots}
    changed = True
    while changed:
        changed = False
        reps = list(lines)
        for alpha in reps:
            aa = form(alpha, alpha)
            for x in reps:
                twice = 2 * form(x, alpha)
                if isinstance(twice, int):
                    twice = Fraction(twice)
                coef = twice / aa
                image = tuple(xi - coef * ai for xi, ai in zip(x, alpha))
                key = canonicalize_vector(image, field)
                if key not in lines:
                    lines[key] = None
                    changed = True
    if gram is None:
        normals = list(lines)
    else:
        normals = [tuple(dot(row, r) for row in gram) for r in lines]
    normals = [canonicalize_vector(v, field) for v in normals]
    normals.sort(key=cmp_to_key(compare_vectors))
    return tuple(normals)


def reference_restriction_normals(arr, h):
    """Canonical normals of the restriction to hyperplane h, in field scalars.

    The reference route: each line through h contributes a second member's
    normal, dotted with the reduced-echelon kernel basis of normal h.
    """
    basis = kernel_basis([arr.normals[h]])
    sub = []
    for flat in arr.lines():
        if flat.mask >> h & 1:
            k = next(i for i in flat.members if i != h)
            sub.append(tuple(dot(arr.normals[k], b) for b in basis))
    return Rank3Arrangement(sub, arr.field).normals


def reference_mu_data(arr):
    """(Moebius value, incident-line count) of every vertex, in vertex order.

    The reference route: every line is tested against every vertex, O(V*L);
    a line lies through a vertex when its member mask is inside the vertex's.
    """
    line_info = [(flat.mask, flat.weight - 1) for flat in arr.lines()]
    vertex_mu = []
    vertex_line_count = []
    for v in arr.vertices():
        incident = 0
        mu_sum = 0
        for lmask, lmu in line_info:
            if lmask & v.mask == lmask:
                incident += 1
                mu_sum += lmu
        vertex_line_count.append(incident)
        vertex_mu.append(-(1 - v.weight + mu_sum))
    return tuple(vertex_mu), tuple(vertex_line_count)


def reference_vertices(arr):
    """(vertices, vertex line tallies) with one full point key per candidate.

    The reference route: every (line, normal off the line) pair gives the
    point Hodge(q) w_k in all four coordinates, and the candidates are
    grouped by that canonical point; a line is counted at a vertex when the
    last line seen there changes, since all of one line's hits fall in its
    own iteration.
    """
    kernel = arr._kernel
    idot, neg, canonical = kernel.dot, kernel.neg, kernel.canonical
    hodge_w = [
        tuple(tuple(w[j] if s > 0 else neg(w[j]) for _, j, s in row) for row in _HODGE)
        for w in arr._integer_normals()
    ]
    # point -> [member mask, last line index, lines through it, their weight sum]
    found = {}
    for i, line in enumerate(arr._rank2()):
        key, line_mask = line.key, line.mask
        size = line_mask.bit_count()
        hodge_p = tuple(tuple(key[p] for p, _, _ in row) for row in _HODGE)
        for k, wk in enumerate(hodge_w):
            if line_mask >> k & 1:
                continue
            x = canonical(tuple(map(idot, hodge_p, wk)))
            entry = found.setdefault(x, [line_mask | 1 << k, i, 1, size])
            entry[0] |= 1 << k
            if entry[1] != i:
                entry[0] |= line_mask
                entry[1] = i
                entry[2] += 1
                entry[3] += size
    rows = sorted(
        (
            (Flat(mask, x, arr._kernel), count, weights)
            for x, (mask, _, count, weights) in found.items()
        ),
        key=lambda row: row[0].members,
    )
    verts = tuple(row[0] for row in rows)
    return verts, (tuple(row[1] for row in rows), tuple(row[2] for row in rows))


def chamber_feasible(arr, signs) -> bool:
    """Whether the open cone cut out by the +-1 sign vector is nonempty."""
    return feasible_strict(_oriented_normals(arr, signs), arr._kernel)


def reference_corner_signs(arr):
    """(positive mask, negative mask) of every corner flat, in corner order.

    Bit i of a mask is set when the corner's point lies on that side of
    hyperplane i, decided by the field dot product with the field normal.
    """
    out = []
    for flat in arr.corner_flats():
        pmask = nmask = 0
        for i, v in enumerate(arr.normals):
            s = sign(dot(v, flat.point))
            if s > 0:
                pmask |= 1 << i
            elif s < 0:
                nmask |= 1 << i
        out.append((pmask, nmask))
    return out


def reference_compatible_corners(corner_signs, mask, n):
    """Oriented corners of the closed cone of the chamber `mask`, as a list scan.

    The reference route: each corner and its negation are tested against the
    chamber's sign vector; a corner is kept with orientation +1 or -1 when no
    hyperplane puts it on the wrong side.  Returns (corner index, orientation)
    pairs.
    """
    notm = ((1 << n) - 1) ^ mask
    out = [
        (j, 1)
        for j, (pmask, nmask) in enumerate(corner_signs)
        if not (pmask & mask or nmask & notm)
    ]
    out += [
        (j, -1)
        for j, (pmask, nmask) in enumerate(corner_signs)
        if not (nmask & mask or pmask & notm)
    ]
    return out


def add_forms(u, v):
    """The entrywise sum of two integer forms: ints, or (a, b) pairs."""
    if isinstance(u[0], tuple):
        return tuple((a + c, b + d) for (a, b), (c, d) in zip(u, v))
    return tuple(a + b for a, b in zip(u, v))


def reference_walls(ctx, corners):
    """The candidate walls of a chamber, by a scan over every hyperplane.

    The reference route: hyperplane h is a candidate when at least dim - 1 of
    the chamber's corners `corners` lie on it, counted by bit h of each
    corner's member mask, for every h in turn.
    """
    need = ctx.dim - 1
    js = _bits(ctx.unoriented(corners))
    return tuple(h for h in range(ctx.n) if sum(ctx.members[j] >> h & 1 for j in js) >= need)


def misplaced_corners(flats, n, claims):
    """The corner flats of an arrangement of n hyperplanes with corner 0's
    member mask made wrong: it claims the lowest hyperplane its point is
    off, or omits its lowest member."""
    first = flats[0]
    off = ~first.mask & ((1 << n) - 1)
    mask = first.mask | off & -off if claims else first.mask & (first.mask - 1)
    return (Flat(mask, first.key, first._kernel), *flats[1:])


def seed_chamber(ctx, arr):
    """(mask, oriented corners) of the first chamber a walk of `arr` walks,
    the chamber of its generic point, read off the context `ctx`."""
    _, signs = generic_point(arr)
    mask = _canonical_mask(sum(1 << i for i, s in enumerate(signs) if s < 0), ctx.full)
    return mask, ctx.compatible(mask)


def seed_corners(ctx, arr):
    """The unoriented corner indices of the first chamber a walk of `arr`
    walks (`seed_chamber`)."""
    return _bits(ctx.unoriented(seed_chamber(ctx, arr)[1]))


def tamper_seed_chamber(ctx, arr, how):
    """Tamper the chamber context `ctx` of `arr` at the corners of the first
    chamber its walk walks (`seed_corners`), in place:

    - "dependent": the last corner's rank form becomes the sum of the first
      two corners' forms, so the chamber's corner forms are dependent;
    - "holds_all": the first corner's member mask gains a hyperplane on
      all other corners but off it, which then holds every corner;
    - "holds_short": the first corner's member mask gains a hyperplane on
      dim - 2 corners and off it, which then passes for one on dim - 1;
    - "zero": every corner's rank form becomes the zero form.
    """
    js = seed_corners(ctx, arr)
    if how == "dependent":
        ctx.forms[js[-1]] = add_forms(ctx.forms[js[0]], ctx.forms[js[1]])
    elif how == "zero":
        for j in js:
            ctx.forms[j] = tuple(0 if isinstance(x, int) else (0, 0) for x in ctx.forms[j])
    else:
        want = arr.dim - 1 if how == "holds_all" else arr.dim - 2
        first = js[0]
        h = next(
            h for h in range(arr.n)
            if not ctx.members[first] >> h & 1
            and sum(ctx.members[j] >> h & 1 for j in js) == want
        )
        ctx.members[first] |= 1 << h
    return ctx


def reference_canonical_key(diagram):
    """`CoxeterDiagram.canonical_key` by a fresh, uncached search.

    The reference route: the smallest upper-triangle weight word over every
    ordering of up to six walls, recomputed for each diagram.
    """
    k = len(diagram.walls)
    if k > 6:
        return f"walls={k};weights={sorted(diagram.edge_weights())}"
    index = {w: i for i, w in enumerate(diagram.walls)}
    weight = [[0] * k for _ in range(k)]
    for i, j, w in diagram.edges:
        weight[index[i]][index[j]] = weight[index[j]][index[i]] = w
    words = (
        tuple(weight[perm[a]][perm[b]] for a in range(k) for b in range(a + 1, k))
        for perm in permutations(range(k))
    )
    return f"walls={k};graph={','.join(map(str, min(words)))}"


def reference_parabolic_normals(arr, vertex):
    """Canonical normals of the parabolic at a vertex, in field scalars.

    The reference route: the free columns of the reduced echelon form of the
    vertex point are the coordinates on the quotient by its line.
    """
    _, pivots = rref([vertex.point])
    free = [c for c in range(arr.dim) if c not in pivots]
    sub = [tuple(arr.normals[i][f] for f in free) for i in vertex.members]
    return Rank3Arrangement(sub, arr.field).normals


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 12))


def _random_quad(rng: random.Random) -> QuadScalar:
    return QuadScalar(_random_rational(rng), _random_rational(rng))


def run_field_axiom_suite(cases: int, seed: int = 20240611) -> int:
    """Field axioms and order compatibility on random scalar triples.

    Alternates between the rational field and the quadratic field; returns
    the number of cases actually exercised.
    """
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        gen = _random_rational if k % 2 == 0 else _random_quad
        x, y, z = gen(rng), gen(rng), gen(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x if not isinstance(x, QuadScalar) else x.inverse()) == 1
        # trichotomy and compatibility of the order
        sx = sign(x - y)
        assert sx in (-1, 0, 1)
        assert (sx == 0) == (x == y)
        assert sign((x + z) - (y + z)) == sx
        if sign(z) > 0:
            assert sign(x * z - y * z) == sx
        done += 1
    return done


def floor_add_sqrt_interval(a: int, s: int, d: int) -> int:
    """Independent oracle for floor_add_sqrt via rational interval refinement."""
    if s < 0:
        raise NegativeRadicand(s)
    r = isqrt(s)
    if r * r == s:
        return (a + r) // d
    lo, hi = Fraction(r), Fraction(r + 1)
    while (a + lo) // d != (a + hi) // d:
        mid = (lo + hi) / 2
        if mid * mid <= s:
            lo = mid
        else:
            hi = mid
    return (a + lo) // d


def ceil_sub_sqrt_interval(a: int, s: int, d: int) -> int:
    """Independent oracle for ceil_sub_sqrt via rational interval refinement."""
    if s < 0:
        raise NegativeRadicand(s)
    r = isqrt(s)
    if r * r == s:
        return -((r - a) // d)
    lo, hi = Fraction(r), Fraction(r + 1)
    while -((lo - a) // d) != -((hi - a) // d):
        mid = (lo + hi) / 2
        if mid * mid <= s:
            lo = mid
        else:
            hi = mid
    return -((lo - a) // d)


def run_surd_floor_suite(cases: int, seed: int = 20240613) -> int:
    """floor/ceil of (a +- sqrt(s))/27 versus the interval-refinement oracle."""
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        n = rng.randint(4, 200)
        cap = (n * n + n - 2) // 3
        h = rng.randint(0, cap)
        radicand = n * n + n - 2 - 3 * h
        if k % 5 == 0:
            # force a perfect-square radicand cube: 4*c^3 with c a square
            c = rng.randint(0, 20) ** 2
            radicand = c
        a = (9 * n + 18) * h + 20 + 12 * n - 2 * n**3 - 3 * n * n
        s = 4 * radicand**3
        assert floor_add_sqrt(a, s, 27) == floor_add_sqrt_interval(a, s, 27)
        assert ceil_sub_sqrt(a, s, 27) == ceil_sub_sqrt_interval(a, s, 27)
        done += 1
    return done
