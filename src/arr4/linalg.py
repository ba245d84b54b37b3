"""Exact linear algebra over the coordinate fields, on one integer kernel.

Every decision runs on positive rescalings of vectors into primitive ints
(Q) or integer pairs a + b*tau (Q(tau)): the per-field table `KERNELS`
(integer form, zero, dot, negation, sign, canonical key with an orientation
flag, batched grouping on P^1, maximal minors, batched dots, field point)
and `rank_basis`.  The intersection lattice, the restrictions, the
reflection closure, reducibility, the chamber context and its facet
certificate, and the Fourier-Motzkin wall test all run on it.  One
field-scalar helper remains: `compare_vectors` (the exact lexicographic order
that sorts normals for output).  The canonical field form of a vector is
point(canonical(ints(v))) for both fields.  The batches take plain
normals, written out for lengths 3 and 4: `group(p, q, rows)` keys the
point [p.w : q.w] of P^1 of each row (bit, w) from its two integer-form
scalars (for Q(tau), by the ratio y/x), and `dots(v, forms)` is v's dot
with each form.  The lattice groups the hits on a line (p, q two rows of
its Hodge dual) and the points on a restricted line (two rows of its
cross-product matrix), handing over only the normals of flats that no
earlier line has grouped; `group` keys are never stored.  `normal` writes
out the maximal minors of k = 1 ... dim - 1 forms, and it is the one rank
primitive: the rank-2 flats are keyed by the minors of two normals;
`rank_basis` picks the first basis of a list of forms by nonzero minors
(essentialness, the derived arrangements' checks, the greedy basis of
reducibility, the chamber edges); the normals of that basis less one row
give reducibility's fundamental circuits; and the chamber walk certifies
each facet by them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg
from typing import Callable, NamedTuple

from .scalars import Field, QuadScalar, pair_sign, sign


def _cleared(vec):
    """A rational vector times the lcm of its denominators, as ints."""
    scale = lcm(*(x.denominator for x in vec))
    return [x.numerator * (scale // x.denominator) for x in vec]


def primitive(ints, oriented=False):
    """A nonzero integer vector divided by the gcd of its entries.

    Unless `oriented`, the sign is also fixed so that the first nonzero entry
    is positive, which makes the result unique per projective class.  With
    `oriented` the divisor is positive, so the result is unique per class of
    positive rescalings (one open half-space constraint).  A zero vector
    raises ValueError, as in `pair_vector_canonical`.
    """
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no canonical form")
    if not oriented:
        for x in ints:
            if x:
                if x < 0:
                    g = -g
                break
    return tuple([x // g for x in ints])


def compare_vectors(u, v) -> int:
    """Lexicographic comparison using the exact field order."""
    for a, b in zip(u, v):
        s = sign(a - b)
        if s:
            return s
    return 0


# -- integer pairs for Q(tau) ------------------------------------------------------
#
# A quadratic vector scaled by the positive lcm of its component denominators
# becomes a tuple of plain integer pairs (a, b) standing for a + b*tau.  Signs,
# zero tests and ranks are unchanged by the positive scaling, so sign-of-dot
# work, minors and rank tests run on machine integers instead of
# Fraction-backed scalars.


def to_int_pairs(vec):
    """Clear denominators: vector of scalars -> tuple of (a, b) integer pairs."""
    pairs = [(x.a, x.b) if isinstance(x, QuadScalar) else (x, 0) for x in vec]
    scale = lcm(*(y.denominator for pair in pairs for y in pair))
    return tuple(
        (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        for a, b in pairs
    )


def pair_dot(u, v):
    """Inner product of two integer-pair vectors, as an integer pair."""
    sa = 0
    sb = 0
    for (a, b), (c, d) in zip(u, v):
        bd = b * d
        sa += a * c + bd
        sb += a * d + b * c + bd
    return (sa, sb)


def _times_conj_of_first(pairs):
    """The pairs times the conjugate of the first nonzero one, its norm, the conjugate.

    For the first nonzero entry c + d*tau the conjugate is (c + d) - d*tau,
    and the product turns that entry into the rational norm c^2 + cd - d^2.
    """
    for c, d in pairs:
        if c or d:
            break
    else:
        raise ValueError("zero vector has no canonical form")
    e = c + d
    scaled = [(a * e - b * d, b * e - (a + b) * d) for a, b in pairs]
    return scaled, c * c + c * d - d * d, (e, -d)


def pair_vector_canonical(pairs, oriented=False):
    """Canonical form of a nonzero integer-pair vector, unique per projective class.

    Multiplying through by the conjugate of the first nonzero entry turns any
    two representatives (which may differ by an irrational factor) into
    vectors differing by a rational factor only, because lambda * conj(lambda)
    is the rational field norm; dividing by the integer content and fixing
    the sign of the first nonzero entry (that norm) then lands on a unique
    representative.  With `oriented` the sign is fixed instead so that the
    whole factor, conjugate over content, is positive: the result is then a
    positive multiple of the input, unique per class of positive rescalings.
    """
    scaled, norm, conj = _times_conj_of_first(pairs)
    g = 0
    for a, b in scaled:
        g = gcd(g, a, b)
    if (pair_sign(conj) if oriented else norm) < 0:
        g = -g
    return tuple([(a // g, b // g) for a, b in scaled])


#: the P^1 key of [0 : 1], where the ratio y/x is infinite; every other key
#: has a positive first entry
_PAIR_INFINITY = (0, 1, 0)


def pair_group(p, q, rows):
    """Rows (bit, w) of integer-pair normals of p's length (3 or 4), grouped
    by the point [p.w : q.w] of P^1: {key: OR of the bits at that key}.

    For x = p.w != 0 the key is the ratio y/x = y*conj(x) / N(x), N(x) the
    nonzero rational norm, as the triple (N, r, s) standing for
    (r + s*tau)/N, with N > 0 and no common factor; x = 0 is
    `_PAIR_INFINITY`.  A row with x = y = 0 raises ValueError.  Both dots of
    a row are written out in one comprehension, as in `pair_dots`.
    """
    if len(p) == 4:
        (pa0, pb0), (pa1, pb1), (pa2, pb2), (pa3, pb3) = p
        (qa0, qb0), (qa1, qb1), (qa2, qb2), (qa3, qb3) = q
        hits = [
            (
                bit,
                pa0 * c0 + pa1 * c1 + pa2 * c2 + pa3 * c3
                + (bd := pb0 * d0 + pb1 * d1 + pb2 * d2 + pb3 * d3),
                pa0 * d0 + pb0 * c0 + pa1 * d1 + pb1 * c1 + pa2 * d2 + pb2 * c2 + pa3 * d3
                + pb3 * c3 + bd,
                qa0 * c0 + qa1 * c1 + qa2 * c2 + qa3 * c3
                + (bd := qb0 * d0 + qb1 * d1 + qb2 * d2 + qb3 * d3),
                qa0 * d0 + qb0 * c0 + qa1 * d1 + qb1 * c1 + qa2 * d2 + qb2 * c2 + qa3 * d3
                + qb3 * c3 + bd,
            )
            for bit, ((c0, d0), (c1, d1), (c2, d2), (c3, d3)) in rows
        ]
    else:
        (pa0, pb0), (pa1, pb1), (pa2, pb2) = p
        (qa0, qb0), (qa1, qb1), (qa2, qb2) = q
        hits = [
            (
                bit,
                pa0 * c0 + pa1 * c1 + pa2 * c2 + (bd := pb0 * d0 + pb1 * d1 + pb2 * d2),
                pa0 * d0 + pb0 * c0 + pa1 * d1 + pb1 * c1 + pa2 * d2 + pb2 * c2 + bd,
                qa0 * c0 + qa1 * c1 + qa2 * c2 + (bd := qb0 * d0 + qb1 * d1 + qb2 * d2),
                qa0 * d0 + qb0 * c0 + qa1 * d1 + qb1 * c1 + qa2 * d2 + qb2 * c2 + bd,
            )
            for bit, ((c0, d0), (c1, d1), (c2, d2)) in rows
        ]
    groups = {}
    for bit, a, b, c, d in hits:  # [x : y] = [a + b*tau : c + d*tau]
        if a or b:
            e = a + b  # conj(x) = e - b*tau
            bd = b * d
            n = a * e - b * b
            r = c * e - bd
            s = d * e - b * c - bd
            g = gcd(n, r, s)
            if n < 0:
                g = -g
            key = (n // g, r // g, s // g)
        elif c or d:
            key = _PAIR_INFINITY
        else:
            raise ValueError("zero vector has no position")
        groups[key] = groups.get(key, 0) | bit
    return groups


def _pair_minors(u, v):
    """The six 2x2 minors u_a v_b - u_b v_a of two integer-pair forms of
    length 4, (a, b) in the order 01, 02, 03, 12, 13, 23; the pair products
    are written out."""
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = u
    (c0, d0), (c1, d1), (c2, d2), (c3, d3) = v
    bd = b0 * d1 - b1 * d0
    m01 = (a0 * c1 - a1 * c0 + bd, a0 * d1 + b0 * c1 - a1 * d0 - b1 * c0 + bd)
    bd = b0 * d2 - b2 * d0
    m02 = (a0 * c2 - a2 * c0 + bd, a0 * d2 + b0 * c2 - a2 * d0 - b2 * c0 + bd)
    bd = b0 * d3 - b3 * d0
    m03 = (a0 * c3 - a3 * c0 + bd, a0 * d3 + b0 * c3 - a3 * d0 - b3 * c0 + bd)
    bd = b1 * d2 - b2 * d1
    m12 = (a1 * c2 - a2 * c1 + bd, a1 * d2 + b1 * c2 - a2 * d1 - b2 * c1 + bd)
    bd = b1 * d3 - b3 * d1
    m13 = (a1 * c3 - a3 * c1 + bd, a1 * d3 + b1 * c3 - a3 * d1 - b3 * c1 + bd)
    bd = b2 * d3 - b3 * d2
    m23 = (a2 * c3 - a3 * c2 + bd, a2 * d3 + b2 * c3 - a3 * d2 - b3 * c2 + bd)
    return (m01, m02, m03, m12, m13, m23)


def pair_normal(rows):
    """The maximal minors of k = 1 ... dim - 1 integer-pair forms of length
    dim (3 or 4); zero exactly when the rows are dependent.

    One row is its own minors, and two rows of length 4 give their six 2x2
    minors (`_pair_minors`).  For dim - 1 rows, entry k is (-1)^k times the
    minor without column k, so the result is orthogonal to every row: the
    cross product in K^3 and its analogue in K^4.  The 2x2 minors and the
    pair products are written out.
    """
    if len(rows) == 1:
        return rows[0]
    if len(rows[0]) == 3:
        ((a0, b0), (a1, b1), (a2, b2)), ((c0, d0), (c1, d1), (c2, d2)) = rows
        bd = b1 * d2 - b2 * d1
        n0 = (a1 * c2 - a2 * c1 + bd, a1 * d2 + b1 * c2 - a2 * d1 - b2 * c1 + bd)
        bd = b2 * d0 - b0 * d2
        n1 = (a2 * c0 - a0 * c2 + bd, a2 * d0 + b2 * c0 - a0 * d2 - b0 * c2 + bd)
        bd = b0 * d1 - b1 * d0
        n2 = (a0 * c1 - a1 * c0 + bd, a0 * d1 + b0 * c1 - a1 * d0 - b1 * c0 + bd)
        return (n0, n1, n2)
    minors = _pair_minors(rows[0], rows[1])
    if len(rows) == 2:
        return minors
    (x01, y01), (x02, y02), (x03, y03), (x12, y12), (x13, y13), (x23, y23) = minors
    (w0, z0), (w1, z1), (w2, z2), (w3, z3) = rows[2]
    # entry k expands the minor without column k along w
    bd = z1 * y23 - z2 * y13 + z3 * y12
    n0 = (
        w1 * x23 - w2 * x13 + w3 * x12 + bd,
        w1 * y23 + z1 * x23 - w2 * y13 - z2 * x13 + w3 * y12 + z3 * x12 + bd,
    )
    bd = z2 * y03 - z0 * y23 - z3 * y02
    n1 = (
        w2 * x03 - w0 * x23 - w3 * x02 + bd,
        w2 * y03 + z2 * x03 - w0 * y23 - z0 * x23 - w3 * y02 - z3 * x02 + bd,
    )
    bd = z0 * y13 - z1 * y03 + z3 * y01
    n2 = (
        w0 * x13 - w1 * x03 + w3 * x01 + bd,
        w0 * y13 + z0 * x13 - w1 * y03 - z1 * x03 + w3 * y01 + z3 * x01 + bd,
    )
    bd = z1 * y02 - z0 * y12 - z2 * y01
    n3 = (
        w1 * x02 - w0 * x12 - w2 * x01 + bd,
        w1 * y02 + z1 * x02 - w0 * y12 - z0 * x12 - w2 * y01 - z2 * x01 + bd,
    )
    return (n0, n1, n2, n3)


def pair_dots(v, forms):
    """The dot v . f for each integer-pair form f, all of v's length (3 or
    4), as a list of integer pairs; the pair products are written out."""
    if len(v) == 4:
        (c0, d0), (c1, d1), (c2, d2), (c3, d3) = v
        return [
            (
                a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3
                + (bd := b0 * d0 + b1 * d1 + b2 * d2 + b3 * d3),
                a0 * d0 + b0 * c0 + a1 * d1 + b1 * c1 + a2 * d2 + b2 * c2 + a3 * d3 + b3 * c3
                + bd,
            )
            for (a0, b0), (a1, b1), (a2, b2), (a3, b3) in forms
        ]
    (c0, d0), (c1, d1), (c2, d2) = v
    return [
        (
            a0 * c0 + a1 * c1 + a2 * c2 + (bd := b0 * d0 + b1 * d1 + b2 * d2),
            a0 * d0 + b0 * c0 + a1 * d1 + b1 * c1 + a2 * d2 + b2 * c2 + bd,
        )
        for (a0, b0), (a1, b1), (a2, b2) in forms
    ]


def pair_point(pairs):
    """Field vector of a nonzero integer-pair vector, its first nonzero entry 1.

    After multiplying by the conjugate of the first nonzero entry, that
    entry's rational norm is the only divisor.
    """
    scaled, norm, _ = _times_conj_of_first(pairs)
    return tuple(QuadScalar(Fraction(a, norm), Fraction(b, norm)) for a, b in scaled)


# -- the kernel table --------------------------------------------------------------
#
# The intersection lattice, the restrictions, the reflection closure,
# reducibility and both chamber routes run on integer forms only.  Each
# vector is scaled by a positive factor into primitive ints (rational) or
# integer pairs (Q(tau)); minors, dot products, reflections and
# Fourier-Motzkin elimination then stay in Z or Z[tau], and flats and mirror
# normals are grouped by a canonical key that is unique per projective class.
# The two batches take plain integer normals.  The points of P^1 on one line
# (a line's hits, a restricted line's points) are grouped in one `group`
# call on rows (bit, w), keyed by [p.w : q.w] for two forms p and q of the
# line, and the keys are never stored.  `dots` gives the dot of one vector
# with a batch of forms, from which the chamber context reads the side of
# every corner on one hyperplane, and the vertex pass's witness its point.
# Both are written out for lengths 3 and 4; `dot` is the general loop, for
# any length.  `normal` writes out the maximal minors of k = 1 ... dim - 1
# forms (for dim - 1 forms the cross product in K^3 and its analogue in K^4,
# orthogonal to each of them): nonzero exactly when the forms are
# independent, so every rank decision reads them, through `rank_basis` or
# directly, without an elimination.  Field scalars come back only when an
# arrangement's normals or a flat's point are read: `point` divides by the
# first nonzero coordinate in integers (for Q(tau), by its norm after
# multiplying by its conjugate), and point(canonical(ints(v))) is the one
# canonical path from a field vector to its class representative.  With
# `oriented=True` the same `canonical` keeps the sign (a positive multiple
# of its input), which is how Fourier-Motzkin deduplicates half-space
# constraints.  The table below holds every field decision these layers
# make.


class FieldKernel(NamedTuple):
    """Integer arithmetic of one coordinate field."""

    #: field vector -> integer form, a positive rescaling of it
    ints: Callable
    #: the integer-form zero
    zero: object
    #: inner product of two integer forms of one length, an integer-form scalar
    dot: Callable
    #: negation of an integer-form scalar
    neg: Callable
    #: sign of an integer-form scalar
    sign: Callable
    #: nonzero integer form -> hashable key, unique per projective class;
    #: with oriented=True, a positive multiple unique per positive rescaling
    canonical: Callable
    #: group(p, q, rows): two forms of length 3 or 4 and rows (bit, w) of
    #: integer normals w of that length -> {key of the point [p.w : q.w] of
    #: P^1, unique per projective class: OR of the rows' bits}; the keys
    #: only group, and are never stored
    group: Callable
    #: normal(rows): k = 1 ... dim - 1 integer forms of length dim (3 or 4)
    #: -> their maximal minors, zero exactly when the rows are dependent: the
    #: row itself for k = 1, the six 2x2 minors in `_MINORS[4]` order for
    #: k = 2 in K^4, and for k = dim - 1 signed so that the result is
    #: orthogonal to every row
    normal: Callable
    #: dots(v, forms): v . f for each form f of v's length (3 or 4), as a
    #: list of integer-form scalars
    dots: Callable
    #: key -> the class representative in field scalars: primitive ints with
    #: a positive lead for Q, first nonzero coordinate 1 for Q(tau)
    point: Callable


def _int_dot(u, v):
    """Inner product of two integer vectors."""
    return sum(map(mul, u, v))


def _int_normal(rows):
    """The maximal minors of k = 1 ... dim - 1 integer forms of length dim
    (3 or 4), as in `pair_normal`: the row itself, the six 2x2 minors m01
    ... m23 of two rows of length 4, or the signed normal of dim - 1 rows,
    with the 2x2 minors written out.
    """
    if len(rows) == 1:
        return rows[0]
    if len(rows[0]) == 3:
        (a0, a1, a2), (c0, c1, c2) = rows
        return (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0)
    (a0, a1, a2, a3), (c0, c1, c2, c3) = rows[0], rows[1]
    m01 = a0 * c1 - a1 * c0
    m02 = a0 * c2 - a2 * c0
    m03 = a0 * c3 - a3 * c0
    m12 = a1 * c2 - a2 * c1
    m13 = a1 * c3 - a3 * c1
    m23 = a2 * c3 - a3 * c2
    if len(rows) == 2:
        return (m01, m02, m03, m12, m13, m23)
    w0, w1, w2, w3 = rows[2]
    return (
        w1 * m23 - w2 * m13 + w3 * m12,
        w2 * m03 - w0 * m23 - w3 * m02,
        w0 * m13 - w1 * m03 + w3 * m01,
        w1 * m02 - w0 * m12 - w2 * m01,
    )


def _int_dots(v, forms):
    """The dot v . f for each integer form f, all of v's length (3 or 4), as
    a list; the products are written out."""
    if len(v) == 4:
        v0, v1, v2, v3 = v
        return [v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3 for a0, a1, a2, a3 in forms]
    v0, v1, v2 = v
    return [v0 * a0 + v1 * a1 + v2 * a2 for a0, a1, a2 in forms]


def _int_group(p, q, rows):
    """Rows (bit, w) of integer normals of p's length (3 or 4), grouped by
    the point [p.w : q.w] of P^1: {key: OR of the bits at that key}, the key
    (x, y) over their gcd with the first nonzero entry positive.

    A row with x = y = 0 raises ValueError.  Both dots of a row are written
    out in one comprehension, as in `_int_dots`.
    """
    if len(p) == 4:
        p0, p1, p2, p3 = p
        q0, q1, q2, q3 = q
        hits = [
            (bit, p0 * w0 + p1 * w1 + p2 * w2 + p3 * w3, q0 * w0 + q1 * w1 + q2 * w2 + q3 * w3)
            for bit, (w0, w1, w2, w3) in rows
        ]
    else:
        p0, p1, p2 = p
        q0, q1, q2 = q
        hits = [
            (bit, p0 * w0 + p1 * w1 + p2 * w2, q0 * w0 + q1 * w1 + q2 * w2)
            for bit, (w0, w1, w2) in rows
        ]
    groups = {}
    for bit, x, y in hits:
        g = gcd(x, y)
        if not g:
            raise ValueError("zero vector has no position")
        if x < 0 or not x and y < 0:
            g = -g
        key = (x // g, y // g)
        groups[key] = groups.get(key, 0) | bit
    return groups


KERNELS = {
    Field.RATIONAL: FieldKernel(
        ints=lambda vec: primitive(_cleared(vec), oriented=True),
        zero=0,
        dot=_int_dot,
        neg=neg,
        sign=lambda x: (x > 0) - (x < 0),
        canonical=primitive,
        group=_int_group,
        normal=_int_normal,
        dots=_int_dots,
        point=tuple,
    ),
    Field.QUADRATIC_TAU: FieldKernel(
        ints=to_int_pairs,
        zero=(0, 0),
        dot=pair_dot,
        neg=lambda x: (-x[0], -x[1]),
        sign=pair_sign,
        canonical=pair_vector_canonical,
        group=pair_group,
        normal=pair_normal,
        dots=pair_dots,
        point=pair_point,
    ),
}


def rank_basis(rows, kernel):
    """Indices of the first basis of the rows' span met in row order, so its
    length is their rank; [] for no rows.

    Rows are integer forms of one length dim, 3 or 4.  While fewer than
    dim - 1 rows are chosen, a row joins when the maximal minors
    (`kernel.normal`) of the chosen rows and it are nonzero; after that,
    when its dot with the chosen rows' normal is nonzero, which completes
    the basis.
    """
    normal, sign, dot = kernel.normal, kernel.sign, kernel.dot
    basis, chosen, minors = [], [], None
    for i, row in enumerate(rows):
        if len(chosen) + 1 < len(row):
            joined = normal(chosen + [row])
            if any(map(sign, joined)):
                basis.append(i)
                chosen.append(row)
                minors = joined
        elif sign(dot(minors, row)):
            basis.append(i)
            break
    return basis
