"""Shared fixtures-in-code and the randomized property suites.

The property runners live here (not in a test module) so both the unit tests
and the acceptance suite can invoke them with their own case counts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

from arr4 import Arrangement, Field, QuadScalar, Rank3Arrangement, sign
from arr4.invariants import (
    ceil_sub_sqrt,
    ceil_sub_sqrt_interval,
    floor_add_sqrt,
    floor_add_sqrt_interval,
)
from arr4.linalg import canonicalize_vector, compare_vectors, dot, kernel_basis


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


def reference_closure_normals(spec):
    """Sorted canonical normals of the reflection closure, in field scalars.

    The reference route: every reflection found so far is applied to every
    root line, s_a(x) = x - 2 B(x,a)/B(a,a) * a with Fraction or QuadScalar
    division, round after round until no new line appears.
    """
    gram = spec.gram

    def form(x, y):
        if gram is None:
            return dot(x, y)
        return dot(x, tuple(dot(row, y) for row in gram))

    lines = {canonicalize_vector(root, spec.field): None for root in spec.simple_roots}
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
                key = canonicalize_vector(image, spec.field)
                if key not in lines:
                    lines[key] = None
                    changed = True
    if gram is None:
        normals = list(lines)
    else:
        normals = [tuple(dot(row, r) for row in gram) for r in lines]
    normals = [canonicalize_vector(v, spec.field) for v in normals]
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
