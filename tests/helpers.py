"""Shared fixtures-in-code and the randomized property suites.

The property runners live here (not in a test module) so both the unit tests
and the acceptance suite can invoke them with their own case counts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from arr4 import Arrangement, Field, QuadScalar, sign
from arr4.invariants import (
    ceil_sub_sqrt,
    ceil_sub_sqrt_interval,
    floor_add_sqrt,
    floor_add_sqrt_interval,
)


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
