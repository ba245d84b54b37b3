import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arr4 import Matrix, QuadScalar, TAU, kernel_basis, rank
from arr4.linalg import (
    canonicalize_ray,
    canonicalize_vector,
    dot,
    int_rank,
    pair_dot,
    pair_mul,
    pair_sign,
    pair_vector_canonical,
    pairs_to_quads,
    to_int_pairs,
)
from arr4.scalars import Field


E = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_rank_examples():
    assert rank(Matrix(E)) == 4
    assert rank([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]) == 2
    assert rank(Matrix([], cols=4)) == 0


def test_kernel_examples():
    assert kernel_basis([E[0], E[1]]) == [
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert kernel_basis(Matrix(E)) == []
    basis = kernel_basis([(1, 1, 0, 0)])
    assert len(basis) == 3
    for vec in basis:
        assert dot((1, 1, 0, 0), vec) == 0


def _random_matrix(rng, rows, cols):
    return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]


def test_rank_transpose_and_shuffle_invariance():
    rng = random.Random(11)
    for _ in range(150):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5))
        m = Matrix(rows)
        assert m.rank() == m.transpose().rank()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert Matrix(shuffled).rank() == m.rank()


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(120):
        rows = _random_matrix(rng, rng.randint(1, 5), 4)
        basis = kernel_basis(rows)
        assert len(basis) == 4 - rank(rows)
        for vec in basis:
            for row in rows:
                assert dot(row, vec) == 0


def test_quadratic_kernel():
    rows = [(TAU, 1, 0, 0)]
    basis = kernel_basis(rows)
    assert len(basis) == 3
    for vec in basis:
        assert dot(rows[0], vec) == 0
        assert all(isinstance(x, QuadScalar) for x in vec)


def test_canonicalize_vector_rational():
    assert canonicalize_vector([Fraction(1, 2), Fraction(-3, 4), 0, 0],
                               Field.RATIONAL) == (2, -3, 0, 0)
    assert canonicalize_vector([-2, 4, -6, 0], Field.RATIONAL) == (1, -2, 3, 0)
    with pytest.raises(ValueError):
        canonicalize_vector([0, 0, 0, 0], Field.RATIONAL)


def test_canonicalize_vector_quadratic():
    vec = canonicalize_vector([TAU, 1, 0, QuadScalar(1, 1)], Field.QUADRATIC_TAU)
    assert vec[0] == 1
    # scaling by any nonzero field element leaves the canonical form alone
    scaled = [QuadScalar(2, -3) * x for x in vec]
    assert canonicalize_vector(scaled, Field.QUADRATIC_TAU) == vec


def test_canonicalize_ray_preserves_orientation():
    assert canonicalize_ray((2, -4, 6)) == (1, -2, 3)
    assert canonicalize_ray((-2, 4, -6)) == (-1, 2, -3)
    assert canonicalize_ray((0, 0)) is None
    ray = canonicalize_ray((QuadScalar(0, -2), QuadScalar(4)))
    assert pair_sign((int(ray[0].a), int(ray[0].b))) == -1


def test_int_pair_arithmetic_matches_quadscalar():
    rng = random.Random(17)
    for _ in range(300):
        x = QuadScalar(Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
        y = QuadScalar(rng.randint(-30, 30), rng.randint(-30, 30))
        u = to_int_pairs([x, y])
        assert pair_sign(u[0]) == x.sign()
        assert pair_sign(u[1]) == y.sign()
        v = to_int_pairs([y, x])
        da, db = pair_dot(u, v)
        expected = x * y + y * x
        # pair vectors are positively rescaled, so only the sign is stable
        assert pair_sign((da, db)) == expected.sign()


def test_pair_vector_canonical_collapses_field_scalings():
    base = [TAU, QuadScalar(1, -1), QuadScalar(0), QuadScalar(3, 2)]
    key = pair_vector_canonical(to_int_pairs(base))
    for factor in (QuadScalar(-1), TAU, QuadScalar(2, -5), QuadScalar(Fraction(1, 3))):
        scaled = [factor * x for x in base]
        assert pair_vector_canonical(to_int_pairs(scaled)) == key


_SMALL = st.integers(-4, 4)


@st.composite
def _rank_rows(draw, pairs):
    """Rows of width 3 or 4 mixing free rows with zero, repeated and dependent ones."""
    width = draw(st.sampled_from((3, 4)))
    entry = st.tuples(_SMALL, _SMALL) if pairs else _SMALL
    zero = (0, 0) if pairs else 0
    base = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=4))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combo")), max_size=4)):
        if kind == "zero":
            rows.append((zero,) * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(base)))
        else:
            coeffs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            combo = [zero] * width
            for c, row in zip(coeffs, base):
                for j, x in enumerate(row):
                    if pairs:
                        m = pair_mul(c, x)
                        combo[j] = (combo[j][0] + m[0], combo[j][1] + m[1])
                    else:
                        combo[j] += c * x
            rows.append(tuple(combo))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=False))
def test_int_rank_matches_rank_on_int_rows(rows):
    assert int_rank(rows) == rank(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=True))
def test_int_rank_matches_rank_on_pair_rows(rows):
    assert int_rank(rows) == rank([pairs_to_quads(row) for row in rows])


def test_int_rank_edge_cases():
    assert int_rank([]) == 0
    assert int_rank([(0, 0, 0)]) == 0
    assert int_rank([((0, 0), (0, 0), (0, 0))]) == 0
    # 1 and tau are independent over Q but not over Q(tau)
    assert int_rank([((1, 0), (0, 1)), ((0, 1), (1, 1))]) == 1
    assert int_rank([(0, 1, 0), (0, 2, 0), (0, 0, 5)]) == 2
