import random
from fractions import Fraction

import pytest

from arr4 import Field, QuadScalar, TAU, sign
from arr4.scalars import infer_field, lift

from helpers import run_field_axiom_suite


def test_sign_examples():
    assert sign(QuadScalar(1, -1)) == -1      # tau > 1
    assert sign(QuadScalar(0, 0)) == 0
    assert sign(QuadScalar(2, -1)) == 1       # tau < 2


def test_tau_satisfies_its_equation():
    assert TAU * TAU == TAU + 1
    assert TAU.inverse() == TAU - 1


def test_conjugate_and_norm():
    rng = random.Random(7)
    for _ in range(200):
        x = QuadScalar(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                       Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        y = QuadScalar(rng.randint(-20, 20), rng.randint(-20, 20))
        assert x * x.conj() == QuadScalar(x.norm())
        assert x.norm() == x.a * x.a + x.a * x.b - x.b * x.b
        assert (x * y).norm() == x.norm() * y.norm()


def test_field_axioms_randomized():
    assert run_field_axiom_suite(2000) == 2000


def test_division_and_powers():
    x = QuadScalar(3, -2)
    assert x / x == 1
    assert x**0 == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        QuadScalar(0).inverse()


def test_subtraction_from_a_rational():
    # int - QuadScalar goes through QuadScalar.__rsub__
    assert 1 - TAU == QuadScalar(1, -1)
    assert Fraction(1, 2) - TAU == QuadScalar(Fraction(1, 2), -1)
    assert (1 - TAU) * TAU == -1


def test_comparisons_against_rationals():
    assert TAU > 1
    assert TAU < 2
    assert Fraction(8, 5) < TAU < Fraction(13, 8)
    assert QuadScalar(Fraction(1, 2)) == Fraction(1, 2)
    assert sorted([TAU, 1, QuadScalar(2, -1), 0]) == [0, QuadScalar(2, -1), 1, TAU]


def test_hash_consistency_with_rationals():
    assert hash(QuadScalar(7)) == hash(Fraction(7)) == hash(7)
    assert hash(QuadScalar(Fraction(3, 2))) == hash(Fraction(3, 2))
    d = {QuadScalar(5): "quad"}
    assert d[5] == "quad"


def test_lift_and_infer():
    assert lift(3, Field.QUADRATIC_TAU) == QuadScalar(3)
    assert lift(QuadScalar(3), Field.RATIONAL) == Fraction(3)
    with pytest.raises(ValueError):
        lift(TAU, Field.RATIONAL)
    assert infer_field([1, Fraction(2)]) is Field.RATIONAL
    assert infer_field([1, TAU]) is Field.QUADRATIC_TAU
