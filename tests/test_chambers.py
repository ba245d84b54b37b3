import random

import pytest

from arr4 import (
    Arrangement,
    ChamberLimitReached,
    EmptyChamber,
    builtin,
    char_poly_moebius,
    coxeter_diagram,
    enumerate_chambers,
    is_irreducible_diagrams,
    is_simplicial,
    is_simply_laced,
    walls,
)
from arr4.chambers import (
    _canonical_mask,
    chamber_face_counts,
    chamber_feasible,
    feasible_strict,
    generic_point,
)
from arr4.linalg import dot
from arr4.scalars import Field, QuadScalar, sign


def _chamber_count_oracle(arr):
    return char_poly_moebius(arr)(-1) // 2


def test_boolean_chambers(boolean):
    chambers = enumerate_chambers(boolean)
    assert len(chambers) == 8 == _chamber_count_oracle(boolean)
    for ch in chambers:
        assert ch.walls == (0, 1, 2, 3)
        assert ch.signs[0] == 1
    assert is_simplicial(boolean)
    diagram = coxeter_diagram(boolean, chambers[0])
    assert diagram.edges == ()
    assert not diagram.is_connected()
    assert not is_irreducible_diagrams(boolean)
    assert is_simply_laced(boolean)  # vacuously: no edges at all


@pytest.mark.parametrize("name,count", [("A4", 60), ("D4", 96), ("B4", 192), ("F4", 576)])
def test_reflection_chamber_counts(name, count):
    arr = builtin(name)
    chambers = enumerate_chambers(arr)
    assert len(chambers) == count == _chamber_count_oracle(arr)
    assert all(len(ch.walls) == 4 for ch in chambers)


def test_a4_diagrams_are_paths():
    arr = builtin("A4")
    for ch in enumerate_chambers(arr):
        diagram = coxeter_diagram(arr, ch)
        assert diagram.edge_weights() == (3, 3, 3)
        assert diagram.degrees() == (1, 1, 2, 2)
        assert diagram.is_connected()


def test_d4_diagrams_are_stars():
    arr = builtin("D4")
    for ch in enumerate_chambers(arr):
        diagram = coxeter_diagram(arr, ch)
        assert diagram.edge_weights() == (3, 3, 3)
        assert diagram.degrees() == (1, 1, 1, 3)


def test_simply_laced_predicates():
    assert is_simply_laced(builtin("A4"))
    assert is_simply_laced(builtin("D4"))
    assert not is_simply_laced(builtin("B4"))
    assert not is_simply_laced(builtin("H4"))


def test_irreducibility_agreement(boolean):
    for arr in (boolean, builtin("A4"), builtin("F4")):
        assert is_irreducible_diagrams(arr) == (arr.reducible_partition() is None)


def test_generic5_not_simplicial(generic5):
    chambers = enumerate_chambers(generic5)
    assert len(chambers) == 15 == _chamber_count_oracle(generic5)
    assert not is_simplicial(generic5)
    assert max(len(ch.walls) for ch in chambers) == 5


def test_witness_points_realize_signs(boolean, generic5):
    for arr in (boolean, generic5, builtin("A4")):
        for ch in enumerate_chambers(arr):
            observed = tuple(sign(dot(v, ch.witness)) for v in arr.normals)
            assert observed == ch.signs


def test_bfs_closure_under_wall_flips(boolean):
    for arr in (boolean, builtin("A4"), builtin("D4")):
        masks = {ch.mask for ch in enumerate_chambers(arr)}
        full = (1 << arr.n) - 1
        for ch in enumerate_chambers(arr):
            for h in ch.walls:
                assert _canonical_mask(ch.mask ^ (1 << h), full) in masks


def test_antipodal_canonicalization_idempotent():
    rng = random.Random(20240612)
    for n in (4, 10, 17):
        full = (1 << n) - 1
        for _ in range(500):
            mask = rng.randrange(1 << n)
            canon = _canonical_mask(mask, full)
            assert canon & 1 == 0
            assert _canonical_mask(canon, full) == canon
            assert _canonical_mask(mask ^ full, full) == canon


def test_fm_walls_match_corner_walls(boolean, generic5):
    for arr in (boolean, generic5, builtin("A4"), builtin("D4")):
        for ch in enumerate_chambers(arr):
            assert walls(arr, ch.signs) == ch.walls
    b4 = builtin("B4")
    for ch in enumerate_chambers(b4)[:24]:
        assert walls(b4, ch.signs) == ch.walls
    a27 = builtin("A^3_1(27)")
    for ch in enumerate_chambers(a27)[:6]:
        assert walls(a27, ch.signs) == ch.walls


def test_walls_rejects_empty_chamber():
    arr = builtin("A4")
    masks = {ch.mask for ch in enumerate_chambers(arr)}
    bad = next(m for m in range(0, 1 << arr.n, 2) if m not in masks)
    signs = tuple(-1 if bad >> i & 1 else 1 for i in range(arr.n))
    assert not chamber_feasible(arr, signs)
    with pytest.raises(EmptyChamber):
        walls(arr, signs)
    with pytest.raises(ValueError):
        walls(arr, (0,) * arr.n)


def test_feasible_strict_basics():
    assert feasible_strict([(1, 0), (0, 1)])
    assert not feasible_strict([(1, 0), (-1, 0)])
    assert not feasible_strict([(0, 0)])
    assert feasible_strict([])
    # opposite rays in disguise (positive rescaling must not merge them)
    assert not feasible_strict([(2, -4), (-1, 2)])


def test_generic_point_avoids_all_hyperplanes(boolean, generic5):
    for arr in (boolean, generic5, builtin("F4"), builtin("A^3_1(28)")):
        point, signs = generic_point(arr)
        assert all(s != 0 for s in signs)
        assert tuple(sign(dot(v, point)) for v in arr.normals) == tuple(signs)


def test_simplicial_face_counts():
    arr = builtin("A4")
    for ch in enumerate_chambers(arr)[:12]:
        corners, edges = chamber_face_counts(arr, ch)
        assert corners == 4 and edges == 6
    a28 = builtin("A^3_1(28)")
    for ch in enumerate_chambers(a28)[:5]:
        assert chamber_face_counts(a28, ch) == (4, 6)


def test_enumeration_limit():
    arr = builtin("D4")
    arr._cache.pop("chambers", None)
    with pytest.raises(ChamberLimitReached):
        enumerate_chambers(arr, limit=10)
    assert len(enumerate_chambers(arr)) == 96
    with pytest.raises(ChamberLimitReached):
        enumerate_chambers(arr, limit=10)  # served from cache, still enforced


def test_canonical_output_order():
    arr = builtin("A4")
    chambers = enumerate_chambers(arr)
    assert [ch.mask for ch in chambers] == sorted(ch.mask for ch in chambers)


def test_rank3_chamber_engine_matches_zaslavsky(boolean):
    sub = boolean.restriction(0)
    chambers = enumerate_chambers(sub)
    assert len(chambers) == sub.projective_chamber_count() == 4
    assert is_simplicial(sub)
    a4 = builtin("A4")
    for h in (0, 3):
        sub = a4.restriction(h)
        assert len(enumerate_chambers(sub)) == sub.projective_chamber_count()


def test_parabolics_of_simplicial_builtins_are_simplicial():
    for name in ("A4", "D4"):
        arr = builtin(name)
        for v in arr.vertices():
            assert is_simplicial(arr.parabolic(v))
    # one vertex per weight class for the heavier built-ins
    for name in ("F4", "A^3_1(28)"):
        arr = builtin(name)
        seen = set()
        for v in arr.vertices():
            if v.weight in seen:
                continue
            seen.add(v.weight)
            assert is_simplicial(arr.parabolic(v)), (name, v.weight)


def test_simpliciality_agrees_with_facet_counting(boolean, generic5):
    from arr4 import f_vector

    for arr in (boolean, generic5, builtin("A4"), builtin("D4")):
        f = f_vector(arr)
        assert is_simplicial(arr) == (f[2] == 2 * f[3])


def _random_arrangements(field, count, seed):
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


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 8), (Field.QUADRATIC_TAU, 5)])
def test_chamber_routes_agree_on_random_arrangements(field, count):
    """Zaslavsky count, Fourier-Motzkin walls and witness signs on every chamber."""
    simplicial = []
    for arr in _random_arrangements(field, count, seed=20240615):
        sub = arr.restriction(0)
        for target, expected in (
            (arr, _chamber_count_oracle(arr)),
            (sub, sub.projective_chamber_count()),
        ):
            chambers = enumerate_chambers(target)
            assert len(chambers) == expected
            for ch in chambers:
                assert walls(target, ch.signs) == ch.walls
                observed = tuple(sign(dot(v, ch.witness)) for v in target.normals)
                assert observed == ch.signs
        simplicial.append(is_simplicial(arr))
    assert not all(simplicial)
