from math import comb

import pytest

from arr4 import (
    Arrangement,
    DuplicateHyperplane,
    MixedField,
    NotEssential,
    Rank3Arrangement,
    TAU,
    builtin,
)
from arr4.linalg import canonicalize_vector, dot, kernel_basis
from arr4.scalars import Field
from helpers import boolean_arrangement, random_arrangements, reference_restriction_normals


def test_boolean_lattice(boolean):
    assert boolean.n == 4
    lines = boolean.lines()
    assert len(lines) == 6 and all(flat.weight == 2 for flat in lines)
    verts = boolean.vertices()
    assert len(verts) == 4 and all(v.weight == 3 for v in verts)
    assert boolean.h_vector() == {2: 6}
    assert boolean.t_vector() == {3: 4}
    assert boolean.multiplicity() == 3


def test_construction_errors():
    with pytest.raises(DuplicateHyperplane):
        Arrangement([(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(NotEssential):
        Arrangement([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    with pytest.raises(MixedField):
        Arrangement([(1, 0, 0, 0), (0, TAU, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                     Field.RATIONAL)
    with pytest.raises(ValueError):
        Arrangement([])


def test_canonical_normal_form():
    arr = Arrangement([(2, 0, 0, 0), (0, -3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5)])
    assert arr.normals == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    quad = Arrangement([(TAU, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                       Field.QUADRATIC_TAU)
    assert quad.normals[0][0] == 1


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_pair_and_vertex_incidences(name):
    arr = builtin(name)
    # every hyperplane pair lies in exactly one line
    total = sum(comb(flat.weight, 2) for flat in arr.lines())
    assert total == comb(arr.n, 2)
    assert sum(comb(i, 2) * c for i, c in arr.h_vector().items()) == comb(arr.n, 2)
    # every (line, non-member) pair hits exactly one vertex on that line
    verts = arr.vertices()
    for flat in arr.lines():
        on_line = [v for v in verts if v.mask & flat.mask == flat.mask]
        hits = sum(v.weight - flat.weight for v in on_line)
        assert hits == arr.n - flat.weight


def test_line_flat_membership_is_exact(generic5):
    for flat in generic5.lines():
        basis = kernel_basis([generic5.normals[i] for i in flat.members[:2]])
        for i, normal in enumerate(generic5.normals):
            inside = all(dot(normal, b) == 0 for b in basis)
            assert inside == bool(flat.mask >> i & 1)


def _brute_force_flat(arr, flat, dim):
    """Reference membership: every normal is dotted with the flat's kernel.

    The kernel is that of all members, so a mask naming a non-member leaves
    a kernel of the wrong dimension.  Returns the kernel basis.
    """
    basis = kernel_basis([arr.normals[i] for i in flat.members])
    assert len(basis) == dim
    mask = 0
    for i, normal in enumerate(arr.normals):
        if all(dot(normal, b) == 0 for b in basis):
            mask |= 1 << i
    assert mask == flat.mask
    return basis


def _lattice_inputs(name):
    if name == "random-rational":
        return random_arrangements(Field.RATIONAL, 8, seed=20240616)
    if name == "random-quadratic":
        return random_arrangements(Field.QUADRATIC_TAU, 5, seed=20240616)
    if name == "boolean":
        return [boolean_arrangement()]
    return [builtin(name)]


@pytest.mark.parametrize(
    "name", ["boolean", "A4", "F4", "A^3_1(27)", "random-rational", "random-quadratic"]
)
def test_lattice_matches_brute_force_membership(name):
    """Line, vertex and restriction-point masks and points against a re-scan."""
    for arr in _lattice_inputs(name):
        lines = arr.lines()
        verts = arr.vertices()
        for flat in lines:
            _brute_force_flat(arr, flat, 2)
            assert flat.point is None
        for v in verts:
            basis = _brute_force_flat(arr, v, 1)
            assert v.point == canonicalize_vector(basis[0], arr.field)
        # every hyperplane off a line meets it in exactly one listed vertex
        for flat in lines:
            on_line = [v for v in verts if v.mask & flat.mask == flat.mask]
            assert sum(v.weight - flat.weight for v in on_line) == arr.n - flat.weight
        sub = arr.restriction(0)
        for p in sub.points():
            basis = _brute_force_flat(sub, p, 1)
            assert p.point == canonicalize_vector(basis[0], sub.field)
        assert sum(comb(p.weight, 2) for p in sub.points()) == comb(sub.n, 2)


@pytest.mark.parametrize(
    "name", ["boolean", "A4", "F4", "A^3_1(27)", "random-rational", "random-quadratic"]
)
def test_restrictions_match_reference(name):
    """Normals read off the Pluecker keys vs kernel basis and field dot products."""
    for arr in _lattice_inputs(name):
        for h in range(arr.n):
            assert arr.restriction(h).normals == reference_restriction_normals(arr, h)


def test_vertex_weights_bounded(boolean, generic5):
    for arr in (boolean, generic5):
        for v in arr.vertices():
            assert 3 <= v.weight <= arr.n - 1


def test_restriction_boolean(boolean):
    sub = boolean.restriction(0)
    assert isinstance(sub, Rank3Arrangement)
    assert sub.n == 3
    assert sub.normals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_restriction_sizes_match_lines_in_hyperplane():
    arr = builtin("A4")
    for h in range(arr.n):
        inside = sum(1 for flat in arr.lines() if flat.mask >> h & 1)
        assert arr.restriction(h).n == inside == 6
    d4 = builtin("D4")
    assert all(d4.restriction(h).n == 7 for h in range(d4.n))


def test_parabolic_sizes(boolean):
    for v in boolean.vertices():
        sub = boolean.parabolic(v)
        assert sub.n == v.weight == 3
    a4 = builtin("A4")
    for v in a4.vertices():
        assert a4.parabolic(v).n == v.weight


def test_reducibility(boolean):
    part = boolean.reducible_partition()
    assert part == ((0,), (1, 2, 3))
    assert builtin("A4").reducible_partition() is None
    assert builtin("F4").reducible_partition() is None
    # one dependent normal ties three coordinates together
    arr = Arrangement([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert arr.reducible_partition() == ((0, 1, 2), (3, 4))


def test_rank3_points_and_chamber_count(boolean):
    sub = boolean.restriction(0)
    pts = sub.points()
    assert len(pts) == 3 and all(p.weight == 2 for p in pts)
    assert sub.char_poly() == (1, -3, 3, -1)
    assert sub.projective_chamber_count() == 4


def test_rank3_errors():
    with pytest.raises(NotEssential):
        Rank3Arrangement([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DuplicateHyperplane):
        Rank3Arrangement([(1, 0, 0), (-2, 0, 0), (0, 1, 0), (0, 0, 1)])
