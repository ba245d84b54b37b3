import random
import re
from math import comb

import pytest

from arr4 import (
    Arrangement,
    DuplicateHyperplane,
    Flat,
    MixedField,
    NotEssential,
    QuadScalar,
    Rank3Arrangement,
    TAU,
    ZeroNormal,
    builtin,
    char_poly_moebius,
    enumerate_chambers,
    f_vector,
)
from arr4.linalg import _MINORS, KERNELS
from arr4.report import build_report
from arr4.scalars import Field
from helpers import (
    boolean_arrangement,
    canonicalize_vector,
    dot,
    generic5_arrangement,
    kernel_basis,
    random_arrangements,
    rank,
    reference_parabolic_normals,
    reference_restriction_normals,
)


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
    with pytest.raises(ZeroNormal):
        Arrangement([(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError):
        Arrangement([])


def test_normals_need_four_coordinates():
    with pytest.raises(ValueError, match="^normal 1 has 3 coordinates, expected 4$"):
        Arrangement([(1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


@pytest.mark.parametrize("cls,normals,r", [
    (Arrangement, [(1, 0, 0, 0)], 1),
    (Arrangement, [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 2, -3)], 2),
    (Arrangement, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1)], 3),
    # over Q(tau) the last normal is tau times one normal plus others, which
    # takes tau^2 = tau + 1 to see
    (Arrangement, [(1, TAU, 0, 0), (0, 0, 1, 0), (TAU, TAU + 1, 1, 0)], 2),
    (Arrangement, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, TAU), (1, 1, TAU, TAU + 1)], 3),
    (Rank3Arrangement, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], 2),
    (Rank3Arrangement, [(0, 1, TAU), (1, 0, 0), (1, TAU, TAU + 1)], 2),
], ids=["K4-rank1", "K4-rank2", "K4-rank3", "K4-tau-rank2", "K4-tau-rank3", "K3-rank2",
        "K3-tau-rank2"])
def test_not_essential_names_the_rank(cls, normals, r):
    with pytest.raises(NotEssential, match=rf"of rank {r}, need {cls.dim}$"):
        cls(normals)


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


@pytest.mark.parametrize(
    "name", ["boolean", "A4", "F4", "A^3_1(27)", "random-rational", "random-quadratic"]
)
def test_parabolics_match_reference(name):
    """Parabolic normals on the pivot chart vs the reduced-echelon reference."""
    for arr in _lattice_inputs(name):
        for v in arr.vertices():
            assert arr.parabolic(v).normals == reference_parabolic_normals(arr, v)


def test_vertex_weights_bounded(boolean, generic5):
    for arr in (boolean, generic5):
        for v in arr.vertices():
            assert 3 <= v.weight <= arr.n - 1


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "H4", "A^3_1(27)", "A^3_1(28)"])
def test_restriction_counts_match_built_restrictions(name):
    """Counts read off the restricted keys equal the built restrictions' points."""
    arr = builtin(name)
    for h, counts in enumerate(arr.restriction_counts()):
        sub = arr.restriction(h)
        assert counts == (sub.n, 1 + sum(p.weight - 1 for p in sub.points()))


def _corrupt(arr, cached, index, key):
    """Replace flat `index` of the cached flat tuple by a copy with another
    key (flats are read-only); returns the copy."""
    flats = list(arr._cache[cached])
    old = flats[index]
    flats[index] = Flat(old.mask, key, old._kernel)
    arr._cache[cached] = tuple(flats)
    return flats[index]


def test_flats_are_read_only():
    flat = builtin("D4").lines()[0]
    key = flat.key
    for name in ("key", "mask", "members", "weight", "point"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(flat, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(flat, name)
    with pytest.raises(AttributeError):
        builtin("D4").lines()[0].key = (1, 0, 0, 0, 0, 0)
    assert builtin("D4").lines()[0].key == key


def test_builtins_are_read_only():
    arr = builtin("D4")
    for name in ("normals", "field", "dim", "_cache"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(arr, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(arr, name)
    with pytest.raises(AttributeError):
        builtin("D4").normals = builtin("D4").normals[:3]
    assert builtin("D4").n == 12
    with pytest.raises(AttributeError, match="read-only"):
        arr.restriction(0).normals = ()


def test_lattice_makes_no_field_scalars(monkeypatch):
    """The lattice, the derived arrangements, the chambers and the report run
    on the integer keys alone; the field views are made from the keys when
    read."""
    template = builtin("A^3_1(28)")
    arr = Arrangement(template.normals, template.field)
    made = []
    init = QuadScalar.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadScalar, "__init__", counting_init)
    arr.vertices()
    f_vector(arr)
    arr.restriction_counts()
    for h in range(arr.n):
        arr.restriction(h).points()
    for v in arr.vertices():
        arr.parabolic(v).points()
    enumerate_chambers(arr)
    build_report(arr, with_chambers=True)
    assert made == []
    monkeypatch.undo()

    kernel = KERNELS[arr.field]
    sub = arr.restriction(0)
    for each in (arr, sub):
        assert each.normals is each.normals
        assert each.normals == tuple(map(kernel.point, each._integer_normals()))
    for flat in arr.vertices() + sub.points():
        assert flat.point == kernel.point(flat.key)
    assert all(flat.point is None for flat in arr.lines())


@pytest.mark.parametrize("make, line, key, message", [
    # four lines inside hyperplane 0, two of them restricting to (1, 0, 0)
    (generic5_arrangement, 3, (1, 0, 0, 0, 0, 0), "restrict to one normal"),
    # three lines inside hyperplane 0, restricting to (1, 0, 0), (0, 1, 0), (1, 1, 0)
    (boolean_arrangement, 2, (1, 1, 0, 0, 0, 0), "not essential"),
])
def test_restriction_checks_fire(make, line, key, message):
    """A restriction whose normals repeat or do not span is an internal error."""
    for restricted in (lambda arr: arr.restriction_counts(), lambda arr: arr.restriction(0)):
        arr = make()
        assert arr.lines()[line].members[0] == 0
        _corrupt(arr, "rank2", line, key)
        with pytest.raises(AssertionError, match=f"hyperplane 0.* {message}"):
            restricted(arr)


@pytest.mark.parametrize("name", ["D4", "F4", "H4", "A^3_1(28)"])
def test_vertex_pass_asserts_lines_inside_vertices(name):
    """The first line's key replaced by the key of a line of neither
    arrangement: its hits group into a member mask that the line of two of
    those members leaves, which the vertex pass asserts against."""
    template = builtin(name)
    arr = Arrangement(template.normals, template.field)
    arr.lines()
    kernel = KERNELS[arr.field]
    u, v = kernel.ints((1, 2, 3, 5)), kernel.ints((2, -1, 4, 7))
    minors = (kernel.dot((u[a], u[b]), (v[b], kernel.neg(v[a]))) for a, b in _MINORS[4])
    _corrupt(arr, "rank2", 0, kernel.canonical(tuple(minors)))
    with pytest.raises(AssertionError, match=r"line \(.*\) is not inside the vertex \("):
        arr._vertex_pass()


def test_restriction_boolean(boolean):
    sub = boolean.restriction(0)
    assert isinstance(sub, Rank3Arrangement)
    assert sub.n == 3
    assert sub.normals == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_restriction_index_out_of_range(boolean):
    with pytest.raises(IndexError, match="hyperplane index 4 out of range"):
        boolean.restriction(boolean.n)


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


def test_parabolic_rejects_non_vertices():
    """Only a vertex of the arrangement itself has a parabolic."""
    a4 = builtin("A4")
    with pytest.raises(ValueError, match="not a vertex"):
        a4.parabolic(a4.lines()[0])
    with pytest.raises(ValueError, match="not a vertex"):
        a4.parabolic(builtin("D4").vertices()[0])


@pytest.mark.parametrize("make, key, message", [
    # six normals through (1, 0, 0, 0), two of which differ by a multiple of e_1
    # (a fresh copy: builtin() shares its arrangements between tests)
    (lambda: Arrangement(builtin("D4").normals), (0, 1, 0, 0), "restrict to one normal"),
    # three normals through (1, 0, 0, 0), all in the plane x_0 = 0 once x_1 is dropped
    (
        lambda: Arrangement([(0, 1, 1, 0), (0, 1, 2, 3), (0, 2, 1, 1), (1, 1, 1, 1)]),
        (0, 1, 0, 0),
        "not essential",
    ),
])
def test_parabolic_checks_fire(make, key, message):
    """A parabolic whose normals repeat or do not span is an internal error;
    a corrupted vertex key moves the pivot onto a coordinate the vertex lacks."""
    arr = make()
    assert arr.vertices()[0].key == (1, 0, 0, 0)
    vertex = _corrupt(arr, "vertices", 0, key)
    where = re.escape(f"parabolic at vertex {vertex.members}")
    with pytest.raises(AssertionError, match=f"{where}.* {message}"):
        arr.parabolic(vertex)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_vertex_weight_check_fires_before_any_flat(field):
    """A vertex on all n hyperplanes (keys past the essentialness check) is
    an internal error of the counting pass, named by its point; the counts
    that read the pass raise it too, with no vertex flat made."""
    ints = KERNELS[field].ints
    point = KERNELS[field].point(ints((0, 0, 0, 1)))
    message = re.escape(f"vertex {point} lies on 4 hyperplanes")
    for normals in (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)),
        # the third-lowest member lies on the line of the two lowest, so the
        # point's key skips it for e3
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)),
    ):
        arr = Arrangement._from_keys([ints(v) for v in normals], field)
        for read in (Arrangement.t_vector, f_vector, Arrangement.vertices):
            with pytest.raises(AssertionError, match=message):
                read(arr)
            assert "vertices" not in arr._cache


def test_reducibility(boolean):
    part = boolean.reducible_partition()
    assert part == ((0,), (1, 2, 3))
    assert builtin("A4").reducible_partition() is None
    assert builtin("F4").reducible_partition() is None
    # one dependent normal ties three coordinates together
    arr = Arrangement([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert arr.reducible_partition() == ((0, 1, 2), (3, 4))


def _assert_crapo_oracle(arr):
    """Reducibility against Crapo's beta invariant, and rank additivity.

    For a matroid on n >= 2 elements, beta = +-chi'(1) is nonzero exactly
    when the matroid is connected (Crapo 1967); chi(t) = (t - 1) * cubic(t),
    so chi'(1) is the cubic at 1.  Returns the partition.
    """
    partition = arr.reducible_partition()
    cubic = char_poly_moebius(arr).reduced_cubic()
    assert (partition is None) == (1 + cubic.p + cubic.q + cubic.r != 0)
    if partition is not None:
        assert sorted(partition[0] + partition[1]) == list(range(arr.n))
        assert sum(rank([arr.normals[i] for i in block]) for block in partition) == 4
    return partition


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_reducible_partition_matches_crapo_beta(field):
    # 11 rational and 3 quadratic draws of these 120 are reducible
    partitions = [_assert_crapo_oracle(arr) for arr in random_arrangements(field, 60, 6)]
    assert 0 < sum(part is not None for part in partitions) < len(partitions)


def _connected_block(rng, field, rank):
    """Normals of an irreducible arrangement of the given rank in K^rank."""
    if field is Field.QUADRATIC_TAU:
        def coef():
            return QuadScalar(rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))
    else:
        def coef():
            return rng.choice((-3, -2, -1, 1, 2, 3))
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if rank == 1:
        return unit
    # every coordinate of the extra normal is nonzero: the rank + 1 normals
    # are in general position, a connected (uniform) matroid
    return unit + [(1,) + tuple(coef() for _ in range(rank - 1))]


def _hidden_product(rng, field, ranks):
    """A product arrangement behind a random unimodular change of coordinates.

    Returns the normals (in shuffled order) and the partition that
    reducible_partition must report: the block holding normal 0, and the
    union of the others.
    """
    normals, labels = [], []
    offset = 0
    for k, r in enumerate(ranks):
        for vec in _connected_block(rng, field, r):
            normals.append((0,) * offset + tuple(vec) + (0,) * (4 - offset - r))
            labels.append(k)
        offset += r
    unimodular = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(10):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        unimodular[i] = [x + c * y for x, y in zip(unimodular[i], unimodular[j])]
    normals = [
        tuple(sum(v[i] * unimodular[i][j] for i in range(4)) for j in range(4))
        for v in normals
    ]
    order = list(range(len(normals)))
    rng.shuffle(order)
    normals = [normals[i] for i in order]
    labels = [labels[i] for i in order]
    first = tuple(i for i, lab in enumerate(labels) if lab == labels[0])
    rest = tuple(i for i, lab in enumerate(labels) if lab != labels[0])
    return normals, (first, rest)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_reducible_partition_finds_hidden_products(field):
    rng = random.Random(20240617)
    for ranks in [(2, 2), (1, 3), (3, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)] * 4:
        normals, expected = _hidden_product(rng, field, ranks)
        arr = Arrangement(normals, field)
        assert arr.reducible_partition() == expected
        _assert_crapo_oracle(arr)
    # the unimodular change alone keeps an irreducible arrangement irreducible
    normals, expected = _hidden_product(rng, field, (4,))
    assert expected[1] == ()
    assert _assert_crapo_oracle(Arrangement(normals, field)) is None


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
