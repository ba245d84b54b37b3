import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import assume, given, strategies as st

import arr4.catalogue
import arr4.constructions
from arr4 import (
    Arrangement,
    ClosureOverflow,
    DuplicateHyperplane,
    Field,
    NoVectorsAvailable,
    NotEssential,
    QuadScalar,
    RootSystemSpec,
    UnknownLabel,
    builtin,
    catalogue_rows,
    f_vector,
    is_irreducible_diagrams,
    is_simplicial,
    reflection_closure,
    sign,
    verify_row,
)
from arr4.catalogue import catalogue_entry, positional
from arr4.constructions import (
    _WEYL_CARTANS,
    REFLECTION_SPECS,
    _build,
    _parabolic_restriction,
    _positive_roots,
)
from arr4.linalg import KERNELS
from arr4.scalars import lift
from helpers import (
    SIMPLE_SYSTEMS,
    canonicalize_vector,
    compare_vectors,
    dot,
    invariant_form,
    kernel_basis,
    reference_closure_normals,
)

# Positional transcriptions of the embedded table (h from weight 2, t from 3).
TABLE = {
    "A^3_1(10)": ((15, 10), (0, 10, 0, 5), (15, 75, 120, 60)),
    "A^3_1(12)": ((18, 16), (12, 0, 0, 12), (24, 120, 192, 96)),
    "A^3_1(13)": ((21, 19), (6, 10, 0, 9, 3), (28, 148, 240, 120)),
    "A^3_1(14)": ((25, 20, 1), (2, 16, 2, 8, 2, 2), (32, 176, 288, 144)),
    "A^3_1(15)": ((30, 19, 3), (0, 18, 6, 8, 0, 3, 1), (36, 204, 336, 168)),
    "A^3_2(15)": ((27, 26), (0, 24, 0, 6, 9), (39, 219, 360, 180)),
    "A^3_1(16)": ((36, 16, 6), (0, 16, 12, 8, 0, 0, 4), (40, 232, 384, 192)),
    "A^3_1(17)": ((34, 28, 3), (12, 20, 0, 14, 0, 6, 1), (53, 293, 480, 240)),
    "A^3_1(18)": ((39, 32, 3), (0, 36, 3, 8, 6, 6, 1), (60, 348, 576, 288)),
    "A^3_1(21)": ((51, 41, 6), (12, 38, 6, 21, 3, 6, 0, 4), (90, 522, 864, 432)),
    "A^3_1(22)": ((57, 40, 9), (12, 48, 6, 20, 0, 6, 4, 4), (100, 580, 960, 480)),
    "A^3_1(24)": ((72, 32, 18), (0, 96, 0, 0, 0, 0, 24), (120, 696, 1152, 576)),
    "A^3_1(25)": ((75, 55, 10), (0, 60, 30, 25, 15, 0, 0, 10), (140, 860, 1440, 720)),
    "A^3_1(27)": ((81, 70, 0, 6), (30, 60, 0, 67, 0, 0, 0, 12, 0, 0, 0, 0, 1),
                  (170, 1010, 1680, 840)),
    "A^3_1(28)": ((90, 76, 0, 6), (0, 100, 0, 58, 15, 0, 0, 12, 0, 0, 0, 0, 1),
                  (186, 1146, 1920, 960)),
    "A^3_2(28)": ((90, 64, 16), (24, 84, 18, 40, 0, 18, 3, 0, 6, 0, 1),
                  (194, 1154, 1920, 960)),
    "A^3_1(30)": ((99, 84, 9, 0, 2), (0, 144, 0, 36, 24, 18, 0, 0, 0, 0, 6),
                  (228, 1380, 2304, 1152)),
    "A^3_1(32)": ((120, 76, 18, 4), (24, 120, 24, 68, 0, 6, 10, 8, 0, 0, 6),
                  (266, 1610, 2688, 1344)),
    "A^3_2(32)": ((124, 64, 30), (0, 144, 48, 40, 0, 0, 12, 16, 0, 0, 4),
                  (264, 1608, 2688, 1344)),
    "A^3_1(60)": ((450, 200, 0, 72), (0, 600, 0, 660, 0, 0, 0, 0, 0, 0, 0, 0, 60),
                  (1320, 8520, 14400, 7200)),
}


def test_table_transcription():
    rows = catalogue_rows()
    assert len(rows) == 20
    assert [row.label for row in rows] == list(TABLE)
    for row in rows:
        h, t, f = TABLE[row.label]
        assert positional(row.h, 2) == h
        assert positional(row.t, 3) == t
        assert row.f == f
        # the label suffix encodes the size
        assert row.label.endswith(f"({row.n})")
        assert sum(comb(i, 2) * c for i, c in row.h.items()) == comb(row.n, 2)


def test_builtin_labels_and_aliases():
    assert builtin("A4") is builtin("A^3_1(10)")
    assert builtin("H4").field is Field.QUADRATIC_TAU
    assert builtin("A4").field is Field.RATIONAL
    with pytest.raises(UnknownLabel):
        builtin("NOPE")
    with pytest.raises(NoVectorsAvailable):
        builtin("A^3_2(15)")


@pytest.mark.parametrize("name,size", [("A4", 10), ("D4", 12), ("B4", 16),
                                       ("F4", 24), ("H4", 60)])
def test_closure_sizes(name, size):
    assert builtin(name).n == size


def _scaled(x, factor):
    """An integer-form scalar (int or (a, b) pair) times an int."""
    return (factor * x[0], factor * x[1]) if isinstance(x, tuple) else factor * x


def test_closure_invariant_under_root_order_and_scaling():
    rng = random.Random(3)
    for name in ("A4", "D4", "B4", "F4", "H4"):
        spec = REFLECTION_SPECS[name]
        reference = reflection_closure(spec).normals
        for _ in range(2):
            order = list(range(len(spec.cartan)))
            rng.shuffle(order)
            factor = rng.choice([1, 2, 3])
            cartan = tuple(tuple(spec.cartan[i][j] for j in order) for i in order)
            mirrors = tuple(
                tuple(_scaled(x, factor) for x in spec.mirrors[i]) for i in order
            )
            shuffled = reflection_closure(RootSystemSpec(spec.name, spec.field, cartan, mirrors))
            assert shuffled.normals == reference


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "H4"])
def test_closure_order_matches_points(name):
    """The closure lists its keys in the order of their field points, and
    `order` sorts shuffled keys as `point` does, with compare_vectors, the
    reference order, agreeing."""
    spec = REFLECTION_SPECS[name]
    kernel = KERNELS[spec.field]
    keys = list(reflection_closure(spec)._integer_normals())
    points = [kernel.point(key) for key in keys]
    assert all(compare_vectors(p, q) < 0 for p, q in zip(points, points[1:]))
    rng = random.Random(f"order {name}")
    for _ in range(5):
        rng.shuffle(keys)
        assert sorted(keys, key=kernel.order) == sorted(keys, key=kernel.point)
        assert sorted(keys, key=kernel.order) == list(reflection_closure(spec)._integer_normals())


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4"])
def test_closure_matches_reference(name):
    """Integer closure on the Cartan data vs the all-pairs field closure of
    the simple roots."""
    spec = REFLECTION_SPECS[name]
    roots, gram = SIMPLE_SYSTEMS[name]
    reference = reference_closure_normals(spec.field, roots, gram)
    assert reflection_closure(spec).normals == reference
    rng = random.Random(name)
    for _ in range(2):
        varied = list(roots)
        rng.shuffle(varied)
        factors = [rng.choice([1, -1, 3, Fraction(-1, 2), Fraction(5, 3)]) for _ in varied]
        varied = tuple(tuple(f * x for x in r) for f, r in zip(factors, varied))
        assert reference_closure_normals(spec.field, varied, gram) == reference


@pytest.mark.parametrize(
    "name", ["A4", "D4", "B4", "F4", "H4", "D5", "D6", "D7", "E6", "E7", "E8"]
)
def test_cartan_data_matches_simple_systems(name):
    """cartan[i][j] = 2 B(a_i, a_j) / B(a_j, a_j) in field scalars, and the
    mirrors are one common positive multiple of the Gram images G a_i.  The
    Weyl types of the parabolic restrictions carry no mirrors."""
    spec = REFLECTION_SPECS.get(name)
    cartan = _WEYL_CARTANS[name] if spec is None else spec.cartan
    field = Field.RATIONAL if spec is None else spec.field
    roots, gram = SIMPLE_SYSTEMS[name]
    form = invariant_form(gram)

    def scalar(x):
        """An integer-form scalar in field scalars."""
        return QuadScalar(*x) if isinstance(x, tuple) else Fraction(x)

    assert len(cartan) == len(roots)
    for a, row in zip(roots, cartan):
        ratios = [2 * form(a, b) / lift(form(b, b), field) for b in roots]
        assert ratios == list(map(scalar, row))
    if spec is None:
        return
    images = [a if gram is None else tuple(dot(g, a) for g in gram) for a in roots]
    scale = next(scalar(m[k]) / lift(g[k], spec.field)
                 for m, g in zip(spec.mirrors, images) for k in range(4) if g[k])
    assert sign(scale) > 0
    for mirror, image in zip(spec.mirrors, images):
        assert list(map(scalar, mirror)) == [scale * x for x in image]


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "H4"])
def test_closure_normals_are_sorted(name):
    normals = reflection_closure(REFLECTION_SPECS[name]).normals
    assert all(compare_vectors(u, v) < 0 for u, v in zip(normals, normals[1:]))


@pytest.mark.parametrize("mirrors, error", [
    # one mirror repeated: the roots a_0 and a_3 get one hyperplane
    (lambda m: (m[0], m[1], m[2], m[0]), DuplicateHyperplane),
    # mirrors spanning a rank-3 subspace
    (lambda m: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 5, 0)), NotEssential),
], ids=["repeated", "rank-3"])
def test_closure_rejects_bad_mirrors(mirrors, error):
    """A bad spec is an input error, as for explicit normals, not an internal one."""
    spec = REFLECTION_SPECS["A4"]
    with pytest.raises(error):
        reflection_closure(RootSystemSpec("bad", spec.field, spec.cartan, mirrors(spec.mirrors)))


def test_closure_overflow_guard():
    # -3 is no Cartan entry of a finite group: s_1 s_2 has infinite order
    bad = RootSystemSpec(
        "bad", Field.RATIONAL,
        ((2, -3, 0, 0), (-3, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    )
    with pytest.raises(ClosureOverflow):
        reflection_closure(bad, cap=300)


def test_appendix_pair_relationship():
    a27 = builtin("A^3_1(27)")
    a28 = builtin("A^3_1(28)")
    assert a27.n == 27 and a28.n == 28
    assert a27.normals == a28.normals[:27]
    assert a27.field is a28.field is Field.QUADRATIC_TAU


@pytest.mark.parametrize("label", ["A^3_1(27)", "A^3_1(28)", "A^3_1(60)"])
def test_weight15_vertex_has_icosahedral_parabolic(label):
    arr = builtin(label)
    heavy = [v for v in arr.vertices() if v.weight == 15]
    assert len(heavy) == {"A^3_1(27)": 1, "A^3_1(28)": 1, "A^3_1(60)": 60}[label]
    sub = arr.parabolic(heavy[0])
    assert sub.n == 15
    assert sub.point_weights() == {2: 15, 3: 10, 5: 6}
    assert sum(comb(w, 2) * c for w, c in sub.point_weights().items()) == comb(15, 2)
    assert sub.projective_chamber_count() == 60


def test_verify_row_with_vectors():
    report = verify_row("A^3_1(10)")
    assert report.passed and report.has_vectors
    names = [o.name for o in report.geometry]
    assert names[:4] == ["n", "h_vector", "t_vector", "f_vector"]
    assert all(o.status == "pass" for o in report.geometry)


def test_verify_row_data_only():
    report = verify_row("A^3_2(15)")
    assert report.passed and not report.has_vectors
    assert all(o.status == "skip" for o in report.geometry)
    by_name = {o.name: o for o in report.checks}
    for name in ("line_weight_cap", "chamber_count_cap", "chamber_count_floor"):
        assert by_name[name].status == "pass" and by_name[name].tight
    report = verify_row("A^3_1(21)")
    assert report.passed
    assert any(o.status == "skip" for o in report.geometry)


def test_every_row_passes_all_checks():
    for row in catalogue_rows():
        if row.has_vectors and row.n >= 24:
            continue  # the heavy geometric rows are covered by the acceptance suite
        assert verify_row(row.label).passed, row.label


def test_catalogue_forwards_only_reflection_specs():
    """`benchmarks/traced.py` reads REFLECTION_SPECS from `arr4.catalogue`:
    that one name forwards to its home, `arr4.constructions`."""
    assert arr4.catalogue.REFLECTION_SPECS is arr4.constructions.REFLECTION_SPECS
    with pytest.raises(AttributeError):
        arr4.catalogue.reflection_closure


def test_unknown_row():
    with pytest.raises(UnknownLabel):
        catalogue_entry("A^3_1(99)")
    with pytest.raises(UnknownLabel):
        verify_row("garbage")


# -- the data-only rows as parabolic restrictions of Weyl arrangements -------------

#: each data-only row, and the Weyl type and simple roots S (Bourbaki
#: numbering) of the first parabolic flat giving it that a sweep over the
#: types in this order, and over each type's S in increasing order, meets
#: (ROADMAP item 1's table)
FIRST_FLATS = {
    "A^3_1(13)": ("D5", (1,)),
    "A^3_1(14)": ("D6", (1, 3)),
    "A^3_1(15)": ("D7", (1, 3, 5)),
    "A^3_2(15)": ("E6", (1, 3)),
    "A^3_1(17)": ("E6", (1, 2)),
    "A^3_1(18)": ("E7", (1, 3, 4)),
    "A^3_1(21)": ("E7", (1, 2, 3)),
    "A^3_1(22)": ("E7", (1, 2, 5)),
    "A^3_1(25)": ("E8", (1, 2, 3, 4)),
    "A^3_2(28)": ("E8", (1, 2, 4, 5)),
    "A^3_1(30)": ("E8", (1, 3, 5, 6)),
    "A^3_1(32)": ("E8", (1, 2, 3, 5)),
    "A^3_2(32)": ("E8", (1, 2, 5, 7)),
}


def _counts(arr):
    """(n, h-vector, t-vector, f-vector) of an arrangement."""
    return arr.n, arr.h_vector(), arr.t_vector(), f_vector(arr)


def _row_of(counts):
    """The label of the catalogue row with these counts, or None."""
    return next(
        (row.label for row in catalogue_rows()
         if (row.n, dict(row.h), dict(row.t), row.f) == counts),
        None,
    )


@pytest.mark.parametrize("label", list(FIRST_FLATS))
def test_restricted_row_reproduces_its_row(label):
    """Each data-only row, built as its parabolic restriction, reproduces its
    n/h/t/f and the restriction-sum identity (h = the restriction sizes
    summed, less the lines), is simplicial (f2 = 2 f3 and four walls to every
    chamber) and irreducible both as a direct sum and by its chamber
    diagrams.  The row stays data-only in the catalogue."""
    entry = catalogue_entry(label)
    assert not entry.has_vectors
    arr = _build(label)
    assert _counts(arr) == (entry.n, dict(entry.h), dict(entry.t), entry.f)
    data = entry.data()
    sizes = arr.restriction_counts()
    assert sum(size for size, _ in sizes) - data.g1 == data.h_total
    assert sum(chambers for _, chambers in sizes) == entry.f[2] == 2 * entry.f[3]
    assert is_simplicial(arr)
    assert arr.reducible_partition() is None
    assert is_irreducible_diagrams(arr)


def test_parabolic_sweep_gives_only_catalogue_rows():
    """The restriction to the flat of every S of rank - 4 simple roots of
    D5-D7 and E6-E8, 175 in all, is a catalogue row by n/h/t/f.  By
    Steinberg's theorem every rank-4 flat is conjugate to one of these, so
    the sweep sees every rank-4 restriction up to isomorphism.  The first S
    met for each data-only row is FIRST_FLATS's, and B4 and F4 come out
    again with their closures' n/h/t/f."""
    counts = {}
    first = {}
    for weyl in ("D5", "D6", "D7", "E6", "E7", "E8"):
        cartan = _WEYL_CARTANS[weyl]
        for flat in combinations(range(1, len(cartan) + 1), len(cartan) - 4):
            counts[weyl, flat] = _counts(_parabolic_restriction(cartan, flat))
            label = _row_of(counts[weyl, flat])
            assert label is not None, (weyl, flat)
            first.setdefault(label, (weyl, flat))
    assert len(counts) == 175
    assert {label: first[label] for label in FIRST_FLATS} == FIRST_FLATS
    for name, flats in (("B4", (("D6", (5, 6)), ("D7", (1, 6, 7)))),
                        ("F4", (("E7", (2, 5, 7)), ("E8", (2, 3, 4, 5))))):
        closure = _counts(builtin(name))
        for flat in flats:
            assert counts[flat] == closure, flat


@lru_cache(maxsize=None)
def _root_forms(weyl):
    """The form y -> B(beta, sum_j y_j a_j) of each positive root beta on
    simple-root coordinates y: beta's row of the Gram matrix of the explicit
    simple roots, integral as every B(a, a) = 2."""
    simple, gram = SIMPLE_SYSTEMS[weyl]
    form = invariant_form(gram)
    gram = [[int(form(a, b)) for b in simple] for a in simple]
    return [
        tuple(dot(b, column) for column in zip(*gram))
        for b in _positive_roots(_WEYL_CARTANS[weyl], KERNELS[Field.RATIONAL], 10000)
    ]


@given(data=st.data())
def test_construction_property_random_flat_is_a_row(data):
    """The independent route to a restriction, on a flat that need not be
    parabolic: the common zero set of r - 4 random independent roots of
    D5-D7 or E6-E8, in simple-root coordinates (`_root_forms`).  The flat is
    the field-scalar kernel basis of the chosen roots' forms, and each root
    restricts to its form on that basis.  The distinct nonzero forms make a
    catalogue row (Steinberg: the flat is conjugate to a standard parabolic
    one).  Takes its example budget from the loaded hypothesis profile, as
    the kernel properties do."""
    weyl = data.draw(st.sampled_from(sorted(_WEYL_CARTANS)))
    rows = _root_forms(weyl)
    rank = len(rows[0])
    chosen = data.draw(st.lists(
        st.sampled_from(rows), min_size=rank - 4, max_size=rank - 4, unique=True,
    ))
    basis = kernel_basis(chosen)
    assume(len(basis) == 4)
    # each basis vector at a positive integer scale spans the same flat
    scales = [lcm(*(x.denominator for x in k)) for k in basis]
    basis = [tuple(int(x * m) for x in k) for k, m in zip(basis, scales)]
    restricted = {
        canonicalize_vector(v, Field.RATIONAL): None
        for v in (tuple(dot(row, k) for k in basis) for row in rows) if any(v)
    }
    arr = Arrangement(list(restricted), Field.RATIONAL)
    assert _row_of(_counts(arr)) is not None
