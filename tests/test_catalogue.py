import random
from fractions import Fraction
from math import comb

import pytest

from arr4 import (
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
    reflection_closure,
    sign,
    verify_row,
)
from arr4.catalogue import REFLECTION_SPECS, catalogue_entry
from arr4.invariants import positional
from arr4.scalars import lift
from helpers import (
    SIMPLE_SYSTEMS,
    compare_vectors,
    dot,
    invariant_form,
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


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "H4"])
def test_cartan_data_matches_simple_systems(name):
    """cartan[i][j] = 2 B(a_i, a_j) / B(a_j, a_j) in field scalars, and the
    mirrors are one common positive multiple of the Gram images G a_i."""
    spec = REFLECTION_SPECS[name]
    roots, gram = SIMPLE_SYSTEMS[name]
    form = invariant_form(gram)

    def scalar(x):
        """An integer-form scalar in field scalars."""
        return QuadScalar(*x) if isinstance(x, tuple) else Fraction(x)

    for a, row in zip(roots, spec.cartan):
        ratios = [2 * form(a, b) / lift(form(b, b), spec.field) for b in roots]
        assert ratios == list(map(scalar, row))
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
        assert by_name[name].status == "pass" and by_name[name].result.tight
    report = verify_row("A^3_1(21)")
    assert report.passed
    assert any(o.status == "skip" for o in report.geometry)


def test_every_row_passes_all_checks():
    for row in catalogue_rows():
        if row.has_vectors and row.n >= 24:
            continue  # the heavy geometric rows are covered by the acceptance suite
        assert verify_row(row.label).passed, row.label


def test_unknown_row():
    with pytest.raises(UnknownLabel):
        catalogue_entry("A^3_1(99)")
    with pytest.raises(UnknownLabel):
        verify_row("garbage")
