import random

import pytest
from hypothesis import assume, given, strategies as st

import arr4.chambers
from arr4 import (
    TAU,
    Arrangement,
    ChamberLimitReached,
    EmptyChamber,
    NotEssential,
    builtin,
    char_poly_moebius,
    coxeter_diagram,
    enumerate_chambers,
    f_vector,
    is_irreducible_diagrams,
    is_simplicial,
    is_simply_laced,
    walls,
)
from arr4.chambers import (
    _bfs_chambers,
    _bits,
    _canonical_mask,
    _Context,
    _context,
    chamber_face_counts,
    diagram_shapes,
    feasible_strict,
    generic_point,
    simply_laced_h_criterion,
)
from arr4.linalg import KERNELS
from arr4.report import build_report
from arr4.scalars import Field, sign
from helpers import (
    add_forms,
    canonicalize_vector,
    chamber_feasible,
    dot,
    misplaced_corners,
    random_arrangements,
    reference_canonical_key,
    reference_compatible_corners,
    reference_corner_signs,
    reference_walls,
    seed_chamber,
    seed_corners,
    tamper_seed_chamber,
)


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


def test_report_builds_each_diagram_once(monkeypatch):
    """`build_report` and the diagram predicates share one diagram record
    per chamber: each chamber's edges are read once, and no
    `CoxeterDiagram` is built."""
    placed, built = [], []
    real_placed = arr4.chambers._placed

    def counting_placed(*args):
        placed.append(args)
        return real_placed(*args)

    class Counting(arr4.chambers.CoxeterDiagram):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(arr4.chambers, "_placed", counting_placed)
    monkeypatch.setattr(arr4.chambers, "CoxeterDiagram", Counting)
    arr = Arrangement(builtin("A4").normals)  # fresh, with nothing cached
    report = build_report(arr, with_chambers=True)
    assert report["chambers"]["count"] == 60
    assert len(placed) == len(enumerate_chambers(arr)) == 60
    assert is_simply_laced(arr) and is_irreducible_diagrams(arr)
    assert len(placed) == 60
    assert built == []


def test_irreducibility_agreement(boolean):
    for arr in (boolean, builtin("A4"), builtin("F4")):
        assert is_irreducible_diagrams(arr) == (arr.reducible_partition() is None)


def test_generic5_not_simplicial(generic5):
    chambers = enumerate_chambers(generic5)
    assert len(chambers) == 15 == _chamber_count_oracle(generic5)
    assert not is_simplicial(generic5)
    assert max(len(ch.walls) for ch in chambers) == 5


def test_witness_points_realize_signs(boolean, generic5):
    a28 = builtin("A^3_1(28)")
    for arr in (boolean, generic5, builtin("A4"), a28, a28.restriction(0)):
        for ch in enumerate_chambers(arr):
            observed = tuple(sign(dot(v, ch.witness)) for v in arr.normals)
            assert observed == ch.signs


@pytest.mark.parametrize("name", ["A4", "A^3_1(28)"])
def test_chamber_records(name):
    """Chambers of two fresh copies compare and hash equal pairwise, the
    witness waits for its first read, and the repr leaves out the mask."""
    template = builtin(name)
    first, second = (
        enumerate_chambers(Arrangement(template.normals, template.field)) for _ in range(2)
    )
    assert all(ch._witness is None for ch in first)
    assert first == second
    assert [hash(ch) for ch in first] == [hash(ch) for ch in second]
    assert len({ch.mask for ch in first}) == len(set(first)) == len(first)
    ch, other = first[0], first[1]
    assert ch.mask != other.mask and ch != other
    assert repr(ch) == (
        f"Chamber(signs={ch.signs!r}, walls={ch.walls!r}, witness={ch.witness!r})"
    )
    with pytest.raises(AttributeError, match="read-only"):
        ch.signs = other.signs
    assert ch == second[0]


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
    for ch in enumerate_chambers(b4):
        assert walls(b4, ch.signs) == ch.walls
    a27 = builtin("A^3_1(27)")
    for ch in enumerate_chambers(a27)[:20]:
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
    kernel = KERNELS[Field.RATIONAL]
    assert feasible_strict([(1, 0), (0, 1)], kernel)
    assert not feasible_strict([(1, 0), (-1, 0)], kernel)
    assert not feasible_strict([(0, 0)], kernel)
    assert feasible_strict([], kernel)
    # opposite rays in disguise (positive rescaling must not merge them)
    assert not feasible_strict([(2, -4), (-1, 2)], kernel)


def test_generic_point_avoids_all_hyperplanes(boolean, generic5):
    for arr in (boolean, generic5, builtin("F4"), builtin("A^3_1(28)")):
        point, signs = generic_point(arr)
        assert all(s != 0 for s in signs)
        assert tuple(sign(dot(v, point)) for v in arr.normals) == tuple(signs)


@pytest.mark.parametrize("n,count", [(4, 8), (5, 15), (7, 42)])
def test_generic_point_outlasts_adversarial_normals(n, count):
    """Normal i dots the moment-curve point (1, t, t^2, t^3) to
    (t - a)(t - b)(t - c) with a, b, c = 3i + 1, 3i + 2, 3i + 3, so the n
    normals reject every candidate t = 1 ... 3n: the seed is t = 3n + 1, and
    the walk from it finds f3 chambers."""
    normals = []
    for i in range(n):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        normals.append((-a * b * c, a * b + b * c + c * a, -(a + b + c), 1))
    arr = Arrangement(normals, Field.RATIONAL)
    point, signs = generic_point(arr)
    t = 3 * n + 1
    assert point == (1, t, t**2, t**3) and all(signs)
    assert len(enumerate_chambers(arr)) == f_vector(arr)[3] == count


def test_simplicial_face_counts():
    arr = builtin("A4")
    for ch in enumerate_chambers(arr)[:12]:
        corners, edges = chamber_face_counts(arr, ch)
        assert corners == 4 and edges == 6
    a28 = builtin("A^3_1(28)")
    for ch in enumerate_chambers(a28)[:5]:
        assert chamber_face_counts(a28, ch) == (4, 6)


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 8), (Field.QUADRATIC_TAU, 5)])
def test_face_counts_satisfy_euler(field, count):
    """corners - edges + walls == 2 on every chamber cone of rank 4."""
    chambers = 0
    for arr in random_arrangements(field, count, seed=20240615):
        for ch in enumerate_chambers(arr):
            corners, edges = chamber_face_counts(arr, ch)
            assert corners - edges + len(ch.walls) == 2, (arr.normals, ch.signs)
            chambers += 1
    assert chambers > 50


def test_rank3_face_counts():
    """A chamber cone of rank 3 has as many corners as walls, its 2-faces."""
    arrangements = [builtin("A4").restriction(h) for h in (0, 3)]
    arrangements.append(builtin("F4").restriction(0))
    for field in (Field.RATIONAL, Field.QUADRATIC_TAU):
        arrangements += [
            arr.restriction(0) for arr in random_arrangements(field, 4, seed=20240615)
        ]
    for sub in arrangements:
        for ch in enumerate_chambers(sub):
            assert chamber_face_counts(sub, ch) == (len(ch.walls), len(ch.walls))
    f4 = builtin("F4")
    v = max(f4.vertices(), key=lambda flat: flat.weight)
    parabolic = f4.parabolic(v)
    for ch in enumerate_chambers(parabolic):
        assert chamber_face_counts(parabolic, ch) == (3, 3)


@pytest.mark.parametrize("name", ["A4", "A^3_1(28)"])
def test_edge_certificate_fires(name):
    """Tight corners of an edge that stop spanning it raise: with every
    corner's rank form made one form, an edge's two corners span a line."""
    template = builtin(name)
    arr = Arrangement(template.normals, template.field)
    chamber = enumerate_chambers(arr)[0]
    forms = _context(arr).forms
    forms[:] = [forms[0]] * len(forms)
    with pytest.raises(AssertionError, match="tight corner rays of an edge"):
        chamber_face_counts(arr, chamber)


def _compatible_sets_agree(arr):
    ctx = _context(arr)
    signs = reference_corner_signs(arr)
    for ch in enumerate_chambers(arr):
        found = {
            (b % ctx.size, 1 if b < ctx.size else -1)
            for b in _bits(ctx.compatible(ch.mask))
        }
        expected = reference_compatible_corners(signs, ch.mask, arr.n)
        assert found == set(expected) and len(expected) == len(found)
    return is_simplicial(arr)


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "A^3_1(27)", "A^3_1(28)"])
def test_compatible_corners_match_list_scan_builtins(name):
    arr = builtin(name)
    assert _compatible_sets_agree(arr)
    assert _compatible_sets_agree(arr.restriction(0))


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 8), (Field.QUADRATIC_TAU, 5)])
def test_compatible_corners_match_list_scan_random(field, count, boolean, generic5):
    simplicial = []
    for arr in [boolean, generic5, *random_arrangements(field, count, seed=20240615)]:
        simplicial.append(_compatible_sets_agree(arr))
        _compatible_sets_agree(arr.restriction(0))
    assert not all(simplicial)


def _sides_arrangement(n):
    """A fresh arrangement with n hyperplanes: the coordinate hyperplanes and
    further small rational normals for n <= 9, A^3_1(27) and A^3_1(28)
    (Q(tau)) for n = 27, 28."""
    if n > 9:
        template = builtin(f"A^3_1({n})")
        return Arrangement(template.normals, template.field)
    pool = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 5),
        (1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (1, 1, 1, 1),
    ]
    return Arrangement(pool[:n])


@pytest.mark.parametrize("n", [4, 5, 8, 9, 27, 28])
def test_side_tables_match_side_masks(n):
    """`compatible` through the 4-bit side tables equals the OR of n side
    masks, on every sign mask for n <= 9 and on random ones beyond: the
    blocks are full for n = 4, 8, 28 and partial for n = 5, 9, 27.  The
    side masks are built here, from the sign of each normal's dot with
    every corner's rank form."""
    arr = _sides_arrangement(n)
    ctx = _Context(arr)
    assert ctx.n == n and len(ctx.tables) == (n + 3) // 4
    kernel = ctx.kernel
    pos, neg = [], []
    for normal in arr._integer_normals():
        plus = minus = 0
        for j, form in enumerate(ctx.forms):
            s = kernel.sign(kernel.dot(normal, form))
            if s > 0:
                plus |= 1 << j
            elif s < 0:
                minus |= 1 << j
        pos.append(plus | minus << ctx.size)
        neg.append(minus | plus << ctx.size)
    rng = random.Random(20240630)
    masks = range(1 << n) if n <= 9 else [rng.randrange(1 << n) for _ in range(2000)]
    for mask in masks:
        against = 0
        for i in range(n):
            against |= pos[i] if mask >> i & 1 else neg[i]
        assert ctx.compatible(mask) == ctx.everything & ~against


@pytest.mark.parametrize("claims", [True, False], ids=["claims", "omits"])
@pytest.mark.parametrize("name", ["A4", "A^3_1(28)"])
def test_corner_membership_check_fires(name, claims, monkeypatch):
    """A corner flat whose member mask disagrees with the signs of its point
    raises as the context is built, in both ranks and both fields."""
    template = builtin(name)
    fresh = Arrangement(template.normals, template.field)
    for arr in (fresh, fresh.restriction(0)):
        flats = misplaced_corners(arr.corner_flats(), arr.n, claims)
        monkeypatch.setattr(type(arr), "corner_flats", lambda self, flats=flats: flats)
        with pytest.raises(AssertionError, match="corner flat membership"):
            enumerate_chambers(arr)


def _walls_agree(arr):
    """Every chamber's walls equal the per-hyperplane popcount scan."""
    ctx = _context(arr)
    for ch in enumerate_chambers(arr):
        corners = ctx.compatible(ch.mask)
        assert ch.walls == reference_walls(ctx, corners) == ctx.walls(corners, ch.mask)
    return is_simplicial(arr)


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "H4", "A^3_1(27)", "A^3_1(28)"])
def test_mask_walls_match_hyperplane_scan_builtins(name):
    arr = builtin(name)
    assert _walls_agree(arr)
    assert _walls_agree(arr.restriction(0))


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 8), (Field.QUADRATIC_TAU, 5)])
def test_mask_walls_match_hyperplane_scan_random(field, count, boolean, generic5):
    simplicial = []
    for arr in [boolean, generic5, *random_arrangements(field, count, seed=20240615)]:
        simplicial.append(_walls_agree(arr))
        _walls_agree(arr.restriction(0))
    assert not all(simplicial)


@pytest.fixture
def rank_calls(monkeypatch):
    """The row count of every facet certificate (`spans_hyperplane`) the
    chamber walk makes."""
    spans_hyperplane = arr4.chambers.spans_hyperplane
    calls = []

    def counting_certificate(rows, kernel):
        calls.append(len(rows))
        return spans_hyperplane(rows, kernel)

    monkeypatch.setattr(arr4.chambers, "spans_hyperplane", counting_certificate)
    return calls


def test_walk_makes_no_rank_call(monkeypatch):
    """The walk certifies its facets without `rank_basis`."""

    def no_rank(rows, kernel):
        raise AssertionError("rank_basis called")

    monkeypatch.setattr(arr4.chambers, "rank_basis", no_rank)
    for template in (builtin("A4"), builtin("A^3_1(28)")):
        fresh = Arrangement(template.normals, template.field)
        for arr in (fresh, fresh.restriction(0)):
            assert all(len(ch.walls) == arr.dim for ch in enumerate_chambers(arr))


def _per_facet_certificates(arr):
    """The `spans_hyperplane` calls one walk of arr must make: one per wall
    of a chamber with more than dim walls whose neighbour across that wall
    has the larger canonical mask, found by a walk of its own."""
    full = (1 << arr.n) - 1
    return sum(
        _canonical_mask(ch.mask ^ 1 << h, full) > ch.mask
        for ch in _bfs_chambers(arr)
        if len(ch.walls) > arr.dim
        for h in ch.walls
    )


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 4), (Field.QUADRATIC_TAU, 3)])
def test_every_facet_certified_once(field, count, rank_calls):
    """Each simplicial chamber certifies its facets with one determinant, and
    every other distinct facet is certified once, on that facet's corners,
    by its lower-mask chamber."""
    arrangements = [builtin("A4"), builtin("A^3_1(27)")]
    arrangements += random_arrangements(field, count, seed=20240620)
    wide = 0
    for template in arrangements:
        fresh = Arrangement(template.normals, template.field)
        for arr in (fresh, fresh.restriction(0)):
            expected = _per_facet_certificates(type(arr)(arr.normals, arr.field))
            determinants = []
            ctx = _Context(arr)
            dot = ctx.kernel.dot
            ctx.kernel = ctx.kernel._replace(dot=lambda u, v: determinants.append(1) or dot(u, v))
            arr._cache["chamber_ctx"] = ctx
            rank_calls.clear()
            chambers = enumerate_chambers(arr)
            facets = sum(len(ch.walls) for ch in chambers)
            assert facets % 2 == 0 and len(rank_calls) == expected <= facets // 2
            assert len(determinants) == sum(len(ch.walls) == arr.dim for ch in chambers)
            assert min(rank_calls, default=arr.dim - 1) >= arr.dim - 1
            wide += expected
    assert wide > 0  # the random draws reach the per-facet certificate


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU], ids=lambda f: f.value)
def test_spans_hyperplane_rejects_too_few_rows(field):
    """Two independent forms of length 4 have nonzero 2x2 minors, but they
    span no hyperplane of K^4."""
    rng = random.Random(20261020)
    kernel = KERNELS[field]
    for _ in range(20):
        if field is Field.RATIONAL:
            u, v = (tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2))
        else:
            u, v = (tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)) for _ in range(2))
        if not any(map(kernel.sign, kernel.normal([u, v]))):
            continue  # dependent: not the case in point
        assert not arr4.chambers.spans_hyperplane([u, v], kernel)
        assert not arr4.chambers.spans_hyperplane([u], kernel)


def test_non_simplicial_walks_match_fm_walls(rank_calls):
    """On draws whose first chamber has more than four corners, the walls
    that the per-facet certificates pass equal the Fourier-Motzkin walls,
    and no certificate gets fewer than dim - 1 tight corners."""
    checked = 0
    for template in random_arrangements(Field.RATIONAL, 12, seed=20240615):
        arr = Arrangement(template.normals, template.field)
        if len(seed_corners(_Context(arr), arr)) <= arr.dim:
            continue
        rank_calls.clear()
        for ch in enumerate_chambers(arr):
            assert ch.walls == walls(arr, ch.signs)
        assert min(rank_calls) >= arr.dim - 1
        checked += 1
    assert checked == 11


def _corrupted(arr):
    """A fresh chamber context whose corner 0 has the zero rank form."""
    ctx = _Context(arr)
    ctx.forms[0] = tuple(0 if isinstance(x, int) else (0, 0) for x in ctx.forms[0])
    return ctx


@pytest.mark.parametrize("name", ["A4", "A^3_1(28)"])
def test_facet_certificate_fires(name):
    """A corner with the zero rank form makes the corners of its simplicial
    chambers dependent, which raises, in both ranks."""
    template = builtin(name)
    fresh = Arrangement(template.normals, template.field)
    for arr in (fresh, fresh.restriction(0)):
        arr._cache["chamber_ctx"] = _corrupted(arr)
        with pytest.raises(AssertionError, match="corner rays of a simplicial chamber"):
            enumerate_chambers(arr)


#: the tamperings of `helpers.tamper_seed_chamber` that the simplicial
#: certificate must catch, with the check that fires
_SIMPLICIAL_MUTANTS = {
    "dependent": "corner rays of a simplicial chamber must be independent",
    "holds_all": "walls must each hold all but one corner",
    "holds_short": "walls must each hold all but one corner",
}


@pytest.mark.parametrize("how", sorted(_SIMPLICIAL_MUTANTS))
@pytest.mark.parametrize("name", ["A4", "A^3_1(27)"])
def test_simplicial_certificate_fires(name, how):
    """Dependent corner forms, or a member mask widened so that a candidate
    holds dim or dim - 2 of a simplicial chamber's corners, raise, in both
    ranks and both fields: at that chamber, and in a walk and a report."""
    template = builtin(name)
    fresh = Arrangement(template.normals, template.field)
    for arr in (fresh, fresh.restriction(0)):
        ctx = tamper_seed_chamber(_Context(arr), arr, how)
        mask, corners = seed_chamber(ctx, arr)
        with pytest.raises(AssertionError, match=_SIMPLICIAL_MUTANTS[how]):
            ctx.walls(corners, mask)
        arr._cache["chamber_ctx"] = ctx
        with pytest.raises(AssertionError, match=_SIMPLICIAL_MUTANTS[how]):
            if arr is fresh:
                build_report(arr, with_chambers=True)
            else:
                enumerate_chambers(arr)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU], ids=lambda f: f.value)
def test_facet_certificate_fires_on_wider_chambers(field):
    """Zero rank forms on the corners of a first chamber with more than dim
    corners raise from its per-facet certificate, in both ranks."""
    for arr in (
        next(a for a in random_arrangements(field, 12, seed=20240615) if len(seed_corners(_Context(a), a)) > 4),
        next(
            r for a in random_arrangements(field, 12, seed=20240615)
            for r in [a.restriction(0)] if len(seed_corners(_Context(r), r)) > 3
        ),
    ):
        arr._cache["chamber_ctx"] = tamper_seed_chamber(_Context(arr), arr, "zero")
        with pytest.raises(AssertionError, match="tight corner rays of a facet"):
            enumerate_chambers(arr)


def test_chamber_without_corners_fires():
    """Side tables that put every corner on the wrong side of the first
    chamber raise: a walked chamber has corner rays."""
    template = builtin("A4")
    arr = Arrangement(template.normals, template.field)
    ctx = _Context(arr)
    ctx.tables = [[ctx.everything] * 16 for _ in ctx.tables]
    arr._cache["chamber_ctx"] = ctx
    with pytest.raises(AssertionError, match="enumerated chamber has no extreme rays"):
        enumerate_chambers(arr)


def _wide_facet(arr):
    """(hyperplane, unoriented tight corners) of the first facet of the walk
    with four or more corners, or None."""
    ctx = _context(arr)
    for ch in enumerate_chambers(arr):
        corners = ctx.compatible(ch.mask)
        for h in ch.walls:
            tight = sum(1 << j for j in _bits(ctx.unoriented(corners)) if ctx.members[j] >> h & 1)
            if tight.bit_count() >= 4:
                return h, tight
    return None


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU], ids=lambda f: f.value)
def test_facet_certificate_fires_on_wide_facets(field, generic5):
    """A corner moved off the plane of a facet with four or more corners, past
    the first three that fix the facet's normal, raises."""
    candidates = [generic5] if field is Field.RATIONAL else []
    candidates += random_arrangements(field, 12, seed=20240615)
    template, (h, tight) = next(
        (arr, facet) for arr in candidates if (facet := _wide_facet(arr)) is not None
    )
    assert not is_simplicial(template)
    j = tight.bit_length() - 1  # the facet's last corner
    arr = Arrangement(template.normals, template.field)
    ctx = _Context(arr)
    w = arr._integer_normals()[h]
    ctx.forms[j] = add_forms(ctx.forms[j], w)  # off h: w . (form + w) = w . w > 0
    arr._cache["chamber_ctx"] = ctx
    with pytest.raises(AssertionError, match="tight corner rays of a facet"):
        enumerate_chambers(arr)


def test_aborted_walk_leaves_no_certificates(rank_calls):
    """A walk stopped by the limit certifies nothing for the next walk."""
    template = random_arrangements(Field.RATIONAL, 1, seed=20240615)[0]
    arr = Arrangement(template.normals, template.field)
    with pytest.raises(ChamberLimitReached):
        enumerate_chambers(arr, limit=3)
    rank_calls.clear()
    enumerate_chambers(arr)
    assert len(rank_calls) == _per_facet_certificates(template) == 24


def test_enumeration_limit():
    arr = builtin("D4")
    arr._cache.pop("chambers", None)
    with pytest.raises(ChamberLimitReached):
        enumerate_chambers(arr, limit=10)
    assert len(enumerate_chambers(arr)) == 96
    with pytest.raises(ChamberLimitReached):
        enumerate_chambers(arr, limit=10)  # served from cache, still enforced


@pytest.mark.parametrize("limit", [0, -1])
def test_enumeration_limit_below_one_is_refused(limit):
    """A limit below 1 raises ValueError on a fresh arrangement and on one
    whose chamber list is cached, and `build_report` passes it on."""
    template = builtin("A4")
    arr = Arrangement(template.normals, template.field)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_chambers(arr, limit=limit)
    assert len(enumerate_chambers(arr)) == 60
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_chambers(arr, limit=limit)
    with pytest.raises(ValueError, match="at least 1"):
        build_report(arr, max_chambers=limit)


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


@pytest.mark.parametrize("name", ["A4", "B4", "F4", "A^3_1(28)"])
def test_rank3_diagram_predicates(name, boolean):
    """The diagram predicates on a restriction and the heaviest parabolic.

    Both are simplicial, so the diagram verdicts must match the counting
    criterion and the reducibility of a rank-3 arrangement: a point on all
    lines but one.
    """
    arr = builtin(name)
    heaviest = max(arr.vertices(), key=lambda flat: flat.weight)
    for sub in (arr.restriction(0), arr.parabolic(heaviest)):
        assert is_simplicial(sub)
        verdict = is_simply_laced(sub)
        assert verdict == simply_laced_h_criterion(sub)
        assert verdict == (max(sub.point_weights()) <= 3)
        assert is_irreducible_diagrams(sub) == (max(sub.point_weights()) < sub.n - 1)
    assert not is_irreducible_diagrams(boolean.restriction(0))


def test_simpliciality_agrees_with_facet_counting(boolean, generic5):
    from arr4 import f_vector

    for arr in (boolean, generic5, builtin("A4"), builtin("D4")):
        f = f_vector(arr)
        assert is_simplicial(arr) == (f[2] == 2 * f[3])


@pytest.mark.parametrize("field,count", [(Field.RATIONAL, 8), (Field.QUADRATIC_TAU, 5)])
def test_chamber_routes_agree_on_random_arrangements(field, count):
    """Zaslavsky count, Fourier-Motzkin walls and witness signs on every chamber."""
    simplicial = []
    for arr in random_arrangements(field, count, seed=20240615):
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


def test_canonical_key_matches_uncached_search():
    """The memoised diagram labels equal a fresh search on every chamber."""
    arrangements = [builtin("B4"), builtin("F4"), builtin("A^3_1(27)")]
    for field in (Field.RATIONAL, Field.QUADRATIC_TAU):
        arrangements += random_arrangements(field, 10, seed=20240620)
    labels = set()
    for arr in arrangements:
        for ch in enumerate_chambers(arr):
            diagram = coxeter_diagram(arr, ch)
            assert diagram.canonical_key() == reference_canonical_key(diagram)
            labels.add(diagram.canonical_key())
    # several shapes share a wall count, so a key that ignored the edges fails
    assert len(labels) > len({label.split(";")[0] for label in labels})


@pytest.mark.parametrize("walls, edges", [
    ((), ()), ((3,), ()), ((1, 2), ()), ((1, 2), ((1, 2, 4),)), ((0, 5, 7), ((0, 7, 3),)),
])
def test_canonical_key_of_small_diagrams(walls, edges):
    """Diagrams on fewer than three walls, whose weight words have fewer
    than two entries, get the same labels as the uncached search."""
    diagram = arr4.chambers.CoxeterDiagram(walls, edges)
    assert diagram.canonical_key() == reference_canonical_key(diagram)


def test_cached_diagram_labels_match_each_diagram():
    """The cached diagram records, which the report tallies and both
    diagram predicates read, equal each chamber's `coxeter_diagram`: its
    `is_connected()`, `canonical_key()` and heaviest edge weight, and the
    uncached search."""
    names = ("A4", "D4", "B4", "F4", "H4", "A^3_1(27)", "A^3_1(28)")
    arrangements = [builtin(name) for name in names]
    for field in (Field.RATIONAL, Field.QUADRATIC_TAU):
        arrangements += random_arrangements(field, 10, seed=20240620)
    for arr in arrangements:
        chambers, shapes = enumerate_chambers(arr), diagram_shapes(arr)
        assert len(shapes) == len(chambers)
        diagrams = [coxeter_diagram(arr, ch) for ch in chambers]
        heaviest = [max(d.edge_weights(), default=0) for d in diagrams]
        for diagram, weight, shape in zip(diagrams, heaviest, shapes):
            assert shape == (diagram.is_connected(), diagram.canonical_key(), weight)
            assert shape[1] == reference_canonical_key(diagram)
        assert is_irreducible_diagrams(arr) == all(d.is_connected() for d in diagrams)
        assert is_simply_laced(arr) == all(weight < 4 for weight in heaviest)


# coordinates closed under sign changes, drawn in every position
_POOL = {Field.RATIONAL: (0, 1, -1, 2, -2), Field.QUADRATIC_TAU: (0, 1, -1, 2, -2, TAU, -TAU)}


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU], ids=lambda f: f.value)
@given(data=st.data())
def test_chamber_property_walk_matches_lattice_and_fm(field, data):
    """On 4-9 distinct normals with coordinates from `_POOL`: the walk finds
    f3 chambers with 2 f2 walls in all, and each chamber's walls equal the
    Fourier-Motzkin `walls`.  Takes its example budget from the loaded
    hypothesis profile, as the kernel properties do."""
    vectors = st.tuples(*[st.sampled_from(_POOL[field])] * 4).filter(any)
    normals = data.draw(st.lists(
        vectors, min_size=4, max_size=9,
        unique_by=lambda vec: canonicalize_vector(vec, field),
    ))
    try:
        arr = Arrangement(normals, field)
    except NotEssential:
        assume(False)
    _, _, f2, f3 = f_vector(arr)
    chambers = enumerate_chambers(arr)
    assert len(chambers) == f3
    assert sum(len(ch.walls) for ch in chambers) == 2 * f2
    for ch in chambers:
        assert walls(arr, ch.signs) == ch.walls
