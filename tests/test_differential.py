"""Whole-pipeline identities on seeded random arrangements of both fields.

The draws come from `helpers.random_arrangements`: small coordinates, so
most are non-simplicial and some are reducible.  The lattice tallies and
the vertex pass are also compared on larger draws from a tiny coordinate
pool, whose lines and vertices are heavy, and the rank-3 point count on
draws with leading zeros.  The wall routes are compared in `test_chambers.py`;
these are the remaining checks.
"""

import random
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from arr4 import (
    TAU,
    Arrangement,
    NotEssential,
    Rank3Arrangement,
    builtin,
    char_poly_moebius,
    emit_arrangement,
    enumerate_chambers,
    f_vector,
    parse_arrangement,
)
from arr4.arrangement import _rank3_second
from arr4.constructions import _RECIPES, _build
from arr4.invariants import _mu_data
from arr4.linalg import _MINORS, KERNELS, cross_forms, hodge_forms
from arr4.report import build_report, to_json
from arr4.scalars import Field
from helpers import (
    canonicalize_vector,
    random_arrangements,
    reference_mu_data,
    reference_vertices,
)

_DRAWS = {Field.RATIONAL: 12, Field.QUADRATIC_TAU: 8}

# coordinates closed under sign changes, drawn in every position
_POOL = {Field.RATIONAL: (0, 1, -1), Field.QUADRATIC_TAU: (0, 1, -1, TAU, -TAU)}

_BUILTINS = {
    Field.RATIONAL: ("A4", "D4", "B4", "F4"),
    Field.QUADRATIC_TAU: ("H4", "A^3_1(27)", "A^3_1(28)"),
}


def _draws(field):
    return random_arrangements(field, _DRAWS[field], seed=20240618)


def _heavy_draws(field, count=4, seed=20240619):
    """10-16 distinct hyperplanes with coordinates in {0, +-1} (and +-tau)."""
    rng = random.Random(seed)
    pool = _POOL[field]
    out = []
    while len(out) < count:
        size = rng.randint(10, 16)
        normals = {}
        while len(normals) < size:
            vec = tuple(rng.choice(pool) for _ in range(4))
            if any(vec):
                normals.setdefault(canonicalize_vector(vec, field), vec)
        try:
            out.append(Arrangement(list(normals.values()), field))
        except ValueError:  # non-spanning normals
            continue
    return out


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_vertex_tallies_match_reference_scan(field):
    """Moebius values and incident-line counts from the vertex pass equal
    the vertex-by-line scan."""
    heavy = 0
    for arr in _draws(field) + _heavy_draws(field):
        assert _mu_data(arr) == reference_mu_data(arr)
        heavy += max(v.weight for v in arr.vertices()) >= 6
    assert heavy  # the draws do reach heavy vertices


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_vertex_pass_matches_full_point_reference(field):
    """Vertices keyed by their positions on each line equal the vertices
    grouped by full 4-coordinate points: members, points and tallies."""
    leads = set()
    builtins = [builtin(label) for label in _BUILTINS[field]]
    for arr in builtins + _draws(field) + _heavy_draws(field):
        assert arr.field is field
        verts, tallies = reference_vertices(arr)
        assert [(v.members, v.point) for v in arr.vertices()] == [
            (v.members, v.point) for v in verts
        ]
        assert arr.vertex_line_tallies() == tallies
        nonzero = arr._kernel.sign
        leads.update(
            next(t for t, x in enumerate(line.key) if nonzero(x)) for line in arr._rank2()
        )
    assert leads == set(range(6))  # every complement pair is used


@pytest.mark.parametrize("label", ["H4", "A^3_1(28)", "heavy rational draw"])
def test_counts_build_no_vertex_flat(label):
    """The report without chambers and every count read the vertex pass
    alone; the flats made afterwards equal the reference and a copy that
    read `vertices()` first, in the pass's own (member) order."""
    def fresh():  # not the shared builtin(), whose lattice other tests read
        if label.startswith("heavy"):
            return _heavy_draws(Field.RATIONAL, count=1)[0]
        return Arrangement(builtin(label).normals, builtin(label).field)

    arr, first = fresh(), fresh()
    flats_first = [(v.members, v.key) for v in first.vertices()]
    build_report(arr, with_chambers=False)
    f_vector(arr)
    arr.t_vector()
    arr.multiplicity()
    char_poly_moebius(arr)
    arr.restriction_counts()
    assert "vertices" not in arr._cache
    members = [
        tuple(i for i in range(arr.n) if mask >> i & 1) for mask in arr._vertex_pass()[0]
    ]
    assert members == sorted(members)  # the pass order needs no sort

    verts, tallies = reference_vertices(arr)
    before = set(arr._cache)
    flats = [(v.members, v.key) for v in arr.vertices()]
    assert set(arr._cache) - before == {"vertices"}  # the read caches the flats alone
    # the pass keeps masks, weights and line tallies, no witnesses
    parts = arr._cache["vertex_pass"]
    assert [(type(part), len(part)) for part in parts] == [(tuple, len(verts))] * 4
    assert flats == [(v.members, v.key) for v in verts] == flats_first
    assert arr.vertex_line_tallies() == tallies == first.vertex_line_tallies()
    assert arr.vertex_weights() == tuple(v.weight for v in verts)


def _counting_group(monkeypatch, field):
    """Wrap both grouping batches of `KERNELS[field]`, `group` on lines of
    P^3 and `meets` on lines of P^2, for the arrangements built afterwards;
    returns the list that collects the number of rows of each call."""
    kernel = KERNELS[field]
    handed = []

    def group(p, q, rows):
        handed.append(len(rows))
        return kernel.group(p, q, rows)

    def meets(u, rows):
        handed.append(len(rows))
        return kernel.meets(u, rows)

    monkeypatch.setitem(KERNELS, field, kernel._replace(group=group, meets=meets))
    return handed


@pytest.mark.parametrize("label, vertex_rows, restriction_rows", [
    ("H4", 3433, 8365),
    ("A^3_1(28)", 476, 1892),
])
def test_group_rows_on_builtins(monkeypatch, label, vertex_rows, restriction_rows):
    """Each vertex and each restricted point is grouped once: the rows that
    the vertex pass hands to `group` and the restriction route to `meets`
    on the two largest Q(tau) built-ins (35 distinct restrictions of H4's
    60 counted, all 28 of A^3_1(28))."""
    template = builtin(label)
    handed = _counting_group(monkeypatch, template.field)
    arr = Arrangement(template.normals, template.field)
    arr._vertex_pass()
    assert sum(handed) == vertex_rows
    handed.clear()
    arr.restriction_counts()
    assert sum(handed) == restriction_rows


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_each_flat_grouped_once(monkeypatch, field):
    """The vertex pass hands `group` the w_v - |L| normals off the first line
    L of each vertex v (the line of its two lowest members), and the
    restriction route hands `meets` the w_p - 1 later lines of each
    restricted point p, once per distinct set of restricted normals:
    Sum (chambers - 1) over those sets."""
    templates = [builtin(label) for label in _BUILTINS[field]] + _draws(field) + _heavy_draws(field)
    handed = _counting_group(monkeypatch, field)
    for template in templates:
        arr = Arrangement(template.normals, field)
        handed.clear()
        arr._vertex_pass()
        first_lines = 0
        for v in arr.vertices():
            low, high = v.members[:2]
            line = next(flat for flat in arr.lines() if flat.mask >> low & flat.mask >> high & 1)
            first_lines += line.weight
        assert sum(handed) == sum(arr.vertex_weights()) - first_lines
        handed.clear()
        counts = arr.restriction_counts()
        distinct = {
            frozenset(arr.restriction(h)._integer_normals()): chambers
            for h, (_, chambers) in enumerate(counts)
        }
        assert sum(handed) == sum(chambers - 1 for chambers in distinct.values())


def _rank3_draws(field, count=40, seed=20240620):
    """5-9 lines in K^3 from a pool rich in zeros, so leading zeros are common."""
    rng = random.Random(seed)
    pool = (0, 0, 1, -1, 2) if field is Field.RATIONAL else (0, 0, 1, -1, TAU, -TAU)
    out = []
    while len(out) < count:
        normals = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(rng.randint(5, 9))]
        try:
            out.append(Rank3Arrangement(normals, field))
        except ValueError:  # zero, repeated or non-spanning normals
            continue
    return out


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_rank3_second_matches_point_grouping(field):
    """Positions of the later lines on each line count sum_p (w_p - 1).

    Key for key: on each line i, the groups that `meets` forms of the other
    lines, each with line i added, are exactly the points of `_rank2()` on
    line i, so a wrong minor that leaves the total unchanged still fails.
    """
    dropped = set()
    heavy = 0
    for sub in _rank3_draws(field):
        keys = sub._integer_normals()
        groups = [flat.mask for flat in sub._rank2()]
        assert _rank3_second(keys, sub._kernel) == sum(m.bit_count() - 1 for m in groups)
        rows = [(1 << j, v) for j, v in enumerate(keys)]
        for i, u in enumerate(keys):
            met = sub._kernel.meets(u, rows[:i] + rows[i + 1:]).values()
            assert sorted(found | 1 << i for found in met) == [
                mask for mask in sorted(groups) if mask >> i & 1
            ]
        nonzero = sub._kernel.sign
        dropped.update(next(c for c, x in enumerate(u) if nonzero(x)) for u in keys[:-1])
        heavy += max(m.bit_count() for m in groups) >= 3
    assert dropped == {0, 1, 2}
    assert heavy  # some points carry three or more lines


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_lattice_forms_match_normal(field):
    """The forms whose dots the two lattice walks key, against `normal`.

    On every line of P^3 the Hodge forms of its key dotted with a normal w
    off the line are proportional to normal((u, v, w)), u and v two members
    of the line; in K^3 the cross-product forms of u dotted with v are
    normal((u, v)), entry for entry.  Over the built-ins and the seeded
    draws, and in K^3 over restriction 0 of each and the rank-3 draws; every
    line pivot t in 0-5 and every pivot c in 0-2 is met.
    """
    kernel = KERNELS[field]
    canonical, sign = kernel.canonical, kernel.sign
    arrangements = [builtin(label) for label in _BUILTINS[field]]
    arrangements += _draws(field) + _heavy_draws(field)
    pivots = set()
    for arr in arrangements:
        ints = arr._integer_normals()
        for line in arr.lines():
            pivots.add(next(t for t, x in enumerate(line.key) if sign(x)))
            forms = hodge_forms(line.key, kernel)
            u, v = (ints[i] for i in line.members[:2])
            for k, w in enumerate(ints):
                if not line.mask >> k & 1:
                    point = kernel.dots(w, forms)
                    assert canonical(point) == canonical(kernel.normal((u, v, w)))
    assert pivots == set(range(6))
    pivots = set()
    for sub in [arr.restriction(0) for arr in arrangements] + _rank3_draws(field):
        ints = sub._integer_normals()
        for u in ints:
            pivots.add(next(c for c, x in enumerate(u) if sign(x)))
            forms = cross_forms(u, kernel)
            for v in ints:
                assert kernel.dots(v, forms) == list(kernel.normal((u, v)))
    assert pivots == {0, 1, 2}


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_flat_keys_are_canonical_integer_forms(field):
    """A point flat's key is the integer form of its point; a rank-2 flat's
    key is the canonical minors of its first two members' integer normals.

    Over the built-ins, restriction 0 and the heaviest parabolic of each, and
    the seeded draws of both ranks.
    """
    arrangements = [builtin(label) for label in _BUILTINS[field]]
    for arr in list(arrangements):
        heaviest = max(arr.vertices(), key=lambda v: v.weight)
        arrangements += [arr.restriction(0), arr.parabolic(heaviest)]
    checked = 0
    for arr in arrangements + _draws(field) + _rank3_draws(field):
        assert arr.field is field
        kernel = KERNELS[field]
        idot, neg, canonical = kernel.dot, kernel.neg, kernel.canonical
        rank2, points = (arr.lines(), arr.vertices()) if arr.dim == 4 else (arr.points(),) * 2
        for flat in points:
            assert kernel.ints(flat.point) == flat.key
        ints = arr._integer_normals()
        for flat in rank2:
            u, v = (ints[i] for i in flat.members[:2])
            minors = tuple(idot((u[a], u[b]), (v[b], neg(v[a]))) for a, b in _MINORS[arr.dim])
            assert flat.key == canonical(minors)
        checked += arr.dim == 3
    assert checked == 2 * len(_BUILTINS[field]) + 40


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_f2_formula_matches_restriction_counts(field):
    """f2 from the vertex tallies equals the restrictions' chamber counts."""
    for arr in _draws(field) + _heavy_draws(field):
        assert f_vector(arr)[2] == sum(chambers for _, chambers in arr.restriction_counts())


def _assert_counts_match_restrictions(arr):
    """Each hyperplane's cached (size, chamber count) is its own
    restriction's, counted afresh; returns the distinct chamber counts
    per restriction size."""
    fresh = tuple(
        (sub.n, sub.projective_chamber_count()) for sub in map(arr.restriction, range(arr.n))
    )
    assert arr.restriction_counts() == fresh
    by_size = {}
    for size, chambers in fresh:
        by_size.setdefault(size, set()).add(chambers)
    return by_size


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_restriction_counts_match_each_restriction(field):
    """On the seeded draws, most of them non-simplicial, and some with
    restrictions of one size and different chamber counts, so the counts
    can only be shared between equal sets of restricted normals."""
    split = 0
    for arr in _draws(field) + _heavy_draws(field):
        by_size = _assert_counts_match_restrictions(arr)
        split += any(len(counts) > 1 for counts in by_size.values())
    assert split


def test_restriction_counts_match_each_restriction_on_rows(monkeypatch):
    """On every catalogue row built by its construction; B4's 16
    restrictions have one set of restricted normals, so `meets` is handed
    the rows of a single restriction."""
    for label in _RECIPES:
        _assert_counts_match_restrictions(_build(label))
    template = builtin("B4")
    handed = _counting_group(monkeypatch, template.field)
    arr = Arrangement(template.normals, template.field)
    counts = arr.restriction_counts()
    assert len(set(counts)) == 1
    assert sum(handed) == counts[0][1] - 1


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
@given(data=st.data())
def test_restriction_property_counts_match_each_restriction(field, data):
    """The cached counts against each restriction counted afresh, on 4-16
    distinct normals with coordinates from `_POOL`: the pool is the same in
    every position and closed under sign changes, so restrictions with
    equal sets of restricted normals are common.  Takes its example budget
    from the loaded hypothesis profile, as the kernel properties do."""
    vectors = st.tuples(*[st.sampled_from(_POOL[field])] * 4).filter(any)
    normals = data.draw(st.lists(
        vectors, min_size=4, max_size=16,
        unique_by=lambda vec: canonicalize_vector(vec, field),
    ))
    try:
        arr = Arrangement(normals, field)
    except NotEssential:
        assume(False)
    _assert_counts_match_restrictions(arr)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_euler_relation_and_pair_count(field):
    for arr in _draws(field):
        f0, f1, f2, f3 = f_vector(arr)
        assert f0 - f1 + f2 - f3 == 0
        assert f0 == len(arr.vertices())
        assert 2 * f3 == char_poly_moebius(arr)(-1)
        assert len(enumerate_chambers(arr)) == f3
        assert sum(comb(flat.weight, 2) for flat in arr.lines()) == comb(arr.n, 2)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_restriction_sum_identity(field):
    """Sum of restriction sizes minus the line count is sum (i - 1) h_i."""
    for arr in _draws(field):
        lines = arr.lines()
        sizes = [size for size, _ in arr.restriction_counts()]
        h_total = sum((i - 1) * c for i, c in arr.h_vector().items())
        assert sum(sizes) - len(lines) == h_total
        for h, size in enumerate(sizes):
            assert size == sum(1 for flat in lines if flat.mask >> h & 1)


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_parse_emit_parse_round_trip(field):
    for arr in _draws(field):
        text = emit_arrangement(arr)
        again = parse_arrangement(text)
        assert again.field is arr.field
        assert set(again.normals) == set(arr.normals)
        assert emit_arrangement(again) == text
        assert parse_arrangement(emit_arrangement(again)).normals == again.normals


@pytest.mark.parametrize("field", [Field.RATIONAL, Field.QUADRATIC_TAU])
def test_build_report_is_total_and_deterministic(field):
    for arr in _draws(field):
        for with_chambers in (True, False):
            first = to_json(build_report(arr, with_chambers=with_chambers))
            fresh = Arrangement(arr.normals, arr.field)
            assert to_json(build_report(fresh, with_chambers=with_chambers)) == first
